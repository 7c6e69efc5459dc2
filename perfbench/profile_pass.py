"""The profiled pass of a traced run: one fixed cold job under cProfile.

    python3 perfbench/profile_pass.py --job paper|sweep --out FILE

Run twice per traced run, each time in a fresh process with a fixed
``PYTHONHASHSEED``, so the two call-count tables can be compared for an
exact repeat.  ``tottime`` and ``ncalls`` are summed per source file
under ``src/repro``.

The jobs are small stand-ins for the workloads' cold passes, since
profiling slows pure-Python simulation several times over:

* ``paper``: one benchmark (``rspeed``, compiled) through every
  simulation stage the figure drivers use.
* ``sweep``: two design points of the ``opn-topology`` preset with
  non-default components, through the sweep's point resolution.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def paper_job(pipeline) -> int:
    name = "rspeed"
    pipeline.trips_functional(name)
    pipeline.block_trace(name, "compiled", "basic")
    pipeline.powerpc(name)
    pipeline.platform(name, "core2", "O2")
    insts = pipeline.trips_cycles(name).stats.executed
    insts += pipeline.ideal(name, "compiled", 1024, 8).executed
    return insts


def sweep_job(pipeline) -> int:
    from repro.explore.engine import point_artifact
    insts = 0
    for topology, predictor in (("torus", "gshare"), ("dwmesh", "tournament")):
        payload = {"benchmark": "rspeed", "variant": "compiled",
                   "system": "cycles",
                   "settings": {"opn_topology": topology,
                                "predictor_kind": predictor}}
        insts += point_artifact(pipeline, payload).stats.executed
    return insts


JOBS = {"paper": paper_job, "sweep": sweep_job}


def per_file(profile: cProfile.Profile) -> dict:
    """``{path under src/repro: [tottime, ncalls]}``."""
    root = str(common.SRC / "repro") + "/"
    table: dict = {}
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) \
            in pstats.Stats(profile).stats.items():
        if not filename.startswith(root):
            continue
        entry = table.setdefault(filename[len(root):], [0.0, 0])
        entry[0] += tottime
        entry[1] += ncalls
    return table


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--job", choices=sorted(JOBS), required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    from repro.pipeline.core import Pipeline
    pipeline = Pipeline()          # memory-only: every stage computes
    profile = cProfile.Profile()
    profile.enable()
    insts = JOBS[args.job](pipeline)
    profile.disable()
    common.write_json(args.out, {"job": args.job, "sim_insts": insts,
                                 "files": per_file(profile)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
