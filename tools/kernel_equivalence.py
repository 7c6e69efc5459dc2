#!/usr/bin/env python
"""Corpus-wide kernel equivalence check (run by the CI
``kernel-equivalence`` job), plus the ideal machine's Figure 10 goldens.

Every cycle simulator runs :class:`repro.uarch.kernels.BatchedKernel`.
This tool runs each compiled-variant benchmark (O2 + hyperblock
formation, the pipeline's ``compiled`` lowering) twice — once on that
kernel and once on the :class:`~repro.uarch.kernels.ScalarKernel`
timing oracle — and requires the two runs to agree exactly on:

* the program result;
* the ``CycleStats`` record, field for field;
* the operand-network statistics (packets, hops, histograms, queueing);
* the L1-D, L1-I, and per-bank L2 cache counters, and DRAM accesses.

For each benchmark that Figure 10 renders, the same loop also runs the
ideal machine on the compiled and (where there is one) hand variant at
the three Figure 10 configurations, and requires its ``IdealStats`` to
equal ``tests/data/ideal_fig10.json`` exactly.

It stops at the first mismatch, prints one ``FAIL:`` line naming the
benchmark and the differing record, and exits 1.  Exit 0 means every
benchmark agreed.  Usage::

    python tools/kernel_equivalence.py               # the whole corpus
    python tools/kernel_equivalence.py crc rspeed    # named benchmarks

Needs ``src/`` importable (run from the repo root, or with
``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional

REPO = Path(__file__).resolve().parent.parent
IDEAL_GOLDENS = REPO / "tests" / "data" / "ideal_fig10.json"


def fingerprint(result, sim) -> Dict[str, object]:
    """Everything two equivalent kernels must agree on after a run."""
    hierarchy = sim.hierarchy
    return {
        "result": result,
        "cycle stats": vars(sim.stats),
        "opn stats": vars(sim.opn.stats),
        "l1d stats": vars(hierarchy.l1d.stats),
        "l1i stats": vars(hierarchy.l1i.stats),
        "l2 stats": [vars(bank.stats) for bank in hierarchy.l2.banks],
        "dram accesses": hierarchy.dram.accesses,
    }


def check_benchmark(name: str) -> Optional[str]:
    """Run ``name`` on both kernels; the first differing record's
    description, or ``None`` when they agree."""
    from repro.bench import get
    from repro.opt import optimize
    from repro.trips import lower_module
    from repro.uarch import CycleSimulator, ScalarKernel

    lowered = lower_module(optimize(get(name).module(), "O2"),
                           formation="hyper")
    prints = []
    for oracle in (True, False):
        sim = CycleSimulator(lowered)
        if oracle:
            sim.kernel = ScalarKernel()
        result = sim.run()
        prints.append(fingerprint(result, sim))
    oracle_print, kernel_print = prints
    for key, expected in oracle_print.items():
        if kernel_print[key] != expected:
            return (f"{key} differ: oracle {expected!r}, "
                    f"kernel {kernel_print[key]!r}")
    return None


def check_ideal(name: str, goldens: Dict[str, dict]) -> Optional[str]:
    """Run ``name``'s Figure 10 rows on the ideal machine; the first
    configuration whose ``IdealStats`` differ from ``goldens``, or
    ``None`` when all agree (or Figure 10 does not render ``name``)."""
    from repro.bench import get
    from repro.opt import optimize
    from repro.pipeline import VARIANT_LEVEL
    from repro.trips import lower_module
    from repro.uarch import run_ideal

    for variant, level in VARIANT_LEVEL.items():
        rows = goldens.get(f"{name}/{variant}")
        if rows is None:
            continue
        lowered = lower_module(optimize(get(name).module(), level),
                               formation="hyper")
        for config, expected in rows.items():
            window, dispatch_cost = map(int, config.split("/"))
            _, sim = run_ideal(lowered.program, window=window,
                               dispatch_cost=dispatch_cost)
            if vars(sim.stats) != expected:
                return (f"ideal {variant} {config} differs: golden "
                        f"{expected!r}, got {vars(sim.stats)!r}")
    return None


def main(argv: Iterable[str] = ()) -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.bench import all_benchmarks

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmarks", nargs="*", metavar="NAME",
                        help="benchmarks to check (default: all)")
    args = parser.parse_args(list(argv))
    names = args.benchmarks or [bench.name for bench in all_benchmarks()]

    goldens = json.loads(IDEAL_GOLDENS.read_text())
    start = time.perf_counter()
    for name in names:
        began = time.perf_counter()
        problem = check_benchmark(name) or check_ideal(name, goldens)
        if problem is not None:
            print(f"FAIL: {name}: {problem}")
            return 1
        print(f"ok    {name:12s} {time.perf_counter() - began:7.2f} s",
              flush=True)
    print(f"kernels equivalent on {len(names)} benchmark(s), ideal "
          f"goldens matched, in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
