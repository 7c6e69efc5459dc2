"""Regenerate ``perfbench/goldens/`` from the current program.

    python3 perfbench/make_goldens.py

Runs each workload's cold job once (seed 0) and writes what it
produced: the rendered ``paper`` figure text, the ``sweep`` per-point
records without run ids, and the ``serve`` response metrics per
request.  Only regenerate when a change is meant to alter outputs, and
say so in the change.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import run  # noqa: E402


def main() -> int:
    common.require_source()
    common.GOLDENS.mkdir(exist_ok=True)
    work = common.fresh_dir(common.WORK / "goldens")
    for name in ("paper.json", "sweep.json", "serve.json"):
        common.write_json(common.GOLDENS / name, {})
    paper = run.run_worker("paper", work / "paper", 0, 0, "--cold-only")
    common.write_json(common.GOLDENS / "paper.json", paper["texts"])
    sweep = run.run_worker("sweep", work / "sweep", 0, 0, "--cold-only")
    common.write_json(common.GOLDENS / "sweep.json", sweep["records"])
    import serve
    phase = serve.run_phase(work / "serve", work / "serve" / "cache", 0, 0.5,
                            {}, traced=False, setup_starts=1, tag="goldens")
    common.write_json(common.GOLDENS / "serve.json", phase["cold_metrics"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
