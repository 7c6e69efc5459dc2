"""Shared plumbing for the repro benchmark: paths, child processes,
statistics, goldens and host facts.

Only :func:`host_facts` imports ``repro``, after :func:`require_source`
has checked that the checkout holds it: without ``src/`` the benchmark
exits 2 before printing any result.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
#: Everything a run writes (caches, spools, journals, records) lives
#: here, inside the checkout; each workload run starts from an empty
#: subdirectory.
WORK = ROOT / ".perfbench-work"

#: Fixed hash seed for every child, so set/dict iteration order and
#: therefore profiled call counts repeat exactly between runs.
HASH_SEED = "0"


def clock() -> float:
    """CLOCK_MONOTONIC seconds: one clock shared by every process on the
    host, so a worker's timestamps compare with its parent's."""
    return time.monotonic()


def require_source() -> None:
    """Refuse to run outside a checkout that holds the program; else put
    its sources on this process's path (the serve load generator uses
    the shipped client)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}; run "
                         f"from the root of a repro checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU.

    The host's vCPUs drift in speed each on its own, so a speed index
    (``speed.py``) sampled in one process applies to another only if
    both run on the same core.  Returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def child_env(cache_dir: Optional[Path] = None,
              spans: Optional[Path] = None) -> Dict[str, str]:
    """Environment for a worker: the checkout's sources on the path, a
    fixed hash seed, and every repro cache inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("REPRO_SPANS", None)
    env.pop("REPRO_RUN_ID", None)
    env.pop("REPRO_UARCH_COMPONENTS", None)
    env["REPRO_CACHE"] = "1"
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    if spans is not None:
        env["REPRO_SPANS"] = str(spans)
    return env


def run_child(argv: Sequence[str], env: Dict[str, str], cwd: Path,
              timeout: float) -> subprocess.CompletedProcess:
    """Run one Python child to completion (stdout/stderr captured)."""
    return subprocess.run([sys.executable, *argv], env=env, cwd=str(cwd),
                          capture_output=True, text=True, timeout=timeout)


def read_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: Path, data: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def canonical(value: Any) -> Any:
    """The JSON round-trip of ``value``: what a golden file holds."""
    return json.loads(json.dumps(value, sort_keys=True))


def load_golden(name: str) -> Any:
    return read_json(GOLDENS / name)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile_with_tail(values: Sequence[float], pct: float,
                         tail: int = 10) -> float:
    """The ``pct`` percentile, checked to have at least ``tail``
    samples beyond it (nearest-rank)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    rank = int(min(rank, len(ordered)))
    if len(ordered) - rank < tail:
        raise ValueError(f"p{pct:g} of {len(ordered)} samples has "
                         f"{len(ordered) - rank} beyond it (< {tail})")
    return ordered[rank - 1]


def rss_mb_of(pid: int, field: str = "VmHWM") -> float:
    """``field`` (VmHWM or VmRSS) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"{field} not in /proc/{pid}/status")


def self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts() -> Dict[str, Any]:
    """CPU count, Python, numpy presence and the default kernel backend
    (the last two asked of the program itself)."""
    facts: Dict[str, Any] = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    try:
        from repro.uarch.config import TripsConfig
        from repro.uarch.vectors import numpy_available
        facts["numpy"] = bool(numpy_available())
        facts["kernel_backend"] = TripsConfig().kernel_backend
    except ImportError:
        facts["numpy"] = None
        facts["kernel_backend"] = None
    return facts


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}

