"""``paper`` workload worker: regenerate the paper's figures in miniature.

Run by ``run.py`` in a fresh process per run (so its peak RSS is its
own), with the checkout's ``src`` on ``PYTHONPATH`` and an empty cache
directory::

    python3 perfbench/paper.py --work DIR --seed N --seconds S [--trace]

Cold pass: every figure driver of Sections 4-6 that depends on
simulation (fig8, fig8b and sec6 have fixed inputs and are left out),
on a reduced benchmark subset, into an empty artifact store.  Warm
passes: the same drivers again, each pass with a fresh
``Runner(cache_dir=<same dir>)``, until ``--seconds`` have passed;
their telemetry must show zero simulation computes.  Every time
reported is in reference seconds (``speed.py``): wall time scaled by
the host CPU's speed, sampled in this process while it works.

The inputs are the paper's fixed drivers and benchmark subset, so the
seed changes nothing here.  Both passes keep the paper's driver order:
the cold pass's peak RSS depends on the order artifacts are built, and
in a warm pass the first driver to need an artifact pays its store load,
so a shuffled order would move time between drivers.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from speed import SpeedIndex  # noqa: E402

STARTED = common.clock()

from repro.eval.experiments import run_experiment  # noqa: E402
from repro.eval.runner import Runner  # noqa: E402
from repro.pipeline.core import SIMULATION_STAGES  # noqa: E402

#: The reduced subset.  The simple programs run compiled and hand;
#: ``parser`` and ``mgrid`` are the cheapest SPECINT and SPECFP proxies
#: (fig12 needs one of each for its two means).  ``mcf`` and ``swim``
#: would more than double the cold pass, and with it every run.
SIMPLE = ("vadd", "a2time", "rspeed")
SPEC_INT = ("parser",)
SPEC_FP = ("mgrid",)
SPEC = SPEC_INT + SPEC_FP

DRIVERS = {
    "fig3": dict(benchmarks=SIMPLE, include_spec=False),
    "fig4": dict(benchmarks=SIMPLE, include_spec=False),
    "fig5": dict(benchmarks=SIMPLE, include_spec=False),
    "sec44": dict(benchmarks=SIMPLE),
    "fig6": dict(benchmarks=SIMPLE, spec=SPEC),
    "fig7": dict(benchmarks=SPEC),
    "fig9": dict(benchmarks=SIMPLE, spec=SPEC),
    "fig10": dict(benchmarks=SIMPLE, spec=SPEC),
    "fig11": dict(benchmarks=SIMPLE),
    "fig12": dict(spec_int=SPEC_INT, spec_fp=SPEC_FP),
    "table3": dict(benchmarks=SPEC),
}

#: Ideal-machine configurations fig10 runs for every unit.
IDEAL_CONFIGS = ((1024, 8), (1024, 0), (128 * 1024, 0))

#: Warm passes per run: at least this many, so the p90 driver latency
#: has ten samples beyond it.
MIN_WARM_PASSES = 12
TRACED_WARM_PASSES = 3


def units():
    """Every (benchmark, variant) the cycle and ideal stages simulate."""
    from repro.bench import get
    out = [(name, "compiled") for name in SIMPLE + SPEC]
    out += [(name, "hand") for name in SIMPLE if get(name).has_hand]
    return out


def work_counters(runner: Runner) -> dict:
    """Deterministic work counters: simulator invocations per stage and
    the simulated cycles/blocks/instructions of the cycle and ideal
    runs, read back from the (memory-warm) runner after the cold pass."""
    telemetry = runner.pipeline.telemetry
    counters = {f"computes.{stage}": telemetry.counters(stage).computes
                for stage in SIMULATION_STAGES}
    cycles = blocks = insts = 0
    for name, variant in units():
        stats, _ = runner.trips_cycles(name, variant)
        cycles += stats.cycles
        blocks += stats.blocks_committed
        insts += stats.executed
        for window, cost in IDEAL_CONFIGS:
            ideal = runner.ideal(name, variant, window, cost)
            cycles += ideal.cycles
            blocks += ideal.blocks
            insts += ideal.executed
    counters.update({"sim_cycles": cycles, "sim_blocks": blocks,
                     "sim_insts": insts})
    return counters


def render(runner: Runner, key: str) -> str:
    return run_experiment(key, runner, **DRIVERS[key])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for a uniform interface; unused")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cold-only", action="store_true",
                        help="stop after the cold pass")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up and exit")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    cache = args.work / "cache"
    order = list(DRIVERS)
    probe = None
    if args.trace:
        import layers
        probe = layers.Probe()
        layers.install_simulation_probes(probe)
        layers.install_resolve_probes(probe)
    runner = Runner(cache_dir=cache)
    ready = common.clock()
    record = {"workload": "paper", "started": STARTED, "ready": ready,
              "order": order}
    if args.setup_only:
        common.write_json(args.out, record)
        return 0

    golden = common.load_golden("paper.json")
    attempted = failed = 0
    errors = []
    texts = {}
    index = SpeedIndex()
    index.start()
    started = time.perf_counter()
    for key in order:
        attempted += 1
        try:
            texts[key] = render(runner, key)
        except Exception as exc:  # a wrong simulator fails one figure
            failed += 1
            errors.append(f"cold {key}: {type(exc).__name__}: {exc}")
    ended = time.perf_counter()
    cold_s = index.normalized(started, ended)
    cold_wall_s = ended - started
    for key, text in texts.items():
        if text != golden.get(key):
            failed += 1
            errors.append(f"cold {key}: differs from golden")
    try:
        counters = work_counters(runner)
    except Exception as exc:  # its figure already counted as failed
        counters = {"error": f"{type(exc).__name__}: {exc}"}
    record.update(cold_s=cold_s, cold_wall_s=cold_wall_s, texts=texts,
                  counters=counters)
    if probe is not None:
        record["probe_cold"] = probe.snapshot()
        record["telemetry"] = layers.telemetry_layers(
            runner.pipeline.telemetry)
    # A warm `report` process never holds the cold artifacts: drop them,
    # so the warm passes do not pay for collecting the cold pass's heap.
    del runner
    gc.collect()

    latencies = []
    passes = []
    warm_stages = []
    if not args.cold_only:
        # A traced run needs only a few passes for per-pass means.
        least = TRACED_WARM_PASSES if args.trace else MIN_WARM_PASSES
        deadline = time.perf_counter() + (0 if args.trace else args.seconds)
        while len(passes) < least or time.perf_counter() < deadline:
            warm = Runner(cache_dir=cache)
            pass_started = time.perf_counter()
            bad = 0
            for key in order:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    text = render(warm, key)
                except Exception as exc:
                    bad += 1
                    errors.append(f"warm {key}: {type(exc).__name__}")
                    continue
                latencies.append(index.normalized(t0, time.perf_counter()))
                if text != golden.get(key):
                    bad += 1
                    errors.append(f"warm {key}: differs from golden")
            passes.append(index.normalized(pass_started,
                                           time.perf_counter()))
            computes = warm.pipeline.telemetry.computes(SIMULATION_STAGES)
            if computes:
                bad = len(order)
                errors.append(f"warm pass computed {computes} artifacts")
            failed += bad
            warm_stages.append({
                stage: vars(counters).copy()
                for stage, counters in warm.pipeline.telemetry.stages.items()})
    index.stop()
    if probe is not None:
        record["probe_all"] = probe.snapshot()
    record.update(
        host_cpu_ms=index.cpu_ms(),
        attempted=attempted, failed=failed, errors=errors[:20],
        warm_passes=passes, op_latencies=latencies,
        warm_stage_telemetry=warm_stages[-1:] if warm_stages else [],
        peak_rss_mb=common.self_peak_rss_mb(),
        host=common.host_facts())
    common.write_json(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
