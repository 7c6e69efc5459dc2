"""``sweep`` workload worker: the shipped ``opn-topology`` preset.

Run by ``run.py`` in a fresh process per run::

    python3 perfbench/sweep.py --work DIR --seed N --seconds S [--trace]

Cold: ``run_sweep_batched`` over the preset (3 benchmarks x 3 OPN
topologies x 2 predictors, 18 points) into an empty cache and output
directory.  Warm: the same sweep again, each time with a fresh pipeline
and output directory over the filled cache, until ``--seconds`` have
passed; a warm rerun must simulate nothing.  Warm times cover a
rerun's steady-state points, the 2nd to the 18th.  The operation whose
latency and rate are reported is one design point of the cold sweep:
what a user of a sweep waits for.  The cold sweep keeps the preset's
point order: the first point of each benchmark also pays its front end
(decode, golden run, lowering), so another order would move that time
between points.  The seed permutes the warm reruns' benchmark and
axis-value order, hence their point order; records are checked by point
label against one golden.  Every time reported is in reference seconds
(``speed.py``): wall time scaled by the host CPU's speed, sampled in
this process while it works.

The journal is written without fsync (``fsync=False``, which the engine
keeps for benchmarks): a sync costs the host disk's latency, which
swings far more than the engine's own work and is measured nowhere
else.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from speed import SpeedIndex  # noqa: E402

STARTED = common.clock()

from repro.explore import preset_spec, run_sweep_batched  # noqa: E402
from repro.explore.grid import expand  # noqa: E402
from repro.pipeline.core import SIMULATION_STAGES  # noqa: E402
from repro.pipeline.observe import Telemetry  # noqa: E402

PRESET = "opn-topology"

#: Warm reruns per run: at least this many for the median.
MIN_WARM_RERUNS = 8
TRACED_WARM_RERUNS = 2


def seeded_spec(seed: int):
    """The preset with its benchmarks and axis values in seed order."""
    rng = random.Random(seed)
    spec = preset_spec(PRESET)
    benchmarks = list(spec.benchmarks)
    rng.shuffle(benchmarks)
    axes = {}
    for name, values in spec.axes:
        values = list(values)
        rng.shuffle(values)
        axes[name] = values
    return spec.with_benchmarks(benchmarks).with_axes(axes)


def point_records(result) -> dict:
    """``label -> {status, metrics}``: the records without run ids."""
    return common.canonical({
        record["label"]: {"status": record["status"],
                          "metrics": record["metrics"]}
        for record in result.records})


def check(records: dict, golden: dict, phase: str, errors: list) -> int:
    bad = 0
    for label, record in records.items():
        if record["status"] != "ok":
            bad += 1
            errors.append(f"{phase} {label}: hole")
        elif record != golden.get(label):
            bad += 1
            errors.append(f"{phase} {label}: differs from golden")
    missing = set(golden) - set(records)
    if missing:
        bad += len(missing)
        errors.append(f"{phase}: {len(missing)} points missing")
    return bad


def work_counters(telemetry: Telemetry, records: dict) -> dict:
    counters = {f"computes.{stage}": telemetry.counters(stage).computes
                for stage in SIMULATION_STAGES}
    ok = [r["metrics"] for r in records.values() if r["status"] == "ok"]
    counters.update({
        "sim_cycles": sum(m["cycles"] for m in ok),
        "sim_blocks": sum(m["blocks_committed"] for m in ok),
        "sim_insts": sum(m["executed"] for m in ok)})
    return counters


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cold-only", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    cache = args.work / "cache"
    out = args.work / "out"
    spec = preset_spec(PRESET)
    warm_spec = seeded_spec(args.seed)
    probe = None
    if args.trace:
        import layers
        probe = layers.Probe()
        layers.install_simulation_probes(probe)
        layers.install_sweep_probes(probe)
    telemetry = Telemetry()
    ready = common.clock()
    record = {"workload": "sweep", "started": STARTED, "ready": ready,
              "order": [point.label for point in expand(warm_spec)]}
    if args.setup_only:
        common.write_json(args.out, record)
        return 0

    golden = common.load_golden("sweep.json")
    errors = []
    index = SpeedIndex()
    index.start()
    marks = [time.perf_counter()]
    result = run_sweep_batched(
        spec, cache, out / "cold", telemetry=telemetry, fsync=False,
        progress=lambda _label: marks.append(time.perf_counter()))
    ended = time.perf_counter()
    cold_wall_s = ended - marks[0]
    cold_s = index.normalized(marks[0], ended)
    point_latencies = [index.normalized(a, b)
                       for a, b in zip(marks, marks[1:])]
    records = point_records(result)
    points = spec.point_count()
    attempted = points
    failed = check(records, golden, "cold", errors)
    record.update(cold_s=cold_s, cold_wall_s=cold_wall_s, records=records)
    if probe is not None:
        record["probe_cold"] = probe.snapshot()
        record["telemetry"] = layers.telemetry_layers(telemetry)

    reruns = []
    points_parts = []
    if not args.cold_only:
        least = TRACED_WARM_RERUNS if args.trace else MIN_WARM_RERUNS
        deadline = time.perf_counter() + (0 if args.trace else args.seconds)
        while len(reruns) < least or time.perf_counter() < deadline:
            marks = [time.perf_counter()]
            warm_telemetry = Telemetry()
            result = run_sweep_batched(
                warm_spec, cache, out / f"warm-{len(reruns)}",
                telemetry=warm_telemetry, fsync=False,
                progress=lambda _label: marks.append(time.perf_counter()))
            reruns.append(time.perf_counter() - marks[0])
            # Warm time covers the steady-state points, 2nd to last.
            # The first point's gap holds the rerun's set-up (a new
            # journal and output directory) and the closing artifact,
            # pack and run-index writes follow the last: both are bound
            # by the host's file system and swing run to run far more
            # than the points do.
            points_parts.append(index.normalized(marks[1], marks[-1]))
            attempted += points
            bad = check(point_records(result), golden, "warm", errors)
            computes = warm_telemetry.computes(SIMULATION_STAGES)
            if computes:
                bad = points
                errors.append(f"warm rerun computed {computes} artifacts")
            failed += bad
    index.stop()
    if probe is not None:
        record["probe_all"] = probe.snapshot()
    record.update(
        host_cpu_ms=index.cpu_ms(),
        attempted=attempted, failed=failed, errors=errors[:20],
        warm_passes=points_parts, op_latencies=point_latencies,
        warm_reruns=reruns,
        counters=work_counters(telemetry, records),
        peak_rss_mb=common.self_peak_rss_mb(),
        host=common.host_facts())
    common.write_json(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
