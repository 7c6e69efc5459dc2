"""The repro benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload paper|sweep|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts from an empty
``.perfbench-work/<workload>/`` directory, does its work in fresh child
processes, checks every output against the goldens in
``perfbench/goldens/``, prints the full result record (host facts, work
counters, sample counts, errors) as one JSON line, and then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured without probes.
``--trace 1`` reports the per-layer metrics: it repeats the workload's
timed job once without probes (the reference for the tracing overhead)
and once with them, and for ``paper`` and ``sweep`` adds a profiled
pass.  See ``perfbench/NOTES.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from layers import PIPELINE_STAGES  # noqa: E402
from speed import SpeedIndex  # noqa: E402

WORKLOADS = ("paper", "sweep", "serve")

#: Set-up is measured this many times per run (median reported).
SETUP_SAMPLES = 5
#: Per-child time limit (the whole run must end within 180 s).
CHILD_TIMEOUT = 170.0

END_TO_END = {
    "setup_s": "s", "cold_s": "s", "warm_s": "s", "op_p50_ms": "ms",
    "ops_per_s": "1/s", "peak_rss_mb": "MB",
}

#: Source files whose profiled self time and calls are reported.
UARCH_FILES = ("kernels", "core", "opn", "resources", "caches",
               "predictor")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric and its unit (BENCHMARK.json order)."""
    units = {
        "ir.interp_s": "s", "opt.optimize_s": "s",
        "trips.lower_s": "s", "trips.functional_s": "s",
        "trips.functional_runs": "count",
        "risc.lower_s": "s", "risc.sim_s": "s", "risc.sim_runs": "count",
        "risc.sim_insts": "count",
        "refmodels.feed_s": "s", "refmodels.feed_calls": "count",
        "uarch.cycles_s": "s", "uarch.cycles_runs": "count",
        "uarch.ideal_s": "s", "uarch.ideal_runs": "count",
        "uarch.us_per_block": "us",
        "uarch.sim_cycles": "count", "uarch.sim_blocks": "count",
        "uarch.sim_insts": "count",
    }
    for name in UARCH_FILES:
        units[f"uarch.{name}.self_s"] = "s"
        units[f"uarch.{name}.calls"] = "count"
    units["uarch.calls_per_sim_inst"] = "calls/inst"
    units["profile.calls_repeat"] = "flag"
    for stage in PIPELINE_STAGES:
        units[f"pipeline.{stage}.compute_s"] = "s"
        units[f"pipeline.{stage}.computes"] = "count"
    units.update({
        "pipeline.store.load_s": "s", "pipeline.store.loads": "count",
        "pipeline.store.save_s": "s", "pipeline.store.saves": "count",
        "pipeline.digest_s": "s", "pipeline.digest_calls": "count",
        "eval.render_s": "s",
        "explore.point_s": "s", "explore.journal_s": "s",
        "serve.handle_run_ms": "ms", "serve.resolve_ms": "ms",
        "serve.handoff_ms": "ms", "serve.http_ms": "ms",
        "serve.digest_calls_per_req": "calls/req",
        "serve.connects_per_req": "conns/req",
        "serve.batch_size_mean": "req/batch",
        "serve.dedup_shared_ratio": "ratio",
        "serve.rss_growth_mb": "MB",
        "obs.trace_overhead": "ratio",
    })
    return units


# -- children ---------------------------------------------------------------

def run_worker(workload: str, work: Path, seed: int, seconds: float,
               *flags: str, spans: bool = False,
               index: Optional[SpeedIndex] = None) -> Dict[str, Any]:
    """One worker process to completion; returns its record with the
    set-up time (spawn to ready) filled in, in reference seconds if an
    ``index`` samples the CPU meanwhile."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "worker.json"
    spans_path = work / "spans.jsonl" if spans else None
    started = common.clock()
    done = common.run_child(
        [str(common.HERE / f"{workload}.py"), "--work", str(work),
         "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
         *flags],
        env=common.child_env(cache_dir=work / "cache", spans=spans_path),
        cwd=work, timeout=CHILD_TIMEOUT)
    if done.returncode != 0 or not out.exists():
        raise RuntimeError(f"{workload} worker failed "
                           f"(exit {done.returncode}):\n{done.stderr[-3000:]}")
    record = common.read_json(out)
    record["setup_s"] = index.normalized(started, record["ready"]) \
        if index is not None else record["ready"] - started
    if spans_path is not None and spans_path.exists():
        record["spans"] = [json.loads(line) for line in
                           spans_path.read_text().splitlines()]
    return record


def profile_pair(job: str, work: Path) -> Tuple[dict, dict]:
    """The profiled pass, twice, in fresh processes."""
    results = []
    for index in range(2):
        out = work / f"profile-{index}.json"
        done = common.run_child(
            [str(common.HERE / "profile_pass.py"), "--job", job,
             "--out", str(out)],
            env=common.child_env(), cwd=work, timeout=CHILD_TIMEOUT)
        if done.returncode != 0:
            raise RuntimeError(f"profiled pass failed:\n{done.stderr[-3000:]}")
        results.append(common.read_json(out))
    return results[0], results[1]


# -- end-to-end metrics -----------------------------------------------------

def op_metrics(latencies_s: List[float], busy_s: float
               ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Median latency and operations per second of ``busy_s`` (gated),
    and the p90 with its sample count (recorded only: on this class of
    host its run-to-run spread is wider than any bound allowed)."""
    ms = [value * 1000.0 for value in latencies_s]
    try:
        p90 = common.percentile_with_tail(ms, 90)
    except ValueError:          # too few samples for a p90
        p90 = None
    tail = {"op_samples": len(ms), "op_p90_ms": p90}
    return {"op_p50_ms": common.median(ms),
            "ops_per_s": len(ms) / busy_s}, tail


def worker_end_to_end(workload: str, work: Path, seed: int,
                      seconds: float) -> Tuple[Dict[str, float], dict]:
    # Set-up runs alone, sampled from here: the worker runs on this
    # process's CPU (see ``common.pin_to_one_cpu``).
    index = SpeedIndex(clock=common.clock)
    index.start()
    try:
        setups = [run_worker(workload, work / f"setup-{number}", seed,
                             seconds, "--setup-only", index=index)["setup_s"]
                  for number in range(SETUP_SAMPLES)]
    finally:
        index.stop()
    record = run_worker(workload, work / "run", seed, seconds)
    values = {"setup_s": common.median(setups), "cold_s": record["cold_s"],
              "warm_s": common.median(record["warm_passes"]),
              "peak_rss_mb": record["peak_rss_mb"]}
    ops, tail = op_metrics(record["op_latencies"],
                           sum(record["op_latencies"]))
    values.update(ops)
    summary = {
        "attempted": record["attempted"], "failed": record["failed"],
        "errors": record["errors"], "setups_s": setups, **tail,
        "warm_passes": len(record["warm_passes"]),
        "cold_wall_s": record["cold_wall_s"],
        "host_cpu_ms": record["host_cpu_ms"],
        "counters": record["counters"], "host": record["host"],
    }
    return values, summary


def serve_end_to_end(work: Path, seed: int,
                     seconds: float) -> Tuple[Dict[str, float], dict]:
    import serve
    phase = serve.run_phase(work, work / "cache", seed, seconds,
                            common.load_golden("serve.json"), traced=False,
                            setup_starts=SETUP_SAMPLES, tag="run")
    common.write_json(work / "phase.json", phase)
    latencies = [elapsed for _started, elapsed in phase["loop_samples"]]
    busy = phase["loop_busy_s"]
    values = {"setup_s": common.median(phase["setups"]),
              "cold_s": phase["cold_s"],
              "warm_s": common.median(phase["replays"]),
              "peak_rss_mb": phase["peak_rss_mb"]}
    ops, tail = op_metrics(latencies, busy)
    values.update(ops)
    return values, {**serve_summary(phase), **tail}


def serve_summary(phase: dict) -> dict:
    attempted = sum(phase[f"{name}_attempted"]
                    for name in ("cold", "warm", "loop"))
    failed = sum(phase[f"{name}_failed"] for name in ("cold", "warm", "loop"))
    errors = sum((phase[f"{name}_errors"]
                  for name in ("cold", "warm", "loop")), [])
    if phase["exit_code"] != 0:
        failed += 1
        errors.append(f"server exited {phase['exit_code']}")
    before, after = phase["counters_before"], phase["counters_after"]
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    simulated = {key: sum(metrics.get(k, 0)
                          for metrics in phase["cold_metrics"].values())
                 for key, k in (("sim_cycles", "cycles"),
                                ("sim_insts", "executed"))}
    return {"attempted": attempted, "failed": failed, "errors": errors[:20],
            "setups_s": phase["setups"],
            "host_cpu_ms": phase["host_cpu_ms"],
            "loop_samples": len(phase["loop_samples"]),
            "timed_counters": delta,
            "counters": {"requests": len(phase["cold_metrics"]),
                         **simulated},
            "host": common.host_facts()}


# -- per-layer metrics ------------------------------------------------------

def probe_layers(probe: dict) -> Dict[str, float]:
    """Simulation-layer metrics from one probe snapshot."""
    seconds, calls, work = probe["seconds"], probe["calls"], probe["work"]
    out = {
        "ir.interp_s": seconds.get("ir.interp", 0.0),
        "opt.optimize_s": seconds.get("opt.optimize", 0.0),
        "trips.lower_s": seconds.get("trips.lower", 0.0),
        "trips.functional_s": seconds.get("trips.functional", 0.0),
        "trips.functional_runs": calls.get("trips.functional", 0),
        "risc.lower_s": seconds.get("risc.lower", 0.0),
        "risc.sim_s": seconds.get("risc.sim", 0.0),
        "risc.sim_runs": calls.get("risc.sim", 0),
        "risc.sim_insts": work.get("risc.sim_insts", 0),
        "refmodels.feed_s": seconds.get("refmodels.feed", 0.0),
        "refmodels.feed_calls": calls.get("refmodels.feed", 0),
        "uarch.cycles_s": seconds.get("uarch.cycles", 0.0),
        "uarch.cycles_runs": calls.get("uarch.cycles", 0),
        "uarch.ideal_s": seconds.get("uarch.ideal", 0.0),
        "uarch.ideal_runs": calls.get("uarch.ideal", 0),
        "uarch.sim_cycles": work.get("uarch.sim_cycles", 0),
        "uarch.sim_blocks": work.get("uarch.sim_blocks", 0),
        "uarch.sim_insts": work.get("uarch.sim_insts", 0),
        "pipeline.store.save_s": seconds.get("pipeline.store.save", 0.0),
        "pipeline.store.saves": calls.get("pipeline.store.save", 0),
    }
    blocks = work.get("uarch.cycles_blocks", 0)
    out["uarch.us_per_block"] = \
        1e6 * out["uarch.cycles_s"] / blocks if blocks else 0.0
    return out


def diff(after: dict, before: dict, kind: str, name: str) -> float:
    return after[kind].get(name, 0) - before[kind].get(name, 0)


def profile_layers(first: dict, second: dict) -> Dict[str, float]:
    files = first["files"]
    out = {}
    uarch_calls = 0
    for path, (tottime, ncalls) in files.items():
        if path.startswith("uarch/"):
            uarch_calls += ncalls
    for name in UARCH_FILES:
        tottime, ncalls = files.get(f"uarch/{name}.py", (0.0, 0))
        out[f"uarch.{name}.self_s"] = tottime
        out[f"uarch.{name}.calls"] = ncalls
    out["uarch.calls_per_sim_inst"] = uarch_calls / first["sim_insts"]
    repeat = {path: calls for path, (_t, calls) in files.items()} == \
        {path: calls for path, (_t, calls) in second["files"].items()}
    out["profile.calls_repeat"] = 1 if repeat else 0
    return out


def worker_per_layer(workload: str, work: Path, seed: int,
                     seconds: float) -> Tuple[Dict[str, float], dict]:
    reference = run_worker(workload, work / "reference", seed, seconds,
                           "--cold-only")
    record = run_worker(workload, work / "traced", seed, seconds, "--trace",
                        spans=True)
    cold, whole = record["probe_cold"], record["probe_all"]
    values = probe_layers(cold)
    values.update(record["telemetry"])
    passes = len(record["warm_passes"])
    values["pipeline.store.load_s"] = \
        diff(whole, cold, "seconds", "pipeline.store.load") / passes
    values["pipeline.store.loads"] = \
        diff(whole, cold, "calls", "pipeline.store.load") / passes
    values["pipeline.digest_s"] = \
        diff(whole, cold, "seconds", "pipeline.digest") / passes
    values["pipeline.digest_calls"] = \
        diff(whole, cold, "calls", "pipeline.digest") / passes
    if workload == "paper":
        resolve = diff(whole, cold, "seconds", "pipeline.resolve")
        values["eval.render_s"] = \
            (sum(record["warm_passes"]) - resolve) / passes
    else:
        points = [span["dur_ms"] / 1000.0 for span in record["spans"]
                  if span["name"] == "sweep.point"][:len(record["order"])]
        values["explore.point_s"] = common.median(points)
        values["explore.journal_s"] = \
            cold["seconds"].get("explore.journal", 0.0)
    values["obs.trace_overhead"] = record["cold_s"] / reference["cold_s"]
    first, second = profile_pair(workload, work)
    values.update(profile_layers(first, second))
    counters = {name: values[name] for name in DETERMINISTIC
                if name in values}
    counters["profile.ncalls"] = sum(calls for _t, calls
                                     in first["files"].values())
    summary = {
        "attempted": reference["attempted"] + record["attempted"],
        "failed": reference["failed"] + record["failed"],
        "errors": reference["errors"] + record["errors"],
        "missing_probes": whole["missing"],
        "counters": counters, "host": record["host"],
        "profile_files": first["files"],
    }
    return values, summary


#: Per-layer metrics that count work: identical between two runs of the
#: same code whatever the seed (checked by ``check_repeat.py``).
DETERMINISTIC = (
    "trips.functional_runs", "risc.sim_runs", "risc.sim_insts",
    "refmodels.feed_calls", "uarch.cycles_runs", "uarch.ideal_runs",
    "uarch.sim_cycles", "uarch.sim_blocks", "uarch.sim_insts",
    "pipeline.store.saves", "pipeline.store.loads", "pipeline.digest_calls",
    *(f"pipeline.{stage}.computes" for stage in PIPELINE_STAGES),
    *(f"uarch.{name}.calls" for name in UARCH_FILES),
    "uarch.calls_per_sim_inst", "serve.digest_calls_per_req",
    "serve.connects_per_req",
)


def window_events(probe: dict, windows) -> Dict[str, List[float]]:
    """Probe event durations by name, for events inside ``windows``."""
    out: Dict[str, List[float]] = {}
    for name, started, elapsed in probe["events"]:
        if any(low <= started <= high for low, high in windows):
            out.setdefault(name, []).append(elapsed)
    return out


def serve_per_layer(work: Path, seed: int,
                    seconds: float) -> Tuple[Dict[str, float], dict]:
    import serve
    golden = common.load_golden("serve.json")
    cache = work / "cache"
    reference = serve.run_phase(work, cache, seed, seconds, golden,
                                traced=False, setup_starts=1,
                                tag="reference")
    traced = serve.run_phase(work, cache, seed, seconds, golden,
                             traced=True, setup_starts=1, tag="traced")
    events = window_events(traced["probe"], traced["windows"])
    requests = len(events.get("serve.handle_run", []))
    total = {name: sum(values) for name, values in events.items()}
    # Probe times are wall times: HTTP time is wall round trip minus
    # wall handling.  The overhead compares reference-second means.
    wall_rtt = [elapsed for _s, elapsed in traced["loop_wall_samples"]]
    rtt = [elapsed for _s, elapsed in traced["loop_samples"]]
    rtt_ref = [elapsed for _s, elapsed in reference["loop_samples"]]
    before = traced["counters_before"]
    after = traced["counters_after"]

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    batches = delta("batch.batches")
    shared = delta("dedup.shared")
    joined = shared + delta("dedup.leaders")
    values = {
        "serve.handle_run_ms": 1000 * total.get("serve.handle_run", 0)
        / requests,
        "serve.resolve_ms": 1000 * total.get("serve.resolve", 0)
        / requests,
        "serve.handoff_ms": 1000 * (
            total.get("serve.handle_run", 0)
            - total.get("serve.resolve", 0)
            - total.get("serve.validate", 0)) / requests,
        "serve.http_ms": 1000 * (sum(wall_rtt) / len(wall_rtt)
                                 - total.get("serve.handle_run", 0)
                                 / requests),
        "serve.digest_calls_per_req":
            len(events.get("serve.digest", [])) / requests,
        "serve.connects_per_req": traced["connects"]
        / (traced["warm_attempted"] + traced["loop_attempted"]),
        "serve.batch_size_mean":
            delta("batch.requests") / batches if batches else 0.0,
        "serve.dedup_shared_ratio": shared / joined if joined else 0.0,
        "serve.rss_growth_mb":
            reference["rss_after_mb"] - reference["rss_before_mb"],
        "pipeline.digest_s": total.get("serve.digest", 0) / requests,
        "pipeline.digest_calls":
            len(events.get("serve.digest", [])) / requests,
        "obs.trace_overhead":
            (sum(rtt) / len(rtt)) / (sum(rtt_ref) / len(rtt_ref)),
    }
    summaries = [serve_summary(reference), serve_summary(traced)]
    summary = {
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "errors": sum((s["errors"] for s in summaries), []),
        "missing_probes": traced["probe"]["missing"],
        "counters": {name: values[name] for name in DETERMINISTIC
                     if name.startswith(("serve.", "pipeline.digest"))},
        "request_span_ms": common.median(traced.get("request_span_ms", [])),
        "host": summaries[1]["host"],
    }
    return values, summary


# -- entry point ------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_source()
    common.pin_to_one_cpu()

    work = common.fresh_dir(common.WORK / args.workload)
    if args.workload == "serve":
        measure = serve_per_layer if args.trace else serve_end_to_end
        values, summary = measure(work, args.seed, args.seconds)
    else:
        measure = worker_per_layer if args.trace else worker_end_to_end
        values, summary = measure(args.workload, work, args.seed,
                                  args.seconds)
    units = per_layer_units() if args.trace else END_TO_END
    full = {name: values.get(name, 0) for name in units}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metrics": full, **summary}
    common.write_json(work / "record.json", record)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: common.metric(full[name], unit)
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
