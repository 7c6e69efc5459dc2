"""``serve`` workload: ``python -m repro serve`` in a child process,
driven by a closed-loop load generator in this process.

The server runs with the shipped defaults (5 ms batch window,
``--jobs 2``) and its own cache and spool directories, except
``--rate 0``: the default per-client token bucket would refuse a closed
loop.  The request set is 4 benchmarks x 3 configurations plus two
``system: ideal`` runs.  Phases:

1. set-up: the server is started several times, up to its "listening"
   line; all but the last are stopped at once (the median is reported);
2. cold round: the set once, serially and in a fixed order (the
   server's peak RSS depends on it), into the empty cache;
3. timed phase, in segments that alternate two measurements: warm
   replays of the set, serially, each in a new seeded order; and a
   closed loop of 2 client threads, each over its own fixed half of
   the set, in a new seeded order every pass.  The loop segments add up
   to ``--seconds``.  The halves are disjoint, so no two requests in
   flight share a digest: the work per request is deterministic.  The
   seed decides only orders, and each run averages over many of them:
   with one order per run, the order alone moved the round-trip median
   by 7% from seed to seed.

Every response is checked against the golden metrics of its request
(keyed by request, not digest: digests include a hash of the sources).
A failure is a non-200 response (429/503 included), a mismatch, or a
``warm: false`` response after the cold round.
"""

from __future__ import annotations

import json
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import common
from speed import SpeedIndex

BENCHMARKS = ("vadd", "rspeed", "crc", "a2time")
CONFIGS = ({}, {"max_blocks_in_flight": 4}, {"predictor_kind": "gshare"})
IDEAL = (("vadd", {"dispatch_cost": 0}), ("rspeed", {"window": 256}))

#: The coalescing window is a fixed sleep per batch: it would put a
#: clock, not the program, under half of every round trip (and no
#: speed index can scale a sleep).  Batches still drain, partition and
#: hand off between threads.
BATCH_WINDOW = 0

SEGMENTS = 6
REPLAYS_PER_SEGMENT = 8
CLIENTS = 2
START_TIMEOUT = 60.0


def request_set() -> List[Dict[str, Any]]:
    out = [{"benchmark": name, "system": "cycles", "variant": "compiled",
            "config": dict(config)}
           for name in BENCHMARKS for config in CONFIGS]
    out += [{"benchmark": name, "system": "ideal", "variant": "compiled",
             "config": dict(config)} for name, config in IDEAL]
    return out


def request_key(request: Dict[str, Any]) -> str:
    return json.dumps(request, sort_keys=True)


class Server:
    """One ``repro serve`` child process, started through the launcher."""

    def __init__(self, work: Path, cache: Path, probe_out: Optional[Path],
                 spans: Optional[Path], tag: str) -> None:
        argv = [str(common.HERE / "serve_launcher.py")]
        if probe_out is not None:
            argv += ["--probe-out", str(probe_out)]
        argv += ["--", "serve", "--port", "0", "--rate", "0",
                 "--batch-window", str(BATCH_WINDOW),
                 "--cache-dir", str(cache),
                 "--spool", str(work / f"spool-{tag}")]
        self.log = open(work / f"server-{tag}.log", "w", encoding="utf-8")
        self.started = common.clock()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=str(work), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
            env=common.child_env(cache_dir=cache, spans=spans))
        self.url = self._await_listening()
        self.ready = common.clock()

    def _await_listening(self) -> str:
        deadline = self.started + START_TIMEOUT
        while common.clock() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
        self.stop()
        raise RuntimeError("repro serve did not start; see its log")

    def rss_mb(self, field: str) -> float:
        return common.rss_mb_of(self.proc.pid, field)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.log.close()
        return self.proc.returncode


class Tally:
    """Thread-safe operation outcomes for one phase."""

    def __init__(self, golden: Dict[str, Any], expect_warm: bool) -> None:
        self.golden = golden
        self.expect_warm = expect_warm
        self.samples: List[Tuple[float, float]] = []   # (start, seconds)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def call(self, client, request: Dict[str, Any]) -> None:
        from repro.serve.client import ServeError
        started = common.clock()
        problem = metrics = None
        try:
            response = client.run(request["benchmark"], request["config"],
                                  system=request["system"],
                                  variant=request["variant"])
        except ServeError as exc:
            problem = f"HTTP {exc.status} {exc.kind}"
        except Exception as exc:  # any other failure is a failed request
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = common.clock() - started
        key = request_key(request)
        if problem is None:
            metrics = common.canonical(response["metrics"])
            if metrics != self.golden.get(key):
                problem = f"{key}: differs from golden"
            elif self.expect_warm and not response.get("warm"):
                problem = f"{key}: warm false"
        with self._lock:
            self.attempted += 1
            if metrics is not None:
                self.metrics[key] = metrics
            if problem is None:
                self.samples.append((started, elapsed))
            else:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(problem)


def serial_round(url: str, requests, tally: Tally) -> Tuple[float, float]:
    """The requests one after another; returns the round's (start, end)."""
    from repro.serve.client import ServeClient
    client = ServeClient(url, client_id="perfbench-serial")
    started = common.clock()
    for request in requests:
        tally.call(client, request)
    return started, common.clock()


def closed_loop(url: str, requests, seconds: float, tally: Tally,
                seed: str) -> Tuple[float, float]:
    """``CLIENTS`` threads, each over its own share of ``requests`` in a
    new order (from ``seed``) every pass, until ``seconds`` have passed.
    Returns the loop's (start, end)."""
    from repro.serve.client import ServeClient
    started = common.clock()
    deadline = started + seconds

    def client_loop(index: int) -> None:
        client = ServeClient(url, client_id=f"perfbench-{index}")
        rng = random.Random(f"{seed}-{index}")
        share = requests[index::CLIENTS]
        while common.clock() < deadline:
            rng.shuffle(share)
            for request in share:
                if common.clock() >= deadline:
                    break
                tally.call(client, request)

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return started, common.clock()


class ConnectCounter:
    """Counts client-side TCP connects (``http.client`` is what the
    shipped urllib client opens one per request through)."""

    def __init__(self) -> None:
        import http.client
        self.count = 0
        self._lock = threading.Lock()
        self._cls = http.client.HTTPConnection
        self._original = self._cls.connect
        counter = self

        def connect(conn):
            with counter._lock:
                counter.count += 1
            return counter._original(conn)

        self._cls.connect = connect

    def close(self) -> None:
        self._cls.connect = self._original


def run_phase(work: Path, cache: Path, seed: int, seconds: float,
              golden: Dict[str, Any], traced: bool, setup_starts: int,
              tag: str) -> Dict[str, Any]:
    """Start the server (``setup_starts`` times), run the cold round and
    the timed phase, and stop it.  Returns the phase record, whose times
    are reference seconds (see ``speed.py``), sampled in this process:
    the server runs on this process's CPU (``common.pin_to_one_cpu``)."""
    from repro.serve.client import ServeClient
    work.mkdir(parents=True, exist_ok=True)
    ordered = request_set()
    rng = random.Random(seed)
    probe_out = work / f"probe-{tag}.json" if traced else None
    spans = work / f"spans-{tag}.jsonl" if traced else None
    index = SpeedIndex(clock=common.clock)
    index.start()
    try:
        setups = []
        for _ in range(setup_starts - 1):
            server = Server(work, cache, None, None,
                            f"{tag}-setup{len(setups)}")
            setups.append(index.normalized(server.started, server.ready))
            server.stop()
        server = Server(work, cache, probe_out, spans, tag)
        setups.append(index.normalized(server.started, server.ready))
    except BaseException:
        index.stop()
        raise
    record: Dict[str, Any] = {"setups": setups, "pid": server.proc.pid}
    try:
        cold = Tally(golden, expect_warm=False)
        record["cold_s"] = index.normalized(
            *serial_round(server.url, ordered, cold))
        client = ServeClient(server.url)
        before = client.metrics()
        record["rss_before_mb"] = server.rss_mb("VmRSS")
        warm = Tally(golden, expect_warm=True)
        loop = Tally(golden, expect_warm=True)
        connects = ConnectCounter() if traced else None
        record.update(replays=[], windows=[], wall_windows=[])
        try:
            # Replays and loop segments alternate, so both sample the
            # whole timed span: host speed drifts within a run.
            for segment in range(SEGMENTS):
                record["replays"] += [
                    index.normalized(*serial_round(
                        server.url, rng.sample(ordered, len(ordered)),
                        warm))
                    for _ in range(REPLAYS_PER_SEGMENT)]
                wall_started = time.time()
                record["windows"].append(closed_loop(
                    server.url, ordered, seconds / SEGMENTS, loop,
                    seed=f"{seed}-{segment}"))
                record["wall_windows"].append((wall_started, time.time()))
        finally:
            if connects is not None:
                connects.close()
                record["connects"] = connects.count
        record["rss_after_mb"] = server.rss_mb("VmRSS")
        record["peak_rss_mb"] = server.rss_mb("VmHWM")
        after = client.metrics()
    finally:
        index.stop()
        record["exit_code"] = server.stop()
    record["counters_before"] = before["counters"]
    record["counters_after"] = after["counters"]
    record["host_cpu_ms"] = index.cpu_ms()
    record["loop_wall_samples"] = loop.samples
    record["loop_samples"] = [
        (started, index.normalized(started, started + elapsed))
        for started, elapsed in loop.samples]
    record["loop_busy_s"] = sum(index.normalized(start, end)
                                for start, end in record["windows"])
    record["cold_metrics"] = cold.metrics
    for name, tally in (("cold", cold), ("warm", warm), ("loop", loop)):
        record[f"{name}_attempted"] = tally.attempted
        record[f"{name}_failed"] = tally.failed
        record[f"{name}_errors"] = tally.errors
    if probe_out is not None:
        record["probe"] = common.read_json(probe_out)
    if spans is not None and spans.exists():
        # Span timestamps are wall-clock; keep the loop's /v1/run spans.
        record["request_span_ms"] = [
            span["dur_ms"]
            for span in map(json.loads, spans.read_text().splitlines())
            if span["name"] == "serve.request"
            and span.get("args", {}).get("endpoint") == "run"
            and any(low <= span["ts"] <= high
                    for low, high in record["wall_windows"])]
    return record
