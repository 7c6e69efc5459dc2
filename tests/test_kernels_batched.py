"""Differential tests for the simulator's execution kernel.

Every cycle simulator runs :class:`repro.uarch.kernels.BatchedKernel`;
its timing decisions must be bit-identical to the reference
:class:`repro.uarch.kernels.ScalarKernel`, which these tests swap in as
the oracle (``sim.kernel = ScalarKernel()``).  The contract is pinned
two ways — end-to-end cycle/stats equality on the golden benchmarks,
and trace-event-stream equality (skip-ahead may not reorder or retime a
single event).  ``tools/kernel_equivalence.py`` extends the first
check to the whole compiled corpus.  The interval-based skip-ahead
resource itself is differenced claim-by-claim against the set-based
reference resource, including across the pruning horizon.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from repro.bench import get
from repro.opt import optimize
from repro.trace import CollectingTracer
from repro.trips import lower_module
from repro.uarch import CycleSimulator, ScalarKernel, TripsConfig
from repro.uarch.kernels import BatchedKernel, pow2_shift_mask
from repro.uarch.resources import (
    _PRUNE_LIMIT, CycleResource, SkipAheadPool, SkipAheadResource,
)

#: Seed goldens (O2 + hyperblock formation) shared with the scalar
#: kernel's own tests: (cycles, executed).
GOLDENS = {
    "vadd": (21628, 35358),
    "crc": (15322, 12831),
    "rspeed": (6978, 7229),
}


def _lowered(name):
    return lower_module(optimize(get(name).module(), "O2"),
                        formation="hyper")


#: Explicit prototype components, so the goldens hold when CI runs the
#: suite under a REPRO_UARCH_COMPONENTS override.
PROTOTYPE_COMPONENTS = dict(opn_topology="mesh", predictor_kind="tournament",
                            memory_kind="trips")


def _run(lowered, oracle=False, tracer=None, **config_kw):
    """Run ``lowered`` on the simulator's kernel, or on the
    :class:`ScalarKernel` oracle when ``oracle`` is set."""
    config = TripsConfig(**{**PROTOTYPE_COMPONENTS, **config_kw})
    sim = CycleSimulator(lowered, config, tracer=tracer)
    if oracle:
        sim.kernel = ScalarKernel()
    result = sim.run()
    return result, sim


def _event_key(event):
    return (event.kind, event.cycle, tuple(sorted(event.data.items())))


class TestGoldenEquivalence:
    @pytest.mark.parametrize("bench", sorted(GOLDENS))
    def test_cycle_exact_vs_scalar(self, bench):
        lowered = _lowered(bench)
        result_s, sim_s = _run(lowered, oracle=True)
        result_b, sim_b = _run(lowered)
        assert result_b == result_s
        assert (sim_b.stats.cycles, sim_b.stats.executed) == \
            GOLDENS[bench]
        # The *entire* statistics record must agree, not just cycles:
        # any divergence in moves/loads/flushes means a timing model
        # quietly forked.
        assert vars(sim_b.stats) == vars(sim_s.stats)

    @pytest.mark.parametrize("bench", ["rspeed"])
    def test_opn_statistics_identical(self, bench):
        lowered = _lowered(bench)
        _, sim_s = _run(lowered, oracle=True)
        _, sim_b = _run(lowered)
        scalar, batched = sim_s.opn.stats, sim_b.opn.stats
        assert batched.packets == scalar.packets
        assert batched.hops == scalar.hops
        assert batched.hop_histogram == scalar.hop_histogram
        assert batched.queue_cycles == scalar.queue_cycles

    @pytest.mark.parametrize("overrides", [
        {"opn_topology": "torus"},
        {"memory_kind": "perfect-l1"},
        {"predicate_prediction": True},
    ], ids=["torus", "perfect-l1", "predpred"])
    def test_equal_under_component_variants(self, overrides):
        lowered = _lowered("rspeed")
        result_s, sim_s = _run(lowered, oracle=True, **overrides)
        result_b, sim_b = _run(lowered, **overrides)
        assert result_b == result_s
        assert vars(sim_b.stats) == vars(sim_s.stats)


class TestTraceEquivalence:
    def test_event_streams_identical(self):
        # Skip-ahead advances time in jumps; the trace must not be able
        # to tell.  Every event (opn hops included) in the same order
        # at the same cycle with the same payload.
        lowered = _lowered("rspeed")
        tracer_s, tracer_b = CollectingTracer(), CollectingTracer()
        result_s, _ = _run(lowered, oracle=True, tracer=tracer_s)
        result_b, _ = _run(lowered, tracer=tracer_b)
        assert result_b == result_s
        events_s = [_event_key(e) for e in tracer_s.events]
        events_b = [_event_key(e) for e in tracer_b.events]
        assert len(events_b) == len(events_s)
        assert events_b == events_s


def _load_equivalence_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / \
        "kernel_equivalence.py"
    spec = importlib.util.spec_from_file_location("kernel_equivalence",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEquivalenceTool:
    def test_agreeing_benchmark_passes(self, capsys):
        tool = _load_equivalence_tool()
        assert tool.main(["rspeed"]) == 0
        assert "kernels equivalent on 1 benchmark" in capsys.readouterr().out

    def test_mismatch_fails_naming_the_benchmark(self, capsys,
                                                 monkeypatch):
        real = BatchedKernel.execute_block

        def one_cycle_late(self, sim, block, placement, fetch_done):
            exit_inst, exit_time, done_time = real(
                self, sim, block, placement, fetch_done)
            return exit_inst, exit_time, done_time + 1

        monkeypatch.setattr(BatchedKernel, "execute_block", one_cycle_late)
        tool = _load_equivalence_tool()
        assert tool.main(["crc", "rspeed"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: crc: cycle stats differ" in out
        assert "rspeed" not in out

    def test_ideal_golden_mismatch_fails(self, capsys, monkeypatch):
        from repro.uarch import ideal

        real = ideal._TimedEngine._block_fired

        def one_extra_block(self, *record):
            real(self, *record)
            self.timing.blocks += 1

        monkeypatch.setattr(ideal._TimedEngine, "_block_fired",
                            one_extra_block)
        tool = _load_equivalence_tool()
        assert tool.main(["rspeed"]) == 1
        assert "FAIL: rspeed: ideal compiled 1024/0 differs" in \
            capsys.readouterr().out


class TestStaticHelpers:
    def test_pow2_shift_mask(self):
        shift, mask = pow2_shift_mask(64, 4)
        for address in (0, 63, 64, 100, 4096, 2**40 + 192):
            assert (address >> shift) & mask == (address // 64) % 4
        assert pow2_shift_mask(48, 4) is None
        assert pow2_shift_mask(64, 3) is None


class TestSkipAheadResource:
    def test_differential_random_claims(self):
        rng = random.Random(1234)
        scalar, skip = CycleResource(), SkipAheadResource()
        cursor = 0
        for _ in range(5000):
            # A front-heavy pattern with occasional out-of-order claims
            # behind the frontier — the shape OPN links actually see.
            cursor += rng.randrange(0, 3)
            t = max(0, cursor - rng.randrange(0, 40))
            assert skip.claim(t) == scalar.claim(t)
        for t in (0, cursor // 2, cursor + 10):
            assert skip.probe(t) == scalar.probe(t)

    def test_differential_across_prune_horizon(self):
        scalar, skip = CycleResource(), SkipAheadResource()
        # Force pruning: more claims than _PRUNE_LIMIT, spread far
        # enough apart that the horizon advances.  Results must stay
        # identical on the far side of every prune.
        rng = random.Random(99)
        t = 0
        for i in range(_PRUNE_LIMIT + 2000):
            t += rng.randrange(0, 2)
            claim_at = max(0, t - rng.randrange(0, 10))
            assert skip.claim(claim_at) == scalar.claim(claim_at)
        assert skip.count == len(scalar.claimed) or skip.floor > 0

    def test_busy_run_skipped_in_one_jump(self):
        skip = SkipAheadResource()
        for t in range(100):
            assert skip.claim(0) == t
        # One run [0, 100); a claim inside it lands at its end.
        assert len(skip.starts) == 1
        assert skip.claim(50) == 100

    def test_pool_is_drop_in(self):
        pool = SkipAheadPool()
        assert pool.probe("x", 7) == 7
        assert pool.claim("x", 7) == 7
        assert pool.claim("x", 7) == 8
        assert isinstance(pool.resource("x"), SkipAheadResource)


class TestBatchedSweep:
    def test_batch_records_equal_per_point_engine(self, tmp_path):
        from repro.explore.engine import run_sweep, run_sweep_batched
        from repro.explore.spec import SweepSpec
        spec = SweepSpec(
            name="batch-equality", system="cycles",
            benchmarks=("rspeed",),
            axes=(("max_blocks_in_flight", (4, 8)),))
        per_point = run_sweep(
            spec, cache_dir=tmp_path / "cache-a",
            out_dir=tmp_path / "out-a")
        batched = run_sweep_batched(
            spec, cache_dir=tmp_path / "cache-b",
            out_dir=tmp_path / "out-b")
        assert batched.ok and per_point.ok
        assert batched.simulated == per_point.simulated == 2

        def strip(records):
            return [{k: v for k, v in r.items() if k != "run_id"}
                    for r in records]

        assert strip(batched.records) == strip(per_point.records)
        assert (batched.out_dir / "points.jsonl").exists()

    def test_batch_resumes_from_shared_cache(self, tmp_path):
        from repro.explore.engine import run_sweep_batched
        from repro.explore.spec import SweepSpec
        spec = SweepSpec(
            name="batch-resume", system="cycles",
            benchmarks=("rspeed",),
            axes=(("max_blocks_in_flight", (4, 8)),))
        cold = run_sweep_batched(spec, cache_dir=tmp_path / "cache",
                                 out_dir=tmp_path / "out")
        warm = run_sweep_batched(spec, cache_dir=tmp_path / "cache",
                                 out_dir=tmp_path / "out")
        assert cold.simulated == 2
        assert warm.simulated == 0 and warm.reused == 2

    def test_failed_point_becomes_hole(self, tmp_path, monkeypatch):
        from repro.explore import engine
        from repro.explore.spec import SweepSpec
        # A point whose simulation dies must become an annotated hole,
        # never an aborted sweep (grid expansion already rejects bad
        # configs, so fail the artifact stage itself).
        real = engine._point_artifact
        poisoned = "rspeed/max_blocks_in_flight=4"

        def sometimes_fails(pipeline, payload):
            if payload["label"] == poisoned:
                raise RuntimeError("injected point failure")
            return real(pipeline, payload)

        monkeypatch.setattr(engine, "_point_artifact", sometimes_fails)
        spec = SweepSpec(
            name="batch-holes", system="cycles",
            benchmarks=("rspeed",),
            axes=(("max_blocks_in_flight", (4, 8)),))
        result = engine.run_sweep_batched(
            spec, cache_dir=tmp_path / "cache", out_dir=tmp_path / "out")
        statuses = sorted(r["status"] for r in result.records)
        assert statuses == ["failed", "ok"]
        assert len(result.holes) == 1
        assert "injected point failure" in result.holes[0]["error"]
        assert any("hole" in note
                   for note in result.report.annotations)
        assert result.report.failed
