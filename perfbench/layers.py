"""Per-layer probes for the traced run.

The benchmark changes nothing under ``src/``.  It measures layers by
wrapping public entry points from the outside: a wrapper replaces a
module attribute *where the caller looks it up* (``run_cycles`` is
called through ``repro.pipeline.core``, so that is the name patched),
or a method on its class.  Each wrapper adds its wall time and one call
to a named counter, and may fold the returned value into work counters
(simulated cycles, blocks, instructions).

Only traced runs install probes; end-to-end metrics come from runs
without them.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Probe:
    """Named time/call counters filled by wrappers around entry points."""

    def __init__(self, keep_events: bool = False) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, int] = defaultdict(int)
        #: ``(name, start, duration)`` per call, on the shared monotonic
        #: clock, when a caller needs to window samples (serve).
        self.events: Optional[List[Tuple[str, float, float]]] = \
            [] if keep_events else None
        self.missing: List[str] = []
        self._lock = threading.Lock()
        self._depth = threading.local()

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[..., None]] = None,
             outermost: bool = False) -> None:
        """Replace ``owner.attr`` with a timing wrapper counted as
        ``name``.  ``on_result(args, result)`` sees each return value.
        ``outermost`` counts only calls not nested in another
        ``outermost`` wrapper of the same name (re-entrant resolution).
        A missing attribute is recorded, not fatal, so a refactor that
        renames one entry point costs one metric, not the run."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        probe = self

        def wrapper(*args, **kwargs):
            if outermost:
                depth = getattr(probe._depth, name, 0)
                setattr(probe._depth, name, depth + 1)
                if depth:
                    try:
                        return original(*args, **kwargs)
                    finally:
                        setattr(probe._depth, name, depth)
            started = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.monotonic() - started
                if outermost:
                    setattr(probe._depth, name, 0)
                with probe._lock:
                    probe.seconds[name] += elapsed
                    probe.calls[name] += 1
                    if probe.events is not None:
                        probe.events.append((name, started, elapsed))
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self.work[name] += delta

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                    "work": dict(self.work), "missing": list(self.missing)}


def install_simulation_probes(probe: Probe) -> None:
    """Wrap the compiler and simulator entry points the pipeline calls:
    ``repro.ir``, ``opt``, ``trips``, ``risc``, ``refmodels``, ``uarch``,
    plus the artifact store and the digest function."""
    from repro.pipeline import core
    from repro.pipeline.store import ArtifactStore
    from repro.refmodels import SuperscalarModel
    from repro.risc import RiscSimulator

    def cycles_done(_args, result) -> None:
        stats = result[1].stats
        probe.count("uarch.sim_cycles", stats.cycles)
        probe.count("uarch.sim_blocks", stats.blocks_committed)
        probe.count("uarch.sim_insts", stats.executed)
        probe.count("uarch.cycles_blocks", stats.blocks_committed)

    def ideal_done(_args, result) -> None:
        stats = result[1].stats
        probe.count("uarch.sim_cycles", stats.cycles)
        probe.count("uarch.sim_blocks", stats.blocks)
        probe.count("uarch.sim_insts", stats.executed)

    def risc_done(args, _result) -> None:
        probe.count("risc.sim_insts", args[0].stats.executed)

    probe.wrap(core, "run_module", "ir.interp")
    probe.wrap(core, "optimize", "opt.optimize")
    probe.wrap(core, "lower_trips", "trips.lower")
    probe.wrap(core, "run_trips", "trips.functional")
    probe.wrap(core, "lower_risc", "risc.lower")
    probe.wrap(core, "run_cycles", "uarch.cycles", cycles_done)
    probe.wrap(core, "run_ideal", "uarch.ideal", ideal_done)
    probe.wrap(core, "artifact_digest", "pipeline.digest")
    probe.wrap(RiscSimulator, "run", "risc.sim", risc_done)
    probe.wrap(SuperscalarModel, "feed", "refmodels.feed")
    probe.wrap(SuperscalarModel, "finish", "refmodels.feed")
    probe.wrap(ArtifactStore, "load", "pipeline.store.load")
    probe.wrap(ArtifactStore, "store", "pipeline.store.save")


#: Pipeline methods the figure drivers resolve artifacts through.
RESOLVE_METHODS = ("module", "expected", "optimized", "risc_lowered",
                   "trips_lowered", "trips_functional", "trips_cycles",
                   "ideal", "block_trace", "powerpc", "platform")


def install_resolve_probes(probe: Probe) -> None:
    """Time stage resolution as seen by the drivers (outermost calls
    only), so driver time minus resolution time is rendering time."""
    from repro.pipeline.core import Pipeline
    for method in RESOLVE_METHODS:
        probe.wrap(Pipeline, method, "pipeline.resolve", outermost=True)


def install_sweep_probes(probe: Probe) -> None:
    from repro.explore.journal import SweepJournal
    probe.wrap(SweepJournal, "claim", "explore.journal")
    probe.wrap(SweepJournal, "outcome", "explore.journal")


def install_serve_probes(probe: Probe) -> None:
    """Server-side probes: request handling, validation (which computes
    the request digest), resolution, and every digest computation."""
    from repro.pipeline import core
    from repro.serve import service
    probe.wrap(service.SimService, "handle_run", "serve.handle_run")
    probe.wrap(service.SimService, "_validate_run", "serve.validate")
    probe.wrap(service, "point_artifact", "serve.resolve")
    probe.wrap(service, "artifact_digest", "serve.digest")
    probe.wrap(core, "artifact_digest", "serve.digest")


def telemetry_layers(telemetry) -> Dict[str, float]:
    """``pipeline.<stage>.compute_s``/``.computes`` from the pipeline's
    own :class:`~repro.pipeline.observe.Telemetry`."""
    out: Dict[str, float] = {}
    for stage in PIPELINE_STAGES:
        counters = telemetry.counters(stage)
        out[f"pipeline.{stage}.compute_s"] = counters.compute_seconds
        out[f"pipeline.{stage}.computes"] = counters.computes
    return out


#: Simulation stages whose compute time and count the traced run reports.
PIPELINE_STAGES = ("expected", "trips-functional", "trips-cycles", "ideal",
                   "block-trace", "powerpc", "platform")
