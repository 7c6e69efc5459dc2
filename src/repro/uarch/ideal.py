"""Idealized EDGE machine for the ILP limit study (Figure 10).

The paper's ideal machine has perfect next-block prediction, perfect
predication, perfect caches, infinite execution resources, and zero-cycle
inter-tile delays; only two costs remain:

* a per-block dispatch/fetch cost (8 cycles in the TRIPS-like
  configuration, 0 in the upper-bound configuration), and
* a finite instruction window (1K like the prototype, or 128K).

Memory disambiguation is perfect: a load depends only on its address
operand and the *actual* latest store to the same location.  The model
does not execute anything itself.  The functional engine
(:class:`~repro.trips.functional.TripsSimulator`) runs the program, and
after each committed block this module replays the block's firing
record to time every instruction on its dataflow critical path, then
schedules blocks under the dispatch and window constraints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.interp import TrapError

from repro.isa.block import TripsProgram
from repro.isa.instructions import TRIPS_LATENCY, TOp

from repro.trips.functional import _EXIT_SET, TripsSimulator, _BlockImage

#: Load-use latency under perfect caching.
PERFECT_LOAD_CYCLES = 1


@dataclass
class IdealStats:
    cycles: int = 0
    executed: int = 0
    blocks: int = 0

    @property
    def ipc(self) -> float:
        return self.executed / self.cycles if self.cycles else 0.0


class _TimedEngine(TripsSimulator):
    """The functional engine, timing each committed block on the ideal
    machine."""

    def __init__(self, program: TripsProgram, memory_size: int,
                 window: int, dispatch_cost: int, max_blocks: int) -> None:
        super().__init__(program, memory_size)
        self.window = window
        self.dispatch_cost = dispatch_cost
        self.max_blocks = max_blocks
        self.timing = IdealStats()
        self.reg_time: List[int] = [0] * 128
        self.store_time: Dict[int, int] = {}   # address -> availability
        self.in_flight: deque = deque()        # (completion time, size)
        self.in_flight_insts = 0
        self.start = 0                         # next block's dispatch
        self._statics: Dict[_BlockImage, Tuple[list, list, list]] = {}

    def _block_fired(self, image, order, used_feed, pred_from, addresses,
                     write_producers) -> None:
        timing = self.timing
        if timing.blocks >= self.max_blocks:
            raise TrapError("ideal simulation exceeded block budget")
        block = image.block
        statics = self._statics.get(image)
        if statics is None:
            statics = self._statics[image] = (
                [inst.op for inst in block.instructions],
                [TRIPS_LATENCY.get(inst.op, 1)
                 for inst in block.instructions],
                [inst.lsid for inst in block.instructions])
        ops, latency, lsids = statics
        size = len(ops)

        # Window constraint: pop completed blocks; if the window is still
        # full, wait for the oldest to finish.
        in_flight = self.in_flight
        while in_flight and self.in_flight_insts + size > self.window:
            completion, old_size = in_flight.popleft()
            self.in_flight_insts -= old_size
            self.start = max(self.start, completion)
        start = self.start

        # ready_at[p]: when producer p's result is available.
        reg_time = self.reg_time
        ready_at = [0] * size + [max(start, reg_time[read.reg])
                                 for read in block.reads]
        store_time = self.store_time
        resolved: Dict[int, int] = {}
        exit_time = start
        executed = 0
        for index in order:
            if index < 0:
                index = ~index     # mispredicated store
                resolved[lsids[index]] = ready_at[pred_from[index]]
                continue
            executed += 1
            issue = start
            for producer in used_feed[index]:
                if ready_at[producer] > issue:
                    issue = ready_at[producer]
            op = ops[index]
            if op is TOp.LOAD:
                # Perfect disambiguation: wait only for the true producer.
                word = addresses[index] // 8 * 8
                ready_at[index] = max(issue, store_time.get(word, start)) \
                    + PERFECT_LOAD_CYCLES
            elif op is TOp.STORE:
                store_time[addresses[index] // 8 * 8] = issue + 1
                resolved[lsids[index]] = issue + 1
            elif op is TOp.NULL:
                ready_at[index] = issue
                if lsids[index] >= 0:
                    resolved[lsids[index]] = issue
            elif op in _EXIT_SET:
                exit_time = issue
            else:
                ready_at[index] = issue + latency[index]

        completion = exit_time
        for slot, write in enumerate(block.writes):
            when = ready_at[write_producers[slot]]
            reg_time[write.reg] = when
            completion = max(completion, when)
        for lsid in image.store_lsids:
            completion = max(completion, resolved[lsid])

        in_flight.append((completion, size))
        self.in_flight_insts += size
        timing.blocks += 1
        timing.executed += executed
        timing.cycles = max(timing.cycles, completion)
        self.start = start + self.dispatch_cost


class IdealSimulator:
    """Dataflow-limit timing with a window and a dispatch cost."""

    def __init__(self, program: TripsProgram, window: int = 1024,
                 dispatch_cost: int = 8,
                 memory_size: int = 16 * 1024 * 1024,
                 max_blocks: int = 2_000_000) -> None:
        from repro.uarch.config import ConfigError
        if not isinstance(window, int) or isinstance(window, bool) \
                or window < 1:
            raise ConfigError(
                f"ideal window must be an int >= 1, got {window!r}")
        if not isinstance(dispatch_cost, int) \
                or isinstance(dispatch_cost, bool) or dispatch_cost < 0:
            raise ConfigError(
                f"ideal dispatch_cost must be an int >= 0, got "
                f"{dispatch_cost!r}")
        self._engine = _TimedEngine(program, memory_size, window,
                                    dispatch_cost, max_blocks)
        self.stats = self._engine.timing

    def run(self, entry: str = "main",
            args: Optional[List[object]] = None):
        return self._engine.run(entry, args)


def run_ideal(program: TripsProgram, entry: str = "main",
              args: Optional[List[object]] = None, window: int = 1024,
              dispatch_cost: int = 8,
              memory_size: int = 16 * 1024 * 1024):
    """One-shot convenience: returns (result, simulator)."""
    simulator = IdealSimulator(program, window, dispatch_cost, memory_size)
    result = simulator.run(entry, args)
    return result, simulator
