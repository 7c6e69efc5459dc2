"""Functional (architecture-level) simulator for TRIPS programs.

Executes one block at a time with true dataflow semantics:

* read instructions inject register values;
* an instruction fires when its data operands have all arrived and, if
  predicated, its predicate operand arrived with the matching polarity;
* memory operations respect load/store-ID order: a load waits until every
  lower-ID *store* is resolved (fired, nullified, or mispredicated) and
  reads memory as patched by those stores; stores fire into a per-block
  buffer and commit to memory in load/store-ID order with the block;
* the block completes when one exit has fired, every register-write
  channel has a value, and every store ID is resolved; writes and the
  exit then commit atomically.

The simulator doubles as the measurement instrument for the paper's ISA
evaluation (Section 4): per-block fetched/executed/useful/move counts,
the executed-but-unused closure, storage-access counts, and the dynamic
block trace consumed by the predictor study and the cycle-level model.
Each committed block's firing record also goes to :meth:`_block_fired`,
over which the ideal machine (:mod:`repro.uarch.ideal`) replays timing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.interp import Memory, TrapError
from repro.ir.types import sign_extend, to_unsigned64, wrap64, zero_extend

from repro.isa.asm import is_write_target, write_slot_of
from repro.isa.block import TripsBlock, TripsProgram
from repro.isa.instructions import Slot, TEST_OPS, TInst, TOp, operand_count

#: Unique sentinel carried by NULL tokens through the dataflow.
NULL_TOKEN = object()

#: Infinite-loop guard (in fired instructions).
DEFAULT_FUEL = 400_000_000


@dataclass
class BlockEvent:
    """One committed block, as reported to the trace callback."""

    label: str
    function: str
    exit_op: TOp
    target: str            # next block label ("" for program end)
    fetched: int
    executed: int
    exit_index: int = 0    # which of the block's exits fired (0..7)
    cont: str = ""         # call continuation label (CALLO exits)


@dataclass
class TripsStats:
    """Aggregate ISA statistics over one program run (Section 4)."""

    blocks_committed: int = 0
    fetched: int = 0                 # compute instructions in fetched blocks
    executed: int = 0                # instructions that fired
    useful: int = 0                  # fired, used, and not a move/null
    moves_executed: int = 0
    executed_not_used: int = 0
    fetched_not_executed: int = 0
    loads_executed: int = 0
    stores_committed: int = 0
    nulls_executed: int = 0
    tests_executed: int = 0
    reads_fetched: int = 0
    writes_committed: int = 0
    operands_delivered: int = 0      # producer->consumer operand messages
    register_reads: int = 0          # architectural register file reads
    register_writes: int = 0
    fetched_blocks: Set[str] = field(default_factory=set)
    per_block_fetch_count: Dict[str, int] = field(default_factory=dict)
    composition: Dict[str, int] = field(default_factory=dict)

    def add_composition(self, category: str, count: int = 1) -> None:
        self.composition[category] = self.composition.get(category, 0) + count


class _BlockImage:
    """Precompiled per-block metadata reused across activations."""

    __slots__ = ("block", "need", "targets", "preds", "write_count",
                 "store_lsids", "read_targets", "categories")

    def __init__(self, block: TripsBlock) -> None:
        self.block = block
        n = len(block.instructions)
        self.need = [operand_count(i.op) for i in block.instructions]
        self.preds = [i.predicate for i in block.instructions]
        self.targets = [i.targets for i in block.instructions]
        self.write_count = len(block.writes)
        self.store_lsids = sorted(block.store_lsids)
        self.read_targets = [r.targets for r in block.reads]
        self.categories = [i.category for i in block.instructions]


class TripsSimulator:
    """Block-atomic dataflow executor over a :class:`TripsProgram`."""

    def __init__(self, program: TripsProgram,
                 memory_size: int = 16 * 1024 * 1024,
                 fuel: int = DEFAULT_FUEL) -> None:
        self.program = program
        self.memory = Memory(memory_size)
        self.fuel = fuel
        self.stats = TripsStats()
        self.regs: List[object] = [0] * 128
        self._images: Dict[Tuple[str, str], _BlockImage] = {}
        for name, func in program.functions.items():
            for label, block in func.blocks.items():
                self._images[(name, label)] = _BlockImage(block)
        for address, payload in program.globals_image:
            self.memory.write_bytes(address, payload)

    def run(self, entry: str = "main", args: Optional[List[object]] = None,
            trace: Optional[Callable[[BlockEvent], None]] = None):
        """Run ``entry`` to completion; returns the integer return value."""
        self.regs[1] = self.memory.size - 64       # stack pointer
        for i, arg in enumerate(args or []):
            self.regs[3 + i] = arg

        func_name = entry
        label = self.program.function(entry).entry
        call_stack: List[Tuple[str, str]] = []

        while True:
            image = self._images[(func_name, label)]
            exit_inst = self._execute_block(image)
            op = exit_inst.op
            exit_index = next(
                (k for k, e in enumerate(image.block.exits)
                 if e is exit_inst), 0)
            if op is TOp.BRO:
                event_target = exit_inst.label
                label = exit_inst.label
            elif op is TOp.CALLO:
                call_stack.append((func_name, exit_inst.cont))
                func_name = exit_inst.label
                label = self.program.function(func_name).entry
                event_target = label
            elif op is TOp.RET:
                if not call_stack:
                    if trace is not None:
                        trace(BlockEvent(image.block.label, func_name, op,
                                         "", len(image.block.instructions),
                                         0, exit_index, ""))
                    return self.regs[3]
                func_name, label = call_stack.pop()
                event_target = label
            else:
                raise AssertionError(f"bad exit {op}")
            if trace is not None:
                trace(BlockEvent(image.block.label, func_name, op,
                                 event_target,
                                 len(image.block.instructions), 0,
                                 exit_index, exit_inst.cont))

    # -- block execution --------------------------------------------------------

    def _execute_block(self, image: _BlockImage) -> TInst:
        block = image.block
        stats = self.stats
        n = len(block.instructions)

        operands: List[Dict[Slot, object]] = [None] * n
        pred_value: List[object] = [None] * n       # arrived predicate value
        fired = [False] * n
        mispredicated = [False] * n
        parked_loads: List[int] = []
        resolved_stores: Set[int] = set()
        store_buffer: Dict[int, Tuple[int, object, TInst]] = {}
        write_values: Dict[int, object] = {}
        exit_taken: Optional[TInst] = None
        # The firing record (see _block_fired).  Producers are instruction
        # indices; register read k counts as producer n + k.
        order: List[int] = []
        used_feed: List[List[int]] = [[] for _ in range(n)]  # consumer->producers
        pred_from: Dict[int, int] = {}
        addresses: Dict[int, int] = {}
        write_producers: Dict[int, int] = {}
        ready: List[int] = []
        arrived_count = [0] * n

        def deliver(value, targets, producer_index: int) -> None:
            for target in targets:
                stats.operands_delivered += 1
                if is_write_target(target):
                    slot = write_slot_of(target)
                    write_values[slot] = value
                    write_producers[slot] = producer_index
                    continue
                index = target.inst
                if fired[index] or mispredicated[index]:
                    continue
                if target.slot is Slot.PRED:
                    if pred_value[index] is None:
                        pred_value[index] = (1 if value else 0) \
                            if value is not NULL_TOKEN else 0
                        used_feed[index].append(producer_index)
                        pred_from[index] = producer_index
                        _check_ready(index)
                    continue
                slots = operands[index]
                if slots is None:
                    slots = operands[index] = {}
                if target.slot in slots:
                    continue  # predicated merge: first arrival wins
                slots[target.slot] = value
                arrived_count[index] += 1
                used_feed[index].append(producer_index)
                _check_ready(index)

        def _check_ready(index: int) -> None:
            if fired[index] or mispredicated[index]:
                return
            if arrived_count[index] < image.need[index]:
                return
            predicate = image.preds[index]
            if predicate is not None:
                arrived = pred_value[index]
                if arrived is None:
                    return
                wanted = 1 if predicate == "T" else 0
                if arrived != wanted:
                    mispredicated[index] = True
                    inst = block.instructions[index]
                    if inst.op is TOp.STORE:
                        order.append(~index)
                        resolved_stores.add(inst.lsid)
                        _unpark()
                    return
            ready.append(index)

        def _stores_resolved_below(lsid: int) -> bool:
            for s in image.store_lsids:
                if s >= lsid:
                    return True
                if s not in resolved_stores:
                    return False
            return True

        def _unpark() -> None:
            # Re-enqueue parked loads; the main loop re-checks their
            # store-ordering constraint (iterative to bound stack depth).
            if parked_loads:
                ready.extend(parked_loads)
                parked_loads.clear()

        def _fire(index: int) -> None:
            nonlocal exit_taken
            inst = block.instructions[index]
            fired[index] = True
            order.append(index)
            stats.executed += 1
            op = inst.op
            slots = operands[index] or {}
            if op is TOp.LOAD:
                stats.loads_executed += 1
                address = wrap64(_as_int(slots[Slot.OP0]) + inst.imm)
                addresses[index] = address
                value = _buffered_load(self.memory, address, inst,
                                       store_buffer)
                deliver(value, image.targets[index], index)
            elif op is TOp.STORE:
                stats.stores_committed += 1
                address = wrap64(_as_int(slots[Slot.OP0]) + inst.imm)
                addresses[index] = address
                store_buffer[inst.lsid] = (address, slots[Slot.OP1], inst)
                resolved_stores.add(inst.lsid)
                _unpark()
            elif op is TOp.NULL:
                stats.nulls_executed += 1
                if inst.lsid >= 0:
                    resolved_stores.add(inst.lsid)
                    _unpark()
                deliver(NULL_TOKEN, image.targets[index], index)
            elif op in _EXIT_SET:
                if exit_taken is not None:
                    raise TrapError(
                        f"block {block.label}: two exits fired "
                        f"(i{exit_taken.index} and i{inst.index})")
                exit_taken = inst
            else:
                if op in TEST_OPS:
                    stats.tests_executed += 1
                elif op is TOp.MOV:
                    stats.moves_executed += 1
                value = _compute(op, inst, slots)
                deliver(value, image.targets[index], index)

        # Inject register reads.
        stats.reads_fetched += len(block.reads)
        stats.register_reads += len(block.reads)
        for k, (read, targets) in enumerate(zip(block.reads,
                                                image.read_targets)):
            deliver(self.regs[read.reg], targets, n + k)

        # GENI/GENF and other zero-operand instructions are ready at fetch.
        for index in range(n):
            if image.need[index] == 0 and image.preds[index] is None \
                    and not fired[index]:
                ready.append(index)

        while True:
            while ready:
                index = ready.pop()
                if fired[index] or mispredicated[index]:
                    continue
                inst = block.instructions[index]
                self.fuel -= 1
                if self.fuel <= 0:
                    raise TrapError("out of fuel")
                if inst.op is TOp.LOAD \
                        and not _stores_resolved_below(inst.lsid):
                    parked_loads.append(index)
                    continue
                _fire(index)
            if self._block_complete(image, exit_taken, write_values,
                                    resolved_stores):
                break
            raise TrapError(
                f"block {block.label} deadlocked: exit={exit_taken}, "
                f"writes {len(write_values)}/{image.write_count}, "
                f"stores {len(resolved_stores)}/{len(image.store_lsids)}")

        # Commit: register writes, then buffered stores in load/store-ID
        # order.
        for slot, write in enumerate(block.writes):
            value = write_values[slot]
            if value is not NULL_TOKEN:
                self.regs[write.reg] = value
            stats.register_writes += 1
        for lsid in sorted(store_buffer):
            address, value, inst = store_buffer[lsid]
            self._store(address, value, inst)
        stats.writes_committed += len(block.writes)
        stats.blocks_committed += 1
        stats.fetched += n
        stats.fetched_blocks.add(block.label)
        stats.per_block_fetch_count[block.label] = \
            stats.per_block_fetch_count.get(block.label, 0) + 1

        self._account_usage(image, fired, used_feed, write_producers)
        self._block_fired(image, order, used_feed, pred_from, addresses,
                          write_producers)
        return exit_taken

    def _block_fired(self, image: _BlockImage, order: List[int],
                     used_feed: List[List[int]], pred_from: Dict[int, int],
                     addresses: Dict[int, int],
                     write_producers: Dict[int, int]) -> None:
        """Hook called with each committed block's firing record.

        ``order`` lists fired instruction indices in firing order, with
        ``~i`` where store ``i`` resolved by mispredication.  Producers in
        ``used_feed`` (per consumer: each operand's and the predicate's
        supplier, first arrival winning), ``pred_from`` (the predicate's
        supplier) and ``write_producers`` (per write slot: the last
        supplier) are instruction indices, or ``n + k`` for the block's
        register read ``k``.  ``addresses`` maps each fired load and store
        to its effective address.  The functional run needs none of it.
        """

    def _block_complete(self, image, exit_taken, write_values,
                        resolved_stores) -> bool:
        if exit_taken is None:
            return False
        if len(write_values) < image.write_count:
            return False
        for lsid in image.store_lsids:
            if lsid not in resolved_stores:
                return False
        return True

    def _account_usage(self, image, fired, used_feed,
                       write_producers) -> None:
        """Classify fired instructions into useful / move / unused."""
        block = image.block
        stats = self.stats
        n = len(block.instructions)
        used = [False] * n
        worklist: List[int] = []
        for index in range(n):
            if not fired[index]:
                continue
            op = block.instructions[index].op
            if op is TOp.STORE or op is TOp.NULL or op in _EXIT_SET:
                used[index] = True
                worklist.append(index)
        # Producers n and up are register reads, which need no marking.
        for producer in write_producers.values():
            if producer < n and not used[producer]:
                used[producer] = True
                worklist.append(producer)
        while worklist:
            index = worklist.pop()
            for producer in used_feed[index]:
                if producer < n and not used[producer]:
                    used[producer] = True
                    worklist.append(producer)

        for index in range(n):
            category = image.categories[index]
            if not fired[index]:
                stats.fetched_not_executed += 1
                stats.add_composition("fetched_not_executed")
                continue
            op = block.instructions[index].op
            if op is TOp.MOV:
                stats.add_composition("move")
            elif not used[index]:
                stats.executed_not_used += 1
                stats.add_composition("executed_not_used")
            else:
                stats.useful += 1
                stats.add_composition(category)

    # -- memory helpers -----------------------------------------------------------

    def _store(self, address: int, value, inst: TInst) -> None:
        if isinstance(value, float):
            self.memory.store_float(address, value)
            return
        self.memory.store_int(address, inst.width, _as_int(value))


def _as_int(value) -> int:
    if value is NULL_TOKEN:
        return 0
    return int(value)


def _overlap(addr_a: int, width_a: int, addr_b: int, width_b: int) -> bool:
    return addr_a < addr_b + width_b and addr_b < addr_a + width_a


def _buffered_load(memory: Memory, address: int, inst: TInst,
                   store_buffer: Dict[int, Tuple[int, object, TInst]],
                   with_supplier: bool = False):
    """Read a value as seen past a block's in-flight store buffer.

    ``store_buffer`` maps load/store ID to ``(address, value, store)``.
    Reconstructs the load's bytes from memory patched with every buffered
    store whose load/store ID precedes the load, without committing the
    stores (they commit in order at block completion).  With
    ``with_supplier``, returns ``(value, lsid of the youngest store that
    supplied bytes, or -1)``.
    """
    overlapping = [
        lsid for lsid, (a, _v, si) in store_buffer.items()
        if lsid < inst.lsid and _overlap(address, inst.width, a, si.width)
    ] if store_buffer else None
    if not overlapping:
        if inst.is_float:
            value = memory.load_float(address)
        else:
            value = memory.load_int(address, inst.width, inst.signed)
        return (value, -1) if with_supplier else value
    overlapping.sort()
    data = bytearray(memory.read_bytes(address, inst.width))
    for lsid in overlapping:
        saddr, svalue, sinst = store_buffer[lsid]
        if isinstance(svalue, float):
            payload = struct.pack("<d", svalue)
        else:
            payload = (int(svalue) & ((1 << (sinst.width * 8)) - 1)) \
                .to_bytes(sinst.width, "little")
        lo = max(address, saddr)
        hi = min(address + inst.width, saddr + sinst.width)
        data[lo - address:hi - address] = payload[lo - saddr:hi - saddr]
    if inst.is_float:
        value = struct.unpack("<d", bytes(data))[0]
    else:
        raw = int.from_bytes(bytes(data), "little")
        value = sign_extend(raw, inst.width) if inst.signed \
            else zero_extend(raw, inst.width)
    return (value, overlapping[-1]) if with_supplier else value


_EXIT_SET = frozenset({TOp.BRO, TOp.CALLO, TOp.RET})


def _compute(op: TOp, inst: TInst, slots) -> object:
    if op is TOp.GENI:
        return inst.imm
    if op is TOp.GENF:
        return inst.fimm
    if op is TOp.MOV:
        return slots[Slot.OP0]
    a = slots.get(Slot.OP0)
    b = slots.get(Slot.OP1)
    if op is TOp.I2F:
        return float(_as_int(a))
    if op is TOp.F2I:
        return wrap64(int(a))
    if a is NULL_TOKEN or b is NULL_TOKEN:
        return NULL_TOKEN  # null propagates through the dataflow
    handler = _BINOPS.get(op)
    if handler is None:
        raise AssertionError(f"unhandled op {op}")
    return handler(a, b)


def _idiv(a, b):
    if b == 0:
        raise TrapError("integer divide by zero")
    return wrap64(int(a / b))


def _irem(a, b):
    if b == 0:
        raise TrapError("integer remainder by zero")
    return wrap64(a - int(a / b) * b)


_BINOPS = {
    TOp.ADD: lambda a, b: wrap64(a + b),
    TOp.SUB: lambda a, b: wrap64(a - b),
    TOp.MUL: lambda a, b: wrap64(a * b),
    TOp.DIV: _idiv,
    TOp.REM: _irem,
    TOp.AND: lambda a, b: wrap64(a & b),
    TOp.OR: lambda a, b: wrap64(a | b),
    TOp.XOR: lambda a, b: wrap64(a ^ b),
    TOp.SHL: lambda a, b: wrap64(a << (b & 63)),
    TOp.SHR: lambda a, b: wrap64(to_unsigned64(a) >> (b & 63)),
    TOp.SRA: lambda a, b: wrap64(a >> (b & 63)),
    TOp.TEQ: lambda a, b: int(a == b),
    TOp.TNE: lambda a, b: int(a != b),
    TOp.TLT: lambda a, b: int(a < b),
    TOp.TLE: lambda a, b: int(a <= b),
    TOp.TGT: lambda a, b: int(a > b),
    TOp.TGE: lambda a, b: int(a >= b),
    TOp.TLTU: lambda a, b: int(to_unsigned64(a) < to_unsigned64(b)),
    TOp.TGEU: lambda a, b: int(to_unsigned64(a) >= to_unsigned64(b)),
    TOp.FADD: lambda a, b: a + b,
    TOp.FSUB: lambda a, b: a - b,
    TOp.FMUL: lambda a, b: a * b,
    TOp.FDIV: lambda a, b: a / b,
    TOp.TFEQ: lambda a, b: int(a == b),
    TOp.TFLT: lambda a, b: int(a < b),
    TOp.TFLE: lambda a, b: int(a <= b),
}


def run_trips(program: TripsProgram, entry: str = "main",
              args: Optional[List[object]] = None,
              trace: Optional[Callable[[BlockEvent], None]] = None,
              memory_size: int = 16 * 1024 * 1024):
    """One-shot convenience: run and return (result, simulator)."""
    simulator = TripsSimulator(program, memory_size)
    result = simulator.run(entry, args, trace)
    return result, simulator
