"""Shared test helpers: program builders and hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ir import Builder, Module, Type, run_module, verify_module

#: Opcodes safe for random generation (no division by unconstrained values).
SAFE_BINOPS = ("add", "sub", "mul", "and_", "or_", "xor")
SAFE_SHIFTS = ("shl", "shr", "sra")
SAFE_CMPS = ("eq", "ne", "lt", "le", "gt", "ge")


def sum_of_squares_module(n: int = 10) -> Module:
    """A tiny canonical module used by many unit tests."""
    b = Builder()
    arr = b.global_array("arr", n, 8)
    b.function("main", return_type=Type.I64)
    total = b.mov(0, "total")
    with b.loop(0, n) as i:
        address = b.add(arr, b.shl(i, 3))
        b.store(b.mul(i, i), address)
    with b.loop(0, n) as i:
        address = b.add(arr, b.shl(i, 3))
        b.assign(total, b.add(total, b.load(address)))
    b.ret(total)
    verify_module(b.module)
    return b.module


def branchy_module(values) -> Module:
    """Data-dependent control flow over a list of constants."""
    b = Builder()
    from repro.bench._util import init_i64
    data = b.global_array("data", max(len(values), 1), 8, init_i64(values))
    b.function("main", return_type=Type.I64)
    acc = b.mov(0, "acc")
    with b.loop(0, len(values)) as i:
        v = b.load(b.add(data, b.shl(i, 3)))
        c = b.gt(v, 0)
        with b.if_then_else(c) as (then, otherwise):
            with then:
                b.assign(acc, b.add(acc, v))
            with otherwise:
                b.assign(acc, b.sub(acc, 1))
    b.ret(acc)
    verify_module(b.module)
    return b.module


#: Memory-op shapes for random generation, over a small global array.
MEM_SHAPES = ("load_store", "store_load", "store_store", "if_store")
MEM_CELLS = 4


def random_program(max_ops: int = 12, max_mem_ops: int = 4):
    """Hypothesis strategy: a random module from :func:`build_program`.

    Generates integer arithmetic with an optional branch and an optional
    short counted loop, always terminating and trap-free, interleaved with
    loads and stores on a small global array.  A failing example prints
    as the ``build_program(...)`` call that rebuilds it.
    """
    return st.builds(
        build_program,
        seeds=st.lists(st.integers(-1000, 1000), min_size=2, max_size=4),
        ops=st.lists(
            st.tuples(st.sampled_from(SAFE_BINOPS + SAFE_SHIFTS),
                      st.integers(0, 7), st.integers(0, 7),
                      st.integers(0, 15)),
            min_size=1, max_size=max_ops),
        mem_ops=st.lists(
            st.tuples(st.sampled_from(MEM_SHAPES),
                      st.integers(0, 7), st.integers(0, MEM_CELLS - 1),
                      st.integers(0, 7)),
            max_size=max_mem_ops),
        with_branch=st.booleans(),
        with_loop=st.booleans(),
        loop_trip=st.integers(1, 6))


def build_program(seeds, ops, mem_ops=(), with_branch=False,
                  with_loop=False, loop_trip=1) -> Module:
    """Build the module :func:`random_program` draws.

    ``ops`` are ``(opname, a, b, shift)`` value-list picks.  ``mem_ops``
    are ``(shape, i, j, v)`` accesses to a ``MEM_CELLS``-entry global
    array: the first access's cell is picked by value ``i`` at run time
    (``values[i] & 3``), the second is constant cell ``j``, so the two
    alias whenever the run-time pick lands on ``j``.  Shapes:
    ``load_store`` (load, then store), ``store_load``, ``store_store``
    (two stores), and ``if_store`` (a store under an ``if``).  The
    array's final contents join the returned checksum.
    """
    from repro.bench._util import init_i64

    b = Builder()
    cells = b.global_array("cells", MEM_CELLS, 8,
                           init_i64(range(3, 3 + MEM_CELLS)))
    b.function("main", return_type=Type.I64)
    values = [b.mov(seed) for seed in seeds]

    def pick(index):
        return values[index % len(values)]

    def emit_ops():
        for opname, a_index, b_index, shift in ops:
            a = pick(a_index)
            c = pick(b_index)
            if opname in SAFE_SHIFTS:
                result = getattr(b, opname)(a, shift)
            else:
                result = getattr(b, opname)(a, c)
            # Keep magnitudes bounded so mul chains don't explode.
            result = b.and_(result, 0xFFFFFFFF)
            values.append(result)
        for shape, i, j, v in mem_ops:
            picked = b.add(cells, b.shl(b.and_(pick(i), MEM_CELLS - 1), 3))
            fixed = cells + 8 * j
            value = pick(v)
            if shape == "load_store":
                values.append(b.load(picked))
                b.store(b.add(value, 1), fixed)
            elif shape == "store_load":
                b.store(value, picked)
                values.append(b.load(fixed))
            elif shape == "store_store":
                b.store(value, picked)
                b.store(b.add(value, 3), fixed)
            else:
                with b.if_then(b.gt(value, values[0])):
                    b.store(value, picked)

    if with_loop:
        with b.loop(0, loop_trip):
            emit_ops()
            values.append(b.and_(b.add(values[-1], values[0]), 0xFFFF))
    else:
        emit_ops()

    if with_branch:
        cond = b.gt(values[-1], values[0])
        with b.if_then_else(cond) as (then, otherwise):
            with then:
                b.assign(values[0], b.add(values[0], 1))
            with otherwise:
                b.assign(values[0], b.sub(values[0], 1))

    total = b.mov(0)
    for v in values[:8] + [b.load(cells + 8 * k) for k in range(MEM_CELLS)]:
        b.assign(total, b.and_(b.add(total, v), 0xFFFFFFFF))
    b.ret(total)
    verify_module(b.module)
    return b.module


def interp_result(module: Module):
    result, _ = run_module(module)
    return result
