"""Randomized end-to-end properties: generated programs, with loads and
stores on aliasing addresses, must produce the interpreter's result on
the functional, cycle-level and ideal machines."""

from hypothesis import example, given, settings

from repro.ir import run_module
from repro.opt import optimize
from repro.trips import lower_module, run_trips
from repro.uarch import run_cycles, run_ideal

from tests.util import build_program, random_program


@settings(max_examples=12, deadline=None)
@given(random_program(max_ops=8))
def test_cycle_simulator_matches_interpreter(module):
    expected = run_module(module)[0]
    lowered = lower_module(optimize(module, "O2"))
    assert run_cycles(lowered)[0] == expected


@settings(max_examples=12, deadline=None)
@given(random_program(max_ops=8))
# Shrunk from a failure: a younger store overtook an older load.
@example(build_program(seeds=[0, 0], ops=[("add", 0, 0, 0)],
                       mem_ops=[("load_store", 0, 0, 0)]))
def test_functional_simulator_matches_interpreter(module):
    expected = run_module(module)[0]
    lowered = lower_module(optimize(module, "O2"))
    assert run_trips(lowered.program)[0] == expected


@settings(max_examples=12, deadline=None)
@given(random_program(max_ops=8))
def test_ideal_machine_matches_interpreter(module):
    expected = run_module(module)[0]
    lowered = lower_module(optimize(module, "O2"))
    assert run_ideal(lowered.program)[0] == expected


@settings(max_examples=10, deadline=None)
@given(random_program(max_ops=6))
def test_basic_block_formation_matches(module):
    expected = run_module(module)[0]
    lowered = lower_module(optimize(module, "O0"), formation="basic")
    assert run_trips(lowered.program)[0] == expected
