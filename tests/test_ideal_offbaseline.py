"""Ideal-machine behavior at off-baseline parameters.

The sweep engine drives :mod:`repro.uarch.ideal` across the Figure 10
grid (window x dispatch cost), so the model's monotonicity and its
parameter validation are pinned here: a larger window may never lose
IPC, free dispatch may never lose IPC, and out-of-domain parameters
fail loudly instead of simulating garbage.
"""

import json
from pathlib import Path

import pytest

from repro.bench import get
from repro.ir import run_module
from repro.opt import optimize
from repro.pipeline import VARIANT_LEVEL
from repro.trips import lower_module
from repro.uarch import ConfigError, run_ideal
from repro.uarch.ideal import IdealSimulator

from tests.util import branchy_module, sum_of_squares_module

WINDOW_LADDER = [64, 256, 1024, 8192, 128 * 1024]

#: IdealStats of every Figure 10 program at its three configurations
#: (``tools/kernel_equivalence.py`` checks the whole file).
FIG10_GOLDENS = Path(__file__).parent / "data" / "ideal_fig10.json"


def _program(module, level="O2"):
    return lower_module(optimize(module, level)).program


@pytest.fixture(scope="module")
def programs():
    return [_program(sum_of_squares_module(50)),
            _program(sum_of_squares_module(50), "HAND"),
            _program(branchy_module([6, -2, 9, -9, 3, 3, -7, 1]))]


class TestMonotonicity:
    @pytest.mark.parametrize("dispatch_cost", [0, 8])
    def test_larger_window_never_loses_ipc(self, programs, dispatch_cost):
        for program in programs:
            last_ipc = 0.0
            for window in WINDOW_LADDER:
                _, sim = run_ideal(program, window=window,
                                   dispatch_cost=dispatch_cost)
                assert sim.stats.ipc >= last_ipc, (
                    f"window {window} lost IPC "
                    f"({sim.stats.ipc:.3f} < {last_ipc:.3f})")
                last_ipc = sim.stats.ipc

    @pytest.mark.parametrize("window", [256, 8192])
    def test_cheaper_dispatch_never_loses_ipc(self, programs, window):
        for program in programs:
            last_ipc = 0.0
            for dispatch_cost in (8, 4, 0):
                _, sim = run_ideal(program, window=window,
                                   dispatch_cost=dispatch_cost)
                assert sim.stats.ipc >= last_ipc
                last_ipc = sim.stats.ipc

    def test_results_identical_across_grid(self, programs):
        """Timing parameters must never change *what* is computed."""
        for program in programs:
            results = {
                run_ideal(program, window=window,
                          dispatch_cost=dispatch_cost)[0]
                for window in (256, 8192) for dispatch_cost in (0, 8)}
            assert len(results) == 1

    def test_off_baseline_matches_interpreter(self):
        module = sum_of_squares_module(19)
        expected = run_module(module)[0]
        assert run_ideal(_program(module), window=64,
                         dispatch_cost=3)[0] == expected


class TestParameterValidation:
    @pytest.mark.parametrize("window", [0, -1, True, "1024"])
    def test_bad_window_rejected(self, programs, window):
        with pytest.raises(ConfigError):
            IdealSimulator(programs[0], window=window)

    @pytest.mark.parametrize("dispatch_cost", [-1, False, 2.5])
    def test_bad_dispatch_cost_rejected(self, programs, dispatch_cost):
        with pytest.raises(ConfigError):
            IdealSimulator(programs[0], dispatch_cost=dispatch_cost)

    def test_minimum_legal_parameters_run(self, programs):
        result, sim = run_ideal(programs[0], window=1, dispatch_cost=0)
        assert sim.stats.cycles > 0


class TestFig10Goldens:
    @pytest.mark.parametrize("name", ["vadd", "a2time", "rspeed"])
    def test_stats_match_golden(self, name):
        goldens = json.loads(FIG10_GOLDENS.read_text())
        for variant, level in VARIANT_LEVEL.items():
            program = lower_module(optimize(get(name).module(), level),
                                   formation="hyper").program
            for config, expected in goldens[f"{name}/{variant}"].items():
                window, dispatch_cost = map(int, config.split("/"))
                _, sim = run_ideal(program, window=window,
                                   dispatch_cost=dispatch_cost)
                assert vars(sim.stats) == expected, (variant, config)
