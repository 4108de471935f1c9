import math

import numpy as np
import pytest

from clinch.core import StepTooLarge, validate_instance
from clinch.engine import solve
from clinch.oracle import _count_flips, solve_euler
from clinch.checks import oracle_corpus, random_instances

SHOWCASE = validate_instance(values=[9, 10, 11, 5.7], budgets=[3, 2, 1, 0.5],
                             supply=1)


def gap(a, b):
    return max(abs(u - v) for u, v in zip(a.allocation + a.payments,
                                          b.allocation + b.payments))


class TestAgreement:
    def test_showcase_within_tolerance_at_default_step(self):
        assert gap(solve_euler(SHOWCASE, 1e-4), solve(SHOWCASE)) <= 1e-3

    def test_pure_exit_instance_is_exact_at_any_step(self):
        inst = validate_instance(values=[1, 2], budgets=[3, 2], supply=1)
        for h in (0.5, 1e-2, 1e-4):
            assert gap(solve_euler(inst, h), solve(inst)) == 0.0

    def test_zero_supply(self):
        inst = validate_instance(values=[1, 2], budgets=[3, 2], supply=0)
        out = solve_euler(inst, 1e-3)
        assert out.allocation == (0.0, 0.0)
        assert out.payments == (0.0, 0.0)

    def test_mixed_segment_instance(self):
        inst = validate_instance(values=[1, 2], budgets=[3, 1], supply=2)
        assert gap(solve_euler(inst, 1e-4), solve(inst)) <= 1e-3


class TestConvergence:
    def test_halving_shrinks_the_error_first_order(self):
        errs = {}
        for h in (4e-4, 2e-4, 1e-4):
            errs[h] = gap(solve_euler(SHOWCASE, h), solve(SHOWCASE))
        assert errs[4e-4] / errs[2e-4] >= 1.5
        assert errs[2e-4] / errs[1e-4] >= 1.5

    def test_corpus_mean_error_halves(self):
        insts = random_instances(oracle_corpus(seed=17, count=40))
        e1, e2 = [], []
        for inst in insts:
            ref = solve(inst)
            e1.append(gap(solve_euler(inst, 2e-4), ref))
            e2.append(gap(solve_euler(inst, 1e-4), ref))
        assert float(np.mean(e1)) / float(np.mean(e2)) >= 1.5
        assert max(e2) <= 1e-3


class TestPreconditions:
    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_euler(SHOWCASE, 0.0)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_step_must_be_finite(self, h):
        with pytest.raises(ValueError, match="finite"):
            solve_euler(SHOWCASE, h)

    def test_needs_two_players(self):
        with pytest.raises(ValueError):
            solve_euler(validate_instance(values=[2], budgets=[1], supply=1), 1e-3)

    def test_oscillation_guard_raises(self):
        flips = np.array([0, 2, 0])
        old = np.array([False, True, False])
        new = np.array([False, False, False])
        with pytest.raises(StepTooLarge):
            _count_flips(flips, old, new)
