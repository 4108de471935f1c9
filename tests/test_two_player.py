import math

import numpy as np
import pytest

from clinch.core import OnRegimeBoundary, validate_instance
from clinch.engine import solve
from clinch.two_player import Regime, marginal_rates_n2, solve_n2
from clinch.checks import stratified_two_player

from conftest import outcome_close


class TestRegimeRows:
    def test_vcg_regime_high_value_poor_player(self):
        out, label = solve_n2(1, 2, 3, 2, 1)
        assert out.allocation == (0.0, 1.0)
        assert out.payments == (0.0, 1.0)
        assert label.regime is Regime.V2_HIGH_VCG

    def test_vcg_regime_high_value_rich_player(self):
        out, label = solve_n2(5, 2, 3, 2, 0.5)
        assert out.allocation == (0.5, 0.0)
        assert out.payments == (1.0, 0.0)
        assert label.regime is Regime.V1_HIGH_VCG

    def test_middle_regime_log_payment(self):
        out, label = solve_n2(1, 2, 3, 1, 2)
        assert out.allocation == (1.0, 1.0)
        assert abs(out.payments[0] - math.log(2)) < 1e-12
        assert out.payments[1] == 1.0
        assert label.regime is Regime.V2_HIGH_RICH_BUYS

    def test_zero_supply(self):
        out, _ = solve_n2(1, 2, 3, 2, 0)
        assert out.allocation == (0.0, 0.0)
        assert out.payments == (0.0, 0.0)

    def test_split_spend_is_the_documented_constant(self):
        _, label = solve_n2(1, 2, 3, 2, 1)
        assert abs(label.split_spend - math.exp(3 / 2 - 1 + math.log(2))) < 1e-12

    def test_relabeling_is_transparent(self):
        a, la = solve_n2(1, 2, 2, 3, 1)   # poorer player listed first
        b, lb = solve_n2(2, 1, 3, 2, 1)
        assert a.allocation == b.allocation[::-1]
        assert a.payments == b.payments[::-1]
        assert la.regime is lb.regime


class TestBoundaries:
    @pytest.mark.parametrize("v1,v2,b1,b2", [
        (1.3, 2.0, 3.0, 1.7),   # poorer budget boundary, high-value side
        (2.0, 1.3, 3.0, 1.7),   # poorer budget boundary, low-value side
    ])
    def test_budget_boundary_continuity(self, v1, v2, b1, b2):
        s = b2 / min(v1, v2)
        lo, _ = solve_n2(v1, v2, b1, b2, s * (1 - 1e-9))
        hi, _ = solve_n2(v1, v2, b1, b2, s * (1 + 1e-9))
        assert outcome_close(lo, hi, 1e-6)

    @pytest.mark.parametrize("v1,v2,b1,b2", [
        (1.3, 2.0, 3.0, 1.7),
        (2.0, 1.3, 3.0, 1.7),
    ])
    def test_split_boundary_continuity(self, v1, v2, b1, b2):
        knee = b2 * math.exp(b1 / b2 - 1)
        s = knee / min(v1, v2)
        lo, _ = solve_n2(v1, v2, b1, b2, s * (1 - 1e-9))
        hi, _ = solve_n2(v1, v2, b1, b2, s * (1 + 1e-9))
        assert outcome_close(lo, hi, 1e-6)

    def test_boundary_classified_to_deeper_row(self):
        _, label = solve_n2(1.0, 2.0, 3.0, 1.5, 1.5)  # spend == poorer budget
        assert label.regime is Regime.V2_HIGH_RICH_BUYS


class TestDegenerate:
    def test_zero_poorer_budget_delegates_to_engine(self):
        out, label = solve_n2(3, 2, 4, 0, 1)
        assert label.regime is Regime.DEGENERATE
        assert out == solve(validate_instance(values=[3, 2], budgets=[4, 0], supply=1))

    def test_zero_value_delegates_to_engine(self):
        out, label = solve_n2(0, 2, 3, 2, 1)
        assert label.regime is Regime.DEGENERATE
        assert out.allocation == (0.0, 0.0)


class TestEngineAgreement:
    def test_stratified_sample_matches_engine(self):
        insts = stratified_two_player(seed=20, count=600)
        for inst in insts:
            cf, _ = solve_n2(inst.values[0], inst.values[1], inst.budgets[0],
                             inst.budgets[1], inst.supply)
            assert outcome_close(cf, solve(inst), 1e-6)

    def test_all_six_regimes_are_hit(self):
        insts = stratified_two_player(seed=21, count=120)
        seen = set()
        for inst in insts:
            _, label = solve_n2(inst.values[0], inst.values[1], inst.budgets[0],
                                inst.budgets[1], inst.supply)
            seen.add(label.regime)
        assert seen >= {Regime.V2_HIGH_VCG, Regime.V2_HIGH_RICH_BUYS,
                        Regime.V2_HIGH_SPLIT, Regime.V1_HIGH_VCG,
                        Regime.V1_HIGH_DISCOUNT, Regime.V1_HIGH_SPLIT}


class TestMarginalRates:
    def test_vcg_regime_rates(self):
        dx, dpay, label = marginal_rates_n2(1, 2, 3, 2, 0.5)
        assert dx == (0.0, 1.0)
        assert dpay == (0.0, 1.0)  # unit price equals the lower value
        assert label.regime is Regime.V2_HIGH_VCG

    def test_split_regime_rates_sum_to_one(self):
        b1, b2 = 3.0, 2.0
        knee = b2 * math.exp(b1 / b2 - 1)
        s = 2 * knee  # deep supply, v1 = 1
        dx, dpay, label = marginal_rates_n2(1, 2, b1, b2, s)
        assert label.regime is Regime.V2_HIGH_SPLIT
        assert abs(sum(dx) - 1.0) < 1e-12
        assert all(r >= 0 for r in dx) and all(r >= 0 for r in dpay)

    def test_rates_match_finite_differences(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 120:
            v1, v2 = rng.uniform(0.2, 10, 2)
            b2 = rng.uniform(0.2, 4)
            b1 = b2 * rng.uniform(1.0, 3.0)
            s = rng.uniform(0.05, 15)
            try:
                dx, dpay, _ = marginal_rates_n2(v1, v2, b1, b2, s)
            except OnRegimeBoundary:
                continue
            h = 1e-6
            lo, _ = solve_n2(v1, v2, b1, b2, s - h)
            hi, _ = solve_n2(v1, v2, b1, b2, s + h)
            for i in range(2):
                fd_x = (hi.allocation[i] - lo.allocation[i]) / (2 * h)
                fd_p = (hi.payments[i] - lo.payments[i]) / (2 * h)
                assert abs(fd_x - dx[i]) <= 1e-4 * max(1.0, abs(dx[i]))
                assert abs(fd_p - dpay[i]) <= 1e-4 * max(1.0, abs(dpay[i]))
            checked += 1

    def test_rates_are_non_negative_everywhere(self):
        rng = np.random.default_rng(6)
        for _ in range(400):
            v1, v2 = rng.uniform(0.2, 10, 2)
            b2 = rng.uniform(0.2, 4)
            b1 = b2 * rng.uniform(1.0, 3.0)
            s = rng.uniform(0.05, 15)
            try:
                dx, dpay, _ = marginal_rates_n2(v1, v2, b1, b2, s)
            except OnRegimeBoundary:
                continue
            assert min(dx) >= 0.0 and min(dpay) >= 0.0

    def test_boundary_raises(self):
        with pytest.raises(OnRegimeBoundary):
            marginal_rates_n2(1.0, 2.0, 3.0, 1.5, 1.5)  # spend == poorer budget
        with pytest.raises(OnRegimeBoundary):
            marginal_rates_n2(1, 2, 3, 0, 1)  # degenerate

    def test_split_boundary_raises_and_just_past_it_splits(self):
        # b1 = 2, b2 = 1 put the split knee at b2 * exp(b1/b2 - 1) = e
        with pytest.raises(OnRegimeBoundary, match="split boundary"):
            marginal_rates_n2(1, 1, 2, 1, math.e)
        s = math.e * (1 + 1e-6)
        dx, dpay, label = marginal_rates_n2(1, 1, 2, 1, s)
        assert label.regime is Regime.V2_HIGH_SPLIT and label.split_spend == pytest.approx(math.e)
        dx2 = 1 / (2 * math.e) - math.e / (2 * s * s)
        assert dx == pytest.approx((1 - dx2, dx2), rel=1e-12)
        assert dpay == pytest.approx((math.e / (s * s), 0.0), rel=1e-12)
