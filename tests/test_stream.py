import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from clinch import engine
from clinch.core import (
    EmptyInstance,
    MonotonicityViolation,
    NonFinite,
    NonPositiveIncrement,
    Outcome,
    validate_instance,
)
from clinch.engine import solve
from clinch.stream import SupplyStream
from clinch.invariants import myerson_gap

from conftest import instances


class TestInit:
    def test_zero_state(self):
        sup = SupplyStream([1, 2], [3, 2])
        assert sup.supply == 0.0
        assert sup.outcome.allocation == (0.0, 0.0)
        assert sup.utility_snapshot() == (0.0, 0.0)
        # nothing was sold before the first increment: its cumulative supply
        # is the increment itself
        assert sup.on_supply(0.5).supply == 0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyInstance):
            SupplyStream([], [])

    def test_single_bidder_stream(self):
        sup = SupplyStream([2], [5])
        d = sup.on_supply(3)
        assert d.delta_x == (3.0,)
        assert d.delta_pay == (0.0,)


class TestIncrements:
    def test_first_unit_goes_to_the_high_value_player(self):
        sup = SupplyStream([1, 2], [3, 2])
        d = sup.on_supply(1)
        assert d.delta_x == (0.0, 1.0)
        assert d.delta_pay == (0.0, 1.0)

    def test_second_unit_after_budget_depletion(self):
        # with the poorer player on one unit of budget, the second unit flows
        # to the rich player at the log-discounted charge
        sup = SupplyStream([1, 2], [3, 1])
        first = sup.on_supply(1)
        assert first.delta_x == (0.0, 1.0)
        assert first.delta_pay == (0.0, 1.0)
        second = sup.on_supply(1)
        assert second.delta_x == (1.0, 0.0)
        assert abs(second.delta_pay[0] - math.log(2)) < 1e-12
        assert second.delta_pay[1] == 0.0

    def test_equal_budgets_keep_feeding_the_high_value_player(self):
        sup = SupplyStream([1, 2], [3, 2])
        sup.on_supply(1)
        d = sup.on_supply(1)
        assert d.delta_x == (0.0, 1.0)
        assert d.delta_pay == (0.0, 1.0)

    def test_wide_budget_stream_stays_monotone(self):
        # the exit-cap drift behind the oversell also made later solves sell
        # less, which the stream reported as a MonotonicityViolation
        rng = np.random.default_rng(1)
        n = 64
        sup = SupplyStream(np.round(rng.uniform(0.01, 10, n), 2),
                          rng.uniform(1, 500, n))
        while sup.supply <= 2300:
            sup.on_supply(math.exp(rng.uniform(math.log(0.01), math.log(10))))

    def test_non_positive_increment_rejected(self):
        sup = SupplyStream([1, 2], [3, 2])
        with pytest.raises(NonPositiveIncrement):
            sup.on_supply(0)
        with pytest.raises(NonPositiveIncrement):
            sup.on_supply(-1)

    def test_overflowing_cumulative_supply_rejected_before_solving(self):
        sup = SupplyStream([1, 2], [1, 1])
        sup.on_supply(1e308)
        outcome = sup.outcome
        with pytest.raises(NonFinite, match="cumulative supply overflows"):
            sup.on_supply(1e308)
        assert (sup.supply, sup.outcome) == (1e308, outcome)

    def test_log_records_every_delta(self):
        sup = SupplyStream([1, 2], [3, 2])
        deltas = [sup.on_supply(0.5), sup.on_supply(0.25)]
        assert [d.supply for d in deltas] == [0.5, 0.75]
        assert sup.supply == 0.75


class TestUtilities:
    def test_vcg_regime_utility(self):
        v1, v2, s = 1.0, 2.0, 0.7
        sup = SupplyStream([v1, v2], [3, 2])
        sup.on_supply(s)
        u = sup.utility_snapshot()
        assert abs(u[1] - s * (v2 - v1)) < 1e-12
        assert u[0] == 0.0

    def test_kept_row_is_the_utilities_of_the_outcome(self):
        sup = SupplyStream([1.0, 2.0, 3.5], [3, 2, 0.7])
        for ds in (0.3, 0.9, 2.0):
            sup.on_supply(ds)
            out = sup.outcome
            assert sup.utility_snapshot() == tuple(
                v * x - p for v, x, p in zip(sup.inst.values, out.allocation, out.payments))

    def test_a_utility_fall_raises_and_keeps_the_stream(self, monkeypatch):
        sup = SupplyStream([1, 2], [3, 2])
        sup.on_supply(0.5)
        before = (sup.supply, sup.outcome, sup.utility_snapshot())
        # the same units at a higher price: no delta is negative, but player
        # 1's utility falls from 0.5 to 0
        dearer = Outcome(sup.outcome.allocation, (0.0, sup.outcome.payments[1] + 0.5))
        monkeypatch.setattr(engine, "solve", lambda inst: dearer)
        with pytest.raises(MonotonicityViolation, match="utility of player 1"):
            sup.on_supply(0.5)
        assert (sup.supply, sup.outcome, sup.utility_snapshot()) == before

    def test_a_component_fall_raises_and_keeps_the_stream(self, monkeypatch):
        sup = SupplyStream([1, 2], [3, 2])
        sup.on_supply(0.5)
        before = (sup.supply, sup.outcome, sup.utility_snapshot())
        x = sup.outcome.allocation
        assert x[1] > 0.1
        # the next increment takes 0.1 units back from player 1
        shrunk = Outcome((x[0], x[1] - 0.1), sup.outcome.payments)
        monkeypatch.setattr(engine, "solve", lambda inst: shrunk)
        with pytest.raises(MonotonicityViolation, match="component 1 fell from"):
            sup.on_supply(0.5)
        assert (sup.supply, sup.outcome, sup.utility_snapshot()) == before

    @given(instances(n_min=2, n_max=4), st.lists(st.floats(0.05, 1.0),
                                                 min_size=1, max_size=6))
    def test_utilities_never_decrease(self, inst, increments):
        sup = SupplyStream(inst.values, inst.budgets)
        prev = sup.utility_snapshot()
        for ds in increments:
            sup.on_supply(ds)
            cur = sup.utility_snapshot()
            for a, b in zip(prev, cur):
                assert b >= a - 1e-9 * max(1.0, abs(a))
            prev = cur


class TestPathIndependence:
    @given(instances(n_min=2, n_max=4), st.integers(1, 5), st.randoms())
    @settings(max_examples=30)
    def test_partition_of_supply_is_irrelevant(self, inst, parts, rnd):
        total = inst.supply
        cuts = sorted(rnd.uniform(0, total) for _ in range(parts - 1))
        chunks = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        chunks = [c for c in chunks if c > 0]
        sup = SupplyStream(inst.values, inst.budgets)
        cum_x = np.zeros(inst.n)
        cum_p = np.zeros(inst.n)
        for c in chunks:
            d = sup.on_supply(c)
            assert min(d.delta_x) >= 0.0 and min(d.delta_pay) >= 0.0
            cum_x += d.delta_x
            cum_p += d.delta_pay
        direct = solve(validate_instance(values=inst.values, budgets=inst.budgets,
                                         supply=sup.supply))
        for a, b in zip(cum_x, direct.allocation):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))
        for a, b in zip(cum_p, direct.payments):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


class TestMyersonIdentity:
    @pytest.mark.parametrize("values,budgets,supply", [
        ([9, 10, 11, 5.7], [3, 2, 1, 0.5], 1.0),
        ([1, 2], [3, 1], 2.0),
        ([4.2, 1.3, 2.6], [0.8, 1.5, 0.9], 2.5),
    ])
    def test_payment_equals_value_minus_allocation_integral(self, values, budgets,
                                                            supply):
        inst = validate_instance(values=values, budgets=budgets, supply=supply)
        for i in range(inst.n):
            assert myerson_gap(inst, i) <= 1e-4
