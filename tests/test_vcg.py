import numpy as np
import pytest

from clinch.core import OracleViolation
from clinch.vcg import (
    SubmodularOracle,
    capped_oracle,
    multiunit_oracle,
    oracle_from_table,
    vcg_capacity_demo,
    vcg_multiunit,
    vcg_polymatroid,
)


def coverage_oracle(n, rng, elements=8):
    """Random weighted-coverage capacity: monotone and submodular."""
    weights = rng.random(elements) * 3.0
    covers = [frozenset(np.flatnonzero(rng.random(elements) < 0.45).tolist())
              for _ in range(n)]

    def fn(subset):
        if not subset:
            return 0.0
        covered = frozenset().union(*(covers[i] for i in subset))
        return float(sum(weights[e] for e in covered))

    return SubmodularOracle(n, fn)


class TestMultiunit:
    def test_second_price(self):
        out = vcg_multiunit([1, 2], 1)
        assert out.allocation == (0.0, 1.0)
        assert out.payments == (0.0, 1.0)

    def test_no_competition(self):
        out = vcg_multiunit([2], 3)
        assert out.allocation == (3.0,)
        assert out.payments == (0.0,)

    def test_monotone_in_supply(self):
        lows = vcg_multiunit([3, 5, 1], 2)
        highs = vcg_multiunit([3, 5, 1], 4)
        assert all(a <= b for a, b in zip(lows.allocation, highs.allocation))
        assert all(a <= b for a, b in zip(lows.payments, highs.payments))

    def test_value_ties_break_by_index(self):
        out = vcg_multiunit([2, 2], 1)
        assert out.allocation == (1.0, 0.0)
        assert out.payments == (2.0, 0.0)


class TestPolymatroid:
    def test_hand_computed_two_player_case(self):
        oracle = SubmodularOracle(2, lambda s: min(2 * len(s), 3))
        out = vcg_polymatroid([3, 1], oracle)
        assert out.allocation == (2.0, 1.0)
        assert out.payments == (1.0, 0.0)

    def test_hand_case_agrees_with_grid_brute_force(self):
        oracle = SubmodularOracle(2, lambda s: min(2 * len(s), 3))
        values = [3.0, 1.0]
        grid = np.linspace(0, 3, 301)

        def best_welfare(active):
            best = 0.0
            for x1 in grid:
                for x2 in grid:
                    x = (x1 if 0 in active else 0.0, x2 if 1 in active else 0.0)
                    if (x[0] <= oracle.value(frozenset({0}))
                            and x[1] <= oracle.value(frozenset({1}))
                            and x[0] + x[1] <= oracle.value(frozenset({0, 1}))):
                        best = max(best, values[0] * x[0] + values[1] * x[1])
            return best

        out = vcg_polymatroid(values, oracle)
        welfare = sum(v * x for v, x in zip(values, out.allocation))
        assert abs(welfare - best_welfare({0, 1})) < 1e-9
        for i in range(2):
            others = {0, 1} - {i}
            others_at_outcome = welfare - values[i] * out.allocation[i]
            clarke = best_welfare(others) - others_at_outcome
            assert abs(out.payments[i] - clarke) < 1e-9

    def test_multiunit_reduction(self):
        values = [4.0, 9.0, 2.0]
        assert vcg_polymatroid(values, multiunit_oracle(3, 5.0)) == \
            vcg_multiunit(values, 5.0)

    def test_minkowski_sum_additivity(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            f, g = coverage_oracle(n, rng), coverage_oracle(n, rng)
            combined = SubmodularOracle(
                n, lambda s, f=f, g=g: f.fn(s) + g.fn(s))
            values = rng.random(n) * 8.0
            one, two = vcg_polymatroid(values, f), vcg_polymatroid(values, g)
            both = vcg_polymatroid(values, combined)
            for i in range(n):
                assert abs(one.allocation[i] + two.allocation[i]
                           - both.allocation[i]) <= 1e-9
                assert abs(one.payments[i] + two.payments[i]
                           - both.payments[i]) <= 1e-9

    def test_allocation_feasible_on_random_subsets(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            oracle = coverage_oracle(n, rng)
            out = vcg_polymatroid(rng.random(n) * 5.0, oracle)
            for _ in range(50):
                mask = rng.random(n) < 0.5
                subset = frozenset(np.flatnonzero(mask).tolist())
                inside = sum(out.allocation[i] for i in subset)
                assert inside <= oracle.value(subset) + 1e-9

    def test_naive_set_inclusion_is_not_monotone(self):
        # boxed capacities vs their loosened union: allocations move backwards,
        # the documented reason plain set inclusion cannot drive online supply
        boxed = SubmodularOracle(2, lambda s: 0 if not s else (2 if len(s) == 1 else 3))
        loose = SubmodularOracle(2, lambda s: 0 if not s else 4)
        a = vcg_polymatroid([3, 1], boxed)
        b = vcg_polymatroid([3, 1], loose)
        assert a.allocation == (2.0, 1.0)
        assert b.allocation == (4.0, 0.0)
        assert b.allocation[1] < a.allocation[1]


class TestOracleChecks:
    def test_exhaustive_check_passes_for_capped_family(self):
        capped_oracle(4, [1, 2, 1, 3], 5.0).check()

    def test_non_monotone_table_rejected(self):
        bad = oracle_from_table(2, {"0": 2, "1": 2, "0,1": 1})
        with pytest.raises(OracleViolation):
            bad.check()

    def test_not_submodular_rejected(self):
        bad = SubmodularOracle(3, lambda s: float(len(s) ** 2))
        with pytest.raises(OracleViolation):
            bad.check()

    # above 12 players the check samples seeded random triples
    def test_sampled_check_passes_for_capped_family(self):
        asked = set()

        def capped(sub):
            asked.add(sub)
            return min(20.0, float(sum(i + 1 for i in sub)))

        SubmodularOracle(13, capped).check()
        assert len(asked) > 200  # the triples were drawn, not skipped

    @pytest.mark.parametrize("fn, message", [
        (lambda s: float(len(s) ** 2), "not submodular at"),
        (lambda s: -float(len(s)), "not monotone at")])
    def test_sampled_check_rejects_violations(self, fn, message):
        with pytest.raises(OracleViolation, match=message):
            SubmodularOracle(13, fn).check()

    def test_empty_set_must_be_zero(self):
        with pytest.raises(OracleViolation):
            SubmodularOracle(2, lambda s: 1.0)

    def test_table_round_trip(self):
        oracle = oracle_from_table(2, {"0": 2, "1": 2, "0,1": 3})
        out = vcg_polymatroid([3, 1], oracle)
        assert out.allocation == (2.0, 1.0)


class TestCapacityDemo:
    def test_scarce_supply_charges_the_winner(self):
        out = vcg_capacity_demo([1, 2], [1, 1], 1)
        assert out.allocation == (0.0, 1.0)
        assert out.payments == (0.0, 1.0)

    def test_abundant_supply_collapses_payments_to_zero(self):
        out = vcg_capacity_demo([1, 2], [1, 1], 2)
        assert out.allocation == (1.0, 1.0)
        assert out.payments == (0.0, 0.0)

    def test_payment_non_monotonicity_witness(self):
        # allocation grows with supply but the winner's payment drops 1 -> 0:
        # the expected-failure fixture for charging on the fly under caps
        scarce = vcg_capacity_demo([1, 2], [1, 1], 1)
        abundant = vcg_capacity_demo([1, 2], [1, 1], 2)
        assert all(a <= b for a, b in
                   zip(scarce.allocation, abundant.allocation))
        assert abundant.payments[1] < scarce.payments[1]

    def test_zero_supply(self):
        out = vcg_capacity_demo([1, 2], [1, 1], 0)
        assert out.allocation == (0.0, 0.0)
        assert out.payments == (0.0, 0.0)
