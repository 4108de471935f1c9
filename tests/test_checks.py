import pytest
from hypothesis import given, settings

from clinch import engine
from clinch.core import Outcome, validate_instance
from clinch.checks import (
    CorpusSpec,
    PropertyReport,
    check_budget,
    check_ic,
    check_ir,
    check_oracle_agreement,
    check_pareto,
    check_supply_monotonicity,
    merge_reports,
    misreport_grid,
    oracle_corpus,
    random_instances,
    stratified_two_player,
    verify_trace,
)

from conftest import instances

SHOWCASE = validate_instance(values=[9, 10, 11, 5.7], budgets=[3, 2, 1, 0.5],
                             supply=1)


class TestReportShape:
    def test_witness_present_iff_failed(self):
        with pytest.raises(ValueError):
            PropertyReport("x", "c", True, 0.0, witness={"a": 1})
        with pytest.raises(ValueError):
            PropertyReport("x", "c", False, 1.0, witness=None)

    def test_merge_keeps_first_witness_and_worst_violation(self):
        r1 = PropertyReport("p", "one", True, 0.25)
        r2 = PropertyReport("p", "one", False, 1.0, {"tag": "w2"})
        r3 = PropertyReport("p", "one", False, 2.0, {"tag": "w3"})
        merged = merge_reports("p", "corpus", [r1, r2, r3])
        assert not merged.passed
        assert merged.worst_violation == 2.0
        assert merged.witness == {"tag": "w2"}


class TestCorpora:
    def test_random_instances_respect_ranges(self):
        spec = CorpusSpec(count=50, n_min=2, n_max=5, v_max=7, b_min=0.5,
                          b_max=2.0, s_max=3.0, seed=9)
        for inst in random_instances(spec):
            assert 2 <= inst.n <= 5
            assert all(0 < v <= 7 for v in inst.values)
            assert all(0.5 < b <= 2.0 for b in inst.budgets)
            assert 0 < inst.supply <= 3.0

    def test_generation_is_seed_deterministic(self):
        a = random_instances(CorpusSpec(count=5, seed=3))
        b = random_instances(CorpusSpec(count=5, seed=3))
        assert a == b

    def test_stratified_two_player_covers_depths(self):
        import math
        insts = stratified_two_player(seed=0, count=120)
        assert len(insts) == 120
        depths = {0: 0, 1: 0, 2: 0}
        for inst in insts:
            b1, b2 = sorted(inst.budgets, reverse=True)
            spend = inst.supply * min(inst.values)
            knee = b2 * math.exp(b1 / b2 - 1)
            depths[0 if spend < b2 else (1 if spend < knee else 2)] += 1
        assert min(depths.values()) >= 120 // 6


class TestIncentives:
    def test_grid_contains_nudged_opponent_values(self):
        grid = misreport_grid(SHOWCASE, 0, points=10)
        assert len(grid) == 10 + 2 * 3
        assert any(abs(g - 5.7) < 1e-8 and g != 5.7 for g in grid)

    def test_truthful_engine_passes(self):
        rep = check_ic(SHOWCASE)
        assert rep.passed and rep.worst_violation <= 1e-6

    def test_corrupted_solver_caught(self):
        def rounding(inst):
            out = engine.solve(inst)
            return Outcome(tuple(round(x, 1) for x in out.allocation), out.payments)
        rep = check_ic(SHOWCASE, solver=rounding)
        assert not rep.passed
        assert rep.worst_violation > 1e-3
        assert rep.witness is not None and "misreport" in rep.witness


class TestRationalityAndBudget:
    @given(instances())
    def test_engine_outcomes_pass(self, inst):
        out = engine.solve(inst)
        assert check_ir(inst, out).passed
        assert check_budget(inst, out).passed

    def test_violations_are_caught(self):
        inst = validate_instance(values=[1, 1], budgets=[1, 1], supply=1)
        assert not check_ir(inst, Outcome((0.0, 0.0), (0.5, 0.0))).passed
        assert not check_budget(inst, Outcome((1.0, 0.0), (1.5, 0.0))).passed


class TestPareto:
    def test_engine_outcome_passes_both_checkers(self):
        rep = check_pareto(SHOWCASE, engine.solve(SHOWCASE))
        assert rep.passed
        assert rep.details == ("characterization: pass", "search: pass")

    def test_budget_slack_with_lower_value_holder_fails_both(self):
        inst = validate_instance(values=[3, 1], budgets=[10, 10], supply=1)
        rep = check_pareto(inst, Outcome((0.0, 1.0), (0.0, 0.0)))
        assert not rep.passed
        assert "characterization: fail" in rep.details[0]
        assert "search: fail" in rep.details[1]

    def test_unsold_supply_fails_both(self):
        inst = validate_instance(values=[3, 1], budgets=[10, 10], supply=1)
        rep = check_pareto(inst, Outcome((0.2, 0.2), (0.6, 0.2)))
        assert not rep.passed
        assert "unsold" in rep.details[0]
        assert "search: fail" in rep.details[1]

    @given(instances(n_min=2, n_max=4))
    @settings(max_examples=25)
    def test_checkers_agree_on_engine_outcomes(self, inst):
        rep = check_pareto(inst, engine.solve(inst), candidates=200)
        assert rep.passed, rep.details


class TestMonotonicity:
    def test_showcase_pairs_pass(self):
        rep = check_supply_monotonicity(SHOWCASE.values, SHOWCASE.budgets,
                                        [(0.5, 1.0), (1.0, 2.0), (0.1, 5.0)])
        assert rep.passed

    def test_equal_supplies_give_zero_deltas(self):
        rep = check_supply_monotonicity(SHOWCASE.values, SHOWCASE.budgets,
                                        [(1.0, 1.0)])
        assert rep.passed and rep.worst_violation <= 1e-12


class TestOracleAgreement:
    def test_small_corpus_passes(self):
        insts = random_instances(oracle_corpus(seed=23, count=15))
        rep = check_oracle_agreement(insts, h=1e-3)
        assert rep.passed, rep.details

    def test_absurd_tolerance_fails(self):
        insts = random_instances(oracle_corpus(seed=23, count=5))
        rep = check_oracle_agreement(insts, h=1e-3, tol=1e-18)
        assert not rep.passed


class TestTraceInvariants:
    def test_showcase_clean(self):
        assert verify_trace(engine.trace(SHOWCASE)) == []

    def test_random_corpus_clean(self):
        for inst in random_instances(CorpusSpec(count=60, n_min=2, n_max=8, seed=31)):
            assert verify_trace(engine.trace(inst), rtol=1e-8) == [], inst

    def test_tampered_trace_is_flagged(self):
        from dataclasses import replace
        tr = engine.trace(SHOWCASE)
        ev = tr.events[1]
        warped = replace(ev, after=replace(ev.after, supply=ev.after.supply + 0.1))
        broken = replace(tr, events=tr.events[:1] + (warped,) + tr.events[2:])
        assert verify_trace(broken) != []
