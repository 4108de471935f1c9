import math

import numpy as np
import pytest
from hypothesis import given, settings

import reference_pareto
from clinch import engine
from clinch.core import (
    AuctionError,
    EventSkipped,
    NonFinite,
    Outcome,
    PriceState,
    replace,
    validate_instance,
)
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
    _search_improvement,
    misreport_grid,
    oracle_corpus,
    property_corpus,
    random_instances,
    stratified_two_player,
)
from clinch.engine import misreport
from clinch.invariants import _segment_integrals, verify_trace

from conftest import instances

SHOWCASE = validate_instance(values=[9, 10, 11, 5.7], budgets=[3, 2, 1, 0.5],
                             supply=1)


class TestReportShape:
    def test_witness_present_iff_failed(self):
        assert PropertyReport("x", "c", 0.0).passed
        assert PropertyReport("x", "c", 0.0, witness=None).passed
        assert not PropertyReport("x", "c", 1.0, witness={"a": 1}).passed
        assert not PropertyReport("x", "c", 1.0, {}).passed  # an empty witness still fails
        # `passed` follows the witness and cannot be given
        with pytest.raises(TypeError):
            PropertyReport("x", "c", 0.0, passed=True)
        doc = PropertyReport("x", "c", 1.0, {"a": 1}).to_dict()
        assert list(doc.items()) == [
            ("property", "x"), ("corpus", "c"), ("passed", False), ("worst_violation", 1.0),
            ("witness", {"a": 1}), ("details", [])]

    def test_merge_keeps_first_witness_and_worst_violation(self):
        r1 = PropertyReport("p", "one", 0.25)
        r2 = PropertyReport("p", "one", 1.0, {"tag": "w2"})
        r3 = PropertyReport("p", "one", 2.0, {"tag": "w3"})
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

    @pytest.mark.parametrize("points", [-1, 0, 1])
    def test_grid_needs_both_ends(self, points):
        with pytest.raises(ValueError, match="points"):
            misreport_grid(SHOWCASE, 0, points=points)
        assert len(misreport_grid(SHOWCASE, 0, points=2)) == 2 + 2 * 3

    def test_misreport_keeps_the_validated_value_order(self):
        # ties between equal values keep index order, as in validation
        inst = validate_instance(values=[2, 1, 2, 0], budgets=[1, 3, 1, 2], supply=1)
        for i in range(inst.n):
            for report in (0.0, 1.0, 2.0, 3.0):
                values = list(inst.values)
                values[i] = report
                assert misreport(inst, i, report) == validate_instance(
                    values=values, budgets=inst.budgets, supply=inst.supply)

    @pytest.mark.parametrize("top", [1e308, 1e307])
    def test_overflowing_grid_is_reported_as_such(self, top):
        # 2 * 1e308 overflows; 2 * 1e307 does not, but 2e307 * k does for k >= 9
        inst = validate_instance(values=[top, 1.0], budgets=[1, 1], supply=1)
        with pytest.raises(NonFinite, match="misreport grid overflows"):
            check_ic(inst)

    def test_a_grid_that_fits_is_finite(self):
        inst = validate_instance(values=[1e306, 1.0], budgets=[1, 1], supply=1)
        for i in range(inst.n):
            assert all(math.isfinite(r) for r in misreport_grid(inst, i, points=50))

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


def _ic_or_error(inst, **kw):
    try:
        return check_ic(inst, **kw)
    except AuctionError as exc:
        return type(exc)


class TestIncentiveSweep:
    """`check_ic`'s default solver sweeps each grid with
    `engine.solve_misreports`; any other solver solves each report."""

    @staticmethod
    def _same_as_solving_each(corpus, **kw):
        wrapped = lambda inst: engine.solve(inst)
        for inst in corpus:
            for slack in (1e-6, 0.0):  # a zero slack fails on rounding: witnesses too
                assert _ic_or_error(inst, slack=slack, **kw) == _ic_or_error(
                    inst, solver=wrapped, slack=slack, **kw), inst

    @pytest.mark.parametrize("n", range(2, 9))
    def test_property_corpus(self, n):
        self._same_as_solving_each(
            random_instances(CorpusSpec(count=6, n_min=n, n_max=n, seed=40 + n)))

    def test_ties_and_zeros(self):
        rng = np.random.default_rng(3)
        corpus = [validate_instance(values=rng.integers(0, 7, n) / 2,
                                    budgets=rng.integers(0, 7, n) / 2,
                                    supply=rng.integers(0, 7) / 2)
                  for n in rng.integers(1, 6, 120)]
        raising = [inst for inst in corpus if isinstance(_ic_or_error(inst, points=20), type)]
        assert raising  # some misreport overdraws: the sweep raises as solving does
        self._same_as_solving_each(corpus, points=20)

    def test_a_failing_sweep_solves_each_report(self, monkeypatch):
        def broken(inst, player, reports):
            raise ZeroDivisionError
        monkeypatch.setattr(engine, "solve_misreports", broken)
        assert check_ic(SHOWCASE) == check_ic(SHOWCASE, solver=lambda i: engine.solve(i))


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


def _floats_repr(obj):
    """`repr` of every float inside a (gain, witness) result, so that -0.0
    and 0.0, or two floats that compare equal, cannot pass for each other."""
    if isinstance(obj, dict):
        return {k: _floats_repr(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_floats_repr(v) for v in obj]
    return repr(obj)


def _lowest_value_holds_all(inst):
    """All supply to the lowest-value bidder, for nothing."""
    low = min(range(inst.n), key=inst.values.__getitem__)
    x = [0.0] * inst.n
    x[low] = inst.supply
    return Outcome(tuple(x), (0.0,) * inst.n)


def _edge_cases():
    one = validate_instance(values=[2.0], budgets=[1.0], supply=3.0)
    zero_values = validate_instance(values=[0.0, 0.0, 0.0], budgets=[1, 2, 3], supply=2)
    zero_supply = validate_instance(values=[3.0, 1.0], budgets=[1.0, 1.0], supply=0.0)
    no_pair = validate_instance(values=[4.0, 4.0, 1.0], budgets=[1, 1, 1], supply=2)
    tied = validate_instance(values=[2.0, 5.0, 5.0, 5.0], budgets=[1, 1, 1, 1], supply=1)
    cases = [(one, engine.solve(one)), (one, Outcome((1.0,), (0.0,))),
             (zero_values, engine.solve(zero_values)),
             (zero_values, _lowest_value_holds_all(zero_values)),
             (zero_supply, engine.solve(zero_supply)),
             # the holders of goods have the top value: no trade pair
             (no_pair, Outcome((1.0, 0.5, 0.0), (0.5, 0.0, 0.0))),
             # equal-value sellers tie on the gain of selling the unsold unit
             (tied, Outcome((0.0,) * 4, (0.0,) * 4)),
             (tied, Outcome((0.5, 0.0, 0.0, 0.0), (0.0,) * 4))]
    for inst in random_instances(property_corpus(5, 10)):
        cases += [(inst, engine.solve(inst)), (inst, _lowest_value_holds_all(inst))]
    return cases


def test_array_search_matches_the_per_candidate_loop():
    # one generator across every call, as `clinch check` shares one across
    # its corpus: a draw taken out of order shifts every later candidate
    insts = random_instances(property_corpus(0, 300))
    outcomes = [engine.solve(inst) for inst in insts]
    # 200 candidates a call keep the frozen loop's share of the suite small
    calls = [(inst, out, 200) for inst, out in zip(insts, outcomes)]
    calls += [(inst, Outcome(tuple(x / 2 for x in out.allocation), out.payments), 200)
              for inst, out in zip(insts, outcomes)]
    calls += [(inst, _lowest_value_holds_all(inst), 200) for inst in insts]
    calls += [(inst, out, k) for inst, out in _edge_cases() for k in (0, 1, 7, 1000)]
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    kinds = set()
    for inst, out, k in calls:
        got = _search_improvement(inst, out, rng, k)
        want = reference_pareto.search_improvement(inst, out, ref_rng, k)
        assert got == want, (inst, out, k)
        assert _floats_repr(got) == _floats_repr(want), (inst, out, k)
        assert rng.bit_generator.state == ref_rng.bit_generator.state, (inst, out, k)
        if want[1] is not None:
            kinds.add(want[1]["kind"])
    assert kinds == {"sell unsold supply", "pairwise trade with compensation",
                     "random perturbation"}


class TestMonotonicity:
    def test_showcase_pairs_pass(self):
        rep = check_supply_monotonicity(SHOWCASE.values, SHOWCASE.budgets,
                                        [(0.5, 1.0), (1.0, 2.0), (0.1, 5.0)])
        assert rep.passed

    def test_equal_supplies_give_zero_deltas(self):
        rep = check_supply_monotonicity(SHOWCASE.values, SHOWCASE.budgets,
                                        [(1.0, 1.0)])
        assert rep.passed and rep.worst_violation <= 1e-12

    def test_a_pair_in_either_order_gives_the_same_report(self):
        # a zero slack fails on a rounding-level drop, so the witness, which
        # names the pair low end first, is compared too
        pairs = [(0.5, 1.0), (0.1, 5.0)]
        rep = check_supply_monotonicity(SHOWCASE.values, SHOWCASE.budgets, pairs,
                                        slack=0.0)
        swapped = check_supply_monotonicity(SHOWCASE.values, SHOWCASE.budgets,
                                            [(hi, lo) for lo, hi in pairs], slack=0.0)
        assert swapped == rep and rep.witness["pair"] == [0.1, 5.0]


def _state_at_monotonicity(values, budgets, supply_pairs, slack=1e-8):
    """The supply-monotonicity check as it was written before the one-pass
    walk: two traces per pair and `state_at` at every shared price."""
    worst, witness = 0.0, None
    for s_lo, s_hi in supply_pairs:
        if s_lo > s_hi:
            s_lo, s_hi = s_hi, s_lo
        lo = validate_instance(values=values, budgets=budgets, supply=s_lo)
        hi = validate_instance(values=values, budgets=budgets, supply=s_hi)
        tr_lo, tr_hi = engine.trace(lo), engine.trace(hi)
        out_lo, out_hi = tr_lo.outcome, tr_hi.outcome
        for i in range(lo.n):
            drops = (
                (out_lo.allocation[i] - out_hi.allocation[i], "allocation"),
                (out_lo.payments[i] - out_hi.payments[i], "payment"),
                ((lo.values[i] * out_lo.allocation[i] - out_lo.payments[i])
                 - (hi.values[i] * out_hi.allocation[i] - out_hi.payments[i]), "utility"))
            for drop, what in drops:
                if drop > worst:
                    worst = drop
                    if drop > slack:
                        witness = dict(values=list(lo.values), budgets=list(lo.budgets),
                                       supply=lo.supply, player=i, quantity=what,
                                       pair=[s_lo, s_hi])
        prices = sorted({ev.price for ev in tr_lo.events + tr_hi.events if ev.price > 0.0})
        for p in prices:
            psi_lo = engine.wishful_allocation(engine.state_at(tr_lo, p))
            psi_hi = engine.wishful_allocation(engine.state_at(tr_hi, p))
            for i in range(lo.n):
                drop = psi_lo[i] - psi_hi[i]
                if drop > worst:
                    worst = drop
                    if drop > slack:
                        witness = dict(values=list(lo.values), budgets=list(lo.budgets),
                                       supply=lo.supply, player=i,
                                       quantity="wishful allocation", price=p,
                                       pair=[s_lo, s_hi])
    return PropertyReport("supply-monotonicity", "single value/budget profile",
                          worst, witness)


def _monotone_or_error(check, inst, pairs, **kw):
    try:
        return check(inst.values, inst.budgets, pairs, **kw)
    except AuctionError as exc:
        return type(exc)


class TestMonotonicityWalk:
    """One trace per supply and one walk per trace give the report, witness
    included, that `state_at` at every price gives."""

    @staticmethod
    def _pairs(inst, rng):
        s = inst.supply
        return [
            [(s * rng.random(), s) for _ in range(3)],    # a repeated upper supply
            [(s, s * rng.random()), (s * 0.5, s * 2.0)],  # either order
            [(s, s), (0.0, s), (s * 0.25, s * 0.25)],     # equal supplies
        ]

    @pytest.mark.parametrize("corpus", ["property", "ties-and-zeros"])
    def test_equal_to_the_state_at_composition(self, corpus):
        rng = np.random.default_rng(8)
        if corpus == "property":
            insts = random_instances(CorpusSpec(count=60, seed=8))
        else:
            insts = [validate_instance(values=rng.integers(0, 7, n) / 2,
                                       budgets=rng.integers(0, 7, n) / 2,
                                       supply=rng.integers(1, 7) / 2)
                     for n in rng.integers(1, 7, 150)]
        failed = 0
        for inst in insts:
            for pairs in self._pairs(inst, rng):
                for slack in (1e-8, 0.0):
                    got = _monotone_or_error(check_supply_monotonicity, inst, pairs,
                                             slack=slack)
                    assert got == _monotone_or_error(_state_at_monotonicity, inst, pairs,
                                                     slack=slack), (inst, pairs)
                    failed += not isinstance(got, type) and not got.passed
        assert failed  # the zero slack fails on rounding, so witnesses are compared

    def test_each_supply_is_traced_once(self, monkeypatch):
        traced = []
        real = engine.trace
        monkeypatch.setattr(engine, "trace", lambda inst: traced.append(inst.supply)
                            or real(inst))
        check_supply_monotonicity(SHOWCASE.values, SHOWCASE.budgets,
                                  [(0.3, 1.0), (1.0, 0.6), (0.9, 1.0), (1.0, 1.0)])
        assert traced == [0.3, 1.0, 0.6, 0.9]

    def test_a_trace_state_at_refuses_is_refused(self, monkeypatch):
        # without its second entry, at 4.66, the SHOWCASE trace at supply 1
        # lets B* fall below player 1's budget before the next event, and
        # supply 1.2 has an entry at 5.43 in between
        real = engine.trace

        def without_second_entry(inst):
            tr = real(inst)
            return replace(tr, events=tr.events[:1] + tr.events[2:])

        monkeypatch.setattr(engine, "trace", without_second_entry)
        pairs = [(1.0, 1.2)]
        with pytest.raises(EventSkipped):
            _state_at_monotonicity(SHOWCASE.values, SHOWCASE.budgets, pairs)
        with pytest.raises(EventSkipped):
            check_supply_monotonicity(SHOWCASE.values, SHOWCASE.budgets, pairs)


class TestOracleAgreement:
    def test_small_corpus_passes(self):
        insts = random_instances(oracle_corpus(seed=23, count=15))
        rep = check_oracle_agreement(insts, h=1e-3)
        assert rep.passed, rep.details

    def test_absurd_tolerance_fails(self):
        insts = random_instances(oracle_corpus(seed=23, count=5))
        rep = check_oracle_agreement(insts, h=1e-3, slack=1e-18)
        assert not rep.passed

    def test_an_error_that_does_not_shrink_fails_convergence(self, monkeypatch):
        # the same small error at h and at h/2: agreement holds, but the
        # mean error shrinks by a ratio of exactly 1, not the required 1.5
        def off_by_a_constant(inst, h):
            out = engine.solve(inst)
            return Outcome(tuple(x + 1e-4 for x in out.allocation), out.payments)

        monkeypatch.setattr("clinch.oracle.solve_euler", off_by_a_constant)
        rep = check_oracle_agreement(random_instances(oracle_corpus(seed=23, count=5)),
                                     h=1e-3)
        assert not rep.passed
        assert rep.witness == {"convergence_ratio": 1.0, "required": 1.5}
        assert rep.worst_violation == 0.5


def _bumped(row, i, by):
    return row[:i] + (row[i] + by,) + row[i + 1:]


TIED = validate_instance(values=[2, 2, 5], budgets=[1, 1, 3], supply=1)

# name -> (instance, event index, event fields, after-state fields, message),
# each field given as a function of the untampered event or after-state, and
# the message a fragment of the law that the tampering breaks.  The SHOWCASE
# events are entries at 3.5 and 4.66 and exits at 5.7 and 9; the TIED events
# are exits of players 0 and 1 at 2.
TAMPERINGS = {
    "supply": (SHOWCASE, 1, {}, {"supply": lambda st: st.supply + 0.1},
               "supply identity"),
    "exited-first": (TIED, 0, {}, {"active": lambda st: st.active | {0}},
                     "active set [0, 1, 2] != expected [1, 2]"),
    "exited-final": (TIED, 1, {}, {"active": lambda st: st.active | {1}},
                     "active set [1, 2] != expected [2]"),
    "showcase-exit": (SHOWCASE, 2, {}, {"active": lambda st: st.active | {3}},
                      "active set [0, 1, 2, 3] != expected [0, 1, 2]"),
    "price-shift": (SHOWCASE, 0, {"price": lambda ev: 5.0}, {"price": lambda st: 5.0},
                    "cannot evolve backwards"),
    "entry-price": (SHOWCASE, 0, {"price": lambda ev: 0.9 * ev.price}, {},
                    "state price 3.5 != event price 3.15"),
    "extra-pay": (SHOWCASE, 2, {"delta_pay": lambda ev: _bumped(ev.delta_pay, 0, 0.1)}, {},
                  "money paid"),
    "no-clinchers": (SHOWCASE, 1, {}, {"clinching": lambda st: frozenset()},
                     "player 0 left the clinching set early"),
    "raised-budget": (SHOWCASE, 1, {}, {"budgets": lambda st: _bumped(st.budgets, 2, 0.5)},
                      "budget of 2 increased"),
    "active-bound": (SHOWCASE, 0, {}, {"active": lambda st: st.active - {0}},
                     "active set [1, 2, 3] not between [0, 1, 2, 3]"),
    "clinching-equality": (SHOWCASE, 1, {}, {"clinching": lambda st: st.clinching | {2}},
                           "clinching set [0, 1, 2] != max-budget actives [0, 1]"),
    # player 1, at its exit value, may stay out of the settled set, not join a
    # set that player 2's larger budget owns
    "clinching-subset": (TIED, 0, {}, {"clinching": lambda st: st.clinching | {1}},
                         "clinching set [1, 2] not within max-budget actives [2]"),
    "clinching-outside-active": (SHOWCASE, 2, {}, {"clinching": lambda st: st.clinching | {3}},
                                 "clinching set not a subset of active set"),
    "allocation-drop": (SHOWCASE, 2, {}, {"allocation": lambda st: _bumped(st.allocation, 0, -0.1)},
                        "after exit@5.7: allocation of 0 decreased"),
}


def _composite_rule(f, p0: float, p1: float, panels: int = 20000) -> float:
    """Composite Simpson rule for the integral over r in [p0, p1] of a
    function given as f(t), t = ln(r/p0), so that dr = r dt."""
    span = math.log1p((p1 - p0) / p0)
    t = np.linspace(0.0, span, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return math.fsum(w * f(t) * p0 * np.exp(t)) * span / (3 * panels)


class TestSegmentIntegrals:
    @pytest.mark.parametrize("k", [0, 1, 2, 7])
    @pytest.mark.parametrize("ratio", [1 + 1e-6, 1.01, 2.0, 1e3])
    def test_matches_a_composite_rule(self, k, ratio):
        p0, bstar = 1.5, 2.0
        # supply at which the clinchers' budgets fall to about 0.1 B* at 1e3 p0
        s0 = 0.9 * bstar / p0 * (1.0 / math.log(1e3) if k == 1 else max(k - 1, 1))
        budgets = (bstar,) * k + (1.2, 0.7, 0.0)
        n = len(budgets)
        start = PriceState(p0, (0.0,) * n, budgets, s0, frozenset(range(n)),
                           frozenset(range(k)), (1e4,) * n)
        p1 = p0 * ratio
        drops, money = _segment_integrals(start, p1)

        def budget(i, t):  # B_i along the segment, at r = p0 e^t
            if i >= k:
                return np.full(t.shape, budgets[i])
            if k == 1:
                return bstar - p0 * s0 * t
            return bstar + p0 * s0 / (k - 1) * np.expm1(-(k - 1) * t)

        for i in range(n):
            want = _composite_rule(lambda t: budget(i, t) / (p0 * np.exp(t)) ** 2, p0, p1)
            assert drops[i] == pytest.approx(want, rel=1e-10, abs=0.0), i
        # money: r * (-dS/dr) with S = s0 (p0/r)^k
        want = _composite_rule(lambda t: k * s0 * np.exp(-k * t), p0, p1)
        assert money == pytest.approx(want, rel=1e-10, abs=0.0)


class TestTraceInvariants:
    def test_showcase_clean(self):
        assert verify_trace(engine.trace(SHOWCASE)) == []

    def test_random_corpus_clean(self):
        for inst in random_instances(CorpusSpec(count=60, n_min=2, n_max=8, seed=31)):
            assert verify_trace(engine.trace(inst)) == [], inst

    @pytest.mark.parametrize("case", list(TAMPERINGS))
    def test_tampered_trace_is_flagged(self, case):
        inst, k, event_fields, after_fields, message = TAMPERINGS[case]
        tr = engine.trace(inst)
        ev = tr.events[k]
        after = replace(ev.after, **{f: make(ev.after) for f, make in after_fields.items()})
        warped = replace(ev, after=after, **{f: make(ev) for f, make in event_fields.items()})
        assert warped != ev
        broken = replace(tr, events=tr.events[:k] + (warped,) + tr.events[k + 1:])
        bad = verify_trace(broken)
        assert any(message in msg for msg in bad), bad

    def test_short_final_allocation_is_flagged(self):
        tr = engine.trace(SHOWCASE)
        short = Outcome(_bumped(tr.outcome.allocation, 0, -0.25), tr.outcome.payments)
        assert verify_trace(replace(tr, outcome=short)) == [
            "final allocation sums to 0.75, supply is 1.0"]

    def test_wrong_wishful_decrement_is_flagged(self, monkeypatch):
        # a trace's snapshots cannot break this law alone: the left limits are
        # evolved by the engine's closed form, which the law checks against
        # the integral of B/price^2.  So the closed form over-credits here.
        tr = engine.trace(SHOWCASE)
        segment = engine._segment

        def generous(p, p_new, S, k):
            s_new, gain, db = segment(p, p_new, S, k)
            return s_new, 1.5 * gain, db

        monkeypatch.setattr(engine, "_segment", generous)
        bad = verify_trace(tr)
        assert any(msg.startswith("segment from p=3.5: wishful decrement of 0 is ")
                   for msg in bad), bad

    @pytest.mark.parametrize("values, supply, unsold", [
        ([2.0], 1.0, ["final allocation sums to 0.0, supply is 1.0"]),
        ([1.0, 2.0], 0.0, []),
    ])
    def test_one_player_or_no_events_still_sells_the_supply(self, values, supply,
                                                             unsold):
        inst = validate_instance(values=values, budgets=[1.0] * len(values),
                                 supply=supply)
        tr = engine.trace(inst)
        assert len(values) == 1 or tr.events == ()
        assert verify_trace(tr) == []
        assert verify_trace(replace(tr, outcome=Outcome.zero(len(values)))) == unsold
