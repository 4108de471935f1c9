import math

import numpy as np
import pytest
from hypothesis import given, settings

from clinch.core import (
    AuctionError,
    EVENT_CLINCH_ENTRY,
    EVENT_EXIT,
    EventSkipped,
    ZeroPrice,
    replace,
)
from clinch.engine import (
    evolve,
    initial_state,
    run_trace,
    solve,
    state_at,
    trace,
    wishful_allocation,
)
from clinch.checks import verify_trace
from clinch.core import validate_instance

from conftest import instances, outcome_close
from test_engine_reference import CORPORA

SHOWCASE = validate_instance(values=[9, 10, 11, 5.7], budgets=[3, 2, 1, 0.5],
                             supply=1)


class TestSolve:
    def test_low_supply_goes_to_high_value_player_at_vcg_price(self):
        out = solve(validate_instance(values=[1, 2], budgets=[3, 2], supply=1))
        assert out.allocation == (0.0, 1.0)
        assert out.payments == (0.0, 1.0)

    def test_high_value_rich_player_takes_all(self):
        out = solve(validate_instance(values=[5, 2], budgets=[3, 2], supply=0.5))
        assert out.allocation == (0.5, 0.0)
        assert out.payments == (1.0, 0.0)

    def test_log_priced_leftover_after_budget_depletion(self):
        out = solve(validate_instance(values=[1, 2], budgets=[3, 1], supply=2))
        assert out.allocation == (1.0, 1.0)
        assert abs(out.payments[0] - math.log(2)) < 1e-12
        assert out.payments[1] == 1.0

    def test_zero_supply_zero_outcome(self):
        out = solve(validate_instance(values=[4, 7, 2], budgets=[1, 1, 1], supply=0))
        assert out.allocation == (0.0, 0.0, 0.0)
        assert out.payments == (0.0, 0.0, 0.0)

    def test_full_allocation_on_showcase(self):
        out = solve(SHOWCASE)
        assert abs(sum(out.allocation) - 1.0) < 1e-9
        # the two late exiters end up paying their whole budgets
        assert abs(out.payments[1] - 2.0) < 1e-9
        assert abs(out.payments[2] - 1.0) < 1e-9
        assert out.allocation[3] == 0.0 and out.payments[3] == 0.0

    def test_single_bidder_takes_everything_for_free(self):
        out = solve(validate_instance(values=[2], budgets=[5], supply=3))
        assert out == type(out)((3.0,), (0.0,))
        tr = trace(validate_instance(values=[2], budgets=[5], supply=3))
        assert any("single-bidder" in note for note in tr.notes)

    def test_zero_value_players_get_and_pay_nothing(self):
        out = solve(validate_instance(values=[0, 2], budgets=[3, 2], supply=1))
        assert out.allocation == (0.0, 0.0)
        assert out.payments == (0.0, 0.0)

    def test_wide_budget_spread_neither_oversells_nor_overspends(self):
        # a clincher budget drifting a hair below zero used to give a negative
        # exit cap, a negative delta, and a remnant supply that grew
        rng = np.random.default_rng(9)
        n = 96
        values = rng.uniform(0.05, 5, n)
        budgets = np.exp(rng.uniform(0, math.log(500), n))
        supply = rng.uniform(100, 5000)
        inst = validate_instance(values=values, budgets=budgets, supply=supply)
        out = solve(inst)
        assert sum(out.allocation) <= supply * (1 + 1e-9)
        for pay, b in zip(out.payments, inst.budgets):
            assert pay <= b * (1 + 1e-9)

    def test_zero_budgets_stay_feasible(self):
        inst = validate_instance(values=[1, 2], budgets=[0, 0], supply=1)
        out = solve(inst)
        assert out.payments == (0.0, 0.0)
        assert out.allocation == (0.0, 0.0)


class TestTrace:
    def test_showcase_event_sequence(self):
        tr = trace(SHOWCASE)
        kinds = [(ev.kind, ev.players) for ev in tr.events]
        assert kinds == [(EVENT_CLINCH_ENTRY, (0,)), (EVENT_CLINCH_ENTRY, (1,)),
                         (EVENT_EXIT, (3,)), (EVENT_EXIT, (0,))]
        assert tr.events[0].price == 3.5
        assert abs(tr.events[1].price - 3.5 * math.exp(2 / 7)) < 1e-12 * 4.7
        assert tr.events[2].price == 5.7
        assert tr.events[3].price == 9.0

    def test_single_exit_when_entry_price_exceeds_low_value(self):
        tr = trace(validate_instance(values=[1, 2], budgets=[3, 2], supply=1))
        assert [ev.kind for ev in tr.events] == [EVENT_EXIT]
        ev = tr.events[0]
        assert ev.price == 1.0 and ev.players == (0,)  # the exiting player
        assert ev.delta_x == (0.0, 1.0)                # the survivor clinches
        assert ev.delta_pay == (0.0, 1.0)
        assert 1 in ev.after.clinching

    def test_entry_exit_tie_is_absorbed_into_the_exit(self):
        # entry price (3+2-3)/2 = 1 equals the low value: no entry event
        tr = trace(validate_instance(values=[1, 2], budgets=[3, 2], supply=2))
        assert [ev.kind for ev in tr.events] == [EVENT_EXIT]
        assert tr.outcome.allocation == (0.0, 2.0)
        assert tr.outcome.payments == (0.0, 2.0)

    def test_event_prices_increase_except_tied_exits(self):
        tr = trace(validate_instance(values=[2, 2, 5], budgets=[1, 1, 3], supply=1))
        prices = [ev.price for ev in tr.events]
        assert prices == sorted(prices)
        exits = [ev for ev in tr.events if ev.kind == EVENT_EXIT]
        assert [ev.players for ev in exits[:2]] == [(0,), (1,)]
        assert exits[0].price == exits[1].price == 2.0

    def test_solve_equals_trace_outcome_exactly(self):
        for inst in (SHOWCASE,
                     validate_instance(values=[1, 2], budgets=[3, 1], supply=2),
                     validate_instance(values=[2, 2, 5], budgets=[1, 1, 3], supply=1)):
            assert solve(inst) == trace(inst).outcome

    def test_run_trace_with_a_discarding_callback_returns_the_solve_outcome(self):
        for inst in (SHOWCASE,
                     validate_instance(values=[2, 2, 5], budgets=[1, 1, 3], supply=1),
                     validate_instance(values=[4], budgets=[1], supply=2)):
            final, outcome, notes = run_trace(inst, lambda ev: None)
            tr = trace(inst)
            assert outcome == solve(inst) == tr.outcome
            assert (final, notes) == (tr.final, tr.notes)


def _events_until_done_or_raised(inst) -> list:
    events = []
    try:
        run_trace(inst, events.append)
    except AuctionError:
        pass
    return events


def _entries_moved_elsewhere(prev, ev) -> set:
    """Row entries and set members that change from event `prev` to `ev`
    away from the clinchers after `ev` and the players of `ev`.  (The
    clinchers before `ev` are among those: a clincher leaves the clinching
    set only by exiting.)"""
    may_change = ev.after.clinching | set(ev.players)
    moved = set()
    for rows in ((prev.delta_x, ev.delta_x), (prev.delta_pay, ev.delta_pay),
                 (prev.after.allocation, ev.after.allocation),
                 (prev.after.budgets, ev.after.budgets)):
        moved.update(i for i, (a, b) in enumerate(zip(*rows)) if a is not b)
    moved |= prev.after.active ^ ev.after.active
    moved |= prev.after.clinching ^ ev.after.clinching
    return moved - may_change


@pytest.mark.parametrize("name", ["property-0", "wide-budgets", "stratified-0", "degenerate"])
def test_snapshots_change_only_at_clinchers_and_players(name):
    """`clinch trace` re-encodes a row entry only when its player clinches
    after the event or is one of its players: every other entry must be the
    same object as on the previous line, and every other player keep its
    membership of A and C."""
    pairs = 0
    for inst in CORPORA[name]():
        events = _events_until_done_or_raised(inst)
        for prev, ev in zip(events, events[1:]):
            assert not _entries_moved_elsewhere(prev, ev), (inst, prev, ev)
            pairs += 1
    assert pairs > 0


class TestNextEventPrice:
    # the engine has no separate next-event function: the price and kind of
    # the next event are read off the trace

    def test_showcase_first_entry(self):
        ev = trace(SHOWCASE).events[0]
        assert ev.price == 3.5 and ev.kind == EVENT_CLINCH_ENTRY

    def test_exit_wins_when_entry_too_late(self):
        tr = trace(validate_instance(values=[1, 2], budgets=[3, 2], supply=1))
        assert (tr.events[0].price, tr.events[0].kind) == (1.0, EVENT_EXIT)

    def test_everyone_clinching_means_next_exit(self):
        tr = trace(SHOWCASE)
        st = tr.events[2].after  # after the 5.7 exit: all actives clinch
        assert st.clinching == st.active
        ev = tr.events[3]
        assert ev.kind == EVENT_EXIT and ev.price == 9.0


class TestEvolve:
    def test_identity(self):
        st = trace(SHOWCASE).events[0].after
        assert evolve(st, st.price) == st

    def test_lone_clincher_supply_follows_inverse_price(self):
        st = trace(SHOWCASE).events[0].after
        for k in range(1, 21):
            p = 3.5 + k * (3.5 * math.exp(2 / 7) - 3.5) / 21
            ev = evolve(st, p)
            assert abs(ev.supply - 3.5 / p) <= 1e-9 * max(1.0, ev.supply)
            assert abs(ev.allocation[0] - (1 - 3.5 / p)) <= 1e-9

    def test_two_clinchers_supply_follows_inverse_square(self):
        tr = trace(SHOWCASE)
        st = tr.events[1].after
        p2 = st.price
        for p in (4.8, 5.0, 5.5, 5.7):
            ev = evolve(st, p)
            assert abs(ev.supply - 3.5 * p2 / p**2) <= 1e-9

    def test_skipping_an_exit_is_detected(self):
        st = trace(SHOWCASE).events[1].after
        with pytest.raises(EventSkipped):
            evolve(st, 6.0)  # value 5.7 lies inside

    def test_skipping_an_entry_is_detected(self):
        st = trace(SHOWCASE).events[0].after
        with pytest.raises(EventSkipped):
            evolve(st, 5.5)  # player 1 enters at ~4.657 inside


class TestExitStep:
    def test_direct_substitution(self):
        # the exit at price 1 hands the whole supply to the survivor at price 1
        tr = trace(validate_instance(values=[1, 2], budgets=[3, 2], supply=1))
        after = tr.events[0].after
        assert after.allocation == (0.0, 1.0)
        assert after.budgets == (3.0, 1.0)
        assert after.supply == 0.0
        assert 1 in after.clinching

    def test_snapshots_with_negative_budgets_are_accepted(self):
        # a zero-budget clincher's segment drives budgets below zero; snapshots
        # of such a trace are engine output and are not re-validated as user
        # input
        tr = trace(validate_instance(values=[3, 2, 1], budgets=[0, 1, 0], supply=2))
        assert evolve(tr.events[0].after, tr.events[1].price).budgets == (-0.5, -0.5, 0.0)
        ev = tr.events[1]
        assert (ev.kind, ev.price, ev.players) == (EVENT_EXIT, 2.0, (1,))
        # these after-state numbers pin the zero-budget defect of ROADMAP
        # item 1: the b->0+ limit would leave no budget below zero
        assert ev.after.allocation == (0.375, 1.375, 0.0)
        assert ev.after.budgets == (-0.5, -0.5, 0.0)
        assert ev.after.supply == 0.25
        assert ev.after.clinching == ev.after.active == frozenset({0})

    def test_tied_pair_removed_sequentially(self):
        tied = validate_instance(values=[2, 2, 5], budgets=[1, 1, 3], supply=1)
        out_tied = solve(tied)
        # splitting the tie by a tiny gap (lower index exits first) approaches it
        split = validate_instance(values=[2 - 1e-12, 2, 5], budgets=[1, 1, 3],
                                  supply=1)
        assert outcome_close(out_tied, solve(split), 1e-4)


class TestStateAt:
    # exits of players 0 and 1 at 2, an entry at 3 and an exit at 5
    TIED = validate_instance(values=[2, 2, 5, 6], budgets=[1, 1, 3, 3], supply=1)

    def test_before_the_first_event_is_the_initial_state(self):
        tr = trace(self.TIED)
        assert state_at(tr, 1.0) == replace(initial_state(self.TIED), price=1.0)

    def test_at_a_tied_exit_the_last_of_the_tied_events_counts(self):
        tr = trace(self.TIED)
        assert [ev.price for ev in tr.events] == [2.0, 2.0, 3.0, 5.0]
        assert tr.events[0].after != tr.events[1].after
        assert state_at(tr, 2.0) == tr.events[1].after

    def test_between_events_it_evolves_the_previous_after_state(self):
        tr = trace(self.TIED)
        st = state_at(tr, 4.0)
        assert st == evolve(tr.events[2].after, 4.0)
        assert st.price == 4.0 and st.supply < tr.events[2].after.supply

    def test_from_the_final_event_on_the_state_stays_frozen(self):
        tr = trace(self.TIED)
        assert state_at(tr, 5.0) == tr.final == tr.events[-1].after
        assert state_at(tr, 7.0) == replace(tr.final, price=7.0)

    @pytest.mark.parametrize("inst", [
        validate_instance(values=[3], budgets=[1], supply=2),
        validate_instance(values=[3, 4], budgets=[1, 2], supply=0),
    ])
    def test_a_trace_without_events_is_its_final_state(self, inst):
        tr = trace(inst)
        assert tr.events == ()
        assert state_at(tr, 0.5) == replace(tr.final, price=0.5)

    def test_negative_price_raises(self):
        with pytest.raises(ValueError):
            state_at(trace(self.TIED), -1.0)


class TestWishfulAllocation:
    def test_before_any_clinching_it_is_budget_over_price(self):
        st = state_at(trace(SHOWCASE), 2.0)
        psi = wishful_allocation(st)
        assert psi == tuple(b / 2.0 for b in SHOWCASE.budgets)

    def test_zero_price_raises(self):
        with pytest.raises(ZeroPrice):
            wishful_allocation(initial_state(SHOWCASE))

    def test_continuous_across_exit_events(self):
        tr = trace(SHOWCASE)
        for prev, ev in zip(tr.events, tr.events[1:]):  # the first is an entry
            if ev.kind == EVENT_EXIT:
                pre = wishful_allocation(evolve(prev.after, ev.price))
                post = wishful_allocation(ev.after)
                assert all(abs(a - b) <= 1e-9 * max(1.0, abs(a))
                           for a, b in zip(pre, post))

    def test_exhausted_budget_pins_wishful_to_allocation(self):
        tr = trace(SHOWCASE)
        psi = wishful_allocation(tr.final)
        for i in (1, 2):  # budgets fully spent
            assert abs(psi[i] - tr.final.allocation[i]) < 1e-9


class TestRepeatedValues:
    def test_perturbed_outcomes_approach_the_tied_outcome(self):
        tied = validate_instance(values=[3, 3, 7], budgets=[2, 1, 1], supply=1.5)
        base = solve(tied)
        gaps_to_diffs = {}
        for gap in (1e-3, 1e-6, 1e-9):
            split = validate_instance(values=[3 - gap, 3, 7], budgets=[2, 1, 1],
                                      supply=1.5)
            out = solve(split)
            gaps_to_diffs[gap] = max(
                abs(a - b) for a, b in zip(base.allocation + base.payments,
                                           out.allocation + out.payments))
        # differences shrink with the gap and the finest is inside tolerance
        assert gaps_to_diffs[1e-3] > gaps_to_diffs[1e-6] > gaps_to_diffs[1e-9]
        assert gaps_to_diffs[1e-6] <= 1e-4
        assert gaps_to_diffs[1e-9] <= 1e-4


class TestProperties:
    @given(instances())
    @settings(max_examples=60)
    def test_outcome_laws_and_trace_invariants(self, inst):
        tr = trace(inst)
        out = tr.outcome
        assert sum(out.allocation) <= inst.supply + 1e-9 * max(1.0, inst.supply)
        for i in range(inst.n):
            assert out.allocation[i] >= 0.0
            assert -1e-9 <= out.payments[i] <= inst.budgets[i] + 1e-9
            u = inst.values[i] * out.allocation[i] - out.payments[i]
            assert u >= -1e-9 * max(1.0, abs(u))
        assert solve(inst) == out
        assert verify_trace(tr) == []

    @given(instances(n_min=2, n_max=4))
    def test_all_positive_values_sell_out(self, inst):
        out = solve(inst)
        assert abs(sum(out.allocation) - inst.supply) <= 1e-9 * max(1.0, inst.supply)
