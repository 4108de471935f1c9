"""Trace invariants and the Myerson payment identity.

The laws that tests and scripts hold the engine to, which no `clinch check`
property runs: `check_price_state`, the structural laws of one snapshot,
`verify_trace`, every law along one trace, and `myerson_gap`, the payment
identity of one player.  They live apart from `clinch.checks` so that a
`clinch check` process does not compile them.
"""
from __future__ import annotations

import math
from typing import Sequence

from . import engine
from .core import (
    EVENT_EXIT,
    AuctionError,
    EventTrace,
    PriceState,
    ValidatedInstance,
    validate_instance,
)
from .engine import wishful_allocation

# where `verify_trace` samples the snapshot laws inside each clinching
# segment: np.linspace(0.15, 0.85, 5), written out
_INTERIOR = [0.15, 0.32499999999999996, 0.5, 0.6749999999999999, 0.85]
TRACE_REL = 1e-8  # every trace law's relative slack, times max(1, |x|, ...)
QUAD_TOL = 1e-6  # the error bound of `myerson_gap`'s adaptive Simpson rule


def _segment_integrals(start: PriceState, p1: float) -> tuple[list[float], float]:
    """Exact integrals along the closed-form segment from `start` to p1 > 0:
    each player's integral of B_i(r)/r^2 over [p0, p1] (its wishful
    decrement) and the money spent, the integral of r * (-dS/dr).

    With q = p0/p1 and span = 1/p0 - 1/p1, every player gets B_i * span.  A
    clincher's budget falls like B_i - p0*S0*ln(r/p0) for k = 1, which adds
    S0*(q*(1 - ln q) - 1), and like B_i + c*((p0/r)^(k-1) - 1) for k > 1,
    c = p0*S0/(k-1), which adds c*((1 - q^k)/(k*p0) - span).  The money is
    p0*S0*(-ln q) for k = 1 and k*c*(1 - q^(k-1)) for k > 1.  They are
    written through d = p1 - p0, log1p and expm1, so that a short segment
    keeps its relative accuracy.
    """
    p0, S0, k = start.price, start.supply, len(start.clinching)
    d = p1 - p0
    span = d / (p0 * p1)
    drops = [b * span for b in start.budgets]
    if not k:
        return drops, 0.0
    log_ratio = math.log1p(d / p0)  # -ln q
    if k == 1:
        extra = S0 * (p0 / p1 * log_ratio - d / p1)
        money = p0 * S0 * log_ratio
    else:
        c = p0 * S0 / (k - 1)
        extra = c / p0 * (-math.expm1(-k * log_ratio) / k - d / p1)
        money = k * c * -math.expm1(-(k - 1) * log_ratio)
    for i in start.clinching:
        drops[i] += extra
    return drops, money


def _near(a: float, b: float) -> bool:
    """a and b agree within `TRACE_REL` * max(1, |a|, |b|)."""
    return abs(a - b) <= TRACE_REL * max(1.0, abs(a), abs(b))


def check_price_state(state: PriceState, initial_budgets: Sequence[float],
                      total_supply: float, clinching_subset: bool = False) -> list[str]:
    """Return violation messages for the structural snapshot invariants.

    Checks, within the slack `TRACE_REL` * max(1, |a|, |b|) for compared
    quantities a and b: the remnant-supply identity, the active set bounds
    {i: v_i > p} <= A <= {i: v_i >= p, v_i > 0} (players with
    v_i = p are still active at the left limit of their exit and between
    the removals of a tied group), the supply inequality for every active
    player, the remaining-budget profile min{B_i(0), B_*} and, when the
    clinching set is non-empty, that it is exactly the set of active
    max-budget players.

    `clinching_subset` relaxes the last law to a subset check: at the left
    limit of an entry price the joining player already holds the maximum
    budget but enters the (right-continuous) set only at the price itself,
    and a tied group's exits settle the set only after the last removal.
    """
    bad: list[str] = []
    p, n, values = state.price, state.n, state.values
    if not _near(state.supply, total_supply - sum(state.allocation)):
        bad.append(f"supply identity: S={state.supply} vs s-sum(x)={total_supply - sum(state.allocation)}")
    must = frozenset(i for i in range(n) if values[i] > p)
    may = frozenset(i for i in range(n) if values[i] >= p and values[i] > 0.0)
    if not must <= state.active <= may:
        bad.append(f"active set {sorted(state.active)} not between {sorted(must)} "
                   f"and {sorted(may)}")
    if p > 0.0:
        total = sum(state.budgets[j] for j in state.active)
        for i in state.active:
            others = (total - state.budgets[i]) / p
            band = TRACE_REL * max(1.0, abs(state.supply), abs(others))
            if not state.supply <= others + band:
                bad.append(f"supply inequality fails for player {i}: S={state.supply} > {others}")
    bstar = state.max_budget()
    for i in state.active:
        want = min(initial_budgets[i], bstar)
        if not _near(state.budgets[i], want):
            bad.append(f"budget profile: B_{i}={state.budgets[i]} != min(B0, B*)={want}")
    if state.clinching:
        tied = frozenset(i for i in state.active if _near(state.budgets[i], bstar))
        if clinching_subset:
            if not state.clinching <= tied:
                bad.append(f"clinching set {sorted(state.clinching)} not within "
                           f"max-budget actives {sorted(tied)}")
        elif state.clinching != tied:
            bad.append(f"clinching set {sorted(state.clinching)} != max-budget actives {sorted(tied)}")
        if not state.clinching <= state.active:
            bad.append("clinching set not a subset of active set")
    return bad


def verify_trace(tr: EventTrace) -> list[str]:
    """Violation messages for every structural law along one trace, each
    within the slack `TRACE_REL` * max(1, |x|).

    When every value is positive, the final allocation must sum to the
    supply.  A trace with one player or no events has no further law.

    One pass over the events: the state after the previous event (or the
    initial state) is evolved once to the event's price.  The segment up to
    that left limit is checked at five interior prices and against two
    integral laws, both in closed form (see `_segment_integrals`): the
    wishful decrement equals the integral of B/price^2, and the money paid
    so far equals the price-weighted integral of sold supply.  The left
    limit and the state after the event are visited in turn (see `visit`);
    the state after an event is at the event's price; the wishful allocation
    is continuous across an exit; an exit takes its players out of the
    active set and an entry leaves it as it was.  An event that the previous
    state cannot be evolved to is reported, and the pass goes on from the
    state recorded after it.
    """
    bad: list[str] = []
    inst = validate_instance(values=tr.values, budgets=tr.budgets, supply=tr.supply)
    if all(v > 0.0 for v in tr.values):  # full allocation
        total = sum(tr.outcome.allocation)
        if abs(total - tr.supply) > TRACE_REL * max(1.0, tr.supply):
            bad.append(f"final allocation sums to {total}, supply is {tr.supply}")
    if inst.n == 1 or not tr.events:
        return bad
    values = tr.values

    def laws(st: PriceState, label: str, clinching_subset: bool = False) -> None:
        for msg in check_price_state(st, tr.budgets, tr.supply, clinching_subset):
            bad.append(f"{label}: {msg}")

    def visit(st: PriceState, label: str, clinching_subset: bool = False) -> None:
        """The snapshot laws at `st`, then monotonicity, clinching persistence
        and the wishful allocation against the last visited state."""
        nonlocal last
        laws(st, label, clinching_subset)
        for i in range(inst.n):
            if st.allocation[i] < last.allocation[i] - TRACE_REL:
                bad.append(f"{label}: allocation of {i} decreased")
            b = st.budgets[i]
            if b > last.budgets[i] + TRACE_REL * max(1.0, abs(b)):
                bad.append(f"{label}: budget of {i} increased")
        for i in last.clinching - st.clinching:
            if values[i] > st.price:
                bad.append(f"{label}: player {i} left the clinching set early")
        if st.price > 0.0 and last.price > 0.0:
            psi, psi_last = wishful_allocation(st), wishful_allocation(last)
            for i in range(inst.n):
                if psi[i] > psi_last[i] + TRACE_REL * max(1.0, abs(psi[i])):
                    bad.append(f"{label}: wishful allocation of {i} increased")
        last = st

    def segment(start: PriceState, end: PriceState) -> float:
        """Check the segment from `start` to its evolved `end`; return the
        money its clinching collected."""
        p0, p1 = start.price, end.price
        if p1 <= p0:
            return 0.0
        if start.clinching:
            for frac in _INTERIOR:
                p = p0 + frac * (p1 - p0)
                laws(engine.evolve(start, p), f"inside segment at p={p:g}")
        if p0 <= 0.0:  # no clinchers here: evolving them from 0 raises ZeroPrice
            return 0.0
        drops, money = _segment_integrals(start, p1)
        psi0, psi1 = wishful_allocation(start), wishful_allocation(end)
        for i, drop in enumerate(drops):
            if abs((psi0[i] - psi1[i]) - drop) > TRACE_REL * max(1.0, abs(psi0[i])):
                bad.append(f"segment from p={p0:g}: wishful decrement of "
                           f"{i} is {psi0[i] - psi1[i]}, integral gives {drop}")
        return money

    prev = last = engine.initial_state(inst)
    visit(prev, "initial")
    collected = 0.0
    for ev in tr.events:
        at, after = f"{ev.kind}@{ev.price:g}", ev.after
        total_paid = sum(b0 - b for b0, b in zip(tr.budgets, after.budgets))
        try:
            left = engine.evolve(prev, ev.price)
            sold = segment(prev, left)
        except (AuctionError, ValueError) as exc:
            bad.append(f"before {at}: the previous state does not evolve to the "
                       f"event: {exc}")
            collected = total_paid
        else:
            visit(left, f"before {at}", True)
            if ev.kind == EVENT_EXIT and ev.price > 0.0:
                pre, post = wishful_allocation(left), wishful_allocation(after)
                for i in range(inst.n):
                    if abs(pre[i] - post[i]) > TRACE_REL * max(1.0, abs(pre[i])):
                        bad.append(f"exit@{ev.price:g}: wishful allocation of {i} "
                                   f"jumped by {post[i] - pre[i]}")
            collected = collected + sold + sum(ev.delta_pay)
            if abs(total_paid - collected) > TRACE_REL * max(1.0, abs(collected)):
                bad.append(f"after {at}: money paid {total_paid} != "
                           f"price-weighted sales {collected}")
        if after.price != ev.price:
            bad.append(f"after {at}: state price {after.price} != event price "
                       f"{ev.price}")
        visit(after, f"after {at}", any(values[i] <= ev.price for i in after.active))
        want = prev.active - set(ev.players) if ev.kind == EVENT_EXIT else prev.active
        if after.active != want:
            bad.append(f"after {at}: active set {sorted(after.active)} != expected "
                       f"{sorted(want)}")
        prev = after
    return bad


# ---------------------------------------------------------------------------
# Myerson payment identity

def _adaptive_simpson(f, a: float, b: float, fa: float, fm: float, fb: float,
                      tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, tol / 2.0, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, tol / 2.0, depth - 1))


def myerson_gap(inst: ValidatedInstance, player: int) -> float:
    """|pay_i - (v_i x_i - integral of x_i over reports in [0, v_i])|.

    The allocation curve jumps only at opponent values but has steep knees
    inside the pieces (where a budget starts or stops binding as the
    report moves), so the re-solved allocation is integrated by adaptive
    Simpson between opponent values.
    """
    v_i = inst.values[player]
    out = engine.solve(inst)
    breaks = sorted({0.0, v_i, *(v for j, v in enumerate(inst.values)
                                 if j != player and 0.0 < v < v_i)})

    def x_of(u: float) -> float:
        vals = list(inst.values)
        vals[player] = float(u)
        dev = engine.solve(validate_instance(values=vals, budgets=inst.budgets,
                                             supply=inst.supply))
        return dev.allocation[player]

    integral = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        nudge = 1e-12 * (hi - lo)
        integral += _adaptive_simpson(x_of, lo, hi, x_of(lo + nudge),
                                      x_of(0.5 * (lo + hi)), x_of(hi - nudge),
                                      QUAD_TOL, 36)
    predicted = v_i * out.allocation[player] - integral
    return abs(out.payments[player] - predicted)
