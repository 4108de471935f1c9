"""Frozen copy of the quadratic event loop that `clinch.engine` replaced.

Each event of this loop rescans every active bidder, so one solve costs
O(n^2).  It is kept only as a differential reference for the compressed
engine: `tests/test_engine_reference.py` runs both on the same corpora and
requires the same exception class or agreeing outcomes.  Do not edit it to
track the engine; it pins the behaviour the engine was checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from clinch.core import (
    EVENT_CLINCH_ENTRY,
    EVENT_EXIT,
    Event,
    EventTrace,
    NegativeBudget,
    NumericalDivergence,
    Outcome,
    PriceState,
    ValidatedInstance,
    ZeroPrice,
    validate_instance,
)

# The tolerance rule this loop was checked with, copied so that it stays
# frozen when `clinch.core`'s rule changes.
_ABS_FLOOR = 1e-12


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= max(_ABS_FLOOR, rel * max(1.0, abs(a), abs(b)))


@dataclass(frozen=True)
class EngineConfig:
    """Numerical knobs: relative tolerance and supply-exhaustion floor."""

    rel_tol: float = 1e-9
    supply_floor: float = 1e-12


DEFAULT_CONFIG = EngineConfig()


def _ensure_validated(inst) -> ValidatedInstance:
    if isinstance(inst, ValidatedInstance):
        return inst
    return validate_instance(inst)


def _money_tol(cfg: EngineConfig, *xs: float) -> float:
    scale = max(1.0, *map(abs, xs)) if xs else 1.0
    return max(_ABS_FLOOR, cfg.rel_tol * scale)


def _segment_advance(p: float, p_new: float, x: list, B: list, S: float,
                     clinching: list) -> float:
    """Advance the closed form from price p to p_new with a fixed clinching set.

    Mutates x and B for the clinching players and returns the new supply.
    With k clinchers the supply is S * (p/p')^k; the freed supply is split
    equally and each clincher's budget falls by p*S/(k-1) * (1 - (p/p')^(k-1))
    (by p*S*log(p'/p) for k = 1).
    """
    k = len(clinching)
    if k == 0 or p_new == p:
        return S
    if p <= 0.0:
        raise ZeroPrice("cannot evolve a clinching segment from price 0")
    ratio = p / p_new
    if k == 1:
        i = clinching[0]
        s_new = S * ratio
        x[i] += S - s_new
        B[i] += p * S * (math.log(p) - math.log(p_new))
        return s_new
    s_new = S * ratio**k
    gain = (S - s_new) / k
    db = p * S / (k - 1) * (ratio ** (k - 1) - 1.0)
    for i in clinching:
        x[i] += gain
        B[i] += db
    return s_new


def _entry_price(p: float, B: list, S: float, active: set, clinching: set) -> float:
    """Price of the next clinch-entry event, or +inf if none will occur.

    With an empty clinching set this is where the remnant supply first equals
    the aggregate price-deflated budgets of everyone but the richest active
    player; afterwards it is where the falling clincher budget meets the
    largest outsider budget, inverted through the segment closed form.
    """
    outsiders = active - clinching
    if not outsiders:
        return math.inf
    if not clinching:
        rest = sum(B[i] for i in active) - max(B[i] for i in active)
        if rest <= 0.0 or S <= 0.0:
            return math.inf
        pe = rest / S
        return pe if pe > p else p
    if p <= 0.0:
        raise ZeroPrice("clinching segment cannot start at price 0")
    m = max(B[i] for i in outsiders)
    bstar = max(B[i] for i in clinching)
    k = len(clinching)
    if k == 1:
        log_pe = math.log(p) + (bstar - m) / (p * S)
        if log_pe > 700.0:
            return math.inf
        return math.exp(log_pe)
    denom = p * S - (k - 1) * (bstar - m)
    if denom <= 0.0:
        return math.inf
    return p * (p * S / denom) ** (1.0 / (k - 1))


class _Run:
    """Mutable state of one auction execution."""

    def __init__(self, inst: ValidatedInstance, cfg: EngineConfig, record: bool):
        self.values = inst.values
        self.b0 = inst.budgets
        self.cfg = cfg
        self.record = record
        self.n = inst.n
        self.x = [0.0] * self.n
        self.B = list(inst.budgets)
        self.S = float(inst.supply)
        self.p = 0.0
        self.active = {i for i in range(self.n) if inst.values[i] > 0.0}
        self.clinching: set[int] = set()
        self.events: list[Event] = []
        self.notes: list[str] = []

    def snap(self, price: float) -> PriceState:
        return PriceState(price, tuple(self.x), tuple(self.B), self.S,
                          frozenset(self.active), frozenset(self.clinching),
                          self.values)

    def advance_to(self, p_new: float) -> None:
        self.S = _segment_advance(self.p, p_new, self.x, self.B, self.S,
                                  sorted(self.clinching))
        self.p = p_new

    def rederive_clinching(self) -> None:
        """Re-derive clinching membership from the budget profile.

        While the set is non-empty it is exactly the active players holding
        the maximum remaining budget; after an exit this also absorbs any
        entry that coincides with the exit price, so no zero-width entry
        event is ever emitted.
        """
        if not self.active:
            self.clinching = set()
            return
        bstar = max(self.B[i] for i in self.active)
        if self.clinching:
            self.clinching = {i for i in self.active
                              if _close(self.B[i], bstar, self.cfg.rel_tol)}
        elif self.S > self.cfg.supply_floor:
            pe = _entry_price(self.p, self.B, self.S, self.active, self.clinching)
            if pe <= self.p + _money_tol(self.cfg, self.p):
                self.clinching = {i for i in self.active
                                  if _close(self.B[i], bstar, self.cfg.rel_tol)}

    def do_entry(self, pe: float) -> None:
        self.advance_to(pe)
        bstar = max(self.B[i] for i in self.active)
        joiners = {i for i in self.active - self.clinching
                   if _close(self.B[i], bstar, self.cfg.rel_tol)}
        if not joiners:
            raise NumericalDivergence(f"entry event at p={pe} added no players")
        self.clinching |= joiners
        if self.record:
            zero = (0.0,) * self.n
            self.events.append(Event(EVENT_CLINCH_ENTRY, pe, tuple(sorted(joiners)),
                                     zero, zero, self.snap(pe)))

    def do_exit(self, v: float) -> None:
        """Remove every active player with value v, lowest index first.

        After each removal the remaining active players clinch
        delta_i = [S - sum_{j != i} B_j / v]^+ and pay v * delta_i.  The
        positive part is additionally capped at max(B_i, 0) / v: the cap never
        binds when every player holds money (the supply inequality guarantees
        the uncapped amount is affordable) and keeps degenerate zero-budget
        instances budget-feasible instead of overdrawing.  A budget that
        drifted a hair below zero caps at zero; a negative cap would give a
        negative delta and grow the remnant supply.
        """
        self.advance_to(v)
        exiting = sorted(i for i in self.active if self.values[i] == v)
        tol = _money_tol(self.cfg, v, max(self.b0, default=1.0))
        for idx, j in enumerate(exiting):
            self.active.remove(j)
            self.clinching.discard(j)
            delta = [0.0] * self.n
            if self.active:
                rem = sorted(self.active)
                tot = sum(self.B[i] for i in rem)
                for i in rem:
                    d = self.S - (tot - self.B[i]) / v
                    if d <= 0.0:
                        continue
                    uncapped = d
                    cap = max(self.B[i], 0.0) / v
                    if d > cap:
                        if uncapped - cap > tol / max(v, 1.0) and min(self.B[k] for k in rem) > tol:
                            raise NegativeBudget(
                                f"player {i} would pay {v * uncapped} with budget {self.B[i]}")
                        d = cap
                    delta[i] = d
                for i in rem:
                    if delta[i] > 0.0:
                        self.x[i] += delta[i]
                        self.B[i] -= v * delta[i]
                        if self.B[i] < 0.0:
                            if self.B[i] < -tol:
                                raise NegativeBudget(
                                    f"player {i} budget {self.B[i]} after exit at {v}")
                            self.B[i] = 0.0
                        self.clinching.add(i)
                self.S -= sum(delta)
                if self.S < 0.0:
                    self.S = 0.0
            if idx == len(exiting) - 1:
                self.rederive_clinching()
            if self.record:
                pays = tuple(v * d for d in delta)
                self.events.append(Event(EVENT_EXIT, v, (j,), tuple(delta), pays,
                                         self.snap(v)))

    def run(self) -> None:
        rounds = 0
        while self.active and self.S > self.cfg.supply_floor:
            rounds += 1
            if rounds > 4 * self.n + 16:
                raise NumericalDivergence("event loop failed to terminate")
            v_next = min(self.values[i] for i in self.active)
            pe = _entry_price(self.p, self.B, self.S, self.active, self.clinching)
            if pe < v_next and not _close(pe, v_next, self.cfg.rel_tol):
                if pe <= self.p:
                    raise NumericalDivergence(
                        f"entry price {pe} does not advance past {self.p}")
                self.do_entry(pe)
            else:
                self.do_exit(v_next)
        if not self.active and self.S > self.cfg.supply_floor:
            self.notes.append(f"unsold supply discarded: {self.S:.17g}")

    def outcome(self) -> Outcome:
        pays = tuple(max(self.b0[i] - self.B[i], 0.0) for i in range(self.n))
        return Outcome(tuple(self.x), pays)


def _single_bidder(inst: ValidatedInstance, cfg: EngineConfig) -> _Run:
    run = _Run(inst, cfg, record=False)
    if inst.values[0] > 0.0 and inst.supply > cfg.supply_floor:
        run.x[0] = inst.supply
        run.S = 0.0
        run.p = inst.values[0]
        run.active = set()
        run.notes.append("single-bidder outcome by the discrete-auction limit "
                         "(the differential clinching condition is vacuous for n=1)")
    elif inst.supply > cfg.supply_floor:
        run.notes.append(f"unsold supply discarded: {run.S:.17g}")
    return run


def _execute(inst, cfg: EngineConfig, record: bool) -> _Run:
    vinst = _ensure_validated(inst)
    if vinst.n == 1:
        return _single_bidder(vinst, cfg)
    run = _Run(vinst, cfg, record)
    run.run()
    return run


def solve(inst, config: EngineConfig = DEFAULT_CONFIG) -> Outcome:
    """Final allocation and payments of the auction for this instance."""
    return _execute(inst, config, record=False).outcome()


def trace(inst, config: EngineConfig = DEFAULT_CONFIG) -> EventTrace:
    """Full event trace; its final state yields exactly the `solve` outcome."""
    vinst = _ensure_validated(inst)
    run = _execute(vinst, config, record=True)
    return EventTrace(vinst.values, vinst.budgets, vinst.supply,
                      tuple(run.events), run.snap(run.p), run.outcome(),
                      tuple(run.notes))
