"""Streaming supply: consume increments, emit allocation/payment deltas.

Because the auction outcome is componentwise monotone in the total supply
(both allocation and payments), the auctioneer can sell and charge on the
fly: every arriving increment is handled by re-solving at the new
cumulative supply and shipping the differences.  A full recompute per
increment is deliberate; the outcome is a non-separable function of total
supply, and monotonicity guarantees the deltas are valid.  A re-solve is
cheap: the stream validates its bidders once and hands the cached value
and budget orders to every solve, so an increment skips both sorts and
costs O(n), the engine's amortised O(1) per event.  Monotonicity failing
beyond tolerance would falsify the theory the stream rests on, so it is
raised as a hard error rather than clamped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import engine
from .core import (
    MonotonicityViolation,
    NonFinite,
    NonPositiveIncrement,
    Outcome,
    ValidatedInstance,
    tol,
    validate_instance,
)


@dataclass(frozen=True)
class DeltaOutcome:
    """Per-increment deltas plus the cumulative supply they bring about."""

    delta_x: tuple[float, ...]
    delta_pay: tuple[float, ...]
    supply: float


class SupplyStream:
    """Single-writer state machine over cumulative supply.

    `on_supply` calls must be serialized by the caller; reading `outcome`,
    `supply` or `utility_snapshot` between mutations is safe.  Distinct
    streams are fully independent.
    """

    def __init__(self, values, budgets):
        self.inst = validate_instance(values=values, budgets=budgets, supply=0.0)
        self.supply = 0.0
        self.outcome = Outcome.zero(self.inst.n)

    def on_supply(self, ds: float) -> DeltaOutcome:
        """Account for ds more units: re-solve and emit non-negative deltas.

        Deltas within tolerance of zero are clamped to exactly zero so
        consumers never see negative dust; a delta negative beyond
        tolerance raises MonotonicityViolation (an engine bug signal, not
        a user error).  An increment that would take the cumulative supply
        past the largest double raises NonFinite and changes nothing.
        """
        ds = float(ds)
        if not ds > 0.0:
            raise NonPositiveIncrement(f"supply increment must be positive, got {ds}")
        new_supply = self.supply + ds
        if not math.isfinite(new_supply):
            raise NonFinite(f"cumulative supply overflows: {self.supply} + {ds}")
        inst = ValidatedInstance(self.inst.values, self.inst.budgets, new_supply,
                                 self.inst.value_order, self.inst.budget_order)
        new = engine.solve(inst)
        old_u = self.utility_snapshot()
        dx = self._delta(self.outcome.allocation, new.allocation)
        dp = self._delta(self.outcome.payments, new.payments)
        self.supply = new_supply
        self.outcome = new
        new_u = self.utility_snapshot()
        for i, (a, b) in enumerate(zip(old_u, new_u)):
            if b < a - tol(a, b):
                raise MonotonicityViolation(
                    f"utility of player {i} fell from {a} to {b} as supply grew")
        return DeltaOutcome(dx, dp, new_supply)

    def _delta(self, old: tuple, new: tuple) -> tuple[float, ...]:
        out = []
        for i, (a, b) in enumerate(zip(old, new)):
            d, eps = b - a, tol(a, b)
            if d < -eps:
                raise MonotonicityViolation(
                    f"component {i} fell from {a} to {b} as supply grew")
            out.append(d if abs(d) > eps else 0.0)
        return tuple(out)

    def utility_snapshot(self) -> tuple[float, ...]:
        """Current utilities v_i * x_i - pay_i; non-decreasing across increments."""
        return tuple(self.inst.values[i] * self.outcome.allocation[i]
                     - self.outcome.payments[i] for i in range(self.inst.n))
