"""Closed-form two-player solution and its marginal supply rates.

With two bidders the whole price trajectory collapses to six closed-form
regimes keyed by which player has the higher value and how deep the supply
is.  Writing vmin for the smaller value and ordering budgets so b1 >= b2,
the spend level s*vmin is compared against b2 (the poorer budget) and
against the knee b2*exp(b1/b2 - 1), the level at which the richer player's
budget also depletes and arriving goods start being split.

This module is an independent fast path for n=2 and the golden reference
the event engine is tested against.
"""
from __future__ import annotations

import enum
import math

from . import engine
from .core import OnRegimeBoundary, Outcome, Record, tol, validate_instance


class Regime(str, enum.Enum):
    """Which closed-form branch applies (after ordering budgets b1 >= b2)."""

    V2_HIGH_VCG = "v2_high_vcg"            # all supply to player 2 at price v1
    V2_HIGH_RICH_BUYS = "v2_high_rich_buys"  # 2's budget spent; 1 buys log-priced
    V2_HIGH_SPLIT = "v2_high_split"        # both budgets binding; supply split
    V1_HIGH_VCG = "v1_high_vcg"            # all supply to player 1 at price v2
    V1_HIGH_DISCOUNT = "v1_high_discount"  # still all to 1, below-VCG charge
    V1_HIGH_SPLIT = "v1_high_split"        # 1's budget spent; split, 2 pays
    DEGENERATE = "degenerate"              # zero poorer budget or zero value


class RegimeLabel(Record):
    """Regime identifier plus the spend knee where splitting would begin."""

    __slots__ = {"regime": "Regime", "split_spend": "float"}


def _log_knee(b1: float, b2: float) -> float:
    return b1 / b2 - 1.0 + math.log(b2)


def _knee(b1: float, b2: float) -> float:
    lk = _log_knee(b1, b2)
    return math.exp(lk) if lk < 700.0 else math.inf


def _budget_ordered(v1: float, v2: float, b1: float, b2: float, s: float):
    """Validate the instance and relabel its players so that b1 >= b2.

    Returns the validated instance, the relabelled (v1, v2, b1, b2, s) and
    `back`, which maps a pair in the relabelled order to the caller's order.
    """
    inst = validate_instance(values=[v1, v2], budgets=[b1, b2], supply=s)
    (v1, v2), (b1, b2) = inst.values, inst.budgets
    if b1 >= b2:
        return inst, (v1, v2, b1, b2, inst.supply), lambda pair: pair
    return inst, (v2, v1, b2, b1, inst.supply), lambda pair: pair[::-1]


def _classify(v1: float, v2: float, b1: float, b2: float, s: float) -> Regime:
    """Regime of a budget-ordered (b1 >= b2, both positive) instance.

    Boundaries belong to the deeper-supply regime, so classification is a
    total function; the rows agree on shared boundaries anyway.
    """
    spend = s * min(v1, v2)
    lk = _log_knee(b1, b2)
    deep = spend > 0.0 and math.log(spend) >= lk
    if v2 >= v1:
        if deep:
            return Regime.V2_HIGH_SPLIT
        return Regime.V2_HIGH_RICH_BUYS if spend >= b2 else Regime.V2_HIGH_VCG
    if deep:
        return Regime.V1_HIGH_SPLIT
    return Regime.V1_HIGH_DISCOUNT if spend >= b2 else Regime.V1_HIGH_VCG


def solve_n2(v1: float, v2: float, b1: float, b2: float, s: float
             ) -> tuple[Outcome, RegimeLabel]:
    """Closed-form outcome for two bidders, with the regime that produced it.

    Inputs are not required to be budget-ordered; they are relabeled
    internally and the outcome is mapped back.  A zero poorer budget or a
    zero value falls outside the closed forms (their logarithms degenerate)
    and is delegated to the event engine.
    """
    inst, (v1, v2, b1, b2, s), back = _budget_ordered(v1, v2, b1, b2, s)
    if b2 <= 0.0 or min(v1, v2) <= 0.0:
        return engine.solve(inst), RegimeLabel(Regime.DEGENERATE, math.inf)

    regime = _classify(v1, v2, b1, b2, s)
    knee = _knee(b1, b2)
    if regime is Regime.V2_HIGH_VCG:
        x, pay = (0.0, s), (0.0, s * v1)
    elif regime is Regime.V2_HIGH_RICH_BUYS:
        x = (s - b2 / v1, b2 / v1)
        pay = (b2 * (math.log(s * v1) - math.log(b2)), b2)
    elif regime is Regime.V2_HIGH_SPLIT:
        t = knee / (s * v1)
        x2 = s * b2 / (2.0 * knee) * (1.0 + t * t)
        x = (s - x2, x2)
        pay = (b2 * (1.0 - t) + b2 * (_log_knee(b1, b2) - math.log(b2)), b2)
    elif regime is Regime.V1_HIGH_VCG:
        x, pay = (s, 0.0), (s * v2, 0.0)
    elif regime is Regime.V1_HIGH_DISCOUNT:
        x = (s, 0.0)
        pay = (b2 + b2 * (math.log(s * v2) - math.log(b2)), 0.0)
    else:
        t = knee / (s * v2)
        x2 = s * b2 / (2.0 * knee) * (1.0 - t * t)
        x = (s - x2, x2)
        pay = (b1, b2 - knee * b2 / (s * v2))

    return Outcome(back(x), back(pay)), RegimeLabel(regime, knee)


def marginal_rates_n2(v1: float, v2: float, b1: float, b2: float, s: float
                      ) -> tuple[tuple[float, float], tuple[float, float], RegimeLabel]:
    """Per-unit-of-supply rates (dx/ds, dpay/ds) inside one regime.

    Raises OnRegimeBoundary when the spend level s*vmin sits within
    tolerance of a regime boundary (or the instance is degenerate), where
    the one-sided derivatives disagree.
    """
    _, (v1, v2, b1, b2, s), back = _budget_ordered(v1, v2, b1, b2, s)
    if b2 <= 0.0 or min(v1, v2) <= 0.0 or s <= 0.0:
        raise OnRegimeBoundary("degenerate instance: zero budget, value or supply")

    spend = s * min(v1, v2)
    knee = _knee(b1, b2)
    if abs(spend - b2) <= tol(spend, b2):
        raise OnRegimeBoundary(f"spend level {spend} sits on the budget boundary {b2}")
    if math.isfinite(knee) and abs(spend - knee) <= tol(spend, b2, knee):
        raise OnRegimeBoundary(f"spend level {spend} sits on the split boundary {knee}")

    regime = _classify(v1, v2, b1, b2, s)
    if regime is Regime.V2_HIGH_VCG:
        dx, dpay = (0.0, 1.0), (0.0, v1)
    elif regime is Regime.V2_HIGH_RICH_BUYS:
        dx, dpay = (1.0, 0.0), (b2 / s, 0.0)
    elif regime is Regime.V2_HIGH_SPLIT:
        dx2 = b2 / (2.0 * knee) - b2 * knee / (2.0 * v1 * v1 * s * s)
        dx = (1.0 - dx2, dx2)
        dpay = (knee * b2 / (s * s * v1), 0.0)
    elif regime is Regime.V1_HIGH_VCG:
        dx, dpay = (1.0, 0.0), (v2, 0.0)
    elif regime is Regime.V1_HIGH_DISCOUNT:
        dx, dpay = (1.0, 0.0), (b2 / s, 0.0)
    else:
        dx2 = b2 / (2.0 * knee) + b2 * knee / (2.0 * v2 * v2 * s * s)
        dx = (1.0 - dx2, dx2)
        dpay = (0.0, knee * b2 / (s * s * v2))

    return back(dx), back(dpay), RegimeLabel(regime, knee)
