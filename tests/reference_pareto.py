"""Frozen copy of the per-candidate Pareto search that `clinch.checks` replaced.

This loop draws one candidate, builds its allocation and payment vectors
and tests them before it draws the next, about ten small numpy calls per
candidate.  It is kept only as a differential reference for the
array-evaluated search: `tests/test_checks.py` runs both on the same
outcomes with one shared generator and requires the same `(gain, witness)`
and the same generator state after every call.  Do not edit it to track
`clinch.checks`; it pins the behaviour the array search was checked against.
"""
from __future__ import annotations

import numpy as np

from clinch.core import Outcome, ValidatedInstance


def search_improvement(inst: ValidatedInstance, outcome: Outcome,
                       rng: np.random.Generator, candidates: int = 1000,
                       margin: float = 1e-6) -> tuple[float, dict | None]:
    n = inst.n
    v = np.asarray(inst.values)
    b = np.asarray(inst.budgets)
    x0 = np.asarray(outcome.allocation)
    p0 = np.asarray(outcome.payments)
    u0 = v * x0 - p0
    eps = 1e-12

    best_gain, best = 0.0, None

    def consider(x1: np.ndarray, p1: np.ndarray, label: str) -> None:
        nonlocal best_gain, best
        if (x1 < -eps).any() or x1.sum() > inst.supply + eps:
            return
        if (p1 > b + eps).any():
            return
        u1 = v * x1 - p1
        gains = np.concatenate([u1 - u0, [p1.sum() - p0.sum()]])
        if (gains < -eps).any():
            return
        strict = float(gains.max())
        if strict > max(best_gain, margin):
            best_gain = strict
            best = {"kind": label, "x": x1.tolist(), "pay": p1.tolist(),
                    "gain": strict}

    unsold = inst.supply - float(x0.sum())
    if unsold > 0.0:
        for i in range(n):
            if v[i] > 0.0:
                x1 = x0.copy()
                x1[i] += unsold
                consider(x1, p0.copy(), "sell unsold supply")

    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and v[i] > v[j] and x0[j] > 0.0]
    for k in range(candidates):
        if pairs and k % 2 == 0:
            i, j = pairs[k // 2 % len(pairs)]
            size = min(x0[j], (b[i] - p0[i]) / max(v[i], eps)) * rng.random()
            if size <= 0.0:
                continue
            x1 = x0.copy()
            x1[i] += size
            x1[j] -= size
            p1 = p0.copy()
            charge = size * (v[j] + (v[i] - v[j]) * rng.random())
            p1[i] += charge
            p1[j] -= size * v[j]
            consider(x1, p1, "pairwise trade with compensation")
        else:
            x1 = np.maximum(x0 + rng.normal(0.0, 0.1, n) * max(1.0, inst.supply), 0.0)
            total = x1.sum()
            if total > inst.supply:
                x1 *= inst.supply / total
            p1 = p0 + rng.normal(0.0, 0.1, n) * np.maximum(1.0, b)
            consider(x1, np.minimum(p1, b), "random perturbation")
    return best_gain, best
