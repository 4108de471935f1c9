"""Independent integration oracle: forward Euler on the price ODE.

The engine computes outcomes from closed forms and event-price inversions;
this module never touches those.  It marches the budget/allocation ODE
(dx_i = S/p dp, dB_i = -S dp for clinching players) with a fixed step h,
re-deriving the clinching set at every step from its defining equality
S = sum_{j != i} B_j / p, and applies the discrete exit procedure exactly
at each value.  First-order convergence to the engine's outcome is what
the test suite certifies; the implementation is deliberately kept separate
from the engine so the two can vouch for each other.

Membership rules, all tolerances shrinking linearly in h (c = 10):

* entry: the equality is tracked in money units through the defect
  D_i = sum_{j != i} B_j - p*S, which falls towards zero at rate S per
  unit price.  A player is armed once his defect has been seen above the
  tolerance c*h*min(1,p) and joins at the first grid point where it has
  crossed to D_i <= 0.  Crossing detection (rather than a band test)
  admits a defect that jumps far past zero within one step, and the
  arming requirement keeps degenerate players whose defect is pinned
  negative (all opponents broke) out of the set.
* retention: a member is kept while his supply-units defect
  g_i = D_i / p stays within the walk's high-water band over
  c*h + k*S*h/p and the defects actually admitted: Euler holds a member's
  defect near k*S*h/p (the fixed point of the defect recursion), not at
  zero, and the defect decays only at rate h/p, so the band must remember
  the largest defect the method itself induced.
* exits: members persist across an exit step, joined by anyone the exit
  awards a positive amount, mirroring the process being integrated.

A player whose membership still flips more than twice inside one
inter-value interval signals a step too coarse to resolve the event
structure and raises StepTooLarge.

The inner loop is vectorized in chunks: while the clinching set stays
constant the Euler recursion is a cumulative product/sum, and the chunk is
truncated at the first step whose recomputed membership differs.  This is
a computational shortcut only; the iterates equal the naive per-step loop.
"""
from __future__ import annotations

import math

import numpy as np

from .core import Outcome, StepTooLarge, ValidatedInstance, validate_instance

MEMBERSHIP_FACTOR = 10.0
SUPPLY_FLOOR = 1e-12
_CHUNK = 4096


def _count_flips(flips: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
    flips += old != new
    if (flips > 2).any():
        raise StepTooLarge("clinching membership oscillates; shrink the step")


class _Walk:
    """Mutable state of one Euler integration."""

    def __init__(self, vinst: ValidatedInstance, h: float):
        self.values = np.asarray(vinst.values, dtype=float)
        self.B0 = np.asarray(vinst.budgets, dtype=float)
        self.B = self.B0.copy()
        self.x = np.zeros(vinst.n)
        self.S = float(vinst.supply)
        self.act = self.values > 0.0
        self.clinch = np.zeros(vinst.n, dtype=bool)
        self.armed = np.zeros(vinst.n, dtype=bool)
        self.h = h
        self.thresh = MEMBERSHIP_FACTOR * h
        self.band = self.thresh

    def admit(self, g_admitted: np.ndarray) -> None:
        """Stretch the retention band over the defects actually admitted."""
        if g_admitted.size:
            self.band = max(self.band, float(np.abs(g_admitted).max()))

    def membership_at(self, p: float, aidx: np.ndarray) -> np.ndarray:
        """Re-derived clinching mask at one price of the current state."""
        k = int(self.clinch.sum())
        self.band = max(self.band, self.thresh + k * self.S * self.h / p)
        tot = float(self.B[aidx].sum())
        money_defect = (tot - self.B[aidx]) - p * self.S
        tol = self.thresh * min(1.0, p)
        self.armed[aidx[money_defect > tol]] = True
        isc = self.clinch[aidx]
        joining = ~isc & self.armed[aidx] & (money_defect <= 0.0)
        self.admit(money_defect[joining] / p)
        ok = np.where(isc, np.abs(money_defect / p) <= self.band, joining)
        mask = np.zeros(self.B.shape[0], dtype=bool)
        mask[aidx[ok]] = True
        return mask

    def interval(self, p_lo: float, p_hi: float) -> None:
        """Integrate over [p_lo, p_hi), the active set being constant there."""
        h, thresh = self.h, self.thresh
        n = self.B.shape[0]
        aidx = np.flatnonzero(self.act)
        flips = np.zeros(n, dtype=int)
        self.clinch &= self.act
        n_full = max(0, math.ceil((p_hi - p_lo) / h) - 1)
        t = 0
        while t < n_full and self.S > SUPPLY_FLOOR:
            m = min(_CHUNK, n_full - t)
            p_ts = p_lo + h * (t + np.arange(m))
            cidx = np.flatnonzero(self.clinch)
            k = cidx.size
            if k == 0:
                tot = float(self.B[aidx].sum())
                dmat = (tot - self.B[aidx])[:, None] - p_ts[None, :] * self.S
                tol_ts = thresh * np.minimum(1.0, p_ts)
                armed = self.armed[aidx, None] | (dmat > tol_ts[None, :])
                np.logical_or.accumulate(armed, axis=1, out=armed)
                hit = armed & (dmat <= 0.0) & (p_ts > 0.0)[None, :]
                self.armed[aidx] |= armed[:, -1]
                anyhit = hit.any(axis=0)
                if not anyhit.any():
                    t += m
                    continue
                j = int(np.argmax(anyhit))
                t += j
                new = np.zeros(n, dtype=bool)
                new[aidx[hit[:, j]]] = True
                self.admit(dmat[hit[:, j], j] / p_ts[j])
                _count_flips(flips, self.clinch, new)
                self.clinch = new
                continue
            self.band = max(self.band, thresh + k * self.S * h / p_ts[0])
            factors = 1.0 - k * h / p_ts
            sseq = np.empty(m + 1)
            sseq[0] = self.S
            np.cumprod(factors, out=sseq[1:])
            sseq[1:] *= self.S
            cs = np.empty(m + 1)
            cs[0] = 0.0
            np.cumsum(sseq[:m], out=cs[1:])
            csp = np.empty(m + 1)
            csp[0] = 0.0
            np.cumsum(sseq[:m] / p_ts, out=csp[1:])

            exhausted = sseq <= SUPPLY_FLOOR
            stop = int(np.argmax(exhausted)) if exhausted.any() else m + 1
            isc = self.clinch[aidx]
            tot0 = float(self.B[aidx].sum())
            tot_t = tot0 - k * h * cs[:m]
            bmat = self.B[aidx][:, None] - (h * cs[None, :m]) * isc[:, None]
            dmat = (tot_t[None, :] - bmat) - p_ts[None, :] * sseq[None, :m]
            tol_ts = thresh * np.minimum(1.0, p_ts)
            armed = self.armed[aidx, None] | (dmat > tol_ts[None, :])
            np.logical_or.accumulate(armed, axis=1, out=armed)
            keep_ok = np.abs(dmat / p_ts[None, :]) <= self.band
            join = armed & (dmat <= 0.0)
            mism = np.where(isc[:, None], ~keep_ok, join)
            anymism = mism.any(axis=0)
            flip_t = int(np.argmax(anymism)) if anymism.any() else m

            limit = min(flip_t, stop, m)
            self.x[cidx] += h * csp[limit]
            self.B[cidx] -= h * cs[limit]
            self.S = float(sseq[limit])
            t += limit
            self.armed[aidx] |= armed[:, min(limit, m - 1)]
            if self.S <= SUPPLY_FLOOR:
                return
            if flip_t < m and flip_t <= stop:
                new_rows = np.where(isc, keep_ok[:, flip_t], join[:, flip_t])
                new = np.zeros(n, dtype=bool)
                new[aidx[new_rows]] = True
                self.admit(dmat[~isc & join[:, flip_t], flip_t] / p_ts[flip_t])
                _count_flips(flips, self.clinch, new)
                self.clinch = new
                if flip_t == 0:
                    # set changed at the current point: take one plain step
                    # with the new set so the walk keeps moving
                    p_here = p_lo + h * t
                    cidx = np.flatnonzero(self.clinch)
                    if cidx.size:
                        self.x[cidx] += h * self.S / p_here
                        self.B[cidx] -= h * self.S
                        self.S *= 1.0 - cidx.size * h / p_here
                    t += 1
        if self.S <= SUPPLY_FLOOR:
            return
        p_last = p_lo + n_full * h
        step = p_hi - p_last
        if step > 0.0 and p_last > 0.0:
            new = self.membership_at(p_last, aidx)
            _count_flips(flips, self.clinch, new)
            self.clinch = new
            cidx = np.flatnonzero(self.clinch)
            if cidx.size:
                self.x[cidx] += step * self.S / p_last
                self.B[cidx] -= step * self.S
                self.S *= 1.0 - cidx.size * step / p_last

    def exit_at(self, v: float) -> None:
        """Discrete clinch at price v, removing tied players lowest-index first.

        Re-implemented from the rulebook rather than shared with the engine:
        each remaining player clinches [S - sum of others' budgets / v]^+,
        affordability-capped, pays v per unit, and joins the clinching set
        if he got a positive amount.
        """
        group = np.flatnonzero(self.act & (self.values == v))
        for j in group:
            self.act[j] = False
            self.clinch[j] = False
            rem = np.flatnonzero(self.act)
            if rem.size == 0:
                break
            tot = float(self.B[rem].sum())
            d = self.S - (tot - self.B[rem]) / v
            np.maximum(d, 0.0, out=d)
            np.minimum(d, self.B[rem] / v, out=d)
            self.x[rem] += d
            self.B[rem] = np.maximum(self.B[rem] - v * d, 0.0)
            self.clinch[rem[d > 0.0]] = True
            self.S = max(self.S - float(d.sum()), 0.0)


def solve_euler(inst, h: float) -> Outcome:
    """Terminal outcome of the forward-Euler walk with price step h."""
    vinst = inst if isinstance(inst, ValidatedInstance) else validate_instance(inst)
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    if vinst.n < 2:
        raise ValueError("the integration oracle needs at least two players")
    walk = _Walk(vinst, h)
    p_lo = 0.0
    for v_b in np.unique(walk.values[walk.act]):
        if walk.S <= SUPPLY_FLOOR or not walk.act.any():
            break
        walk.interval(p_lo, float(v_b))
        if walk.S <= SUPPLY_FLOOR:
            break
        walk.exit_at(float(v_b))
        p_lo = float(v_b)
    pays = np.clip(walk.B0 - walk.B, 0.0, None)
    return Outcome(tuple(walk.x.tolist()), tuple(pays.tolist()))
