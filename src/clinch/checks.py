"""Property harness: truthfulness, rationality, optimality, monotonicity.

Every checker returns a PropertyReport rather than raising: failures are
data.  Two deliberately different Pareto checkers run side by side (a
trade-based characterization and a direct randomized improvement search)
and the report records both verdicts; the test suite treats any
disagreement between them on engine outcomes as a build-stopping bug.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine, oracle
from .core import (
    EVENT_EXIT,
    AuctionError,
    EventTrace,
    NonFinite,
    Outcome,
    PriceState,
    ValidatedInstance,
    tol,
    validate_instance,
)
from .engine import state_at, wishful_allocation

# where `verify_trace` samples the snapshot laws inside each clinching segment
_INTERIOR = np.linspace(0.15, 0.85, 5).tolist()
# Fixed slacks.
TRACE_REL = 1e-8  # every trace law's relative slack, times max(1, |x|, ...)
PARETO_REL = 1e-9  # the Pareto characterization's relative money slack
SEARCH_MARGIN = 1e-6  # the gain a dominating outcome from the search must beat
CONVERGENCE_SHRINK = 1.5  # the Euler mean error's required ratio from h to h/2
QUAD_TOL = 1e-6  # the error bound of `myerson_gap`'s adaptive Simpson rule


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check over one instance or corpus."""

    name: str
    corpus: str
    passed: bool
    worst_violation: float
    witness: dict | None = None
    details: tuple[str, ...] = ()

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise ValueError("a passing report cannot carry a witness")
        if not self.passed and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    def to_dict(self) -> dict:
        return {"property": self.name, "corpus": self.corpus, "passed": self.passed,
                "worst_violation": self.worst_violation, "witness": self.witness,
                "details": list(self.details)}


def _witness(inst: ValidatedInstance, **extra) -> dict:
    doc = {"values": list(inst.values), "budgets": list(inst.budgets),
           "supply": inst.supply}
    doc.update(extra)
    return doc


def merge_reports(name: str, corpus: str, reports: list[PropertyReport]) -> PropertyReport:
    """Deterministic merge: worst violation wins, first witness kept."""
    worst = max((r.worst_violation for r in reports), default=0.0)
    failed = [r for r in reports if not r.passed]
    details = tuple(d for r in reports for d in r.details)
    if failed:
        return PropertyReport(name, corpus, False, worst, failed[0].witness, details)
    return PropertyReport(name, corpus, True, worst, None, details)


# ---------------------------------------------------------------------------
# Corpora

@dataclass(frozen=True)
class CorpusSpec:
    """Seeded random-instance generator parameters."""

    count: int = 100
    n_min: int = 2
    n_max: int = 8
    v_max: float = 10.0
    b_min: float = 0.0
    b_max: float = 5.0
    s_max: float = 20.0
    seed: int = 0

    def describe(self) -> str:
        return (f"{self.count} seeded instances, n in [{self.n_min},{self.n_max}], "
                f"values (0,{self.v_max}], budgets ({self.b_min},{self.b_max}], "
                f"supply (0,{self.s_max}], seed {self.seed}")


def random_instances(spec: CorpusSpec) -> list[ValidatedInstance]:
    rng = np.random.default_rng(spec.seed)
    out = []
    for _ in range(spec.count):
        n = int(rng.integers(spec.n_min, spec.n_max + 1))
        vals = spec.v_max * (1.0 - rng.random(n))
        buds = spec.b_min + (spec.b_max - spec.b_min) * (1.0 - rng.random(n))
        s = spec.s_max * (1.0 - rng.random())
        out.append(validate_instance(values=vals, budgets=buds, supply=s))
    return out


def property_corpus(seed: int = 0, count: int = 1000) -> CorpusSpec:
    """The canonical corpus for the truthfulness/optimality property suite."""
    return CorpusSpec(count=count, seed=seed)


def oracle_corpus(seed: int = 0, count: int = 200) -> CorpusSpec:
    """Corpus for engine-vs-integrator agreement.

    A first-order walk's absolute error scales with the money moved and
    with 1/p at the first clinch entry, so the agreement tolerance pins
    the instance scale: budgets bounded away from zero and supply of
    order one keep the entry price, and with it the error constant, in
    the regime the stated tolerance was calibrated for.  Harder scales
    are exercised by the engine-vs-closed-form and property suites, which
    do not go through the integrator.
    """
    return CorpusSpec(count=count, n_min=2, n_max=6, v_max=10.0, b_min=0.5,
                      b_max=2.0, s_max=1.5, seed=seed)


def stratified_two_player(seed: int = 0, count: int = 10000) -> list[ValidatedInstance]:
    """n=2 instances balanced across the six closed-form regimes.

    One budget is 1 to 4 times the other.  Supply is sampled inside the
    regime's spend window (below the poorer budget, between it and the split
    knee, or beyond the knee), for both value orders; player labels are then
    swapped at random so the relabeling path is exercised too.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        regime = k % 6
        v_pair = 10.0 * (1.0 - rng.random(2))
        lo, hi = sorted(v_pair)
        if regime < 3:
            v1, v2 = lo, hi          # higher value on the poorer side
        else:
            v1, v2 = hi, lo
        b2 = 0.05 + 4.95 * (1.0 - rng.random())
        b1 = b2 * (1.0 + 3.0 * rng.random())
        knee = b2 * math.exp(b1 / b2 - 1.0)
        vmin = min(v1, v2)
        u = rng.random()
        if regime % 3 == 0:
            spend = b2 * u
        elif regime % 3 == 1:
            spend = b2 + (knee - b2) * u
        else:
            spend = knee * (1.0 + 3.0 * u)
        s = spend / vmin
        vals, buds = [v1, v2], [b1, b2]
        if rng.random() < 0.5:
            vals, buds = vals[::-1], buds[::-1]
        out.append(validate_instance(values=vals, budgets=buds, supply=s))
    return out


# ---------------------------------------------------------------------------
# Truthfulness / rationality / budget feasibility

def misreport_grid(inst: ValidatedInstance, player: int, points: int) -> list[float]:
    """Candidate misreports: an even grid over [0, 2 max v] plus every
    opponent value nudged one tolerance-width to either side (the only
    discontinuity candidates).  The even grid needs both of its ends, so
    `points` must be at least 2."""
    if points < 2:
        raise ValueError(f"misreport grid needs points >= 2, got {points}")
    top = 2.0 * max(inst.values)
    grid = [top * k / (points - 1) for k in range(points)]
    for j, v in enumerate(inst.values):
        if j == player:
            continue
        eps = tol(v)
        grid.extend((max(v - eps, 0.0), v + eps))
    return grid


def _misreported(inst: ValidatedInstance, i: int, report: float) -> ValidatedInstance:
    """`inst` with player i's value replaced by `report`: only the new value
    needs checking (grid points are non-negative) and only the value order
    changes, sorted stably as `validate_instance` sorts it."""
    if not report < math.inf:  # the grid over [0, 2 max v] overflowed
        raise NonFinite(f"values contains a non-finite entry: {report!r}")
    vals = list(inst.values)
    vals[i] = report
    vals = tuple(vals)
    return ValidatedInstance(vals, inst.budgets, inst.supply,
                             tuple(sorted(range(len(vals)), key=vals.__getitem__)),
                             inst.budget_order)


def check_ic(inst: ValidatedInstance, solver=engine.solve, points: int = 50,
             slack: float = 1e-6) -> PropertyReport:
    """No player can gain more than `slack` by any grid misreport."""
    base = solver(inst)
    worst = 0.0
    witness = None
    for i in range(inst.n):
        truth = inst.values[i] * base.allocation[i] - base.payments[i]
        for report in misreport_grid(inst, i, points):
            dev = solver(_misreported(inst, i, report))
            gain = (inst.values[i] * dev.allocation[i] - dev.payments[i]) - truth
            if gain > worst:
                worst = gain
                if gain > slack:
                    witness = _witness(inst, player=i, misreport=report, gain=gain)
    return PropertyReport("incentive-compatibility", "single instance",
                          witness is None, worst, witness)


def check_ir(inst: ValidatedInstance, outcome: Outcome, slack: float = 1e-9
             ) -> PropertyReport:
    """Truthful utility is non-negative for every player."""
    worst = 0.0
    witness = None
    for i in range(inst.n):
        u = inst.values[i] * outcome.allocation[i] - outcome.payments[i]
        bad = -u
        if bad > worst:
            worst = bad
            if bad > slack * max(1.0, abs(u)):
                witness = _witness(inst, player=i, utility=u)
    return PropertyReport("individual-rationality", "single instance",
                          witness is None, worst, witness)


def check_budget(inst: ValidatedInstance, outcome: Outcome, slack: float = 1e-9
                 ) -> PropertyReport:
    """Payments stay inside declared budgets (and are non-negative)."""
    worst = 0.0
    witness = None
    for i in range(inst.n):
        over = max(outcome.payments[i] - inst.budgets[i], -outcome.payments[i])
        if over > worst:
            worst = over
            if over > slack * max(1.0, inst.budgets[i]):
                witness = _witness(inst, player=i, payment=outcome.payments[i])
    return PropertyReport("budget-feasibility", "single instance",
                          witness is None, worst, witness)


# ---------------------------------------------------------------------------
# Pareto optimality: characterization + randomized direct search

def _characterization_violation(inst: ValidatedInstance, outcome: Outcome
                                ) -> tuple[float, str | None]:
    """No-improving-trade conditions: supply sold out (all values positive),
    and no higher-value player keeps budget slack while a lower-value
    player holds goods."""
    n = inst.n
    money = lambda x: PARETO_REL * max(1.0, abs(x))
    if n >= 2 and all(v > 0.0 for v in inst.values):
        unsold = inst.supply - sum(outcome.allocation)
        if unsold > money(inst.supply):
            return unsold, f"unsold supply {unsold}"
    for i in range(n):
        slack = inst.budgets[i] - outcome.payments[i]
        if slack <= money(inst.budgets[i]):
            continue
        for j in range(n):
            if inst.values[i] <= inst.values[j] or outcome.allocation[j] <= money(1.0):
                continue
            size = min(slack, (inst.values[i] - inst.values[j]) * outcome.allocation[j])
            return size, (f"player {i} has budget slack {slack} while lower-value "
                          f"player {j} holds {outcome.allocation[j]} units")
    return 0.0, None


def _search_improvement(inst: ValidatedInstance, outcome: Outcome,
                        rng: np.random.Generator, candidates: int
                        ) -> tuple[float, dict | None]:
    """Randomized direct search for a dominating outcome.

    Candidates are alternative (x', pay') pairs; a find must weakly improve
    every bidder and the seller with one strict gain beyond `SEARCH_MARGIN`.
    Payments may go negative (the comparison class allows compensating a
    bidder for giving up goods); only pay' <= budget is required.

    Draw order is part of the result: `clinch check` shares one generator
    across its whole corpus, so the draws of one call decide the candidates
    of every later instance.  When supply is unsold, the first candidates
    sell it to each positive-value bidder in turn and take no draws.  Then,
    for k in range(`candidates`), an even k with some trade pair (i, j) is
    a trade: one `rng.random()` for its size and, only when the size is
    positive, a second for its charge.  Every other k is a perturbation:
    one `rng.normal(0.0, 0.1, n)` for the allocation, then one for the
    payments.  The draws are taken one candidate at a time (ziggurat
    normals use a variable number of words, so the stream cannot be drawn
    in bulk); the candidates are then tested as rows of one matrix, and
    the result is the first row, in draw order, with the largest strict
    gain.
    """
    n = inst.n
    v = np.array(inst.values, dtype=float)
    b = np.array(inst.budgets, dtype=float)
    x0 = np.array(outcome.allocation, dtype=float)
    p0 = np.array(outcome.payments, dtype=float)
    vs, bs, xs, ps = v.tolist(), b.tolist(), x0.tolist(), p0.tolist()
    eps = 1e-12

    unsold = inst.supply - float(x0.sum())
    sellers = [i for i in range(n) if vs[i] > 0.0] if unsold > 0.0 else []
    labels = ["sell unsold supply"] * len(sellers)
    trades, noise = [], []  # (row, i, j, size, charge), (row, x noise, pay noise)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and vs[i] > vs[j] and xs[j] > 0.0]
    for k in range(candidates):
        if pairs and k % 2 == 0:
            i, j = pairs[k // 2 % len(pairs)]
            size = min(xs[j], (bs[i] - ps[i]) / max(vs[i], eps)) * rng.random()
            if size <= 0.0:
                continue
            charge = size * (vs[j] + (vs[i] - vs[j]) * rng.random())
            trades.append((len(labels), i, j, size, charge))
            labels.append("pairwise trade with compensation")
        else:
            noise.append((len(labels), rng.normal(0.0, 0.1, n), rng.normal(0.0, 0.1, n)))
            labels.append("random perturbation")

    x1 = np.tile(x0, (len(labels), 1))
    p1 = np.tile(p0, (len(labels), 1))
    x1[range(len(sellers)), sellers] += unsold
    if trades:
        rows, i, j, size, charge = map(np.array, zip(*trades))
        x1[rows, i] += size
        x1[rows, j] -= size
        p1[rows, i] += charge
        p1[rows, j] -= size * v[j]
    if noise:
        rows, dx, dp = zip(*noise)
        xn = np.maximum(x0 + np.array(dx) * max(1.0, inst.supply), 0.0)
        total = xn.sum(axis=1)
        over = total > inst.supply
        xn[over] *= (inst.supply / total[over])[:, None]
        x1[rows, :] = xn
        p1[rows, :] = np.minimum(p0 + np.array(dp) * np.maximum(1.0, b), b)

    gains = np.empty((len(labels), n + 1))
    gains[:, :n] = (v * x1 - p1) - (v * x0 - p0)
    gains[:, n] = p1.sum(axis=1) - p0.sum()
    strict = gains.max(axis=1)
    hits = np.flatnonzero(~(x1 < -eps).any(axis=1)
                          & ~(x1.sum(axis=1) > inst.supply + eps)
                          & ~(p1 > b + eps).any(axis=1)
                          & ~(gains < -eps).any(axis=1)
                          & (strict > SEARCH_MARGIN))
    if not hits.size:
        return 0.0, None
    r = hits[np.argmax(strict[hits])]  # argmax keeps the first of tied rows
    gain = float(strict[r])
    return gain, {"kind": labels[r], "x": x1[r].tolist(), "pay": p1[r].tolist(),
                  "gain": gain}


def check_pareto(inst: ValidatedInstance, outcome: Outcome,
                 rng: np.random.Generator | None = None, candidates: int = 1000
                 ) -> PropertyReport:
    """Both Pareto checkers; the report records each verdict.

    Fails when either the trade characterization or the direct randomized
    search flags the outcome.  The `details` tuple carries the two
    sub-verdicts so that disagreement between them is visible to callers.

    The search draws its candidates from `rng` in the order that
    `_search_improvement` documents.  `clinch check` passes one generator
    to every instance of its corpus, so each instance's candidates depend
    on the calls before it; without `rng` every call starts from
    `default_rng(0)`.
    """
    rng = rng or np.random.default_rng(0)
    char_viol, char_msg = _characterization_violation(inst, outcome)
    search_gain, search_hit = _search_improvement(inst, outcome, rng, candidates)
    details = (f"characterization: {'fail: ' + char_msg if char_msg else 'pass'}",
               f"search: {'fail, gain ' + repr(search_gain) if search_hit else 'pass'}")
    failed = char_msg is not None or search_hit is not None
    worst = max(char_viol, search_gain if search_hit else 0.0)
    witness = None
    if failed:
        witness = _witness(inst, characterization=char_msg, improvement=search_hit)
    return PropertyReport("pareto-optimality", "single instance", not failed,
                          worst, witness, details)


# ---------------------------------------------------------------------------
# Supply monotonicity

def check_supply_monotonicity(values, budgets, supply_pairs,
                              slack: float = 1e-8) -> PropertyReport:
    """x, payments and utilities all grow with supply; the wishful
    allocation of the larger run dominates at every shared trace price."""
    worst = 0.0
    witness = None
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
                 - (hi.values[i] * out_hi.allocation[i] - out_hi.payments[i]),
                 "utility"),
            )
            for drop, what in drops:
                if drop > worst:
                    worst = drop
                    if drop > slack:
                        witness = _witness(lo, player=i, quantity=what,
                                           pair=[s_lo, s_hi])
        prices = sorted({ev.price for ev in tr_lo.events + tr_hi.events
                         if ev.price > 0.0})
        for p in prices:
            psi_lo = wishful_allocation(state_at(tr_lo, p))
            psi_hi = wishful_allocation(state_at(tr_hi, p))
            for i in range(lo.n):
                drop = psi_lo[i] - psi_hi[i]
                if drop > worst:
                    worst = drop
                    if drop > slack:
                        witness = _witness(lo, player=i, quantity="wishful allocation",
                                           price=p, pair=[s_lo, s_hi])
    return PropertyReport("supply-monotonicity", "single value/budget profile",
                          witness is None, worst, witness)


# ---------------------------------------------------------------------------
# Engine-vs-integrator agreement

def check_oracle_agreement(instances, h: float, slack: float | None = None
                           ) -> PropertyReport:
    """Componentwise engine/integrator agreement at step h, plus first-order
    convergence: the corpus mean error must shrink by `CONVERGENCE_SHRINK`
    when h halves.

    The default agreement slack is 10*h, matching the integrator's
    membership tolerance scale (a first-order method's error budget moves
    with its step)."""
    if slack is None:
        slack = 10.0 * h
    worst = 0.0
    witness = None
    errs_h, errs_h2 = [], []
    for inst in instances:
        ref = engine.solve(inst)
        approx = oracle.solve_euler(inst, h)
        fine = oracle.solve_euler(inst, h / 2.0)
        err = max(abs(a - b) for a, b in zip(approx.allocation + approx.payments,
                                             ref.allocation + ref.payments))
        err2 = max(abs(a - b) for a, b in zip(fine.allocation + fine.payments,
                                              ref.allocation + ref.payments))
        errs_h.append(err)
        errs_h2.append(err2)
        if err > worst:
            worst = err
            if err > slack:
                witness = _witness(inst, error=err, step=h)
    mean_h, mean_h2 = float(np.mean(errs_h)), float(np.mean(errs_h2))
    details = (f"max err at h: {worst:.3e}", f"mean err at h: {mean_h:.3e}",
               f"mean err at h/2: {mean_h2:.3e}")
    ratio = mean_h / mean_h2 if mean_h2 > 0.0 else math.inf
    if witness is None and ratio < CONVERGENCE_SHRINK:
        witness = {"convergence_ratio": ratio, "required": CONVERGENCE_SHRINK}
        worst = max(worst, CONVERGENCE_SHRINK - ratio)
    return PropertyReport("integration-oracle-agreement",
                          f"{len(errs_h)} instances at h={h:g}",
                          witness is None, worst, witness, details)


# ---------------------------------------------------------------------------
# Trace invariants

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
