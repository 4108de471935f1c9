"""Property harness: truthfulness, rationality, optimality, monotonicity.

Every checker returns a PropertyReport rather than raising: failures are
data.  Two deliberately different Pareto checkers run side by side (a
trade-based characterization and a direct randomized improvement search)
and the report records both verdicts; the test suite treats any
disagreement between them on engine outcomes as a build-stopping bug.
"""
from __future__ import annotations

import math
from operator import sub
from typing import TYPE_CHECKING

from . import engine
from .core import (
    EventTrace,
    NonFinite,
    Outcome,
    Record,
    ValidatedInstance,
    tol,
    validate_instance,
    with_supply,
)
from .engine import state_at  # unused here, but `checks.state_at` stays a name callers wrap
from .pcg64 import PCG64

if TYPE_CHECKING:
    import numpy as np

# Fixed slacks.
PARETO_REL = 1e-9  # the Pareto characterization's relative money slack
SEARCH_MARGIN = 1e-6  # the gain a dominating outcome from the search must beat
CONVERGENCE_SHRINK = 1.5  # the Euler mean error's required ratio from h to h/2


class PropertyReport(Record, witness=None, details=()):
    """Outcome of one property check over one instance or corpus: it fails
    exactly when it carries a witness."""

    __slots__ = {"name": "str", "corpus": "str", "worst_violation": "float",
                 "witness": "dict | None", "details": "tuple[str, ...]"}

    @property
    def passed(self) -> bool:
        return self.witness is None

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
    witness = next((r.witness for r in reports if not r.passed), None)
    details = tuple(d for r in reports for d in r.details)
    return PropertyReport(name, corpus, worst, witness, details)


# ---------------------------------------------------------------------------
# Corpora

class CorpusSpec(Record, count=100, n_min=2, n_max=8, v_max=10.0, b_min=0.0, b_max=5.0,
                 s_max=20.0, seed=0):
    """Seeded random-instance generator parameters."""

    __slots__ = {"count": "int", "n_min": "int", "n_max": "int", "v_max": "float",
                 "b_min": "float", "b_max": "float", "s_max": "float", "seed": "int"}

    def describe(self) -> str:
        return (f"{self.count} seeded instances, n in [{self.n_min},{self.n_max}], "
                f"values (0,{self.v_max}], budgets ({self.b_min},{self.b_max}], "
                f"supply (0,{self.s_max}], seed {self.seed}")


def random_instances(spec: CorpusSpec) -> list[ValidatedInstance]:
    """`spec.count` instances drawn from `PCG64(spec.seed)`, the stream of
    numpy's `default_rng(spec.seed)`: per instance, n, then n values, n
    budgets and the supply, each uniform on the range, open at its lower
    end, that `CorpusSpec.describe` prints."""
    rng = PCG64(spec.seed)
    width = spec.b_max - spec.b_min
    out = []
    for _ in range(spec.count):
        n = rng.integers(spec.n_min, spec.n_max + 1)
        vals = [spec.v_max * (1.0 - rng.random()) for _ in range(n)]
        buds = [spec.b_min + width * (1.0 - rng.random()) for _ in range(n)]
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
    swapped at random so the relabeling path is exercised too.  The draws
    come from `PCG64(seed)`, the stream of numpy's `default_rng(seed)`.
    """
    rng = PCG64(seed)
    out = []
    for k in range(count):
        regime = k % 6
        lo, hi = sorted(10.0 * (1.0 - rng.random()) for _ in range(2))
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
    `points` must be at least 2.  Grid point k is computed as
    top * k / (points - 1), so the product top * (points - 1) must be
    finite: then so is every point, nudged values included."""
    if points < 2:
        raise ValueError(f"misreport grid needs points >= 2, got {points}")
    top = 2.0 * max(inst.values)
    if not math.isfinite(top * (points - 1)):
        raise NonFinite(f"misreport grid overflows: 2 * max(values) * (points - 1) is "
                        f"not finite for max(values) = {max(inst.values)!r}, points = {points}")
    grid = [top * k / (points - 1) for k in range(points)]
    for j, v in enumerate(inst.values):
        if j == player:
            continue
        eps = tol(v)
        grid.extend((max(v - eps, 0.0), v + eps))
    return grid


# The default solver, bound at import: `check_ic` sweeps each player's grid
# with `engine.solve_misreports` only when it is given this very function.
_SOLVE = engine.solve


def _deviations(inst: ValidatedInstance, i: int, grid: list[float], solver):
    """The outcomes of player i's misreports in `grid`, in grid order.

    With the default solver one `engine.solve_misreports` sweep gives them,
    bit for bit as `solve` would.  If the sweep raises, or for any other
    solver, each report is solved on its own, so the first report that
    raises does so as it would alone."""
    if solver is _SOLVE:
        try:
            return engine.solve_misreports(inst, i, grid)
        except Exception:
            pass
    return (solver(engine.misreport(inst, i, report)) for report in grid)


def check_ic(inst: ValidatedInstance, solver=_SOLVE, points: int = 50,
             slack: float = 1e-6) -> PropertyReport:
    """No player can gain more than `slack` by any grid misreport."""
    base = solver(inst)
    worst = 0.0
    witness = None
    for i in range(inst.n):
        truth = inst.values[i] * base.allocation[i] - base.payments[i]
        grid = misreport_grid(inst, i, points)
        for report, dev in zip(grid, _deviations(inst, i, grid, solver)):
            gain = (inst.values[i] * dev.allocation[i] - dev.payments[i]) - truth
            if gain > worst:
                worst = gain
                if gain > slack:
                    witness = _witness(inst, player=i, misreport=report, gain=gain)
    return PropertyReport("incentive-compatibility", "single instance", worst, witness)


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
    return PropertyReport("individual-rationality", "single instance", worst, witness)


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
    return PropertyReport("budget-feasibility", "single instance", worst, witness)


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
    import numpy as np  # only the Pareto search needs it

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
    if rng is None:
        import numpy as np
        rng = np.random.default_rng(0)
    char_viol, char_msg = _characterization_violation(inst, outcome)
    search_gain, search_hit = _search_improvement(inst, outcome, rng, candidates)
    details = (f"characterization: {'fail: ' + char_msg if char_msg else 'pass'}",
               f"search: {'fail, gain ' + repr(search_gain) if search_hit else 'pass'}")
    failed = char_msg is not None or search_hit is not None
    worst = max(char_viol, search_gain if search_hit else 0.0)
    witness = None
    if failed:
        witness = _witness(inst, characterization=char_msg, improvement=search_hit)
    return PropertyReport("pareto-optimality", "single instance", worst, witness, details)


# ---------------------------------------------------------------------------
# Supply monotonicity

def check_supply_monotonicity(values, budgets, supply_pairs,
                              slack: float = 1e-8) -> PropertyReport:
    """x, payments and utilities all grow with supply; the wishful
    allocation of the larger run dominates at every shared trace price.

    The value and budget profile is validated once, with the first pair,
    and each distinct supply is traced once, however many pairs share it.
    Each trace's wishful rows are then taken in one pass over the prices of
    every pair that compares it (`engine.wishful_rows`), and the pairs are
    compared in turn.
    """
    worst = 0.0
    witness = None
    profile = None
    traces: dict[float, EventTrace] = {}
    wanted: dict[float, set[float]] = {}  # supply -> the prices its trace is compared at
    compared = []
    for s_lo, s_hi in supply_pairs:
        if s_lo > s_hi:
            s_lo, s_hi = s_hi, s_lo
        if profile is None:
            profile = validate_instance(values=values, budgets=budgets, supply=s_lo)
        lo, hi = with_supply(profile, s_lo), with_supply(profile, s_hi)
        for inst in (lo, hi):
            if inst.supply not in traces:
                traces[inst.supply] = engine.trace(inst)
        events = traces[lo.supply].events + traces[hi.supply].events
        prices = sorted({ev.price for ev in events if ev.price > 0.0})
        for inst in (lo, hi):
            wanted.setdefault(inst.supply, set()).update(prices)
        compared.append((s_lo, s_hi, lo, hi, prices))
    rows = {}  # supply -> price -> wishful row
    for supply, ps in wanted.items():
        ps = sorted(ps)
        rows[supply] = dict(zip(ps, engine.wishful_rows(traces[supply], ps)))

    def fold(lo: ValidatedInstance, drops: list[float], quantities: tuple[str, ...],
             **where) -> None:
        """Take the drops into `worst` in turn; drop k is player
        k // len(quantities)'s quantities[k % len(quantities)] in `lo`."""
        nonlocal worst, witness
        for k, drop in enumerate(drops):
            if drop > worst:
                worst = drop
                if drop > slack:
                    i, q = divmod(k, len(quantities))
                    witness = _witness(lo, player=i, quantity=quantities[q], **where)

    for s_lo, s_hi, lo, hi, prices in compared:
        out_lo, out_hi = traces[lo.supply].outcome, traces[hi.supply].outcome
        drops = []
        for v, a, b, c, d in zip(lo.values, out_lo.allocation, out_hi.allocation,
                                 out_lo.payments, out_hi.payments):
            drops += (a - b, c - d, (v * a - c) - (v * b - d))
        if any(map(worst.__lt__, drops)):  # else no drop changes `worst` or the witness
            fold(lo, drops, ("allocation", "payment", "utility"), pair=[s_lo, s_hi])
        rows_lo, rows_hi = rows[lo.supply], rows[hi.supply]
        for p in prices:
            drops = list(map(sub, rows_lo[p], rows_hi[p]))
            if any(map(worst.__lt__, drops)):
                fold(lo, drops, ("wishful allocation",), price=p, pair=[s_lo, s_hi])
    return PropertyReport("supply-monotonicity", "single value/budget profile",
                          worst, witness)


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
    import numpy as np

    from . import oracle  # only this check needs the integrator

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
                          f"{len(errs_h)} instances at h={h:g}", worst, witness, details)


# ---------------------------------------------------------------------------
# `clinch check`: one property over a seeded corpus

# The CorpusSpec field that each generator key of --corpus sets; a key not
# given keeps the field's default.
_SPEC_FIELDS = dict(count="count", nmin="n_min", nmax="n_max", vmax="v_max",
                    bmin="b_min", bmax="b_max", smax="s_max")
_INT_KEYS = ("count", "nmin", "nmax", "points", "candidates", "pairs")
_MAX_BIDDERS = 10**6  # the most bidders a corpus may hold: it is drawn whole, into memory


# Per property: the --corpus defaults it sets itself, the keys it passes to
# its check as keywords (a key not given keeps the check's own default) and
# the check of one instance.  oracle checks the whole corpus at once and
# reads only its own keys.  The checks are looked up as they run, so a
# wrapper set on this module sees every call.
_CHECKS = {
    "ic": (dict(count=40, nmax=6), ("points",),
           lambda inst, rng, **kw: check_ic(inst, **kw)),
    "ir": (dict(count=400), (),
           lambda inst, rng, **kw: check_ir(inst, engine.solve(inst), **kw)),
    "budget": (dict(count=400), (),
               lambda inst, rng, **kw: check_budget(inst, engine.solve(inst), **kw)),
    "pareto": (dict(count=100), ("candidates",),
               lambda inst, rng, **kw: check_pareto(inst, engine.solve(inst), rng, **kw)),
    "monotone": (dict(count=100), ("pairs",), lambda inst, rng, pairs=3, **kw:
                 check_supply_monotonicity(inst.values, inst.budgets, [
                     (inst.supply * rng.random(), inst.supply) for _ in range(pairs)], **kw)),
    "oracle": (dict(count=40, h=1e-3), (), None),
}


def run_property(prop: str, seed: int, corpus: str | None, tolerance: float | None
                 ) -> PropertyReport:
    """`clinch check`: the property over its seeded corpus, as one merged
    report.  A usage error raises ValueError before anything is drawn."""
    defaults, keywords, check_one = _CHECKS[prop]
    reads = {*defaults} if check_one is None else {*_SPEC_FIELDS, *keywords}
    tokens = [t.partition("=") for t in (corpus or "").split(",") if t.strip()]
    given = {key.strip(): float(val) for key, _, val in tokens}
    for key, val in given.items():
        if key not in reads:
            raise ValueError(f"--corpus key {key!r} is not read by --property "
                             f"{prop}, which reads {', '.join(sorted(reads))}")
        if not math.isfinite(val):
            raise ValueError(f"--corpus {key} must be finite, got {val}")
        if key in _INT_KEYS and not val.is_integer():
            raise ValueError(f"--corpus {key} must be a whole number, got {val}")
    opts = {key: int(val) if key in _INT_KEYS else val
            for key, val in {**defaults, **given}.items()}
    for key in ("count", "pairs", "candidates", "nmin"):
        if opts.get(key, 1) < 1:
            raise ValueError(f"--corpus {key} must be at least 1, got {opts[key]}")
    if opts.get("nmax", 1) > _MAX_BIDDERS:
        raise ValueError(f"--corpus nmax must be at most {_MAX_BIDDERS}, got {opts['nmax']}")
    slack = {}
    if tolerance is not None:
        if not 0.0 <= tolerance < math.inf:
            raise ValueError(f"--tolerance must be a finite non-negative number, got "
                             f"{tolerance}")
        if prop == "pareto":
            raise ValueError("--tolerance does not apply to --property pareto: its "
                             "characterization and search slacks are fixed")
        slack["slack"] = tolerance

    spec = (oracle_corpus(seed=seed, count=opts["count"]) if check_one is None else
            CorpusSpec(seed=seed, **{field: opts[key] for key, field in _SPEC_FIELDS.items()
                                     if key in opts}))
    for bad, msg in (
            (spec.n_min > spec.n_max, f"nmin={spec.n_min} exceeds nmax={spec.n_max}"),
            (spec.b_min < 0.0, f"bmin must be non-negative, got {spec.b_min}"),
            (spec.b_min >= spec.b_max, f"bmin={spec.b_min} must be below bmax={spec.b_max}"),
            (spec.v_max <= 0.0, f"vmax must be positive, got {spec.v_max}"),
            (spec.s_max <= 0.0, f"smax must be positive, got {spec.s_max}"),
            (spec.count * spec.n_max > _MAX_BIDDERS, f"count={spec.count} of up to "
             f"{spec.n_max} bidders each exceeds {_MAX_BIDDERS} bidders")):
        if bad:
            raise ValueError(f"--corpus {msg}")

    if check_one is None:
        return check_oracle_agreement(random_instances(spec), h=opts["h"], **slack)
    if prop == "pareto":  # its search draws ziggurat normals
        import numpy as np
        rng = np.random.default_rng(seed)
    else:  # monotone's supply pairs; ic, ir and budget draw nothing
        rng = PCG64(seed)
    kw = {key: opts[key] for key in keywords if key in opts}
    reports = [check_one(inst, rng, **kw, **slack) for inst in random_instances(spec)]
    return merge_reports(reports[0].name, spec.describe(), reports)
