"""VCG reference auctions for online-supply comparisons.

Three baselines: plain multi-unit VCG (monotone in supply, the benign
case), VCG over a polymatroid environment (monotone along Minkowski-sum
augmentations, additive across summands), and VCG with per-player
capacity caps (allocation monotone but payments not: the two-player cap
demo reproduces the payment collapse that rules capped utilities out of
incrementally-charged supply).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import OracleViolation, Outcome, validate_instance

# the monotonicity slack of `SubmodularOracle.check` and `vcg_polymatroid`
CHECK_TOL = 1e-9
CHECK_TRIALS = 200  # `SubmodularOracle.check`'s random triples above 12 players
EMPTY_TOL = 1e-12  # the largest capacity the empty set may report


@dataclass
class SubmodularOracle:
    """Capacity oracle f: subset of players -> feasible units.

    Wraps an arbitrary callback with memoization; f(empty) must be 0.
    `check()` verifies monotonicity and submodularity, exhaustively for
    n <= 12 and by `CHECK_TRIALS` seeded random triples otherwise (the
    exhaustive check is exponential in n).
    """

    n: int
    fn: Callable[[frozenset], float]
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if abs(self.fn(frozenset())) > EMPTY_TOL:
            raise OracleViolation("capacity of the empty set must be 0")

    def value(self, subset: frozenset) -> float:
        got = self._memo.get(subset)
        if got is None:
            got = self._memo[subset] = float(self.fn(subset))
        return got

    def check(self) -> None:
        """Raise OracleViolation if monotonicity or submodularity fails by
        more than `CHECK_TOL`."""
        players = list(range(self.n))
        if self.n <= 12:
            subsets = [frozenset(c) for r in range(self.n + 1)
                       for c in itertools.combinations(players, r)]
            for s in subsets:
                fs = self.value(s)
                for i in players:
                    if i in s:
                        continue
                    gain = self.value(s | {i}) - fs
                    if gain < -CHECK_TOL:
                        raise OracleViolation(f"not monotone at {sorted(s)} + {i}")
                    for j in players:
                        if j in s or j == i:
                            continue
                        bigger = self.value(s | {j} | {i}) - self.value(s | {j})
                        if bigger > gain + CHECK_TOL:
                            raise OracleViolation(
                                f"not submodular: adding {i} to {sorted(s)} vs +{j}")
            return
        rng = np.random.default_rng(0)
        for _ in range(CHECK_TRIALS):
            mask = rng.random(self.n) < rng.random()
            s = frozenset(np.flatnonzero(mask).tolist())
            rest = [i for i in players if i not in s]
            if len(rest) < 2:
                continue
            i, j = rng.choice(rest, size=2, replace=False).tolist()
            gain = self.value(s | {i}) - self.value(s)
            if gain < -CHECK_TOL:
                raise OracleViolation(f"not monotone at {sorted(s)} + {i}")
            if self.value(s | {j} | {i}) - self.value(s | {j}) > gain + CHECK_TOL:
                raise OracleViolation(f"not submodular at {sorted(s)} with {i},{j}")


def oracle_from_table(n: int, table: dict) -> SubmodularOracle:
    """Oracle from an explicit {"i,j,...": units} mapping (n <= 12).

    Keys are comma-joined ascending player indices; the empty key (or a
    missing one) is the empty set with capacity 0.
    """
    if n > 12:
        raise ValueError("explicit tables are limited to 12 players")
    parsed = {}
    for key, units in table.items():
        ids = frozenset(int(tok) for tok in key.split(",") if tok.strip() != "")
        if any(i < 0 or i >= n for i in ids):
            raise ValueError(f"table key {key!r} names a player out of range")
        parsed[ids] = float(units)

    def fn(subset: frozenset) -> float:
        if subset in parsed:
            return parsed[subset]
        if not subset:
            return 0.0
        raise OracleViolation(f"table has no entry for subset {sorted(subset)}")

    return SubmodularOracle(n, fn)


def multiunit_oracle(n: int, supply: float) -> SubmodularOracle:
    """The plain multi-unit environment: any non-empty set can absorb s units."""
    return SubmodularOracle(n, lambda sub: float(supply) if sub else 0.0)


def capped_oracle(n: int, caps, supply: float) -> SubmodularOracle:
    """Capacitated multi-unit environment: min(s, sum of caps in the set)."""
    caps = [float(c) for c in caps]
    return SubmodularOracle(n, lambda sub: min(float(supply),
                                               sum(caps[i] for i in sub)))


def _by_value(values) -> list[int]:
    return sorted(range(len(values)), key=lambda i: (-values[i], i))


def vcg_multiunit(values, supply: float) -> Outcome:
    """All supply to the highest-value player at the second-highest unit price."""
    inst = validate_instance(values=values, budgets=[0.0] * len(values), supply=supply)
    order = _by_value(inst.values)
    n = inst.n
    x = [0.0] * n
    pay = [0.0] * n
    if inst.supply > 0.0 and n > 0:
        win = order[0]
        x[win] = inst.supply
        if n > 1:
            pay[win] = inst.values[order[1]] * inst.supply
    return Outcome(tuple(x), tuple(pay))


def vcg_polymatroid(values, oracle: SubmodularOracle) -> Outcome:
    """Greedy marginal allocation in value order with Clarke payments.

    Sorts players by value (ties by index), allocates each the marginal
    capacity of the prefix, and charges the externality terms evaluated on
    prefix sets with the payer removed.
    """
    values = [float(v) for v in values]
    n = len(values)
    if n != oracle.n:
        raise ValueError(f"{n} values for an oracle over {oracle.n} players")
    order = _by_value(values)
    prefix = [frozenset()]
    for i in order:
        prefix.append(prefix[-1] | {i})
    x_rank = []
    for r in range(n):
        marginal = oracle.value(prefix[r + 1]) - oracle.value(prefix[r])
        if marginal < -CHECK_TOL:
            raise OracleViolation(f"negative marginal for rank {r}")
        x_rank.append(marginal)

    pay_rank = [0.0] * n
    for r in range(n - 1):
        me = order[r]
        v_next = values[order[r + 1]]
        head = v_next * (oracle.value(prefix[r + 2] - {me}) - oracle.value(prefix[r])
                         - x_rank[r + 1])
        tail = 0.0
        for q in range(r + 2, n):
            tail += values[order[q]] * (oracle.value(prefix[q + 1] - {me})
                                        - oracle.value(prefix[q] - {me}) - x_rank[q])
        pay_rank[r] = head + tail

    x = [0.0] * n
    pay = [0.0] * n
    for r, i in enumerate(order):
        x[i] = x_rank[r]
        pay[i] = max(pay_rank[r], 0.0)
    return Outcome(tuple(x), tuple(pay))


def _capped_greedy(values, caps, supply: float, players) -> list[float]:
    x = [0.0] * len(values)
    rem = supply
    for i in sorted(players, key=lambda i: (-values[i], i)):
        if rem <= 0.0:
            break
        take = min(caps[i], rem)
        x[i] = take
        rem -= take
    return x


def vcg_capacity_demo(values, caps, supply: float) -> Outcome:
    """Efficient allocation under capped utilities with Clarke payments.

    The fixture behind the capped counterexample: allocation is monotone
    in supply but payments are not, so no online charging scheme can sit
    on top of it.
    """
    values = [float(v) for v in values]
    caps = [float(c) for c in caps]
    if len(caps) != len(values):
        raise ValueError(f"{len(values)} values vs {len(caps)} caps")
    if not all(0.0 <= c < math.inf for c in caps):
        raise ValueError(f"caps must be finite and non-negative, got {caps}")
    if any(v < 0 for v in values) or supply < 0:
        raise ValueError("values and supply must be non-negative")
    n = len(values)
    everyone = range(n)
    x = _capped_greedy(values, caps, supply, everyone)
    pay = []
    for i in everyone:
        others = [j for j in everyone if j != i]
        alone = _capped_greedy(values, caps, supply, others)
        best_without = sum(values[j] * alone[j] for j in others)
        got_with = sum(values[j] * x[j] for j in others)
        pay.append(max(best_without - got_with, 0.0))
    return Outcome(tuple(x), tuple(pay))
