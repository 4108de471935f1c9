"""Differential test: the compressed engine against the frozen quadratic loop.

For every instance of each corpus both engines must raise the same
exception class, or else agree on every allocation and payment within
1e-11 * max(1, |a|, |b|).  On instances shaped like the benchmark's (and
on a cent-grid corpus with repeated budgets) traces must also have the same
event kinds, players, active and clinching sets, with every number within
the same bound.
"""
import math
import random

import numpy as np
import pytest

import reference_engine
from clinch import engine
from clinch.checks import (
    oracle_corpus,
    property_corpus,
    random_instances,
    stratified_two_player,
    verify_trace,
)
from clinch.core import AuctionError, validate_instance

RTOL = 1e-11


def _cent_grid(seed: int, count: int) -> list:
    """Cent-grid values and budgets drawn from a pool of four, n in [2, 64]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 64)
        pool = [rng.randint(50, 200) / 100 for _ in range(4)]
        out.append(validate_instance(
            values=[rng.randint(1, 1000) / 100 for _ in range(n)],
            budgets=[rng.choice(pool) for _ in range(n)],
            supply=n / 100 * rng.uniform(0.2, 3.0)))
    return out


def _wide_budgets() -> list:
    """Budgets log-uniform over [1, 500]; the oversell regression's corpus."""
    out = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = 96
        values = rng.uniform(0.05, 5, n)
        budgets = np.exp(rng.uniform(0, math.log(500), n))
        out.append(validate_instance(values=values, budgets=budgets,
                                     supply=rng.uniform(100, 5000)))
    return out


def _degenerate(seed: int, count: int) -> list:
    """Zero values, zero budgets, zero supply and ties, n in [1, 6]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        out.append(validate_instance(
            values=[rng.choice([0, 1, 2, 2.5, 3]) for _ in range(n)],
            budgets=[rng.choice([0, 0.5, 1, 3.11]) for _ in range(n)],
            supply=rng.choice([0, 0.5, 1, 3, 40, 3412])))
    return out


def _benchmark_shaped(sizes) -> list:
    """Drawn like the benchmark's large workloads: cent-grid values, budgets
    uniform in [0.5, 2], supply near n/100."""
    rng = random.Random(2024)
    return [validate_instance(values=[rng.randint(1, 1000) / 100 for _ in range(n)],
                              budgets=[rng.uniform(0.5, 2.0) for _ in range(n)],
                              supply=n / 100 * rng.uniform(0.75, 1.25))
            for n in sizes]


CORPORA = {
    "property-0": lambda: random_instances(property_corpus(0, 1000)),
    "property-3": lambda: random_instances(property_corpus(3, 300)),
    "oracle-0": lambda: random_instances(oracle_corpus(0, 300)),
    "stratified-0": lambda: stratified_two_player(0, 3000),
    "cent-grid": lambda: _cent_grid(0, 300),
    "wide-budgets": _wide_budgets,
    "degenerate": lambda: _degenerate(5, 3000),
    "benchmark-shaped": lambda: _benchmark_shaped((512, 512, 512, 1024, 1024, 1024)),
}


def _attempt(solver, inst):
    try:
        return solver(inst)
    except AuctionError as exc:
        return type(exc)


def _deviation(a: tuple, b: tuple) -> float:
    return max((abs(u - v) / max(1.0, abs(u), abs(v)) for u, v in zip(a, b)),
               default=0.0)


@pytest.mark.parametrize("name", CORPORA)
def test_outcomes_match_the_reference_loop(name):
    worst = 0.0
    for inst in CORPORA[name]():
        new = _attempt(engine.solve, inst)
        old = _attempt(reference_engine.solve, inst)
        if isinstance(new, type) or isinstance(old, type):
            assert new is old, (inst, new, old)
            continue
        worst = max(worst, _deviation(new.allocation + new.payments,
                                      old.allocation + old.payments))
    assert worst <= RTOL, f"{name}: largest deviation {worst:.3g}"


def _shape(tr) -> list:
    return [(ev.kind, ev.players, ev.after.active, ev.after.clinching)
            for ev in tr.events]


def _numbers(tr) -> np.ndarray:
    return np.array([(ev.price, ev.after.supply) + ev.after.allocation
                     + ev.after.budgets + ev.delta_x + ev.delta_pay
                     for ev in tr.events]).ravel()


@pytest.mark.parametrize("name", ["cent-grid", "benchmark-shaped"])
def test_traces_match_the_reference_loop(name):
    insts = CORPORA[name]()
    for inst in insts[::3] if name == "benchmark-shaped" else insts:
        new, old = engine.trace(inst), reference_engine.trace(inst)
        assert _shape(new) == _shape(old)
        a, b = _numbers(new), _numbers(old)
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        assert np.max(np.abs(a - b) / scale, initial=0.0) <= RTOL
        assert new.outcome == engine.solve(inst)


@pytest.mark.parametrize("name, count", [("cent-grid", 50), ("wide-budgets", 5)])
def test_traces_pass_the_trace_check(name, count):
    """Repeated budgets at n <= 64 and n = 96 traces keep every trace law."""
    for inst in CORPORA[name]()[:count]:
        assert verify_trace(engine.trace(inst)) == [], inst


def test_outsider_budget_sum_does_not_drift():
    """`_Run` takes each outsider's budget off a running sum as it joins or
    exits.  Plain subtraction drifts with n: on the benchmark-shaped draws it
    moves outcomes 2.1e-12 from the reference loop, against 7.5e-14 with the
    compensated sum."""
    worst = 0.0
    for inst in CORPORA["benchmark-shaped"]():
        new, old = engine.solve(inst), reference_engine.solve(inst)
        worst = max(worst, _deviation(new.allocation + new.payments,
                                      old.allocation + old.payments))
    assert worst <= 1e-12, f"largest deviation {worst:.3g}"
