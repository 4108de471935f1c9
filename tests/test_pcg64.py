"""`clinch.pcg64.PCG64` draws what numpy's `default_rng` draws, so the
corpora that `clinch.checks` builds from it are the ones numpy built."""
import math
import random

import numpy as np
import pytest

from clinch import invariants
from clinch.checks import (
    CorpusSpec,
    oracle_corpus,
    property_corpus,
    random_instances,
    stratified_two_player,
)
from clinch.core import validate_instance
from clinch.pcg64 import PCG64

SEEDS = [*range(300), 2**32 - 1, 2**32, 2**40 + 5, 2**99 + 12345]
WIDE = 3 * 2**30  # a range whose Lemire draw rejects a quarter of its words


class Counting(PCG64):
    """A stream that counts the 32-bit words its bounded draws take."""

    def __init__(self, seed):
        super().__init__(seed)
        self.words = 0

    def _next32(self):
        self.words += 1
        return super()._next32()


def _draw(rng, kind: int, arg: int):
    if kind == 0:
        return rng.random()
    if kind == 1:
        return int(rng.integers(arg, arg + 1 + arg % 9))
    return int(rng.integers(0, WIDE))


def test_interleaved_draws_match_default_rng():
    # integers and random interleaved, so that a buffered half-word is
    # left across a random() and then used
    for seed in SEEDS:
        plan = random.Random(seed).choices(range(3), k=40)
        ref, ours = np.random.default_rng(seed), PCG64(seed)
        for k, kind in enumerate(plan):
            want, got = _draw(ref, kind, k), _draw(ours, kind, k)
            assert (type(got), got) == (type(want), want), (seed, k)


def test_wide_range_rejects_and_still_matches():
    ref, ours = np.random.default_rng(7), Counting(7)
    assert [ours.integers(0, WIDE) for _ in range(2000)] == \
        ref.integers(0, WIDE, size=2000).tolist()
    assert 2300 < ours.words < 2800  # 2000 draws at 3/4 acceptance: about 2667 words
    assert ours.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 5])
def test_a_one_value_range_takes_no_draw(seed):
    ours, fresh = PCG64(seed), np.random.default_rng(seed)
    assert [ours.integers(k, k + 1) for k in (-3, 0, 8)] == [-3, 0, 8]
    assert ours.random() == fresh.random()
    # nor does it use up the half-word that a bounded draw kept
    ours, ref = PCG64(seed), np.random.default_rng(seed)
    assert ours.integers(0, 2) == ref.integers(0, 2)
    assert ours.integers(4, 5) == ref.integers(4, 5) == 4
    assert ours.integers(0, 100) == ref.integers(0, 100)


@pytest.mark.parametrize("low, high", [(0, 0), (3, 1), (0, 2**32 + 1)])
def test_an_empty_or_too_wide_range_is_refused(low, high):
    with pytest.raises(ValueError, match="high - low"):
        PCG64(0).integers(low, high)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        PCG64(-1)


def _numpy_random_instances(spec):
    rng = np.random.default_rng(spec.seed)
    out = []
    for _ in range(spec.count):
        n = int(rng.integers(spec.n_min, spec.n_max + 1))
        vals = spec.v_max * (1.0 - rng.random(n))
        buds = spec.b_min + (spec.b_max - spec.b_min) * (1.0 - rng.random(n))
        s = spec.s_max * (1.0 - rng.random())
        out.append(validate_instance(values=vals, budgets=buds, supply=s))
    return out


def _numpy_stratified_two_player(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        regime = k % 6
        lo, hi = sorted(10.0 * (1.0 - rng.random(2)))
        v1, v2 = (lo, hi) if regime < 3 else (hi, lo)
        b2 = 0.05 + 4.95 * (1.0 - rng.random())
        b1 = b2 * (1.0 + 3.0 * rng.random())
        knee = b2 * math.exp(b1 / b2 - 1.0)
        u = rng.random()
        spend = (b2 * u, b2 + (knee - b2) * u, knee * (1.0 + 3.0 * u))[regime % 3]
        vals, buds = [v1, v2], [b1, b2]
        if rng.random() < 0.5:
            vals, buds = vals[::-1], buds[::-1]
        out.append(validate_instance(values=vals, budgets=buds, supply=spend / min(v1, v2)))
    return out


@pytest.mark.parametrize("spec", [
    property_corpus(3, 50), oracle_corpus(0, 50),
    CorpusSpec(count=50, n_min=3, n_max=40, v_max=7.5, b_min=0.25, b_max=3.0,
               s_max=2.0, seed=2**33 + 1)], ids=["property", "oracle", "wide-n"])
def test_random_instances_are_numpys(spec):
    assert random_instances(spec) == _numpy_random_instances(spec)


def test_stratified_two_player_is_numpys():
    assert stratified_two_player(0, 60) == _numpy_stratified_two_player(0, 60)


def test_interior_prices_are_numpys_linspace():
    assert invariants._INTERIOR == np.linspace(0.15, 0.85, 5).tolist()
