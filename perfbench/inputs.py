"""Seeded inputs for every workload.

Only the standard library's `random.Random` draws them, so a seed gives the
same inputs whatever numpy version the program under test runs on.  The
program receives the result as JSON text and nothing else.
"""
from __future__ import annotations

import math
import random

# stream-online: tens of bidders on a cent grid, budgets of order one, and
# small log-uniform increments; 1000 of them end near a supply of 14.  Each
# session of a round has its own bidder set, so that one draw of bidders
# does not set the whole run's figures.
STREAM_SESSIONS = 4
STREAM_BIDDERS = 48
STREAM_INCREMENTS = 1000
INCREMENT_RANGE = (1e-4, 1e-1)

# large-solve / large-trace: fixed sizes, so the seed moves only the draw
# and not the amount of work.  Supply near n/100 sells out before the clock
# passes most values, so nearly every bidder exits as its own event.  A
# trace at n=1024 prints about 31 MB and takes seconds, and its time swings
# with the host's memory behaviour, so large-trace runs two instances of one
# size: their median is their mean.
SOLVE_SIZES = (512, 768, 1024)
TRACE_SIZES = (1024,)

# property-check: one clinch check process per property and bidder count n
# in [2, 8].  The corpus size at each n is chosen so that every process
# checks for about 0.55 s on the reference machine (see README.md).  The
# processes of a round then take about the same time, so their median does
# not hinge on one property, n or seed.  The counts are constants: a change
# that makes one n cheaper shows as a shorter process.
CHECK_SIZES = range(2, 9)
CHECK_COUNTS = {
    "ic": {2: 123, 3: 55, 4: 29, 5: 20, 6: 13, 7: 10, 8: 7},
    "pareto": {n: 21 for n in CHECK_SIZES},
    "monotone": {2: 630, 3: 425, 4: 340, 5: 290, 6: 245, 7: 210, 8: 200},
}
# The oracle corpus fixes its own make-up (n in [2, 6]), so its processes
# differ only in their seeds.
ORACLE_COUNT, ORACLE_PROCESSES = 300, 4


def cent_values(rng: random.Random, n: int) -> list[float]:
    """Values on a cent grid in [0.01, 10]: bit-equal ties are common."""
    return [rng.randint(1, 1000) / 100 for _ in range(n)]


def budgets(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.5, 2.0) for _ in range(n)]


def stream_inputs(seed: int) -> list[tuple[dict, list[float]]]:
    """Bidder set (supply 0) and supply increments of each session."""
    rng = random.Random(f"stream-{seed}")
    n = STREAM_BIDDERS
    lo, hi = map(math.log, INCREMENT_RANGE)
    sessions = []
    for _ in range(STREAM_SESSIONS):
        inst = {"values": cent_values(rng, n), "budgets": budgets(rng, n), "supply": 0.0}
        sessions.append((inst, [math.exp(rng.uniform(lo, hi))
                                for _ in range(STREAM_INCREMENTS)]))
    return sessions


def large_instances(seed: int, sizes: tuple[int, ...], per_size: int) -> list[dict]:
    """`per_size` instances at each of `sizes` bidders."""
    rng = random.Random(f"large-{seed}")
    out = []
    for n in sizes:
        for _ in range(per_size):
            out.append({"values": cent_values(rng, n), "budgets": budgets(rng, n),
                        "supply": n / 100 * rng.uniform(0.75, 1.25)})
    return out


def sub_seeds(seed: int, label: str, count: int) -> list[int]:
    """Seeds handed to `clinch check --seed`, derived from the run's seed."""
    rng = random.Random(f"{label}-{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


# Smallest inputs, used only to time start-up.  They are fixed so that
# setup_s does not move with the seed.
TWO_BIDDERS = {"values": [2.0, 1.0], "budgets": [1.0, 1.0], "supply": 1.0}
