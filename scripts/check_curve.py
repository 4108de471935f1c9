"""Property-check cost per call as a curve over the number of bidders.

    PYTHONPATH=src python scripts/check_curve.py

For each n in SIZES, draws INSTANCES instances with `checks.random_instances`
at fixed seeds: the property corpus's ranges for `check_ic`, `check_pareto`
and `check_supply_monotonicity`, and the oracle corpus's ranges for
`oracle.solve_euler`.  One JSON line per n reports the median wall time in
milliseconds of one call of each, with the arguments `clinch check` passes
by default: 50 grid points for `check_ic`, 1000 candidates and one
generator shared across the instances for `check_pareto` (the engine's
outcome is solved outside the timed call), three supply pairs (s*u, s) for
`check_supply_monotonicity` and h = 1e-3 for `solve_euler`.  Only public
names that predate this script are called, so it measures any version of
the package on the path.
"""
from __future__ import annotations

import json
import statistics
import time

import numpy as np

from clinch import checks, engine, oracle

SIZES = range(2, 9)
SEED = 1
INSTANCES = 10
REPS = 3


def corpora(n: int) -> tuple[list, list]:
    prop = checks.CorpusSpec(count=INSTANCES, n_min=n, n_max=n, seed=SEED)
    orc = checks.CorpusSpec(count=INSTANCES, n_min=n, n_max=n, v_max=10.0, b_min=0.5,
                            b_max=2.0, s_max=1.5, seed=SEED)
    return checks.random_instances(prop), checks.random_instances(orc)


def median_ms(calls: list) -> float:
    times = []
    for _ in range(REPS):
        for call in calls:
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> None:
    for n in SIZES:
        insts, oracle_insts = corpora(n)
        rng = np.random.default_rng(SEED)
        outcomes = [engine.solve(inst) for inst in insts]
        pairs = [[(inst.supply * rng.random(), inst.supply) for _ in range(3)]
                 for inst in insts]
        print(json.dumps({
            "n": n, "instances": INSTANCES, "reps": REPS,
            "check_ic_ms": round(median_ms(
                [lambda inst=inst: checks.check_ic(inst) for inst in insts]), 3),
            "check_pareto_ms": round(median_ms(
                [lambda inst=inst, out=out: checks.check_pareto(inst, out, rng)
                 for inst, out in zip(insts, outcomes)]), 3),
            "check_supply_monotonicity_ms": round(median_ms(
                [lambda inst=inst, p=p: checks.check_supply_monotonicity(
                    inst.values, inst.budgets, p) for inst, p in zip(insts, pairs)]), 3),
            "solve_euler_ms": round(median_ms(
                [lambda inst=inst: oracle.solve_euler(inst, 1e-3)
                 for inst in oracle_insts]), 3)}), flush=True)


if __name__ == "__main__":
    main()
