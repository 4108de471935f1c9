"""Engine cost as a curve over the number of bidders.

    PYTHONPATH=src python scripts/engine_curve.py

For each n in SIZES, draws three instances shaped like perfbench's large
workloads (values on a cent grid in [0.01, 10], budgets uniform in [0.5, 2],
supply n/100 times a factor in [0.75, 1.25]) from
`random.Random(f"curve-{SEED}-{n}")`, so every checkout gets the same
instances.  Each instance is solved and traced `reps` times, and one JSON
line per n reports the median `engine.solve` and `engine.trace` wall time in
milliseconds.  Only
`validate_instance`, `solve` and `trace` are called, so the script measures
any version of the package on the path.
"""
from __future__ import annotations

import json
import random
import statistics
import time

from clinch import engine
from clinch.core import validate_instance

SIZES = (2, 4, 8, 32, 128, 512, 1024, 2048)
SEED = 1
INSTANCES = 3


def instances(n: int) -> list:
    rng = random.Random(f"curve-{SEED}-{n}")
    return [validate_instance(values=[rng.randint(1, 1000) / 100 for _ in range(n)],
                              budgets=[rng.uniform(0.5, 2.0) for _ in range(n)],
                              supply=n / 100 * rng.uniform(0.75, 1.25))
            for _ in range(INSTANCES)]


def median_ms(fn, insts: list, reps: int) -> float:
    times = []
    for _ in range(reps):
        for inst in insts:
            t0 = time.perf_counter()
            fn(inst)
            times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> None:
    for n in SIZES:
        insts = instances(n)
        reps = max(3, 4096 // n)
        print(json.dumps({"n": n, "instances": len(insts), "reps": reps,
                          "solve_ms": round(median_ms(engine.solve, insts, reps), 4),
                          "trace_ms": round(median_ms(engine.trace, insts, reps), 4)}),
              flush=True)


if __name__ == "__main__":
    main()
