"""Engine cost as a curve over the number of bidders.

    PYTHONPATH=src python scripts/engine_curve.py

For each n in SIZES, draws three instances shaped like perfbench's large
workloads (values on a cent grid in [0.01, 10], budgets uniform in [0.5, 2],
supply n/100 times a factor in [0.75, 1.25]) from
`random.Random(f"curve-{SEED}-{n}")`, so every checkout gets the same
instances.  Each instance is solved and traced `reps` times, and one JSON
line per n reports the median wall time in milliseconds of `engine.solve`,
`engine.trace` and the `clinch trace` command in process
(`cli.main(["trace", ...])` on the instance written to a temporary file,
its output sent to os.devnull).  Only `validate_instance`,
`instance_to_json`, `solve`, `trace` and `cli.main` are called, so the
script measures any version of the package on the path.
"""
from __future__ import annotations

import contextlib
import json
import os
import random
import statistics
import tempfile
import time

from clinch import cli, engine
from clinch.core import instance_to_json, validate_instance

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


def cli_trace(path: str) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        cli.main(["trace", "--input", path])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            insts = instances(n)
            paths = []
            for k, inst in enumerate(insts):
                paths.append(os.path.join(tmp, f"{n}-{k}.json"))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    fh.write(instance_to_json(inst))
            reps = max(3, 4096 // n)
            print(json.dumps({
                "n": n, "instances": len(insts), "reps": reps,
                "solve_ms": round(median_ms(engine.solve, insts, reps), 4),
                "trace_ms": round(median_ms(engine.trace, insts, reps), 4),
                "cli_trace_ms": round(median_ms(cli_trace, paths, reps), 4)}),
                flush=True)


if __name__ == "__main__":
    main()
