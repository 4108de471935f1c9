"""Reference figures for README.md: solve and trace time against n, and where
`import clinch.cli` spends its time.

    python3 perfbench/reference.py

Run from the root of a checkout.  Instances come from the large-auction
generator in inputs.py (seed 0).  In-process times are medians of repeated
calls; process times are medians of `clinch` runs with the output read.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from runners import ENTRY  # noqa: E402

SIZES = (2, 8, 32, 128, 512, 2048)
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def median_time(fn, budget: float = 2.0, most: int = 200) -> float:
    walls = []
    start = time.perf_counter()
    while len(walls) < most and (len(walls) < 3 or time.perf_counter() - start < budget):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def process_time(argv: list[str]) -> tuple[float, int]:
    """Median wall time of a `clinch` process and the bytes it prints."""
    def run():
        run.out = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=ENV,
                                 capture_output=True, check=True).stdout
    return median_time(run, budget=6.0, most=5), len(run.out)


def scaling() -> None:
    from clinch import engine, validate_instance
    print("| n | events | engine.solve ms | engine.trace ms | clinch solve s "
          "| clinch trace s | trace output MB |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            doc = inputs.large_instances(0, (n,), 1)[0]
            inst = validate_instance(values=doc["values"], budgets=doc["budgets"],
                                     supply=doc["supply"])
            path = Path(tmp) / f"n{n}.json"
            path.write_text(json.dumps(doc))
            solve_ms = median_time(lambda: engine.solve(inst)) * 1e3
            trace_ms = median_time(lambda: engine.trace(inst)) * 1e3
            events = len(engine.trace(inst).events)
            solve_s, _ = process_time(["solve", "--input", str(path)])
            trace_s, size = process_time(["trace", "--input", str(path)])
            print(f"| {n} | {events} | {solve_ms:.3g} | {trace_ms:.3g} | {solve_s:.3f} "
                  f"| {trace_s:.3f} | {size / 1e6:.3g} |")


def import_breakdown() -> None:
    """Cumulative import time of clinch's modules and the libraries they pull in."""
    code = "import clinch.cli"
    subprocess.run([sys.executable, "-c", code], env=ENV, check=True)  # bytecode cache
    runs = []
    for _ in range(5):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=ENV,
                             capture_output=True, text=True, check=True).stderr
        cumulative = {}
        for line in err.splitlines()[1:]:
            cum, name = (part.strip() for part in line.split("|")[1:])
            if name.startswith("clinch") or name in ("numpy", "argparse", "json"):
                cumulative.setdefault(name, int(cum) / 1e3)
        runs.append(cumulative)
    print("| module | cumulative import ms (median of 5) |")
    print("| --- | --- |")
    for name in sorted(runs[0], key=lambda k: -runs[0][k]):
        ms = statistics.median(r.get(name, 0.0) for r in runs)
        if ms >= 1.0:
            print(f"| {name} | {ms:.1f} |")


if __name__ == "__main__":
    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs\n")
    scaling()
    print()
    import_breakdown()
