"""Start-up cost of the `clinch` command, as wall times of whole processes.

    PYTHONPATH=src python scripts/startup_curve.py [--reps N]

Times nine cases, each a fresh interpreter started with
PYTHONDONTWRITEBYTECODE=1, as the benchmark runs them:

- `pass`: a bare interpreter;
- `import`: `import clinch.cli`;
- `solve-two`: `clinch solve` on perfbench's two-bidder start-up input;
- `solve-1024`: `clinch solve` on the first n=1024 instance of the seed-1
  `large-solve` draw;
- `trace-two`: `clinch trace` on the same two-bidder input, the
  `large-trace` workload's start-up operation;
- `stream-one`: `clinch stream` on the first seed-1 `stream-online` bidder
  set, fed its first increment;
- `check-ic-one`: `clinch check --property ic` on one two-bidder instance,
  the argv of the `property-check` workload's start-up operation, which
  loads no numpy;
- `check-pareto-one`: the same for `--property pareto`, which loads numpy;
- `vcg-multiunit`: `clinch vcg --family multiunit` on the two-bidder input.

The inputs are read through `perfbench/inputs.py` and not edited.  The
commands run as the console script runs them (`sys.exit(main())`), with
their output sent to os.devnull.  Each of `reps` rounds (default 25) runs
every case once, in the order above, so that a drift of the host's speed
reaches all cases alike.  One JSON line per case reports the median and
the quartiles of its wall times in milliseconds.  A bytecode cache that an
earlier run left under the package is read, so run it on a clean checkout
to time what a fresh install pays.  Only `clinch.cli.main` is called, so
the script measures any version of the package on the path.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)

import clinch  # noqa: E402  (only to find the package the processes import)

SEED = 1
REPS = 25
ENTRY = "import sys\nfrom clinch.cli import main\nsys.exit(main())"


def cases(tmp: Path) -> dict[str, tuple[list[str], str]]:
    """Name -> (interpreter arguments, stdin) of each case."""
    def write(name: str, doc: dict) -> str:
        path = tmp / name
        path.write_text(json.dumps(doc))
        return str(path)

    two = write("two.json", inputs.TWO_BIDDERS)
    large = inputs.large_instances(SEED, inputs.SOLVE_SIZES, 3)
    n1024 = write("n1024.json", next(d for d in large if len(d["values"]) == 1024))
    bidders, increments = inputs.stream_inputs(SEED)[0]
    stream = write("stream.json", bidders)
    one = ["--corpus", "count=1,nmin=2,nmax=2"]  # one instance of two bidders
    return {
        "pass": (["-c", "pass"], ""),
        "import": (["-c", "import clinch.cli"], ""),
        "solve-two": (["-c", ENTRY, "solve", "--input", two], ""),
        "solve-1024": (["-c", ENTRY, "solve", "--input", n1024], ""),
        "trace-two": (["-c", ENTRY, "trace", "--input", two], ""),
        "stream-one": (["-c", ENTRY, "stream", "--input", stream],
                       json.dumps({"supply": increments[0]}) + "\n"),
        "check-ic-one": (["-c", ENTRY, "check", "--property", "ic", *one], ""),
        "check-pareto-one": (["-c", ENTRY, "check", "--property", "pareto", *one], ""),
        "vcg-multiunit": (["-c", ENTRY, "vcg", "--family", "multiunit", "--input", two], ""),
    }


def wall_ms(args: list[str], stdin: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], input=stdin, text=True, env=env,
                   stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - t0) * 1e3


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=REPS, help="rounds over the cases")
    reps = parser.parse_args(argv).reps
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(clinch.__file__).resolve().parents[1]))
    with tempfile.TemporaryDirectory() as tmp:
        todo = cases(Path(tmp))
        times: dict[str, list[float]] = {name: [] for name in todo}
        for _ in range(reps):
            for name, (args, stdin) in todo.items():
                times[name].append(wall_ms(args, stdin, env))
    for name, ms in times.items():
        q1, med, q3 = statistics.quantiles(ms, n=4, method="inclusive") if reps > 1 else ms * 3
        print(json.dumps({"case": name, "reps": reps, "median_ms": round(med, 2),
                          "q1_ms": round(q1, 2), "q3_ms": round(q3, 2)}), flush=True)


if __name__ == "__main__":
    main()
