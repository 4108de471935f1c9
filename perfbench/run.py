"""End-to-end benchmark of the `clinch` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is `src/clinch`
there.  With `--trace 0` every operation is a `clinch` process, one at a
time, and the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json.  With `--trace 1` the same operations run in
this interpreter through `clinch.cli.main(argv)`, with spans recorded
around each layer, and the metrics are the per-layer ones.  Every output is
checked; see verify.py.  The exit status is 2 when there is no program to
run, else 0.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"   # scratch inputs and span files; git ignores it
SETUP_PROBES = 5
IMPORT_PROBES = 7
SHOW_ERRORS = 10


def quantile(xs: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Tally:
    """Operations attempted and failed, latencies, and check errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.busy = 0.0
        self.peak_kb = 0
        self.errors: list[str] = []

    def record(self, op, res) -> None:
        self.attempted += op.count
        failed = op.count - res.answered if op.increments else 0
        if res.rc != 0:
            failed = max(failed, 1)
            self.errors.append(f"clinch {' '.join(op.argv[:3])} exited {res.rc}: "
                               f"{res.stderr.strip()[-300:]}")
        self.failed += failed
        self.latencies += res.latencies
        self.busy += res.wall
        self.peak_kb = max(self.peak_kb, res.peak_kb)
        if res.rc == 0:
            self.check(op, res)

    def check(self, op, res) -> None:
        try:
            errs = op.check(res.out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errs = [f"unreadable output: {exc!r}"]
        self.errors += [f"clinch {' '.join(op.argv[:3])}: {e}" for e in errs]


def run_rounds(runner, ops, seconds: float, tally: Tally) -> list[float]:
    """Whole rounds, at least one, until another would end more than half a
    round past `seconds`.  Returns the wall time of each round."""
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        for op in ops:
            tally.record(op, runner.run(op))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + walls[-1] / 2 > seconds:
            return walls


def untraced(w, seconds: float) -> tuple[Tally, dict]:
    from runners import ProcessRunner
    runner = ProcessRunner(str(SRC))
    tally = Tally()
    tally.errors += w.prepare(runner) + w.planted()
    setup = w.setup_op()
    runner.first_output(setup)  # fills the bytecode and file caches
    setups = []
    for _ in range(SETUP_PROBES):
        dt, res = runner.first_output(setup)
        setups.append(dt)
        if res.rc != 0:
            tally.errors.append(f"setup probe exited {res.rc}: {res.stderr.strip()[-300:]}")
        else:
            tally.check(setup, res)
    run_rounds(runner, w.round(), seconds, tally)
    lat = tally.latencies
    return tally, {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": tally.peak_kb / 1024,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": quantile(lat, 90) * 1e3,
        "ops_per_s": len(lat) / tally.busy,
    }


def import_ms() -> float:
    """`import clinch.cli` in a fresh interpreter, less a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def median_wall(code: str) -> float:
        walls = []
        for _ in range(IMPORT_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)

    median_wall("import clinch.cli")  # fills the bytecode cache
    return (median_wall("import clinch.cli") - median_wall("pass")) * 1e3


def traced(w, seconds: float, names: list[str]) -> tuple[Tally, dict]:
    import layers
    from clinch import cli
    from runners import InProcessRunner
    plain = InProcessRunner(cli.main)
    tally = Tally()
    tally.errors += w.prepare(plain) + w.planted()
    ops = w.round()
    summaries, plain_walls, traced_walls = [], [], []
    start = time.perf_counter()
    while True:  # alternate untraced and traced rounds; the gap is the overhead
        plain_walls += run_rounds(plain, ops, 0.0, tally)
        recorder = layers.Recorder()
        recorder.install()
        try:
            runner = InProcessRunner(recorder.wrap(layers.ROOT, cli.main))
            traced_walls += run_rounds(runner, ops, 0.0, tally)
        finally:
            recorder.uninstall()
        summaries.append(recorder.summary())
        if time.perf_counter() - start + plain_walls[-1] + traced_walls[-1] > seconds:
            break
    with open(OUT / f"spans-{w.name}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": recorder.spans}, fh)
    base = statistics.median(plain_walls)
    metrics = {name: statistics.median(s.get(name, 0.0) for s in summaries)
               for name in names}
    metrics["cli.import_ms"] = import_ms()
    metrics["tracing.overhead_pct"] = (statistics.median(traced_walls) - base) / base * 100
    return tally, metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clinch" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'clinch' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tally, values = traced(w, args.seconds, [m["name"] for m in metrics_spec])
        else:
            tally, values = untraced(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in tally.errors[:SHOW_ERRORS]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
