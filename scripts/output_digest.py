"""SHA-1 digests of the `clinch` command's output over a fixed manifest.

    PYTHONPATH=src python scripts/output_digest.py

Runs `cli.main` in process on each case and prints one line per case,
`<sha1>  <case>`, where the digest covers the exit status and stdout, then
`<sha1>  overall` over the case lines.  The manifest is:

- `solve` on the nine seed-1 `large-solve` inputs and `trace`, in json and
  table format, on the two seed-1 `large-trace` inputs;
- `stream` on the four seed-1 `stream-online` sessions of 1000 increments;
- `check --property P --seed S` for every property and seeds 0-4, in json
  and table format.

The benchmark inputs come from `perfbench/inputs.py`.  Only `cli.main` is
called, so two checkouts can be compared by running each one's copy:
a change that keeps every output byte prints the same lines.
`tests/output_digests.txt` holds this script's output for the whole
manifest, made with numpy 2.4.6: the `check` cases draw their corpora from
numpy's `default_rng`, whose streams numpy does not promise to keep across
versions.  A Tier-1 test recomputes the numpy-free `solve`, `trace` and
`stream` cases.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)

from clinch import cli  # noqa: E402

SEED = 1
SOLVE_PER_SIZE, TRACE_PER_SIZE = 3, 2  # instances per size in perfbench's workloads
PROPERTIES = ("ic", "ir", "budget", "pareto", "monotone", "oracle")
CHECK_SEEDS = range(5)


def manifest() -> list[tuple[str, dict | None, list[str], str]]:
    """(name, instance written to --input or None, argv, stdin) per case."""
    cases = []
    solve = inputs.large_instances(SEED, inputs.SOLVE_SIZES, SOLVE_PER_SIZE)
    for k, inst in enumerate(solve):
        cases.append((f"solve/large-{k}", inst, ["solve"], ""))
    for k, inst in enumerate(inputs.large_instances(SEED, inputs.TRACE_SIZES, TRACE_PER_SIZE)):
        for fmt in ("json", "table"):
            cases.append((f"trace/{fmt}/large-{k}", inst, ["trace", "--format", fmt], ""))
    for k, (inst, increments) in enumerate(inputs.stream_inputs(SEED)):
        lines = "".join(json.dumps({"supply": d}) + "\n" for d in increments)
        cases.append((f"stream/session-{k}", inst, ["stream"], lines))
    for prop in PROPERTIES:
        for seed in CHECK_SEEDS:
            for fmt in ("json", "table"):
                cases.append((f"check/{prop}/seed-{seed}/{fmt}", None,
                              ["check", "--property", prop, "--seed", str(seed),
                               "--format", fmt], ""))
    return cases


def run_case(inst: dict | None, argv: list[str], stdin: str, workdir: Path) -> str:
    """SHA-1 of the exit status and stdout of `clinch <argv>`."""
    if inst is not None:
        path = workdir / "input.json"
        path.write_text(json.dumps(inst))
        argv = [*argv, "--input", str(path)]
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return hashlib.sha1(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def digests(prefixes=()) -> list[str]:
    """The script's output lines for the cases named by `prefixes` (all if none)."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, inst, argv, stdin in manifest():
            if not prefixes or name.startswith(tuple(prefixes)):
                lines.append(f"{run_case(inst, argv, stdin, Path(tmp))}  {name}")
    overall = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    return lines + [f"{overall}  overall"]


if __name__ == "__main__":
    for line in digests():
        print(line, flush=True)
