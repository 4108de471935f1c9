"""The benchmark's output checks accept real clinch output and reject planted
faults.  Run from the repository root:

    python3 -m pytest perfbench/test_verify.py
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import verify  # noqa: E402
from clinch import cli  # noqa: E402
from runners import InProcessRunner, Op  # noqa: E402

INST = {"values": [9.0, 10.0, 11.0, 5.7, 10.0], "budgets": [3.0, 2.0, 1.0, 0.5, 1.5],
        "supply": 1.0}


def clinch(tmp_path, argv, doc=None, increments=()):
    if doc is not None:
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--input", str(path)]
    res = InProcessRunner(cli.main).run(Op(argv, None, list(increments)))
    assert res.rc == 0, res.stderr
    return res.out


@pytest.fixture
def solved(tmp_path):
    return json.loads(clinch(tmp_path, ["solve"], INST))


@pytest.fixture
def stream(tmp_path):
    inst, increments = inputs.stream_inputs(seed=3)[0]
    increments = increments[:40]
    lines = [json.dumps({"supply": d}) + "\n" for d in increments]
    text = clinch(tmp_path, ["stream"], inst, lines)
    return inst, increments, [json.loads(line) for line in text.splitlines()]


def test_real_outputs_pass(tmp_path, solved, stream):
    assert verify.check_outcome(INST, solved["x"], solved["pi"]) == []
    lines = [json.loads(s) for s in clinch(tmp_path, ["trace"], INST).splitlines()]
    assert verify.check_trace(INST, lines, solved) == []
    inst, increments, replies = stream
    assert verify.check_stream(inst, increments, replies) == []
    report = clinch(tmp_path, ["check", "--property", "ic", "--corpus", "count=2"])
    assert verify.check_reports(report, "incentive-compatibility", 2) == []


def test_negative_stream_delta_is_rejected(stream):
    inst, increments, replies = stream
    bad = copy.deepcopy(replies)
    k = next(k for k, r in enumerate(bad) if any(r["delta_x"]))
    i = next(i for i, d in enumerate(bad[k]["delta_x"]) if d)
    bad[k]["delta_x"][i] = -bad[k]["delta_x"][i]
    assert verify.check_stream(inst, increments, bad)


def test_oversold_solve_is_rejected(solved):
    x = [v * 1.01 for v in solved["x"]]
    errors = verify.check_outcome(INST, x, solved["pi"])
    assert any("sells" in e for e in errors)


def test_trace_ending_off_its_solve_is_rejected(tmp_path, solved):
    lines = [json.loads(s) for s in clinch(tmp_path, ["trace"], INST).splitlines()]
    final = lines[-1]
    i, j = final["x"].index(max(final["x"])), final["x"].index(min(final["x"]))
    final["x"][i], final["x"][j] = final["x"][j], final["x"][i]
    errors = verify.check_trace(INST, lines, solved)
    assert any("vs solve" in e for e in errors)


def test_failed_check_report_is_rejected(tmp_path):
    report = json.loads(clinch(tmp_path, ["check", "--property", "ic", "--corpus", "count=2"]))
    report[0].update(passed=False, witness={"player": 0})
    assert verify.check_reports(json.dumps(report), "incentive-compatibility", 2)
