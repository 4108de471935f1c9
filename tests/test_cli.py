import argparse
import contextlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import clinch
from clinch import checks
from clinch.cli import build_parser, main
from clinch.core import dumps


@pytest.fixture()
def showcase_file(tmp_path):
    path = tmp_path / "showcase.json"
    path.write_text(dumps({"values": [9, 10, 11, 5.7], "budgets": [3, 2, 1, 0.5],
                           "supply": 1}))
    return str(path)


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(dumps({"values": [1, 2], "budgets": [3, 2], "supply": 1}))
    return str(path)


@pytest.fixture()
def no_draws(monkeypatch):
    """Make `clinch check` fail the test if it starts to draw a corpus."""
    def draw(*args):
        raise AssertionError("drew a corpus")

    monkeypatch.setattr(checks, "random_instances", draw)
    monkeypatch.setattr(checks, "PCG64", draw)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_outputs_outcome_json(self, capsys, showcase_file):
        code, out, _ = run(capsys, "solve", "--input", showcase_file)
        assert code == 0
        doc = json.loads(out)
        assert abs(sum(doc["x"]) - 1.0) < 1e-9
        assert abs(doc["pi"][1] - 2.0) < 1e-9

    def test_byte_identical_reruns(self, capsys, showcase_file):
        _, first, _ = run(capsys, "solve", "--input", showcase_file)
        _, second, _ = run(capsys, "solve", "--input", showcase_file)
        assert first == second

    def test_table_format(self, capsys, showcase_file):
        code, out, _ = run(capsys, "solve", "--input", showcase_file, "--format", "table")
        assert code == 0
        assert out == ("player  x                    pay\n"
                       "0       0.53613605491910798  2.6550990223856634\n"
                       "1       0.32593567884043129  2\n"
                       "2       0.13792826624046073  0.99999999999999989\n"
                       "3       0                    0\n")

    def test_dash_reads_the_instance_from_stdin(self, capsys, showcase_file, monkeypatch):
        _, from_file, _ = run(capsys, "solve", "--input", showcase_file)
        monkeypatch.setattr("sys.stdin", io.StringIO(Path(showcase_file).read_text()))
        code, out, _ = run(capsys, "solve", "--input", "-")
        assert code == 0
        assert out == from_file == (
            '{"x": [0.53613605491910798, 0.32593567884043129, 0.13792826624046073, 0], '
            '"pi": [2.6550990223856634, 2, 0.99999999999999989, 0]}\n')

    def test_output_round_trips_through_reader(self, capsys, showcase_file):
        _, out, _ = run(capsys, "solve", "--input", showcase_file)
        doc = json.loads(out)
        assert dumps({"x": doc["x"], "pi": doc["pi"]}) == out.strip()

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--input", "/no/such/file.json")
        assert code == 2 and "error:" in err

    def test_invalid_instance_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"values": [1, -2], "budgets": [1, 1], "supply": 1}')
        code, _, err = run(capsys, "solve", "--input", str(bad))
        assert code == 2 and "negative" in err

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"values": [1,')
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: not valid JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("doc, message", [
        ('{"values": 5, "budgets": [1], "supply": 1}', "values must be an array"),
        ('{"values": [null], "budgets": [1], "supply": 1}', "values[0] must be a number"),
        ('{"values": [1], "budgets": [1], "supply": [1]}', "supply must be a number"),
        # a string is not an array of its digits, nor true the number 1
        ('{"values": "12", "budgets": "34", "supply": 1}', "values must be an array"),
        ('{"values": [true], "budgets": [1], "supply": 1}', "values[0] must be a number"),
        ('{"values": [1], "budgets": [1%s], "supply": 1}' % ("0" * 400),
         "budgets[0] must be a finite number")])
    def test_only_json_numbers_are_read(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and message in err


def _run_script(lines: list[str], *argv: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter with this package on the path."""
    src = str(Path(clinch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", "\n".join(lines), *argv],
                          env=env, capture_output=True, text=True)


class TestImports:
    def test_solve_never_loads_numpy(self, showcase_file):
        proc = _run_script([
            "import sys",
            "import clinch.cli",
            "assert 'numpy' not in sys.modules, 'import clinch.cli loaded numpy'",
            "assert clinch.cli.main(['solve', '--input', sys.argv[1]]) == 0",
            "assert 'numpy' not in sys.modules, 'clinch solve loaded numpy'",
        ], showcase_file)
        assert proc.returncode == 0, proc.stderr

    def test_solve_and_trace_skip_stream_and_two_player(self, showcase_file):
        proc = _run_script([
            "import sys",
            "import clinch.cli",
            "for cmd in ('solve', 'trace'):",
            "    assert clinch.cli.main([cmd, '--input', sys.argv[1]]) == 0",
            "    for mod in ('clinch.stream', 'clinch.two_player'):",
            "        assert mod not in sys.modules, f'clinch {cmd} loaded {mod}'",
        ], showcase_file)
        assert proc.returncode == 0, proc.stderr

    def test_no_command_loads_dataclasses(self, showcase_file):
        proc = _run_script([
            "import io, sys",
            "import clinch.cli",
            "assert 'dataclasses' not in sys.modules, 'import clinch.cli loaded dataclasses'",
            "sys.stdin = io.StringIO('{\"supply\": 1}\\n')",
            "inp = ['--input', sys.argv[1]]",
            "for argv in (['solve', *inp], ['trace', *inp], ['trace', '--format', 'table', *inp],",
            "             ['stream', *inp], ['check', '--property', 'ir', '--corpus', 'count=1'],",
            "             ['n2', '--v', '1', '2', '--b', '3', '2', '--s', '1'],",
            "             ['vcg', '--family', 'multiunit', *inp]):",
            "    assert clinch.cli.main(argv) == 0",
            "    assert 'dataclasses' not in sys.modules, f'clinch {argv} loaded dataclasses'",
        ], showcase_file)
        assert proc.returncode == 0, proc.stderr

    def test_check_loads_numpy_only_for_pareto_and_oracle(self):
        proc = _run_script([
            "import contextlib, io, sys",
            "import clinch.cli",
            "def check(prop):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        return clinch.cli.main(['check', '--property', prop, '--corpus', 'count=1'])",
            "for prop in ('ic', 'ir', 'budget', 'monotone'):",
            "    assert check(prop) == 0",
            "    for mod in ('numpy', 'clinch.oracle'):",
            "        assert mod not in sys.modules, f'check --property {prop} loaded {mod}'",
            "assert check('pareto') == 0 and check('oracle') == 0",
            "assert 'numpy' in sys.modules and 'clinch.oracle' in sys.modules",
        ])
        assert proc.returncode == 0, proc.stderr

    def test_vcg_never_loads_numpy(self, pair_file, tmp_path):
        table = tmp_path / "table.json"
        table.write_text('{"0": 2, "1": 2, "0,1": 3}')
        proc = _run_script([
            "import contextlib, io, sys",
            "import clinch.cli",
            "for how in (['--family', 'multiunit'], ['--table', sys.argv[2]]):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert clinch.cli.main(['vcg', '--input', sys.argv[1], *how]) == 0",
            "    assert 'numpy' not in sys.modules, f'clinch vcg {how} loaded numpy'",
        ], pair_file, str(table))
        assert proc.returncode == 0, proc.stderr

    def test_only_a_json_trace_loads_the_trace_encoder(self, showcase_file):
        proc = _run_script([
            "import io, sys",
            "import clinch.cli",
            "sys.stdin = io.StringIO('{\"supply\": 1}\\n')",
            "for argv in (['solve'], ['stream'], ['trace', '--format', 'table']):",
            "    assert clinch.cli.main([*argv, '--input', sys.argv[1]]) == 0",
            "    assert 'clinch.rowtext' not in sys.modules, f'clinch {argv} loaded it'",
            "assert clinch.cli.main(['trace', '--input', sys.argv[1]]) == 0",
            "assert 'clinch.rowtext' in sys.modules",
        ], showcase_file)
        assert proc.returncode == 0, proc.stderr


class TestTrace:
    def test_json_lines_schema(self, capsys, showcase_file):
        code, out, _ = run(capsys, "trace", "--input", showcase_file)
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        events, final = lines[:-1], lines[-1]
        assert [e["kind"] for e in events] == ["clinch_entry", "clinch_entry",
                                               "exit", "exit"]
        assert events[0]["price"] == 3.5
        first_state = events[0]["state_after"]
        assert set(first_state) == {"x", "B", "S", "A", "C"}
        assert first_state["C"] == [0]
        assert final["kind"] == "final"

    def test_table_format(self, capsys, showcase_file):
        code, out, _ = run(capsys, "trace", "--input", showcase_file,
                           "--format", "table")
        assert code == 0
        assert "clinch_entry" in out and "outcome" in out

    def test_table_golden_output(self, capsys, showcase_file):
        # the outcome line prints 17 significant digits, as the JSON output does
        code, out, _ = run(capsys, "trace", "--input", showcase_file, "--format", "table")
        assert code == 0
        assert out == (
            "event         price          players  units            S_after\n"
            "clinch_entry  3.5            0        0                1\n"
            "clinch_entry  4.65749269107  1        0                0.751477293075\n"
            "exit          5.7            3        0.200023871384   0.301706643197\n"
            "exit          9              0        0.0766446616921  1.23358113847e-17\n"
            "outcome x=[0.53613605491910798, 0.32593567884043129, 0.13792826624046073, 0] "
            "pi=[2.6550990223856634, 2, 0.99999999999999989, 0]\n")

    def test_failed_run_prints_its_events_and_no_final_line(self, capsys, tmp_path):
        # property_corpus(3, 300)[177] with money x1e-8, where the absolute
        # tolerance floor breaks the engine (the scale FOUND in CHANGES.md):
        # an exit raises NegativeBudget after two events
        path = tmp_path / "tiny-money.json"
        path.write_text(
            '{"values": [2.3054170377860449e-08, 2.5806807323068061e-09, '
            '2.1101663457603105e-08], "budgets": [3.5432825938071093e-08, '
            '1.9535739229835114e-08, 1.4132548879083373e-08], '
            '"supply": 3.1161112140965486}')
        code, out, err = run(capsys, "trace", "--input", str(path))
        assert code == 2
        assert err.startswith("error: exit at") and "overdraw" in err
        lines = [json.loads(line) for line in out.splitlines()]
        assert [(e["kind"], e["players"]) for e in lines] == [("exit", [1]),
                                                              ("clinch_entry", [0])]


class TestTraceMemory:
    @staticmethod
    def peak_of_trace(tmp_path, *flags):
        """Exit status and tracemalloc peak of `clinch trace` on an instance
        shaped like the benchmark's large traces (n=512)."""
        rng = random.Random(512)
        n = 512
        path = tmp_path / "n512.json"
        path.write_text(dumps({"values": [rng.randint(1, 1000) / 100 for _ in range(n)],
                               "budgets": [rng.uniform(0.5, 2.0) for _ in range(n)],
                               "supply": n / 100 * rng.uniform(0.75, 1.25)}))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["trace", "--input", str(path), *flags])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return code, peak

    def test_trace_does_not_hold_the_whole_run(self, tmp_path):
        # the JSON lines print as the events happen, so memory stays near
        # one event's snapshot (0.5 MB) where holding every event's
        # snapshots took 24 MB
        code, peak = self.peak_of_trace(tmp_path)
        assert code == 0
        assert peak < 2_000_000

    def test_table_keeps_only_its_columns(self, tmp_path):
        # the table keeps five short cells per event (0.4 MB), where
        # holding every event's snapshot took 10 MB
        code, peak = self.peak_of_trace(tmp_path, "--format", "table")
        assert code == 0
        assert peak < 2_000_000


class TestStream:
    def test_increments_from_stdin(self, capsys, pair_file, monkeypatch):
        feed = '{"supply": 0.5}\n{"supply": 0.5}\n'
        monkeypatch.setattr("sys.stdin", io.StringIO(feed))
        code, out, _ = run(capsys, "stream", "--input", pair_file)
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["s_cum"] == 0.5
        assert lines[1]["s_cum"] == 1.0
        assert lines[1]["x"] == [0, 1]
        assert lines[1]["pi"] == [0, 1]
        total_dx = [a + b for a, b in zip(lines[0]["delta_x"], lines[1]["delta_x"])]
        assert total_dx == [0, 1]

    def test_blank_lines_are_skipped(self, capsys, pair_file, monkeypatch):
        feed = '{"supply": 0.5}\n{"supply": 0.25}\n'
        monkeypatch.setattr("sys.stdin", io.StringIO(feed))
        plain = run(capsys, "stream", "--input", pair_file)
        padded = '\n  \n{"supply": 0.5}\n\t\n\n{"supply": 0.25}\n   \n'
        monkeypatch.setattr("sys.stdin", io.StringIO(padded))
        assert run(capsys, "stream", "--input", pair_file) == plain
        assert plain[0] == 0 and len(plain[1].splitlines()) == 2

    @pytest.mark.parametrize("line, message", [
        ("[1]", 'expected a line {"supply": number}'),
        ("7", 'expected a line {"supply": number}'),
        ('{"x": 1}', 'expected a line {"supply": number}'),
        ('{"supply": null}', "supply must be a number"),
        ('{"supply": "1"}', "supply must be a number")])
    def test_only_a_json_number_supply_is_read(self, capsys, pair_file, monkeypatch,
                                               line, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code, out, err = run(capsys, "stream", "--input", pair_file)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and message in err

    def test_overflowing_cumulative_supply_is_usage_error(self, capsys, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "pair.json"
        path.write_text('{"values": [1, 2], "budgets": [1, 1]}')
        monkeypatch.setattr("sys.stdin", io.StringIO('{"supply": 1e308}\n' * 2))
        code, out, err = run(capsys, "stream", "--input", str(path))
        assert code == 2
        assert [json.loads(line)["s_cum"] for line in out.splitlines()] == [1e308]
        assert err.startswith("error: cumulative supply overflows") and err.count("\n") == 1


class TestN2:
    def test_golden_row(self, capsys):
        code, out, _ = run(capsys, "n2", "--v", "1", "2", "--b", "3", "2",
                           "--s", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == [0, 1]
        assert doc["pi"] == [0, 1]
        assert doc["regime"] == "v2_high_vcg"

    def test_table_format_lists_regime_and_split_spend(self, capsys):
        code, out, _ = run(capsys, "n2", "--v", "1", "2", "--b", "3", "2",
                           "--s", "0.4", "--format", "table")
        assert code == 0
        assert out == ("player  x                    pay\n"
                       "0       0                    0\n"
                       "1       0.40000000000000002  0.40000000000000002\n"
                       "regime: v2_high_vcg\n"
                       "split_spend: 3.2974425414002564\n")

    def test_table_format_prints_rates_with_17_digits(self, capsys):
        code, out, _ = run(capsys, "n2", "--v", "5", "4", "--b", "1", "2",
                           "--s", "1.3", "--rates", "--format", "table")
        assert code == 0
        assert out == ("player  x                    pay\n"
                       "0       0.30446494994554918  1\n"
                       "1       0.99553505005445087  1.4772534945271067\n"
                       "regime: v2_high_split\n"
                       "split_spend: 2.7182818284590451\n"
                       "dx_ds: [0.13367563352101991, 0.86632436647898015]\n"
                       "dpi_ds: [0, 0.40211269651761017]\n")

    def test_rates_flag(self, capsys):
        code, out, _ = run(capsys, "n2", "--v", "1", "2", "--b", "3", "2",
                           "--s", "0.4", "--rates")
        doc = json.loads(out)
        assert doc["dx_ds"] == [0, 1]
        assert doc["dpi_ds"] == [0, 1]


class TestVcg:
    def test_family_multiunit(self, capsys, pair_file):
        code, out, _ = run(capsys, "vcg", "--input", pair_file,
                           "--family", "multiunit")
        assert json.loads(out) == {"x": [0, 1], "pi": [0, 1]}

    def test_table_format(self, capsys, pair_file):
        code, out, _ = run(capsys, "vcg", "--input", pair_file, "--family", "multiunit",
                           "--format", "table")
        assert code == 0
        assert out == "player  x  pay\n0       0  0\n1       1  1\n"

    def test_one_cap_for_two_players_is_usage_error(self, capsys, pair_file):
        code, out, err = run(capsys, "vcg", "--input", pair_file,
                             "--family", "capped", "--caps", "1")
        assert (code, out, err) == (2, "", "error: 2 values vs 1 caps\n")

    def test_table_or_family_is_required(self, capsys, pair_file):
        code, out, err = run(capsys, "vcg", "--input", pair_file)
        assert (code, out, err) == (2, "", "error: give either --table or --family\n")

    def test_family_capped_requires_caps(self, capsys, pair_file):
        code, _, err = run(capsys, "vcg", "--input", pair_file,
                           "--family", "capped")
        assert code == 2

    def test_capped_demo(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(dumps({"values": [1, 2], "budgets": [0, 0], "supply": 2}))
        code, out, _ = run(capsys, "vcg", "--input", str(path),
                           "--family", "capped", "--caps", "1", "1")
        assert json.loads(out) == {"x": [1, 1], "pi": [0, 0]}

    @pytest.mark.parametrize("cap", ["nan", "inf", "-inf", "-1"])
    def test_capped_demo_needs_finite_non_negative_caps(self, capsys, tmp_path, cap):
        path = tmp_path / "one.json"
        path.write_text(dumps({"values": [2], "budgets": [0], "supply": 1}))
        # "--caps=" so that argparse reads "-inf" as a value, not an option
        code, out, err = run(capsys, "vcg", "--input", str(path),
                             "--family", "capped", f"--caps={cap}")
        assert (code, out) == (2, "")
        assert err.startswith("error: caps must be finite and non-negative")

    @pytest.mark.parametrize("values, table, message", [
        ([3, 2], {"0": 1, "1": 1, "0,1": 5}, "not submodular"),
        # the greedy and its payments never read the capacity of {2}
        ([3, 2, 1], {"0": 1, "1": 1, "0,1": 1, "0,2": 1, "1,2": 1, "0,1,2": 1},
         "no entry for subset [2]"),
        ([3, 2], [1], "--table must be an object"),
        ([3, 2], {"0": None, "1": 1, "0,1": 1}, "must be a number, got null"),
        ([3, 2], {"0": 1, "1": 1, "0,5": 2}, "table key '0,5' names a player out of range")])
    def test_table_is_checked(self, capsys, tmp_path, values, table, message):
        inst = tmp_path / "inst.json"
        inst.write_text(dumps({"values": values, "budgets": [0] * len(values),
                               "supply": 0}))
        path = tmp_path / "table.json"
        path.write_text(dumps(table))
        code, out, err = run(capsys, "vcg", "--input", str(inst), "--table", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1

    def test_explicit_table(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(dumps({"values": [3, 1], "budgets": [0, 0], "supply": 0}))
        table = tmp_path / "table.json"
        table.write_text(dumps({"0": 2, "1": 2, "0,1": 3}))
        code, out, _ = run(capsys, "vcg", "--input", str(inst),
                           "--table", str(table))
        assert json.loads(out) == {"x": [2, 1], "pi": [1, 0]}


class TestCheck:
    def test_passing_property_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--property", "ir",
                           "--corpus", "count=25")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["passed"] is True
        assert reports[0]["witness"] is None

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "check", "--property", "ir", "--corpus", "count=25",
                           "--format", "table")
        assert code == 0
        assert out == (
            "property                verdict  worst      corpus\n"
            "individual-rationality  pass     0.000e+00  25 seeded instances, n in [2,8], "
            "values (0,10.0], budgets (0.0,5.0], supply (0,20.0], seed 0\n")

    def test_forced_failure_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", "--property", "oracle",
                           "--corpus", "count=4", "--tolerance", "1e-18")
        assert code == 1
        reports = json.loads(out)
        assert reports[0]["passed"] is False

    def test_seed_determinism(self, capsys):
        _, a, _ = run(capsys, "check", "--property", "budget",
                      "--corpus", "count=30", "--seed", "5")
        _, b, _ = run(capsys, "check", "--property", "budget",
                      "--corpus", "count=30", "--seed", "5")
        assert a == b

    def test_monotone_property_small_corpus(self, capsys):
        code, _, _ = run(capsys, "check", "--property", "monotone",
                         "--corpus", "count=8,pairs=2")
        assert code == 0

    # --tolerance is the property's slack and nothing else: a looser slack
    # cannot turn a pass into a failure by loosening the engine's ties
    CORPUS = ("--corpus", "count=200", "--seed", "3")

    def test_loose_slack_leaves_the_monotone_outcomes_alone(self, capsys):
        code, out, _ = run(capsys, "check", "--property", "monotone", *self.CORPUS)
        assert code == 0
        code, loose, _ = run(capsys, "check", "--property", "monotone", *self.CORPUS,
                             "--tolerance", "1e-3")
        assert code == 0
        assert (json.loads(loose)[0]["worst_violation"]
                == json.loads(out)[0]["worst_violation"])

    def test_loose_slack_leaves_the_ir_outcomes_alone(self, capsys):
        code, _, err = run(capsys, "check", "--property", "ir", *self.CORPUS,
                           "--tolerance", "0.05")
        assert code == 0, err

    def test_zero_slack_is_a_slack(self, capsys):
        # the worst violation on this corpus is 7.1e-15: a zero slack fails
        # it, as 1e-300 does, where a zero once stood for the default
        for slack in ("1e-300", "0"):
            code, out, _ = run(capsys, "check", "--property", "monotone",
                               "--corpus", "count=100", "--seed", "1",
                               "--tolerance", slack)
            assert code == 1
            assert json.loads(out)[0]["worst_violation"] > 0.0

    @pytest.mark.parametrize("prop", ["ic", "ir", "budget", "pareto", "monotone",
                                      "oracle"])
    def test_empty_corpus_is_usage_error(self, capsys, prop):
        code, out, err = run(capsys, "check", "--property", prop,
                             "--corpus", "count=0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "count" in err

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_misreport_grid_without_both_ends_is_usage_error(self, capsys, points):
        code, out, err = run(capsys, "check", "--property", "ic",
                             "--corpus", f"count=1,points={points}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "points" in err

    @pytest.mark.parametrize("vmax", ["1e308", "1e307"])
    def test_overflowing_misreport_grid_is_usage_error(self, capsys, vmax):
        # every value is finite, but the grid over [0, 2 max v] is not
        code, out, err = run(capsys, "check", "--property", "ic",
                             "--corpus", f"count=1,vmax={vmax}")
        assert (code, out) == (2, "")
        assert err.startswith("error: misreport grid overflows") and err.count("\n") == 1

    @pytest.mark.parametrize("prop, key", [
        ("ir", "cuont"), ("budget", "h"), ("ic", "pairs"), ("pareto", "points"),
        ("monotone", "candidates"), ("oracle", "nmin")])
    def test_corpus_key_the_property_does_not_read_is_usage_error(self, capsys, prop,
                                                                   key):
        code, out, err = run(capsys, "check", "--property", prop,
                             "--corpus", f"count=1,{key}=0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize("prop, corpus", [
        ("ic", "count=1,nmin=2,nmax=2,vmax=5,bmin=0.5,bmax=1,smax=2,points=3"),
        ("ir", "count=2,nmin=2,nmax=3,vmax=5,bmin=0.5,bmax=1,smax=2"),
        ("budget", "count=2,nmin=2,nmax=3,vmax=5,bmin=0.5,bmax=1,smax=2"),
        ("pareto", "count=2,nmin=2,nmax=3,vmax=5,bmin=0.5,bmax=1,smax=2,candidates=10"),
        ("monotone", "count=2,nmin=2,nmax=3,vmax=5,bmin=0.5,bmax=1,smax=2,pairs=1"),
        ("oracle", "count=3,h=1e-2")])
    def test_every_key_the_property_reads_is_accepted(self, capsys, prop, corpus):
        code, _, err = run(capsys, "check", "--property", prop, "--corpus", corpus)
        assert code == 0, err

    def test_nmin_above_nmax_is_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "--property", "ir",
                             "--corpus", "count=1,nmin=3,nmax=2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "nmin=3" in err and "nmax=2" in err

    @pytest.mark.parametrize("prop, corpus, message", [
        ("ir", "count=1,nmin=-3,nmax=2", "--corpus nmin must be at least 1, got -3"),
        ("monotone", "nmin=0", "--corpus nmin must be at least 1, got 0"),
        ("ir", "count=1,nmin=1e12,nmax=1e12",
         "--corpus nmax must be at most 1000000, got 1000000000000"),
        ("ic", "nmax=1000001", "--corpus nmax must be at most 1000000, got 1000001"),
        ("ir", "count=1e9,nmax=2",
         "--corpus count=1000000000 of up to 2 bidders each exceeds 1000000 bidders"),
        ("ir", "nmax=1000000",
         "--corpus count=400 of up to 1000000 bidders each exceeds 1000000 bidders"),
        ("ic", "count=166667",
         "--corpus count=166667 of up to 6 bidders each exceeds 1000000 bidders"),
        ("oracle", "count=166667",
         "--corpus count=166667 of up to 6 bidders each exceeds 1000000 bidders")])
    def test_bidder_count_no_corpus_can_hold_is_usage_error(self, capsys, no_draws,
                                                            prop, corpus, message):
        # refused before anything is drawn: the whole corpus is held in memory
        code, out, err = run(capsys, "check", "--property", prop, "--corpus", corpus)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_property_choices_are_the_checks_table(self):
        # --help lists the choices in this order, so they are written out
        # in cli.py; they must name exactly the properties checks can run
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        (prop,) = [a for a in sub.choices["check"]._actions if a.dest == "property"]
        assert prop.choices == tuple(checks._CHECKS)

    @pytest.mark.parametrize("prop, corpus, message", [
        ("ir", "count=2,bmin=5,bmax=1", "--corpus bmin=5.0 must be below bmax=1.0"),
        ("budget", "bmin=2,bmax=2", "--corpus bmin=2.0 must be below bmax=2.0"),
        ("ic", "bmax=0", "--corpus bmin=0.0 must be below bmax=0.0"),
        ("pareto", "bmin=-1", "--corpus bmin must be non-negative, got -1.0"),
        ("ir", "vmax=0", "--corpus vmax must be positive, got 0.0"),
        ("monotone", "vmax=-3", "--corpus vmax must be positive, got -3.0"),
        ("ir", "smax=0", "--corpus smax must be positive, got 0.0")])
    def test_empty_or_reversed_range_is_usage_error(self, capsys, no_draws, prop,
                                                    corpus, message):
        code, out, err = run(capsys, "check", "--property", prop, "--corpus", corpus)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("prop, corpus", [
        ("ir", "count=125000"), ("ic", "count=2,nmin=5e5,nmax=5e5"),
        ("oracle", "count=166666")])
    def test_corpus_of_the_largest_size_is_drawn(self, monkeypatch, prop, corpus):
        class Drew(Exception):
            pass

        def draws(spec):
            raise Drew(spec.count * spec.n_max)

        monkeypatch.setattr(checks, "random_instances", draws)
        with pytest.raises(Drew) as exc:
            main(["check", "--property", prop, "--corpus", corpus])
        assert exc.value.args[0] <= 10**6

    @pytest.mark.parametrize("prop, corpus", [
        ("ic", "count=inf"), ("ic", "count=1e400"), ("ic", "points=inf"),
        ("ir", "nmax=inf"), ("ir", "vmax=nan"), ("budget", "smax=-inf"),
        ("pareto", "candidates=inf"), ("monotone", "pairs=inf"), ("oracle", "h=inf"),
        ("oracle", "h=nan")])
    def test_non_finite_corpus_value_is_usage_error(self, capsys, prop, corpus):
        key = corpus.partition("=")[0]
        code, out, err = run(capsys, "check", "--property", prop, "--corpus", corpus)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"--corpus {key} must be finite" in err

    @pytest.mark.parametrize("prop, corpus, message", [
        ("monotone", "pairs=0", "--corpus pairs must be at least 1"),
        ("pareto", "candidates=0", "--corpus candidates must be at least 1"),
        ("ir", "count=2.7", "--corpus count must be a whole number"),
        ("ir", "nmin=2.9", "--corpus nmin must be a whole number")])
    def test_vacuous_or_fractional_corpus_count_is_usage_error(self, capsys, prop,
                                                               corpus, message):
        code, out, err = run(capsys, "check", "--property", prop, "--corpus", corpus)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_infinite_tolerance_is_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "--property", "ir",
                             "--corpus", "count=1", "--tolerance", "inf")
        assert (code, out) == (2, "")
        assert err.startswith("error: --tolerance must be a finite") and err.count("\n") == 1

    @pytest.mark.parametrize("slack", ["1e300", "-5", "0"])
    def test_tolerance_is_usage_error_for_pareto(self, capsys, slack):
        code, out, err = run(capsys, "check", "--property", "pareto",
                             "--corpus", "count=1", "--tolerance", slack)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--tolerance" in err

    @pytest.mark.parametrize("prop", ["ic", "ir", "budget", "monotone", "oracle"])
    @pytest.mark.parametrize("slack", ["-5", "nan"])
    def test_negative_or_nan_tolerance_is_usage_error(self, capsys, prop, slack):
        code, out, err = run(capsys, "check", "--property", prop,
                             "--corpus", "count=1", "--tolerance", slack)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--tolerance" in err

    def test_tolerance_belongs_to_check_alone(self, capsys, showcase_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", showcase_file, "--tolerance", "1e-6"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--seed", "1"], ["trace", "--seed", "1"], ["stream", "--seed", "1"],
        ["vcg", "--family", "multiunit", "--seed", "1"], ["stream", "--format", "json"]])
    def test_seed_belongs_to_check_and_stream_has_no_format(self, capsys,
                                                            showcase_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", showcase_file])
        assert exc.value.code == 2

    def test_n2_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["n2", "--v", "1", "2", "--b", "3", "2", "--s", "1", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("prop, checker, corpus", [
        ("ic", checks.check_ic, "count=3"),
        ("ir", checks.check_ir, "count=50"),
        ("budget", checks.check_budget, "count=50"),
        ("monotone", checks.check_supply_monotonicity, "count=20")])
    def test_default_slack_is_the_checkers_own(self, capsys, monkeypatch, prop,
                                               checker, corpus):
        # without --tolerance the checker runs at its own default slack, so
        # the two cannot drift apart
        default = inspect.signature(checker).parameters["slack"].default
        slacks = []

        def spy(*args, **kwargs):
            bound = inspect.signature(checker).bind(*args, **kwargs)
            bound.apply_defaults()
            slacks.append(bound.arguments["slack"])
            return checker(*args, **kwargs)

        argv = ["check", "--property", prop, "--corpus", corpus, "--seed", "2"]
        _, plain, _ = run(capsys, *argv)
        _, given, _ = run(capsys, *argv, "--tolerance", repr(default))
        assert plain == given
        monkeypatch.setattr(checks, checker.__name__, spy)
        assert run(capsys, *argv)[1] == plain
        assert slacks and set(slacks) == {default}
