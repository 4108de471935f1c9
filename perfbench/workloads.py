"""The benchmark's workloads: what one round runs and how its output is checked.

A run repeats whole rounds of the same operations on the same seeded
inputs, so the share of failed operations cannot depend on how many rounds
fit in the run.  `setup_op` is the workload's smallest input, used only to
time start-up; it is fixed, not seeded.
"""
from __future__ import annotations

import json
import random
from functools import partial
from pathlib import Path

import inputs
import verify
from runners import Op


def _lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _solve_check(inst: dict, text: str) -> list[str]:
    doc = json.loads(text)
    return verify.check_outcome(inst, doc["x"], doc["pi"])


def _trace_check(inst: dict, solved: dict, text: str) -> list[str]:
    return verify.check_trace(inst, _lines(text), solved)


class Workload:
    """Base: the files a workload writes and the hooks `run.py` calls."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def write(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def prepare(self, runner) -> list[str]:
        """Reference runs the checks need, made before anything is timed."""
        return []

    def planted(self) -> list[str]:
        """Checks that the program's own checkers flag a planted fault."""
        return []

    def solve(self, runner, inst: dict, name: str) -> tuple[dict | None, list[str]]:
        res = runner.run(Op(["solve", "--input", self.write(name, inst)], None))
        if res.rc != 0:
            return None, [f"reference solve of {name} exited {res.rc}: {res.stderr[-300:]}"]
        return json.loads(res.out), []


class StreamOnline(Workload):
    name = "stream-online"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sessions = inputs.stream_inputs(seed)
        self.paths = [self.write(f"stream-{k}.json", inst)
                      for k, (inst, _) in enumerate(self.sessions)]
        self.solved = []

    def prepare(self, runner):
        errors = []
        for k, (inst, increments) in enumerate(self.sessions):
            total = 0.0
            for d in increments:  # the same additions, in the same order, as the stream
                total += d
            solved, err = self.solve(runner, dict(inst, supply=total), f"stream-total-{k}.json")
            self.solved.append(solved)
            errors += err
        return errors

    def check(self, k, count, text):
        inst, increments = self.sessions[k]
        replies = _lines(text)
        err = verify.check_stream(inst, increments[:count], replies)
        if not err and count == len(increments):
            err = verify.check_stream_end(inst, replies[-1], self.solved[k])
        return err

    def session(self, k, count):
        lines = [json.dumps({"supply": d}) + "\n" for d in self.sessions[k][1][:count]]
        return Op(["stream", "--input", self.paths[k]], partial(self.check, k, count),
                  increments=lines)

    def setup_op(self):
        return self.session(0, 1)

    def round(self):
        return [self.session(k, inputs.STREAM_INCREMENTS) for k in range(len(self.sessions))]


class LargeSolve(Workload):
    name = "large-solve"
    SIZES, PER_SIZE = inputs.SOLVE_SIZES, 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.insts = inputs.large_instances(seed, self.SIZES, self.PER_SIZE)
        self.paths = [self.write(f"large-{k}.json", d) for k, d in enumerate(self.insts)]

    def setup_op(self):
        return Op(["solve", "--input", self.write("two.json", inputs.TWO_BIDDERS)],
                  partial(_solve_check, inputs.TWO_BIDDERS))

    def round(self):
        return [Op(["solve", "--input", p], partial(_solve_check, d))
                for p, d in zip(self.paths, self.insts)]


class LargeTrace(Workload):
    name = "large-trace"
    SIZES, PER_SIZE = inputs.TRACE_SIZES, 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.insts = inputs.large_instances(seed, self.SIZES, self.PER_SIZE)
        self.paths = [self.write(f"large-{k}.json", d) for k, d in enumerate(self.insts)]
        self.solved = []

    def prepare(self, runner):
        errors = []
        for k, d in enumerate([inputs.TWO_BIDDERS, *self.insts]):
            solved, err = self.solve(runner, d, f"ref-{k}.json")
            self.solved.append(solved)
            errors += err
        return errors

    def setup_op(self):
        return Op(["trace", "--input", self.write("two.json", inputs.TWO_BIDDERS)],
                  partial(_trace_check, inputs.TWO_BIDDERS, self.solved[0]))

    def round(self):
        return [Op(["trace", "--input", p], partial(_trace_check, d, s))
                for p, d, s in zip(self.paths, self.insts, self.solved[1:])]


def pay_your_bid(inst):
    """Highest bid wins as much as its budget buys at its bid: not truthful."""
    from clinch.core import Outcome
    w = max(range(inst.n), key=lambda i: inst.values[i])
    x, pay = [0.0] * inst.n, [0.0] * inst.n
    if inst.values[w] > 0.0:
        x[w] = min(inst.supply, inst.budgets[w] / inst.values[w])
        pay[w] = inst.values[w] * x[w]
    return Outcome(tuple(x), tuple(pay))


class PropertyCheck(Workload):
    """`clinch check` for ic, pareto and monotone, one process per bidder
    count, and for oracle, processes with different seeds."""

    name = "property-check"
    REPORTS = {"ic": "incentive-compatibility", "pareto": "pareto-optimality",
               "monotone": "supply-monotonicity", "oracle": "integration-oracle-agreement"}

    def op(self, prop: str, corpus: str, count: int, seed: int) -> Op:
        return Op(["check", "--property", prop, "--corpus", corpus, "--seed", str(seed)],
                  partial(verify.check_reports, prop=self.REPORTS[prop], count=count))

    def setup_op(self):
        return self.op("ic", "count=1,nmin=2,nmax=2", 1, 0)

    def round(self):
        plan = [(prop, f"count={counts[n]},nmin={n},nmax={n}", counts[n])
                for n in inputs.CHECK_SIZES for prop, counts in inputs.CHECK_COUNTS.items()]
        plan += [("oracle", f"count={inputs.ORACLE_COUNT}", inputs.ORACLE_COUNT)
                 ] * inputs.ORACLE_PROCESSES
        seeds = inputs.sub_seeds(self.seed, self.name, len(plan))
        return [self.op(prop, corpus, count, s) for (prop, corpus, count), s in zip(plan, seeds)]

    def planted(self):
        """check_ic must flag a pay-your-bid solver, and check_pareto an
        outcome that withholds half the supply."""
        from clinch import checks, engine
        from clinch.core import Outcome, validate_instance
        rng = random.Random(f"planted-{self.seed}")
        values = rng.sample(range(100, 1000), 4)
        inst = validate_instance(values=[v / 100 for v in values],
                                 budgets=[rng.uniform(0.5, 2.0) for _ in values],
                                 supply=rng.uniform(0.5, 5.0))
        errors = []
        if checks.check_ic(inst, solver=pay_your_bid).passed:
            errors.append("check_ic passes a pay-your-bid solver")
        out = engine.solve(inst)
        withheld = Outcome(tuple(x / 2 for x in out.allocation), out.payments)
        if checks.check_pareto(inst, withheld).passed:
            errors.append("check_pareto passes an outcome that withholds supply")
        return errors


WORKLOADS = {w.name: w for w in (StreamOnline, LargeSolve, LargeTrace, PropertyCheck)}
