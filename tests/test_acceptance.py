"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with the measured numbers.
"""
import time

import numpy as np

from clinch import engine, vcg
from clinch.core import EVENT_CLINCH_ENTRY, validate_instance
from clinch.checks import (
    CorpusSpec,
    check_budget,
    check_ic,
    check_ir,
    check_pareto,
    check_supply_monotonicity,
    oracle_corpus,
    random_instances,
    stratified_two_player,
    property_corpus,
    verify_trace,
)
from clinch.oracle import solve_euler
from clinch.stream import init_stream
from clinch.two_player import solve_n2

SHOWCASE = validate_instance(values=[9, 10, 11, 5.7], budgets=[3, 2, 1, 0.5],
                             supply=1)


def _report(k: int, ok: bool, msg: str) -> None:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {k}: {msg}"


def test_criterion_1_showcase_trace_reproduction():
    t0 = time.perf_counter()
    tr = engine.trace(SHOWCASE)
    elapsed = time.perf_counter() - t0
    first = tr.events[0]
    ok = (first.kind == EVENT_CLINCH_ENTRY and first.players == (0,)
          and first.price == 3.5)
    seg_end = tr.events[1].price
    worst = 0.0
    for k in range(1, 21):
        p = 3.5 + k * (seg_end - 3.5) / 21.0
        st = engine.evolve(first.after, p)
        worst = max(worst, abs(st.supply - 3.5 / p))
    ok = ok and worst <= 1e-9 and elapsed < 0.010
    _report(1, ok, f"first event entry of player 0 at p=3.5 exactly, "
                   f"lone-clincher supply law off by {worst:.2e} over 20 prices, "
                   f"trace in {elapsed * 1000:.2f} ms")


def test_criterion_2_two_player_golden_suite():
    t0 = time.perf_counter()
    insts = stratified_two_player(seed=2602, count=10000)
    worst = 0.0
    for inst in insts:
        cf, _ = solve_n2(inst.values[0], inst.values[1], inst.budgets[0],
                         inst.budgets[1], inst.supply)
        en = engine.solve(inst)
        for a, b in zip(cf.allocation + cf.payments, en.allocation + en.payments):
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(2, ok, f"10000 stratified two-player instances, engine vs closed "
                   f"form within {worst:.2e} relative, {elapsed:.2f} s")


def test_criterion_3_integration_oracle_equivalence():
    t0 = time.perf_counter()
    insts = random_instances(oracle_corpus(seed=2603, count=200))
    errs_h, errs_h2 = [], []
    for inst in insts:
        ref = engine.solve(inst)
        for h, sink in ((1e-4, errs_h), (5e-5, errs_h2)):
            approx = solve_euler(inst, h)
            sink.append(max(abs(a - b) for a, b in
                            zip(approx.allocation + approx.payments,
                                ref.allocation + ref.payments)))
    elapsed = time.perf_counter() - t0
    worst = max(errs_h)
    shrink = float(np.mean(errs_h)) / float(np.mean(errs_h2))
    ok = worst <= 1e-3 and shrink >= 1.5 and elapsed < 120.0
    _report(3, ok, f"200 instances at h=1e-4 agree within {worst:.2e} "
                   f"(tolerance 1e-3), halving shrinks the mean error "
                   f"{shrink:.2f}x, {elapsed:.1f} s")


def test_criterion_4_supply_monotonicity_and_streaming():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2604)
    insts = random_instances(CorpusSpec(count=1000, n_min=2, n_max=8, seed=2604))
    worst_drop = 0.0
    worst_path = 0.0
    all_deltas_clean = True
    for inst in insts:
        pair = (inst.supply * rng.random(), inst.supply)
        rep = check_supply_monotonicity(inst.values, inst.budgets, [pair],
                                        slack=1e-8)
        worst_drop = max(worst_drop, rep.worst_violation)
        if not rep.passed:
            all_deltas_clean = False
        parts = rng.integers(1, 5)
        cuts = np.sort(rng.random(parts - 1)) * inst.supply
        chunks = np.diff([0.0, *cuts, inst.supply])
        sup = init_stream(inst.values, inst.budgets)
        cum = np.zeros(2 * inst.n)
        for c in chunks:
            if c <= 0.0:
                continue
            d = sup.on_supply(float(c))
            if min(d.delta_x) < 0.0 or min(d.delta_pay) < 0.0:
                all_deltas_clean = False
            cum += np.concatenate([d.delta_x, d.delta_pay])
        direct = engine.solve(validate_instance(
            values=inst.values, budgets=inst.budgets, supply=sup.supply))
        ref = np.concatenate([direct.allocation, direct.payments])
        worst_path = max(worst_path, float(np.max(np.abs(cum - ref)
                                                  / np.maximum(1.0, np.abs(ref)))))
    elapsed = time.perf_counter() - t0
    ok = (worst_drop <= 1e-8 and worst_path <= 1e-8 and all_deltas_clean
          and elapsed < 60.0)
    _report(4, ok, f"1000 instances: worst monotonicity drop {worst_drop:.2e}, "
                   f"no negative stream deltas, path independence within "
                   f"{worst_path:.2e}, {elapsed:.1f} s")


_CORPUS_T5 = None


def _theorem5_corpus():
    global _CORPUS_T5
    if _CORPUS_T5 is None:
        _CORPUS_T5 = random_instances(property_corpus(seed=2605, count=1000))
    return _CORPUS_T5


def test_criterion_5_truthfulness_property_suite():
    t0 = time.perf_counter()
    insts = _theorem5_corpus()
    rng = np.random.default_rng(2605)
    worst_ic = worst_ir = worst_budget = 0.0
    pareto_fail = ic_fail = rationality_fail = 0
    for inst in insts:
        out = engine.solve(inst)
        rep_ir = check_ir(inst, out, slack=1e-9)
        rep_b = check_budget(inst, out, slack=1e-9)
        worst_ir = max(worst_ir, rep_ir.worst_violation)
        worst_budget = max(worst_budget, rep_b.worst_violation)
        if not (rep_ir.passed and rep_b.passed):
            rationality_fail += 1
        rep_p = check_pareto(inst, out, rng, candidates=1000)
        if not rep_p.passed:
            pareto_fail += 1
        rep_ic = check_ic(inst, points=50, slack=1e-6)
        worst_ic = max(worst_ic, rep_ic.worst_violation)
        if not rep_ic.passed:
            ic_fail += 1
    elapsed = time.perf_counter() - t0
    ok = (ic_fail == 0 and rationality_fail == 0 and pareto_fail == 0
          and worst_ic <= 1e-6 and worst_ir <= 1e-9 and worst_budget <= 1e-9
          and elapsed < 300.0)
    _report(5, ok, f"1000 instances: worst misreport gain {worst_ic:.2e} "
                   f"(<=1e-6), worst rationality/budget violations "
                   f"{worst_ir:.2e}/{worst_budget:.2e} (<=1e-9), both Pareto "
                   f"checkers pass everywhere, {elapsed:.1f} s")


def test_criterion_6_trace_invariants_on_the_corpus():
    t0 = time.perf_counter()
    bad = 0
    first = None
    for inst in _theorem5_corpus():
        msgs = verify_trace(engine.trace(inst))
        if msgs:
            bad += 1
            first = first or (inst, msgs[0])
    elapsed = time.perf_counter() - t0
    _report(6, bad == 0, f"persistence, supply inequality, budget profile and "
                         f"wishful-allocation laws hold at every trace point of "
                         f"1000 instances within 1e-8 "
                         f"({elapsed:.1f} s){'' if not first else '; first: ' + str(first)}")


def test_criterion_7_capacity_counterexample_fixture():
    scarce = vcg.vcg_capacity_demo([1, 2], [1, 1], 1)
    abundant = vcg.vcg_capacity_demo([1, 2], [1, 1], 2)
    ok = (scarce.payments == (0.0, 1.0) and abundant.payments == (0.0, 0.0)
          and scarce.allocation == (0.0, 1.0) and abundant.allocation == (1.0, 1.0)
          and all(a <= b for a, b in zip(scarce.allocation, abundant.allocation))
          and abundant.payments[1] < scarce.payments[1])
    _report(7, ok, "capped-utility VCG pays (0,1) at supply 1 and (0,0) at "
                   "supply 2 exactly: allocation grows, the payment drops, so "
                   "charging on the fly is impossible under caps")


def test_criterion_8_polymatroid_additivity():
    rng = np.random.default_rng(2608)

    def coverage(n):
        weights = rng.random(8) * 3.0
        covers = [frozenset(np.flatnonzero(rng.random(8) < 0.45).tolist())
                  for _ in range(n)]
        return vcg.SubmodularOracle(
            n, lambda s: float(sum(weights[e] for e in
                                   frozenset().union(*(covers[i] for i in s))))
            if s else 0.0)

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f, g = coverage(n), coverage(n)
        combined = vcg.SubmodularOracle(n, lambda s, f=f, g=g: f.fn(s) + g.fn(s))
        values = rng.random(n) * 8.0
        one, two = vcg.vcg_polymatroid(values, f), vcg.vcg_polymatroid(values, g)
        both = vcg.vcg_polymatroid(values, combined)
        for i in range(n):
            worst = max(worst,
                        abs(one.allocation[i] + two.allocation[i] - both.allocation[i]),
                        abs(one.payments[i] + two.payments[i] - both.payments[i]))
    _report(8, worst <= 1e-9,
            f"augmenting the environment by a second capacity adds outcomes "
            f"componentwise: worst gap {worst:.2e} over 100 random pairs (<=1e-9)")
