"""Correctness checks on what the clinch CLI prints.

Each check recomputes a property that the adaptive clinching auction must
have from the instance and the printed output; none compares against a
saved output.  A check returns a list of error messages, empty when the
output is correct.  The messages are capped so that one broken run does not
print megabytes.
"""
from __future__ import annotations

import json

REL = 1e-8
MAX_ERRORS = 5


def tol(*xs: float) -> float:
    """Money and supply tolerance, relative to the largest magnitude involved."""
    return REL * max(1.0, *(abs(x) for x in xs))


class Errors(list):
    def add(self, msg: str) -> None:
        if len(self) < MAX_ERRORS:
            self.append(msg)


def check_outcome(inst: dict, x: list, pi: list) -> list[str]:
    """Feasibility, rationality, budgets, full allocation and no-trade.

    The last one is the trade characterization of Pareto optimality: no
    higher-value bidder keeps budget slack while a lower-value bidder holds
    goods.
    """
    err = Errors()
    v, b, s = inst["values"], inst["budgets"], inst["supply"]
    n = len(v)
    if len(x) != n or len(pi) != n:
        err.add(f"outcome has {len(x)} allocations and {len(pi)} payments for {n} bidders")
        return err
    sold = sum(x)
    if abs(sold - s) > tol(s):
        err.add(f"sells {sold!r} of a supply of {s!r}")
    for i in range(n):
        if x[i] < -tol(x[i]):
            err.add(f"bidder {i} gets a negative allocation {x[i]!r}")
        if pi[i] < -tol(pi[i]) or pi[i] > b[i] + tol(b[i]):
            err.add(f"bidder {i} pays {pi[i]!r} with a budget of {b[i]!r}")
        if v[i] * x[i] - pi[i] < -tol(pi[i]):
            err.add(f"bidder {i} has negative utility {v[i] * x[i] - pi[i]!r}")
    slack = [i for i in range(n) if b[i] - pi[i] > tol(b[i])]
    holders = [j for j in range(n) if x[j] > tol(s)]
    for i in slack:
        for j in holders:
            if v[i] > v[j]:
                err.add(f"bidder {i} (value {v[i]}) keeps budget slack while "
                        f"bidder {j} (value {v[j]}) holds {x[j]!r} units")
                return err
    return err


def check_same_outcome(x: list, pi: list, ref_x: list, ref_pi: list,
                       what: str) -> list[str]:
    err = Errors()
    if len(x) != len(ref_x) or len(pi) != len(ref_pi):
        err.add(f"{what}: lengths differ")
        return err
    for i, (a, b) in enumerate(zip(x + pi, ref_x + ref_pi)):
        if abs(a - b) > tol(a, b):
            field = "x" if i < len(x) else "pi"
            err.add(f"{what}: {field}[{i % len(x)}] is {a!r}, expected {b!r}")
    return err


def check_stream(inst: dict, increments: list[float], replies: list[dict]
                 ) -> list[str]:
    """Every reply of one `clinch stream` session, in order.

    Deltas are non-negative, x and pi are the running sums of the deltas,
    the allocation sums to the cumulative supply, payments stay within
    budgets, and the printed utility is v*x - pi and non-negative.
    """
    err = Errors()
    v, b = inst["values"], inst["budgets"]
    n = len(v)
    if len(replies) != len(increments):
        err.add(f"{len(replies)} replies to {len(increments)} increments")
    s_cum = 0.0
    x_prev, pi_prev = [0.0] * n, [0.0] * n
    for k, (ds, rep) in enumerate(zip(increments, replies)):
        s_cum += ds
        dx, dpi, x, pi, u = (rep[key] for key in ("delta_x", "delta_pi", "x", "pi", "u"))
        if not all(len(vec) == n for vec in (dx, dpi, x, pi, u)):
            err.add(f"reply {k}: vectors are not of length {n}")
            return err
        if abs(rep["s_cum"] - s_cum) > tol(s_cum):
            err.add(f"reply {k}: s_cum is {rep['s_cum']!r}, increments sum to {s_cum!r}")
        if abs(sum(x) - rep["s_cum"]) > tol(rep["s_cum"]):
            err.add(f"reply {k}: allocation sums to {sum(x)!r}, s_cum is {rep['s_cum']!r}")
        for i in range(n):
            if dx[i] < 0.0 or dpi[i] < 0.0:
                err.add(f"reply {k}: negative delta for bidder {i}: {dx[i]!r}, {dpi[i]!r}")
            if abs(x_prev[i] + dx[i] - x[i]) > tol(x[i]):
                err.add(f"reply {k}: x[{i}] = {x[i]!r} is not {x_prev[i]!r} + {dx[i]!r}")
            if abs(pi_prev[i] + dpi[i] - pi[i]) > tol(pi[i]):
                err.add(f"reply {k}: pi[{i}] = {pi[i]!r} is not {pi_prev[i]!r} + {dpi[i]!r}")
            if pi[i] < 0.0 or pi[i] > b[i] + tol(b[i]):
                err.add(f"reply {k}: bidder {i} pays {pi[i]!r} with a budget of {b[i]!r}")
            if abs(u[i] - (v[i] * x[i] - pi[i])) > tol(u[i], pi[i]):
                err.add(f"reply {k}: u[{i}] = {u[i]!r} is not v*x - pi")
            if u[i] < -tol(pi[i]):
                err.add(f"reply {k}: bidder {i} has negative utility {u[i]!r}")
        if err:
            return err
        x_prev, pi_prev = x, pi
    return err


def check_stream_end(inst: dict, last: dict, solved: dict) -> list[str]:
    """The last reply equals a one-shot solve at the total supply (path
    independence) and admits no improving trade."""
    final = dict(inst, supply=last["s_cum"])
    return (check_same_outcome(last["x"], last["pi"], solved["x"], solved["pi"],
                               "stream vs solve at the total supply")
            + check_outcome(final, last["x"], last["pi"]))


def check_trace(inst: dict, lines: list[dict], solved: dict) -> list[str]:
    """One `clinch trace` output against the instance and its `solve`.

    Prices never fall, the remnant supply never rises, allocated plus
    remnant supply is the supply at every event, each exit charges price
    times units, and the final line is the solve outcome.
    """
    err = Errors()
    if not lines or lines[-1].get("kind") != "final":
        err.add("trace does not end on a final line")
        return err
    s = inst["supply"]
    price, remnant = 0.0, s
    for k, ev in enumerate(lines[:-1]):
        after = ev["state_after"]
        if ev["price"] < price:
            err.add(f"event {k}: price falls from {price!r} to {ev['price']!r}")
        if after["S"] > remnant + tol(remnant):
            err.add(f"event {k}: supply rises from {remnant!r} to {after['S']!r}")
        if abs(sum(after["x"]) + after["S"] - s) > tol(s):
            err.add(f"event {k}: sum(x) + S = {sum(after['x']) + after['S']!r}, "
                    f"supply is {s!r}")
        if ev["kind"] == "exit":
            p = ev["price"]
            for i, (dx, dpi) in enumerate(zip(ev["delta_x"], ev["delta_pi"])):
                if abs(dpi - p * dx) > tol(dpi):
                    err.add(f"event {k}: bidder {i} pays {dpi!r} for {dx!r} units "
                            f"at price {p!r}")
        if err:
            return err
        price, remnant = ev["price"], after["S"]
    final = lines[-1]
    return (check_same_outcome(final["x"], final["pi"], solved["x"], solved["pi"],
                               "trace final line vs solve")
            + check_outcome(inst, final["x"], final["pi"]))


def check_reports(text: str, prop: str, count: int) -> list[str]:
    """A `clinch check` JSON report: one report, of the requested property,
    over the requested number of instances, that passed."""
    err = Errors()
    try:
        reports = json.loads(text)
    except json.JSONDecodeError as exc:
        err.add(f"report is not JSON: {exc}")
        return err
    if not isinstance(reports, list) or len(reports) != 1:
        err.add(f"expected one report, got {reports!r:.200}")
        return err
    rep = reports[0]
    if rep.get("property") != prop:
        err.add(f"report is for {rep.get('property')!r}, not {prop!r}")
    if not str(rep.get("corpus", "")).startswith(f"{count} "):
        err.add(f"report covers {rep.get('corpus')!r}, not {count} instances")
    if rep.get("passed") is not True:
        err.add(f"{prop} failed: {json.dumps(rep.get('witness'))[:300]}")
    return err
