"""Command-line front end: solve, trace, stream, check, n2, vcg.

Instances are the shared JSON schema {"values": [...], "budgets": [...],
"supply": s}.  All numbers are printed with 17 significant digits so a
round trip through the reader reproduces every double exactly; output is
byte-identical for identical argument vector, input and seed.  Exit
status: 0 success, 1 a checked property failed, 2 usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

from . import engine
from .core import (
    AuctionError,
    LengthMismatch,
    Outcome,
    RowText,
    dumps,
    float_entry,
    id_entry,
    instance_from_json,
    json_number,
)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _table(rows: list[tuple], header: tuple) -> str:
    cells = [tuple(str(c) for c in row) for row in [header, *rows]]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines)


def _emit_outcome(out: Outcome, args, extra: dict | None = None) -> None:
    if args.format == "table":
        rows = [(i, format(out.allocation[i], ".17g"), format(out.payments[i], ".17g"))
                for i in range(out.n)]
        print(_table(rows, ("player", "x", "pay")))
        for key, val in (extra or {}).items():
            print(f"{key}: {val}")
        return
    doc = {"x": list(out.allocation), "pi": list(out.payments)}
    doc.update(extra or {})
    print(dumps(doc))


def _event_doc(ev, dx=list, dpi=list, x=list, B=list, A=sorted, C=sorted) -> dict:
    """One `trace` line; each float row and id set goes through its own encoder."""
    return {
        "kind": ev.kind,
        "price": ev.price,
        "players": list(ev.players),
        "delta_x": dx(ev.delta_x),
        "delta_pi": dpi(ev.delta_pay),
        "state_after": {
            "x": x(ev.after.allocation),
            "B": B(ev.after.budgets),
            "S": ev.after.supply,
            "A": A(ev.after.active),
            "C": C(ev.after.clinching),
        },
    }


def _cmd_solve(args) -> int:
    inst = instance_from_json(_read_input(args.input))
    _emit_outcome(engine.solve(inst), args)
    return 0


def _cmd_trace(args) -> int:
    inst = instance_from_json(_read_input(args.input))
    if args.format == "table":  # the widths need every row: keep its cells, not the event
        rows = []
        _, outcome, _ = engine.run_trace(inst, lambda ev: rows.append((
            ev.kind, format(ev.price, ".12g"), ",".join(map(str, ev.players)),
            format(sum(ev.delta_x), ".12g"), format(ev.after.supply, ".12g"))))
        print(_table(rows, ("event", "price", "players", "units", "S_after")))
        print(f"outcome x={list(outcome.allocation)} pi={list(outcome.payments)}")
        return 0
    # Each line is printed as its event happens.  An entry can change only if
    # its player clinches after the event or is one of its players (see the
    # `engine` docstring), so the encoders look at those entries alone.
    encoders = [RowText(inst.n, entry) for entry in [float_entry] * 4 + [id_entry] * 2]

    def emit(ev) -> None:
        changed = ev.after.clinching.union(ev.players)
        print(dumps(_event_doc(ev, *[partial(enc, changed=changed) for enc in encoders])))

    _, outcome, notes = engine.run_trace(inst, emit)
    print(dumps({"kind": "final", "x": list(outcome.allocation),
                 "pi": list(outcome.payments), "notes": list(notes)}))
    return 0


def _cmd_stream(args) -> int:
    from . import stream  # only stream needs it

    inst = instance_from_json(_read_input(args.input), require_supply=False)
    sup = stream.SupplyStream(inst.values, inst.budgets)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        if type(doc) is not dict or "supply" not in doc:
            raise LengthMismatch(f'expected a line {{"supply": number}}, got {line}')
        delta = sup.on_supply(json_number(doc["supply"], "supply"))
        print(dumps({"s_cum": sup.supply,
                     "delta_x": list(delta.delta_x),
                     "delta_pi": list(delta.delta_pay),
                     "x": list(sup.outcome.allocation),
                     "pi": list(sup.outcome.payments),
                     "u": list(sup.utility_snapshot())}), flush=True)
    return 0


def _cmd_n2(args) -> int:
    from . import two_player  # only n2 needs it

    v1, v2 = args.v
    b1, b2 = args.b
    out, label = two_player.solve_n2(v1, v2, b1, b2, args.s)
    extra = {"regime": label.regime.value, "split_spend": label.split_spend}
    if args.rates:
        dx, dpay, _ = two_player.marginal_rates_n2(v1, v2, b1, b2, args.s)
        extra["dx_ds"] = list(dx)
        extra["dpi_ds"] = list(dpay)
    _emit_outcome(out, args, extra)
    return 0


def _cmd_vcg(args) -> int:
    from . import vcg  # imports numpy, which only check and vcg need

    inst = instance_from_json(_read_input(args.input), require_supply=True)
    if args.table is not None:
        table = json.loads(_read_input(args.table))
        if type(table) is not dict:
            raise LengthMismatch(f"--table must be an object of capacities, got "
                                 f"{json.dumps(table)}")
        oracle = vcg.oracle_from_table(inst.n, {key: json_number(units, f"--table {key!r}")
                                                for key, units in table.items()})
        oracle.check()
        out = vcg.vcg_polymatroid(inst.values, oracle)
    elif args.family == "multiunit":
        out = vcg.vcg_multiunit(inst.values, inst.supply)
    elif args.family == "capped":
        if args.caps is None:
            raise AuctionError("--caps is required with --family capped")
        out = vcg.vcg_capacity_demo(inst.values, args.caps, inst.supply)
    else:
        raise AuctionError("give either --table or --family")
    _emit_outcome(out, args)
    return 0


def _parse_corpus(text: str | None) -> dict:
    tokens = [t.partition("=") for t in (text or "").split(",") if t.strip()]
    return {key.strip(): float(val) for key, _, val in tokens}


# The CorpusSpec field that each generator key of --corpus sets; a key not
# given keeps the field's default.
_SPEC_FIELDS = dict(count="count", nmin="n_min", nmax="n_max", vmax="v_max",
                    bmin="b_min", bmax="b_max", smax="s_max")
_INT_KEYS = ("count", "nmin", "nmax", "points", "candidates", "pairs")


def _check_monotone(checks, inst, rng, pairs=3, **slack):
    base = inst.supply
    pairs = [(base * rng.random(), base) for _ in range(pairs)]
    return checks.check_supply_monotonicity(inst.values, inst.budgets, pairs, **slack)


# Per property: the --corpus defaults it sets itself, the keys it passes to
# its check as keywords (a key not given keeps the check's own default) and
# the check of one instance.  oracle checks the whole corpus at once and
# reads only its own keys.
_CHECKS = {
    "ic": (dict(count=40, nmax=6), ("points",),
           lambda checks, inst, rng, **kw: checks.check_ic(inst, **kw)),
    "ir": (dict(count=400), (), lambda checks, inst, rng, **kw:
           checks.check_ir(inst, engine.solve(inst), **kw)),
    "budget": (dict(count=400), (), lambda checks, inst, rng, **kw:
               checks.check_budget(inst, engine.solve(inst), **kw)),
    "pareto": (dict(count=100), ("candidates",), lambda checks, inst, rng, **kw:
               checks.check_pareto(inst, engine.solve(inst), rng, **kw)),
    "monotone": (dict(count=100), ("pairs",), _check_monotone),
    "oracle": (dict(count=40, h=1e-3), (), None),
}


def _cmd_check(args) -> int:
    import numpy as np  # only check and vcg need numpy

    from . import checks

    defaults, keywords, check_one = _CHECKS[args.property]
    reads = {*defaults} if check_one is None else {*_SPEC_FIELDS, *keywords}
    given = _parse_corpus(args.corpus)
    for key, val in given.items():
        if key not in reads:
            raise ValueError(f"--corpus key {key!r} is not read by --property "
                             f"{args.property}, which reads {', '.join(sorted(reads))}")
        if not math.isfinite(val):
            raise ValueError(f"--corpus {key} must be finite, got {val}")
        if key in _INT_KEYS and not val.is_integer():
            raise ValueError(f"--corpus {key} must be a whole number, got {val}")
    opts = {key: int(val) if key in _INT_KEYS else val
            for key, val in {**defaults, **given}.items()}
    for key in ("count", "pairs", "candidates"):
        if opts.get(key, 1) < 1:
            raise ValueError(f"--corpus {key} must be at least 1, got {opts[key]}")
    slack = {}
    if args.tolerance is not None:
        if not 0.0 <= args.tolerance < math.inf:
            raise ValueError(f"--tolerance must be a finite non-negative number, got "
                             f"{args.tolerance}")
        if args.property == "pareto":
            raise ValueError("--tolerance does not apply to --property pareto: its "
                             "characterization and search slacks are fixed")
        slack["slack"] = args.tolerance

    if check_one is None:
        spec = checks.oracle_corpus(seed=args.seed, count=opts["count"])
        reports = [checks.check_oracle_agreement(checks.random_instances(spec),
                                                 h=opts["h"], **slack)]
    else:
        spec = checks.CorpusSpec(seed=args.seed, **{
            field: opts[key] for key, field in _SPEC_FIELDS.items() if key in opts})
        if spec.n_min > spec.n_max:
            raise ValueError(f"--corpus nmin={spec.n_min} exceeds nmax={spec.n_max}")
        rng = np.random.default_rng(args.seed)
        kw = {key: opts[key] for key in keywords if key in opts}
        reports = [check_one(checks, inst, rng, **kw, **slack)
                   for inst in checks.random_instances(spec)]
        reports = [checks.merge_reports(reports[0].name, spec.describe(), reports)]

    if args.format == "table":
        rows = [(r.name, "pass" if r.passed else "FAIL",
                 format(r.worst_violation, ".3e"), r.corpus) for r in reports]
        print(_table(rows, ("property", "verdict", "worst", "corpus")))
    else:
        print(dumps([r.to_dict() for r in reports]))
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "table"), default="json",
                        help="output rendering")

    parser = argparse.ArgumentParser(
        prog="clinch",
        description="Budget-constrained clinching auction with online supply")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[shared],
                       help="outcome for one instance file")
    p.add_argument("--input", required=True, help="instance JSON path, or - for stdin")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("trace", parents=[shared],
                       help="event-by-event run as JSON lines")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("stream", help='consume {"supply": ds} lines, emit JSON deltas')
    p.add_argument("--input", required=True,
                   help="instance JSON (supply field ignored)")
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser("check", parents=[shared],
                       help="run a property over a seeded random corpus")
    p.add_argument("--property", required=True, choices=tuple(_CHECKS))
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random corpus and the checks' draws")
    p.add_argument("--corpus", default=None,
                   help="comma list of key=value generator parameters, e.g. "
                        "count=100,nmin=2,nmax=8,vmax=10,bmax=5,smax=20")
    p.add_argument("--tolerance", type=float, default=None,
                   help="the property's slack (default per property); "
                        "not for pareto")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("n2", parents=[shared],
                       help="closed-form two-player solution")
    p.add_argument("--v", type=float, nargs=2, required=True, metavar=("V1", "V2"))
    p.add_argument("--b", type=float, nargs=2, required=True, metavar=("B1", "B2"))
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--rates", action="store_true",
                   help="also report the marginal per-unit-of-supply rates")
    p.set_defaults(fn=_cmd_n2)

    p = sub.add_parser("vcg", parents=[shared], help="VCG baselines")
    p.add_argument("--input", required=True)
    p.add_argument("--family", choices=("multiunit", "capped"), default=None)
    p.add_argument("--caps", type=float, nargs="+", default=None)
    p.add_argument("--table", default=None,
                   help="JSON path mapping comma-joined player sets to capacities")
    p.set_defaults(fn=_cmd_vcg)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AuctionError, OSError, ValueError) as exc:  # incl. JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
