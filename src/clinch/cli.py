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
import sys

from . import engine
from .core import (AuctionError, LengthMismatch, Outcome, dumps, fmt_float, instance_from_json,
                   json_number)


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
        for key, val in (extra or {}).items():  # numbers with 17 digits, as in JSON
            print(f"{key}: {val if isinstance(val, str) else dumps(val)}")
        return
    doc = {"x": list(out.allocation), "pi": list(out.payments)}
    doc.update(extra or {})
    print(dumps(doc))


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
        print(f"outcome x={dumps(list(outcome.allocation))} pi={dumps(list(outcome.payments))}")
        return 0

    from .rowtext import RowText, float_entry, id_entry  # only a json trace needs it
    # Each line is printed as its event happens, in one fixed layout.  An
    # entry can change only if its player clinches after the event or is one
    # of its players (see the `engine` docstring), so the list encoders look
    # at those entries alone.  Event kinds are plain identifiers: no escaping.
    dx, dpi, x, B, A, C = (RowText(inst.n, entry)
                           for entry in [float_entry] * 4 + [id_entry] * 2)

    def emit(ev) -> None:
        st = ev.after
        changed = st.clinching.union(ev.players)
        print(f'{{"kind": "{ev.kind}", "price": {fmt_float(ev.price)}, '
              f'"players": [{", ".join(map(str, ev.players))}], '
              f'"delta_x": {dx(ev.delta_x, changed)}, "delta_pi": {dpi(ev.delta_pay, changed)}, '
              f'"state_after": {{"x": {x(st.allocation, changed)}, "B": {B(st.budgets, changed)}, '
              f'"S": {fmt_float(st.supply)}, "A": {A(st.active, changed)}, '
              f'"C": {C(st.clinching, changed)}}}}}')

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
    from . import vcg  # only vcg needs it

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


def _cmd_check(args) -> int:
    from . import checks

    rep = checks.run_property(args.property, args.seed, args.corpus, args.tolerance)
    if args.format == "table":
        row = (rep.name, "pass" if rep.passed else "FAIL", format(rep.worst_violation, ".3e"),
               rep.corpus)
        print(_table([row], ("property", "verdict", "worst", "corpus")))
    else:
        print(dumps([rep.to_dict()]))
    return 0 if rep.passed else 1


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
    p.add_argument("--property", required=True,
                   choices=("ic", "ir", "budget", "pareto", "monotone", "oracle"))
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
