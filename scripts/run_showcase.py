#!/usr/bin/env python3
"""Run the four-player showcase auction and print its full event history.

Shows the ascending process end to end: the richest player starts
clinching alone, the second joins when the falling maximum budget meets
his, the low-value player's exit triggers a discrete clinch, and the
final exit exhausts the supply.
"""
import argparse

from clinch.invariants import verify_trace
from clinch.core import validate_instance
from clinch.engine import trace, wishful_allocation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--values", type=float, nargs="+",
                        default=[9, 10, 11, 5.7])
    parser.add_argument("--budgets", type=float, nargs="+",
                        default=[3, 2, 1, 0.5])
    parser.add_argument("--supply", type=float, default=1.0)
    args = parser.parse_args()

    inst = validate_instance(values=args.values, budgets=args.budgets,
                             supply=args.supply)
    tr = trace(inst)
    print(f"players: values={list(inst.values)} budgets={list(inst.budgets)} "
          f"supply={inst.supply}\n")
    print(f"{'event':13s} {'price':>10s} {'who':>4s} {'units moved':>12s} "
          f"{'supply left':>12s}  clinching")
    for ev in tr.events:
        print(f"{ev.kind:13s} {ev.price:10.6f} {','.join(map(str, ev.players)):>4s} "
              f"{sum(ev.delta_x):12.6f} {ev.after.supply:12.6f}  "
              f"{sorted(ev.after.clinching)}")
        psi = wishful_allocation(ev.after)
        print(f"{'':13s} wishful allocation -> "
              + " ".join(f"{v:.4f}" for v in psi))
    print("\nfinal allocation:", [round(x, 6) for x in tr.outcome.allocation])
    print("final payments:  ", [round(p, 6) for p in tr.outcome.payments])
    problems = verify_trace(tr)
    print("invariant check: ", "clean" if not problems else problems)


if __name__ == "__main__":
    main()
