#!/usr/bin/env python3
"""Walk the five-user demo instance end to end.

Solves the minimum sum-rate problem, prints the core geometry, compares the
Shapley and egalitarian allocations, and writes the steepest-descent error
curve to a CSV next to this script.
"""

from fractions import Fraction as F
from pathlib import Path

from omnifair import (
    RateVector,
    decompose,
    egalitarian_continuous,
    enumerate_extreme_points,
    l1_size,
    load_source,
    min_sum_rate,
    packet_split_plan,
    sda,
    shapley_exact,
)

HERE = Path(__file__).resolve().parent


def show(label, vector):
    body = ", ".join(f"r_{u}={vector[u]}" for u in vector.users)
    print(f"  {label:<28} {body}")


def main() -> None:
    source = load_source(HERE / "example_source.json")
    ctx = min_sum_rate(source)
    print(f"minimum sum-rate        : {ctx.min_sum_rate}")
    print(f"fundamental partition   : {ctx.fundamental_partition.to_lists()}")
    print(f"shared randomness       : {ctx.shared_randomness}")
    print(f"core dimension          : {len(ctx.users) - len(ctx.fundamental_partition)}")
    print(f"l1 size of the core     : {l1_size(ctx)}")
    print(f"core vertices           : {len(enumerate_extreme_points(ctx))}")
    for sub in decompose(ctx):
        print(f"  subgame {sorted(sub.ground)!s:<12} cost {sub.sum_cost}")

    print("\nfair allocations")
    shapley = shapley_exact(ctx)
    show("Shapley (exact)", shapley)
    start = RateVector({1: F(1), 2: F(1, 2), 3: F(1, 2), 4: F(9, 2), 5: F(0)})
    egal, trace = sda(ctx, r0=start)
    show(f"egalitarian (grid, K={trace.K})", egal)
    weighted = egalitarian_continuous(ctx, {1: 6, 2: 1, 3: 1, 4: 3, 5: 2})
    show("egalitarian (w=6,1,1,3,2)", weighted)

    print("\npacket splitting")
    for label, vector in (("Shapley", shapley), ("egalitarian", egal), ("weighted", weighted)):
        plan = packet_split_plan(vector)
        print(f"  {label:<12} {plan.chunks_per_packet} chunks/packet, "
              f"chunk rates {plan.chunk_rates}")

    csv_path = HERE / "sda_error_curve.csv"
    lines = ["iteration,l1_error,objective"]
    for n, (point, obj) in enumerate(zip(trace.iterates, trace.objectives)):
        lines.append(f"{n},{float(point.l1_distance(egal))},{float(obj)}")
    csv_path.write_text("\n".join(lines) + "\n")
    print(f"\nsteepest-descent error curve -> {csv_path}")
    print(f"iterations: {trace.iterations}, exchanges: {trace.pairs}")


if __name__ == "__main__":
    main()
