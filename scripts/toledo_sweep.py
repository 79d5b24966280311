#!/usr/bin/env python3
"""Sweep random solved representations and tabulate their invariants.

Solves the surface-group relation from seeded random starts, computes the
Toledo invariant of every solution, and reports the value distribution, the
worst deviation of the raw invariant from the even lattice, and any bound
violations (there should never be one).
"""
import argparse
import collections
import time

from fuchsian.reps import jacobian_rank, reflect_conjugate, toledo
from fuchsian.solver import DidNotConverge, solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--genus", type=int, default=2)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed-start", type=int, default=0)
    ap.add_argument("--ranks", action="store_true", help="also tabulate Jacobian ranks")
    args = ap.parse_args()

    t0 = time.perf_counter()
    values = collections.Counter()
    ranks = collections.Counter()
    worst_dev = 0.0
    milnor_violations = 0
    sign_flip_failures = 0
    failures = 0
    seed = args.seed_start
    done = 0
    while done < args.count:
        try:
            rep = solve(args.genus, seed=seed)
        except DidNotConverge:
            failures += 1
            seed += 1
            continue
        seed += 1
        done += 1
        t = toledo(rep)
        values[t.value] += 1
        worst_dev = max(worst_dev, abs(t.raw - t.value))
        if abs(t.value) > 2 * args.genus - 2:
            milnor_violations += 1
        if toledo(reflect_conjugate(rep)).value != -t.value:
            sign_flip_failures += 1
        if args.ranks:
            ranks[jacobian_rank(rep)] += 1

    elapsed = time.perf_counter() - t0
    bound = 2 * args.genus - 2
    print(f"genus {args.genus}: {done} solutions, {failures} failed seeds, {elapsed:.1f}s")
    print(f"invariant distribution: {dict(sorted(values.items()))}")
    print(f"max |raw - value|: {worst_dev:.3e}")
    print(f"milnor bound |tau| <= {bound}: {milnor_violations} violations")
    print(f"reflection sign flips: {sign_flip_failures} failures")
    if args.ranks:
        print(f"jacobian ranks: {dict(sorted(ranks.items()))}")


if __name__ == "__main__":
    main()
