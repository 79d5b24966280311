#!/usr/bin/env python3
"""Walk the whole pipeline for one genus and print every number along the way.

Builds the regular 4g-gon, reads off its side pairings, and verifies the
relation, the maximal Toledo invariant, the reflection sign flip and the
dimension counts at the resulting point.
"""
import argparse
import math

from fuchsian.cli import MAX_GENUS
from fuchsian.halfplane import HPoint, classify, hyp_distance
from fuchsian.polygons import interior_angles, polygon_area, regular_polygon, side_pairings
from fuchsian.reps import jacobian_rank, reflect_conjugate, relation_residual, toledo


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--genus", type=int, default=2)
    args = ap.parse_args()
    g = args.genus
    if not 2 <= g <= MAX_GENUS:
        ap.error(f"--genus {g} is outside 2..{MAX_GENUS}")

    poly = regular_polygon(g)
    angles = interior_angles(poly.vertices)
    print(f"regular {4 * g}-gon (genus {g})")
    print(f"  interior angle: {angles[0]:.15f}  (target {2 * math.pi / (4 * g):.15f})")
    print(f"  angle sum:      {sum(angles):.15f}  (target {2 * math.pi:.15f})")
    print(f"  circumradius:   {hyp_distance(HPoint(0.0, 1.0), poly.vertices[0]):.15f}")
    print(f"  area (defect):  {polygon_area(poly):.15f}")
    print(f"  2*pi*(2g-2):    {2 * math.pi * (2 * g - 2):.15f}  (Gauss-Bonnet)")

    rep = side_pairings(poly)
    print(f"side pairings: {2 * g} generators, classes "
          f"{[classify(M).value for M in (*rep.gens_a, *rep.gens_b)]}")
    print(f"  relation residual: {relation_residual(rep):.3e}")

    t = toledo(rep)
    print(f"toledo invariant: {t.value}  (raw {t.raw:.15f}, residual {t.residual:.2e})")
    print(f"  maximal (|tau| = 2g-2 = {2 * g - 2}): {abs(t.value) == 2 * g - 2}")
    print(f"  reflected copy: {toledo(reflect_conjugate(rep)).value}")

    rank = jacobian_rank(rep)
    print(f"relation jacobian rank: {rank} -> variety dim {6 * g - rank}, moduli dim {6 * g - rank - 3}")


if __name__ == "__main__":
    main()
