"""Flat companion layer: rank-2 lattices of translations acting on the plane.

The torus quotient is encoded by reduction into the half-open fundamental
parallelogram spanned by the two basis vectors.  (A single translation would
instead roll the plane into a cylinder, reducing one coordinate only; that
non-compact case is not modeled here.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

Vec2 = tuple[float, float]


@dataclass(frozen=True)
class LatticeGroup:
    """Translations n*a + m*b for integer n, m; a, b, det finite, sine of their angle > 1e-12."""

    a: Vec2
    b: Vec2

    def __post_init__(self):
        det = self._det()
        if not all(map(math.isfinite, (*self.a, *self.b, det))):
            raise ValueError(f"basis {self.a}, {self.b} or its determinant is not finite")
        if not abs(det) > 1e-12 * math.hypot(*self.a) * math.hypot(*self.b):
            raise ValueError(f"basis {self.a}, {self.b} is (nearly) dependent")

    def _det(self) -> float:
        return self.a[0] * self.b[1] - self.a[1] * self.b[0]

    def basis_coords(self, p: Vec2) -> Vec2:
        det = self._det()
        s = (p[0] * self.b[1] - p[1] * self.b[0]) / det
        t = (self.a[0] * p[1] - self.a[1] * p[0]) / det
        return (s, t)


def reduce_point(L: LatticeGroup, p: Vec2) -> tuple[Vec2, tuple[int, int]]:
    """Representative of p in the fundamental parallelogram, plus (n, m).

    The returned q = p - n*a - m*b has basis coordinates in [0, 1); the
    integer part is the floor toward minus infinity of the coordinates.
    Reducing a point one ulp below a cell wall can round back onto the wall,
    so the floor is re-checked on q and corrected; for points within half an
    ulp of a wall no exactly-in-cell representative of the form p - na - mb
    may exist at all, in which case the last consistent pair is returned.
    ValueError when p is not finite or its basis coordinates overflow.
    """

    def rep(n: int, m: int) -> Vec2:
        return (
            p[0] - n * L.a[0] - m * L.b[0],
            p[1] - n * L.a[1] - m * L.b[1],
        )

    s, t = L.basis_coords(p)
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValueError(f"point {p} has no finite coordinates in basis {L.a}, {L.b}")
    n, m = math.floor(s), math.floor(t)
    q = rep(n, m)
    for _ in range(3):
        ds, dt = L.basis_coords(q)
        dn, dm = math.floor(ds), math.floor(dt)
        if dn == 0 and dm == 0:
            break
        n, m = n + dn, m + dm
        q = rep(n, m)
    return q, (n, m)
