"""Flat companion layer: rank-2 lattices of translations acting on the plane.

The torus quotient is encoded by reduction into the half-open fundamental
parallelogram spanned by the two basis vectors.  (A single translation would
instead roll the plane into a cylinder, reducing one coordinate only; that
non-compact case is not modeled here.)
"""
from __future__ import annotations

import math
from collections import namedtuple

Vec2 = tuple[float, float]


def _cross(u: Vec2, v: Vec2) -> float:
    return u[0] * v[1] - u[1] * v[0]


def _scaled(v: Vec2) -> Vec2:
    """v times the power of two that brings its largest entry into [0.25, 0.5); exact."""
    e = math.frexp(max(abs(v[0]), abs(v[1])))[1] + 1
    return math.ldexp(v[0], -e), math.ldexp(v[1], -e)


class LatticeGroup(namedtuple("LatticeGroup", "a b")):
    """Translations n*a + m*b for integer n, m; a, b, det finite, sine of their angle > 1e-12.

    The sine and basis_coords read a and b scaled by powers of two, which is
    exact: a det that underflows, as for a = (1e-162, 0), b = (0, 1e-162),
    refuses no basis, and elsewhere the bits are the unscaled formula's.
    """

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition
    _make = _replace = None  # each would build a value without the checks

    def __new__(cls, a: Vec2, b: Vec2) -> "LatticeGroup":
        if not all(map(math.isfinite, (*a, *b, _cross(a, b)))):
            raise ValueError(f"basis {a}, {b} or its determinant is not finite")
        ua, ub = _scaled(a), _scaled(b)
        if not abs(_cross(ua, ub)) > 1e-12 * math.hypot(*ua) * math.hypot(*ub):
            raise ValueError(f"basis {a}, {b} is (nearly) dependent")
        return tuple.__new__(cls, (a, b))

    def basis_coords(self, p: Vec2) -> Vec2:
        """(s, t) with p = s*a + t*b, by Cramer's rule with the other vector
        scaled in each ratio: s = cross(p, b')/cross(a, b') for b' = b 2^-k,
        which cannot overflow, and t likewise with a'."""
        a, b = self
        ua, ub = _scaled(a), _scaled(b)
        return _cross(p, ub) / _cross(a, ub), _cross(ua, p) / _cross(ua, b)


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
