"""Isometries of the upper half-plane via determinant-one 2x2 matrices.

The half-plane {x + iy : y > 0} carries the metric ds^2 = (dx^2 + dy^2)/y^2.
A real matrix ((a, b), (c, d)) with ad - bc = 1 acts on it by the Mobius map
z -> (az + b)/(cz + d); the matrices A and -A induce the identical map.  This
module is the scalar numerical core: the matrix and point types, the action
and its j-cocycle j(A, z) = cz + d, trace classification, and the metric
(closed-form distance and geodesics).

The arithmetic itself runs on private kernels over plain tuples: _mul, _inv,
_act and _dist take matrices as entry 4-tuples (a, b, c, d) and points as
pairs (x, y).  Every matrix and point a kernel returns passes the same check
helper the constructors call (_check_mat, _check_point), so the public
operations wrap a kernel and build their result without checking it a
second time.

All types are immutable values and all functions are pure, so everything in
here can be shared or sent across threads freely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import isfinite

DET_TOL = 1e-9    # |det - 1| allowed at construction
TRACE_TOL = 1e-8  # half-width of the parabolic band around |trace| = 2
DEN_TOL = 1e-12   # Mobius denominator guard


class DegenerateDenominator(ArithmeticError):
    """|cz + d| underflowed the guard tolerance; the input is corrupted."""


class NonPositiveScale(ValueError):
    """scaling() requires a strictly positive ratio."""


def _check_mat(m: tuple) -> tuple:
    """The Mat2 invariant on an entry 4-tuple: finite, det = 1 within DET_TOL."""
    a, b, c, d = m
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
        raise ValueError(f"non-finite matrix entries {m}")
    det = a * d - b * c
    err = abs(det - 1.0)
    if err > DET_TOL:
        # ad - bc itself carries ~scale^2 * eps of rounding, so the check is
        # widened for large entries where the absolute tolerance is unmeasurable
        scale = max(abs(a), abs(b), abs(c), abs(d))
        tol = max(DET_TOL, 64.0 * 2.22e-16 * scale * scale)
        if err > tol:
            raise ValueError(f"determinant {det!r} is not 1 within {tol}")
    return m


def _renorm(a: float, b: float, c: float, d: float) -> tuple:
    """Divide by sqrt(det), then check the result like Mat2 does."""
    det = a * d - b * c
    if not det > 0.0:  # also rejects NaN
        raise ValueError(f"cannot renormalize entries with det {det!r}")
    s = math.sqrt(det)
    return _check_mat((a / s, b / s, c / s, d / s))


def _mul(m: tuple, n: tuple) -> tuple:
    """Checked product of two entry 4-tuples, renormalized onto det = 1.

    Renormalizing every product keeps long words from drifting off det = 1.
    """
    a, b, c, d = m
    e, f, g, h = n
    return _renorm(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _inv(m: tuple) -> tuple:
    """Adjugate: exact for det = 1, never amplifies the entries."""
    a, b, c, d = m
    return _check_mat((d, -b, -c, a))


def _j(c: float, d: float, x: float, y: float) -> complex:
    return complex(c * x + d, c * y)


def _check_point(p: tuple) -> tuple:
    """The HPoint invariant on an (x, y) pair: finite, y > 0."""
    x, y = p
    if not (isfinite(x) and isfinite(y)):
        raise ValueError(f"non-finite coordinates ({x!r}, {y!r})")
    if not y > 0.0:
        raise ValueError(f"imaginary part {y!r} must be positive")
    return p


def _act(m: tuple, x: float, y: float) -> tuple:
    """Checked Mobius action of an entry 4-tuple on the point x + iy.

    The imaginary part is computed from Im(Az) = Im(z)/|cz+d|^2, which keeps
    it strictly positive instead of trusting a complex quotient near the axis.
    """
    a, b, c, d = m
    den = _j(c, d, x, y)
    den2 = den.real * den.real + den.imag * den.imag
    if den2 < DEN_TOL * DEN_TOL:
        raise DegenerateDenominator(f"|cz+d| = {math.sqrt(den2):.3e} at z = {complex(x, y)}")
    w = complex(a * x + b, a * y) / den
    return _check_point((w.real, y / den2))


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix of determinant one (within DET_TOL)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        _check_mat((self.a, self.b, self.c, self.d))

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def renormalized(cls, a: float, b: float, c: float, d: float) -> "Mat2":
        """Divide by sqrt(det), so nearly-unimodular entries construct cleanly."""
        return _mat(_renorm(a, b, c, d))

    @property
    def trace(self) -> float:
        return self.a + self.d

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return _mat(_mul((self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d)))

    def inv(self) -> "Mat2":
        return _mat(_inv((self.a, self.b, self.c, self.d)))

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)


def _mat(m: tuple) -> Mat2:
    # Unchecked constructor for a tuple that has just passed _check_mat.
    A = object.__new__(Mat2)
    A.__dict__.update(a=m[0], b=m[1], c=m[2], d=m[3])
    return A


def _frobenius(m: tuple, n: tuple) -> float:
    return math.sqrt(
        (m[0] - n[0]) ** 2 + (m[1] - n[1]) ** 2 + (m[2] - n[2]) ** 2 + (m[3] - n[3]) ** 2
    )


def frobenius_distance(A: Mat2, B: Mat2) -> float:
    return _frobenius((A.a, A.b, A.c, A.d), (B.a, B.b, B.c, B.d))


@dataclass(frozen=True)
class HPoint:
    """Point x + iy of the upper half-plane, y > 0."""

    x: float
    y: float

    def __post_init__(self):
        _check_point((self.x, self.y))

    @classmethod
    def from_complex(cls, z: complex) -> "HPoint":
        return cls(z.real, z.imag)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def _point(p: tuple) -> HPoint:
    # Unchecked constructor for a pair that has just passed _check_point.
    z = object.__new__(HPoint)
    z.__dict__.update(x=p[0], y=p[1])
    return z


class IsometryClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Classification:
    """classify() plus the data needed to judge it near the parabolic boundary."""

    kind: IsometryClass
    trace: float
    margin: float    # | |trace| - 2 |
    confident: bool  # margin comfortably outside the parabolic band


def classify(A: Mat2, tol: float = TRACE_TOL) -> IsometryClass:
    return classify_detailed(A, tol).kind


def classify_detailed(A: Mat2, tol: float = TRACE_TOL) -> Classification:
    """Trace trichotomy: |tr| < 2 elliptic, = 2 parabolic, > 2 hyperbolic.

    +-I are split off first (they act trivially).  The trichotomy is
    ill-posed at |tr| = 2, so calls landing within 100*tol of the boundary
    are flagged not confident.
    """
    tr = A.trace
    margin = abs(abs(tr) - 2.0)
    near_plus = frobenius_distance(A, Mat2.identity())
    near_minus = frobenius_distance(A, -Mat2.identity())
    if min(near_plus, near_minus) <= tol:
        kind = IsometryClass.IDENTITY
    elif margin <= tol:
        kind = IsometryClass.PARABOLIC
    elif abs(tr) < 2.0:
        kind = IsometryClass.ELLIPTIC
    else:
        kind = IsometryClass.HYPERBOLIC
    confident = kind is IsometryClass.IDENTITY or margin > 100.0 * tol
    return Classification(kind, tr, margin, confident)


def j_cocycle(A: Mat2, z: HPoint) -> complex:
    """Denominator cocycle j(A, z) = cz + d; never 0 on the half-plane."""
    return _j(A.c, A.d, z.x, z.y)


def mobius_act(A: Mat2, z: HPoint) -> HPoint:
    """Apply z -> (az + b)/(cz + d); see _act for the imaginary part."""
    return _point(_act((A.a, A.b, A.c, A.d), z.x, z.y))


def _dist(z: tuple, w: tuple) -> float:
    """Hyperbolic distance arccosh(1 + |z-w|^2 / (2 Im z Im w)) of two (x, y) pairs.

    Written as log1p(u + sqrt(u(u+2))) to avoid cancellation for z near w.
    _dist(z, w) and _dist(w, z) agree bit for bit: the differences only
    change sign, and 2.0 * y is exact, so both orders round the same product.
    """
    zx, zy = z
    wx, wy = w
    dx = zx - wx
    dy = zy - wy
    u = (dx * dx + dy * dy) / (2.0 * zy * wy)
    return math.log1p(u + math.sqrt(u * (u + 2.0)))


def hyp_distance(z: HPoint, w: HPoint) -> float:
    """Hyperbolic distance between two points; see _dist."""
    return _dist((z.x, z.y), (w.x, w.y))


def rotation(theta: float) -> Mat2:
    """((cos t, -sin t), (sin t, cos t)): fixes i, turns the tangent by 2t."""
    c, s = math.cos(theta), math.sin(theta)
    return Mat2(c, -s, s, c)


def scaling(rho: float) -> Mat2:
    """diag(rho, 1/rho): translation along the imaginary axis, i -> rho^2 i."""
    if not rho > 0.0:
        raise NonPositiveScale(f"scale ratio must be positive, got {rho!r}")
    return Mat2(rho, 0.0, 0.0, 1.0 / rho)


def _along_geodesic(z: HPoint, w: HPoint, fractions) -> list[HPoint]:
    # Send z to the disk center (w goes to v), take the points on the diameter
    # [0, v] at the given fractions of the hyperbolic distance, and map back.
    # Unlike the circle through z and w, this stays well conditioned when the
    # geodesic is nearly vertical.
    zc, wc = z.z, w.z
    v = (wc - zc) / (wc - zc.conjugate())
    r = abs(v)
    d = math.atanh(r)
    out = []
    for s in fractions:
        v_s = v * (math.tanh(s * d) / r)
        back = (zc - zc.conjugate() * v_s) / (1.0 - v_s)
        out.append(HPoint(back.real, back.imag))
    return out


def geodesic_points(z: HPoint, w: HPoint, n: int) -> list[HPoint]:
    """n+1 points along the geodesic from z to w, equally spaced in distance."""
    if n < 1:
        raise ValueError("need at least one segment")
    if z == w:
        return [z] * (n + 1)
    return _along_geodesic(z, w, (k / n for k in range(n + 1)))


def geodesic_midpoint(z: HPoint, w: HPoint) -> HPoint:
    """Point at equal distance from z and w on the geodesic between them."""
    if z == w:
        return z
    return _along_geodesic(z, w, (0.5,))[0]
