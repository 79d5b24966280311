"""Isometries of the upper half-plane via determinant-one 2x2 matrices.

The half-plane {x + iy : y > 0} carries the metric ds^2 = (dx^2 + dy^2)/y^2.
A real matrix ((a, b), (c, d)) with ad - bc = 1 acts on it by the Mobius map
z -> (az + b)/(cz + d); the matrices A and -A induce the identical map.  This
module is the scalar numerical core: the matrix and point types, the action
and its j-cocycle j(A, z) = cz + d, trace classification, and the metric
(closed-form distance).

A matrix is its entry 4-tuple (a, b, c, d) and a point its pair (x, y):
Mat2 and HPoint are named tuples whose constructors run the checks
_check_mat and _check_point, so each operation is one function that takes
them as they are, and takes plain tuples alike.  The private kernels _mul
and _inv return plain tuples.  _mul is the plain product: Mat2 @,
cover.cover_mul and the relation word in reps check theirs once, through
_renorm, and the tiling orbit leaves its short words unchecked.  The
adjugate _inv returns keeps its input's det bit for bit, and so its check,
so Mat2.inv wraps it with _mat, which skips the check; mobius_act checks
the point it returns and wraps it with _point.

All types are immutable values and all functions are pure, so everything in
here can be shared or sent across threads freely.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import partial
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
    det = a * d - b * c
    err = abs(det - 1.0)
    if not err <= DET_TOL:
        # a non-finite entry made det inf or NaN; this only names the fault
        if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
            raise ValueError(f"non-finite matrix entries {m}")
        # ad - bc carries ~eps * max(|ad|, |bc|) of rounding, so the check is
        # widened where that makes DET_TOL unmeasurable, by no more than it
        # does, and never to inf: an overflowed product leaves det unmeasured
        tol = max(DET_TOL, 64.0 * 2.22e-16 * max(abs(a * d), abs(b * c)))
        if not err <= tol < math.inf:
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
    """Plain product of two entry 4-tuples, unchecked: a word of them drifts
    off det = 1 by a few roundings per product (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3), so callers check it once."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _inv(m: tuple) -> tuple:
    """Adjugate: exact for det = 1, never amplifies the entries.  Unchecked:
    m is a Mat2 or a kernel product, and d a - (-b)(-c) rounds as a d - b c."""
    a, b, c, d = m
    return d, -b, -c, a


def _check_point(p: tuple) -> tuple:
    """The HPoint invariant on an (x, y) pair: finite, y > 0."""
    x, y = p
    if not (isfinite(x) and isfinite(y)):
        raise ValueError(f"non-finite coordinates ({x!r}, {y!r})")
    if not y > 0.0:
        raise ValueError(f"imaginary part {y!r} must be positive")
    return p


class Mat2(namedtuple("Mat2", "a b c d")):
    """Real 2x2 matrix of determinant one (within DET_TOL), as its entries (a, b, c, d)."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition
    _make = _replace = None  # each would build a value without the checks

    def __new__(cls, a: float, b: float, c: float, d: float) -> "Mat2":
        return _mat(_check_mat((a, b, c, d)))

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
        return _mat(_renorm(*_mul(self, other)))

    def inv(self) -> "Mat2":
        return _mat(_inv(self))

    def __neg__(self) -> "Mat2":
        return _mat((-self.a, -self.b, -self.c, -self.d))  # det bit for bit self's


# Unchecked constructor for an entry tuple that has just passed _check_mat.
_mat = partial(tuple.__new__, Mat2)

# +-I as entry tuples, the one pair the distances to the centre are measured against
_EYE = (1.0, 0.0, 0.0, 1.0)
_MINUS_EYE = (-1.0, -0.0, -0.0, -1.0)  # -Mat2.identity() bit for bit


def frobenius_distance(A: tuple, B: tuple) -> float:
    """Frobenius distance of two entry 4-tuples."""
    # ** raises OverflowError for a difference past about 1.3e154; x * x
    # would give inf, but differs from libm's pow in the last bit for about
    # one square in 1200, which would move reported residuals
    try:
        return math.sqrt(
            (A[0] - B[0]) ** 2 + (A[1] - B[1]) ** 2 + (A[2] - B[2]) ** 2 + (A[3] - B[3]) ** 2
        )
    except OverflowError:
        return math.inf


class HPoint(namedtuple("HPoint", "x y")):
    """Point x + iy of the upper half-plane, y > 0, as its pair (x, y)."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition
    _make = _replace = None  # each would build a value without the checks

    def __new__(cls, x: float, y: float) -> "HPoint":
        return _point(_check_point((x, y)))

    @classmethod
    def from_complex(cls, z: complex) -> "HPoint":
        return cls(z.real, z.imag)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


# Unchecked constructor for a pair that has just passed _check_point.
_point = partial(tuple.__new__, HPoint)


class IsometryClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class Classification(namedtuple("Classification", "kind trace margin confident")):
    """classify() plus the data needed to judge it near the parabolic boundary:
    the IsometryClass, the trace, the margin | |trace| - 2 | and whether that
    margin is comfortably outside the parabolic band."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition


def classify(A: Mat2) -> IsometryClass:
    return classify_detailed(A).kind


def classify_detailed(A: Mat2) -> Classification:
    """Trace trichotomy: |tr| < 2 elliptic, = 2 parabolic, > 2 hyperbolic.

    +-I are split off first (they act trivially).  The trichotomy is
    ill-posed at |tr| = 2, so calls landing within 100*TRACE_TOL of the
    boundary are flagged not confident.
    """
    tr = A.trace
    margin = abs(abs(tr) - 2.0)
    if min(frobenius_distance(A, _EYE), frobenius_distance(A, _MINUS_EYE)) <= TRACE_TOL:
        kind = IsometryClass.IDENTITY
    elif margin <= TRACE_TOL:
        kind = IsometryClass.PARABOLIC
    elif abs(tr) < 2.0:
        kind = IsometryClass.ELLIPTIC
    else:
        kind = IsometryClass.HYPERBOLIC
    confident = kind is IsometryClass.IDENTITY or margin > 100.0 * TRACE_TOL
    return Classification(kind, tr, margin, confident)


def j_cocycle(A: tuple, z: tuple) -> complex:
    """Denominator cocycle j(A, z) = cz + d; never 0 on the half-plane."""
    c, d = A[2], A[3]
    x, y = z
    return complex(c * x + d, c * y)


def mobius_act(A: tuple, z: tuple) -> HPoint:
    """Apply z -> (az + b)/(cz + d), checked; DegenerateDenominator when
    |cz + d| is below DEN_TOL.

    The imaginary part is computed from Im(Az) = Im(z)/|cz+d|^2, which keeps
    it strictly positive instead of trusting a complex quotient near the axis.
    """
    a, b, c, d = A
    x, y = z
    den = complex(c * x + d, c * y)  # j(A, z)
    den2 = den.real * den.real + den.imag * den.imag
    if den2 < DEN_TOL * DEN_TOL:
        raise DegenerateDenominator(f"|cz+d| = {math.sqrt(den2):.3e} at z = {complex(x, y)}")
    w = complex(a * x + b, a * y) / den
    return _point(_check_point((w.real, y / den2)))


def hyp_distance(z: tuple, w: tuple) -> float:
    """Hyperbolic distance arccosh(1 + |z-w|^2 / (2 Im z Im w)) of two (x, y) pairs.

    Written as log1p(u + sqrt(u(u+2))) to avoid cancellation for z near w.
    hyp_distance(z, w) and hyp_distance(w, z) agree bit for bit: the
    differences only change sign, and 2.0 * y is exact, so both orders round
    the same product.
    """
    zx, zy = z
    wx, wy = w
    dx = zx - wx
    dy = zy - wy
    u = (dx * dx + dy * dy) / (2.0 * zy * wy)
    return math.log1p(u + math.sqrt(u * (u + 2.0)))


def rotation(theta: float) -> Mat2:
    """((cos t, -sin t), (sin t, cos t)): fixes i, turns the tangent by 2t."""
    c, s = math.cos(theta), math.sin(theta)
    return Mat2(c, -s, s, c)


def scaling(rho: float) -> Mat2:
    """diag(rho, 1/rho): translation along the imaginary axis, i -> rho^2 i."""
    if not rho > 0.0:
        raise NonPositiveScale(f"scale ratio must be positive, got {rho!r}")
    return Mat2(rho, 0.0, 0.0, 1.0 / rho)
