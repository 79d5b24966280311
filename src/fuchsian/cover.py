"""The universal cover of SL(2,R), tracked through logarithm branches.

A cover element is a pair (A, phi) where phi is a continuous branch of
log j(A, .) on the half-plane, j(A, z) = cz + d.  The half-plane is simply
connected and j never vanishes on it, so such branches exist and any one is
pinned down by its value at i.  Its imaginary part is the winding data a
bare matrix forgets: shifting the branch adds 2*pi*i*k, and the elements
over the identity matrix form the central kernel, with phi(i) ranging over
2*pi*i*Z.

An element is the pair (A, n) of its matrix and integer winding, with
phi(i) = Log j(A, i) + 2*pi*i*n, a logarithm of j(A, i) by construction;
CoverElement is that pair as a named tuple, and the kernels take it as it
is, as they take a Mat2 for an entry tuple.
Over A1 A2 the branch value at i is phi1(A2 . i) + phi2(i), and j(A1, .)
maps [i, A2.i] into one open half-plane, so n = n1 + n2 + c with c the
Euler cocycle (Milnor 1958; Wood, Comment. Math. Helv. 46, 1971), rounded
where it is computed:

    c = (Arg j(A1,i) + Arg[j(A1,A2.i)/j(A1,i)] + Arg j(A2,i) - Arg j(A1A2,i)) / 2pi

It lies in {-1, 0, 1}, so no rounding error accumulates along a word; a c
farther than CARRY_TOL turn from its integer raises NonIntegral, a ValueError.
"""
from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from typing import NamedTuple

# mobius_act is not called here; it stays importable because bench/tracer.py
# wraps it under this name.
from .halfplane import (  # noqa: F401
    DegenerateDenominator,
    HPoint,
    Mat2,
    _act,
    _inv,
    _j,
    _mat,
    _mul,
    frobenius_distance,
    j_cocycle,
    mobius_act,
)

TWO_PI = 2.0 * math.pi
CARRY_TOL = 0.25    # turns a cocycle carry may lie from its integer
KERNEL_TOL = 1e-6   # Frobenius distance to I for kernel membership

_I = HPoint(0.0, 1.0)


class NotInKernel(ValueError):
    """kernel_value() was given an element whose matrix part is not near I."""


class NonIntegral(ArithmeticError, ValueError):
    """A quantity that must be an integer is too far from one; numerical breakdown."""


def _j_i(m: tuple) -> complex:
    return complex(m[3], m[2])  # j(A, i) = d + ci


class CoverElement(namedtuple("CoverElement", "A n")):
    """Pair (A, n): the matrix and the integer winding of phi(i) = Log j(A, i) + 2*pi*i*n."""

    __slots__ = ()
    __add__ = __rmul__ = None  # * is the group law, not tuple repetition

    def __new__(cls, A: Mat2, n: int) -> "CoverElement":
        if not isinstance(A, Mat2):
            raise TypeError(f"matrix part must be a Mat2, got {type(A).__name__}")
        # TypeError for a winding that is not an integer
        return tuple.__new__(cls, (A, operator.index(n)))

    @property
    def phi_i(self) -> complex:
        return _phi(self)

    def __mul__(self, other: "CoverElement") -> "CoverElement":
        return cover_mul(self, other)

    def inverse(self) -> "CoverElement":
        return cover_inv(self)


class KernelValue(NamedTuple):
    k: int
    residual: float


# Kernels on (entries, n) pairs, entries an (a, b, c, d) tuple that passed
# halfplane's _check_mat and n the integer winding: a CoverElement is one.

def _arg_i(m: tuple) -> float:
    return math.atan2(m[2], m[3])  # Arg j(A, i), the phase of d + ci


def _cocycle(m1: tuple, m2: tuple, m: tuple) -> int:
    """The Euler cocycle c of m1 m2 = m; NonIntegral past CARRY_TOL turn."""
    try:
        x, y = _act(m2, 0.0, 1.0)
        j1 = _j(m1[2], m1[3], x, y)
    except DegenerateDenominator:
        # m2 moves i past the action's guard (Im m2.i > 1e24); the cocycle
        # identity j(m1, m2.i) = j(m1 m2, i) / j(m2, i) needs no point
        j1 = _j_i(m) / _j_i(m2)
    increment = cmath.phase(j1 / _j_i(m1))
    t = (_arg_i(m1) + increment + _arg_i(m2) - _arg_i(m)) / TWO_PI
    c = round(t)
    if abs(t - c) > CARRY_TOL:
        raise NonIntegral(f"Euler cocycle carry {t!r} is {abs(t - c):.3f} turn from an integer")
    return c


def _cmul(e1: tuple, e2: tuple) -> tuple:
    (m1, n1), (m2, n2) = e1, e2
    m = _mul(m1, m2)
    return m, n1 + n2 + _cocycle(m1, m2, m)


def _cinv(e: tuple) -> tuple:
    # the n' with (A, n)(A^-1, n') = (I, 0)
    m, n = e
    m_inv = _inv(m)
    return m_inv, -n - _cocycle(m, m_inv, (1.0, 0.0, 0.0, 1.0))


def _phi(e: tuple) -> complex:
    return cmath.log(_j_i(e[0])) + complex(0.0, TWO_PI * e[1])


def lift(A: Mat2, k: int = 0) -> CoverElement:
    """The element over A on branch k; k = 0 takes the principal argument."""
    return CoverElement(A, k)


def phi_at(e: CoverElement, z: HPoint) -> complex:
    """Evaluate the branch at z: phi(i) plus the principal-log increment."""
    return e.phi_i + cmath.log(j_cocycle(e.A, z) / j_cocycle(e.A, _I))


def cover_mul(e1: CoverElement, e2: CoverElement) -> CoverElement:
    m, n = _cmul(e1, e2)
    return CoverElement(_mat(m), n)


def cover_inv(e: CoverElement) -> CoverElement:
    m, n = _cinv(e)
    return CoverElement(_mat(m), n)


def kernel_value(e: CoverElement, tol: float = KERNEL_TOL) -> KernelValue:
    """Integer k with phi(i) = 2*pi*i*k for an element over the identity.

    k is the winding n, returned together with the distance |Log j(A, i)|
    of phi(i) from 2*pi*i*k, so callers can judge how cleanly the element
    sits in the kernel.
    """
    dist = frobenius_distance(e.A, Mat2.identity())
    if dist > tol:
        raise NotInKernel(f"matrix part is {dist:.3e} from I (tol {tol:.1e})")
    return KernelValue(e.n, abs(cmath.log(j_cocycle(e.A, _I))))
