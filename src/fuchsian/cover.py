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
Over A1 A2 the branch value at i is phi1(A2 . i) + phi2(i), so
n = n1 + n2 + c with c the Euler cocycle (Milnor 1958; Wood, Comment. Math.
Helv. 46, 1971), read off signs alone (Kubota, J. Math. Soc. Japan 19, 1967;
Barge-Ghys, Math. Ann. 294, 1992).  Let h(A) count Arg j(A, i) = Arg(d + ci)
in quarter turns: the sign of c, or for c = 0, 0 when d > 0 and +-2 by the
sign bit of c when d < 0, as math.atan2 reads it.  j(A1, .) maps the
half-plane into the open half-plane of the sign of c1, or is the constant
d1, so the continued argument of j(A1, A2.i) has the code h(A1).  An
argument lies within a quarter turn of h pi/2 when h is odd and on it when
h is even, so 4c is h(A1) + h(A2) - h(A1A2) up to an integer smaller in
size than the count of odd codes and of its parity, at most 1:

    c = floor((h(A1) + h(A2) - h(A1A2) + 2) / 4)

No error accumulates along a word.  No exact product gives a sum 2 mod 4;
a computed one whose c rounded to zero can (it underflows from factors with
c a few subnormals from zero), and _cocycle refuses it with NonIntegral.
The adjugate negates h (a zero c leaves d with the sign of a, as the det
check holds ad near 1), so the inverse of a principal lift is principal.
"""
from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple

# mobius_act is not called here; it stays importable because bench/tracer.py
# wraps it under this name.
from .halfplane import (  # noqa: F401
    _EYE,
    HPoint,
    Mat2,
    _inv,
    _mat,
    _mul,
    _renorm,
    frobenius_distance,
    j_cocycle,
    mobius_act,
)

TWO_PI = 2.0 * math.pi
KERNEL_TOL = 1e-6   # Frobenius distance to I for kernel membership


class NotInKernel(ValueError):
    """kernel_value() was given an element whose matrix part is not near I."""


class NonIntegral(ArithmeticError, ValueError):
    """A carry or the raw invariant is off its lattice; numerical breakdown."""


def _j_i(m: tuple) -> complex:
    return complex(m[3], m[2])  # j(A, i) = d + ci


class CoverElement(namedtuple("CoverElement", "A n")):
    """Pair (A, n): the matrix and the integer winding of phi(i) = Log j(A, i) + 2*pi*i*n."""

    __slots__ = ()
    __add__ = __rmul__ = None  # * is the group law, not tuple repetition
    _make = _replace = None  # each would build a value without the checks

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


KernelValue = namedtuple("KernelValue", "k residual")


# Kernels on plain tuples: _h and _cocycle read entries (a, b, c, d), as a
# Mat2 is, and _phi an (entries, n) pair, n the integer winding, as a
# CoverElement is.

def _h(m: tuple) -> int:
    """h(A): Arg j(A, i) = Arg(d + ci) in quarter turns, a signed zero read as by math.atan2."""
    c = m[2]
    if c:
        return 1 if c > 0.0 else -1
    return 0 if m[3] > 0.0 else int(math.copysign(2.0, c))


def _cocycle(m1: tuple, m2: tuple, m: tuple) -> int:
    """The Euler cocycle c of m1 m2 = m from quarter turns; NonIntegral for a sum 2 mod 4."""
    s = _h(m1) + _h(m2) - _h(m)
    if s % 4 == 2:
        raise NonIntegral(f"Euler cocycle quarter turns sum to {s}: the c of {m!r} rounded to zero")
    return (s + 2) // 4


def _phi(e: tuple) -> complex:
    return cmath.log(_j_i(e[0])) + complex(0.0, TWO_PI * e[1])


def lift(A: Mat2, k: int = 0) -> CoverElement:
    """The element over A on branch k; k = 0 takes the principal argument."""
    return CoverElement(A, k)


def phi_at(e: CoverElement, z: HPoint) -> complex:
    """Evaluate the branch at z: phi(i) plus the principal-log increment."""
    return e.phi_i + cmath.log(j_cocycle(e.A, z) / _j_i(e.A))


def cover_mul(e1: CoverElement, e2: CoverElement) -> CoverElement:
    (m1, n1), (m2, n2) = e1, e2
    m = _renorm(*_mul(m1, m2))
    return CoverElement(_mat(m), n1 + n2 + _cocycle(m1, m2, m))


def cover_inv(e: CoverElement) -> CoverElement:
    A, n = e
    return CoverElement(_mat(_inv(A)), -n)  # (A, n)(A^-1, -n) = (I, 0): c(A, A^-1, I) = 0


def kernel_value(e: CoverElement) -> KernelValue:
    """Integer k with phi(i) = 2*pi*i*k for an element over the identity.

    k is the winding n, returned together with the distance |Log j(A, i)|
    of phi(i) from 2*pi*i*k, so callers can judge how cleanly the element
    sits in the kernel.
    """
    dist = frobenius_distance(e.A, _EYE)
    if dist > KERNEL_TOL:
        raise NotInKernel(f"matrix part is {dist:.3e} from I (tol {KERNEL_TOL:.1e})")
    return KernelValue(e.n, abs(cmath.log(_j_i(e.A))))
