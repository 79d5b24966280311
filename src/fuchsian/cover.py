"""The universal cover of SL(2,R), tracked through logarithm branches.

A cover element is a pair (A, phi) where phi is a continuous branch of
log j(A, .) on the half-plane, j(A, z) = cz + d.  The half-plane is simply
connected and j never vanishes on it, so such branches exist and any one is
pinned down by its value at i; we store only phi(i).  Its imaginary part is
the winding data a bare matrix forgets: shifting the branch adds 2*pi*i*k,
and the elements over the identity matrix form the central kernel, with
phi(i) ranging over 2*pi*i*Z.

Multiplication transports the first factor's branch along the second
factor's action: over A1 A2 the branch value at i is phi1(A2 . i) + phi2(i).
Evaluating a branch away from i needs no numerical continuation: j maps the
segment [i, z] to a straight segment that misses 0 and stays inside one open
half-plane, so the argument increment lies in (-pi, pi) and equals the
principal log of the ratio j(A, z)/j(A, i).

After every product and inverse the real part of phi(i) is reset to its
exact value log|j(A, i)|; only the imaginary part carries accumulated state.
This keeps the defining residual |exp(phi(i)) - j(A, i)| flat over long
words instead of growing with word length.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

# mobius_act is not called here; it stays importable because bench/tracer.py
# wraps it under this name.
from .halfplane import (  # noqa: F401
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
EXP_TOL = 1e-9     # |exp(phi(i)) - j(A,i)| allowed, relative above |j| = 1
KERNEL_TOL = 1e-6  # Frobenius distance to I for kernel membership

_I = HPoint(0.0, 1.0)


class NotInKernel(ValueError):
    """kernel_value() was given an element whose matrix part is not near I."""


def _j_i(m: tuple) -> complex:
    # j(A, i) by the operations of _j(c, d, 0.0, 1.0); c * 1.0 is c exactly
    c = m[2]
    return complex(c * 0.0 + m[3], c)


def _check_phi(phi: complex, j: complex) -> None:
    """The CoverElement invariant: phi(i) is a logarithm of j(A, i)."""
    if abs(cmath.exp(phi) - j) > EXP_TOL * max(1.0, abs(j)):
        raise ValueError(f"phi(i) = {phi} is not a logarithm of j(A, i) = {j}")


@dataclass(frozen=True)
class CoverElement:
    """Pair (A, phi(i)) with exp(phi(i)) = j(A, i)."""

    A: Mat2
    phi_i: complex

    def __post_init__(self):
        _check_phi(self.phi_i, j_cocycle(self.A, _I))

    def __mul__(self, other: "CoverElement") -> "CoverElement":
        return cover_mul(self, other)

    def inverse(self) -> "CoverElement":
        return cover_inv(self)


class KernelValue(NamedTuple):
    k: int
    residual: float


# Kernels on (entries, phi(i)) pairs, entries an (a, b, c, d) tuple.  Each
# result passes _check_phi, and its matrix passed halfplane's _check_mat.

def _lift(m: tuple, k: int) -> tuple:
    j = _j_i(m)
    phi = cmath.log(j) + complex(0.0, TWO_PI * k)
    _check_phi(phi, j)
    return m, phi


def _phi_at(m: tuple, phi_i: complex, x: float, y: float) -> complex:
    return phi_i + cmath.log(_j(m[2], m[3], x, y) / _j_i(m))


def _rebased(m: tuple, phi: complex) -> tuple:
    # reset the redundant real part; the imaginary part is the payload
    j = _j_i(m)
    phi = complex(math.log(abs(j)), phi.imag)
    _check_phi(phi, j)
    return m, phi


def _cmul(e1: tuple, e2: tuple) -> tuple:
    (m1, phi1), (m2, phi2) = e1, e2
    m = _mul(m1, m2)
    x, y = _act(m2, 0.0, 1.0)
    return _rebased(m, _phi_at(m1, phi1, x, y) + phi2)


def _cinv(e: tuple) -> tuple:
    m, phi = e
    m_inv = _inv(m)
    x, y = _act(m_inv, 0.0, 1.0)
    return _rebased(m_inv, -_phi_at(m, phi, x, y))


def _pair(e: CoverElement) -> tuple:
    A = e.A
    return (A.a, A.b, A.c, A.d), e.phi_i


def _element(e: tuple) -> CoverElement:
    # Unchecked constructor for a pair that has just passed _check_phi.
    out = object.__new__(CoverElement)
    out.__dict__.update(A=_mat(e[0]), phi_i=e[1])
    return out


def lift(A: Mat2, k: int = 0) -> CoverElement:
    """The element over A on branch k; k = 0 takes the principal argument."""
    return _element(_lift((A.a, A.b, A.c, A.d), k))


def phi_at(e: CoverElement, z: HPoint) -> complex:
    """Evaluate the branch at z: phi(i) plus the principal-log increment."""
    m, phi = _pair(e)
    return _phi_at(m, phi, z.x, z.y)


def cover_mul(e1: CoverElement, e2: CoverElement) -> CoverElement:
    return _element(_cmul(_pair(e1), _pair(e2)))


def cover_inv(e: CoverElement) -> CoverElement:
    return _element(_cinv(_pair(e)))


def kernel_value(e: CoverElement, tol: float = KERNEL_TOL) -> KernelValue:
    """Integer k with phi(i) = 2*pi*i*k for an element over the identity.

    Returns the nearest lattice point together with the distance to it, so
    callers can judge how cleanly the element sits in the kernel.
    """
    dist = frobenius_distance(e.A, Mat2.identity())
    if dist > tol:
        raise NotInKernel(f"matrix part is {dist:.3e} from I (tol {tol:.1e})")
    k = round(e.phi_i.imag / TWO_PI)
    residual = abs(e.phi_i - complex(0.0, TWO_PI * k))
    return KernelValue(int(k), residual)
