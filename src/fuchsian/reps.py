"""Surface-group representations into SL(2,R) and their Toledo invariant.

A genus-g representation is the tuple (A_1, B_1, ..., A_g, B_g) of images of
the standard generators, constrained by the single relation
[A_1,B_1]...[A_g,B_g] = I.  The relation product multiplies the 4g letters
A_1, B_1, A_1^-1, B_1^-1, ... left to right, through partial products
P_0 = I, P_k = P_{k-1} L_k.  The Toledo invariant lifts that same word to the
universal cover on principal branches and reads the winding of the resulting
central element: tau = Im phi(i) / pi, where phi(i) = Log j(P_4g, i) + 2 pi i n
and the integer n sums the Euler cocycle carries c(P_{k-1}, L_k, P_k) of the
word's products; the lift of an inverse letter, the inverse of a principal
lift, is principal itself.  It does not depend on the branch chosen for any
lift, because each lift appears in a commutator together with its inverse, so
the principal lift's word, wound once per Representation, is the only one read.
The products are plain kernel products, and the word is checked once, at
its end.

Side-pairing constructions may satisfy the relation only up to sign (the
product lands on -I).  Commutators are blind to the signs of the individual
matrices, so no sign flip of a generator can repair this; such data is
honestly a PSL(2,R)-representation.  We still compute tau for it: over -I
the admissible phi(i) values form i*pi*(2Z+1), so tau comes out odd and the
result carries a psl_only flag.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from math import pi

from . import _value_type

# lift, cover_mul and cover_inv stay importable here: bench/tracer.py wraps
# them under these names.
from .cover import NonIntegral, _cocycle, _phi, cover_inv, cover_mul, lift  # noqa: F401
from .halfplane import _EYE, _MINUS_EYE, Mat2, _inv, _mat, _mul, _renorm, frobenius_distance

REL_TOL = 1e-6         # relation residual for a representation to count as valid
SOLVE_TOL = 1e-14      # solver target: squared Frobenius norm of the product minus I
NONINTEGRAL_TOL = 1e-3  # raw invariant farther than this from the lattice is an error
WARN_TOL = 1e-6         # ... farther than this is merely suspicious
# a generator within this relative distance of +-I counts as central, and one
# whose commutator with the pivot direction is this small (relative) commutes
CENTRALIZER_TOL = 1e-9


class RelationViolated(ValueError):
    """The generators do not satisfy the surface-group relation."""


class Representation(_value_type("Representation", "genus gens_a gens_b")):
    """Genus plus the 2g generator images, as tuples of Mat2.

    Construction does not enforce the relation, so solver iterates and other
    unvalidated candidates can be carried around; anything consuming the
    representation as a representation checks relation_residual itself.
    Two steps are evaluated on first use and kept on the instance, not
    keyed by value, so equal instances each compute theirs: _relation, the
    relation word with its one check and its distances to +-I, and
    _toledo, the ToledoResult read off the winding of its principal lift.
    No __slots__, so each instance has the __dict__ that keeps them;
    cached_property writes there directly, and nothing else can set an
    attribute.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Representation is immutable")

    def __new__(cls, genus: int, gens_a, gens_b) -> "Representation":
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        gens_a, gens_b = tuple(gens_a), tuple(gens_b)
        if len(gens_a) != genus or len(gens_b) != genus:
            raise ValueError(
                f"need {genus} generators per family, got {len(gens_a)} and {len(gens_b)}"
            )
        for M in (*gens_a, *gens_b):
            if not isinstance(M, Mat2):
                # a plain tuple would reach the kernels unchecked
                raise TypeError(f"generators must be Mat2, got {type(M).__name__}")
        return tuple.__new__(cls, (genus, gens_a, gens_b))

    @classmethod
    def trivial(cls, genus: int) -> "Representation":
        eye = Mat2.identity()
        return cls(genus, (eye,) * genus, (eye,) * genus)

    @cached_property
    def _relation(self) -> tuple:
        """The relation word evaluated once: _word's (letters, partial
        products), the last product through _renorm, the word's one check,
        and that product's Frobenius distances to I and to -I.  ValueError
        when it cannot be renormalized, and then nothing is kept."""
        letters, partials = _word(zip(self.gens_a, self.gens_b))
        m = partials[-1]
        return (letters, partials, _renorm(*m),
                frobenius_distance(m, _EYE), frobenius_distance(m, _MINUS_EYE))

    @cached_property
    def _toledo(self) -> "ToledoResult":
        """The word's ToledoResult before toledo's checks: Im phi(i) / pi of its
        principal lift, whose integer winding sums the word's product carries,
        rounded to the lattice, odd over -I and even over I.  NonIntegral from
        a refused carry, and no refusal is kept."""
        letters, partials, _, dist_plus, dist_minus = self._relation
        winding = sum(map(_cocycle, partials, letters, partials[1:]))
        raw = _phi((partials[-1], winding)).imag / pi
        psl_only = dist_minus < dist_plus
        value = int(round(raw) if psl_only else 2 * round(raw / 2.0))
        return ToledoResult(value, raw, abs(raw - value), min(dist_plus, dist_minus), psl_only)


def _word(pairs) -> tuple:
    """(letters, partial products) of the relation word of the pairs (A_i, B_i):
    A_1, B_1, A_1^-1, B_1^-1, ... times P_0 = I by the plain kernel, unchecked."""
    letters, partials = [], [_EYE]
    for A, B in pairs:
        for L in (A, B, _inv(A), _inv(B)):
            letters.append(L)
            partials.append(_mul(partials[-1], L))
    return letters, partials


def relation_product(r: Representation) -> Mat2:
    """The commutator product A_1 B_1 A_1^-1 B_1^-1 ... as a checked Mat2.

    The word's product renormalized onto det = 1.  ValueError ("cannot
    renormalize entries with det ...") when it cannot be, the case where
    relation_residual returns inf.
    """
    return _mat(r._relation[2])


def relation_residual(r: Representation) -> float:
    """Frobenius distance of the commutator product to +-I (sign-tolerant).

    Read off the instance's kept distances; inf, and nothing kept, when the
    word's product cannot be renormalized onto det = 1 (its entries
    overflow, or rounding drives its det to zero or below): the relation
    cannot be verified for such generators.
    """
    try:
        return min(r._relation[3:])
    except ValueError:
        return math.inf


def _require_relation(r: Representation, rel_tol: float = REL_TOL) -> None:
    rel = relation_residual(r)
    if rel > rel_tol:
        raise RelationViolated(f"relation residual {rel:.3e} exceeds {rel_tol:.1e}")


def jacobian_rank(r: Representation) -> int:
    """Rank of the relation Jacobian at a representation: 3 - dim z(rho).

    The centralizer z(rho) of the image in sl(2,R) has dimension 3 when every
    generator is +-I, 1 when the image is abelian but not central, and 0
    otherwise (Goldman, "The symplectic nature of fundamental groups of
    surfaces", 1984).  The centralizer of a non-central element is abelian, so
    the image is abelian exactly when every generator commutes with the
    traceless part of the generator farthest from +-I.  Rank 3 at a smooth
    point makes the variety dimension 6g - 3 there, and 6g - 6 after dividing
    out conjugation.
    """
    gens = (*r.gens_a, *r.gens_b)
    # traceless part (x, y, z) = (x, y; z, -x); halving first keeps a - d finite
    parts = [(0.5 * a - 0.5 * d, b, c) for a, b, c, d in gens]
    sizes = [math.hypot(*m) for m in gens]
    norms = [math.hypot(x, x, y, z) for x, y, z in parts]
    k = max(range(len(gens)), key=lambda i: norms[i] / sizes[i])
    if not norms[k] > CENTRALIZER_TOL * sizes[k]:
        return 0
    x0, y0, z0 = (t / norms[k] for t in parts[k])
    for (x, y, z), n in zip(parts, sizes):
        # the commutator with (x0, y0; z0, -x0), a traceless matrix again
        h = y * z0 - z * y0
        if math.hypot(h, h, 2.0 * (x * y0 - y * x0), 2.0 * (z * x0 - x * z0)) > CENTRALIZER_TOL * n:
            return 3
    return 2


@dataclass(frozen=True)
class ToledoResult:
    value: int                    # the invariant, even unless psl_only
    raw: float                    # Im phi(i) / pi before rounding
    residual: float               # |raw - value|
    kernel_matrix_residual: float  # Frobenius distance of the product to +-I
    psl_only: bool = False        # relation closed at -I, not liftable data


def toledo(
    r: Representation,
    branches: "list[int] | tuple[int, ...] | None" = None,
    rel_tol: float = REL_TOL,
) -> ToledoResult:
    """Toledo invariant of a representation satisfying the relation.

    branches, when given, holds 2g integers choosing the lift branch of
    A_1, B_1, ..., A_g, B_g in that order.  Only their count is checked:
    the integer winding of a commutator of lifts on branches k and l gains
    k + l - k - l = 0, and the Euler cocycle carries read only the matrices,
    so the result cannot depend on them and is read from the principal
    lift.  The lift winds the relation word whose residual the relation
    check reads, so kernel_matrix_residual equals relation_residual(r).
    The result is derived once per Representation instance and returned,
    immutable, on every call; the relation check, the branch count,
    NonIntegral and the warning run on every call, and no refusal is kept.
    NonIntegral when raw is farther than NONINTEGRAL_TOL from the lattice,
    or when cover._cocycle refuses a carry of the word.
    """
    _require_relation(r, rel_tol)
    if branches is not None and len(branches) != 2 * r.genus:
        raise ValueError(f"need {2 * r.genus} branch integers, got {len(branches)}")

    result = r._toledo
    if result.residual > NONINTEGRAL_TOL:
        raise NonIntegral(f"raw invariant {result.raw!r} is {result.residual:.3e} from the lattice")
    if result.residual > WARN_TOL:
        warnings.warn(
            f"Toledo invariant residual {result.residual:.3e} is unusually large",
            stacklevel=2,
        )
    return result


def goldman_fuchsian_test(r: Representation) -> bool:
    """Fuchsian exactly when the invariant is maximal: |tau| = 2g - 2."""
    return abs(toledo(r).value) == 2 * r.genus - 2


def reflect_conjugate(r: Representation) -> Representation:
    """Conjugate every generator by diag(1, -1); negates the invariant.

    At the matrix level this is (a, b; c, d) -> (a, -b; -c, d), exact in
    floating point, and corresponds to reversing the surface orientation.
    """
    def refl(M: Mat2) -> Mat2:
        return _mat((M.a, -M.b, -M.c, M.d))  # det bit for bit M's

    return Representation(
        r.genus, tuple(refl(A) for A in r.gens_a), tuple(refl(B) for B in r.gens_b)
    )
