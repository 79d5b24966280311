"""Surface-group representations into SL(2,R) and their Toledo invariant.

A genus-g representation is the tuple (A_1, B_1, ..., A_g, B_g) of images of
the standard generators, constrained by the single relation
[A_1,B_1]...[A_g,B_g] = I.  The Toledo invariant lifts each generator to the
universal cover, multiplies the lifted commutators, and reads the winding of
the resulting central element: tau = Im phi(i) / pi.  It does not depend on
the branch chosen for any lift, because each lift appears in a commutator
together with its inverse.

Side-pairing constructions may satisfy the relation only up to sign (the
product lands on -I).  Commutators are blind to the signs of the individual
matrices, so no sign flip of a generator can repair this; such data is
honestly a PSL(2,R)-representation.  We still compute tau for it: over -I
the admissible phi(i) values form i*pi*(2Z+1), so tau comes out odd and the
result carries a psl_only flag.
"""
from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from functools import cached_property
from math import pi

# lift, cover_mul and cover_inv stay importable here: bench/tracer.py wraps
# them under these names.
from .cover import NonIntegral, _cinv, _cmul, _phi, cover_inv, cover_mul, lift  # noqa: F401
from .halfplane import Mat2, _frobenius, _inv, _mat, _mul

_EYE = (1.0, 0.0, 0.0, 1.0)
_MINUS_EYE = (-1.0, -0.0, -0.0, -1.0)

REL_TOL = 1e-6         # relation residual for a representation to count as valid
SOLVE_TOL = 1e-14      # solver target: squared Frobenius norm of the product minus I
NONINTEGRAL_TOL = 1e-3  # raw invariant farther than this from the lattice is an error
WARN_TOL = 1e-6         # ... farther than this is merely suspicious
# a generator within this relative distance of +-I counts as central, and one
# whose commutator with the pivot direction is this small (relative) commutes
CENTRALIZER_TOL = 1e-9


class RelationViolated(ValueError):
    """The generators do not satisfy the surface-group relation."""


@dataclass(frozen=True)
class Representation:
    """Genus plus the 2g generator images.

    Construction does not enforce the relation, so solver iterates and other
    unvalidated candidates can be carried around; anything consuming the
    representation as a representation checks relation_residual itself.
    The relation word and its cover lift are evaluated on first use and kept
    on the instance, not keyed by value: equal instances each compute theirs.
    """

    genus: int
    gens_a: tuple[Mat2, ...]
    gens_b: tuple[Mat2, ...]

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")
        object.__setattr__(self, "gens_a", tuple(self.gens_a))
        object.__setattr__(self, "gens_b", tuple(self.gens_b))
        if len(self.gens_a) != self.genus or len(self.gens_b) != self.genus:
            raise ValueError(
                f"need {self.genus} generators per family, got "
                f"{len(self.gens_a)} and {len(self.gens_b)}"
            )

    @classmethod
    def trivial(cls, genus: int) -> "Representation":
        eye = Mat2.identity()
        return cls(genus, (eye,) * genus, (eye,) * genus)

    @cached_property
    def _relation(self) -> "tuple | ValueError":
        """Entries of the relation word, or the error that stopped its renormalization."""
        # The word P A_1 B_1 A_1^-1 B_1^-1 ... multiplied left to right from P = I.
        P = _EYE
        try:
            for A, B in zip(self.gens_a, self.gens_b):
                a = (A.a, A.b, A.c, A.d)
                b = (B.a, B.b, B.c, B.d)
                P = _mul(_mul(_mul(_mul(P, a), b), _inv(a)), _inv(b))
        except ValueError as exc:
            return exc.with_traceback(None)
        return P

    @cached_property
    def _lifted_relation(self) -> tuple:
        """The relation word lifted on principal branches, (entries, n); a
        NonIntegral carry is raised, not kept."""
        # Each commutator is (ta tb)(ta^-1 tb^-1); the total accumulates from the left.
        total = None
        for A, B in zip(self.gens_a, self.gens_b):
            ta = ((A.a, A.b, A.c, A.d), 0)
            tb = ((B.a, B.b, B.c, B.d), 0)
            comm = _cmul(_cmul(ta, tb), _cmul(_cinv(ta), _cinv(tb)))
            total = comm if total is None else _cmul(total, comm)
        return total


def _distance_to_pm_eye(m: tuple) -> tuple[float, float]:
    return _frobenius(m, _EYE), _frobenius(m, _MINUS_EYE)


def relation_product(r: Representation) -> Mat2:
    """The commutator product A_1 B_1 A_1^-1 B_1^-1 ... as a checked Mat2.

    ValueError ("cannot renormalize entries with det ...") when a partial
    product of the word cannot be renormalized onto det = 1, the case where
    relation_residual returns inf.
    """
    P = r._relation
    if isinstance(P, ValueError):
        raise ValueError(*P.args)
    return _mat(P)


def relation_residual(r: Representation) -> float:
    """Frobenius distance of the commutator product to +-I (sign-tolerant).

    inf when a partial product of the word cannot be renormalized onto
    det = 1 (its entries overflow, or rounding drives its det to zero or
    below): the relation cannot be verified for such generators.
    """
    P = r._relation
    if isinstance(P, ValueError):
        return math.inf
    return min(_distance_to_pm_eye(P))


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
    gens = [(M.a, M.b, M.c, M.d) for M in (*r.gens_a, *r.gens_b)]
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
    lift.  That lift and the relation product are each evaluated once per
    Representation instance; the checks below run on every call.
    NonIntegral when a cover carry is farther than cover.CARRY_TOL from its
    integer, or raw farther than NONINTEGRAL_TOL from the lattice.
    """
    _require_relation(r, rel_tol)
    if branches is not None and len(branches) != 2 * r.genus:
        raise ValueError(f"need {2 * r.genus} branch integers, got {len(branches)}")

    total = r._lifted_relation
    m, phi = total[0], _phi(total)

    dist_plus, dist_minus = _distance_to_pm_eye(m)
    psl_only = dist_minus < dist_plus
    kernel_matrix_residual = min(dist_plus, dist_minus)

    raw = phi.imag / pi
    if psl_only:
        value = round(raw)            # lattice over -I is the odd integers
    else:
        value = 2 * round(raw / 2.0)  # lattice over +I is the even integers
    residual = abs(raw - value)
    if residual > NONINTEGRAL_TOL:
        raise NonIntegral(
            f"raw invariant {raw!r} is {residual:.3e} from the lattice"
        )
    if residual > WARN_TOL:
        warnings.warn(
            f"Toledo invariant residual {residual:.3e} is unusually large",
            stacklevel=2,
        )
    return ToledoResult(int(value), raw, residual, kernel_matrix_residual, psl_only)


def milnor_check(r: Representation) -> bool:
    """|tau| <= 2g - 2; holds for every representation."""
    return abs(toledo(r).value) <= 2 * r.genus - 2


def goldman_fuchsian_test(r: Representation) -> bool:
    """Fuchsian exactly when the invariant is maximal: |tau| = 2g - 2."""
    return abs(toledo(r).value) == 2 * r.genus - 2


def reflect_conjugate(r: Representation) -> Representation:
    """Conjugate every generator by diag(1, -1); negates the invariant.

    At the matrix level this is (a, b; c, d) -> (a, -b; -c, d), exact in
    floating point, and corresponds to reversing the surface orientation.
    """
    def refl(M: Mat2) -> Mat2:
        return Mat2(M.a, -M.b, -M.c, M.d)

    return Representation(
        r.genus, tuple(refl(A) for A in r.gens_a), tuple(refl(B) for B in r.gens_b)
    )


def branch_independence_check(
    r: Representation, seed: int, trials: int = 20, span: int = 3
) -> bool:
    """Ask for the invariant under random branch choices in [-span, span].

    True when every trial reproduces the principal-branch integer exactly.
    This holds by construction in the integer kernel: lifts on branches k
    and l give each commutator the winding k + l - k - l = 0, so toledo
    reads the principal lift whatever the branches and no trial can differ.
    The check stays for the `branch_independent` line of `fuchsian toledo
    --branches N`; the test that lifts each generator on its own branch is
    per_branch_toledo in tests/oracles.py.
    """
    base = toledo(r).value
    rng = random.Random(seed)
    for _ in range(trials):
        ks = [rng.randint(-span, span) for _ in range(2 * r.genus)]
        if toledo(r, branches=ks).value != base:
            return False
    return True
