"""Numerical solving on the relation variety { [A_1,B_1]...[A_g,B_g] = I }.

Generators are parametrized by three reals each through the Iwasawa-style
factorization rotation(theta) diag(e^s, e^-s) ((1, u), (0, 1)), which hits
every determinant-one matrix exactly once and has determinant one by
construction, so the variety lives in R^{6g}.  The relation map is treated
as valued in R^3 through the entries (P00 - 1, P01, P10) of the commutator
product; the remaining entry is dependent through det P = 1.

The solver is damped Gauss-Newton with a central finite-difference Jacobian:
the problem is tiny (3 equations, 6g unknowns), so all perturbed evaluations
are done in one batched matrix pipeline.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .halfplane import Mat2
from .reps import SOLVE_TOL, Representation

FD_STEP = 1e-6
# a generator within this relative distance of +-I counts as central, and one
# whose commutator with the pivot direction is this small (relative) commutes
CENTRALIZER_TOL = 1e-9


class DidNotConverge(RuntimeError):
    """Gauss-Newton hit the iteration limit or stalled; reseed and retry."""


@dataclass(frozen=True, eq=False)
class RepCoords:
    """(theta, s, u) rows for the generators in the order A1, B1, ..., Ag, Bg."""

    genus: int
    values: np.ndarray  # shape (2g, 3)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (2 * self.genus, 3):
            raise ValueError(
                f"genus {self.genus} needs coordinates of shape {(2 * self.genus, 3)}, "
                f"got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)


def matrices_from_values(vals: np.ndarray) -> np.ndarray:
    """(..., k, 3) coordinate rows to (..., k, 2, 2) determinant-one matrices."""
    vals = np.asarray(vals, dtype=float)
    th, s, u = vals[..., 0], vals[..., 1], vals[..., 2]
    es = np.exp(s)
    c, sn = np.cos(th), np.sin(th)
    M = np.empty(vals.shape[:-1] + (2, 2))
    M[..., 0, 0] = c * es
    M[..., 0, 1] = c * es * u - sn / es
    M[..., 1, 0] = sn * es
    M[..., 1, 1] = sn * es * u + c / es
    return M


def _adjugate(M: np.ndarray) -> np.ndarray:
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    out[..., 1, 1] = M[..., 0, 0]
    return out


def _relation_matrix(vals: np.ndarray) -> np.ndarray:
    """Commutator product over the generators; vals is (..., 2g, 3)."""
    mats = matrices_from_values(vals)
    g = mats.shape[-3] // 2
    P = None
    for j in range(g):
        A = mats[..., 2 * j, :, :]
        B = mats[..., 2 * j + 1, :, :]
        C = A @ B @ _adjugate(A) @ _adjugate(B)
        P = C if P is None else P @ C
    return P


def relation_gap(vals: np.ndarray) -> np.ndarray:
    """The three independent entries of P - I: (P00 - 1, P01, P10)."""
    P = _relation_matrix(np.asarray(vals, dtype=float))
    return np.stack([P[..., 0, 0] - 1.0, P[..., 0, 1], P[..., 1, 0]], axis=-1)


def residual(coords: "RepCoords | np.ndarray") -> float:
    """Squared Frobenius norm of the full commutator product minus I."""
    vals = coords.values if isinstance(coords, RepCoords) else np.asarray(coords, float)
    P = _relation_matrix(vals)
    P = P - np.eye(2)
    return float(np.sum(P * P))


def relation_jacobian(vals: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of relation_gap, shape (3, 6g)."""
    vals = np.asarray(vals, dtype=float)
    n = vals.size
    flat = vals.reshape(n)
    eye = np.eye(n) * step
    batch = np.concatenate([flat + eye, flat - eye], axis=0).reshape(2 * n, *vals.shape)
    gaps = relation_gap(batch)
    return ((gaps[:n] - gaps[n:]) / (2.0 * step)).T


def coords_from_rep(r: Representation) -> RepCoords:
    """Recover (theta, s, u) per generator; exact inverse of the factorization."""
    rows = []
    for A, B in zip(r.gens_a, r.gens_b):
        for M in (A, B):
            norm2 = M.a * M.a + M.c * M.c
            rows.append(
                (
                    np.arctan2(M.c, M.a),
                    0.5 * np.log(norm2),
                    (M.a * M.b + M.c * M.d) / norm2,
                )
            )
    return RepCoords(r.genus, np.array(rows))


def rep_from_coords(coords: RepCoords) -> Representation:
    mats = matrices_from_values(coords.values)
    gens = [Mat2.renormalized(*m.reshape(4)) for m in mats]
    return Representation(coords.genus, tuple(gens[0::2]), tuple(gens[1::2]))


def refine(
    vals: np.ndarray,
    max_iter: int = 500,
    tol: float = SOLVE_TOL,
    fd_step: float = FD_STEP,
    verbose: bool = False,
) -> np.ndarray:
    """Drive the relation residual below tol by damped Gauss-Newton.

    Damping follows the usual schedule: multiply by 10 when a step fails to
    decrease the residual, divide by 10 when it succeeds.  A trial step whose
    residual overflows to inf or NaN is rejected like any other failed step
    and counted; numpy's overflow warnings are silenced for the whole solve,
    because every non-finite value is handled here.  DidNotConverge names the
    stop: `max_iter` when the iterations run out, `stalled` when no damping
    up to 1e14 lowers the residual.
    """
    vals = np.array(vals, dtype=float)
    lam = 1e-3
    nonfinite = 0
    iterations = 0
    stop = "max_iter"
    with np.errstate(over="ignore", invalid="ignore"):
        f = residual(vals)
        for it in range(max_iter):
            if verbose:
                print(f"iter {it} residual {f:.6e} damping {lam:.1e}", file=sys.stderr)
            if f <= tol:
                break
            iterations += 1
            gap = relation_gap(vals)
            J = relation_jacobian(vals, step=fd_step)
            JtJ = J.T @ J
            Jtg = J.T @ gap
            n = JtJ.shape[0]
            accepted = False
            for _ in range(60):
                try:
                    delta = np.linalg.solve(JtJ + lam * np.eye(n), -Jtg)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                cand = vals + delta.reshape(vals.shape)
                f_cand = residual(cand)
                if not np.isfinite(f_cand):
                    nonfinite += 1
                elif f_cand < f:
                    vals, f = cand, f_cand
                    lam = max(lam / 10.0, 1e-14)
                    accepted = True
                    break
                lam *= 10.0
                if lam > 1e14:
                    break
            if not accepted:
                stop = "stalled"
                break
    if verbose:
        print(f"nonfinite_trials {nonfinite}", file=sys.stderr)
    if f <= tol:
        return vals
    raise DidNotConverge(
        f"{stop}: residual {f:.3e} after {iterations} iterations (tol {tol:.1e}, "
        f"{nonfinite} non-finite trial steps rejected)"
    )


def solve(
    genus: int,
    seed: int = 0,
    max_iter: int = 500,
    tol: float = SOLVE_TOL,
    verbose: bool = False,
) -> Representation:
    """Random-start solve; the returned representation satisfies the relation.

    Raises DidNotConverge when the seed leads nowhere; callers reseed.
    """
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    rng = np.random.default_rng(seed)
    start = rng.uniform(-1.0, 1.0, size=(2 * genus, 3))
    vals = refine(start, max_iter=max_iter, tol=tol, verbose=verbose)
    return rep_from_coords(RepCoords(genus, vals))


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
