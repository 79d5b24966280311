"""Numerical solving on the relation variety { [A_1,B_1]...[A_g,B_g] = I }.

Generators are parametrized by three reals each through the Iwasawa-style
factorization rotation(theta) diag(e^s, e^-s) ((1, u), (0, 1)), which hits
every determinant-one matrix exactly once and has determinant one by
construction, so the variety lives in R^{6g}.  The relation map is treated
as valued in R^3 through the entries (P00 - 1, P01, P10) of the commutator
product; the remaining entry is dependent through det P = 1.

The solver is damped Gauss-Newton on Python floats.  One pass over the
relation word builds its prefix and suffix products, which give the gap and
the exact Jacobian by the product rule in O(g) 2x2 products.  With 3
equations and 6g unknowns the damped step is taken through the 3x3 system
(J J^T + lambda I) y = gap, delta = -J^T y, solved in closed form.  Iterates
are unvalidated candidates, so their products are unchecked; the result is
validated where rep_from_coords builds the representation.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .halfplane import Mat2
# jacobian_rank stays importable here: bench/tracer.py wraps it under this
# name and bench/workloads.py calls it here.
from .reps import SOLVE_TOL, Representation, jacobian_rank  # noqa: F401

_EYE = (1.0, 0.0, 0.0, 1.0)


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


def _rows(vals) -> list:
    """Coordinate rows as Python floats; lists pass through untouched."""
    if isinstance(vals, RepCoords):
        vals = vals.values
    return vals if isinstance(vals, list) else np.asarray(vals, dtype=float).tolist()


def _matrix(th: float, s: float, u: float) -> tuple:
    """Entries (a, b, c, d) of rotation(th) diag(e^s, e^-s) ((1, u), (0, 1)).

    math.exp raises OverflowError for s beyond about 709, and e^s underflows
    to 0 (ZeroDivisionError) below about -745.
    """
    e = math.exp(s)
    c, sn = math.cos(th), math.sin(th)
    ce, se = c * e, sn * e
    return (ce, ce * u - sn / e, se, se * u + c / e)


def _mul(m: tuple, n: tuple) -> tuple:
    # unchecked 2x2 product: iterates are validated only at the boundary
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _adj(m: tuple) -> tuple:
    a, b, c, d = m
    return (d, -b, -c, a)


def _word(mats: list) -> list:
    """The relation word A_1 B_1 A_1^-1 B_1^-1 ... as 4g letters."""
    letters = []
    for A, B in zip(mats[0::2], mats[1::2]):
        letters += (A, B, _adj(A), _adj(B))
    return letters


def _product(rows: list) -> tuple:
    P = _EYE
    for L in _word([_matrix(*row) for row in rows]):
        P = _mul(P, L)
    return P


def matrices_from_values(vals) -> np.ndarray:
    """(..., k, 3) coordinate rows to (..., k, 2, 2) determinant-one matrices."""
    vals = np.asarray(vals, dtype=float)
    mats = [_matrix(*row) for row in vals.reshape(-1, 3).tolist()]
    return np.array(mats, dtype=float).reshape(vals.shape[:-1] + (2, 2))


def relation_gap(vals) -> np.ndarray:
    """The three independent entries of P - I: (P00 - 1, P01, P10)."""
    P = _product(_rows(vals))
    return np.array([P[0] - 1.0, P[1], P[2]])


def residual(coords) -> float:
    """Squared Frobenius norm of the full commutator product minus I.

    inf when a generator's e^s overflows or underflows; NaN or inf when the
    product does.
    """
    try:
        a, b, c, d = _product(_rows(coords))
    except ArithmeticError:
        return math.inf
    a, d = a - 1.0, d - 1.0
    return a * a + b * b + c * c + d * d  # ** would raise OverflowError


def _sandwich(Q: tuple, X: tuple, S: tuple) -> tuple:
    """Entries (00, 01, 10) of Q X S."""
    q0, q1, q2, q3 = Q
    x0, x1, x2, x3 = X
    t0, t1 = q0 * x0 + q1 * x2, q0 * x1 + q1 * x3
    t2, t3 = q2 * x0 + q3 * x2, q2 * x1 + q3 * x3
    s0, s1, s2, s3 = S
    return (t0 * s0 + t1 * s2, t0 * s1 + t1 * s3, t2 * s0 + t3 * s2)


def _linearize(rows: list) -> tuple:
    """Gap and exact Jacobian columns at rows, from one pass over the word.

    With prefix Q_k = L_1...L_{k-1} and suffix S_k = L_{k+1}...L_{4g}, a
    generator M at letter k with its inverse at letter k' moves the product
    by Q_k dM S_k + Q_{k'} adj(dM) S_{k'}: the adjugate is linear and is the
    inverse on det = 1.  dM comes from the factorization in closed form.
    """
    word = _word([_matrix(*row) for row in rows])
    pre = [_EYE]
    for L in word:
        pre.append(_mul(pre[-1], L))
    suf = [_EYE]
    for L in reversed(word):
        suf.append(_mul(L, suf[-1]))
    suf.reverse()  # suf[k] = L_k ... L_last, so S_k is suf[k + 1]
    P = pre[-1]
    gap = (P[0] - 1.0, P[1], P[2])

    cols = []
    for i, (th, s, u) in enumerate(rows):
        k = 4 * (i // 2) + i % 2  # A_j sits at letter 4j, B_j at 4j + 1
        e = math.exp(s)
        c, sn = math.cos(th), math.sin(th)
        ce, se = c * e, sn * e
        d_th = (-se, -se * u - c / e, ce, ce * u - sn / e)
        d_s = (ce, ce * u + sn / e, se, se * u - c / e)
        d_u = (0.0, ce, 0.0, se)
        for dM in (d_th, d_s, d_u):
            x = _sandwich(pre[k], dM, suf[k + 1])
            y = _sandwich(pre[k + 2], _adj(dM), suf[k + 3])
            cols.append((x[0] + y[0], x[1] + y[1], x[2] + y[2]))
    return gap, cols


def relation_jacobian(vals, with_gap: bool = False):
    """Exact Jacobian of relation_gap, shape (3, 6g); columns follow vals' rows.

    With with_gap=True it returns (gap, columns) on Python floats instead: the
    three gap entries and the 6g Jacobian columns, the form refine consumes.
    """
    gap, cols = _linearize(_rows(vals))
    return (gap, cols) if with_gap else np.array(cols).T


def _gram(cols: list) -> tuple:
    """Upper triangle (g00, g01, g02, g11, g12, g22) of J J^T."""
    g00 = g01 = g02 = g11 = g12 = g22 = 0.0
    for x, y, z in cols:
        g00 += x * x
        g01 += x * y
        g02 += x * z
        g11 += y * y
        g12 += y * z
        g22 += z * z
    return g00, g01, g02, g11, g12, g22


def _damped_step(gram: tuple, cols: list, gap: tuple, lam: float) -> "list | None":
    """delta = -J^T (J J^T + lam I)^-1 gap, or None for a singular system.

    Equal to -(J^T J + lam I)^-1 J^T gap by the push-through identity, but
    the system is 3x3 and symmetric positive definite, so a closed-form
    Cholesky factorization solves it.  A pivot that is not positive (NaN
    included) or a non-finite solution marks the system singular.
    """
    g00, g01, g02, g11, g12, g22 = gram
    t = g00 + lam
    if not t > 0.0:
        return None
    l00 = math.sqrt(t)
    l10, l20 = g01 / l00, g02 / l00
    t = g11 + lam - l10 * l10
    if not t > 0.0:
        return None
    l11 = math.sqrt(t)
    l21 = (g12 - l20 * l10) / l11
    t = g22 + lam - l20 * l20 - l21 * l21
    if not t > 0.0:
        return None
    l22 = math.sqrt(t)
    w0 = gap[0] / l00
    w1 = (gap[1] - l10 * w0) / l11
    w2 = (gap[2] - l20 * w0 - l21 * w1) / l22
    y2 = w2 / l22
    y1 = (w1 - l21 * y2) / l11
    y0 = (w0 - l10 * y1 - l20 * y2) / l00
    if not (math.isfinite(y0) and math.isfinite(y1) and math.isfinite(y2)):
        return None
    return [-(x * y0 + y * y1 + z * y2) for x, y, z in cols]


def coords_from_rep(r: Representation) -> RepCoords:
    """Recover (theta, s, u) per generator; exact inverse of the factorization."""
    rows = []
    for A, B in zip(r.gens_a, r.gens_b):
        for M in (A, B):
            norm2 = M.a * M.a + M.c * M.c
            rows.append(
                (
                    math.atan2(M.c, M.a),
                    0.5 * math.log(norm2),
                    (M.a * M.b + M.c * M.d) / norm2,
                )
            )
    return RepCoords(r.genus, np.array(rows))


def rep_from_coords(coords: RepCoords) -> Representation:
    gens = [Mat2.renormalized(*_matrix(*row)) for row in _rows(coords)]
    return Representation(coords.genus, tuple(gens[0::2]), tuple(gens[1::2]))


def refine(
    vals,
    max_iter: int = 500,
    tol: float = SOLVE_TOL,
    verbose: bool = False,
) -> np.ndarray:
    """Drive the relation residual below tol by damped Gauss-Newton.

    Damping follows the usual schedule: multiply by 10 when a step fails to
    decrease the residual, divide by 10 when it succeeds.  A trial step whose
    residual is inf or NaN (e^s overflowing included) is rejected like any
    other failed step and counted; so is a damped system that is singular or
    has a non-finite solution, without being counted as non-finite.
    DidNotConverge names the stop: `max_iter` when the iterations run out,
    `stalled` when no damping up to 1e14 lowers the residual.  With verbose,
    stderr gets one line per iteration and then `key value` lines: stop,
    iterations, accepted_steps, rejected_steps and, last, nonfinite_trials.
    """
    rows = [tuple(row) for row in _rows(vals)]
    lam = 1e-3
    nonfinite = accepted_steps = rejected_steps = iterations = 0
    stop = "max_iter"
    f = residual(rows)
    for it in range(max_iter):
        if verbose:
            print(f"iter {it} residual {f:.6e} damping {lam:.1e}", file=sys.stderr)
        if f <= tol:
            break
        if not math.isfinite(f):  # a start beyond floating range has no Jacobian
            stop = "stalled"
            break
        iterations += 1
        gap, cols = relation_jacobian(rows, with_gap=True)
        gram = _gram(cols)
        accepted = False
        for _ in range(60):
            delta = _damped_step(gram, cols, gap, lam)
            if delta is not None:
                cand = [
                    (th + delta[3 * i], s + delta[3 * i + 1], u + delta[3 * i + 2])
                    for i, (th, s, u) in enumerate(rows)
                ]
                f_cand = residual(cand)
                if not math.isfinite(f_cand):
                    nonfinite += 1
                elif f_cand < f:
                    rows, f = cand, f_cand
                    lam = max(lam / 10.0, 1e-14)
                    accepted = True
                    break
            rejected_steps += 1
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            stop = "stalled"
            break
        accepted_steps += 1
    if f <= tol:
        stop = "converged"
    if verbose:
        for key, value in (
            ("stop", stop),
            ("iterations", iterations),
            ("accepted_steps", accepted_steps),
            ("rejected_steps", rejected_steps),
            ("nonfinite_trials", nonfinite),
        ):
            print(f"{key} {value}", file=sys.stderr)
    if f <= tol:
        return np.array(rows, dtype=float)
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
