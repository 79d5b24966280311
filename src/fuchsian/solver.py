"""Numerical solving on the relation variety { [A_1,B_1]...[A_g,B_g] = I }.

Generators are parametrized by three reals each through the Iwasawa-style
factorization rotation(theta) diag(e^s, e^-s) ((1, u), (0, 1)), which hits
every determinant-one matrix exactly once and has determinant one by
construction, so the variety lives in R^{6g}.  Coordinates are a list of 2g
(theta, s, u) triples of Python floats, in the generator order A1, B1, ...,
Ag, Bg; every function here takes and returns coordinates in that form.  The
seeded start in solve is numpy's default_rng(seed).uniform(-1, 1) stream,
drawn bit for bit in Python integers.  The relation map is treated as
valued in R^3 through the entries (P00 - 1, P01, P10) of the commutator
product; the remaining entry is dependent through det P = 1.

The solver is damped Gauss-Newton on Python floats.  Each point it
evaluates, the start and every trial step, costs one pass over the relation
word L_0 ... L_{4g-1}: its letters and prefixes Q_k = L_0 ... L_{k-1}.
refine keeps the accepted trial's pass, and the Jacobian adds only the
suffixes S_k = L_k ... L_{4g-1}.  A coordinate moves its generator M along
sl(2,R): d_th M = J M, d_u M = M E and d_s M = M (H + 2u E) for
J = ((0, -1), (1, 0)), E = ((0, 1), (0, 0)) and H = diag(1, -1), and
d(M^-1) = -M^-1 dM M^-1.  So with M at letter k and M^-1 at k + 2, the
tangent map of the relation (Weil, Ann. Math. 80, 1964; Goldman, Adv.
Math. 54, 1984) has the columns
    d_th P = Q_k J S_k - Q_{k+3} J S_{k+3},
    d_u P = Q_{k+1} E S_{k+1} - Q_{k+2} E S_{k+2},
    d_s P = (the same with H) + 2u d_u P.
With 3 equations and 6g unknowns the damped step is taken through the 3x3
system (J J^T + lambda I) y = gap, delta = -J^T y, solved in closed form.
Iterates are unvalidated candidates, so their products are unchecked: the
pass is reps._word, which builds each Representation's word too, and the
result is validated where rep_from_coords builds the representation.
"""
from __future__ import annotations

import math
import operator
import sys

from .halfplane import _EYE, Mat2, _mul
# jacobian_rank stays importable here: bench/tracer.py wraps it under this
# name and bench/workloads.py calls it here.
from .reps import SOLVE_TOL, Representation, _require_relation, _word, jacobian_rank  # noqa: F401

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


class DidNotConverge(RuntimeError):
    """Gauss-Newton hit the iteration limit or stalled; reseed and retry."""


def _matrix(th: float, s: float, u: float) -> tuple:
    """Entries (a, b, c, d) of rotation(th) diag(e^s, e^-s) ((1, u), (0, 1)).

    math.exp raises OverflowError for s beyond about 709, and e^s underflows
    to 0 (ZeroDivisionError) below about -745.
    """
    e = math.exp(s)
    c, sn = math.cos(th), math.sin(th)
    ce, se = c * e, sn * e
    return (ce, ce * u - sn / e, se, se * u + c / e)


def _evaluate(rows: list) -> tuple:
    """(letters, prefixes) of the relation word A_1 B_1 A_1^-1 B_1^-1 ...

    reps._word of the generators at rows; prefixes[-1] is the relation
    product.  ArithmeticError when a generator's e^s overflows or underflows.
    """
    mats = [_matrix(*row) for row in rows]
    return _word(zip(mats[0::2], mats[1::2]))


def relation_gap(rows: list) -> tuple:
    """The three independent entries of P - I: (P00 - 1, P01, P10)."""
    P = _evaluate(rows)[1][-1]
    return (P[0] - 1.0, P[1], P[2])


def residual(rows: list, word: "list | None" = None) -> float:
    """Squared Frobenius norm of the full commutator product minus I.

    inf when a generator's e^s overflows or underflows; NaN or inf when the
    product does.  word, when given, is a list that receives the pass's
    (letters, prefixes) for relation_jacobian, unless a generator overflows.
    """
    try:
        evaluated = _evaluate(rows)
    except ArithmeticError:
        return math.inf
    if word is not None:
        word[:] = evaluated
    a, b, c, d = evaluated[1][-1]
    a, d = a - 1.0, d - 1.0
    return a * a + b * b + c * c + d * d  # ** would raise OverflowError


def relation_jacobian(rows: list, word: "list | None" = None) -> tuple:
    """(gap, cols) at rows: relation_gap and its 6g exact Jacobian columns.

    Column 3i + j is the (00, 01, 10) derivative along coordinate j of row i,
    in the closed form of the module docstring.  word is residual's kept
    (letters, prefixes) at rows; without it the pass is made here.
    """
    letters, pre = word or _evaluate(rows)
    suf = [_EYE]
    for L in reversed(letters):
        suf.append(_mul(L, suf[-1]))
    suf.reverse()  # suf[k] = S_k, suf[4g] = I
    P = pre[-1]
    gap = (P[0] - 1.0, P[1], P[2])

    cols = []
    for i, row in enumerate(rows):
        k = 4 * (i // 2) + i % 2  # A_j sits at letter 4j, B_j at 4j + 1
        (q0, q1, q2, q3), (s0, s1, s2, s3) = pre[k], suf[k]
        (p0, p1, p2, p3), (t0, t1, t2, t3) = pre[k + 3], suf[k + 3]
        d_th = ((q1 * s0 - q0 * s2) - (p1 * t0 - p0 * t2),
                (q1 * s1 - q0 * s3) - (p1 * t1 - p0 * t3),
                (q3 * s0 - q2 * s2) - (p3 * t0 - p2 * t2))
        (q0, q1, q2, q3), (s0, s1, s2, s3) = pre[k + 1], suf[k + 1]
        (p0, p1, p2, p3), (t0, t1, t2, t3) = pre[k + 2], suf[k + 2]
        d_u = (q0 * s2 - p0 * t2, q0 * s3 - p0 * t3, q2 * s2 - p2 * t2)
        u2 = 2.0 * row[2]
        d_s = ((q0 * s0 - q1 * s2) - (p0 * t0 - p1 * t2) + u2 * d_u[0],
               (q0 * s1 - q1 * s3) - (p0 * t1 - p1 * t3) + u2 * d_u[1],
               (q2 * s0 - q3 * s2) - (p2 * t0 - p3 * t2) + u2 * d_u[2])
        cols += (d_th, d_s, d_u)
    return gap, cols


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


def _seed_words(seed: int) -> list:
    """numpy's SeedSequence(seed).generate_state(4, uint64) for an int seed.

    The seed enters as little-endian 32-bit words, is hashed into a pool of
    four and mixed, and the pool is hashed out into eight 32-bit words that
    pair little-endian into four 64-bit ones.  ValueError for a negative
    seed, with numpy's message.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    # hashmix(v): v ^ h, step h, v * h, fold; mix(x, y): L x - R y, fold
    h = 0x43B0D7E5
    pool = []
    for v in (entropy + [0] * 4)[:4]:  # hashmix the entropy, zero-padded
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        pool.append(v ^ v >> 16)
    # mix(x, hashmix(y)) into every other pool word x, for y each pool word
    # and then each entropy word past the fourth
    for i_src in range(max(4, len(entropy))):
        y = pool[i_src] if i_src < 4 else entropy[i_src]
        for i_dst in range(4):
            if i_dst != i_src:
                v = y ^ h
                h = h * 0x931E8875 & _M32
                v = v * h & _M32
                x = (0xCA01F9DD * pool[i_dst] - 0x4973F715 * (v ^ v >> 16)) & _M32
                pool[i_dst] = x ^ x >> 16
    h = 0x8B51F9DD
    out = []
    for i in range(8):  # generate_state: hash the pool out, cycling it twice
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return [lo | hi << 32 for lo, hi in zip(out[0::2], out[1::2])]


def _start(genus: int, seed: int) -> list:
    """default_rng(seed).uniform(-1, 1, (2 * genus, 3)).tolist(), bit for bit.

    numpy's PCG64 is O'Neill's XSL-RR 128/64 generator (PCG, HMC-CS-2014-0905),
    stepped before each output; the top 53 bits of an output make the double
    u in [0, 1) of the value -1 + 2u.  Rows fill in row-major order.
    """
    # initstate and initseq from _seed_words; from state 0 with increment
    # 2 initseq + 1: one step, add initstate, one step
    s0, s1, q0, q1 = _seed_words(seed)
    inc = (q0 << 65 | q1 << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    vals = []
    for _ in range(6 * genus):
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        r = state >> 122
        out = (x >> r | x << 64 - r) & _M64  # x rotated right by r
        vals.append(-1.0 + 2.0 * ((out >> 11) * 2.0 ** -53))
    return [vals[k:k + 3] for k in range(0, len(vals), 3)]


def coords_from_rep(r: Representation) -> list:
    """Recover (theta, s, u) per generator; exact inverse of the factorization."""
    rows = []
    for A, B in zip(r.gens_a, r.gens_b):
        for M in (A, B):
            norm2 = M.a * M.a + M.c * M.c
            th, s = math.atan2(M.c, M.a), 0.5 * math.log(norm2)
            rows.append((th, s, (M.a * M.b + M.c * M.d) / norm2))
    return rows


def rep_from_coords(rows: list) -> Representation:
    """The representation of genus len(rows) // 2; ValueError unless 2g >= 2 rows."""
    gens = [Mat2.renormalized(*_matrix(*row)) for row in rows]
    return Representation(len(rows) // 2, tuple(gens[0::2]), tuple(gens[1::2]))


def refine(
    rows: list,
    max_iter: int = 500,
    tol: float = SOLVE_TOL,
    verbose: bool = False,
) -> list:
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
    ValueError when max_iter is negative, tol is not finite and positive, or
    the row count is not 2g for a genus g >= 1.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    rows = [tuple(row) for row in rows]
    if not rows or len(rows) % 2:
        raise ValueError(f"need 2g coordinate rows for a genus g >= 1, got {len(rows)}")
    lam = 1e-3
    nonfinite = accepted_steps = rejected_steps = iterations = 0
    stop = "max_iter"
    word = []  # the current point's letters and prefixes, kept from its pass
    f = residual(rows, word)
    for it in range(max_iter):
        if verbose:
            print(f"iter {it} residual {f:.6e} damping {lam:.1e}", file=sys.stderr)
        if f <= tol:
            break
        if not math.isfinite(f):  # a start beyond floating range has no Jacobian
            stop = "stalled"
            break
        iterations += 1
        gap, cols = relation_jacobian(rows, word)
        gram = _gram(cols)
        while lam <= 1e14:
            delta = _damped_step(gram, cols, gap, lam)
            if delta is not None:
                cand = [
                    (th + delta[3 * i], s + delta[3 * i + 1], u + delta[3 * i + 2])
                    for i, (th, s, u) in enumerate(rows)
                ]
                trial = []
                f_cand = residual(cand, trial)
                if not math.isfinite(f_cand):
                    nonfinite += 1
                elif f_cand < f:
                    rows, f, word = cand, f_cand, trial
                    lam = max(lam / 10.0, 1e-14)
                    break
            rejected_steps += 1
            lam *= 10.0
        else:  # no damping up to 1e14 lowered the residual
            stop = "stalled"
            break
        accepted_steps += 1
    if f <= tol:
        stop = "converged"
    if verbose:
        print(f"stop {stop}\niterations {iterations}\naccepted_steps {accepted_steps}\n"
              f"rejected_steps {rejected_steps}\nnonfinite_trials {nonfinite}", file=sys.stderr)
    if f <= tol:
        return rows
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

    The start is _start(genus, seed).  Raises DidNotConverge when the seed
    leads nowhere; callers reseed.  RelationViolated when the result still
    misses reps.REL_TOL, which a tol looser than the default can allow.
    ValueError for a genus below 1 or a negative seed.
    """
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    rep = rep_from_coords(refine(_start(genus, seed), max_iter=max_iter, tol=tol, verbose=verbose))
    _require_relation(rep)
    return rep
