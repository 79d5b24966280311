"""Correctness gate: expected answers that do not come from the code under test.

Every check returns None when the output is right and a one-line reason when
it is wrong.  References come from the mathematics, from plain-float
arithmetic written here, or from values fixed in this file.
"""
from __future__ import annotations

import math

REL_TOL = 1e-6  # relation residual a certified representation may carry


def polygon_tau(g: int, reflected: bool) -> int:
    """Regular 4g-gon side pairings are Fuchsian: tau = -(2g - 2); reflection negates."""
    return (2 * g - 2) if reflected else -(2 * g - 2)


def check_tau(tau: int, g: int, expected: "int | None" = None) -> "str | None":
    """Exact value when known, else the Milnor-Wood range: even and |tau| <= 2g - 2."""
    if expected is not None:
        return None if tau == expected else f"tau {tau} != {expected} at g={g}"
    if tau % 2:
        return f"tau {tau} is odd at g={g}"
    if abs(tau) > 2 * g - 2:
        return f"|tau| = {abs(tau)} exceeds 2g-2 = {2 * g - 2}"
    return None


def check_reflection(tau: int, tau_reflected: int) -> "str | None":
    return None if tau_reflected == -tau else f"reflection gives {tau_reflected}, not {-tau}"


def check_branches(principal: int, values: list[int]) -> "str | None":
    bad = [v for v in values if v != principal]
    return None if not bad else f"branch values {bad} differ from principal {principal}"


def entries(rep) -> list[tuple[float, float, float, float]]:
    """Generator entries in file order A_1..A_g, B_1..B_g."""
    return [(M.a, M.b, M.c, M.d) for M in (*rep.gens_a, *rep.gens_b)]


def check_reflected_entries(rep, reflected) -> "str | None":
    want = [(a, -b, -c, d) for a, b, c, d in entries(rep)]
    return None if entries(reflected) == want else "reflect_conjugate entries are not (a, -b, -c, d)"


def relation_gap(rep) -> float:
    """Frobenius distance of [A_1,B_1]...[A_g,B_g] to +-I in plain floats."""
    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    def inv(x):
        return (x[3], -x[1], -x[2], x[0])

    P = (1.0, 0.0, 0.0, 1.0)
    for A, B in zip(rep.gens_a, rep.gens_b):
        a, b = (A.a, A.b, A.c, A.d), (B.a, B.b, B.c, B.d)
        P = mul(P, mul(mul(a, b), mul(inv(a), inv(b))))
    plus = math.dist(P, (1.0, 0.0, 0.0, 1.0))
    minus = math.dist(P, (-1.0, 0.0, 0.0, -1.0))
    return min(plus, minus)


def check_relation(rep, tol: float = REL_TOL) -> "str | None":
    gap = relation_gap(rep)
    return None if gap <= tol else f"relation gap {gap:.3e} > {tol:.1e}"


def check_rep_text(text: str, rep) -> "str | None":
    """The rep-file text carries every generator entry bit for bit."""
    rows = {"A": [], "B": []}
    genus = None
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "genus":
            genus = int(rest)
        elif key in rows:
            rows[key].append(tuple(float(x) for x in rest.split()))
    if genus != rep.genus:
        return f"text genus {genus} != {rep.genus}"
    return None if rows["A"] + rows["B"] == entries(rep) else "rep text does not round-trip"


def check_same_entries(parsed, original: list) -> "str | None":
    return None if entries(parsed) == original else "parse_rep changed generator entries"


# --- CLI: expected stdout values, fixed here --------------------------------

CLI_GENUS = 3
TILE_GENUS, TILE_DEPTH, TILES = 2, 3, 445  # words of length <= 3 inside the viewport

CLASSIFY_MATRICES = [  # integer entries, so the trace class is exact
    (2.0, 1.0, 1.0, 1.0),
    (3.0, 2.0, 1.0, 1.0),
    (0.0, -1.0, 1.0, 0.0),
    (1.0, -1.0, 1.0, 0.0),
    (1.0, 1.0, 0.0, 1.0),
    (-1.0, 0.0, 1.0, -1.0),
]


def trace_class(m: tuple[float, float, float, float]) -> str:
    tr = abs(m[0] + m[3])
    return "Elliptic" if tr < 2.0 else "Parabolic" if tr == 2.0 else "Hyperbolic"


def parse_kv(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def expect(kv: dict[str, str], **want: str) -> "str | None":
    bad = [f"{k}={kv.get(k)!r} (want {v!r})" for k, v in want.items() if kv.get(k) != v]
    return None if not bad else "; ".join(bad)


def expect_small(kv: dict[str, str], key: str, tol: float = REL_TOL) -> "str | None":
    try:
        value = float(kv[key])
    except (KeyError, ValueError):
        return f"missing numeric {key}"
    return None if abs(value) <= tol else f"{key} {value:.3e} > {tol:.1e}"
