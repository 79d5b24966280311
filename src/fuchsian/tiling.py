"""SVG rendering of a polygon orbit under group words, in the half-plane.

Display-only output: translates of the fundamental polygon up to a word
length bound, drawn with geodesic sides as circular arcs and clipped to a
fixed viewport above the real axis.  The orbit's words are plain _mul
products of the generators side_pairings checked and their adjugates.  Their
det drifts off 1 by the rounding of ad - bc (7.5e-9 at most on the orbits
the CLI admits), which scales a vertex's y by as much, far below the 0.01
SVG units printed, so no product is renormalized and checked again (as
Mat2 @ would); mobius_act checks each drawn vertex once.
"""
from __future__ import annotations

import math

from .halfplane import _EYE, HPoint, Mat2, _inv, _mul, mobius_act
from .polygons import HyperbolicPolygon, _frame_height
from .reps import Representation

VIEWPORT = (-4.0, 4.0, 4.0)  # xmin, xmax, ymax in the polygon's frame
SCALE = 100.0                # SVG units per half-plane unit


def _canonical_key(m: tuple) -> tuple:
    """One key for +-m: the rounded entries, signed so the first one clear of 0 is positive."""
    flip = next((e for e in m if abs(e) > 1e-9), 0.0) < 0
    return tuple(round(-e if flip else e, 6) for e in m)


def orbit_matrices(rep: Representation, depth: int) -> list[tuple[int, tuple]]:
    """BFS over words of length <= depth, as unchecked kernel products from _EYE:
    (level, entry tuple) pairs, one per tile (mod sign)."""
    gens = [m for A, B in zip(rep.gens_a, rep.gens_b) for m in (A, _inv(A), B, _inv(B))]
    seen = {_canonical_key(_EYE)}
    frontier = [_EYE]
    out = [(0, _EYE)]
    for level in range(1, depth + 1):
        nxt = []
        for M in frontier:
            for G in gens:
                N = _mul(M, G)
                key = _canonical_key(N)
                if key not in seen:
                    seen.add(key)
                    nxt.append(N)
                    out.append((level, N))
        frontier = nxt
    return out


def _xy(v: HPoint) -> str:
    """SVG coordinates of a point: x from the viewport's left edge, y down from its top."""
    return f"{(v.x - VIEWPORT[0]) * SCALE:.2f} {(VIEWPORT[2] - v.y) * SCALE:.2f}"


def _svg_path(vertices: list[HPoint]) -> str:
    """Closed path of geodesic sides: a line for a vertical side, else an arc
    of the upper semicircle about the real axis through both ends.  Its angle
    grows as x falls, so the arc runs counterclockwise, which SVG's flipped y
    reads as sweep 0, exactly when x falls."""
    cmds = [f"M {_xy(vertices[0])}"]
    for z1, z2 in zip(vertices, vertices[1:] + vertices[:1]):
        if abs(z1.x - z2.x) <= 1e-9 * (1.0 + abs(z1.x) + abs(z2.x)):
            seg = "L"
        else:
            cx = (z2.x * z2.x + z2.y * z2.y - z1.x * z1.x - z1.y * z1.y) / (2.0 * (z2.x - z1.x))
            r = math.hypot(z1.x - cx, z1.y) * SCALE
            seg = f"A {r:.2f} {r:.2f} 0 0 {0 if z2.x < z1.x else 1}"
        cmds.append(f"{seg} {_xy(z2)}")
    cmds.append("Z")
    return " ".join(cmds)


def render_tiling(polygon: HyperbolicPolygon, rep: Representation, depth: int) -> str:
    """SVG text for the orbit of the polygon under words of length <= depth."""
    y0 = _frame_height(polygon)  # rep is in side_pairings' frame; map it back
    back = [Mat2(M.a, M.b * y0, M.c / y0, M.d) for M in (*rep.gens_a, *rep.gens_b)]
    rep = Representation(rep.genus, tuple(back[: rep.genus]), tuple(back[rep.genus :]))
    xmin, xmax, ymax = VIEWPORT
    width = (xmax - xmin) * SCALE
    height = ymax * SCALE
    margin = 0.5 * (xmax - xmin)
    paths = []
    for level, M in orbit_matrices(rep, depth):
        verts = [mobius_act(M, v) for v in polygon.vertices]
        if not any(
            xmin - margin <= v.x <= xmax + margin and v.y <= ymax + margin
            for v in verts
        ):
            continue
        hue = (47 * level) % 360
        paths.append(
            f'<path d="{_svg_path(verts)}" '
            f'fill="hsl({hue},55%,{78 - 6 * (level % 4)}%)" '
            f'stroke="#333" stroke-width="1" clip-path="url(#vp)"/>'
        )
    body = "\n  ".join(paths)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'  <defs><clipPath id="vp">'
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}"/>'
        f"</clipPath></defs>\n"
        f'  <rect width="100%" height="100%" fill="white"/>\n'
        f"  {body}\n"
        f"</svg>\n"
    )
