"""SVG rendering of a polygon orbit under group words, in the half-plane.

Display-only output: translates of the fundamental polygon up to a word
length bound, drawn with geodesic sides as circular arcs and clipped to a
fixed viewport above the real axis.
"""
from __future__ import annotations

import math

from .halfplane import HPoint, Mat2, mobius_act
from .polygons import HyperbolicPolygon, _frame_height
from .reps import Representation

VIEWPORT = (-4.0, 4.0, 4.0)  # xmin, xmax, ymax in the polygon's frame
SCALE = 100.0                # SVG units per half-plane unit


def _canonical_key(M: Mat2) -> tuple:
    entries = M
    for e in M:
        if abs(e) > 1e-9:
            if e < 0:
                entries = -M
            break
    return tuple(round(e, 6) for e in entries)


def orbit_matrices(rep: Representation, depth: int) -> list[tuple[int, Mat2]]:
    """BFS over words of length <= depth; one matrix per tile (mod sign)."""
    gens: list[Mat2] = []
    for A, B in zip(rep.gens_a, rep.gens_b):
        gens.extend([A, A.inv(), B, B.inv()])
    eye = Mat2.identity()
    seen = {_canonical_key(eye)}
    frontier = [eye]
    out = [(0, eye)]
    for level in range(1, depth + 1):
        nxt = []
        for M in frontier:
            for G in gens:
                N = M @ G
                key = _canonical_key(N)
                if key not in seen:
                    seen.add(key)
                    nxt.append(N)
                    out.append((level, N))
        frontier = nxt
    return out


def _svg_path(vertices: list[HPoint], tx, ty) -> str:
    cmds = [f"M {tx(vertices[0].x):.2f} {ty(vertices[0].y):.2f}"]
    n = len(vertices)
    for k in range(n):
        z1 = vertices[k]
        z2 = vertices[(k + 1) % n]
        if abs(z1.x - z2.x) <= 1e-9 * (1.0 + abs(z1.x) + abs(z2.x)):
            cmds.append(f"L {tx(z2.x):.2f} {ty(z2.y):.2f}")
            continue
        cx = (z2.x * z2.x + z2.y * z2.y - z1.x * z1.x - z1.y * z1.y) / (
            2.0 * (z2.x - z1.x)
        )
        r = math.hypot(z1.x - cx, z1.y)
        t1 = math.atan2(z1.y, z1.x - cx)
        t2 = math.atan2(z2.y, z2.x - cx)
        # increasing angle is counterclockwise in the plane, which reads as
        # sweep 0 once the y axis is flipped into SVG coordinates
        sweep = 0 if t2 > t1 else 1
        cmds.append(f"A {r * SCALE:.2f} {r * SCALE:.2f} 0 0 {sweep} {tx(z2.x):.2f} {ty(z2.y):.2f}")
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

    def tx(x: float) -> float:
        return (x - xmin) * SCALE

    def ty(y: float) -> float:
        return (ymax - y) * SCALE

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
            f'<path d="{_svg_path(verts, tx, ty)}" '
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
