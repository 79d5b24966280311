import hashlib
from collections import Counter

import pytest

from fuchsian.halfplane import HPoint, Mat2
from fuchsian.polygons import regular_polygon, side_pairings
from fuchsian.tiling import _svg_path, orbit_matrices, render_tiling
from oracles import surface_group_sphere_sizes


def _sha256(g: int, depth: int) -> str:
    poly = regular_polygon(g)
    svg = render_tiling(poly, side_pairings(poly), depth)
    return hashlib.sha256(svg.encode()).hexdigest()


# the SVG bytes, pinned: the drawing is a CLI output, so the orbit's
# arithmetic and the path's text are held to the byte
@pytest.mark.parametrize("g, depth, digest", [
    (2, 0, "3fcacb0a0ef149d51ae963cad6666787d4d276434951ff16ccfd0028d4f467bc"),
    (2, 1, "65a9996befb24fe4519ff7bd21db25f4b4c2cbf5dbf7842954cb6d6ecc0fc935"),
    (2, 3, "fcd4dc50d67d8840d9accf79026c374fd8d0cba7d5ce2f6d30c7ae01e6b0122e"),  # 445 tiles
    (3, 2, "8a93d9c83cf8a10c7a8c07b8c953ad957a87349a52c43423fffd91378155971a"),
    (40, 1, "7c9c5557ea73a524387902e5343894fb44c52632eb43d737b10d099aadf874de"),
])
def test_svg_bytes_are_pinned(g, depth, digest):
    assert _sha256(g, depth) == digest


def test_growth_series_counts_genus_2():
    assert surface_group_sphere_sizes(2, 5) == [1, 8, 56, 392, 2736, 19096]


# the corners the CLI admits: deepest at genus 2, widest at genus 150
@pytest.mark.parametrize("g, depth", [(2, 5), (3, 3), (10, 2), (37, 2), (150, 1)])
def test_orbit_levels_are_the_sphere_sizes(g, depth):
    # the rounded key _canonical_key merges no two group elements and splits
    # no one element, level by level
    levels = Counter(level for level, _ in orbit_matrices(side_pairings(regular_polygon(g)), depth))
    assert [levels[n] for n in range(depth + 1)] == surface_group_sphere_sizes(g, depth)


def test_orbit_checks_no_product(monkeypatch):
    # the orbit's words are kernel products: the generators were checked when
    # side_pairings built them and each drawn vertex is checked by mobius_act
    def refuse(self, other):
        raise AssertionError("checked product in the orbit")

    monkeypatch.setattr(Mat2, "__matmul__", refuse)
    assert _sha256(2, 3) == "fcd4dc50d67d8840d9accf79026c374fd8d0cba7d5ce2f6d30c7ae01e6b0122e"


def test_vertical_side_is_a_line():
    assert _svg_path([HPoint(0.0, 1.0), HPoint(0.0, 2.0), HPoint(1.0, 1.0)]) == (
        "M 400.00 300.00 L 400.00 200.00 A 223.61 223.61 0 0 1 500.00 300.00 "
        "A 111.80 111.80 0 0 0 400.00 300.00 Z"
    )


def test_sweep_follows_the_vertex_order():
    # on an upper semicircle about the real axis the angle grows as x falls,
    # so an arc is drawn with sweep 1 going right and 0 going left
    assert _svg_path([HPoint(-1.0, 1.0), HPoint(0.0, 2.0), HPoint(1.0, 1.0)]) == (
        "M 300.00 300.00 A 223.61 223.61 0 0 1 400.00 200.00 "
        "A 223.61 223.61 0 0 1 500.00 300.00 A 141.42 141.42 0 0 0 300.00 300.00 Z"
    )
    # also on a side 4e-9 long near the axis (from the genus-37, depth-2
    # tiling), where the centre of the arc, computed as a difference of
    # squares over 2 (x2 - x1), is off by 5e-8 against a radius of 2e-9 and
    # the angles about it would give the order backwards
    z1 = HPoint(1.446140162142418, 4.425752707356374e-11)
    z2 = HPoint(1.4461401661474305, 4.0856725391408597e-11)
    assert _svg_path([z1, z2]) == (
        "M 544.61 400.00 A 0.00 0.00 0 0 1 544.61 400.00 A 0.00 0.00 0 0 0 544.61 400.00 Z"
    )
