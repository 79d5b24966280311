import math

import pytest

from fuchsian.halfplane import (
    HPoint,
    IsometryClass,
    Mat2,
    classify,
    frobenius_distance,
    hyp_distance,
    mobius_act,
)
from fuchsian.polygons import (
    GenusTooSmall,
    HyperbolicPolygon,
    PairingFailed,
    _certify,
    _disk_radius,
    interior_angles,
    polygon_area,
    regular_polygon,
    side_pairings,
)
from fuchsian.cli import MAX_GENUS
from fuchsian.tiling import render_tiling
from fuchsian.reps import (
    REL_TOL,
    jacobian_rank,
    reflect_conjugate,
    relation_product,
    relation_residual,
    toledo,
)
from oracles import (
    bisection_radius,
    geodesic_midpoint,
    object_side_pairings,
    object_vertices,
    per_vertex_interior_angles,
    polygon_area_numeric,
)

I = HPoint(0.0, 1.0)


def closed_form_circumradius(g: int) -> float:
    # hyperbolic trig for the regular 4g-gon with interior angle pi/(2g):
    # cosh R = cot(alpha/2) cot(pi/n) with alpha/2 = pi/n = pi/(4g)
    return math.acosh(1.0 / math.tan(math.pi / (4 * g)) ** 2)


def axis_projection(M: Mat2, p: HPoint) -> HPoint:
    """Foot of the perpendicular from p onto the axis of a hyperbolic M."""
    disc = M.trace * M.trace - 4.0
    assert disc > 0 and abs(M.c) > 1e-12
    x1 = ((M.a - M.d) - math.sqrt(disc)) / (2.0 * M.c)
    x2 = ((M.a - M.d) + math.sqrt(disc)) / (2.0 * M.c)
    lo, hi = min(x1, x2), max(x1, x2)
    G = Mat2.renormalized(1.0, -hi, 1.0, -lo)  # axis -> imaginary axis
    w = (G.a * p.z + G.b) / (G.c * p.z + G.d)
    back = G.inv()
    f = (back.a * complex(0.0, abs(w)) + back.b) / (back.c * complex(0.0, abs(w)) + back.d)
    return HPoint(f.real, f.imag)


class TestRegularPolygon:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_angle_and_count(self, g):
        p = regular_polygon(g)
        assert len(p.vertices) == 4 * g
        angles = interior_angles(p.vertices)
        target = 2.0 * math.pi / (4 * g)
        assert abs(angles[0] - target) < 1e-10
        assert max(angles) - min(angles) < 1e-8
        assert abs(sum(angles) - 2.0 * math.pi) < 1e-8

    @pytest.mark.parametrize("g", [2, 3])
    def test_centered_at_i_with_certified_radius(self, g):
        p = regular_polygon(g)
        R = closed_form_circumradius(g)
        for v in p.vertices:
            assert abs(hyp_distance(I, v) - R) < 1e-9

    def test_closed_form_radius_matches_bisection(self):
        worst = max(
            abs(_disk_radius(g) - bisection_radius(g)) / math.ulp(bisection_radius(g))
            for g in range(2, 61)
        )
        assert worst <= 2.0

    @pytest.mark.parametrize("g", [0, 1])
    def test_small_genus_rejected(self, g):
        with pytest.raises(GenusTooSmall):
            regular_polygon(g)

    def test_matches_object_oracle_bit_for_bit(self):
        # the tuple kernels keep every float operation of the object
        # construction in its order, so the vertices agree by repr; the
        # angles are Cayley arguments, not the oracle's law of cosines, and
        # agree with it within 7.1e-12 relative (at g = 150) and with
        # pi/(2g) within 7.3e-12
        rel = 1e-10
        for g in [*range(2, 61), 100, 150]:
            p = regular_polygon(g)
            vertices = object_vertices(_disk_radius(g), 4 * g)
            assert repr(p.vertices) == repr(tuple(vertices)), g
            angles = per_vertex_interior_angles(vertices)
            got = interior_angles(p.vertices)
            assert all(abs(a - b) <= rel * b for a, b in zip(got, angles)), g
            assert all(abs(a - math.pi / (2 * g)) <= rel * math.pi / (2 * g) for a in got), g
            area = (len(vertices) - 2) * math.pi - sum(angles)
            assert abs(polygon_area(p) - area) <= rel * area, g

    def test_closed_form_pairings_match_the_carrier(self):
        # mapped back to the centre frame, each closed-form generator is the
        # carrier's up to sign; the largest entry gap, relative to the
        # largest entry, measured 1.4e-11 at g = 150
        for g in [*range(2, 61), 100, 150]:
            p = regular_polygon(g)
            y0 = p.vertices[0].y
            r, o = side_pairings(p), object_side_pairings(p)
            for M, N in zip((*r.gens_a, *r.gens_b), (*o.gens_a, *o.gens_b)):
                back = Mat2(M.a, M.b * y0, M.c / y0, M.d)
                near = min(frobenius_distance(back, N), frobenius_distance(-back, N))
                scale = max(abs(N.a), abs(N.b), abs(N.c), abs(N.d))
                assert near <= 2e-11 * scale, g

    def test_coincident_vertices_name_the_zero_length_side(self):
        vs = [HPoint(0.0, 1.0), HPoint(0.0, 1.0), HPoint(1.0, 2.0), HPoint(-1.0, 2.0)]
        message = "side 0, from vertex 0 to vertex 1, has length zero"
        with pytest.raises(ValueError, match=message):
            interior_angles(vs)
        with pytest.raises(ValueError, match=message):
            polygon_area(vs)
        with pytest.raises(ValueError, match=message):
            HyperbolicPolygon(tuple(vs * 2), 2)

    def test_mirrored_octagon_is_refused(self, octagon):
        # the reflection of the octagon in the real axis has the same angles
        with pytest.raises(ValueError, match="imaginary part .* must be positive"):
            HyperbolicPolygon([(v.x, -v.y) for v in octagon.vertices], 2)

    def test_plain_pairs_build_the_same_polygon(self, octagon, octagon_rep):
        plain = HyperbolicPolygon([(v.x, v.y) for v in octagon.vertices], 2)
        assert all(type(v) is HPoint for v in plain.vertices)
        assert repr(side_pairings(plain)) == repr(octagon_rep)
        svg = render_tiling(octagon, octagon_rep, 1)
        assert render_tiling(plain, side_pairings(plain), 1) == svg

    def test_clockwise_octagon_is_refused(self, octagon):
        # the Cayley argument is signed: -pi/4 at every vertex of the
        # reversed list, whose unsigned angles and area are the octagon's
        reversed_ = octagon.vertices[::-1]
        with pytest.raises(ValueError, match=r"interior angles sum to -6\.28.*, not 2\*pi"):
            HyperbolicPolygon(reversed_, 2)
        for a in interior_angles(reversed_):
            assert abs(a - math.pi / 4) < 1e-12
        assert abs(polygon_area(reversed_) - polygon_area(octagon)) < 1e-12

    def test_overflowing_vertices_are_refused(self):
        # differences past the float range leave every Cayley argument NaN
        vs = [(1e308, 1.0), (-1e308, 1.0), (0.0, 1e308), (0.0, 1.0)] * 2
        with pytest.raises(ValueError, match="interior angles sum to nan"):
            HyperbolicPolygon(vs, 2)

    def test_polygon_type_rejects_unequal_angles(self):
        # a visibly irregular quadrilateral-ish vertex list cannot pass
        bad = [HPoint(0.0, 1.0), HPoint(1.0, 1.0), HPoint(1.0, 3.0), HPoint(-2.0, 2.0)] * 2
        with pytest.raises((ValueError, GenusTooSmall)):
            HyperbolicPolygon(tuple(bad), 2)


class TestArea:
    @pytest.mark.parametrize("g,expected", [(2, 4 * math.pi), (3, 8 * math.pi), (4, 12 * math.pi)])
    def test_angle_defect_area(self, g, expected):
        assert abs(polygon_area(regular_polygon(g)) - expected) < 1e-8

    @pytest.mark.parametrize("g", [2, 3])
    def test_numeric_oracle_agrees(self, g):
        p = regular_polygon(g)
        assert abs(polygon_area_numeric(p) - polygon_area(p)) < 1e-4

    def test_tiny_triangle_area_vanishes(self):
        # geodesic triangles shrink to zero area as the vertices coalesce
        prev = math.inf
        for eps in (0.5, 0.1, 0.02):
            tri = [
                HPoint(0.0, 1.0 + eps),
                HPoint(-0.6 * eps, 1.0 - 0.4 * eps),
                HPoint(0.6 * eps, 1.0 - 0.4 * eps),
            ]
            area = polygon_area(tri)
            assert 0.0 < area < prev
            assert abs(polygon_area_numeric(tri, subdiv=4000) - area) < 1e-6
            prev = area
        assert prev < 5e-3

    def test_area_links_to_invariant(self, octagon, octagon_rep):
        # the fundamental polygon exhausts the quotient surface, whose area
        # is 2*pi*(2g - 2) = 2*pi*|tau| at the maximal invariant
        tau = toledo(octagon_rep).value
        assert abs(polygon_area(octagon) - 2.0 * math.pi * abs(tau)) < 1e-8


class TestSidePairings:
    def test_generators_are_hyperbolic(self, octagon_rep):
        for M in (*octagon_rep.gens_a, *octagon_rep.gens_b):
            assert classify(M) is IsometryClass.HYPERBOLIC

    def test_relation_closes_at_identity(self, octagon_rep):
        P = relation_product(octagon_rep)
        assert frobenius_distance(P, Mat2.identity()) < 1e-8

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_maximal_invariant(self, g):
        rep = side_pairings(regular_polygon(g))
        assert relation_residual(rep) < 1e-7
        assert abs(toledo(rep).value) == 2 * g - 2

    def test_certify_rejects_wrong_target(self, octagon):
        vs = [(v.x, v.y) for v in octagon.vertices]
        with pytest.raises(PairingFailed):
            _certify((1.0, 0.0, 0.0, 1.0), vs[0], vs[1], vs[4], vs[5])

    def _sides(self, octagon):
        # the polygon's vertices in the generators' frame, where vertex 0 is i
        y0 = octagon.vertices[0].y
        vs = [HPoint(v.x / y0, v.y / y0) for v in octagon.vertices]
        n = len(vs)
        out = []
        for j in range(octagon.genus):
            m = 4 * j
            out.append(("a", j, (vs[(m + 2) % n], vs[(m + 3) % n]), (vs[(m + 1) % n], vs[m % n])))
            out.append(("b", j, (vs[(m + 1) % n], vs[(m + 2) % n]), (vs[(m + 4) % n], vs[(m + 3) % n])))
        return out

    def test_midpoints_map_to_midpoints(self, octagon, octagon_rep):
        for fam, j, src, tgt in self._sides(octagon):
            M = octagon_rep.gens_a[j] if fam == "a" else octagon_rep.gens_b[j]
            ms = geodesic_midpoint(*src)
            mt = geodesic_midpoint(*tgt)
            assert hyp_distance(mobius_act(M, ms), mt) < 1e-8

    def test_translation_length_along_axis(self, octagon, octagon_rep):
        # the translation length, read between the axis projections of the
        # paired side midpoints, matches 2 arccosh(|tr|/2)
        for fam, j, src, tgt in self._sides(octagon):
            M = octagon_rep.gens_a[j] if fam == "a" else octagon_rep.gens_b[j]
            ell = 2.0 * math.acosh(abs(M.trace) / 2.0)
            pa = axis_projection(M, geodesic_midpoint(*src))
            pb = axis_projection(M, geodesic_midpoint(*tgt))
            assert abs(hyp_distance(pa, pb) - ell) < 1e-7
            # the midpoints themselves sit off-axis, strictly farther apart
            assert hyp_distance(geodesic_midpoint(*src), geodesic_midpoint(*tgt)) > ell

    def test_vertex_orbit_closes(self, octagon, octagon_rep):
        word = []
        for A, B in zip(octagon_rep.gens_a, octagon_rep.gens_b):
            word += [A, B, A.inv(), B.inv()]
        z = I  # vertex 0 in the generators' frame
        for M in reversed(word):  # rightmost factor acts first
            z = mobius_act(M, z)
        assert hyp_distance(z, I) < 1e-6


def test_envelope_scan_to_max_genus():
    # every genus the CLI accepts: certified pairings (side_pairings raises
    # PairingFailed otherwise), the relation within REL_TOL, the maximal
    # invariant and its reflection, and the rank of a smooth point
    for g in range(2, MAX_GENUS + 1):
        r = side_pairings(regular_polygon(g))
        assert relation_residual(r) <= REL_TOL, g
        assert toledo(r).value == -(2 * g - 2), g
        assert toledo(reflect_conjugate(r)).value == 2 * g - 2, g
        assert jacobian_rank(r) == 3, g
