import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fuchsian.euclidean import LatticeGroup, reduce_point
from oracles import commutator_check, euclid_path_length

finite = st.floats(-10.0, 10.0)


@st.composite
def lattices(draw):
    a = (draw(finite), draw(finite))
    b = (draw(finite), draw(finite))
    assume(abs(a[0] * b[1] - a[1] * b[0]) > 0.1)
    return LatticeGroup(a, b)


def test_degenerate_basis_rejected():
    with pytest.raises(ValueError):
        LatticeGroup((1.0, 2.0), (2.0, 4.0))


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
def test_dependence_is_judged_by_angle_not_size(scale):
    # |det| is measured against |a| |b|: the sine of the angle between them
    L = LatticeGroup((scale, 0.0), (0.0, scale))
    q, (n, m) = reduce_point(L, (3.5 * scale, 0.0))
    assert (n, m) == (3, 0)
    assert abs(q[0] - 0.5 * scale) < 1e-12 * scale and q[1] == 0.0
    for a, b in (((scale, 2.0 * scale), (2.0 * scale, 4.0 * scale)),
                 ((scale, 0.0), (scale, 1e-13 * scale))):
        with pytest.raises(ValueError, match="dependent"):
            LatticeGroup(a, b)


def test_basis_with_non_finite_determinant_rejected():
    # finite vectors whose det overflows cannot give basis coordinates
    with pytest.raises(ValueError, match="determinant is not finite"):
        LatticeGroup((1e200, 0.0), (0.0, 1e200))


@pytest.mark.parametrize("a", [(math.inf, 0.0), (math.nan, 1.0)])
def test_non_finite_basis_rejected(a):
    with pytest.raises(ValueError, match="not finite"):
        LatticeGroup(a, (0.0, 1.0))


@pytest.mark.parametrize("p", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
def test_non_finite_point_rejected(p):
    with pytest.raises(ValueError, match="no finite coordinates"):
        reduce_point(LatticeGroup((1.0, 0.0), (0.0, 1.0)), p)


def test_overflowing_basis_coordinates_rejected():
    # a finite point whose basis coordinate 1e300 * 1e200 overflows
    with pytest.raises(ValueError, match="no finite coordinates"):
        reduce_point(LatticeGroup((1e-200, 0.0), (0.0, 1e200)), (1e300, 0.0))


def test_overflowing_representative_rejected():
    # the basis coordinates s = t = 1e308 are finite, but p - n a - m b is not
    L = LatticeGroup((2.0, -1.0), (-1.0, 1.0))
    assert L.basis_coords((1e308, 0.0)) == (1e308, 1e308)
    with pytest.raises(ValueError, match="representative of point .* overflows"):
        reduce_point(L, (1e308, 0.0))


def test_subnormal_basis_vector():
    # a cross product of the scaled a with the unscaled b = (5e-324, 5e-324)
    # would underflow to 0; the coordinates divide by the scaled pair's
    L = LatticeGroup((1.0, 0.0), (5e-324, 5e-324))
    assert L.basis_coords((0.5, 0.0)) == (0.5, 0.0)
    assert reduce_point(L, (0.5, 0.0)) == ((0.5, 0.0), (0, 0))


def test_sum_of_basis_reduces_to_origin():
    L = LatticeGroup((1.0, 0.25), (-0.5, 2.0))
    q, (n, m) = reduce_point(L, (L.a[0] + L.b[0], L.a[1] + L.b[1]))
    assert (n, m) == (1, 1)
    assert math.hypot(*q) < 1e-12


def test_interior_point_untouched():
    L = LatticeGroup((2.0, 0.0), (0.0, 3.0))
    q, nm = reduce_point(L, (0.5, 1.0))
    assert q == (0.5, 1.0)
    assert nm == (0, 0)


cell_frac = st.floats(0.001, 0.999)
small_int = st.integers(-4, 4)


@given(lattices(), cell_frac, cell_frac, small_int, small_int)
def test_reduce_idempotent(L, fs, ft, n0, m0):
    # compose a point from in-cell fractions plus a known lattice shift
    px = (fs + n0) * L.a[0] + (ft + m0) * L.b[0]
    py = (fs + n0) * L.a[1] + (ft + m0) * L.b[1]
    q, nm = reduce_point(L, (px, py))
    q2, nm2 = reduce_point(L, q)
    assert nm == (n0, m0)
    assert nm2 == (0, 0)
    assert q2 == q


@given(lattices(), finite, finite)
def test_reduced_coordinates_in_unit_cell(L, px, py):
    q, nm = reduce_point(L, (px, py))
    # consistency: q really is p - n a - m b
    n, m = nm
    assert q[0] == px - n * L.a[0] - m * L.b[0]
    assert q[1] == py - n * L.a[1] - m * L.b[1]
    s, t = L.basis_coords(q)
    assert -1e-9 <= s <= 1.0 + 1e-9
    assert -1e-9 <= t <= 1.0 + 1e-9


def test_commutator_vanishes_at_origin():
    L = LatticeGroup((1.0, 0.0), (0.0, 1.0))
    assert commutator_check(L, [(0.0, 0.0)]) == 0.0


def test_commutator_unit_square_center():
    L = LatticeGroup((1.0, 0.0), (0.0, 1.0))
    assert commutator_check(L, [(0.5, 0.5)]) == 0.0


@given(lattices())
def test_commutator_tiny_everywhere(L):
    assert commutator_check(L) < 1e-12


@given(lattices(), st.lists(st.tuples(finite, finite), min_size=2, max_size=6), st.integers(-3, 3), st.integers(-3, 3))
def test_path_length_translation_invariant(L, pts, n, m):
    dx = n * L.a[0] + m * L.b[0]
    dy = n * L.a[1] + m * L.b[1]
    moved = [(x + dx, y + dy) for x, y in pts]
    assert abs(euclid_path_length(moved) - euclid_path_length(pts)) < 1e-12
