import copy
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import hpoints, iwasawa, mat_close, sl2_matrices
from fuchsian.halfplane import (
    DegenerateDenominator,
    HPoint,
    IsometryClass,
    Mat2,
    NonPositiveScale,
    classify,
    classify_detailed,
    frobenius_distance,
    hyp_distance,
    _inv,
    _mul,
    j_cocycle,
    mobius_act,
    rotation,
    scaling,
)
from oracles import geodesic_midpoint, geodesic_points, path_length

I = HPoint(0.0, 1.0)


class TestMat2:
    def test_identity(self):
        assert Mat2.identity().trace == 2.0

    def test_rejects_bad_determinant(self):
        with pytest.raises(ValueError):
            Mat2(2.0, 0.0, 0.0, 1.0)

    def test_rejects_negative_determinant_with_large_entries(self):
        # the rounding allowance grows with max(|ad|, |bc|) = 1e6, not with the
        # largest entry squared, 1e20, which would admit det = -1e6
        with pytest.raises(ValueError, match=r"determinant -1000000\.0 is not 1"):
            Mat2(1e10, 0.0, 0.0, -1e-4)

    @pytest.mark.parametrize(
        "entries",
        [(1e200, 0.0, 0.0, 1e200), (1e200, 1e200, 1e200, 1e200), (1e155, 1e155, -1e155, 1e155)],
        ids=["det-inf", "det-nan", "both-products-overflow"],
    )
    def test_rejects_overflowed_determinant(self, entries):
        # ad or bc overflows, and the rounding allowance with it: such a det
        # is not measured, so it is refused
        with pytest.raises(ValueError, match=r"determinant (inf|nan) is not 1 within inf"):
            Mat2(*entries)

    def test_rejects_non_finite(self):
        # the det comparison refuses it first; the message still says why
        for bad in (math.inf, -math.inf, math.nan):
            for k in range(4):
                entries = [1.0, 0.0, 0.0, 1.0]
                entries[k] = bad
                with pytest.raises(ValueError, match="non-finite matrix entries"):
                    Mat2(*entries)

    def test_product_overflow_raises(self):
        # the entries of the square overflow; the product must not return inf/NaN
        M = Mat2(1e160, 0.0, 0.0, 1e-160)
        with pytest.raises(ValueError, match="non-finite"):
            M @ M

    def test_inverse(self):
        M = iwasawa(0.3, 0.5, -0.7)
        assert mat_close(M @ M.inv(), Mat2.identity(), 1e-15)

    @given(sl2_matrices(), sl2_matrices())
    def test_product_stays_unimodular(self, A, B):
        P = A @ B
        assert abs(P.a * P.d - P.b * P.c - 1.0) < 1e-12


class TestMobiusAction:
    def test_identity_fixes_i(self):
        assert mobius_act(Mat2.identity(), I) == I

    @pytest.mark.parametrize("theta", [0.1, -0.9, 2.5, math.pi / 2])
    def test_rotation_fixes_i(self, theta):
        w = mobius_act(rotation(theta), I)
        assert abs(w.x) < 1e-15 and abs(w.y - 1.0) < 1e-15

    def test_scaling_sends_i_to_4i(self):
        # (2i + 0) / (0 + 1/2) = 4i
        w = mobius_act(scaling(2.0), I)
        assert w.x == 0.0
        assert abs(w.y - 4.0) < 1e-15

    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    def test_scaling_preserves_imaginary_axis(self, t):
        w = mobius_act(scaling(2.0), HPoint(0.0, t))
        assert w.x == 0.0
        assert abs(w.y - 4.0 * t) < 1e-12 * t

    @given(sl2_matrices(), sl2_matrices(), hpoints())
    def test_group_action(self, A, B, z):
        lhs = mobius_act(A @ B, z)
        rhs = mobius_act(A, mobius_act(B, z))
        assert abs(lhs.x - rhs.x) < 1e-10
        assert abs(lhs.y - rhs.y) < 1e-10

    @given(sl2_matrices(), hpoints())
    def test_negation_acts_identically(self, A, z):
        assert mobius_act(A, z) == mobius_act(-A, z)

    def test_degenerate_denominator(self):
        A = iwasawa(math.pi / 2, 0.0, 0.0)  # c = 1, d = 0
        with pytest.raises(DegenerateDenominator):
            mobius_act(A, HPoint(0.0, 1e-13))


class TestJCocycle:
    def test_identity(self):
        assert j_cocycle(Mat2.identity(), HPoint(0.3, 2.0)) == 1.0

    @pytest.mark.parametrize("theta", [0.0, 0.4, -1.2, 3.0])
    def test_rotation_at_i(self, theta):
        # cos t + i sin t
        assert abs(j_cocycle(rotation(theta), I) - complex(math.cos(theta), math.sin(theta))) < 1e-15

    @given(sl2_matrices(), sl2_matrices(), hpoints())
    def test_cocycle_identity(self, A, B, z):
        lhs = j_cocycle(A @ B, z)
        rhs = j_cocycle(A, mobius_act(B, z)) * j_cocycle(B, z)
        assert abs(lhs - rhs) < 1e-10


class TestClassify:
    def test_rotation_is_elliptic(self):
        assert classify(rotation(math.pi / 4)) is IsometryClass.ELLIPTIC

    def test_scaling_is_hyperbolic(self):
        assert classify(scaling(2.0)) is IsometryClass.HYPERBOLIC

    def test_shear_is_parabolic(self):
        assert classify(Mat2(1.0, 1.0, 0.0, 1.0)) is IsometryClass.PARABOLIC

    def test_parabolic_has_no_fixed_point(self):
        # the orbit of i under the unit shear runs off without settling
        A = Mat2(1.0, 1.0, 0.0, 1.0)
        z = I
        for _ in range(50):
            w = mobius_act(A, z)
            assert hyp_distance(z, w) > 0.4
            z = w

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_identity_both_signs(self, sign):
        M = Mat2(sign, 0.0, 0.0, sign)
        assert classify(M) is IsometryClass.IDENTITY

    def test_rotation_pi_is_minus_identity(self):
        M = rotation(math.pi)
        assert frobenius_distance(M, -Mat2.identity()) < 1e-15
        assert classify(M) is IsometryClass.IDENTITY

    def test_confidence_flag(self):
        assert classify_detailed(scaling(2.0)).confident
        assert not classify_detailed(Mat2(1.0, 1.0, 0.0, 1.0)).confident

    @given(sl2_matrices(), sl2_matrices(s_bound=0.5, u_bound=0.5))
    def test_conjugation_invariance(self, A, G):
        assume(abs(abs(A.trace) - 2.0) > 1e-5)  # stay off the ill-posed boundary
        conj = G @ A @ G.inv()
        assert classify(conj) is classify(A)


class TestMetric:
    def test_axis_distance_is_log2(self):
        assert abs(hyp_distance(I, HPoint(0.0, 2.0)) - math.log(2.0)) < 1e-12

    def test_zero_iff_equal(self):
        z = HPoint(0.7, 1.3)
        assert hyp_distance(z, z) == 0.0
        assert hyp_distance(z, HPoint(0.7, 1.3 + 1e-9)) > 0.0

    @given(hpoints(), hpoints())
    def test_symmetry(self, z, w):
        assert hyp_distance(z, w) == pytest.approx(hyp_distance(w, z), abs=1e-14)

    @given(sl2_matrices(), hpoints(), hpoints())
    def test_isometry_invariance(self, A, z, w):
        d0 = hyp_distance(z, w)
        d1 = hyp_distance(mobius_act(A, z), mobius_act(A, w))
        assert abs(d0 - d1) < 1e-9

    def test_path_length_on_axis(self):
        pts = [HPoint(0.0, 2.0 ** (k / 10_000)) for k in range(10_001)]
        assert abs(path_length(pts) - math.log(2.0)) < 1e-6

    def test_path_length_repeated_point(self):
        z = HPoint(0.2, 0.9)
        assert path_length([z, z]) == 0.0

    def test_path_length_needs_two_points(self):
        with pytest.raises(ValueError):
            path_length([I])

    @settings(deadline=None, max_examples=40)
    @given(hpoints(), hpoints())
    def test_discretized_geodesic_matches_closed_form(self, z, w):
        assume(hyp_distance(z, w) > 1e-3)
        approx = path_length(geodesic_points(z, w, 8000))
        assert abs(approx - hyp_distance(z, w)) < 1e-5

    @given(hpoints(), hpoints())
    def test_midpoint_bisects(self, z, w):
        assume(hyp_distance(z, w) > 1e-6)
        m = geodesic_midpoint(z, w)
        d = hyp_distance(z, w)
        assert abs(hyp_distance(z, m) - d / 2) < 1e-9
        assert abs(hyp_distance(z, m) + hyp_distance(m, w) - d) < 1e-9


class TestConstructors:
    def test_rotation_zero_is_identity(self):
        assert rotation(0.0) == Mat2.identity()

    def test_scaling_rejects_nonpositive(self):
        for rho in (0.0, -2.0):
            with pytest.raises(NonPositiveScale):
                scaling(rho)

    def test_hpoint_needs_positive_height(self):
        with pytest.raises(ValueError):
            HPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            HPoint(0.0, -1.0)


class TestValueFormat:
    """Mat2 and HPoint are the checked entry tuples the kernels run on."""

    M = Mat2(2.0, 0.5, 0.0, 0.5)
    Z = HPoint(0.25, 1.5)

    def test_repr_and_hash(self):
        # pinned: the repr names the fields and the hash is the field tuple's
        assert repr(self.M) == "Mat2(a=2.0, b=0.5, c=0.0, d=0.5)"
        assert repr(self.Z) == "HPoint(x=0.25, y=1.5)"
        assert hash(self.M) == hash((2.0, 0.5, 0.0, 0.5))
        assert hash(self.Z) == hash((0.25, 1.5))

    def test_equal_to_the_plain_tuple(self):
        assert self.M == (2.0, 0.5, 0.0, 0.5) and self.Z == (0.25, 1.5)
        assert Mat2(a=2.0, b=0.5, c=0.0, d=0.5) == self.M

    @pytest.mark.parametrize("value", [M, Z])
    def test_pickle_and_deepcopy_round_trip(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value)

    @pytest.mark.parametrize("value, field", [(M, "a"), (M, "d"), (Z, "y")])
    def test_assignment_raises(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 1.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0

    @pytest.mark.parametrize("value", [M, Z])
    def test_no_tuple_arithmetic(self, value):
        for op in (lambda: value + value, lambda: 2 * value, lambda: value * 2):
            with pytest.raises(TypeError):
                op()

    def test_kernels_read_a_value_as_its_entries(self):
        # the bits an operation returns for a Mat2 or HPoint are those it
        # returns for the tuple of its fields, and a kernel result is a plain
        # tuple
        A, B, z, w = iwasawa(0.3, 0.5, -0.7), iwasawa(-1.2, -0.4, 0.9), self.Z, HPoint(-2.0, 0.125)
        ta, tb = (A.a, A.b, A.c, A.d), (B.a, B.b, B.c, B.d)
        tz, tw = (z.x, z.y), (w.x, w.y)
        assert _mul(A, B) == _mul(ta, tb) and type(_mul(A, B)) is tuple
        assert _inv(A) == _inv(ta) and type(_inv(A)) is tuple
        assert A @ B == _mul(ta, tb) and type(A @ B) is Mat2
        assert A.inv() == _inv(ta) and type(A.inv()) is Mat2
        assert mobius_act(A, z) == mobius_act(ta, tz) and type(mobius_act(ta, tz)) is HPoint
        assert j_cocycle(A, z) == j_cocycle(ta, tz)
        assert hyp_distance(z, w) == hyp_distance(tz, tw)
        assert frobenius_distance(A, B) == frobenius_distance(ta, tb)
        assert -A == tuple(-e for e in ta) and type(-A) is Mat2
