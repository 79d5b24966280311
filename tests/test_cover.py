import cmath
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hpoints, iwasawa, mat_close, sl2_matrices
from fuchsian.cover import (
    CoverElement,
    NonIntegral,
    NotInKernel,
    _cocycle,
    _h,
    _phi,
    cover_inv,
    cover_mul,
    kernel_value,
    lift,
    phi_at,
)
from fuchsian.halfplane import HPoint, Mat2, _check_mat, _inv, _mul, j_cocycle, rotation
from oracles import _cinv, _cmul, atan2_cocycle

TWO_PI = 2.0 * math.pi
I = HPoint(0.0, 1.0)
# entries near 1e6, with A A^-1 exactly I in floating point
BIG = Mat2(785787.7144649233, 5957813.628175863, 139620.8594370249, 1058600.234923456)
# entries near 1e8: measured by arguments, the carry of the inverse came out
# 0.28 turn from an integer; read from signs it is 0
HUGE = Mat2(146702735.37414363, -27331471.39361245, 214202482.39371574, -39907020.172825396)


def phi_increment_quadrature(A: Mat2, z: HPoint, nodes: int = 1001) -> complex:
    """Quadrature oracle for phi(z) - phi(i): the log-derivative line integral.

    Integrates c(z - i) / (c(i + t(z - i)) + d) over t in [0, 1] with
    composite Simpson; independent of the principal-log shortcut under test.
    """
    if nodes % 2 == 0:
        nodes += 1
    c, d = A.c, A.d
    dz = z.z - 1j

    def f(t: float) -> complex:
        return c * dz / (c * (1j + t * dz) + d)

    h = 1.0 / (nodes - 1)
    total = f(0.0) + f(1.0)
    total += 4.0 * sum(f((2 * i + 1) * h) for i in range((nodes - 1) // 2))
    total += 2.0 * sum(f(2 * i * h) for i in range(1, (nodes - 1) // 2))
    return total * h / 3.0


class TestLift:
    def test_identity_principal(self):
        e = lift(Mat2.identity(), 0)
        assert e.phi_i == 0.0

    def test_identity_branch_one(self):
        e = lift(Mat2.identity(), 1)
        assert e.phi_i == complex(0.0, TWO_PI)

    @pytest.mark.parametrize("theta", [0.0, 0.7, -0.7, 3.0, math.pi])
    def test_rotation_principal_winding(self, theta):
        # principal branch: phi(i) = i * theta for theta in (-pi, pi]
        e = lift(rotation(theta), 0)
        assert abs(e.phi_i - complex(0.0, theta)) < 1e-15

    def test_float_winding_is_refused(self):
        for n in (3.0, 0.5):
            with pytest.raises(TypeError):
                CoverElement(Mat2.identity(), n)

    def test_complex_winding_is_refused(self):
        for n in (1j, complex(0.5, 0.0)):
            with pytest.raises(TypeError):
                CoverElement(Mat2.identity(), n)

    def test_overflowing_product_raises(self):
        # the matrix check runs inside cover_mul: inf/NaN never reaches phi
        e = lift(Mat2(1e160, 0.0, 0.0, 1e-160))
        with pytest.raises(ValueError):
            cover_mul(e, e)

    def test_winding_past_float_precision_is_held_exactly(self):
        # a float Im phi(i) near 2 pi k cannot pin k down; n holds it exactly
        for k in (10**7, 10**8, 10**17):
            assert lift(rotation(0.5), k).n == k
            assert kernel_value(lift(Mat2.identity(), k)).k == k
        prod = cover_mul(lift(Mat2.identity(), 10**6), lift(Mat2.identity(), 9 * 10**6))
        assert prod.n == 10**7

    def test_pair_round_trips(self):
        e = lift(rotation(0.5), 10**6)
        assert CoverElement(e.A, e.n) == e
        assert kernel_value(cover_mul(e, cover_inv(e))).k == 0

    def test_near_identity_winding_of_some_hundred_thousand_turns(self):
        # within 1e-7 of I, at a winding well under a million turns where exp
        # of the float phi(i) already misses j(A, i) by more than 1e-9
        A = Mat2(0.9999999696358663, 8.907015334761319e-08, 4.819213676914873e-10, 1.0000000303641345)
        kv = kernel_value(lift(A, -707310))
        assert kv.k == -707310
        assert abs(kv.residual - 3.04e-8) < 1e-10


class TestValueFormat:
    """A CoverElement is the (A, n) pair the cover kernels run on."""

    E = CoverElement(Mat2(2.0, 0.5, 0.0, 0.5), 3)

    def test_repr_and_hash(self):
        # pinned: the repr names the fields and the hash is the field tuple's
        assert repr(self.E) == "CoverElement(A=Mat2(a=2.0, b=0.5, c=0.0, d=0.5), n=3)"
        assert hash(self.E) == hash(((2.0, 0.5, 0.0, 0.5), 3))
        assert self.E == ((2.0, 0.5, 0.0, 0.5), 3)

    def test_pickle_and_deepcopy_round_trip(self):
        for twin in (pickle.loads(pickle.dumps(self.E)), copy.deepcopy(self.E)):
            assert twin == self.E and type(twin) is CoverElement and type(twin.A) is Mat2

    def test_assignment_raises(self):
        with pytest.raises(AttributeError):
            self.E.n = 4
        with pytest.raises(AttributeError):
            self.E.extra = 4

    def test_plain_tuple_matrix_is_refused(self):
        # it would otherwise reach the kernels without the Mat2 check
        with pytest.raises(TypeError, match="Mat2"):
            CoverElement((2.0, 0.0, 0.0, 0.5), 0)
        with pytest.raises(TypeError, match="Mat2"):
            lift((2.0, 0.0, 0.0, 0.5))

    def test_star_is_the_group_law_only(self):
        assert self.E * self.E == cover_mul(self.E, self.E)
        for op in (lambda: 2 * self.E, lambda: self.E + self.E):
            with pytest.raises(TypeError):
                op()

    def test_kernels_read_an_element_as_its_pair(self):
        # the bits the kernels return for CoverElements are those they return
        # for the same (entry tuple, n) pairs built from the fields
        e1, e2 = lift(iwasawa(0.3, 0.5, -0.7), 2), lift(iwasawa(-1.2, -0.4, 0.9), -5)
        t1 = ((e1.A.a, e1.A.b, e1.A.c, e1.A.d), e1.n)
        t2 = ((e2.A.a, e2.A.b, e2.A.c, e2.A.d), e2.n)
        assert _cmul(e1, e2) == _cmul(t1, t2) and _cinv(e1) == _cinv(t1)
        assert _phi(e1) == _phi(t1) == e1.phi_i
        assert cover_mul(e1, e2) == _cmul(t1, t2) and cover_inv(e1) == _cinv(t1)
        assert type(cover_mul(e1, e2).A) is Mat2 and type(cover_inv(e1).A) is Mat2


class TestPhiAt:
    def test_identity_everywhere_zero(self):
        e = lift(Mat2.identity(), 0)
        assert phi_at(e, HPoint(3.0, 0.2)) == 0.0

    def test_rotation_at_i(self):
        e = lift(rotation(0.9), 0)
        assert abs(phi_at(e, I) - complex(0.0, 0.9)) < 1e-15

    @given(sl2_matrices(), hpoints(), st.integers(-3, 3))
    def test_exponential_oracle(self, A, z, k):
        e = lift(A, k)
        assert abs(cmath.exp(phi_at(e, z)) - j_cocycle(A, z)) < 1e-9

    @settings(deadline=None, max_examples=30)
    @given(sl2_matrices(), hpoints())
    def test_quadrature_oracle(self, A, z):
        e = lift(A, 0)
        closed = phi_at(e, z) - e.phi_i
        assert abs(closed - phi_increment_quadrature(A, z)) < 1e-6

    def test_continuity_along_path(self):
        # straight parameter path sampled at step 1e-3: no branch tearing
        A = iwasawa(2.8, 0.9, -1.1)
        e = lift(A, 0)
        steps = 4000
        prev = phi_at(e, HPoint(-2.0, 0.5))
        for k in range(1, steps + 1):
            t = k / steps
            cur = phi_at(e, HPoint(-2.0 + 4.0 * t, 0.5 + 2.5 * t))
            assert abs(cur - prev) < 0.1
            prev = cur


class TestGroupLaws:
    def test_winding_accumulates_past_principal_branch(self):
        # E(3pi/4)^2 = E(3pi/2), whose principal argument is -pi/2; the
        # cover element remembers the full 3pi/2 instead
        e = lift(rotation(3.0 * math.pi / 4.0), 0)
        prod = cover_mul(e, e)
        assert mat_close(prod.A, rotation(3.0 * math.pi / 2.0), 1e-12)
        assert abs(prod.phi_i - complex(0.0, 3.0 * math.pi / 2.0)) < 1e-12

    def test_identity_laws(self):
        e = lift(iwasawa(0.4, -0.3, 0.8), 0)
        one = lift(Mat2.identity(), 0)
        for prod in (cover_mul(e, one), cover_mul(one, e)):
            assert mat_close(prod.A, e.A, 1e-14)
            assert abs(prod.phi_i - e.phi_i) < 1e-12

    @given(sl2_matrices(), sl2_matrices(), sl2_matrices())
    def test_associativity(self, A, B, C):
        ea, eb, ec = lift(A, 0), lift(B, 0), lift(C, 0)
        left = cover_mul(cover_mul(ea, eb), ec)
        right = cover_mul(ea, cover_mul(eb, ec))
        assert mat_close(left.A, right.A, 1e-11)
        assert abs(left.phi_i - right.phi_i) < 1e-9

    @given(sl2_matrices(), st.integers(-2, 2))
    def test_inverse(self, A, k):
        e = lift(A, k)
        for prod in (cover_mul(e, cover_inv(e)), cover_mul(cover_inv(e), e)):
            assert mat_close(prod.A, Mat2.identity(), 1e-12)
            assert abs(prod.phi_i) < 1e-9

    @pytest.mark.parametrize("k", [-2, 0, 3])
    def test_large_entries_cancel_to_winding_zero(self, k):
        e = lift(BIG, k)
        assert kernel_value(cover_mul(e, cover_inv(e))).k == 0
        assert kernel_value(cover_mul(cover_inv(e), e)).k == 0

    def test_huge_entries_inverse_keeps_winding_zero(self):
        e = lift(HUGE)
        assert cover_inv(e).n == 0
        assert kernel_value(cover_mul(e, cover_inv(e))).k == 0

    def test_constructed_element_keeps_its_winding(self):
        e = CoverElement(rotation(0.5), 3)
        assert cover_mul(e, lift(Mat2.identity())).n == 3
        assert cover_inv(e).n == -3
        assert abs(e.phi_i - complex(0.0, 0.5 + TWO_PI * 3)) < 1e-14

    def test_point_past_the_action_guard(self):
        # B moves i to 1e26 i, past halfplane's DEN_TOL guard; the carry of
        # I B reads only signs, so it needs no point
        B = Mat2(1e13, 0.0, 0.0, 1e-13)
        prod = cover_mul(lift(Mat2.identity(), 0), lift(B, 0))
        assert prod.A == B
        assert prod.phi_i == lift(B, 0).phi_i
        assert kernel_value(cover_mul(cover_inv(lift(B, 0)), prod)) == (0, 0.0)

    def test_rotation_inverse_negates_winding(self):
        e = lift(rotation(1.1), 0)
        assert abs(cover_inv(e).phi_i - complex(0.0, -1.1)) < 1e-14

    @given(sl2_matrices(), sl2_matrices())
    def test_projection_is_homomorphism(self, A, B):
        prod = cover_mul(lift(A, 0), lift(B, 0))
        assert mat_close(prod.A, A @ B, 1e-10)

    @given(sl2_matrices(), st.integers(-2, 2))
    def test_kernel_is_central(self, A, k):
        e = lift(A, 0)
        z = lift(Mat2.identity(), k)
        left = cover_mul(z, e)
        right = cover_mul(e, z)
        assert left.A == right.A  # multiplying by I is exact
        assert abs(left.phi_i - right.phi_i) < 1e-10

    def test_word_drift_stays_bounded(self):
        # products and inverses over words of length 32: the defining
        # residual must hold within the long-word budget
        rng = random.Random(5)
        gens = [lift(iwasawa(rng.uniform(-3, 3), rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)), 0) for _ in range(4)]
        for _ in range(20):
            e = lift(Mat2.identity(), 0)
            for _ in range(32):
                g = rng.choice(gens)
                if rng.random() < 0.5:
                    g = cover_inv(g)
                e = cover_mul(e, g)
            j = j_cocycle(e.A, I)
            assert abs(cmath.exp(e.phi_i) - j) <= 1e-8 * max(1.0, abs(j))


def _cocycle_sample(rng: random.Random) -> Mat2:
    """A factor for the carry oracle: generic, or with c = +-0.0, a subnormal c, or +-I."""
    kind = rng.random()
    if kind < 0.6:
        return iwasawa(rng.uniform(-math.pi, math.pi), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    s = rng.choice((-1.0, 1.0))
    if kind < 0.9:  # upper triangular, d of either sign
        a = s * rng.uniform(0.2, 5.0)
        return Mat2(a, rng.uniform(-3.0, 3.0), rng.choice((0.0, -0.0)), 1.0 / a)
    if kind < 0.97:  # subnormal c
        a, b = s * rng.uniform(0.2, 5.0), rng.uniform(-3.0, 3.0)
        c = rng.choice((-1.0, 1.0)) * rng.choice((5e-324, rng.uniform(0.0, 2.2e-308)))
        return Mat2(a, b, c, (1.0 + b * c) / a)
    return Mat2(s, rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)), s)


def _underflowed(m1: tuple, m2: tuple, m: tuple) -> bool:
    # the product's c rounded to zero although the exact c1 a2 + d1 c2 is not
    return m[2] == 0.0 and Fraction(m1[2]) * Fraction(m2[0]) + Fraction(m1[3]) * Fraction(m2[2]) != 0


class TestCocycleOracle:
    """The carry read from signs against the carry measured by arguments."""

    def test_matches_atan2_unless_the_product_underflowed(self):
        # products m1 m2 and m1 m1, and m1 m1^-1 both as computed and as
        # exactly I
        rng = random.Random(21)
        for _ in range(4000):
            m1, m2 = _cocycle_sample(rng), _cocycle_sample(rng)
            m1_inv = _inv(m1)
            for f1, f2, m in ((m1, m2, _mul(m1, m2)), (m1, m1, _mul(m1, m1)),
                              (m1, m1_inv, _mul(m1, m1_inv)), (m1, m1_inv, (1.0, 0.0, 0.0, 1.0))):
                if _cocycle(f1, f2, m) != round(atan2_cocycle(f1, f2, m)):
                    assert _underflowed(f1, f2, m), (f1, f2, m)

    def test_signed_zero_factors_with_negative_d(self):
        # j(A, i) = d on the negative axis, at pi or -pi by the sign bit of c
        for c1 in (0.0, -0.0):
            for c2 in (0.0, -0.0):
                for b1, b2 in ((0.0, 0.0), (1.5, -0.25), (-0.0, 2.0)):
                    m1, m2 = Mat2(-2.0, b1, c1, -0.5), Mat2(-0.25, b2, c2, -4.0)
                    for m in (_mul(m1, m2), _mul(m2, m1)):
                        assert _cocycle(m1, m2, m) == round(atan2_cocycle(m1, m2, m))
                    assert _cinv(lift(m1)) == (_inv(m1), 0)

    def test_pinned_underflow(self):
        # The exact product has c = 0.9 * 5e-324, which rounds to +0.0: the
        # float product sits on the positive real axis while both factors sit
        # just above it.  No exactly computed product has the codes (1, 1, 0),
        # whose sum 2 lies halfway between two carries, so the carry is
        # refused instead of rounded; the arguments are all within 1e-323 of
        # 0, so atan2 reads 0.  Only factors whose c is a few subnormals from
        # zero reach this.
        m1, m2 = Mat2(2.0, 0.0, 5e-324, 0.5), Mat2(0.4, -0.0, 5e-324, 2.5)
        m = _mul(m1, m2)
        assert m == (0.8, 0.0, 0.0, 1.25) and _underflowed(m1, m2, m)
        assert round(atan2_cocycle(m1, m2, m)) == 0
        with pytest.raises(NonIntegral, match="quarter turns sum to 2"):
            _cocycle(m1, m2, m)

    def test_inverse_negates_the_quarter_turns(self):
        # the oracle's corpus: the adjugate passes the check its input passed,
        # flips the sign of c, and for a zero c keeps d on a's side of zero,
        # so c(A, A^-1, I) = 0 and _cinv adds no carry
        rng = random.Random(21)
        for _ in range(4000):
            for m in (_cocycle_sample(rng), _cocycle_sample(rng)):
                m_inv = _inv(m)
                assert _check_mat(m_inv) == m_inv
                assert _h(m_inv) == -_h(m)
                assert _cocycle(m, m_inv, (1.0, 0.0, 0.0, 1.0)) == 0


class TestKernel:
    def test_neutral_element(self):
        assert kernel_value(lift(Mat2.identity(), 0)) == (0, 0.0)

    def test_branch_three(self):
        kv = kernel_value(lift(Mat2.identity(), 3))
        assert kv.k == 3
        assert kv.residual < 1e-12

    def test_rejects_non_kernel(self):
        with pytest.raises(NotInKernel):
            kernel_value(lift(rotation(0.5), 0))

    def test_genus_two_commutator_winding(self, octagon_rep):
        # the full lifted relation word lands in the kernel one step out
        total = None
        for A, B in zip(octagon_rep.gens_a, octagon_rep.gens_b):
            ta, tb = lift(A, 0), lift(B, 0)
            comm = cover_mul(cover_mul(ta, tb), cover_mul(cover_inv(ta), cover_inv(tb)))
            total = comm if total is None else cover_mul(total, comm)
        kv = kernel_value(total)
        assert kv.k in (-1, 1)  # winding +-1, i.e. invariant +-2
        assert kv.residual < 1e-6
