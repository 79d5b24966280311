import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hpoints, iwasawa, mat_close, sl2_matrices
from fuchsian.cover import (
    CoverElement,
    NotInKernel,
    cover_inv,
    cover_mul,
    kernel_value,
    lift,
    phi_at,
)
from fuchsian.halfplane import HPoint, Mat2, j_cocycle, rotation

TWO_PI = 2.0 * math.pi
I = HPoint(0.0, 1.0)


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

    def test_invariant_guard(self):
        with pytest.raises(ValueError):
            CoverElement(Mat2.identity(), complex(0.5, 0.0))

    def test_invariant_guard_on_imaginary_part(self):
        # exp(i) is on the unit circle like j(I, i) = 1, but is not 1
        with pytest.raises(ValueError):
            CoverElement(Mat2.identity(), 1j)

    def test_overflowing_product_raises(self):
        # the matrix check runs inside cover_mul: inf/NaN never reaches phi
        e = lift(Mat2(1e160, 0.0, 0.0, 1e-160))
        with pytest.raises(ValueError):
            cover_mul(e, e)


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
