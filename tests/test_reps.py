import math

import pytest
from hypothesis import given

from conftest import sl2_matrices
from fuchsian.cover import cover_inv, cover_mul, lift
from fuchsian.halfplane import Mat2, rotation, scaling
from fuchsian.repfile import format_rep, parse_rep, read_rep_file, write_rep_file
from fuchsian.reps import (
    NonIntegral,
    RelationViolated,
    Representation,
    branch_independence_check,
    goldman_fuchsian_test,
    milnor_check,
    reflect_conjugate,
    relation_product,
    relation_residual,
    toledo,
)
from fuchsian.solver import solve
from oracles import bisection_rep


def rotations_rep(genus, angles_a, angles_b):
    return Representation(
        genus,
        tuple(rotation(t) for t in angles_a),
        tuple(rotation(t) for t in angles_b),
    )


class TestRelationResidual:
    def test_trivial_rep(self):
        assert relation_residual(Representation.trivial(3)) == 0.0

    def test_commuting_scalings_genus_one(self):
        A = scaling(2.0)
        assert relation_residual(Representation(1, (A,), (A,))) == 0.0

    def test_octagon_rep(self, octagon_rep):
        assert relation_residual(octagon_rep) < 1e-8

    def test_generator_count_enforced(self):
        with pytest.raises(ValueError):
            Representation(2, (Mat2.identity(),), (Mat2.identity(),))

    def test_unrenormalizable_word_is_inf(self):
        # rounding drives a partial product's det negative (-128) at 7 handles
        r = Representation(7, (scaling(20.0),) * 7, (rotation(0.7),) * 7)
        assert relation_residual(r) == math.inf
        with pytest.raises(RelationViolated, match="residual inf"):
            toledo(r)

    def test_genus_must_be_positive(self):
        with pytest.raises(ValueError):
            Representation(0, (), ())


class TestToledo:
    def test_trivial_rep_is_zero(self):
        for g in (1, 2, 3):
            t = toledo(Representation.trivial(g))
            assert t.value == 0
            assert t.raw == 0.0
            assert not t.psl_only

    def test_rotations_have_zero_winding_genus_one(self):
        r = rotations_rep(1, [0.8], [-2.4])
        t = toledo(r)
        assert t.value == 0
        assert abs(t.raw) < 1e-12

    def test_rotations_have_zero_winding_genus_two(self):
        r = rotations_rep(2, [0.5, 2.9], [-1.3, 0.2])
        assert toledo(r).value == 0

    def test_octagon_is_maximal(self, octagon_rep):
        t = toledo(octagon_rep)
        assert abs(t.value) == 2
        assert t.residual < 1e-10
        assert t.kernel_matrix_residual < 1e-10
        assert not t.psl_only

    def test_relation_precondition(self):
        bad = Representation(1, (scaling(2.0),), (Mat2(1.0, 1.0, 0.0, 1.0),))
        with pytest.raises(RelationViolated):
            toledo(bad)

    def test_non_integral_when_precondition_disabled(self):
        # loosening the tolerance feeds garbage to the winding extraction
        bad = Representation(1, (rotation(0.4),), (scaling(2.0),))
        with pytest.raises(NonIntegral):
            toledo(bad, rel_tol=100.0)

    def test_branch_count_checked(self, octagon_rep):
        with pytest.raises(ValueError):
            toledo(octagon_rep, branches=[0, 0, 0])

    @given(G=sl2_matrices(s_bound=0.6, u_bound=0.8))
    def test_conjugation_invariance(self, G, octagon_rep):
        conj = Representation(
            octagon_rep.genus,
            tuple(G @ A @ G.inv() for A in octagon_rep.gens_a),
            tuple(G @ B @ G.inv() for B in octagon_rep.gens_b),
        )
        assert toledo(conj).value == toledo(octagon_rep).value


# (genus, reflected, value, psl_only, raw, kernel_matrix_residual,
#  relation_residual) for the polygon representations, recorded with the
# Mat2/CoverElement object arithmetic that preceded the tuple kernels.  The
# pins guard the kernels, so their input polygons come from the bisection
# oracle that built the polygons when they were recorded.
POLYGON_PINS = [
    (2, False, -2, False, -2.000000000000002, 2.5705383976014592e-14, 3.55566581897262e-14),
    (2, True, 2, False, 2.000000000000002, 2.5705383976014592e-14, 3.55566581897262e-14),
    (3, False, -4, False, -4.000000000000001, 5.695363635410025e-14, 1.8119207111365324e-13),
    (3, True, 4, False, 4.000000000000001, 5.695363635410025e-14, 1.8119207111365324e-13),
    (5, False, -8, False, -7.999999999999999, 3.1833602799382045e-11, 9.33661840131905e-12),
    (5, True, 8, False, 7.999999999999999, 3.1833602799382045e-11, 9.33661840131905e-12),
    (10, False, -18, False, -17.999999999999936, 7.216455605382063e-09, 1.4485165247639218e-10),
    (10, True, 18, False, 17.999999999999936, 7.216455605382063e-09, 1.4485165247639218e-10),
]


def polygon_rep(genus, reflected):
    r = bisection_rep(genus)
    return reflect_conjugate(r) if reflected else r


class TestKernels:
    @pytest.mark.parametrize("g, reflected, value, psl_only, raw, kmr, rel", POLYGON_PINS)
    def test_polygon_values_pinned(self, g, reflected, value, psl_only, raw, kmr, rel):
        r = polygon_rep(g, reflected)
        t = toledo(r)
        assert t.value == value
        assert t.psl_only is psl_only
        assert abs(t.raw - raw) < 1e-12
        assert abs(t.kernel_matrix_residual - kmr) < 1e-12
        assert abs(relation_residual(r) - rel) < 1e-12

    @pytest.mark.parametrize("g, reflected", [(2, False), (3, True), (10, False)])
    def test_same_bits_as_public_arithmetic(self, g, reflected):
        # the word and its association order spelled with the public types
        r = polygon_rep(g, reflected)
        P = Mat2.identity()
        total = None
        for A, B in zip(r.gens_a, r.gens_b):
            P = P @ A @ B @ A.inv() @ B.inv()
            ta, tb = lift(A), lift(B)
            comm = cover_mul(cover_mul(ta, tb), cover_mul(cover_inv(ta), cover_inv(tb)))
            total = comm if total is None else cover_mul(total, comm)
        assert relation_product(r) == P
        assert toledo(r).raw == total.phi_i.imag / math.pi

    def test_relation_product_is_mat2(self, octagon_rep):
        assert isinstance(relation_product(octagon_rep), Mat2)


class TestChecks:
    def test_milnor_trivial(self):
        assert milnor_check(Representation.trivial(2))

    def test_milnor_octagon_with_equality(self, octagon_rep):
        assert milnor_check(octagon_rep)
        assert abs(toledo(octagon_rep).value) == 2 * octagon_rep.genus - 2

    def test_goldman_octagon(self, octagon_rep):
        assert goldman_fuchsian_test(octagon_rep)

    def test_goldman_rejects_trivial(self):
        assert not goldman_fuchsian_test(Representation.trivial(2))

    def test_goldman_rejects_rotations(self):
        assert not goldman_fuchsian_test(rotations_rep(2, [0.5, 2.9], [-1.3, 0.2]))

    def test_solver_output_even_and_bounded(self):
        for seed in range(5):
            r = solve(2, seed=seed)
            t = toledo(r)
            assert t.value % 2 == 0
            assert abs(t.raw - t.value) < 1e-3
            assert milnor_check(r)


class TestReflectConjugate:
    def test_involution_exact(self, octagon_rep):
        back = reflect_conjugate(reflect_conjugate(octagon_rep))
        assert back == octagon_rep

    def test_trivial_fixed(self):
        r = Representation.trivial(2)
        assert reflect_conjugate(r) == r

    def test_preserves_relation(self, octagon_rep):
        assert relation_residual(reflect_conjugate(octagon_rep)) < 1e-8

    def test_negates_invariant(self, octagon_rep):
        assert toledo(reflect_conjugate(octagon_rep)).value == -toledo(octagon_rep).value


class TestBranchIndependence:
    def test_trivial(self):
        assert branch_independence_check(Representation.trivial(2), seed=1)

    def test_octagon_many_seeds(self, octagon_rep):
        for seed in range(20):
            assert branch_independence_check(octagon_rep, seed=seed, trials=1)

    def test_solver_rep(self):
        r = solve(2, seed=11)
        assert branch_independence_check(r, seed=0)


class TestRepFile:
    def test_round_trip_bits(self, octagon_rep):
        text = format_rep(octagon_rep, meta=["hello world"])
        back, meta = parse_rep(text)
        assert back == octagon_rep  # bit-identical through 17 digits
        assert meta == ["hello world"]

    def test_file_round_trip(self, tmp_path, octagon_rep):
        path = tmp_path / "rep.txt"
        write_rep_file(path, octagon_rep)
        assert read_rep_file(path) == octagon_rep

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ngenus 1\nA 1 0 0 1\nB 1 0 0 1\n"
        rep, _ = parse_rep(text)
        assert rep == Representation.trivial(1)

    @pytest.mark.parametrize(
        "text",
        [
            "A 1 0 0 1\nB 1 0 0 1\n",              # missing genus
            "genus 2\nA 1 0 0 1\nB 1 0 0 1\n",      # wrong counts
            "genus 1\nA 1 0 0\nB 1 0 0 1\n",        # short row
            "genus 1\nQ 1 0 0 1\n",                  # unknown record
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_rep(text)
