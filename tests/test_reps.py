import math
import random

import pytest
from hypothesis import given

from conftest import sl2_matrices
from fuchsian.cover import cover_inv, cover_mul, lift
from fuchsian.halfplane import Mat2, rotation, scaling
from fuchsian.polygons import regular_polygon, side_pairings
from fuchsian.repfile import format_rep, parse_rep, read_rep_file, write_rep_file
from fuchsian.reps import (
    NonIntegral,
    RelationViolated,
    Representation,
    branch_independence_check,
    goldman_fuchsian_test,
    reflect_conjugate,
    relation_product,
    relation_residual,
    toledo,
)
from fuchsian import cover, reps
from fuchsian.solver import solve
from oracles import bisection_rep, object_side_pairings, per_branch_toledo, transport_toledo_raw


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
        with pytest.raises(ValueError, match=r"cannot renormalize entries with det -128\.0"):
            relation_product(r)
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

    def test_carry_breakdown_is_non_integral(self):
        # the inverse of a generator with entries near 1e8 carries 0.28 turn
        # off an integer; the relation (A, I) itself closes exactly
        A = Mat2(146702735.37414363, -27331471.39361245, 214202482.39371574, -39907020.172825396)
        r = Representation(1, (A,), (Mat2.identity(),))
        assert relation_residual(r) == 0.0
        with pytest.raises(NonIntegral, match="Euler cocycle carry"):
            toledo(r)

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


# (genus, reflected, value, psl_only, raw, relation_residual) for the
# polygon representations, recorded with the Mat2/CoverElement object
# arithmetic that preceded the tuple kernels.  The pins guard the kernels,
# so their inputs are the words they were recorded on: the bisection
# oracle's polygons, paired by the centre-frame carrier.
POLYGON_PINS = [
    (2, False, -2, False, -2.000000000000002, 3.55566581897262e-14),
    (2, True, 2, False, 2.000000000000002, 3.55566581897262e-14),
    (3, False, -4, False, -4.000000000000001, 1.8119207111365324e-13),
    (3, True, 4, False, 4.000000000000001, 1.8119207111365324e-13),
    (5, False, -8, False, -7.999999999999999, 9.33661840131905e-12),
    (5, True, 8, False, 7.999999999999999, 9.33661840131905e-12),
    (10, False, -18, False, -17.999999999999936, 1.4485165247639218e-10),
    (10, True, 18, False, 17.999999999999936, 1.4485165247639218e-10),
]


def polygon_rep(genus, reflected):
    r = bisection_rep(genus)
    return reflect_conjugate(r) if reflected else r


class TestKernels:
    @pytest.mark.parametrize("g, reflected, value, psl_only, raw, rel", POLYGON_PINS)
    def test_polygon_values_pinned(self, g, reflected, value, psl_only, raw, rel):
        r = polygon_rep(g, reflected)
        t = toledo(r)
        assert t.value == value
        assert t.psl_only is psl_only
        assert abs(t.raw - raw) < 1e-12
        assert abs(relation_residual(r) - rel) < 1e-12
        assert t.kernel_matrix_residual == relation_residual(r)

    @pytest.mark.parametrize("g", range(2, 151))
    def test_kernel_residual_is_the_relation_residual(self, g):
        # toledo winds the very word whose residual the relation check read
        r = side_pairings(regular_polygon(g))
        for rep in (r, reflect_conjugate(r)):
            assert toledo(rep).kernel_matrix_residual == relation_residual(rep)

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_kernel_residual_is_the_relation_residual_on_solves(self, g):
        for seed in range(3):
            r = solve(g, seed=seed)
            for rep in (r, reflect_conjugate(r)):
                assert toledo(rep).kernel_matrix_residual == relation_residual(rep)

    @pytest.mark.parametrize("g, reflected", [(2, False), (3, True), (10, False)])
    def test_same_bits_as_public_arithmetic(self, g, reflected):
        # the word and its association order spelled with the public types
        r = polygon_rep(g, reflected)
        P = Mat2.identity()
        total = lift(P)
        for A, B in zip(r.gens_a, r.gens_b):
            ta, tb = lift(A), lift(B)
            for L, tl in ((A, ta), (B, tb), (A.inv(), cover_inv(ta)), (B.inv(), cover_inv(tb))):
                P = P @ L
                total = cover_mul(total, tl)
        assert total.A == P
        assert relation_product(r) == P
        assert toledo(r).raw == total.phi_i.imag / math.pi

    def test_relation_product_is_mat2(self, octagon_rep):
        assert isinstance(relation_product(octagon_rep), Mat2)


def assert_matches_transport(r, branches=None):
    t = toledo(r, branches=branches)
    raw = transport_toledo_raw(r, branches)
    assert abs(t.raw - raw) < 1e-11
    assert t.value == round(raw)


class TestTransportOracle:
    # the integer cocycle against the float-winding transport, on the same
    # word.  The polygon words are the centre-frame carrier's: on the
    # vertex-frame words the float transport itself drifts past 1e-11 at
    # g = 12 and fails its own EXP_TOL check from g = 25.

    @pytest.mark.parametrize("g", range(2, 40))
    def test_polygons_and_reflections(self, g):
        r = object_side_pairings(regular_polygon(g))
        assert_matches_transport(r)
        assert_matches_transport(reflect_conjugate(r))

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_solves_under_branch_choices(self, g):
        rng = random.Random(g)
        for seed in range(3):
            r = solve(g, seed=seed)
            for branches in [None] + [[rng.randint(-3, 3) for _ in range(2 * g)] for _ in range(3)]:
                assert_matches_transport(r, branches)
                assert_matches_transport(reflect_conjugate(r), branches)


def branch_vectors(g, rng, count=4, span=3):
    return [None] + [[rng.randint(-span, span) for _ in range(2 * g)] for _ in range(count)]


def assert_same_bits_as_per_branch(r, rng):
    # repr tells every float apart by its bits, -0.0 from 0.0 included
    for branches in branch_vectors(r.genus, rng):
        assert repr(toledo(r, branches=branches)) == repr(per_branch_toledo(r, branches))


class TestPrincipalLift:
    # toledo reads one principal lift per instance; the former per-branch
    # kernel loop must give the same bits under every branch vector

    @pytest.mark.parametrize("g", range(2, 47))
    def test_polygons_and_reflections(self, g):
        rng = random.Random(g)
        r = side_pairings(regular_polygon(g))
        assert_same_bits_as_per_branch(r, rng)
        assert_same_bits_as_per_branch(reflect_conjugate(r), rng)

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_solves(self, g):
        rng = random.Random(100 + g)
        for seed in range(3):
            r = solve(g, seed=seed)
            assert_same_bits_as_per_branch(r, rng)
            assert_same_bits_as_per_branch(reflect_conjugate(r), rng)

    def test_equal_instances_each_evaluate_their_own_words(self, monkeypatch, octagon_rep):
        calls = {"_cmul": 0, "_mul": 0, "_cocycle": 0}

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(cover, "_cmul")
        counting(reps, "_mul")
        counting(reps, "_cocycle")
        text = format_rep(octagon_rep)
        r1, _ = parse_rep(text)
        r2, _ = parse_rep(text)
        assert r1 == r2 and hash(r1) == hash(r2) and r1 is not r2
        # genus 2: one matrix product per letter of the 8-letter word, and
        # one carry per product plus one per inverse letter's lift
        word = {"_cmul": 0, "_mul": 8, "_cocycle": 12}

        first = toledo(r1)
        assert calls == word
        assert relation_residual(r1) == relation_residual(r1)
        assert toledo(r1, branches=[1, -2, 3, 0]) == first
        relation_product(r1)
        assert calls == word
        assert toledo(r2) == first
        assert calls == {name: 2 * n for name, n in word.items()}

    def test_refusals_are_not_kept(self):
        # RelationViolated comes before NonIntegral on every call
        bad = Representation(1, (rotation(0.4),), (scaling(2.0),))
        for _ in range(2):
            with pytest.raises(RelationViolated):
                toledo(bad)
            with pytest.raises(NonIntegral):
                toledo(bad, rel_tol=100.0)

    def test_relation_refusal_then_infinite_tolerance(self):
        # the g = 47 polygon paired in the centre frame misses REL_TOL, and
        # still has its invariant
        r = object_side_pairings(regular_polygon(47))
        for _ in range(2):
            with pytest.raises(RelationViolated, match=r"relation residual 1\.115e-06 exceeds 1\.0e-06"):
                toledo(r)
        assert toledo(r, rel_tol=math.inf).value == -92

    def test_unrenormalizable_word_is_kept_with_its_message(self):
        r = Representation(7, (scaling(20.0),) * 7, (rotation(0.7),) * 7)
        for _ in range(2):
            assert relation_residual(r) == math.inf
            with pytest.raises(ValueError, match=r"cannot renormalize entries with det -128\.0"):
                relation_product(r)

    def test_branch_count_checked_after_the_lift_is_kept(self, octagon_rep):
        toledo(octagon_rep)
        for branches in ([0, 0, 0], [0] * 5):
            with pytest.raises(ValueError, match="need 4 branch integers"):
                toledo(octagon_rep, branches=branches)


class TestChecks:
    def test_milnor_trivial(self):
        r = Representation.trivial(2)
        assert abs(toledo(r).value) <= 2 * r.genus - 2

    def test_milnor_octagon_with_equality(self, octagon_rep):
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
            assert abs(t.value) <= 2 * r.genus - 2


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
