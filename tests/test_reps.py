import copy
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sl2_matrices
from fuchsian.cover import CoverElement, _phi, cover_inv, kernel_value, lift
from fuchsian.euclidean import LatticeGroup
from fuchsian.halfplane import HPoint, Mat2, _mul, classify_detailed, rotation, scaling
from fuchsian.polygons import regular_polygon, side_pairings
from fuchsian.repfile import format_rep, parse_rep, read_rep_file, write_rep_file
from fuchsian.reps import (
    NonIntegral,
    RelationViolated,
    Representation,
    ToledoResult,
    goldman_fuchsian_test,
    reflect_conjugate,
    relation_product,
    relation_residual,
    toledo,
)
import fuchsian
from fuchsian import cover, halfplane, reps
from fuchsian.solver import solve
from oracles import (
    _cmul,
    bisection_rep,
    object_side_pairings,
    per_branch_toledo,
    per_field_format_rep,
    transport_toledo_raw,
)


def rotations_rep(genus, angles_a, angles_b):
    return Representation(
        genus,
        tuple(rotation(t) for t in angles_a),
        tuple(rotation(t) for t in angles_b),
    )


def overflowed_rep():
    return Representation(2, (scaling(1e80),) * 2, (rotation(0.7),) * 2)


def near_lattice_rep():
    # relation residual 9.9e-5; raw lies 3.16e-5 off the lattice, past WARN_TOL
    return Representation(1, (scaling(1.005),), (Mat2(1.0, 0.0, 0.01, 1.0),))


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

    def test_plain_tuple_generator_is_refused(self):
        # it would otherwise reach the relation kernels without the Mat2 check
        eye = Mat2.identity()
        with pytest.raises(TypeError, match="Mat2"):
            Representation(1, ((2.0, 0.0, 0.0, 0.5),), (eye,))
        with pytest.raises(TypeError, match="Mat2"):
            Representation(1, (eye,), ((1.0, 0.0, 0.0, 1.0),))

    def test_unrenormalizable_word_is_inf(self):
        # rounding drives the word's det to 0.0 at 7 handles
        r = Representation(7, (scaling(20.0),) * 7, (rotation(0.7),) * 7)
        assert relation_residual(r) == math.inf
        with pytest.raises(ValueError, match=r"cannot renormalize entries with det 0\.0"):
            relation_product(r)
        with pytest.raises(RelationViolated, match="residual inf"):
            toledo(r)
        # the word's entries overflow to inf and then NaN part way through
        r = overflowed_rep()
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

    def test_huge_entries_commuting_pair_is_zero(self):
        # entries near 1e8, where a carry measured by arguments came out 0.28
        # turn off an integer; the relation (A, I) closes exactly, and a
        # commuting pair has invariant 0
        A = Mat2(146702735.37414363, -27331471.39361245, 214202482.39371574, -39907020.172825396)
        r = Representation(1, (A,), (Mat2.identity(),))
        assert relation_residual(r) == 0.0
        assert toledo(r) == ToledoResult(0, 0.0, 0.0, 0.0)

    def test_signed_zero_abelian_pair_is_zero(self):
        # A = B on the negative axis with c = -0.0, its inverse with c = +0.0;
        # the two-term sign test [up1 up2 !up] - [!up1 !up2 up], with up
        # meaning Arg j(., i) in (0, pi], reads invariant 2 here
        A = Mat2(-2.0, 0.0, -0.0, -0.5)
        r = Representation(1, (A,), (A,))
        for rep in (r, reflect_conjugate(r)):
            assert toledo(rep).value == 0

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
# arithmetic that preceded the tuple kernels; g = 5 and 10 were recorded
# again on the relation word of plain products, checked once at its end,
# which moves their residuals by more than 1e-12.  The pins guard the kernels,
# so their inputs are the words they were recorded on: the bisection
# oracle's polygons, paired by the centre-frame carrier.
POLYGON_PINS = [
    (2, False, -2, False, -2.000000000000002, 3.55566581897262e-14),
    (2, True, 2, False, 2.000000000000002, 3.55566581897262e-14),
    (3, False, -4, False, -4.000000000000001, 1.8119207111365324e-13),
    (3, True, 4, False, 4.000000000000001, 1.8119207111365324e-13),
    (5, False, -8, False, -8.0, 1.1503802530141815e-11),
    (5, True, 8, False, 8.0, 1.1503802530141815e-11),
    (10, False, -18, False, -18.0, 3.578569784287723e-11),
    (10, True, 18, False, 18.0, 3.578569784287723e-11),
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
        # the word and its association order spelled with the public letters
        # and the plain kernels (Mat2 @ and cover_mul renormalize each step);
        # relation_product is that word renormalized once
        r = polygon_rep(g, reflected)
        P = Mat2.identity()
        total = lift(P)
        for A, B in zip(r.gens_a, r.gens_b):
            ta, tb = lift(A), lift(B)
            for L, tl in ((A, ta), (B, tb), (A.inv(), cover_inv(ta)), (B.inv(), cover_inv(tb))):
                P = _mul(P, L)
                total = _cmul(total, tl)
        assert repr(total[0]) == repr(P)
        assert repr(relation_product(r)) == repr(Mat2.renormalized(*P))
        assert repr(toledo(r).raw) == repr(_phi(total).imag / math.pi)

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
        calls = {"_mul": 0, "_cocycle": 0, "_phi": 0, "frobenius_distance": 0, "_renorm": 0}

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(reps, "_mul")
        counting(reps, "_cocycle")
        counting(reps, "_phi")
        counting(reps, "frobenius_distance")
        counting(halfplane, "_renorm")
        counting(reps, "_renorm")
        text = format_rep(octagon_rep)
        r1, _ = parse_rep(text)
        r2, _ = parse_rep(text)
        assert r1 == r2 and hash(r1) == hash(r2) and r1 is not r2
        # genus 2: one matrix product per letter of the 8-letter word, and
        # one carry per product; an inverse letter's lift carries nothing.
        # The word is renormalized once, at its end, and its two distances,
        # to I and to -I, and its phi(i) are read once.
        word = {"_mul": 8, "_cocycle": 8, "_phi": 1, "frobenius_distance": 2, "_renorm": 1}

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
        # the warning of a kept result is issued on every call, and the
        # relation check still refuses at the default tolerance
        r = near_lattice_rep()
        for _ in range(2):
            with pytest.warns(UserWarning, match=r"residual 3\.159e-05 is unusually large"):
                t = toledo(r, rel_tol=1e-3)
            assert (t.value, t.kernel_matrix_residual) == (0, relation_residual(r))
            with pytest.raises(RelationViolated, match=r"relation residual 9\.925e-05 exceeds 1\.0e-06"):
                toledo(r)

    def test_underflowed_carry_is_refused_on_every_call(self):
        # A B has exact c = 0.9 * 5e-324, which rounds to zero: the relation
        # holds, its reflection too, and neither winding is kept
        A, B = Mat2(2.0, 0.0, 5e-324, 0.5), Mat2(0.4, -0.0, 5e-324, 2.5)
        r = Representation(1, (A,), (B,))
        for rep in (r, reflect_conjugate(r)):
            for _ in range(2):
                assert relation_residual(rep) == 0.0
                with pytest.raises(NonIntegral, match="rounded to zero"):
                    toledo(rep)
                assert vars(rep).keys() == {"_relation"}
        assert NonIntegral is cover.NonIntegral is fuchsian.NonIntegral

    def test_relation_refusal_then_infinite_tolerance(self):
        # the g = 60 polygon paired in the centre frame misses REL_TOL, and
        # still has its invariant
        r = object_side_pairings(regular_polygon(60))
        for _ in range(2):
            with pytest.raises(RelationViolated, match=r"relation residual 5\.991e-06 exceeds 1\.0e-06"):
                toledo(r)
        assert toledo(r, rel_tol=math.inf).value == -118

    def test_unrenormalizable_word_is_kept_with_its_message(self):
        r = Representation(7, (scaling(20.0),) * 7, (rotation(0.7),) * 7)
        for _ in range(2):
            assert relation_residual(r) == math.inf
            with pytest.raises(ValueError, match=r"cannot renormalize entries with det 0\.0"):
                relation_product(r)

    def test_unrenormalizable_word_raises_on_every_call(self):
        # the failing word is not kept: each call multiplies it again and
        # raises the renormalization's own ValueError, also past an infinite
        # relation tolerance
        r = Representation(7, (scaling(20.0),) * 7, (rotation(0.7),) * 7)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"cannot renormalize entries with det 0\.0") as exc:
                toledo(r, rel_tol=math.inf)
            assert type(exc.value) is ValueError
            assert "_relation" not in vars(r)
        # nor is an overflowed one, so no carry is read off its NaN signs
        r = overflowed_rep()
        for _ in range(2):
            with pytest.raises(ValueError, match="cannot renormalize entries with det nan") as exc:
                toledo(r, rel_tol=math.inf)
            assert type(exc.value) is ValueError
            assert not vars(r)

    def test_branch_count_checked_after_the_lift_is_kept(self, octagon_rep):
        toledo(octagon_rep)
        for branches in ([0, 0, 0], [0] * 5):
            with pytest.raises(ValueError, match="need 4 branch integers"):
                toledo(octagon_rep, branches=branches)
        # the count comes before the warning of a kept result
        r = near_lattice_rep()
        with pytest.warns(UserWarning, match="unusually large"):
            toledo(r, rel_tol=1e-3)
        for branches in ([0], [0] * 3):
            with pytest.raises(ValueError, match="need 2 branch integers"):
                toledo(r, branches=branches, rel_tol=1e-3)


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


def assert_branch_independent(r, seed, trials=20):
    # the genuine per-branch route gives toledo's integer on every vector
    value = toledo(r).value
    for branches in branch_vectors(r.genus, random.Random(seed), count=trials):
        assert per_branch_toledo(r, branches).value == value


class TestBranchIndependence:
    def test_trivial(self):
        assert_branch_independent(Representation.trivial(2), seed=1)

    def test_octagon_many_seeds(self, octagon_rep):
        for seed in range(20):
            assert_branch_independent(octagon_rep, seed=seed, trials=1)

    def test_solver_rep(self):
        assert_branch_independent(solve(2, seed=11), seed=0)


class TestRepFile:
    def test_round_trip_bits(self, octagon_rep):
        text = format_rep(octagon_rep, meta=["hello world"])
        back, meta = parse_rep(text)
        assert back == octagon_rep  # bit-identical through 17 digits
        assert meta == ["hello world"]

    @pytest.mark.parametrize("m", ["", "  padded", "a # b", "tab\tinside", "caf\u00e9", "meta genus 3"])
    def test_accepted_meta_round_trips(self, m):
        r = Representation.trivial(1)
        back, meta = parse_rep(format_rep(r, [m, "last"]))
        assert back == r and meta == [m, "last"]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.text())
    def test_meta_is_refused_or_read_back(self, m):
        r = Representation.trivial(1)
        try:
            text = format_rep(r, [m])
        except ValueError:
            return
        assert parse_rep(text) == (r, [m])

    @pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_meta_line_boundary_is_refused(self, sep):
        for m in (f"x{sep}y", f"x{sep}", f"{sep}y"):
            with pytest.raises(ValueError, match=r"meta .* would not read back"):
                format_rep(Representation.trivial(1), [m])

    @pytest.mark.parametrize("m", ["  padded  ", "x ", "x\t", "x\u00a0", " "])
    def test_meta_trailing_whitespace_is_refused(self, m):
        with pytest.raises(ValueError, match=f"meta {re.escape(repr(m))} would not read back"):
            format_rep(Representation.trivial(1), [m])

    # off-diagonal entries the triangular letters carry: signed zeros,
    # subnormals down to 5e-324, and the edges of the normal range
    EDGE_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-320, 2.2250738585072009e-308,
                    2.2250738585072014e-308, 1.7976931348623157e308, -1e300, 1.0, -1.0)

    def _edge_letter(self, rnd) -> Mat2:
        kind = rnd.randrange(3)
        if kind == 2:  # diag(s, 1/s) rotation(t): entries near s and 1/s, s up to 1e+-150
            s, t = 10.0 ** rnd.uniform(-150.0, 150.0), rnd.uniform(-math.pi, math.pi)
            c, sn = math.cos(t), math.sin(t)
            return Mat2(s * c, -s * sn, sn / s, c / s)
        a = rnd.choice((1.0, -1.0)) * 10.0 ** rnd.uniform(-150.0, 150.0)
        x = rnd.choice(self.EDGE_ENTRIES) if rnd.random() < 0.5 else rnd.uniform(-1e3, 1e3)
        return Mat2(a, x, 0.0, 1.0 / a) if kind == 0 else Mat2(a, rnd.choice((0.0, -0.0)), x, 1.0 / a)

    def test_format_matches_the_per_field_oracle(self, octagon_rep):
        rnd = random.Random(30)
        corpus = [octagon_rep, Representation.trivial(2)]
        for _ in range(300):
            g = rnd.randint(1, 3)
            corpus.append(Representation(
                g,
                tuple(self._edge_letter(rnd) for _ in range(g)),
                tuple(self._edge_letter(rnd) for _ in range(g)),
            ))
        texts = [format_rep(r, ["seeded corpus"]) for r in corpus]
        assert texts == [per_field_format_rep(r, ["seeded corpus"]) for r in corpus]
        joined = "".join(texts)
        for x in ("-0 ", "4.9406564584124654e-324", "2.2250738585072009e-308", "e+149", "e-149"):
            assert x in joined, x

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
            "genus 5\nA 1 0 0 1\nB 1 0 0 1\ngenus 1\n",  # repeated genus
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_rep(text)


class TestRecords:
    """The value types are named tuples from fuchsian._value_type: Mat2 and
    HPoint, CoverElement and KernelValue, Classification, Representation,
    HyperbolicPolygon and LatticeGroup."""

    REP = Representation(1, (scaling(2.0),), (rotation(0.3),))
    POLY = regular_polygon(2)
    LAT = LatticeGroup((1.0, 0.0), (0.5, 2.0))
    CLS = classify_detailed(scaling(2.0))

    @pytest.mark.parametrize("value, field", [
        (REP, "genus"), (REP, "gens_a"), (POLY, "vertices"), (POLY, "genus"), (LAT, "a"), (CLS, "kind"),
    ])
    def test_fields_are_read_only(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1.0

    @pytest.mark.parametrize("value", [REP, POLY, LAT, CLS])
    def test_no_tuple_arithmetic(self, value):
        for op in (lambda: value + value, lambda: 2 * value, lambda: value * 2):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("builder", [lambda v: type(v)._make(tuple(v)), lambda v: v._replace()],
                             ids=["_make", "_replace"])
    @pytest.mark.parametrize("value", [
        Mat2.identity(), HPoint(0.0, 1.0), lift(rotation(0.3), 2), REP, POLY, LAT,
        kernel_value(lift(Mat2.identity(), 3)), CLS,
    ], ids=lambda v: type(v).__name__)
    def test_no_unchecked_builders(self, value, builder):
        # the value rule: no tuple + or *, and no named-tuple builder, which
        # would skip the checks of __new__; pickle and deepcopy go through it
        ops = [lambda: value + value, lambda: 2 * value, lambda: builder(value)]
        if not isinstance(value, CoverElement):  # its * is the group law
            ops.append(lambda: value * 2)
        for op in ops:
            with pytest.raises(TypeError):
                op()
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)

    @pytest.mark.parametrize("value", [REP, POLY, LAT, CLS])
    def test_equal_to_the_plain_tuple_and_pickled_twin(self, value):
        assert value == tuple(value) and hash(value) == hash(tuple(value))
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)

    def test_representation_keeps_its_word_once_per_instance(self, octagon_rep):
        r = Representation(*self.REP)
        assert "_relation" not in r.__dict__
        word = r._relation
        assert r._relation is word and r.__dict__["_relation"] is word
        twin = Representation(*self.REP)
        assert twin == r and twin._relation is not word and twin._relation == word
        # the kept word travels with a pickle
        assert pickle.loads(pickle.dumps(r)).__dict__ == {"_relation": word}
        # the product, the residual and toledo read two kept steps, no more
        r = Representation(*octagon_rep)
        relation_product(r)
        assert vars(r).keys() == {"_relation"}
        assert relation_residual(r) == min(r._relation[3:])
        assert vars(r).keys() == {"_relation"}
        result = toledo(r)
        assert vars(r).keys() == {"_relation", "_toledo"} and toledo(r) is result
