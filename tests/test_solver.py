import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from fuchsian import solver
from fuchsian.halfplane import Mat2, rotation, scaling
from fuchsian.polygons import regular_polygon, side_pairings
from fuchsian.reps import Representation, reflect_conjugate, relation_residual, toledo
from fuchsian.solver import (
    DidNotConverge,
    _damped_step,
    _gram,
    _matrix,
    _start,
    coords_from_rep,
    jacobian_rank,
    refine,
    relation_gap,
    relation_jacobian,
    rep_from_coords,
    residual,
    solve,
)
from oracles import fd_relation_jacobian, fd_svd_rank, product_rule_jacobian


class TestCoordinates:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            rep_from_coords([(0.0, 0.0, 0.0)] * 3)

    def test_zero_coords_give_identity(self):
        assert _matrix(0.0, 0.0, 0.0) == (1.0, 0.0, 0.0, 1.0)

    def test_parametrization_is_unimodular(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-2.0, 2.0, size=(40, 3))
        dets = np.linalg.det(np.array([_matrix(*row) for row in vals.tolist()]).reshape(-1, 2, 2))
        assert np.max(np.abs(dets - 1.0)) < 1e-12

    def test_round_trip_through_representation(self, octagon_rep):
        coords = coords_from_rep(octagon_rep)
        back = rep_from_coords(coords)
        for M, N in zip(
            (*octagon_rep.gens_a, *octagon_rep.gens_b), (*back.gens_a, *back.gens_b)
        ):
            assert max(abs(M.a - N.a), abs(M.b - N.b), abs(M.c - N.c), abs(M.d - N.d)) < 1e-14


class TestResidual:
    def test_zero_at_identity_coords(self):
        assert residual([(0.0, 0.0, 0.0)] * 4) == 0.0

    def test_octagon_coords_already_converged(self, octagon_rep):
        coords = coords_from_rep(octagon_rep)
        assert residual(coords) < 1e-14
        # refine returns immediately without touching the point
        out = refine(coords, max_iter=5)
        assert out == coords

    def test_positive_at_random_coords(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-1.0, 1.0, size=(4, 3)).tolist()
        r = residual(vals)
        assert math.isfinite(r) and r > 0.0

    def test_gradient_self_consistency(self):
        # assembled central-difference gradient vs directional quotients
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(5):
            vals = rng.uniform(-1.0, 1.0, size=(4, 3))
            n = vals.size
            grad = np.empty(n)
            flat = vals.reshape(n)
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                grad[k] = (
                    residual((flat + e).reshape(4, 3).tolist())
                    - residual((flat - e).reshape(4, 3).tolist())
                ) / (2.0 * h)
            for _ in range(5):
                v = rng.normal(size=n)
                v /= np.linalg.norm(v)
                quot = (
                    residual((flat + h * v).reshape(4, 3).tolist())
                    - residual((flat - h * v).reshape(4, 3).tolist())
                ) / (2.0 * h)
                assert abs(grad @ v - quot) < 1e-4 * max(1.0, abs(quot))


BASELINE = json.loads((Path(__file__).parent / "solver_baseline.json").read_text())


class TestSolve:
    def test_genus_one_success_rate(self):
        # recorded first-build rate lives in solver_baseline.json; small slack
        # for platform-to-platform numerics
        ok = sum(1 for s in range(100) if _try(1, s))
        assert ok > 90
        assert ok / 100 >= BASELINE["genus1_success_rate"] - 0.05

    def test_genus_two_solutions_validate(self):
        for seed in range(10):
            r = solve(2, seed=seed)
            assert relation_residual(r) <= 1e-6

    def test_nonconvergence_raises(self):
        with pytest.raises(DidNotConverge):
            solve(2, seed=0, max_iter=0)

    def test_stall_is_named_with_the_iterations_run(self):
        # seed 64734 finds no damped step below residual 6.8 at iteration 1
        with pytest.raises(DidNotConverge, match=r"^stalled: residual 6\.818e\+00 after 2 iterations"):
            solve(2, seed=64734)

    def test_iteration_limit_is_named(self):
        with pytest.raises(DidNotConverge, match=r"^max_iter: .* after 3 iterations"):
            solve(2, seed=0, max_iter=3)

    def test_genus_validated(self):
        with pytest.raises(ValueError):
            solve(0)

    @pytest.mark.parametrize("rows", [
        [(0.1, 0.2, 0.3), (0.5, -0.2, 0.1), (0.3, 0.3, 0.3)],
        [(0.0, 0.0, 0.0)] * 5,  # already meets tol
    ])
    def test_refine_rejects_odd_row_count(self, rows):
        with pytest.raises(ValueError, match="coordinate rows"):
            refine(rows)

    def test_overflowing_trials_are_counted_not_leaked(self, capsys):
        # seed 2 at genus 5 tries steps whose residual overflows to inf/NaN
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = solve(5, seed=2, verbose=True)
        assert relation_residual(r) <= 1e-6
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == "nonfinite_trials 3"

    def test_verbose_trace_goes_to_stderr(self, capsys):
        solve(1, seed=3, verbose=True)
        captured = capsys.readouterr()
        assert "residual" in captured.err
        assert captured.out == ""


class TestStartDraw:
    # numpy stays the oracle: the start is default_rng(seed).uniform(-1, 1)
    EDGE_SEEDS = [2**32 - 1, 2**32, 2**64 + 7, 64734, 2**200 - 1]

    @staticmethod
    def _numpy_start(genus, seed):
        return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2 * genus, 3)).tolist()

    @pytest.mark.parametrize("genus", [1, 2, 5])
    def test_matches_numpy_bit_for_bit(self, genus):
        seeds = list(range(2000)) + self.EDGE_SEEDS + [random.Random(genus).getrandbits(200)]
        mismatched = [s for s in seeds if _start(genus, s) != self._numpy_start(genus, s)]
        assert mismatched == []

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            _start(2, -1)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            solve(2, seed=-1)

    def test_seed_must_be_an_integer(self):
        with pytest.raises(TypeError):
            _start(2, 1.5)


def abelian_rep(genus, make):
    # generators from one one-parameter family commute with each other
    mats = [make(0.3 + 0.2 * k) for k in range(2 * genus)]
    return Representation(genus, tuple(mats[0::2]), tuple(mats[1::2]))


ABELIAN = {
    "diagonal": lambda t: scaling(math.exp(t)),
    "rotation": rotation,
    "parabolic": lambda t: Mat2(1.0, t, 0.0, 1.0),
}


class TestJacobianRank:
    def test_octagon_rank_three(self, octagon_rep):
        assert jacobian_rank(octagon_rep) == 3

    def test_trivial_rep_rank_zero(self):
        assert jacobian_rank(Representation.trivial(2)) == 0

    def test_plus_minus_identity_rank_zero(self):
        eye, neg = Mat2.identity(), -Mat2.identity()
        r = Representation(2, (neg, eye), (eye, neg))
        assert jacobian_rank(r) == 0
        assert fd_svd_rank(r) == 0

    @pytest.mark.parametrize("kind", sorted(ABELIAN))
    def test_abelian_rank_two(self, kind):
        for genus in (1, 2, 3):
            r = abelian_rep(genus, ABELIAN[kind])
            assert jacobian_rank(r) == 2
            assert fd_svd_rank(r) == 2

    def test_polygon_reps_rank_three(self):
        bad = [g for g in range(2, 101) if jacobian_rank(side_pairings(regular_polygon(g))) != 3]
        assert bad == []

    def test_agrees_with_fd_oracle_on_solves(self):
        for genus in (2, 3):
            reps = []
            seed = 100
            while len(reps) < 20:
                try:
                    reps.append(solve(genus, seed=seed))
                except DidNotConverge:
                    pass
                seed += 1
            assert [jacobian_rank(r) for r in reps] == [fd_svd_rank(r) for r in reps]

    def test_agrees_with_fd_oracle_on_polygons(self):
        # beyond g = 16 the oracle's relative cutoff misreads rank 3 as 2
        for g in range(2, 17):
            r = side_pairings(regular_polygon(g))
            assert jacobian_rank(r) == fd_svd_rank(r) == 3

    def test_random_solutions_mostly_rank_three(self):
        ranks = [jacobian_rank(solve(2, seed=100 + s)) for s in range(20)]
        assert sum(r == 3 for r in ranks) >= 19


class TestLocalConstancy:
    def test_invariant_survives_on_variety_perturbation(self, octagon_rep):
        # step along the numerical tangent space, retract, re-read tau
        base = toledo(octagon_rep).value
        coords = np.array(coords_from_rep(octagon_rep))
        _, cols = relation_jacobian(coords.tolist())
        _, _, vt = np.linalg.svd(np.array(cols).T)
        null_basis = vt[3:]
        rng = np.random.default_rng(42)
        for _ in range(5):
            w = rng.normal(size=null_basis.shape[0])
            step = (w @ null_basis).reshape(coords.shape)
            step *= 1e-3 / np.linalg.norm(step)
            retracted = refine((coords + step).tolist())
            rep = rep_from_coords(retracted)
            assert toledo(rep).value == base


def _try(genus, seed):
    try:
        solve(genus, seed=seed)
        return True
    except DidNotConverge:
        return False


def _random_vals(genus, rng):
    return rng.uniform(-1.0, 1.0, size=(2 * genus, 3)).tolist()


def _jacobian(vals):
    # the exact Jacobian columns as a (3, 6g) array
    return np.array(relation_jacobian(vals)[1]).T


def kv_lines(text):
    return dict(line.split(" ", 1) for line in text.strip().splitlines())


class TestExactJacobian:
    @pytest.mark.parametrize("genus", [1, 2, 3, 5])
    def test_matches_fd_oracle_at_random_points(self, genus):
        rng = np.random.default_rng(70 + genus)
        for _ in range(5):
            vals = _random_vals(genus, rng)
            J = _jacobian(vals)
            assert J.shape == (3, 6 * genus)
            err = np.max(np.abs(J - fd_relation_jacobian(vals)))
            assert err <= 1e-6 * max(1.0, np.linalg.norm(J))

    @pytest.mark.parametrize("genus", [2, 3])
    def test_matches_fd_oracle_on_polygons(self, genus):
        vals = coords_from_rep(side_pairings(regular_polygon(genus)))
        J = _jacobian(vals)
        err = np.max(np.abs(J - fd_relation_jacobian(vals)))
        assert err <= 1e-6 * max(1.0, np.linalg.norm(J))

    @pytest.mark.parametrize("genus", [1, 2, 3, 5, 10])
    def test_matches_product_rule_oracle_at_random_points(self, genus):
        # closed-form sl(2,R) columns against six sandwiches per generator
        # (measured worst 7.2e-16 of the largest entry over 500 points)
        rng = np.random.default_rng(90 + genus)
        for _ in range(40):
            vals = _random_vals(genus, rng)
            ref = product_rule_jacobian(vals)
            assert np.max(np.abs(_jacobian(vals) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("genus", [2, 3, 5, 10])
    def test_matches_product_rule_oracle_on_polygons(self, genus):
        # measured 2.4e-16, 5.3e-16, 1.4e-15 and 8.0e-15 of the largest entry
        vals = coords_from_rep(side_pairings(regular_polygon(genus)))
        ref = product_rule_jacobian(vals)
        assert np.max(np.abs(_jacobian(vals) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_gap_comes_from_the_same_pass(self):
        vals = _random_vals(2, np.random.default_rng(8))
        gap, cols = relation_jacobian(vals)
        assert gap == relation_gap(vals)
        assert len(cols) == 12
        # the residual adds the dependent entry (P11 - 1)^2 to the gap's squares
        word = []
        assert residual(vals, word) >= sum(x * x for x in gap)
        # the Jacobian on residual's kept word is the Jacobian of a fresh pass
        assert relation_jacobian(vals, word) == (gap, cols)

    def test_one_word_pass_per_trial(self, monkeypatch, capsys):
        # one pass for the start and one per evaluated trial; the Jacobian
        # reads the accepted trial's word and makes none of its own
        evaluate, jacobian = solver._evaluate, solver.relation_jacobian
        passes, jacobian_passes = [], []

        def counted(rows):
            passes.append(1)
            return evaluate(rows)

        def watched(rows, word):
            before = len(passes)
            out = jacobian(rows, word)
            jacobian_passes.append(len(passes) - before)
            return out

        monkeypatch.setattr(solver, "_evaluate", counted)
        monkeypatch.setattr(solver, "relation_jacobian", watched)
        solve(2, seed=7, verbose=True)
        summary = kv_lines("\n".join(capsys.readouterr().err.strip().splitlines()[-5:]))
        trials = int(summary["accepted_steps"]) + int(summary["rejected_steps"])
        assert int(summary["rejected_steps"]) > 0  # the seed takes damped retries
        assert len(passes) == 1 + trials
        assert jacobian_passes == [0] * int(summary["iterations"])


class TestDampedStep:
    # delta = -J^T (J J^T + lam I)^-1 gap must be the step of the 6g x 6g
    # damped normal equations (J^T J + lam I) delta = -J^T gap
    @pytest.mark.parametrize("lam", [1e-14, 1e-3, 1e3])
    @pytest.mark.parametrize("genus", [1, 2, 3, 5])
    def test_solves_the_full_normal_equations(self, genus, lam):
        rng = np.random.default_rng(90 + genus)
        for _ in range(3):
            vals = _random_vals(genus, rng)
            gap, cols = relation_jacobian(vals)
            delta = np.array(_damped_step(_gram(cols), cols, gap, lam))
            J, g = np.array(cols).T, np.array(gap)
            K = J.T @ J + lam * np.eye(J.shape[1])
            # backward error of the 6g x 6g system
            res = np.linalg.norm(K @ delta + J.T @ g)
            assert res <= 1e-10 * (np.linalg.norm(K, 2) * np.linalg.norm(delta) + np.linalg.norm(J.T @ g))
            # forward error against the same solution through the SVD of J,
            # -V diag(sigma / (sigma^2 + lam)) U^T gap, which stays accurate
            # where K itself has condition number near 1e16 (lam = 1e-14)
            U, sigma, Vt = np.linalg.svd(J, full_matrices=False)
            ref = -(Vt.T @ (sigma / (sigma * sigma + lam) * (U.T @ g)))
            assert np.linalg.norm(delta - ref) <= 1e-10 * np.linalg.norm(ref)
            if lam >= 1.0:  # K is well conditioned, so LU on it is a sound reference
                ref = np.linalg.solve(K, -J.T @ g)
                assert np.linalg.norm(delta - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_non_finite_system_is_refused(self):
        cols = [(math.inf, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        assert _damped_step(_gram(cols), cols, (1.0, 1.0, 1.0), 1e-3) is None
        cols = [(math.nan, 0.0, 0.0)] * 3
        assert _damped_step(_gram(cols), cols, (1.0, 1.0, 1.0), 1e-3) is None
        # a singular Gram matrix, whose third pivot is 0 at lam = 0
        assert _damped_step((1.0, 0.0, 1.0, 1.0, 0.0, 1.0), cols, (1.0, 1.0, 1.0), 0.0) is None
        # a finite system with an infinite gap
        cols = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        assert _damped_step(_gram(cols), cols, (math.inf, 0.0, 0.0), 1e-3) is None


class TestOverflow:
    @pytest.mark.parametrize("s", [800.0, -800.0, 300.0])
    def test_residual_is_inf_not_raised(self, s):
        # e^s overflows (800), underflows to 0 (-800), or the product does (300)
        assert residual([(0.0, s, 0.0), (0.4, 0.1, 0.2)]) == math.inf

    def test_overflowing_trial_is_counted_not_raised(self, monkeypatch, capsys):
        # a gap scaled by 1e6 at the first iteration sends the first trial
        # steps to s of order 1e5, where math.exp overflows; refine calls
        # relation_jacobian once per iteration with the kept word
        exact = solver.relation_jacobian
        calls = []

        def scaled_first_gap(rows, word):
            gap, cols = exact(rows, word)
            if not calls:
                gap = tuple(1e6 * x for x in gap)
            calls.append(1)
            return gap, cols

        monkeypatch.setattr(solver, "relation_jacobian", scaled_first_gap)
        r = solve(2, seed=1, verbose=True)
        assert relation_residual(r) <= 1e-6
        summary = kv_lines(capsys.readouterr().err)
        assert int(summary["nonfinite_trials"]) > 0
        assert int(summary["rejected_steps"]) >= int(summary["nonfinite_trials"])

    def test_non_finite_start_stalls(self):
        with pytest.raises(DidNotConverge, match=r"^stalled: residual inf after 0 iterations"):
            refine([(0.0, 800.0, 0.0), (0.5, 0.0, 0.0)])


class TestVerboseSummary:
    KEYS = ["stop", "iterations", "accepted_steps", "rejected_steps", "nonfinite_trials"]

    def summary(self, capsys, **kwargs):
        try:
            solve(**kwargs, verbose=True)
        except DidNotConverge:
            pass
        captured = capsys.readouterr()
        assert captured.out == ""
        tail = captured.err.strip().splitlines()[-5:]
        assert [line.split(" ")[0] for line in tail] == self.KEYS
        return kv_lines("\n".join(tail))

    def test_converged(self, capsys):
        s = self.summary(capsys, genus=2, seed=5)
        assert s["stop"] == "converged"
        assert s["accepted_steps"] == s["iterations"]

    def test_stalled(self, capsys):
        s = self.summary(capsys, genus=2, seed=64734)
        assert s["stop"] == "stalled"
        assert s["iterations"] == "2"
        assert int(s["accepted_steps"]) == 1

    def test_max_iter(self, capsys):
        s = self.summary(capsys, genus=2, seed=0, max_iter=3)
        assert s["stop"] == "max_iter"
        assert (s["iterations"], s["accepted_steps"]) == ("3", "3")


class TestConvergenceSet:
    # Every seed in these ranges converges except the recorded ones, which
    # stop with the recorded kind; the product-rule Jacobian (tests/oracles.py)
    # gave the same set.  Stalled iteration counts are not pinned: they move
    # with the last bits of the columns.
    SEEDS = {2: 200, 3: 100, 5: 100}
    FAILURES = {
        (2, 174): "stalled", (3, 46): "stalled", (5, 12): "stalled", (5, 26): "stalled",
        (5, 34): "stalled", (5, 37): "stalled", (5, 59): "stalled", (5, 60): "stalled",
        (5, 71): "stalled", (5, 72): "stalled", (5, 73): "stalled", (5, 75): "stalled",
        (5, 77): "stalled", (5, 83): "stalled", (5, 90): "stalled",
    }

    @pytest.mark.parametrize("genus", sorted(SEEDS))
    def test_converging_seeds_and_stop_kinds(self, genus):
        failures = {}
        for seed in range(self.SEEDS[genus]):
            try:
                r = solve(genus, seed=seed)
            except DidNotConverge as exc:
                failures[(genus, seed)] = str(exc).split(":")[0]
                continue
            # each converged point gives an even tau within Milnor-Wood,
            # and its reflection the negated one
            tau = toledo(r).value
            assert tau % 2 == 0 and abs(tau) <= 2 * genus - 2
            assert toledo(reflect_conjugate(r)).value == -tau
        assert failures == {k: v for k, v in self.FAILURES.items() if k[0] == genus}

    def test_iteration_limit_seed(self):
        # genus 10, seed 117 is still descending when 500 iterations run out
        with pytest.raises(DidNotConverge, match=r"^max_iter: .* after 500 iterations"):
            solve(10, seed=117)
