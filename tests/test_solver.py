import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fuchsian.halfplane import Mat2, rotation, scaling
from fuchsian.polygons import regular_polygon, side_pairings
from fuchsian.reps import Representation, relation_residual, toledo
from fuchsian.solver import (
    DidNotConverge,
    RepCoords,
    coords_from_rep,
    jacobian_rank,
    matrices_from_values,
    refine,
    relation_jacobian,
    rep_from_coords,
    residual,
    solve,
)
from oracles import fd_svd_rank


class TestCoordinates:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            RepCoords(2, np.zeros((3, 3)))

    def test_zero_coords_give_identity(self):
        M = matrices_from_values(np.zeros((1, 3)))[0]
        assert np.array_equal(M, np.eye(2))

    def test_parametrization_is_unimodular(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-2.0, 2.0, size=(40, 3))
        dets = np.linalg.det(matrices_from_values(vals))
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
        assert residual(np.zeros((4, 3))) == 0.0

    def test_octagon_coords_already_converged(self, octagon_rep):
        coords = coords_from_rep(octagon_rep)
        assert residual(coords) < 1e-14
        # refine returns immediately without touching the point
        out = refine(coords.values, max_iter=5)
        assert np.array_equal(out, coords.values)

    def test_positive_at_random_coords(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-1.0, 1.0, size=(4, 3))
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
                    residual((flat + e).reshape(4, 3)) - residual((flat - e).reshape(4, 3))
                ) / (2.0 * h)
            for _ in range(5):
                v = rng.normal(size=n)
                v /= np.linalg.norm(v)
                quot = (
                    residual((flat + h * v).reshape(4, 3))
                    - residual((flat - h * v).reshape(4, 3))
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
        coords = coords_from_rep(octagon_rep)
        J = relation_jacobian(coords.values)
        _, _, vt = np.linalg.svd(J)
        null_basis = vt[3:]
        rng = np.random.default_rng(42)
        for _ in range(5):
            w = rng.normal(size=null_basis.shape[0])
            step = (w @ null_basis).reshape(coords.values.shape)
            step *= 1e-3 / np.linalg.norm(step)
            retracted = refine(coords.values + step)
            rep = rep_from_coords(RepCoords(octagon_rep.genus, retracted))
            assert toledo(rep).value == base


def _try(genus, seed):
    try:
        solve(genus, seed=seed)
        return True
    except DidNotConverge:
        return False
