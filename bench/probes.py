"""Per-layer probes on fixed inputs, timed with tracing off.

They give the layer costs by genus and depth that no single workload covers
(the ROADMAP's layer table), so every traced run reports the same set.  The
inputs do not depend on the workload seed.
"""
from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import gate
from fuchsian import cli, euclidean, polygons, reps, solver, tiling

REPEATS = 5
SOLVE_SEEDS = {2: 30, 3: 30, 5: 40}
GENUS_SCAN_CAP = 100
CLI_PROBE_ARGV = {
    "fuchsian-gen": ["fuchsian-gen", "--genus", "3", "--out", "gen.rep"],
    "toledo": ["toledo", "--in", "gen.rep", "--branches", "4"],
    "check-relation": ["check-relation", "--in", "gen.rep"],
    "dim-check": ["dim-check", "--in", "gen.rep"],
    "solve": ["solve", "--genus", "2", "--out", "solve.rep"],
    "tile": ["tile", "--genus", "2", "--depth", "3", "--out", "tile.svg"],
    "classify": ["classify", "--matrix", "2,1,1,1"],
    "euclid-reduce": ["euclid-reduce", "--a", "1,0", "--b", "0,1", "--p", "2.5,-1.25"],
}


def per_call(fn, number: int = 1, repeats: int = REPEATS) -> float:
    """Median over `repeats` of the mean seconds per call across `number` calls."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - t0) / number)
    return statistics.median(samples)


class _Reps(dict):
    def __missing__(self, g: int):
        self[g] = polygons.side_pairings(polygons.regular_polygon(g))
        return self[g]


def _genus_scan(polys: _Reps) -> tuple[int, int]:
    """Largest G with the fuchsian-gen pipeline valid for every g <= G, and
    largest G with jacobian_rank = 3 (the smooth-point rank) for every g <= G."""
    valid = rank3 = 1
    for g in range(2, GENUS_SCAN_CAP + 1):
        if valid == g - 1:
            try:
                ok = reps.toledo(polys[g]).value == gate.polygon_tau(g, reflected=False)
            except reps.RelationViolated:
                ok = False
            valid = g if ok else valid
        if rank3 == g - 1 and solver.jacobian_rank(polys[g]) == 3:
            rank3 = g
        if valid < g and rank3 < g:
            break
    return valid, rank3


def _solver_probe(m: dict) -> None:
    counts = {"relation_jacobian": 0, "residual": 0}
    originals = {name: getattr(solver, name) for name in counts}

    def counted(name):
        fn = originals[name]

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    solves = 0
    try:
        for name in counts:
            setattr(solver, name, counted(name))
        for g, n in SOLVE_SEEDS.items():
            times, converged = [], 0
            for seed in range(n):
                t0 = perf_counter()
                try:
                    solver.solve(g, seed=seed)
                    converged += 1
                except solver.DidNotConverge:
                    pass
                times.append(perf_counter() - t0)
            solves += n
            m[f"solver.solve_ms_g{g}"] = statistics.median(times) * 1e3
            m[f"solver.converged_share_g{g}"] = converged / n
    finally:
        for name, fn in originals.items():
            setattr(solver, name, fn)
    m["solver.iterations_per_solve"] = counts["relation_jacobian"] / solves
    m["solver.step_accept_ratio"] = counts["relation_jacobian"] / counts["residual"]


def _cli_probes(m: dict, env: dict, work_root: Path) -> None:
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import fuchsian.cli"], env=env, check=True, timeout=60)
        samples.append(perf_counter() - t0)
    m["cli.import_ms"] = statistics.median(samples) * 1e3
    with tempfile.TemporaryDirectory(dir=work_root) as tmp, contextlib.chdir(tmp):
        sink = io.StringIO()
        for command, argv in CLI_PROBE_ARGV.items():
            def call():
                sink.seek(0)
                sink.truncate()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    cli.run(argv)
            m[f"cli.run_ms_{command}"] = per_call(call, repeats=3) * 1e3


def run_probes(env: dict, work_root: Path) -> dict[str, float]:
    m: dict[str, float] = {}
    polys = _Reps()
    for g in (2, 3, 10, 30):
        m[f"reps.toledo_us_g{g}"] = per_call(lambda: reps.toledo(polys[g]), number=3) * 1e6
    for g in (2, 30):
        m[f"reps.relation_residual_us_g{g}"] = per_call(lambda: reps.relation_residual(polys[g]), number=5) * 1e6
        m[f"solver.jacobian_rank_ms_g{g}"] = per_call(lambda: solver.jacobian_rank(polys[g]), number=3) * 1e3
        poly = polygons.regular_polygon(g)
        m[f"polygons.side_pairings_ms_g{g}"] = per_call(lambda: polygons.side_pairings(poly), number=3) * 1e3
    for g in (2, 10, 30):
        m[f"polygons.regular_polygon_ms_g{g}"] = per_call(lambda: polygons.regular_polygon(g)) * 1e3
    for g in (30, 40):
        m[f"polygons.relation_residual_g{g}"] = reps.relation_residual(polys[g])
    m["polygons.max_valid_genus"], m["solver.max_rank3_genus"] = _genus_scan(polys)
    _solver_probe(m)

    poly2 = polygons.regular_polygon(2)
    m["tiling.orbit_matrices_ms_d3"] = per_call(lambda: tiling.orbit_matrices(polys[2], 3), repeats=3) * 1e3
    m["tiling.render_tiling_ms_d3"] = per_call(lambda: tiling.render_tiling(poly2, polys[2], 3), repeats=3) * 1e3
    m["tiling.tiles_d3"] = tiling.render_tiling(poly2, polys[2], 3).count("<path")

    lattice = euclidean.LatticeGroup((1.0, 0.2), (0.3, 1.1))
    m["euclidean.reduce_point_us"] = per_call(lambda: euclidean.reduce_point(lattice, (7.25, -3.5)), number=200) * 1e6

    _cli_probes(m, env, work_root)
    return m
