"""The four workloads.  README.md in this directory says why each exists.

A workload builds its inputs from the seed in `setup` and runs one op per
`op(i)` call.  `op` times only the calls into the package, then checks the
outputs against `gate`.  An op ends in one of three states:

- ok: it produced an answer and the answer is right;
- refused: the package declined with one of its documented errors
  (no convergence, relation violated, non-integral invariant; CLI exit 1-3
  with an `error` line) -- the known defects land here;
- failed: a wrong answer, any other exception, or any other exit code.
"""
from __future__ import annotations

import math
import os
import random
import resource
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
from fuchsian import polygons, repfile, reps, solver

REFUSALS = (solver.DidNotConverge, reps.RelationViolated, reps.NonIntegral)


@dataclass
class Outcome:
    status: str          # "ok" | "refused" | "failed"
    seconds: float       # time spent in the package (wall time of the child for cli)
    label: str           # genus or command, to list failures by op
    note: str = ""
    raw_gap: float = 0.0  # worst |raw - tau| among the op's invariants


def _worst_gap(*results) -> float:
    return max(abs(r.raw - r.value) for r in results)


class Workload:
    name = ""
    cycle = 1      # ops after which the sequence of input kinds repeats
    min_ops = 100  # measure past --seconds until this many ops: p90 has ten above it

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = None  # a tracer.Tracer during the traced phase
        self.child_warnings: Counter[str] = Counter()  # warning kinds seen in child stderr

    def _op_span(self):
        """The span of one op: exactly the region whose time the op reports."""
        return self.tracer.span("op") if self.tracer is not None else nullcontext()

    def setup(self) -> None:
        """Build inputs from the seed and warm up; repeatable."""

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def data(self) -> dict:
        """Extra result-file data that is not a metric."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _run(self, label: str, work, check) -> Outcome:
        t0 = perf_counter()
        try:
            with self._op_span():
                result = work()
        except REFUSALS as exc:
            return Outcome("refused", perf_counter() - t0, label, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # a crash in the package is a failed op, listed with its message
            note = "".join(traceback.format_exception_only(exc)).strip()
            return Outcome("failed", perf_counter() - t0, label, note)
        seconds = perf_counter() - t0
        note, gap = check(result)
        return Outcome("failed" if note else "ok", seconds, label, note or "", gap)


class Sweep(Workload):
    """N solves plus invariants: solve(g, seed), toledo, toledo of the reflection."""

    name = "sweep"
    GENERA = (2, 2, 2, 2, 2, 2, 3, 3, 3, 5)
    cycle = len(GENERA)

    def setup(self) -> None:
        self._seeds = random.Random(self.seed)
        for g in sorted(set(self.GENERA)):
            self._solve_op(g, seed=0)  # converges at g = 2, 3, 5

    def op(self, i: int) -> Outcome:
        return self._solve_op(self.GENERA[i % len(self.GENERA)], self._seeds.getrandbits(32))

    def _solve_op(self, g: int, seed: int) -> Outcome:
        def work():
            rep = solver.solve(g, seed=seed)
            tau = reps.toledo(rep)
            reflected = reps.reflect_conjugate(rep)
            return rep, tau, reflected, reps.toledo(reflected)

        def check(out):
            rep, tau, reflected, tau_r = out
            note = (
                gate.check_relation(rep)
                or gate.check_tau(tau.value, g)
                or gate.check_reflected_entries(rep, reflected)
                or gate.check_reflection(tau.value, tau_r.value)
            )
            return note, _worst_gap(tau, tau_r)

        return self._run(f"g={g} seed={seed}", work, check)


@dataclass(frozen=True)
class PoolEntry:
    text: str
    entries: list
    genus: int
    expected: "int | None"  # exact tau for polygon representations
    kind: str


class Invariants(Workload):
    """The read path: parse a rep file, check the relation, toledo on 5 branch vectors."""

    name = "invariants"
    SOLVES_PER_GENUS = 8
    POLYGON_GENERA = range(2, 31, 2)
    BRANCH_VECTORS = 4
    BRANCH_SPAN = 3

    def setup(self) -> None:
        rng = random.Random(self.seed)
        reps_: list[tuple[str, object, "int | None"]] = []
        for g in (2, 3):
            for _ in range(self.SOLVES_PER_GENUS):
                reps_.append(("solver", self._solve(g, rng), None))
        for g in self.POLYGON_GENERA:
            rep = polygons.side_pairings(polygons.regular_polygon(g))
            reps_.append(("polygon", rep, gate.polygon_tau(g, reflected=False)))
            reps_.append(("reflected", reps.reflect_conjugate(rep), gate.polygon_tau(g, reflected=True)))
        rng.shuffle(reps_)
        self.pool = [
            PoolEntry(repfile.format_rep(rep, meta=[kind]), gate.entries(rep), rep.genus, expected, kind)
            for kind, rep, expected in reps_
        ]
        self._branches = np.random.default_rng(self.seed)
        self.cycle = len(self.pool)

    @staticmethod
    def _solve(g: int, rng: random.Random):
        for _ in range(20):
            try:
                return solver.solve(g, seed=rng.getrandbits(32))
            except solver.DidNotConverge:
                continue  # the documented contract: reseed and retry
        raise RuntimeError(f"no solve converged at g={g} in 20 seeds")

    def op(self, i: int) -> Outcome:
        entry = self.pool[i % len(self.pool)]
        g = entry.genus
        vectors = self._branches.integers(
            -self.BRANCH_SPAN, self.BRANCH_SPAN + 1, size=(self.BRANCH_VECTORS, 2 * g)
        ).tolist()

        def work():
            rep, _ = repfile.parse_rep(entry.text)
            residual = reps.relation_residual(rep)
            principal = reps.toledo(rep)
            return rep, residual, principal, [reps.toledo(rep, branches=v) for v in vectors]

        def check(out):
            rep, residual, principal, branched = out
            note = (
                gate.check_same_entries(rep, entry.entries)
                or (None if residual <= gate.REL_TOL else f"relation residual {residual:.3e}")
                or gate.check_tau(principal.value, g, entry.expected)
                or gate.check_branches(principal.value, [t.value for t in branched])
            )
            return note, _worst_gap(principal, *branched)

        return self._run(f"{entry.kind} g={g}", work, check)


class GenusLadder(Workload):
    """The write path: fuchsian-gen plus dim-check, one genus per op, g = 2..48."""

    name = "genus_ladder"
    GENERA = range(2, 49)
    cycle = len(GENERA)

    def setup(self) -> None:
        self.offset = self.seed % len(self.GENERA)
        self.envelope: dict[int, dict] = {}
        for g in (2, 3):
            self._ladder_op(g)

    def op(self, i: int) -> Outcome:
        g = self.GENERA[(self.offset + i) % len(self.GENERA)]
        out, stage = self._ladder_op(g)
        if g not in self.envelope:
            self._record_envelope(g, out, stage)
        return out

    def _ladder_op(self, g: int):
        stage: dict = {}

        def work():
            rep = polygons.side_pairings(polygons.regular_polygon(g))
            stage["rep"] = rep
            stage["residual"] = reps.relation_residual(rep)
            tau = reps.toledo(rep)
            text = repfile.format_rep(rep, meta=[f"source fuchsian-gen genus {g}"])
            stage["rank"] = solver.jacobian_rank(rep)
            return rep, tau, text

        def check(out):
            rep, tau, text = out
            stage["raw_gap"] = abs(tau.raw - tau.value)
            note = gate.check_tau(tau.value, g, gate.polygon_tau(g, reflected=False)) or gate.check_rep_text(text, rep)
            return note, stage["raw_gap"]

        return self._run(f"g={g}", work, check), stage

    def _record_envelope(self, g: int, out: Outcome, stage: dict) -> None:
        raw_gap = stage.get("raw_gap")
        if raw_gap is None and "rep" in stage:
            try:  # the pipeline refused; read the raw value past the relation check
                tau = reps.toledo(stage["rep"], rel_tol=math.inf)
                raw_gap = abs(tau.raw - tau.value)
            except REFUSALS:
                pass
        self.envelope[g] = {
            "relation_residual": stage.get("residual"),
            "raw_gap": raw_gap,
            "jacobian_rank": stage.get("rank"),
            "status": out.status,
            "note": out.note,
        }

    def data(self) -> dict:
        return {"genus_envelope": {str(g): self.envelope[g] for g in sorted(self.envelope)}}


class Cli(Workload):
    """Cold `python -m fuchsian` children, one at a time, eight commands per round."""

    name = "cli"
    COMMANDS = ("fuchsian-gen", "toledo", "check-relation", "dim-check",
                "solve", "tile", "classify", "euclid-reduce")
    cycle = len(COMMANDS)
    min_ops = 200  # about 30 s: windows of 104 ops can then skip a stretch of outside load

    def __init__(self, seed: int, work_dir: Path, env: dict):
        super().__init__(seed, work_dir)
        self.env = env
        self._rng = random.Random(seed)
        self._round = -1

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self._child(["classify", "--matrix", "2,1,1,1"])

    def _child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "fuchsian", *argv],
            cwd=self.work_dir, env=self.env, capture_output=True, text=True, timeout=60,
        )

    def _new_round(self) -> None:
        r = self._rng
        self._params = {
            "solve_seed": r.getrandbits(16),
            "branch_seed": r.getrandbits(16),
            "matrix": r.choice(gate.CLASSIFY_MATRICES),
            "cell": (r.randint(-20, 20), r.randint(-20, 20), r.randint(0, 7) / 8, r.randint(0, 7) / 8),
        }

    def _argv(self, command: str) -> list[str]:
        p = self._params
        n, m, fx, fy = p["cell"]
        return {
            "fuchsian-gen": ["fuchsian-gen", "--genus", str(gate.CLI_GENUS), "--out", "gen.rep"],
            "toledo": ["toledo", "--in", "gen.rep", "--branches", "4", "--seed", str(p["branch_seed"])],
            "check-relation": ["check-relation", "--in", "gen.rep"],
            "dim-check": ["dim-check", "--in", "gen.rep"],
            "solve": ["solve", "--genus", "2", "--seed", str(p["solve_seed"]), "--out", "solve.rep"],
            "tile": ["tile", "--genus", str(gate.TILE_GENUS), "--depth", str(gate.TILE_DEPTH), "--out", "tile.svg"],
            # "--opt=value" keeps argparse from reading a leading minus as an option
            "classify": ["classify", "--matrix=" + ",".join(repr(x) for x in p["matrix"])],
            "euclid-reduce": ["euclid-reduce", "--a", "1,0", "--b", "0,1", f"--p={n + fx!r},{m + fy!r}"],
        }[command]

    def _check(self, command: str, kv: dict[str, str]) -> "tuple[str | None, float]":
        p = self._params
        g = gate.CLI_GENUS
        tau = str(gate.polygon_tau(g, reflected=False))
        if command == "fuchsian-gen":
            return gate.expect(kv, toledo=tau, out="gen.rep") or gate.expect_small(kv, "relation_residual"), 0.0
        if command == "toledo":
            note = gate.expect(kv, value=tau, branch_independent="true", psl_only="false")
            gap = abs(float(kv.get("raw", "nan")) - int(tau))
            return note or (None if gap <= 1e-6 else f"raw gap {gap:.3e}"), gap
        if command == "check-relation":
            return gate.expect_small(kv, "residual"), 0.0
        if command == "dim-check":
            return gate.expect(kv, rank="3", dim_variety=str(6 * g - 3), dim_moduli=str(6 * g - 6)), 0.0
        if command == "solve":
            return gate.expect(kv, converged="true", out="solve.rep") or gate.expect_small(kv, "relation_residual"), 0.0
        if command == "tile":
            paths = (self.work_dir / "tile.svg").read_text().count("<path")
            note = gate.expect(kv, tiles=str(gate.TILES), out="tile.svg")
            return note or (None if paths == gate.TILES else f"svg has {paths} paths"), 0.0
        if command == "classify":
            return gate.expect(kv, **{"class": gate.trace_class(p["matrix"])}), 0.0
        n, m, fx, fy = p["cell"]
        reduced = tuple(float(x) for x in kv.get("reduced", "nan nan").split())
        note = gate.expect(kv, n=str(n), m=str(m))
        return note or (None if reduced == (fx, fy) else f"reduced {reduced} != {(fx, fy)}"), 0.0

    def op(self, i: int) -> Outcome:
        command = self.COMMANDS[i % len(self.COMMANDS)]
        if i // len(self.COMMANDS) != self._round:
            self._round = i // len(self.COMMANDS)
            self._new_round()
        argv = self._argv(command)
        label = " ".join(argv)
        t0 = perf_counter()
        try:
            with self._op_span():
                proc = self._child(argv)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return Outcome("failed", perf_counter() - t0, label, "child timed out")
        seconds = perf_counter() - t0
        for key in ("RuntimeWarning", "unusually large"):
            self.child_warnings[key] += proc.stderr.count(key)
        if proc.returncode in (1, 2, 3) and "Traceback" not in proc.stderr and "error " in proc.stderr:
            return Outcome("refused", seconds, label, proc.stderr.strip().splitlines()[-1])
        if proc.returncode != 0:
            return Outcome("failed", seconds, label, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        try:
            note, gap = self._check(command, gate.parse_kv(proc.stdout))
        except (ValueError, OSError) as exc:
            note, gap = f"unreadable output: {exc}", 0.0
        return Outcome("failed" if note else "ok", seconds, label, note or "", gap)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (Sweep, Invariants, GenusLadder, Cli)}


def make(name: str, seed: int, work_dir: Path, env: "dict | None" = None) -> Workload:
    if name == "cli":
        return Cli(seed, work_dir, env if env is not None else dict(os.environ))
    return WORKLOADS[name](seed, work_dir)
