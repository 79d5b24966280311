"""Benchmark of the fuchsian package: four workloads, end-to-end and per layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from src/.  With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the per-layer
metrics (a traced phase, an untraced phase for comparison, and the fixed-input
probes).  The last line of stdout is one JSON object; the full result, with the
environment, every failed or refused op and the genus envelope, goes to
.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json.  See README.md here.
"""
from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy loads, and inherited by every child
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
import warnings
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "invariants", "genus_ladder", "cli")
WINDOW_OPS = 100       # per window, so p90 has at least ten samples above it
WINDOWS = 10           # time metrics take the best of about this many windows
SETUP_REPEATS = 3      # set-ups before the measured loop, and as many after it;
                       # setup_s is their median, so one moment of outside load does not decide it
HARD_LIMIT_S = 150.0   # stop measuring here even short of the op floor
FAILURES_KEPT = 1000   # failed or refused ops listed in the result file

END_TO_END = {
    "setup_s": "s",
    "ok_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
LAYERS = ("halfplane", "cover", "reps", "solver", "polygons", "repfile")
PER_LAYER = {
    "halfplane.matmul_calls": "1/op",
    "halfplane.matmul_us": "us",
    "halfplane.mobius_act_calls": "1/op",
    "halfplane.mobius_act_us": "us",
    "cover.lift_calls": "1/op",
    "cover.lift_us": "us",
    "cover.cover_mul_calls": "1/op",
    "cover.cover_mul_us": "us",
    "cover.cover_inv_us": "us",
    **{f"reps.toledo_us_g{g}": "us" for g in (2, 3, 10, 30)},
    **{f"reps.relation_residual_us_g{g}": "us" for g in (2, 30)},
    "reps.toledo_share": "share",
    "reps.raw_residual_max": "1",
    "reps.residual_warnings": "1/op",
    **{f"solver.solve_ms_g{g}": "ms" for g in (2, 3, 5)},
    "solver.iterations_per_solve": "1/solve",
    "solver.step_accept_ratio": "ratio",
    **{f"solver.converged_share_g{g}": "share" for g in (2, 3, 5)},
    "solver.nonfinite_warnings": "1/op",
    **{f"solver.jacobian_rank_ms_g{g}": "ms" for g in (2, 30)},
    "solver.max_rank3_genus": "genus",
    **{f"polygons.regular_polygon_ms_g{g}": "ms" for g in (2, 10, 30)},
    **{f"polygons.side_pairings_ms_g{g}": "ms" for g in (2, 30)},
    **{f"polygons.relation_residual_g{g}": "1" for g in (30, 40)},
    "polygons.max_valid_genus": "genus",
    "repfile.parse_us": "us",
    "repfile.format_us": "us",
    "tiling.orbit_matrices_ms_d3": "ms",
    "tiling.render_tiling_ms_d3": "ms",
    "tiling.tiles_d3": "count",
    "euclidean.reduce_point_us": "us",
    "cli.import_ms": "ms",
    **{f"cli.run_ms_{c}": "ms" for c in ("fuchsian-gen", "toledo", "check-relation", "dim-check",
                                         "solve", "tile", "classify", "euclid-reduce")},
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    "trace.overhead_share": "share",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_package():
    """Import fuchsian from this tree's src/ and nowhere else."""
    init = ROOT / "src" / "fuchsian" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no package source at {init.parent}; run from a full source tree")
    sys.path.insert(0, str(ROOT / "src"))
    import fuchsian

    if Path(fuchsian.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported fuchsian from {fuchsian.__file__}, not {init}")


class WarningTally:
    """Counts every warning raised while active; shows the first of each kind.

    Nothing is silenced: the filter is set to "always" so each occurrence is
    counted, and each distinct message still reaches stderr once.
    """

    def __init__(self) -> None:
        self.counts: Counter[tuple[str, str]] = Counter()

    def __enter__(self):
        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("always")
        self._show = warnings.showwarning
        warnings.showwarning = self._record
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)

    def _record(self, message, category, filename, lineno, file=None, line=None):
        text = str(message)
        key = (category.__name__, text if "unusually large" not in text else "unusually large residual")
        self.counts[key] += 1
        if self.counts[key] == 1:
            self._show(message, category, filename, lineno, file, line)

    def nonfinite(self) -> int:
        return sum(n for (cat, _), n in self.counts.items() if cat == "RuntimeWarning")

    def large_residual(self) -> int:
        return sum(n for (_, text), n in self.counts.items() if text == "unusually large residual")


class Phase:
    """Per-op times and states of one measured loop, kept in flat arrays so
    that peak RSS barely depends on the op count."""

    def __init__(self) -> None:
        self.seconds = array("d")  # time of each op
        self.ends = array("d")     # seconds from the phase start at which each op ended
        self.ok = bytearray()      # 1 where the op was ok
        self.not_ok: list = []     # (op index, Outcome) of refused and failed ops
        self.raw_gap = 0.0         # worst |raw - tau| over the phase

    def add(self, i: int, outcome, end: float) -> None:
        self.seconds.append(outcome.seconds)
        self.ends.append(end)
        self.ok.append(outcome.status == "ok")
        if outcome.status != "ok":
            self.not_ok.append((i, outcome))
        self.raw_gap = max(self.raw_gap, outcome.raw_gap)


def measure(workload, seconds: float, min_ops: int, first_op: int) -> Phase:
    """Closed loop: the next op starts when the previous one has finished."""
    phase = Phase()
    t0 = perf_counter()
    i = first_op
    while True:
        outcome = workload.op(i)
        elapsed = perf_counter() - t0
        phase.add(i, outcome, elapsed)
        i += 1
        if (elapsed >= seconds and len(phase.seconds) >= min_ops) or elapsed >= HARD_LIMIT_S:
            return phase


def windows(phase: Phase, cycle: int) -> list:
    """(ok rate, op times) of windows of whole input cycles and at least
    WINDOW_OPS ops, about a tenth of the run long, starting every tenth of a
    window."""
    n = len(phase.seconds)
    size = cycle * math.ceil(max(WINDOW_OPS, n / WINDOWS) / cycle)
    step = cycle * max(1, round(size / WINDOWS / cycle))
    spans = [(0, n)] if n <= size else [(lo, lo + size) for lo in range(0, n - size + 1, step)]
    out = []
    for lo, hi in spans:
        wall = phase.ends[hi - 1] - (phase.ends[lo - 1] if lo else 0.0)
        out.append((sum(phase.ok[lo:hi]) / wall, phase.seconds[lo:hi]))
    return out


def best_rate(phase: Phase, cycle: int) -> float:
    return max(rate for rate, _ in windows(phase, cycle))


def end_to_end(phase: Phase, setup_times: list, workload) -> dict:
    """Time metrics are the best window of the run, like the best of k repeats.

    Load from outside the process (the machine is shared) slows stretches of
    a run by up to a half; the best window is the one it spared.
    """
    per_window = windows(phase, workload.cycle)
    deciles = [statistics.quantiles(times, n=10) for _, times in per_window]
    return {
        "setup_s": statistics.median(setup_times),
        "ok_ops_per_s": max(rate for rate, _ in per_window),
        "op_p50_ms": min(q[4] for q in deciles) * 1e3,
        "op_p90_ms": min(q[8] for q in deciles) * 1e3,
        "ok_share": sum(phase.ok) / len(phase.ok),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def layer_metrics(summary: dict, traced: Phase, untraced: Phase, cycle: int,
                  warn: dict, probes: dict) -> dict:
    n_ops = len(traced.seconds)
    attempted = n_ops + len(untraced.seconds)
    op_time = summary["op"]["incl_s"]

    def calls(name):
        return summary.get(name, {"calls": 0})["calls"] / n_ops

    def self_us(name):
        s = summary.get(name)
        return s["self_s"] / s["calls"] * 1e6 if s and s["calls"] else 0.0

    m = {
        "halfplane.matmul_calls": calls("halfplane.matmul"),
        "halfplane.matmul_us": self_us("halfplane.matmul"),
        "halfplane.mobius_act_calls": calls("halfplane.mobius_act"),
        "halfplane.mobius_act_us": self_us("halfplane.mobius_act"),
        "cover.lift_calls": calls("cover.lift"),
        "cover.lift_us": self_us("cover.lift"),
        "cover.cover_mul_calls": calls("cover.cover_mul"),
        "cover.cover_mul_us": self_us("cover.cover_mul"),
        "cover.cover_inv_us": self_us("cover.cover_inv"),
        "reps.toledo_share": summary.get("reps.toledo", {"incl_s": 0.0})["incl_s"] / op_time,
        "reps.raw_residual_max": max(traced.raw_gap, untraced.raw_gap),
        "reps.residual_warnings": warn["large_residual"] / attempted,
        "solver.nonfinite_warnings": warn["nonfinite"] / attempted,
        "repfile.parse_us": self_us("repfile.parse_rep"),
        "repfile.format_us": self_us("repfile.format_rep"),
    }
    for layer in LAYERS:
        own = sum(s["self_s"] for name, s in summary.items() if name.startswith(layer + "."))
        m[f"{layer}.self_share"] = own / op_time
    rate_untraced = best_rate(untraced, cycle)
    m["trace.overhead_share"] = 1.0 - best_rate(traced, cycle) / rate_untraced if rate_untraced else 0.0
    m.update(probes)
    return m


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def timed_setups(workload) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        times.append(perf_counter() - t0)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, min_ops: "int | None" = None) -> dict:
    """One run; min_ops overrides the workload's floor on the op count (tests use it)."""
    import_package()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        return _run_workload(name, seed, seconds, trace, min_ops, Path(work_dir))


def _run_workload(name: str, seed: int, seconds: float, trace: bool, min_ops: "int | None",
                  work_dir: Path) -> dict:
    import probes
    import workloads
    from tracer import Tracer, instrument

    env = child_env()
    workload = workloads.make(name, seed, work_dir, env)
    setup_times = timed_setups(workload)

    tally = WarningTally()
    with tally:
        if not trace:
            phase = measure(workload, seconds, workload.min_ops if min_ops is None else min_ops, 0)
            phases = [phase]
        else:
            untraced = measure(workload, seconds / 2, 1, 0)
            tracer = Tracer()
            instrument(tracer)
            workload.tracer = tracer
            try:
                traced = measure(workload, seconds / 2, 1, len(untraced.seconds))
            finally:
                tracer.unpatch()
                workload.tracer = None
            phases = [untraced, traced]
    data = workload.data()
    child_warn = workload.child_warnings
    warn = {
        "nonfinite": tally.nonfinite() + child_warn["RuntimeWarning"],
        "large_residual": tally.large_residual() + child_warn["unusually large"],
    }

    if trace:
        spans_path = OUT_DIR / f"spans_{name}_seed{seed}.npz"
        tracer.write(spans_path)
        metrics = layer_metrics(tracer.summary(), traced, untraced, workload.cycle, warn,
                                probes.run_probes(env, work_dir))
        units = PER_LAYER
    else:
        setup_times += timed_setups(workload)
        metrics = end_to_end(phase, setup_times, workload)
        units = END_TO_END

    attempted = sum(len(p.seconds) for p in phases)
    ok = sum(sum(p.ok) for p in phases)
    not_ok = [(i, o) for p in phases for i, o in p.not_ok]
    failed = sum(o.status == "failed" for _, o in not_ok)
    result = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "attempted": attempted,
        "ok": ok,
        "refused": len(not_ok) - failed,
        "failed": failed,
        "fail_share": (attempted - ok) / attempted,
        "setup_times_s": setup_times,
        "warnings": {f"{cat}: {text}": n for (cat, text), n in tally.counts.items()} | {
            f"child {k}": v for k, v in child_warn.items()},
        "failures": [
            {"op": i, "status": o.status, "input": o.label, "note": o.note}
            for i, o in not_ok[:FAILURES_KEPT]
        ],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        **data,
    }
    if trace:
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.start)
    path = OUT_DIR / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["result_file"] = str(path.relative_to(ROOT))
    return result


def report(result: dict) -> dict:
    """Print the human-readable lines; return the contract's JSON object."""
    for key, value in result["environment"].items():
        print(f"env {key} {value}")
    print(f"workload {result['workload']} trace {result['trace']} attempted {result['attempted']} "
          f"ok {result['ok']} refused {result['refused']} failed {result['failed']} "
          f"fail_share {result['fail_share']:.6g}")
    for f in result["failures"][:10]:
        print(f"op {f['op']} {f['status']} {f['input']}: {f['note']}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"result_file {result['result_file']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=2 * HARD_LIMIT_S + 60,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(f"{name}: {line}" for line in lines[:-1] if not line.startswith("env ")))
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
