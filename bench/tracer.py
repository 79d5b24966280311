"""In-memory span recorder that instruments the package from outside.

Nothing under src/ knows about it.  `Tracer.patch` replaces a function at the
name its caller looks it up (a module global such as `fuchsian.reps.cover_mul`,
or a class attribute such as `Mat2.__matmul__`) with a wrapper that records one
span per call: name, start, end, parent span and op id.  Spans live in flat
arrays while the run lasts and are written out once, when it ends.

Self time is a span's duration minus the time its direct children cover.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        a = self.arrays()
        n = len(a["start"])
        if n == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        incl = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from fuchsian import cover, halfplane, polygons, repfile, reps, solver

    tracer.patch(halfplane.Mat2, "__matmul__", "halfplane.matmul")
    for mod in (halfplane, cover, polygons):
        tracer.patch(mod, "mobius_act", "halfplane.mobius_act")
    for mod in (cover, reps):
        for fn in ("lift", "cover_mul", "cover_inv"):
            tracer.patch(mod, fn, f"cover.{fn}")
    for fn in ("toledo", "relation_residual", "reflect_conjugate"):
        tracer.patch(reps, fn, f"reps.{fn}")
    for fn in ("solve", "refine", "residual", "relation_gap", "relation_jacobian",
               "jacobian_rank", "rep_from_coords", "coords_from_rep"):
        tracer.patch(solver, fn, f"solver.{fn}")
    for fn in ("regular_polygon", "side_pairings", "interior_angles"):
        tracer.patch(polygons, fn, f"polygons.{fn}")
    for fn in ("parse_rep", "format_rep"):
        tracer.patch(repfile, fn, f"repfile.{fn}")
