"""Line-oriented text format for representations.

Layout, one record per line:

    genus 2
    A <a> <b> <c> <d>     (g lines, row-major, generator order A_1..A_g)
    B <a> <b> <c> <d>     (g lines, likewise)
    meta <free text>      (optional, any number)

Numbers are written with 17 significant digits so a round trip through the
file reproduces the doubles bit for bit.  Blank lines and lines starting
with '#' are ignored on read.  A meta text holds no line boundary (any
that str.splitlines splits at) and does not end in whitespace, which the
read strips, so it reads back as written; format_rep refuses any other.
"""
from __future__ import annotations

from .halfplane import Mat2
from .reps import Representation


def format_rep(r: Representation, meta: "list[str] | None" = None) -> str:
    lines = [f"genus {r.genus}"]
    lines += ["A %.17g %.17g %.17g %.17g" % A for A in r.gens_a]
    lines += ["B %.17g %.17g %.17g %.17g" % B for B in r.gens_b]
    for m in meta or []:
        if len(m.splitlines()) > 1 or m != m.rstrip():
            raise ValueError(f"meta {m!r} would not read back: a line break or trailing whitespace")
        lines.append(f"meta {m}")
    return "\n".join(lines) + "\n"


def parse_rep(text: str) -> tuple[Representation, list[str]]:
    genus = None
    mats_a: list[Mat2] = []
    mats_b: list[Mat2] = []
    meta: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "genus":
            if genus is not None:
                raise ValueError(f"line {lineno}: repeated genus record")
            genus = int(rest)
        elif key in ("A", "B"):
            parts = rest.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 entries, got {len(parts)}")
            M = Mat2(*map(float, parts))
            (mats_a if key == "A" else mats_b).append(M)
        elif key == "meta":
            meta.append(rest)
        else:
            raise ValueError(f"line {lineno}: unknown record {key!r}")
    if genus is None:
        raise ValueError("missing genus record")
    if len(mats_a) != genus or len(mats_b) != genus:
        raise ValueError(
            f"genus {genus} needs {genus} A and {genus} B records, "
            f"got {len(mats_a)} and {len(mats_b)}"
        )
    return Representation(genus, tuple(mats_a), tuple(mats_b)), meta


def write_rep_file(path, r: Representation, meta: "list[str] | None" = None) -> None:
    with open(path, "w") as f:
        f.write(format_rep(r, meta))


def read_rep_file(path) -> Representation:
    with open(path) as f:
        rep, _ = parse_rep(f.read())
    return rep
