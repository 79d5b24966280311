"""Command-line front end.

Output is line-oriented `key value` pairs on stdout, diagnostics on stderr.
Exit codes: 0 success, 1 solver did not converge (or residual above
tolerance for check-relation), 2 non-integral invariant, 3 relation
violated, 64 argument errors, including an unreadable or malformed input
file and values outside a command's domain.  Every nonzero exit after
argument parsing prints one `error ...` line on stderr.

Only `solve` imports the solver, so the other commands do not compile or
load it.  No command loads numpy.

Each handler imports the modules it runs, and `import fuchsian` loads no
submodule (the package's names load on first use), so `classify` loads only
`halfplane` and `euclid-reduce` only `euclidean`.  The commands that read or
write a rep file load `halfplane`, `cover`, `reps` and `repfile`, and with
`reps` the `dataclasses` module its ToledoResult needs.  Only `fuchsian-gen`,
`polygon` and `tile` load `polygons`, and only `tile` loads `tiling`.
"""
from __future__ import annotations

import argparse
import math
import sys

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_NON_INTEGRAL = 2
EXIT_RELATION_VIOLATED = 3
EXIT_USAGE = 64

# each level multiplies the orbit about (4g - 1)-fold; at genus 2, depth 5
# enumerates 22,409 words and draws 21,506 tiles
MAX_TILE_DEPTH = 5
# bound on the enumerated words 1 + sum_{d=1..depth} 4g (4g - 1)^(d - 1),
# checked before enumerating; genus 2 at depth 5 meets it exactly
MAX_TILES = 22_409
# the polygon envelope is scanned up to genus 150, where fuchsian-gen's
# relation residual is 3.1e-8 against REL_TOL = 1e-6; past it the pairings
# miss PAIRING_TOL from genus 841 (the rounding of the vertices they are
# certified against), and solve allocates 2g coordinate rows
MAX_GENUS = 150
# the --branches domain, a count outside it exits 64; no trial runs, since
# the invariant cannot depend on the branches, so it bounds no cost
MAX_BRANCH_TRIALS = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _floats(text: str, n: int) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"expected {n} comma-separated numbers")
    return [float(p) for p in parts]


def _pair(text: str) -> tuple[float, float]:
    return tuple(_floats(text, 2))  # type: ignore[return-value]


def _quad(text: str) -> list[float]:
    return _floats(text, 4)


def build_parser() -> argparse.ArgumentParser:
    # the docstring's last paragraph is about loading, not usage: --help omits it
    p = _Parser(prog="fuchsian", description=(__doc__ or "").rpartition("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("toledo", help="Toledo invariant of a representation file")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--branches", type=int, default=0,
                   help=f"0 to {MAX_BRANCH_TRIALS}; above 0, also print branch_independent true, "
                        "which holds by construction")
    c.add_argument("--seed", type=int, default=0, help="accepted; changes no output")

    c = sub.add_parser("check-relation", help="commutator relation residual")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--tol", type=float)  # default reps.REL_TOL, read by the handler

    c = sub.add_parser("classify", help="trace classification of one matrix")
    c.add_argument("--matrix", type=_quad, required=True, metavar="a,b,c,d")

    c = sub.add_parser("fuchsian-gen", help="polygon-derived Fuchsian representation")
    c.add_argument("--genus", type=int, required=True)
    c.add_argument("--out", required=True)

    c = sub.add_parser("solve", help="random-start solve of the relation")
    c.add_argument("--genus", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.add_argument("--max-iter", type=int, default=500)
    c.add_argument("--tol", type=float)  # default reps.SOLVE_TOL, read by the handler
    c.add_argument("--verbose", action="store_true")

    c = sub.add_parser("dim-check", help="numerical rank and dimension counts")
    c.add_argument("--in", dest="infile", required=True)

    c = sub.add_parser("polygon", help="regular 4g-gon: vertices, angles, area")
    c.add_argument("--genus", type=int, required=True)
    c.add_argument("--out", required=True)

    c = sub.add_parser("tile", help="SVG orbit of the fundamental polygon")
    c.add_argument("--genus", type=int, required=True)
    c.add_argument("--depth", type=int, default=2,
                   help=f"word length bound, 0 to {MAX_TILE_DEPTH}")
    c.add_argument("--out", required=True)

    c = sub.add_parser("euclid-reduce", help="reduce a point into the lattice cell")
    c.add_argument("--a", type=_pair, required=True, metavar="ax,ay")
    c.add_argument("--b", type=_pair, required=True, metavar="bx,by")
    c.add_argument("--p", type=_pair, required=True, metavar="px,py")

    return p


def _cmd_toledo(args) -> int:
    from . import repfile
    from .reps import toledo

    if not 0 <= args.branches <= MAX_BRANCH_TRIALS:
        raise ValueError(f"branch trials {args.branches} is outside 0..{MAX_BRANCH_TRIALS}")
    rep = repfile.read_rep_file(args.infile)
    result = toledo(rep)
    print(f"value {result.value}")
    print(f"raw {result.raw:.17g}")
    print(f"residual {result.residual:.17g}")
    print(f"kernel_matrix_residual {result.kernel_matrix_residual:.17g}")
    print(f"psl_only {str(result.psl_only).lower()}")
    if args.branches > 0:
        # a commutator of lifts on branches k and l winds k + l - k - l = 0
        print("branch_independent true")
    return EXIT_OK


def _cmd_check_relation(args) -> int:
    from . import repfile
    from .reps import REL_TOL, relation_residual

    tol = REL_TOL if args.tol is None else args.tol
    if not 0.0 <= tol < math.inf:  # also rejects NaN
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    rep = repfile.read_rep_file(args.infile)
    res = relation_residual(rep)
    print(f"residual {res:.17g}")
    print(f"tol {tol:.17g}")
    if res <= tol:
        return EXIT_OK
    print(f"error relation residual {res:.3e} exceeds {tol:.1e}", file=sys.stderr)
    return 1


def _cmd_classify(args) -> int:
    from .halfplane import Mat2, classify_detailed

    M = Mat2(*args.matrix)
    info = classify_detailed(M)
    print(f"class {info.kind.value.capitalize()}")
    print(f"trace {info.trace:.17g}")
    print(f"confident {str(info.confident).lower()}")
    return EXIT_OK


def _cmd_fuchsian_gen(args) -> int:
    from . import polygons, repfile
    from .reps import relation_residual, toledo

    poly = polygons.regular_polygon(args.genus)
    rep = polygons.side_pairings(poly)
    result = toledo(rep)  # refuses a violated relation before the file is written
    repfile.write_rep_file(args.out, rep, meta=[f"source fuchsian-gen genus {args.genus}"])
    print(f"out {args.out}")
    print(f"toledo {result.value}")
    print(f"raw {result.raw:.17g}")
    print(f"relation_residual {relation_residual(rep):.17g}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    from . import repfile, solver
    from .reps import SOLVE_TOL, relation_residual

    try:
        rep = solver.solve(
            args.genus,
            seed=args.seed,
            max_iter=args.max_iter,
            tol=SOLVE_TOL if args.tol is None else args.tol,
            verbose=args.verbose,
        )
    except solver.DidNotConverge as exc:
        print("converged false")
        print(f"error {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    repfile.write_rep_file(args.out, rep, meta=[f"source solve genus {args.genus} seed {args.seed}"])
    print("converged true")
    print(f"out {args.out}")
    print(f"relation_residual {relation_residual(rep):.17g}")
    return EXIT_OK


def _cmd_dim_check(args) -> int:
    from . import repfile
    from .reps import jacobian_rank

    rep = repfile.read_rep_file(args.infile)
    rank = jacobian_rank(rep)
    g = rep.genus
    print(f"rank {rank}")
    print(f"dim_variety {6 * g - 3}")
    print(f"dim_moduli {6 * g - 6}")
    return EXIT_OK


def _cmd_polygon(args) -> int:
    from . import polygons

    poly = polygons.regular_polygon(args.genus)
    lines = [f"genus {poly.genus}"]
    for v in poly.vertices:
        lines.append(f"v {v.x:.17g} {v.y:.17g}")
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + "\n")
    angles = polygons.interior_angles(poly.vertices)
    n, angle_sum = len(angles), sum(angles)
    print(f"out {args.out}")
    print(f"n {n}")
    print(f"interior_angle {angles[0]:.17g}")
    print(f"angle_sum {angle_sum:.17g}")
    print(f"area {(n - 2) * math.pi - angle_sum:.17g}")  # polygon_area, on the same angles
    return EXIT_OK


def _cmd_tile(args) -> int:
    from . import polygons, tiling

    if not 0 <= args.depth <= MAX_TILE_DEPTH:
        raise ValueError(f"tile depth {args.depth} is outside 0..{MAX_TILE_DEPTH}")
    poly = polygons.regular_polygon(args.genus)  # refuses genus < 2 first
    n = 4 * args.genus  # generators and their inverses
    words = 1 + sum(n * (n - 1) ** (d - 1) for d in range(1, args.depth + 1))
    if words > MAX_TILES:
        raise ValueError(f"tile genus {args.genus} depth {args.depth} enumerates "
                         f"{words} words, above {MAX_TILES}")
    rep = polygons.side_pairings(poly)
    svg = tiling.render_tiling(poly, rep, args.depth)
    with open(args.out, "w") as f:
        f.write(svg)
    print(f"out {args.out}")
    print(f"tiles {svg.count('<path')}")
    return EXIT_OK


def _cmd_euclid_reduce(args) -> int:
    from .euclidean import LatticeGroup, reduce_point

    lattice = LatticeGroup(args.a, args.b)
    q, (n, m) = reduce_point(lattice, args.p)
    print(f"reduced {q[0]:.17g} {q[1]:.17g}")
    print(f"n {n}")
    print(f"m {m}")
    return EXIT_OK


_HANDLERS = {
    "toledo": _cmd_toledo,
    "check-relation": _cmd_check_relation,
    "classify": _cmd_classify,
    "fuchsian-gen": _cmd_fuchsian_gen,
    "solve": _cmd_solve,
    "dim-check": _cmd_dim_check,
    "polygon": _cmd_polygon,
    "tile": _cmd_tile,
    "euclid-reduce": _cmd_euclid_reduce,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "genus", 0) > MAX_GENUS:
            raise ValueError(f"genus {args.genus} is above {MAX_GENUS}")
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        # The package raises ValueError for values outside its domain (a rep
        # file that does not parse, det != 1, a dependent lattice basis, a
        # genus too small); OSError covers input and output paths.
        print(f"error {exc}", file=sys.stderr)
        # only code that has loaded reps raises its two refusals, so they are
        # looked up without loading it for the commands that do not
        reps = sys.modules.get(f"{__package__}.reps")
        if reps and isinstance(exc, reps.RelationViolated):
            return EXIT_RELATION_VIOLATED
        if reps and isinstance(exc, reps.NonIntegral):
            return EXIT_NON_INTEGRAL
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())
