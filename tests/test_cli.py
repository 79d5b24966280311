import hashlib
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import fuchsian
from fuchsian import cover, polygons, reps, tiling
from fuchsian.cli import MAX_BRANCH_TRIALS, MAX_GENUS, MAX_TILES, run
from fuchsian.halfplane import rotation, scaling, Mat2
from fuchsian.polygons import interior_angles, polygon_area, regular_polygon, side_pairings
from fuchsian.repfile import format_rep, parse_rep, read_rep_file, write_rep_file
from fuchsian.reps import Representation, relation_residual, toledo
from oracles import object_side_pairings


def kv(captured: str) -> dict:
    out = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def test_fuchsian_gen_round_trip(tmp_path, capsys):
    path = tmp_path / "rep.txt"
    assert run(["fuchsian-gen", "--genus", "2", "--out", str(path)]) == 0
    out = kv(capsys.readouterr().out)
    assert out["toledo"] in ("2", "-2")
    assert float(out["relation_residual"]) < 1e-7

    # the written file reproduces the matrices bit for bit
    text = path.read_text()
    rep, meta = parse_rep(text)
    assert format_rep(rep, meta) == text
    assert relation_residual(rep) < 1e-7
    assert abs(toledo(rep).value) == 2


def test_fuchsian_gen_refusal_writes_no_file(tmp_path, capsys, monkeypatch):
    # the genus-48 polygon word paired in the centre frame misses REL_TOL,
    # so toledo refuses it
    monkeypatch.setattr(polygons, "side_pairings", object_side_pairings)
    path = tmp_path / "rep.txt"
    assert run(["fuchsian-gen", "--genus", "48", "--out", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error relation residual")
    assert not path.exists()


def test_toledo_command(tmp_path, capsys):
    path = tmp_path / "rep.txt"
    run(["fuchsian-gen", "--genus", "2", "--out", str(path)])
    capsys.readouterr()
    assert run(["toledo", "--in", str(path), "--branches", "5", "--seed", "3"]) == 0
    out = kv(capsys.readouterr().out)
    assert out["value"] in ("2", "-2")
    assert abs(float(out["raw"]) - int(out["value"])) < 1e-6
    assert out["psl_only"] == "false"
    assert out["branch_independent"] == "true"


def test_toledo_branches_wind_the_word_once(tmp_path, capsys, monkeypatch):
    # toledo winds the 8-letter genus-2 word once; the branches add no product
    path = tmp_path / "rep.txt"
    write_rep_file(path, side_pairings(regular_polygon(2)))
    calls = []
    for module in (reps, cover):
        inner = module._mul

        def counting(m1, m2, inner=inner):
            calls.append(1)
            return inner(m1, m2)
        monkeypatch.setattr(module, "_mul", counting)
    assert run(["toledo", "--in", str(path), "--branches", "1000", "--seed", "3"]) == 0
    out = kv(capsys.readouterr().out)
    assert out["value"] == "-2" and out["branch_independent"] == "true"
    assert len(calls) == 8


def test_toledo_on_trivial_rep(tmp_path, capsys):
    path = tmp_path / "trivial.txt"
    write_rep_file(path, Representation.trivial(2))
    assert run(["toledo", "--in", str(path)]) == 0
    assert kv(capsys.readouterr().out)["value"] == "0"


def test_toledo_relation_violated_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    write_rep_file(
        path,
        Representation(1, (scaling(2.0),), (Mat2(1.0, 1.0, 0.0, 1.0),)),
    )
    assert run(["toledo", "--in", str(path)]) == 3


@pytest.mark.parametrize("genus, bound", [(20, 1e-10), (30, 1e-10), (47, 1e-10), (48, 1e-10), (150, 1e-8)])
def test_fuchsian_gen_then_toledo(genus, bound, tmp_path, capsys):
    # the polygon envelope, up to MAX_GENUS, written and read back; the raw
    # error measured 8.3e-12, 9.6e-12, 1.2e-11, 6.5e-11 and 5.6e-9
    path = tmp_path / "gen.rep"
    assert run(["fuchsian-gen", "--genus", str(genus), "--out", str(path)]) == 0
    gen = kv(capsys.readouterr().out)
    assert run(["check-relation", "--in", str(path)]) == 0
    capsys.readouterr()
    assert run(["toledo", "--in", str(path)]) == 0
    out = kv(capsys.readouterr().out)
    assert out["value"] == gen["toledo"] == str(-(2 * genus - 2))
    assert out["raw"] == gen["raw"]
    assert float(out["residual"]) < bound


@pytest.mark.parametrize(
    "A",
    [
        Mat2(785787.7144649233, 5957813.628175863, 139620.8594370249, 1058600.234923456),
        Mat2(146702735.37414363, -27331471.39361245, 214202482.39371574, -39907020.172825396),
    ],
    ids=["entries-1e6", "entries-1e8"],
)
def test_toledo_genus_one_large_entries(A, tmp_path, capsys):
    # A A^-1 is exactly I in floating point, so (A, I) commutes: invariant 0
    path = tmp_path / "big.rep"
    write_rep_file(path, Representation(1, (A,), (Mat2.identity(),)))
    assert run(["toledo", "--in", str(path)]) == 0
    captured = capsys.readouterr()
    out = kv(captured.out)
    assert (out["value"], out["raw"]) == ("0", "0")
    assert captured.err == ""


def test_toledo_negative_determinant_exits_64(tmp_path, capsys):
    # det = -1e6; the rounding allowance grows with max(|ad|, |bc|) = 1e6,
    # so it stays near 1e-8 instead of admitting a sign-flipped determinant
    path = tmp_path / "neg.rep"
    path.write_text("genus 1\nA 1e10 0 0 -1e-4\nB 1 0 0 1\n")
    assert run(["toledo", "--in", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error determinant -1000000.0 is not 1")


def test_toledo_overflowed_determinant_exits_64(tmp_path, capsys):
    # ad = 1e400 overflows, and so does the rounding allowance it sets
    path = tmp_path / "inf.rep"
    path.write_text("genus 1\nA 1e200 0 0 1e200\nB 1 0 0 1\n")
    assert run(["toledo", "--in", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error determinant inf is not 1")


@pytest.mark.parametrize(
    "text",
    ["genus 1\nA 2 0 5e-324 0.5\nB 0.4 -0.0 5e-324 2.5\n",
     "genus 1\nA 2 -0.0 -5e-324 0.5\nB 0.4 0.0 -5e-324 2.5\n"],
    ids=["underflow", "underflow-reflected"],
)
def test_toledo_underflowed_carry_exits_2(text, tmp_path, capsys):
    # A B has exact c = 0.9 * 5e-324, which rounds to zero: the relation
    # holds, but the carry of that product cannot be read from its signs
    path = tmp_path / "underflow.rep"
    path.write_text(text)
    assert run(["check-relation", "--in", str(path)]) == 0
    capsys.readouterr()
    assert run(["toledo", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error Euler cocycle quarter turns sum to ")
    assert lines[0].endswith("rounded to zero")


@pytest.mark.parametrize(
    "text",
    ["genus 1\nA 1 0 0 1\nB 1e13 0 0 1e-13\n", "genus 1\nA 1e13 0 0 1e-13\nB 1 0 0 1\n"],
    ids=["far-point-in-B", "far-point-in-A"],
)
def test_toledo_past_the_action_guard(text, tmp_path, capsys):
    # diag(1e13, 1e-13) moves i to 1e26 i, past halfplane's DEN_TOL guard;
    # the relation closes exactly either way round
    path = tmp_path / "far.rep"
    path.write_text(text)
    assert run(["check-relation", "--in", str(path)]) == 0
    assert kv(capsys.readouterr().out)["residual"] == "0"
    assert run(["toledo", "--in", str(path)]) == 0
    captured = capsys.readouterr()
    assert kv(captured.out)["value"] == "0"
    assert captured.err == ""


def test_check_relation_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    write_rep_file(good, Representation.trivial(1))
    assert run(["check-relation", "--in", str(good)]) == 0

    bad = tmp_path / "bad.txt"
    write_rep_file(bad, Representation(1, (scaling(2.0),), (Mat2(1.0, 1.0, 0.0, 1.0),)))
    assert run(["check-relation", "--in", str(bad)]) == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_check_relation_tol_outside_domain_exits_64(tol, tmp_path, capsys):
    # the seven-handle word has residual inf, which no tolerance can verify
    path = tmp_path / "seven.rep"
    write_rep_file(path, Representation(7, (scaling(20.0),) * 7, (rotation(0.7),) * 7))
    assert run(["check-relation", "--in", str(path), f"--tol={tol}"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error tol must be finite and non-negative")


def test_check_relation_tol_zero_is_legal(tmp_path, capsys):
    path = tmp_path / "trivial.rep"
    write_rep_file(path, Representation.trivial(2))
    assert run(["check-relation", "--in", str(path), "--tol", "0"]) == 0
    assert kv(capsys.readouterr().out) == {"residual": "0", "tol": "0"}


@pytest.mark.parametrize("branches", ["-3", str(MAX_BRANCH_TRIALS + 1), "3000000"])
def test_toledo_branches_outside_domain_exits_64(branches, tmp_path, capsys):
    path = tmp_path / "trivial.rep"
    write_rep_file(path, Representation.trivial(2))
    assert run(["toledo", "--in", str(path), f"--branches={branches}"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error branch trials {branches} is outside")


@pytest.mark.parametrize("command, code", [("check-relation", 1), ("toledo", 3)])
def test_unrenormalizable_word_exits_with_one_error_line(command, code, tmp_path):
    # a valid file whose relation word cannot be renormalized (det 0.0 at 7 handles)
    path = tmp_path / "seven.rep"
    write_rep_file(path, Representation(7, (scaling(20.0),) * 7, (rotation(0.7),) * 7))
    src = str(Path(fuchsian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "fuchsian", command, "--in", str(path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error relation residual inf"), proc.stderr


def test_classify_command(capsys):
    assert run(["classify", "--matrix", "2,0,0,0.5"]) == 0
    out = kv(capsys.readouterr().out)
    assert out["class"] == "Hyperbolic"
    assert float(out["trace"]) == 2.5


def test_classify_entries_past_the_square_overflow(capsys):
    # the distance to +-I squares a difference of 1e200
    assert run(["classify", "--matrix", "1e200,0,0,1e-200"]) == 0
    captured = capsys.readouterr()
    assert kv(captured.out)["class"] == "Hyperbolic"
    assert captured.err == ""


@pytest.mark.parametrize("command, code", [("check-relation", 1), ("toledo", 3)])
def test_relation_residual_past_the_square_overflow(command, code, tmp_path, capsys):
    # [A, B] = (1, 1e160 - 1; 0, 1): its distance to I squares 1e160
    path = tmp_path / "huge.rep"
    path.write_text("genus 1\nA 1e80 0 0 1e-80\nB 1 1 0 1\n")
    assert run([command, "--in", str(path)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error relation residual inf")


@pytest.mark.parametrize("genus", [MAX_GENUS + 1, 10**12])
@pytest.mark.parametrize("command", ["solve", "polygon", "fuchsian-gen", "tile"])
def test_genus_above_the_bound_exits_64(command, genus, tmp_path, capsys):
    path = tmp_path / "out.txt"
    assert run([command, "--genus", str(genus), "--out", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [f"error genus {genus} is above {MAX_GENUS}"]
    assert not path.exists()


def test_solve_command(tmp_path, capsys):
    path = tmp_path / "solved.txt"
    assert run(["solve", "--genus", "2", "--seed", "5", "--out", str(path)]) == 0
    out = kv(capsys.readouterr().out)
    assert out["converged"] == "true"
    rep = read_rep_file(path)
    assert relation_residual(rep) <= 1e-6


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    path = tmp_path / "never.txt"
    assert run(["solve", "--genus", "2", "--seed", "0", "--max-iter", "0", "--out", str(path)]) == 1
    assert not path.exists()


def test_dim_check(tmp_path, capsys):
    path = tmp_path / "rep.txt"
    run(["fuchsian-gen", "--genus", "2", "--out", str(path)])
    capsys.readouterr()
    assert run(["dim-check", "--in", str(path)]) == 0
    out = kv(capsys.readouterr().out)
    assert out["rank"] == "3"
    assert out["dim_variety"] == "9"
    assert out["dim_moduli"] == "6"


def test_dim_check_rank_three_at_genus_20(tmp_path, capsys):
    path = tmp_path / "rep.txt"
    run(["fuchsian-gen", "--genus", "20", "--out", str(path)])
    capsys.readouterr()
    assert run(["dim-check", "--in", str(path)]) == 0
    assert kv(capsys.readouterr().out)["rank"] == "3"


def test_polygon_command(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    assert run(["polygon", "--genus", "3", "--out", str(path)]) == 0
    out = kv(capsys.readouterr().out)
    assert out["n"] == "12"
    lines = path.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 12
    assert abs(float(out["area"]) - 8 * 3.141592653589793) < 1e-8


@pytest.mark.parametrize("genus", [2, 3, 150])
def test_polygon_command_values(genus, tmp_path, capsys):
    # the angles are Cayley arguments; against the law of cosines they moved
    # by at most 4.0e-14 (interior_angle), 2.2e-11 (angle_sum, area) for g <= 150
    assert run(["polygon", "--genus", str(genus), "--out", str(tmp_path / "poly.txt")]) == 0
    out = kv(capsys.readouterr().out)
    assert out["n"] == str(4 * genus)
    assert abs(float(out["angle_sum"]) - 2 * math.pi) <= 1e-10
    assert abs(float(out["area"]) - 2 * math.pi * (2 * genus - 2)) <= 1e-9
    # the printed values are the library's, bit for bit
    poly = regular_polygon(genus)
    angles = interior_angles(poly.vertices)
    assert (out["interior_angle"], out["angle_sum"], out["area"]) == (
        f"{angles[0]:.17g}", f"{sum(angles):.17g}", f"{polygon_area(poly):.17g}")


def test_polygon_command_walks_the_angles_twice(tmp_path, capsys, monkeypatch):
    # once in the constructor's check, once for the printed angle, sum and area
    turns, passes = polygons._turns, []

    def counting(vertices):
        passes.append(len(vertices))
        return turns(vertices)
    monkeypatch.setattr(polygons, "_turns", counting)
    assert run(["polygon", "--genus", "150", "--out", str(tmp_path / "poly.txt")]) == 0
    assert passes == [600, 600]


@pytest.mark.parametrize("genus, sha256", [
    (2, "1aec93e5e21acbd5c22969affce4cfd47553f8d5fca97df12686a0551ebac078"),
    (3, "ef7105b6e23349276d2f6c6e8530828ca4982be0d161f556e78c772a933facc9"),
    (48, "d2b692fecd05ae90b6ca083acbc658245bc1d67da34f93d2048a0372e3b2c783"),
    (150, "10a8a91d250d2577d7b104dc1400ddfe67b9c2866b0425dc9ad30f655b5e50b9"),
])
def test_fuchsian_gen_file_bytes_are_pinned(genus, sha256, tmp_path, capsys):
    path = tmp_path / "gen.rep"
    assert run(["fuchsian-gen", "--genus", str(genus), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_tile_command(tmp_path, capsys):
    path = tmp_path / "tiling.svg"
    assert run(["tile", "--genus", "2", "--depth", "1", "--out", str(path)]) == 0
    out = kv(capsys.readouterr().out)
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == int(out["tiles"]) > 1


@pytest.mark.parametrize("depth", ["-1", "6"])
def test_tile_depth_out_of_range_exits_64(depth, tmp_path, capsys):
    path = tmp_path / "tiling.svg"
    assert run(["tile", "--genus", "2", f"--depth={depth}", "--out", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error ")
    assert not path.exists()


def test_tile_draws_the_depth_3_orbit(tmp_path, capsys):
    path = tmp_path / "tiling.svg"
    assert run(["tile", "--genus", "2", "--depth", "3", "--out", str(path)]) == 0
    assert kv(capsys.readouterr().out)["tiles"] == "445"


@pytest.mark.parametrize("genus, depth, words", [
    (3, 5, 193261),  # 12 * (1 + 11 + 11^2 + 11^3 + 11^4) + 1
    (8, 3, 31777),
    (38, 2, 23105),
])
def test_tile_above_max_tiles_exits_64_without_enumerating(genus, depth, words, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("orbit enumerated")

    monkeypatch.setattr(tiling, "orbit_matrices", refuse)
    path = tmp_path / "tiling.svg"
    assert run(["tile", "--genus", str(genus), "--depth", str(depth), "--out", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error tile genus {genus} depth {depth} enumerates {words} words, above {MAX_TILES}"
    ]
    assert not path.exists()


@pytest.mark.parametrize("genus, depth", [(2, 5), (3, 4), (7, 3), (37, 2)])
def test_tile_at_or_below_max_tiles_is_drawn(genus, depth, tmp_path, capsys, monkeypatch):
    # genus 2 at depth 5 enumerates exactly MAX_TILES words; the SVG itself is stubbed
    monkeypatch.setattr(tiling, "render_tiling", lambda poly, rep, depth: "<svg/>")
    assert run(["tile", "--genus", str(genus), "--depth", str(depth), "--out", str(tmp_path / "t.svg")]) == 0


def test_solve_negative_seed_exits_64(tmp_path, capsys):
    path = tmp_path / "rep.txt"
    assert run(["solve", "--genus", "2", "--seed=-1", "--out", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error expected non-negative integer"]
    assert not path.exists()


def test_euclid_reduce_command(capsys):
    assert run(["euclid-reduce", "--a", "1,0", "--b", "0,1", "--p", "2.5,-0.75"]) == 0
    out = kv(capsys.readouterr().out)
    assert out["reduced"] == "0.5 0.25"
    assert (out["n"], out["m"]) == ("2", "-1")


def test_euclid_reduce_small_basis(capsys):
    # an orthogonal basis is independent at any scale
    assert run(["euclid-reduce", "--a", "1e-7,0", "--b", "0,1e-7", "--p", "3.5e-7,0"]) == 0
    out = kv(capsys.readouterr().out)
    assert (out["n"], out["m"]) == ("3", "0")


def test_euclid_reduce_basis_whose_det_underflows(capsys):
    # det 1e-162 * 1e-162 rounds to 0.0, yet the basis is orthogonal
    assert run(["euclid-reduce", "--a", "1e-162,0", "--b", "0,1e-162", "--p", "3.5e-162,0"]) == 0
    out = kv(capsys.readouterr().out)
    assert (out["n"], out["m"]) == ("3", "0")


def test_euclid_reduce_subnormal_basis_vector(capsys):
    assert run(["euclid-reduce", "--a", "1,0", "--b", "5e-324,5e-324", "--p", "0.5,0"]) == 0
    out = kv(capsys.readouterr().out)
    assert out["reduced"] == "0.5 0" and (out["n"], out["m"]) == ("0", "0")


@pytest.mark.parametrize(
    "argv",
    [
        [],                                      # no subcommand
        ["classify", "--matrix", "1,2,3"],       # wrong arity
        ["toledo"],                              # missing --in
        ["frobnicate"],                          # unknown command
    ],
)
def test_usage_errors_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 64


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fuchsian", "classify", "--matrix", "1,0,0,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "class Identity" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["toledo", "--in", "bad.rep"],
        ["toledo", "--in", "twice.rep"],
        ["check-relation", "--in", "missing.rep"],
        ["classify", "--matrix", "2,0,0,2"],
        ["euclid-reduce", "--a", "1,0", "--b", "2,0", "--p", "0,0"],
        ["polygon", "--genus", "1", "--out", "poly.txt"],
        ["fuchsian-gen", "--genus", "1", "--out", "rep.txt"],
        ["euclid-reduce", "--a", "1,0", "--b", "0,1", "--p=inf,0"],
        ["euclid-reduce", "--a=inf,0", "--b", "0,1", "--p", "0,0"],
        ["euclid-reduce", "--a", "1e200,0", "--b", "0,1e200", "--p", "3,4"],
        ["euclid-reduce", "--a", "2,-1", "--b=-1,1", "--p", "1e308,0"],
        ["solve", "--genus", "2", "--max-iter", "-3", "--out", "rep.txt"],
        ["solve", "--genus", "2", "--tol", "nan", "--out", "rep.txt"],
    ],
    ids=["malformed-file", "repeated-genus", "missing-file", "det-not-one", "dependent-basis",
         "polygon-genus-1", "fuchsian-gen-genus-1", "infinite-point", "infinite-basis",
         "infinite-det", "overflowing-representative", "negative-max-iter", "nan-tol"],
)
def test_bad_input_exits_64_with_one_error_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.rep").write_text("genus 1\nA 1 0 0\nB 1 0 0 1\n")  # short A row
    (tmp_path / "twice.rep").write_text("genus 5\nA 1 0 0 1\nB 1 0 0 1\ngenus 1\n")
    assert run(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error ")


def test_solve_tol_looser_than_the_relation_exits_3(tmp_path, capsys):
    # tol 1e10 accepts the unrefined start, whose relation residual is 8.77
    path = tmp_path / "rep.txt"
    assert run(["solve", "--genus", "2", "--tol", "1e10", "--out", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error relation residual")
    assert not path.exists()


def test_commands_leave_numpy_unloaded(tmp_path):
    # each command runs in a fresh interpreter that then reports whether it loaded numpy
    probe = (
        "import sys\n"
        "from fuchsian.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print('numpy_loaded', 'numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    commands = [
        ["fuchsian-gen", "--genus", "2", "--out", "gen.rep"],
        ["toledo", "--in", "gen.rep"],
        ["check-relation", "--in", "gen.rep"],
        ["dim-check", "--in", "gen.rep"],
        ["solve", "--genus", "2", "--seed", "5", "--out", "solved.rep"],
        ["tile", "--genus", "2", "--depth", "1", "--out", "tile.svg"],
        ["classify", "--matrix", "2,1,1,1"],
        ["euclid-reduce", "--a", "1,0", "--b", "0,1", "--p", "2.5,-0.75"],
    ]
    src = str(Path(fuchsian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "numpy_loaded False", argv


def test_cli_import_leaves_typing_and_pathlib_unloaded():
    # -S: on some hosts site itself loads both
    src = str(Path(fuchsian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys\nimport fuchsian.cli\nprint(sorted({'typing', 'pathlib'} & set(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_import_loads_no_submodule():
    src = str(Path(fuchsian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys\nimport fuchsian\nprint(sorted(m for m in sys.modules if m.startswith('fuchsian.')))\n"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_submodule_read_before_it_loads():
    # the first read of fuchsian.euclidean imports it, through the package's
    # __getattr__, as the module the import statement then gives
    src = str(Path(fuchsian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys\nimport fuchsian\nbefore = 'fuchsian.euclidean' in sys.modules\n"
             "m = fuchsian.euclidean\nimport fuchsian.euclidean\nprint(before, m is sys.modules['fuchsian.euclidean'])\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\n"


_UNUSED_BY_PLANE = {"fuchsian.reps", "dataclasses"}
_UNUSED_BY_FLAT = _UNUSED_BY_PLANE | {"fuchsian.halfplane"}
_UNUSED_BY_REP_FILE = {"fuchsian.polygons", "fuchsian.tiling", "fuchsian.euclidean", "fuchsian.solver"}


@pytest.mark.parametrize("argv, code, unloaded", [
    (["classify", "--matrix", "2,1,1,1"], 0, _UNUSED_BY_PLANE),
    (["classify", "--matrix", "2,0,0,2"], 64, _UNUSED_BY_PLANE),
    (["euclid-reduce", "--a", "1,0", "--b", "0,1", "--p", "2.5,-0.75"], 0, _UNUSED_BY_FLAT),
    (["euclid-reduce", "--a", "1,0", "--b", "2,0", "--p", "0,0"], 64, _UNUSED_BY_FLAT),
    (["toledo", "--in", "gen.rep", "--branches", "3"], 0, _UNUSED_BY_REP_FILE),
    (["toledo", "--in", "underflow.rep"], 2, _UNUSED_BY_REP_FILE),
    (["check-relation", "--in", "gen.rep"], 0, _UNUSED_BY_REP_FILE),
    (["dim-check", "--in", "gen.rep"], 0, _UNUSED_BY_REP_FILE),
], ids=["classify", "classify-64", "euclid-reduce", "euclid-reduce-64",
        "toledo", "toledo-2", "check-relation", "dim-check"])
def test_command_loads_only_what_it_runs(argv, code, unloaded, tmp_path):
    # -S, as above; each command in a fresh interpreter, which then reports
    # its exit code and the modules of `unloaded` it loaded
    write_rep_file(tmp_path / "gen.rep", side_pairings(regular_polygon(2)))
    (tmp_path / "underflow.rep").write_text("genus 1\nA 2 0 5e-324 0.5\nB 0.4 -0.0 5e-324 2.5\n")
    probe = (
        "import sys\n"
        "from fuchsian.cli import run\n"
        "code = run(sys.argv[2:])\n"
        "print(code, sorted(set(sys.argv[1].split()) & set(sys.modules)))\n"
    )
    src = str(Path(fuchsian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-S", "-c", probe, " ".join(unloaded), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{code} []"
