"""The command-line contract under search: every exit code is a documented
one, and a nonzero exit after argument parsing prints exactly one stderr
line, starting `error `.

cli.run runs in process on numbers at the float edges and on rep files from
a small grammar, derandomized so that tier-1 draws the same cases each run.
"""
import contextlib
import io
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import iwasawa
from fuchsian.cli import run
from fuchsian.halfplane import rotation

EXIT_CODES = {0, 1, 2, 3, 64}
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-154, -1e154, 1e154,
         1e308, -1e308, math.inf, -math.inf, math.nan]
numbers = st.one_of(st.sampled_from(EDGES), st.floats(-8.0, 8.0))
# det-1 rows: diagonals and shears on the edge numbers, three Iwasawa
# products and a rotation
ROWS = ([(t, 0.0, 0.0, 1.0 / t) for t in EDGES if t] + [(1.0, x, 0.0, 1.0) for x in EDGES]
        + [tuple(iwasawa(*p)) for p in [(0.3, 0.5, -0.7), (-1.2, 2.0, 0.9), (2.9, 8.0, 1.4)]]
        + [tuple(rotation(0.7))])
contract = settings(derandomize=True, deadline=None, max_examples=200)


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # toledo's warning that raw drifted past WARN_TOL is no exit of its own
        warnings.filterwarnings("ignore", "Toledo invariant residual", UserWarning)
        code = run(argv)
    assert code in EXIT_CODES, (argv, code)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error "), (argv, lines)


@st.composite
def rep_texts(draw):
    """Genus 1 to 3 and its det-1 rows, up to three entries of which then
    give way to numbers."""
    genus = draw(st.integers(1, 3))
    n = 2 * genus
    rows = [list(r) for r in draw(st.lists(st.sampled_from(ROWS), min_size=n, max_size=n))]
    for k, i, x in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3), numbers),
                                 max_size=3)):
        rows[k][i] = x
    return "\n".join([f"genus {genus}", *(f"{'AB'[k >= genus]} {' '.join(map(repr, r))}"
                                          for k, r in enumerate(rows))])


def joined(xs):
    return ",".join(map(repr, xs))


@contract
@given(st.one_of(st.sampled_from(ROWS), st.tuples(*[numbers] * 4)), st.tuples(*[numbers] * 6))
def test_plane_commands_keep_the_contract(matrix, xs):
    assert_contract(["classify", f"--matrix={joined(matrix)}"])
    assert_contract(["euclid-reduce", f"--a={joined(xs[:2])}", f"--b={joined(xs[2:4])}",
                     f"--p={joined(xs[4:])}"])


@pytest.fixture(scope="module")
def rep_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "drawn.rep"


@contract
@given(command=st.sampled_from(["toledo", "check-relation", "dim-check"]), text=rep_texts())
def test_rep_file_commands_keep_the_contract(command, text, rep_path):
    rep_path.write_text(text)
    assert_contract([command, "--in", str(rep_path)])
