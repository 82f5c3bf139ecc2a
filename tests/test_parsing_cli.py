import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import GF, QQ, DPPoly, errors
from apolar.cli import cli_dispatch
from apolar.errors import GuardError, InternalError, PolySyntaxError
from apolar.parsing import (
    operator_str,
    parse_classical_poly,
    parse_operator,
    parse_poly,
    poly_str,
)

from conftest import random_poly


def test_parse_basic():
    f = parse_poly("3*x1^[2]*x2 + x3", 3, QQ)
    assert f.terms == {(2, 1, 0): QQ.from_int(3), (0, 0, 1): QQ.from_int(1)}


def test_parse_caret_synonym_and_fractions():
    f = parse_poly("x1^2*x2 - 1/2*x2^[3]", 2, QQ)
    assert f.coeff((2, 1)) == QQ.from_fraction("1")
    assert f.coeff((0, 3)) == QQ.from_fraction("-1/2")


def test_parse_operator():
    s = parse_operator("a1^[2]*a2 - 3*a2", 2, QQ, 4)
    assert s.coeff((2, 1)) == QQ.from_int(1)
    assert s.coeff((0, 1)) == QQ.from_int(-3)


def test_parse_errors_have_positions():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x1 + + x2", 2, QQ)
    assert exc.value.position is not None
    with pytest.raises(PolySyntaxError):
        parse_poly("x5", 2, QQ)
    with pytest.raises(PolySyntaxError):
        parse_poly("", 2, QQ)
    with pytest.raises(PolySyntaxError):
        parse_poly("x1^[2", 2, QQ)


def test_round_trip_printing(rng):
    for field in (QQ, GF(101)):
        for _ in range(20):
            f = random_poly(rng, 3, field, 4, force_top=False)
            if f.is_zero():
                continue
            assert parse_poly(poly_str(f), 3, field) == f


def test_parse_classical():
    g = parse_classical_poly("x1^4", 1, QQ)
    assert g.terms == {(4,): QQ.from_int(1)}


def test_cli_hilbert(capsys):
    assert cli_dispatch(["hilbert", "--vars", "2", "x1^[3]*x2"]) == 0
    assert "[1, 2, 2, 2, 1]" in capsys.readouterr().out


def test_cli_json_schema(capsys):
    assert cli_dispatch(["hilbert", "--vars", "2", "--json", "x1^[3]*x2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "field", "vars", "inputs", "results", "warnings"}
    assert doc["results"]["hilbert"] == [1, 2, 2, 2, 1]


def test_cli_classical_mode(capsys):
    assert cli_dispatch(
        ["hilbert", "--vars", "1", "--mode", "classical", "x1^4"]
    ) == 0
    assert "[1, 1, 1, 1, 1]" in capsys.readouterr().out


def test_cli_exit_codes(capsys):
    # 1: syntax error
    assert cli_dispatch(["hilbert", "--vars", "2", "x1 +"]) == 1
    # 2: guard failure (classical mode in small characteristic)
    assert cli_dispatch(
        ["hilbert", "--vars", "1", "--mode", "classical", "--field", "fp:3", "x1^4"]
    ) == 2
    capsys.readouterr()


def test_cli_perp_f3(capsys):
    code = cli_dispatch(
        ["perp", "--unip", "--max-deg", "3", "--vars", "3",
         "x1^[3]*x2 + x1^[2]*x3^[2]"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "a1*a2^[2] - 2*a2*a3^[2]" in out


def test_cli_golden_all(capsys):
    for which in ("13331", "1222111", "char2"):
        assert cli_dispatch(["golden", which]) == 0
        capsys.readouterr()


def test_cli_orbit_dim_downgrade(capsys):
    code = cli_dispatch(
        ["orbit-dim", "--vars", "2", "--field", "fp:2", "x1*x2^[2] + x2^[3]"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tangent_dim" in out and "warning" in out


def test_cli_reduce_membership(capsys):
    code = cli_dispatch(
        ["reduce", "--method", "membership", "--target", "x1^[3]*x2",
         "--vars", "2", "x1^[3]*x2 + x2^[3]"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "member: False" in out
    assert "witness_degree: 3" in out


def test_cli_deterministic_reports(capsys):
    args = ["perp", "--unip", "--max-deg", "3", "--vars", "3", "--json",
            "x1^[3]*x2 + x1^[2]*x3^[2]"]
    assert cli_dispatch(args) == 0
    first = capsys.readouterr().out
    assert cli_dispatch(args) == 0
    assert capsys.readouterr().out == first


# the guard and cause each of these inputs must name on stderr
BOUNDARY_STDERR = {
    ("dense-test", "x1^[3]+x1"):
        "TdfMismatch: dense orbit test needs a homogeneous form",
    ("reduce", "--method", "square", "--t", "-1", "x1^[3]+x1"):
        "IndexOutOfRange: square-ideal reduction needs t >= 0, got t = -1",
    ("reduce", "--method", "square", "--t", "0", "--vars", "1", "0"):
        "ZeroPolynomial: square-ideal reduction of the zero polynomial",
    ("ann", "--vars", "2", "0"): "ZeroPolynomial: annihilator of the zero polynomial",
}


@pytest.mark.parametrize("argv, code", [
    (["symdec", "--vars", "2", "--json", "x1"], 0),
    (["reduce", "--method", "membership", "--vars", "2", "x1^[3]"], 1),
    (["hilbert", "--vars", "0", "1"], 2),
    (["cangrad-filter", "0", "5"], 2),
    (["perp", "--max-deg", "-1", "--vars", "2", "x1^[3]"], 2),
    (["ann", "--max-deg", "-2", "--vars", "2", "x1^[3]"], 2),
    (["hilbert", "--vars", "2", "--field", "fp:0", "x1"], 1),
    (["perp", "--max-deg", "1000000", "--vars", "2", "x1^[2]"], 2),
    (["ann", "--max-deg", "1000000", "--vars", "2", "x1^[2]"], 2),
    (["hilbert", "--vars", "1", "x1^[5000]"], 2),
    (["dense-test", "x1^[3]+x1"], 2),
    (["reduce", "--method", "square", "--t", "-1", "x1^[3]+x1"], 2),
    (["reduce", "--method", "square", "--t", "0", "--vars", "1", "0"], 2),
    (["ann", "--vars", "2", "0"], 2),
])
def test_cli_boundary_inputs_exit_cleanly(capsys, argv, code):
    assert cli_dispatch(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if tuple(argv) in BOUNDARY_STDERR:
        assert BOUNDARY_STDERR[tuple(argv)] in captured.err
    if code == 0:
        assert json.loads(captured.out)["results"]["deltas"] == [[1, 1]]


def test_cli_answers_in_many_variables(capsys):
    # 340 variables ended in a RecursionError traceback (exit 1)
    assert cli_dispatch(["hilbert", "--vars", "1500", "x1"]) == 0
    assert "[1, 1]" in capsys.readouterr().out


@pytest.mark.parametrize("field", ["q", "fp:7"])
def test_cli_symdec_of_a_constant(capsys, field):
    # it exited 2 ("decomposition needs degree >= 1") while hilbert printed [1]
    assert cli_dispatch(["symdec", "--vars", "2", "--field", field, "--json", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["deltas"] == [[1]]
    assert cli_dispatch(["hilbert", "--vars", "2", "--field", field, "--json", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["hilbert"] == [1]


def test_every_error_has_one_exit_class():
    seen, todo = set(), [errors.ApolarError]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    roots = (GuardError, InternalError, PolySyntaxError)
    for cls in seen - {GuardError, InternalError}:
        assert sum(issubclass(cls, root) for root in roots) == 1, cls
    # exit 3 is reserved for these bug signals; every other class exits 1 or 2
    assert {cls for cls in seen if issubclass(cls, InternalError)} == {
        InternalError, errors.CrossCheckFailed, errors.ReductionFailed,
        errors.GoldenMismatch, errors.DecompositionInvariantViolated,
    }


# ---------------------------------------------------------------------------
# CLI fuzzing: every polynomial command on valid and broken text


SYNTAX = "x123a^[]*+-/ 0"
FUZZ_COMMANDS = [
    ["hilbert"], ["ann"], ["ann", "--max-deg", "2"], ["tangent"],
    ["tangent", "--unip"], ["perp"], ["perp", "--unip", "--max-deg", "2"],
    ["orbit-dim"], ["symdec"], ["compressed"], ["dense-test"],
    ["reduce", "--method", "tcompressed"], ["reduce", "--method", "square"],
    ["reduce", "--method", "membership"],
]


@st.composite
def _poly_text(draw, n):
    exps = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: sum(e) <= 4)
    terms = draw(st.dictionaries(exps, st.integers(-3, 3), max_size=5))
    text = poly_str(DPPoly(n, QQ, {e: QQ.from_int(c) for e, c in terms.items()}))
    for _ in range(draw(st.integers(0, 3))):  # broken text: edit the syntax
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:pos] + draw(st.sampled_from(SYNTAX)) + text[pos:]
        else:
            text = text[:pos] + text[pos + 1:]
    return text


@st.composite
def _cli_argv(draw):
    n = draw(st.integers(1, 3))
    command = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = command + [
        "--vars", str(n),
        "--field", draw(st.sampled_from(["q", "fp:2", "fp:3", "fp:101"])),
        "--mode", draw(st.sampled_from(["dp", "classical"])),
    ]
    if "square" in command:
        argv += ["--t", str(draw(st.integers(-1, 4)))]
    if "membership" in command:
        argv += ["--target", draw(_poly_text(n))]
    return argv + [draw(_poly_text(n))]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_cli_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
