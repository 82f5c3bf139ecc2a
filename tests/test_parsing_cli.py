import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import GF, QQ, DPPoly, errors
from apolar.cli import cli_dispatch
from apolar.errors import GuardError, InternalError, PolySyntaxError, WindowTooLarge
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
    # ^k was read as ^[k] in divided-power input, so x1^2 was x1^[2] while
    # x1*x1 is 2*x1^[2]; it is refused there, with a pointer to ^[k] and
    # classical input, which keeps it
    for text in ("x1^2*x2 - 1/2*x2^[3]", "x1^[2]*x2 - 1/2*x2^3"):
        with pytest.raises(PolySyntaxError, match=r"\^\[k\].*--mode classical"):
            parse_poly(text, 2, QQ)
    assert parse_classical_poly("x1^2", 1, QQ) == parse_classical_poly("x1^[2]", 1, QQ)
    f = parse_poly("x1^[2]*x2 - 1/2*x2^[3]", 2, QQ)
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


def test_a_minus_one_coefficient_prints_as_a_sign():
    # a coefficient -1 prints as a bare sign, leading or inner, and parses back
    cases = [
        ("x2 + x1^[2] - x1*x2^[2]", QQ, "x2 + x1^[2] - x1*x2^[2]"),
        ("-x1 + 3*x2", QQ, "-x1 + 3*x2"),
        ("-1*x1*x2 - x2^[2] + x1^[3]", QQ, "-x1*x2 - x2^[2] + x1^[3]"),
        ("-1 - x1", QQ, "-1 - x1"),
        ("1/2*x1 - 1/2*x2", QQ, "1/2*x1 - 1/2*x2"),
        ("-x1 + x2", GF(7), "6*x1 + x2"),  # residues print as they are
    ]
    for text, field, want in cases:
        f = parse_poly(text, 2, field)
        assert poly_str(f) == want and "-1*" not in poly_str(f), text
        assert parse_poly(poly_str(f), 2, field) == f, text
    sigma = parse_operator("a1 - a1*a2^[2]", 2, QQ, 3)
    assert operator_str(sigma) == "a1 - a1*a2^[2]"
    assert parse_operator(operator_str(sigma), 2, QQ, 3) == sigma


def test_parse_classical():
    g = parse_classical_poly("x1^4", 1, QQ)
    assert g.terms == {(4,): QQ.from_int(1)}


def _product_of_factors(term, n, field):
    """The product, by ``DPPoly.__mul__``, of the parsed factors of the
    one-term text ``term``."""
    out = DPPoly.monomial(n, field, (0,) * n)
    for factor in term.split("*"):
        out = out * parse_poly(factor, n, field)
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
def test_a_repeated_variable_multiplies_as_divided_powers(field, rng):
    # the parser added exponents: x1*x1 gave x1^[2], not 2*x1^[2], and
    # x1^[2]*x1^[3] gave x1^[5], not 10*x1^[5] (0 over F_2 and F_5)
    terms = ["x1*x1", "x1^[2]*x1^[3]", "x1^[4]*x1", "-3*x1*x2*x1^[2]*x2^[4]",
             "x2^[2]*x1*x2^[0]*x2", "1/3*x1^[3]*x2*x1^[2]*x1"]
    for _ in range(30):
        factors = ["x%d^[%d]" % (rng.randint(1, 2), rng.randint(0, 4)) for _ in range(rng.randint(2, 4))]
        terms.append("*".join([str(rng.randint(-4, 4))] + factors))
    for term in terms:
        assert parse_poly(term, 2, field) == _product_of_factors(term, 2, field), term
    assert parse_poly("x1*x1", 2, QQ) == parse_poly("2*x1^[2]", 2, QQ)
    assert parse_poly("x1^[2]*x1^[3]", 1, QQ) == parse_poly("10*x1^[5]", 1, QQ)
    assert parse_poly("x1*x1", 2, GF(2)).is_zero() and parse_poly("x1^[4]*x1", 1, GF(5)).is_zero()
    with pytest.raises(PolySyntaxError):  # ^k is classical syntax only
        parse_poly("x2^2*x1*x2^[0]*x2", 2, field)
    # terms add after each is multiplied out
    whole = parse_poly(" + ".join(terms[:4] + ["x1^[2]"]).replace("+ -", "- "), 2, field)
    want = parse_poly("x1^[2]", 2, field)
    for term in terms[:4]:
        want = want + _product_of_factors(term, 2, field)
    assert whole == want
    # classical polynomials and operators keep the classical product
    assert parse_classical_poly("x1*x1^[2]*x2", 2, field) == parse_classical_poly("x1^3*x2", 2, field)
    assert parse_operator("a1*a1^[2]", 2, field, 4) == parse_operator("a1^3", 2, field, 4)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_a_repeated_variable_past_the_column_budget_is_refused_before_its_binomial(field):
    # binom(2e20, 1e20) was computed over Z before any window check ran,
    # so the parse never returned
    huge = "x1^[99999999999999999999]"
    with pytest.raises(WindowTooLarge):
        parse_poly(huge + "*" + huge, 1, field)
    with pytest.raises(WindowTooLarge):
        parse_poly("x2*x1^[1000]*x1^[1000]", 2, field)
    # a term of a degree some window holds multiplies out; one that repeats
    # no variable is read as before, and refused later by its window
    assert parse_poly("x1^[1000]*x1^[999]", 1, field) == DPPoly(
        1, field, {(1999,): field.binom(1999, 999)})
    assert parse_poly(huge, 1, field).degree == 99999999999999999999


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


@pytest.mark.parametrize("method", [[], ["--method", "tcompressed"], ["--method", "square"]],
                         ids=["default", "tcompressed", "square"])
def test_cli_reduce_refuses_a_target_without_membership(capsys, method):
    # a target is read by --method membership only: with any other method it
    # is a usage error, not a normal form that ignores it
    argv = ["reduce", *method, "--target", "x1^[4]", "--vars", "2", "x1^[4] + x2^[4]"]
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--target needs --method membership" in captured.err
    assert cli_dispatch(argv[:len(method) + 1] + argv[len(method) + 3:]) == 0


F2 = "x1^[4] + x2^[4] + x1^[2]*x2"
T2 = "x1^[4] + x2^[4]"
F3 = "x1^[4] + x2^[4] + x3^[4] + x1^[2]*x2*x3"

# every subcommand, each reduce method and each golden example, with the
# command, inputs, field and vars its --json report must name
REPORTS = [
    (["hilbert", "--vars", "2", F2], "hilbert", [F2], "q", 2),
    (["ann", "--vars", "3", "--field", "fp:101", F3], "ann", [F3], "fp:101", 3),
    (["tangent", "--unip", "--vars", "2", F2], "tangent", [F2], "q", 2),
    (["perp", "--vars", "3", F3], "perp", [F3], "q", 3),
    (["orbit-dim", "--vars", "2", "--field", "fp:2", "x1*x2^[2] + x2^[3]"],
     "orbit-dim", ["x1*x2^[2] + x2^[3]"], "fp:2", 2),
    (["symdec", "--vars", "1", "--mode", "classical", "x1^4"], "symdec", ["x1^4"], "q", 1),
    (["compressed", "--vars", "2", F2], "compressed", [F2], "q", 2),
    (["reduce", "--vars", "2", "x1^[3] + x2^[3] + x1^[2] + x1"],
     "reduce", ["x1^[3] + x2^[3] + x1^[2] + x1"], "q", 2),
    (["reduce", "--method", "square", "--t", "0", "--vars", "2", "x1^[5] + x2^[5] + x1^[3]"],
     "reduce", ["x1^[5] + x2^[5] + x1^[3]"], "q", 2),
    # a membership report names its target after f, member or not
    (["reduce", "--method", "membership", "--target", T2, "--vars", "2", "--field", "fp:7", F2],
     "reduce", [F2, T2], "fp:7", 2),
    (["reduce", "--method", "membership", "--target", "x1^[3]*x2", "--vars", "2", "x1^[3]*x2 + x2^[3]"],
     "reduce", ["x1^[3]*x2 + x2^[3]", "x1^[3]*x2"], "q", 2),
    (["dense-test", "--vars", "3", F3], "dense-test", [F3], "q", 3),
    (["cangrad-filter", "4", "5"], "cangrad-filter", ["4 5"], "q", None),
    (["golden", "13331"], "golden 13331", [], "q", None),
    (["golden", "1222111"], "golden 1222111", [], "q", None),
    (["golden", "char2"], "golden char2", [], "q", None),
]


@pytest.mark.parametrize("argv, command, inputs, field, n", REPORTS, ids=[r[1] for r in REPORTS])
def test_cli_reports_have_one_shape(capsys, argv, command, inputs, field, n):
    assert cli_dispatch(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["command", "field", "vars", "inputs", "results", "warnings"]
    assert (doc["command"], doc["inputs"], doc["field"], doc["vars"]) == (command, inputs, field, n)
    assert doc["results"] and isinstance(doc["warnings"], list)


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
    ("reduce", "--method", "tcompressed", "0"):
        "ZeroPolynomial: t-compressed normal form of the zero polynomial",
    # the arity is refused before the text is scanned, whatever the text
    ("hilbert", "--vars", "0", "1"): "ArityMismatch: need at least one variable, got 0",
    ("hilbert", "--vars", "0", "x1"): "ArityMismatch: need at least one variable, got 0",
    # a repeated variable's binomial is refused before it is computed
    ("hilbert", "x1^[99999999999999999999]*x1^[99999999999999999999]"):
        "WindowTooLarge: window in 2 variables up to degree 199999999999999999998",
    # ^k is classical syntax: divided-power input refuses it
    ("hilbert", "x1^2"): "write ^[k] for a divided power; ^k is a classical power (--mode classical)",
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
    (["reduce", "--method", "tcompressed", "0"], 2),
    (["hilbert", "--vars", "0", "x1"], 2),
    (["hilbert", "x1^[99999999999999999999]*x1^[99999999999999999999]"], 2),
    (["hilbert", "--field", "fp:5", "x1^[99999999999999999999]*x1^[99999999999999999999]"], 2),
    (["hilbert", "x1^2"], 1),
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
