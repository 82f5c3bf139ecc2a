import json
from fractions import Fraction as Q
from importlib import resources

import pytest

from apolar import (
    GF,
    QQ,
    Automorphism,
    Derivation,
    DPPoly,
    GroupElement,
    Operator,
    ReductionTrace,
    Window,
    compose,
    contract,
    exp_group_element,
    apply_group_element,
    golden_13331,
    golden_1222111,
    golden_char2,
    hilbert_function,
    ideal_square_graded,
    identity_group_element,
    improved_normal_form,
    lower_degree_step,
    perp_tangent,
    reduce_toward,
    square_ideal_reduce,
    stabilizer_matrix_13331,
    t_compressed_normal_form,
    tangent_residue,
    unip_orbit_membership,
    unip_tangent_space,
)
from apolar.classify import (
    _CLASSICAL_TAILS_13331,
    _GOLDEN,
    _LEADING_FORMS_13331,
    _NORMAL_FORMS_13331,
    _graded_piece,
    _solve_general_step,
    _solve_homogeneous_step,
    golden_facts,
)
from apolar.cli import _build_parser, cli_dispatch
from apolar.dp import ClassicalPoly, monomials, monomials_upto, omega_inv
from apolar.linalg import Basis, _row_batches, span
from apolar.errors import (
    GoldenMismatch,
    GuardError,
    HypothesisFailed,
    IndexOutOfRange,
    NotInTangent,
    NotTCompressed,
    ReductionFailed,
    TdfMismatch,
    WrongHilbertFunction,
    ZeroPolynomial,
)
from apolar.parsing import parse_classical_poly, parse_poly, poly_str

from conftest import (
    random_form,
    random_poly,
    random_unipotent,
    reference_encode,
    reference_solve,
    with_fractions,
)


def P(n, terms, field=QQ):
    return DPPoly(n, field, {e: field.from_int(c) for e, c in terms.items()})


def test_lower_degree_step_compressed_cubic():
    f = P(2, {(3, 0): 1, (2, 1): 1, (0, 3): 1, (2, 0): 2, (1, 1): 1, (1, 0): 1})
    F = f.tdf()
    g, f2 = lower_degree_step(f, F)
    assert (f2 - F).degree < (f - F).degree
    assert apply_group_element(g, f) == f2


def test_lower_degree_step_not_in_tangent():
    F = P(2, {(3, 1): 1})
    f = F + P(2, {(0, 3): 1})
    with pytest.raises(NotInTangent) as exc:
        lower_degree_step(f, F)
    assert exc.value.degree == 3


def test_lower_degree_step_rejects_equal_input():
    F = P(2, {(3, 1): 1})
    with pytest.raises(ReductionFailed):
        lower_degree_step(F, F)


def test_lower_target_degree_is_an_input_error():
    # f - F has degree 4 >= deg F = 3: the leading forms differ, so this is a
    # guard (exit 2), not an internal failure
    f, F = parse_poly("x1^[4]", 1, QQ), parse_poly("x1^[3]", 1, QQ)
    for call in (lower_degree_step, reduce_toward):
        with pytest.raises(TdfMismatch, match="difference degree 4 not below deg F = 3"):
            call(f, F)


def test_zero_target_is_an_input_error():
    f = parse_poly("x1^[3]+x2", 2, QQ)
    zero = DPPoly.zero(2, QQ)
    for call in (reduce_toward, lower_degree_step):
        with pytest.raises(ZeroPolynomial):
            call(f, zero)
        with pytest.raises(ZeroPolynomial):
            call(zero, zero)


def test_reduce_toward_trace_replay(rng):
    F = P(2, {(4, 0): 1, (0, 4): 1})
    g = random_unipotent(rng, 2, QQ, 4)
    f = apply_group_element(g, F)
    trace = reduce_toward(f, F)
    assert trace.final == F
    assert apply_group_element(trace.accumulated, f) == F


def test_membership_round_trip(rng):
    F = P(2, {(4, 0): 1, (0, 4): 1})
    for _ in range(3):
        f = apply_group_element(random_unipotent(rng, 2, QQ, 4), F)
        res = unip_orbit_membership(F, f)
        assert res.is_member
        assert res.trace.final == F


def test_membership_no_with_witness():
    F = P(2, {(3, 1): 1})
    res = unip_orbit_membership(F, F + P(2, {(0, 3): 1}))
    assert not res.is_member
    assert res.witness_degree == 3


def test_membership_trivial_and_mismatch():
    F = P(2, {(3, 1): 1})
    res = unip_orbit_membership(F, F)
    assert res.is_member and len(res.trace) == 0
    with pytest.raises(TdfMismatch):
        unip_orbit_membership(F, P(2, {(4, 0): 1}))
    with pytest.raises(TdfMismatch):
        unip_orbit_membership(P(2, {(3, 1): 1, (1, 0): 1}), F)


def test_t_compressed_normal_form_cubic():
    f = P(2, {(3, 0): 1, (2, 1): 2, (1, 2): -1, (0, 3): 1,
              (2, 0): 3, (1, 1): 1, (0, 2): -2, (1, 0): 4, (0, 1): 1, (0, 0): 2})
    t, trace = t_compressed_normal_form(f)
    assert t == 1
    assert trace.final == f.tdf()
    assert apply_group_element(trace.accumulated, f) == trace.final


def test_t_compressed_normal_form_of_zero_is_a_zero_polynomial_guard():
    # it raised NotTCompressed("degree -1 < 3"), the zero polynomial's degree
    for field in (QQ, GF(7)):
        with pytest.raises(ZeroPolynomial):
            t_compressed_normal_form(DPPoly.zero(2, field))
    assert cli_dispatch(["reduce", "--method", "tcompressed", "0"]) == 2


def test_t_compressed_rejects_low_degree_and_non_compressed():
    with pytest.raises(NotTCompressed):
        t_compressed_normal_form(P(2, {(2, 0): 1}))
    # x^[4] alone: H = (1,1,1,1,1) is not 1-compressed for n = 2
    with pytest.raises(NotTCompressed):
        t_compressed_normal_form(P(2, {(4, 0): 1}))


def test_t_compressed_degree5_keeps_f4():
    # (n, d) = (2, 5) compressed: normal form is f5 + f4
    f5 = P(2, {(5, 0): 1, (4, 1): 1, (3, 2): 1, (0, 5): 1})
    f4 = P(2, {(2, 2): 1})
    low = P(2, {(3, 0): 1, (2, 0): 1, (1, 0): 1})
    f = f5 + f4 + low
    assert hilbert_function(f) == (1, 2, 3, 3, 2, 1)
    t, trace = t_compressed_normal_form(f)
    assert t == 2
    assert trace.final == f5 + f4


def test_improved_normal_form_1222111():
    f = parse_poly(
        "x1^[6] + x1^[2]*x2^[2] + 5*x2^[3] + x1^[2] + x1*x2 + x2 + 1", 2, QQ
    )
    trace = improved_normal_form(f, 1)
    assert trace.final == parse_poly("x1^[6] + x1^[2]*x2^[2] + 5*x2^[3]", 2, QQ)


def test_improved_normal_form_homogeneous_identity():
    f = P(2, {(3, 1): 1})
    trace = improved_normal_form(f, 1)
    assert len(trace) == 0
    assert trace.final == f


def test_improved_normal_form_hypothesis_failed():
    # Delta_{d-2}(1) != 0 for f = x^[4] + y^[2]
    with pytest.raises(HypothesisFailed):
        improved_normal_form(P(2, {(4, 0): 1, (0, 2): 1}), 1)


def test_improved_normal_form_past_the_socle_degree_fails_its_hypotheses():
    # H(r) = 0 for r > deg f, never maximal: t = 5 > deg x1^[3] asks for H(4)
    with pytest.raises(HypothesisFailed, match=r"H\(4\) is not maximal"):
        improved_normal_form(P(1, {(3,): 1}), 5)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_improved_normal_form_of_a_constant_fails_its_hypotheses(field):
    # a constant has a symmetric decomposition, Delta_0 = (1); the reduction
    # still refuses it: P_{<=1} is not inside m^{t+1} -| f, and H(1) = 0
    f = P(2, {(0, 0): 5}, field)
    with pytest.raises(HypothesisFailed, match="P_{<=1} not inside m"):
        improved_normal_form(f, 0)
    with pytest.raises(HypothesisFailed, match=r"H\(1\) is not maximal"):
        improved_normal_form(f, 1)


def test_square_ideal_reduce_rank_two():
    f = P(2, {(5, 0): 1, (0, 5): 1, (3, 0): 1, (2, 1): 1, (1, 0): 2})
    trace = square_ideal_reduce(f, 0)
    assert trace.final == f.tdf()


def test_square_ideal_reduce_rank_n():
    # F = x^[4]+y^[4]+z^[4], t = 4: normal form F + g with deg g <= 3
    F = P(3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    f = F + P(3, {(1, 1, 1): 1, (1, 1, 0): 1, (1, 0, 0): 1})
    trace = square_ideal_reduce(f, 4)
    assert (trace.final - F).degree <= 3
    assert trace.final.tdf() == F


def test_square_ideal_reduce_builds_the_annihilator_once(monkeypatch):
    # each degree i = t..d-1 rebuilt Ann(F)_0..i: 28 pieces here; the
    # squares up to degree d - 1 = 6 read the pieces below 6 only
    import apolar.apolarity as apolarity

    calls = []
    ann_graded = apolarity.ann_graded
    monkeypatch.setattr(apolarity, "ann_graded", lambda f, i: calls.append(i) or ann_graded(f, i))
    f = P(2, {(7, 0): 1, (0, 7): 1, (3, 0): 1, (2, 1): 1, (1, 0): 2})
    assert square_ideal_reduce(f, 0).final == f.tdf()
    assert sorted(calls) == list(range(6))


def test_square_ideal_reduce_names_a_negative_t():
    with pytest.raises(IndexOutOfRange, match="t >= 0, got t = -1"):
        square_ideal_reduce(P(2, {(3, 0): 1, (1, 0): 1}), -1)
    # the zero polynomial reached char_guard with degree -1 (a ValueError)
    with pytest.raises(ZeroPolynomial):
        square_ideal_reduce(P(1, {}), 0)


def test_square_ideal_reduce_border_rank_two_fails():
    with pytest.raises(HypothesisFailed):
        square_ideal_reduce(P(2, {(4, 1): 1, (2, 0): 1}), 0)


def test_square_ideal_reduce_builds_only_what_a_checked_degree_needs(monkeypatch, capsys):
    # for t >= deg f no degree is checked: no perp and no square data are
    # built, and a constant gets its zero-step trace (the perp's degree
    # bound d - 1 = -1 was refused with IndexOutOfRange)
    import apolar.classify as classify

    quintic = P(2, {(5, 0): 1, (0, 5): 1, (3, 0): 1, (2, 1): 1, (1, 0): 2})
    built = []
    perp, square_rows = classify.perp_tangent, classify._square_rows
    monkeypatch.setattr(classify, "perp_tangent", lambda *args, **kw: built.append("perp") or
                        perp(*args, **kw))
    monkeypatch.setattr(classify, "_square_rows", lambda *args: built.append("squares") or
                        square_rows(*args))
    for t in (5, 6, 10):
        trace, want = square_ideal_reduce(quintic, t), reduce_toward(quintic, quintic.tdf(), t)
        assert [f for _, f in trace.steps] == [f for _, f in want.steps] and trace.final == quintic
    for field in (QQ, GF(7)):
        trace = square_ideal_reduce(P(2, {(0, 0): 3}, field), 0)
        assert trace.steps == [] and trace.final == P(2, {(0, 0): 3}, field)
    assert built == []
    assert cli_dispatch(["reduce", "--method", "square", "--t", "10", "--vars", "2",
                         "x1^[5] + x2^[5] + x1^[3] + x1^[2]*x2 + 2*x1"]) == 0
    assert built == []
    capsys.readouterr()
    assert cli_dispatch(["reduce", "--json", "--method", "square", "3"]) == 0
    out = json.loads(capsys.readouterr().out)["results"]
    assert out == {"normal_form": "3", "trace": {"steps": 0, "intermediate": [], "final": "3"}}
    assert built == []
    # a checked degree builds both, once
    square_ideal_reduce(quintic, 4)
    assert built == ["perp", "squares"]


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=repr)
def test_graded_pieces_are_the_canonical_rows_of_their_degree(field, rng):
    # oracle: each degree's piece as the span of every perp row restricted
    # to that degree's columns, echeloned again
    for n, d in ((1, 4), (2, 3), (2, 5), (3, 4), (4, 3)):
        for F in (random_form(rng, n, field, d), random_form(rng, n, field, d, density=0.3)):
            perp = perp_tangent(F, unipotent=True, max_degree=d - 1)
            for i in range(d):
                win_i = Window.S_graded(n, i, field)
                lo = perp.window.index[win_i.columns[0]]
                hi = lo + win_i.dim
                want = Basis._of_batches(win_i, _row_batches(
                    [{c - lo: x for c, x in row.items() if lo <= c < hi} for row in perp._rows]))
                assert _graded_piece(perp, win_i) == want, (F, i)


def _reference_square_failure(F, t):
    """The first degree i in t..d-1 where the unipotent tangent perp of the
    form F differs from (Ann F)^2, or None.  The perp's homogeneous vectors
    of each degree are decoded and re-spanned by ``span``."""
    d = F.degree
    perp = perp_tangent(F, unipotent=True, max_degree=d - 1).vectors()
    for i in range(t, d):
        vecs_i = [v for v in perp if not v.is_zero() and all(sum(e) == i for e in v.terms)]
        if span(vecs_i, Window.S_graded(F.n, i, F.field)) != ideal_square_graded(F, i):
            return i
    return None


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_square_ideal_reduce_matches_the_homogeneous_vector_route(field):
    # the leading forms of the golden examples (13331's F1, F2, F3 and
    # 1222111's x^[6]) and two binary forms, one of border rank two
    forms = [parse_poly(text, 3, field) for text in _LEADING_FORMS_13331.values()] + [
        P(2, terms, field) for terms in ({(6, 0): 1}, {(4, 1): 1}, {(5, 0): 1, (0, 5): 1})
    ]
    outcomes = set()
    for F in forms:
        if field.p and field.p <= F.degree:
            continue
        for t in range(F.degree + 1):
            want = _reference_square_failure(F, t)
            outcomes.add(want)
            if want is None:
                assert square_ideal_reduce(F, t).final == F
            else:
                with pytest.raises(HypothesisFailed) as exc:
                    square_ideal_reduce(F, t)
                assert exc.value.degree == want, (F, t)
    assert None in outcomes and len(outcomes) > 2  # both answers, several degrees


def test_golden_13331():
    report = golden_13331()
    assert [nf["dim"] for nf in report["normal_forms"]] == [
        29, 28, 28, 27, 27, 26, 27, 26, 26, 25, 24,
    ]


def test_golden_expectations_live_only_in_the_data_files(tmp_path, monkeypatch, capsys):
    data = resources.files("apolar.data")
    for which in ("13331", "1222111", "char2"):
        name = "golden_%s.json" % which
        (tmp_path / name).write_text(data.joinpath(name).read_text())
    expected = json.loads((tmp_path / "golden_13331.json").read_text())
    expected["dims"][0] += 1
    (tmp_path / "golden_13331.json").write_text(json.dumps(expected))
    monkeypatch.setattr(resources, "files", lambda package: tmp_path)
    with pytest.raises(GoldenMismatch) as exc:
        golden_13331()
    assert exc.value.diffs == ["dims: %r != expected %r" % (
        [29, 28, 28, 27, 27, 26, 27, 26, 26, 25, 24],
        [30, 28, 28, 27, 27, 26, 27, 26, 26, 25, 24],
    )]
    assert cli_dispatch(["golden", "13331"]) == 3
    assert "GoldenMismatch" in capsys.readouterr().err
    # the untouched examples still pass against their copies
    assert cli_dispatch(["golden", "char2"]) == 0
    assert golden_char2()["facts"]["tangent_dim"] == 7


# The (1,3,3,3,1) forms as the fragment dicts they were merged from before
# they were written as printed polynomials: an oracle for the parsed ones.
_F1 = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
_F2 = {(3, 1, 0): 1, (0, 0, 4): 1}
_F3 = {(3, 1, 0): 1, (2, 0, 2): 1}
_XYZ = {(1, 1, 1): 1}
_Y3 = {(0, 3, 0): 1}
_Y2Z = {(0, 2, 1): 1}
_YZ2 = {(0, 1, 2): 1}


def _merge(*dicts):
    out = {}
    for d in dicts:
        for e, c in d.items():
            out[e] = out.get(e, 0) + c
    return out


_DICT_NORMAL_FORMS_13331 = [
    ("f_{1,1}", _merge(_F1, _XYZ)),
    ("f_{1,0}", _F1),
    ("f_{2,11}", _merge(_F2, _Y3, _Y2Z)),
    ("f_{2,10}", _merge(_F2, _Y3)),
    ("f_{2,01}", _merge(_F2, _Y2Z)),
    ("f_{2,00}", _F2),
    ("f_{3,101}", _merge(_F3, _Y3, _YZ2)),
    ("f_{3,100}", _merge(_F3, _Y3)),
    ("f_{3,010}", _merge(_F3, _Y2Z)),
    ("f_{3,001}", _merge(_F3, _YZ2)),
    ("f_{3,000}", _F3),
]


def test_printed_13331_forms_are_the_dict_built_ones():
    def parsed(table):
        return [(name, parse_poly(text, 3, QQ)) for name, text in table.items()]

    leading = [("F1", P(3, _F1)), ("F2", P(3, _F2)), ("F3", P(3, _F3))]
    assert parsed(_LEADING_FORMS_13331) == leading
    assert parsed(_NORMAL_FORMS_13331) == [(name, P(3, t)) for name, t in _DICT_NORMAL_FORMS_13331]
    # each is written as it prints
    for name, f in parsed(_LEADING_FORMS_13331) + parsed(_NORMAL_FORMS_13331):
        assert poly_str(f) == {**_LEADING_FORMS_13331, **_NORMAL_FORMS_13331}[name]
    tails = [omega_inv(parse_classical_poly(t, 3, QQ)) for t in _CLASSICAL_TAILS_13331]
    assert tails == [omega_inv(ClassicalPoly(3, QQ, {e: Q(c) for e, c in t.items()}))
                     for t in (_Y3, _Y2Z, _YZ2)]


def test_golden_facts_reads_one_table():
    # an unknown name returned the (1,2,2,2,1,1,1) facts
    for which in ("bogus", "", "13331 "):
        with pytest.raises(GuardError, match="unknown golden example"):
            golden_facts(which)
    choices = next(a for a in _build_parser()._subparsers._group_actions[0].choices["golden"]
                   ._actions if a.dest == "which").choices
    assert list(choices) == list(_GOLDEN) == ["13331", "1222111", "char2"]
    assert golden_facts("char2") == golden_char2()["facts"]


def test_stabilizer_matrix_symbolic_form():
    for a, b in [(Q(1), Q(2)), (Q(3), Q(1)), (Q(-2), Q(5))]:
        got = stabilizer_matrix_13331(a, b)
        expect = [
            [b ** 6, Q(0), Q(0)],
            [Q(-6) * a * b ** 5, b ** 5, Q(0)],
            [Q(27, 2) * a * a * b ** 4, Q(-9, 2) * a * b ** 4, b ** 4],
        ]
        assert got == expect


def test_golden_char2():
    report = golden_char2()
    assert report["tangent_dim"] == 7
    assert report["ambient_dim"] == 10


def test_golden_1222111_normal_form_input():
    f = parse_poly("x1^[6] + x1^[2]*x2^[2] + 5*x2^[3]", 2, QQ)
    rep = golden_1222111(f)
    assert rep["lambda"] == Q(5)
    assert rep["normal_form"] == f


def test_golden_1222111_with_junk():
    f = parse_poly(
        "x1^[6] + x1^[2]*x2^[2] + 5*x2^[3] + 2*x1^[4] + x1^[3]*x2 + x1^[3] "
        "- x1^[2]*x2 + x1^[2] + 2*x1*x2 + x1 + 3*x2 + x2^[2] + 1",
        2,
        QQ,
    )
    rep = golden_1222111(f)
    assert rep["lambda"] == Q(5)
    assert rep["normal_form"] == parse_poly(
        "x1^[6] + x1^[2]*x2^[2] + 5*x2^[3]", 2, QQ
    )
    assert rep["deltas"][0] == (1, 1, 1, 1, 1, 1, 1)
    assert rep["deltas"][2] == (0, 1, 1, 1, 0)


@pytest.mark.parametrize("text, field, lam, normal_form, normalised", [
    # c = 4 = 2^2: y -> y / 2 takes lambda to 5 / 8
    pytest.param("x1^[6] + 4*x1^[2]*x2^[2] + 5*x2^[3]", QQ, Q(5, 8),
                 "x1^[6] + x1^[2]*x2^[2] + 5/8*x2^[3]", True, id="square"),
    # c = 9/4: y -> 2y / 3 takes lambda to -2 * 8 / 27
    pytest.param("x1^[6] + 9/4*x1^[2]*x2^[2] - 2*x2^[3] + 2*x1^[4] + x1^[3]*x2 + x1*x2 + 1",
                 QQ, Q(-16, 27), "x1^[6] + x1^[2]*x2^[2] - 16/27*x2^[3]", True,
                 id="square-with-junk"),
    # a degree-4 term besides: neither the degree-4 step nor y -> y / 2 alone
    # lowers the degree of the difference to the normal form below 4, so the
    # two are one step of the trace
    pytest.param("x1^[6] + 4*x1^[2]*x2^[2] + 5*x2^[3] + x1^[4]", QQ, Q(5, 8),
                 "x1^[6] + x1^[2]*x2^[2] + 5/8*x2^[3]", True, id="square-with-x1^[4]"),
    pytest.param("x1^[6] + 4*x1^[2]*x2^[2] + 5*x2^[3] + x1^[3]*x2", QQ, Q(5, 8),
                 "x1^[6] + x1^[2]*x2^[2] + 5/8*x2^[3]", True, id="square-with-x1^[3]*x2"),
    # c = 2 is not a rational square
    pytest.param("x1^[6] + 2*x1^[2]*x2^[2] + 5*x2^[3]", QQ, Q(5),
                 "x1^[6] + 2*x1^[2]*x2^[2] + 5*x2^[3]", False, id="not-a-square"),
    # over F_p nothing is normalised
    pytest.param("x1^[6] + 4*x1^[2]*x2^[2] + 5*x2^[3]", GF(101), 5,
                 "x1^[6] + 4*x1^[2]*x2^[2] + 5*x2^[3]", False, id="GF(101)"),
])
def test_golden_1222111_c_normalisation(text, field, lam, normal_form, normalised):
    rep = golden_1222111(parse_poly(text, 2, field))
    trace = rep["trace"]
    assert rep["lambda"] == lam
    assert rep["normal_form"] == parse_poly(normal_form, 2, field) == trace.final
    assert rep["c_normalised"] is normalised
    assert apply_group_element(trace.accumulated, trace.start) == trace.final
    assert rep["deltas"][0] == (1, 1, 1, 1, 1, 1, 1)
    assert rep["deltas"][2] == (0, 1, 1, 1, 0)


def test_golden_1222111_distinct_lambdas_distinct_forms():
    f1 = parse_poly("x1^[6] + x1^[2]*x2^[2] + 5*x2^[3] + x1^[2]", 2, QQ)
    f2 = parse_poly("x1^[6] + x1^[2]*x2^[2] + 7*x2^[3] + x1^[2]", 2, QQ)
    r1, r2 = golden_1222111(f1), golden_1222111(f2)
    assert r1["lambda"] != r2["lambda"]
    assert r1["normal_form"] != r2["normal_form"]


def test_golden_1222111_wrong_hilbert_function():
    with pytest.raises(WrongHilbertFunction):
        golden_1222111(parse_poly("x1^[6] + 5*x2^[3]", 2, QQ))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_golden_1222111_clears_degree_5(field):
    # x1^[5] is a tangent direction of x1^[6]; it must not survive into the
    # normal form
    rep = golden_1222111(parse_poly("x1^[6] + x1^[5] + x1^[2]*x2^[2] + 5*x2^[3]", 2, field))
    assert rep["normal_form"] == parse_poly("x1^[6] + x1^[2]*x2^[2] + 5*x2^[3]", 2, field)
    assert rep["lambda"] == field.from_int(5)


@pytest.mark.parametrize("field, cs", [
    (QQ, [1, 2, 3, -1, 5]),  # 1 or not a rational square: c is kept
    (GF(7), [1, 2, 3, 5, 6]),
    (GF(101), [1, 2, 3, 7, 50]),
], ids=str)
def test_golden_1222111_recovers_random_unipotent_images(field, cs, rng):
    for _ in range(25):
        lam = field.from_int(rng.randint(-3, 3))
        nf = P(2, {(6, 0): 1, (2, 2): rng.choice(cs)}, field) + P(2, {(0, 3): lam}, field)
        rep = golden_1222111(apply_group_element(random_unipotent(rng, 2, field, 6), nf))
        trace = rep["trace"]
        assert rep["normal_form"] == nf == trace.final
        assert rep["lambda"] == lam
        assert apply_group_element(trace.accumulated, trace.start) == trace.final


def test_golden_1222111_y4_term_is_the_other_branch():
    with pytest.raises(HypothesisFailed, match=r"x\^\[6\] \+ y\^\[4\] branch"):
        golden_1222111(parse_poly("x1^[6] + x2^[4]", 2, QQ))
    # read off the degree-4 residue, after the degree-5 step
    with pytest.raises(HypothesisFailed, match=r"y\^\[4\] coefficient nonzero"):
        golden_1222111(parse_poly("3*x1^[6] + x1^[5] + 3*x2^[4] + x1", 2, QQ))


def test_golden_1222111_xy3_term_is_not_standard_form(monkeypatch):
    import apolar.classify as classify

    # an x y^[3] residue raises H(2) to 3, so the guard is reached only past
    # a Hilbert function stubbed to the expected one
    f = parse_poly("x1^[6] + x1^[2]*x2^[2] + x1*x2^[3]", 2, QQ)
    with pytest.raises(WrongHilbertFunction):
        golden_1222111(f)
    expected = (1, 2, 2, 2, 1, 1, 1)
    monkeypatch.setattr(classify, "hilbert_function", lambda f: expected)
    with pytest.raises(ReductionFailed, match=r"x\*y\^\[3\] term left"):
        golden_1222111(f)


def test_golden_1222111_vanished_c_is_a_reduction_failure(monkeypatch):
    import apolar.classify as classify

    # c = 0 drops H(3) to 1, so the guard is reached only past a Hilbert
    # function stubbed to the expected one
    f = parse_poly("x1^[6] + 5*x2^[3] + x1^[2]", 2, QQ)
    with pytest.raises(WrongHilbertFunction):
        golden_1222111(f)
    expected = (1, 2, 2, 2, 1, 1, 1)
    monkeypatch.setattr(classify, "hilbert_function", lambda f: expected)
    with pytest.raises(ReductionFailed, match=r"x\^\[2\]y\^\[2\] coefficient vanished"):
        golden_1222111(f)


@pytest.mark.parametrize("text, merges", [
    (json.loads(resources.files("apolar.data").joinpath("golden_1222111.json").read_text())["input"], 0),
    # c = 4: y -> y / 2 merges with the degree-4 step before it
    ("x1^[6] + 4*x1^[2]*x2^[2] + 5*x2^[3] + x1^[3]*x2 + x1^[2] + x2", 1),
    ("x1^[6] + 4*x1^[2]*x2^[2] + 5*x2^[3] + x1^[2] + x2", 0),
])
def test_golden_1222111_composes_each_step_once(text, merges, monkeypatch):
    import apolar.classify as classify

    calls = []
    orig = classify.compose
    monkeypatch.setattr(classify, "compose", lambda *args: calls.append(args) or orig(*args))
    trace = golden_1222111(parse_poly(text, 2, QQ))["trace"]
    assert len(trace) >= 2
    # one compose per merge, then the trace's own fold; no prefix trace is
    # folded on the way
    assert len(calls) == merges + len(trace) - 1


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
def test_tangent_residue_is_zero_exactly_when_a_step_clears_the_degree(field, rng):
    outcomes = set()
    for n in (1, 2, 3):
        for d in (3, 4, 5):
            for f in [
                random_poly(rng, n, field, d, density=0.4),
                random_form(rng, n, field, d, density=0.15) + random_poly(rng, n, field, d - 1),
            ]:
                for e in range(f.degree):
                    f_e = f.homogeneous_part(e)
                    if f_e.is_zero():
                        continue
                    step, residue = tangent_residue(f, e)
                    try:
                        lower_degree_step(f, f - f_e)
                        cleared = True
                    except NotInTangent:
                        cleared = False
                    assert residue.is_zero() == cleared, (f, e, residue)
                    outcomes.add(cleared)
                    # the step keeps every degree above e and leaves the residue
                    g = step[1] if step else f
                    assert g.part_from(e) == f.part_from(e + 1) + residue, (f, e)
    assert outcomes == {True, False}


def test_tangent_residue_of_13331_normal_forms_is_their_tail():
    for name, text in _NORMAL_FORMS_13331.items():
        f = parse_poly(text, 3, QQ)
        step, residue = tangent_residue(f, 3)
        assert step is None and residue == f.homogeneous_part(3), name
    with pytest.raises(IndexOutOfRange):
        tangent_residue(parse_poly(_LEADING_FORMS_13331["F3"], 3, QQ), 4)


def test_reduce_toward_composes_each_step_once(monkeypatch, rng):
    import apolar.classify as classify

    calls = []
    for name in ("compose", "identity_group_element"):
        orig = getattr(classify, name)
        monkeypatch.setattr(
            classify, name, lambda *args, _orig=orig, _name=name: calls.append(_name) or _orig(*args)
        )
    F = P(2, {(4, 0): 1, (0, 4): 1})
    trace = reduce_toward(apply_group_element(random_unipotent(rng, 2, QQ, 4), F), F)
    assert len(trace) >= 2
    # the trace folds its steps' elements, seeded with the last one
    assert calls == ["compose"] * (len(trace) - 1)


def test_reduce_toward_forms_one_difference_per_step(monkeypatch, rng):
    # each step hands the next the difference f' - F it formed, so the
    # loop subtracts F once from f and once from each f'
    import apolar.classify as classify

    F = P(2, {(4, 0): 1, (0, 4): 1})
    f = apply_group_element(random_unipotent(rng, 2, QQ, 4), F)
    minuends, sub = [], DPPoly.__sub__

    def counting(a, b):
        if b is F:
            minuends.append(a)
        return sub(a, b)

    monkeypatch.setattr(DPPoly, "__sub__", counting)
    # the trace's replay subtracts F again; only the loop is counted
    monkeypatch.setattr(classify, "ReductionTrace", lambda start, target, steps: steps)
    for stop_degree in (None, 3):
        minuends.clear()
        steps = reduce_toward(f, F, stop_degree)
        assert steps and [id(a) for a in minuends] == [id(a) for a in [f] + [g for _, g in steps]]


def test_trace_dimension_invariant(rng):
    from apolar import dim_apolar

    F = P(2, {(4, 0): 1, (0, 4): 1})
    f = apply_group_element(random_unipotent(rng, 2, QQ, 4), F)
    trace = reduce_toward(f, F)
    dims = {dim_apolar(f)} | {dim_apolar(r) for _, r in trace.steps}
    assert dims == {dim_apolar(F)}


# ---------------------------------------------------------------------------
# The step solvers against a column-by-column construction of the same
# systems: every column x_i (a^e -| F) and a^e -| F is computed with
# ``contract`` and the DPPoly product and encoded into the window one at a
# time, over the field's own scalars (no integer rows, no scaling by D).


def _reference_homogeneous_step(G, F):
    n, field = F.n, F.field
    T = F.tdf()
    d, e = T.degree, G.degree
    trunc = d
    win = Window.P_graded(n, e, field)
    cols = []
    labels = []  # (i, exps) with i = -1 for the tau block
    for i in range(n):
        xi = DPPoly.variable(n, field, i + 1)
        for exps in monomials(n, d - e + 1):
            v = xi * contract(Operator.monomial(n, field, exps, trunc), T)
            cols.append(reference_encode(win, v))
            labels.append((i, exps))
    for exps in monomials(n, d - e):
        v = contract(Operator.monomial(n, field, exps, trunc), T)
        cols.append(reference_encode(win, v))
        labels.append((-1, exps))
    rows = [[c[r] for c in cols] for r in range(win.dim)]
    sol = reference_solve(rows, reference_encode(win, G), field, len(cols))
    if sol is None:
        return None
    d_terms = [{} for _ in range(n)]
    tau_terms = {}
    for (i, exps), c in zip(labels, sol):
        if field.is_zero(c):
            continue
        if i < 0:
            tau_terms[exps] = c
        else:
            d_terms[i][exps] = c
    images = [
        Operator.variable(n, field, i + 1, trunc)
        - Operator(n, field, d_terms[i], trunc)
        for i in range(n)
    ]
    unit = Operator.one(n, field, trunc) - Operator(n, field, tau_terms, trunc)
    return GroupElement(Automorphism(images), unit)


def _reference_general_step(G, F):
    n, field = F.n, F.field
    d = F.degree
    trunc = d
    win = Window.P_upto(n, d - 1, field)
    cols = []
    labels = []
    for i in range(n):
        xi = DPPoly.variable(n, field, i + 1)
        for exps in monomials_upto(n, d):
            if sum(exps) < 2:
                continue
            v = xi * contract(Operator.monomial(n, field, exps, trunc), F)
            cols.append(reference_encode(win, v))
            labels.append((i, exps))
    for exps in monomials_upto(n, d):
        if sum(exps) < 1:
            continue
        v = contract(Operator.monomial(n, field, exps, trunc), F)
        cols.append(reference_encode(win, v))
        labels.append((-1, exps))
    rows = [[c[r] for c in cols] for r in range(win.dim)]
    sol = reference_solve(rows, reference_encode(win, G), field, len(cols))
    if sol is None:
        return None
    d_terms = [{} for _ in range(n)]
    tau_terms = {}
    for (i, exps), c in zip(labels, sol):
        if field.is_zero(c):
            continue
        if i < 0:
            tau_terms[exps] = field.neg(c)
        else:
            d_terms[i][exps] = field.neg(c)
    D = Derivation([Operator(n, field, d_terms[i], trunc) for i in range(n)])
    tau = Operator(n, field, tau_terms, trunc)
    return exp_group_element(D, tau)


def _parts(g):
    if g is None:
        return None
    return [im.terms for im in g.aut.images], g.unit.terms, g.trunc


def _reference_accumulate(trace):
    """The steps' group elements composed one at a time into the identity
    element of truncation max(deg start, deg target, 1)."""
    f, F = trace.start, trace.target
    acc = identity_group_element(f.n, f.field, max(f.degree, F.degree, 1))
    for g, _ in trace.steps:
        acc = compose(acc, g)
    return acc


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
def test_trace_accumulates_like_the_fold_from_the_identity(field, rng):
    F = P(2, {(4, 0): 1, (0, 4): 1}, field)
    cubic = P(2, {(3, 0): 1, (2, 1): 2, (1, 2): -1, (0, 3): 1, (2, 0): 3, (1, 1): 1,
                  (0, 2): -2, (1, 0): 4, (0, 1): 1, (0, 0): 2}, field)
    quintic = P(2, {(5, 0): 1, (0, 5): 1, (3, 0): 1, (2, 1): 1, (1, 0): 2}, field)
    golden = [
        "x1^[6] + x1^[2]*x2^[2] + 5*x2^[3] + 2*x1^[4] + x1^[3]*x2 + x1^[3] "
        "- x1^[2]*x2 + x1^[2] + 2*x1*x2 + x1 + 3*x2 + x2^[2] + 1",
        "x1^[6] + 4*x1^[2]*x2^[2] + 5*x2^[3] + x1^[3]*x2 + x1^[2] + x2",
    ]
    traces = [
        unip_orbit_membership(F, F).trace,
        unip_orbit_membership(F, apply_group_element(random_unipotent(rng, 2, field, 4), F)).trace,
        t_compressed_normal_form(cubic)[1],
        square_ideal_reduce(quintic, 0),
    ] + [golden_1222111(parse_poly(text, 2, field))["trace"] for text in golden]
    for trace in traces:
        assert _parts(trace.accumulated) == _parts(_reference_accumulate(trace))
    assert len(traces[0]) == 0 and max(map(len, traces)) >= 3


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
def test_membership_traces_in_three_variables_accumulate_like_the_fold_from_the_identity(
    field, rng
):
    # the fold from the last step seeds with the last element, whose unit
    # clears the constant term and is not constant; the steps before it
    # have the unit 1
    F = parse_poly("x1^[4] + x2^[4] + x3^[4]", 3, field)
    members = [parse_poly("x1^[4] + x2^[4] + x3^[4] + x1^[2]*x2 + x3 + 2", 3, field)]
    members += [apply_group_element(random_unipotent(rng, 3, field, 4), F) for _ in range(3)]
    units = []
    for f in members:
        trace = unip_orbit_membership(F, f).trace
        assert _parts(trace.accumulated) == _parts(_reference_accumulate(trace))
        units += [g.unit.degree for g, _ in trace.steps]
    assert max(units) > 0 and min(units) == 0


def test_validate_rejects_a_result_the_element_does_not_replay():
    F = P(2, {(4, 0): 1, (0, 4): 1})
    trace = reduce_toward(parse_poly("x1^[4] + x2^[4] + x1^[2]*x2 + x1 + 2", 2, QQ), F)
    assert len(trace) >= 2
    g, result = trace.steps[-1]
    steps = trace.steps[:-1] + [(g, result + P(2, {(0, 0): 1}))]
    with pytest.raises(ReductionFailed, match="accumulated element does not replay the trace"):
        ReductionTrace(trace.start, F, steps)


def test_validate_rejects_a_step_that_does_not_lower_the_difference():
    # an identity step replays, so only the degree check catches it: after
    # the last step, and between the first two
    F = P(2, {(4, 0): 1, (0, 4): 1})
    trace = reduce_toward(parse_poly("x1^[4] + x2^[4] + x1^[2]*x2 + x1 + 2", 2, QQ), F)
    one = identity_group_element(2, QQ, 4)
    for steps in (
        trace.steps + [(one, trace.final)],
        trace.steps[:1] + [(one, trace.steps[0][1])] + trace.steps[1:],
    ):
        with pytest.raises(ReductionFailed, match="difference degree did not decrease"):
            ReductionTrace(trace.start, F, steps)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
def test_step_solvers_match_reference_oracle(field, rng):
    solved = {True: 0, False: 0}
    for n in (1, 2, 3):
        for d in (3, 4, 5):
            # a dense F (its tangent space is usually all of P_{<= d-1}) and
            # a sparse form (usually not), over Q also with fractional
            # coefficients, so that D != 1 scales the right side
            targets = [
                random_poly(rng, n, field, d, density=0.6),
                random_form(rng, n, field, d, density=0.1),
            ]
            if field.is_rationals:
                targets += [with_fractions(rng, F) for F in targets]
            for F in targets:
                basis = unip_tangent_space(F).vectors()
                v = DPPoly.zero(n, field)
                for b in basis:
                    v = v + b.scale(field.from_int(rng.randint(-3, 3)))
                Gs = [random_form(rng, n, field, rng.randrange(d - 2, d))]
                if not v.is_zero():
                    Gs.append(v.tdf())
                for G in Gs:
                    for new, ref in [
                        (_solve_homogeneous_step, _reference_homogeneous_step),
                        (_solve_general_step, _reference_general_step),
                    ]:
                        got = new(G, F)
                        assert _parts(got) == _parts(ref(G, F)), (new.__name__, F, G)
                        solved[got is not None] += 1
                if not v.is_zero() and v.tdf() != v:
                    got = _solve_general_step(v, F)
                    assert got is not None
                    assert _parts(got) == _parts(_reference_general_step(v, F))
    # both consistent and inconsistent systems were exercised
    assert solved[True] and solved[False]
