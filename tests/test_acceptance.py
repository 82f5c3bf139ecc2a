"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints exactly one
``criterion NN ... PASS``/``FAIL`` line (run with ``pytest -s`` to see them
live; without ``-s`` pytest shows the lines in its captured-output section
for failures only).
"""

import contextlib
import random
import time
from fractions import Fraction as Q

import pytest

from apolar import (
    GF,
    QQ,
    DPPoly,
    Operator,
    Window,
    ann_graded,
    apply_group_element,
    cangrad_pair_filter,
    dense_orbit_test,
    golden_13331,
    golden_1222111,
    golden_char2,
    hilbert_function,
    ideal_square_graded,
    is_compressed,
    orbit_dimension,
    perp_tangent,
    span,
    t_compressed_normal_form,
    unip_orbit_membership,
)
from apolar.dp import monomials
from apolar.errors import CharacteristicTooSmall, NotInTangent, NotTCompressed
from apolar.parsing import parse_poly

import test_properties
from conftest import random_form, random_poly, random_unipotent


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({desc}): FAIL", flush=True)
        raise
    print(f"criterion {num:2d} ({desc}): PASS", flush=True)


def P(n, terms, field=QQ):
    return DPPoly(n, field, {e: field.from_int(c) for e, c in terms.items()})


F1 = P(3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
F2 = P(3, {(3, 1, 0): 1, (0, 0, 4): 1})
F3 = P(3, {(3, 1, 0): 1, (2, 0, 2): 1})


def test_criterion_01_eleven_quartic_orbit_dimensions():
    with criterion(1, "eleven (1,3,3,3,1) orbit dimensions in under 60s"):
        start = time.perf_counter()
        report = golden_13331()
        elapsed = time.perf_counter() - start
        assert [nf["dim"] for nf in report["normal_forms"]] == [
            29, 28, 28, 27, 27, 26, 27, 26, 26, 25, 24,
        ]
        assert elapsed < 60.0


def test_criterion_02_perp_tangent_bases_of_three_quartics():
    with criterion(2, "unipotent perp bases of F1, F2, F3 in under 5s"):
        start = time.perf_counter()
        b1 = perp_tangent(F1, unipotent=True, max_degree=3)
        b2 = perp_tangent(F2, unipotent=True, max_degree=3)
        b3 = perp_tangent(F3, unipotent=True, max_degree=3)
        elapsed = time.perf_counter() - start
        assert b1.dim == 1
        assert b1.contains(Operator(3, QQ, {(1, 1, 1): Q(1)}, 3))
        assert b2.dim == 2
        assert b2.contains(Operator(3, QQ, {(0, 3, 0): Q(1)}, 3))
        assert b2.contains(Operator(3, QQ, {(0, 2, 1): Q(1)}, 3))
        assert b3.dim == 3
        assert b3.contains(Operator(3, QQ, {(0, 3, 0): Q(1)}, 3))
        assert b3.contains(Operator(3, QQ, {(0, 2, 1): Q(1)}, 3))
        assert b3.contains(Operator(3, QQ, {(1, 2, 0): Q(1), (0, 1, 2): Q(-2)}, 3))
        assert elapsed < 5.0


def test_criterion_03_stabilizer_matrix_at_1_2():
    with criterion(3, "stabilizer matrix of F3 at (a, b) = (1, 2)"):
        from apolar import stabilizer_matrix_13331

        got = stabilizer_matrix_13331(Q(1), Q(2))
        assert got == [
            [Q(64), Q(0), Q(0)],
            [Q(-192), Q(32), Q(0)],
            [Q(216), Q(-72), Q(16)],
        ]


def test_criterion_04_hilbert_function_oracles():
    with criterion(4, "Hilbert function oracles"):
        assert hilbert_function(P(2, {(3, 1): 1})) == (1, 2, 2, 2, 1)

        # sum of fourth powers of x, y, z and x + y + z: the last expands to
        # all degree-4 monomials with coefficient 1
        f = P(3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
        for e in monomials(3, 4):
            f = f + DPPoly.monomial(3, QQ, e)
        assert hilbert_function(f) == (1, 3, 4, 3, 1)

        for d in range(3, 8):
            expect = (1,) + (2,) * (d - 1) + (1,)
            assert hilbert_function(P(2, {(d - 1, 1): 1})) == expect
            assert hilbert_function(P(2, {(d, 0): 1, (0, d): 1})) == expect


def _random_compressed_case(rng, n, d):
    """A compressed form of degree d plus pseudorandom lower-order terms,
    retried until the normal-form algorithm's hypotheses hold."""
    while True:
        F = random_form(rng, n, QQ, d)
        if not is_compressed(F):
            continue
        f = F + random_poly(rng, n, QQ, d - 1, force_top=False)
        if f.tdf() != F:
            continue
        try:
            t, trace = t_compressed_normal_form(f)
        except (NotTCompressed, NotInTangent):
            continue
        return F, f, t, trace


def test_criterion_05_random_compressed_reductions():
    with criterion(5, "20 pseudorandom compressed reductions + degree-5 cases"):
        rng = random.Random(51)
        for n, d in [(2, 3), (3, 3), (2, 4), (3, 4)]:
            for _ in range(5):
                F, f, t, trace = _random_compressed_case(rng, n, d)
                assert t == (1 if d == 3 else 2)
                assert trace.final == F
                assert apply_group_element(trace.accumulated, f) == trace.final
        # (n, d) = (2, 5): 2-compressed, normal form keeps the degree-4 part
        for _ in range(5):
            F, f, t, trace = _random_compressed_case(rng, 2, 5)
            assert t == 2
            assert trace.final.tdf() == F
            rest = trace.final - F
            assert rest.is_zero() or rest.degree == 4
            assert rest.is_zero() or min(sum(e) for e in rest.terms) == 4
            assert apply_group_element(trace.accumulated, f) == trace.final


def test_criterion_06_characteristic_two_behaviour():
    with criterion(6, "characteristic-2 tangent defect and guard"):
        report = golden_char2()
        assert report["tangent_dim"] == 7
        assert report["ambient_dim"] == 10
        f = P(2, {(1, 2): 1, (0, 3): 1}, GF(2))
        with pytest.raises(CharacteristicTooSmall):
            orbit_dimension(f)


def test_criterion_07_orbit_membership():
    with criterion(7, "membership: 10 yes cases and a no case with witness"):
        rng = random.Random(52)
        F = P(2, {(4, 0): 1, (0, 4): 1})
        for _ in range(10):
            f = apply_group_element(random_unipotent(rng, 2, QQ, 4), F)
            res = unip_orbit_membership(F, f)
            assert res.is_member
            assert res.trace.final == F
            assert apply_group_element(res.trace.accumulated, f) == F
        G = P(2, {(3, 1): 1})
        res = unip_orbit_membership(G, G + P(2, {(0, 3): 1}))
        assert not res.is_member
        assert res.witness_degree == 3


def test_criterion_08_degree_six_classification_invariants():
    with criterion(8, "(1,2,2,2,1,1,1) classification invariants"):
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
        for a, delta in enumerate(rep["deltas"]):
            if a not in (0, 2):
                assert all(x == 0 for x in delta)


def _graded_piece(basis, degree):
    """Dimension of the intersection with the span of degree-`degree`
    monomial operators inside the basis window."""
    win = basis.window
    trunc = max(win.degrees)
    monos = [
        Operator(win.n, win.field, {e: win.field.one()}, trunc)
        for e in win.columns
        if sum(e) == degree
    ]
    return basis.intersect(span(monos, win)).dim


def test_criterion_09_binary_nonics_obstruction():
    with criterion(9, "degree-9 binary forms: perp exceeds the square ideal"):
        rng = random.Random(53)
        done = 0
        while done < 5:
            F = random_form(rng, 2, QQ, 9)
            if ann_graded(F, 1).dim != 0:
                continue
            perp = perp_tangent(F, unipotent=False, max_degree=8)
            assert _graded_piece(perp, 8) > ideal_square_graded(F, 8).dim
            assert not dense_orbit_test(F)
            done += 1


def test_criterion_10_pair_filter_exact_list():
    with criterion(10, "small-tangent pair filter matches the exact list"):
        got = {
            (n, d)
            for n in range(1, 11)
            for d in range(2, 13)
            if cangrad_pair_filter(n, d)
        }
        expect = {
            (n, d)
            for n in range(1, 11)
            for d in range(2, 13)
            if d <= 4 or (d == 5 and n <= 6) or (d == 6 and n == 2) or n == 1
        }
        assert got == expect


def test_criterion_11_property_suites(run_once):
    with criterion(11, "nine algebraic-law suites, 1000 cases each"):
        assert len(test_properties.SUITES) == 9
        assert (
            len(test_properties.FIELDS) * test_properties.CASES_PER_FIELD >= 1000
        )
        for suite in test_properties.SUITES:
            run_once(suite)


def test_criterion_12_dense_orbit_evidence():
    # Findings are reported as such; a False answer here is evidence against
    # density of the generic orbit, not a defect in the computation.
    with criterion(12, "dense-orbit evidence for (2,6), (3,5), (4,5)"):
        rng = random.Random(54)
        findings = []
        for n, d in [(2, 6), (3, 5), (4, 5)]:
            F = random_form(rng, n, QQ, d)
            while ann_graded(F, 1).dim != 0:
                F = random_form(rng, n, QQ, d)
            findings.append((n, d, dense_orbit_test(F)))
        for n, d, dense in findings:
            print(
                f"  finding: generic degree-{d} form in {n} variables "
                f"has dense unipotent-times-lower orbit: {dense}",
                flush=True,
            )
