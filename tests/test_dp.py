from fractions import Fraction as Q
from math import gcd

import pytest

from apolar import (
    GF, QQ, ClassicalPoly, DPPoly, Operator, Window, ann_graded, contract, omega, omega_inv, pair,
)
from apolar.dp import ZERO_DEG, grlex_key, monomials, monomials_upto
from apolar.errors import ArityMismatch, CharacteristicTooSmall, FieldMismatch, IndexOutOfRange

from conftest import random_form, random_operator, random_poly, with_fractions


def P(n, terms, field=QQ):
    return DPPoly(n, field, {e: field.from_int(c) for e, c in terms.items()})


def S(n, terms, trunc, field=QQ):
    return Operator(n, field, {e: field.from_int(c) for e, c in terms.items()}, trunc)


def test_monomial_order():
    ms = list(monomials(2, 2))
    assert ms == [(2, 0), (1, 1), (0, 2)]  # lex-descending within a degree
    keys = [grlex_key(e) for e in monomials_upto(2, 3)]
    assert keys == sorted(keys)


def _recursive_monomials(n, d):
    """The recursive definition: the first exponent from d down, then the
    monomials of degree d - first in the remaining n - 1 variables."""
    if n == 1:
        return ((d,),) if d >= 0 else ()
    return tuple(
        (first,) + rest
        for first in range(d, -1, -1)
        for rest in _recursive_monomials(n - 1, d - first)
    )


def test_monomials_match_the_recursive_definition():
    for n in range(1, 7):
        for d in range(-1, 8):
            got = monomials(n, d)
            assert type(got) is tuple and got == _recursive_monomials(n, d), (n, d)
            assert monomials(n, d) is got  # one cached tuple per (n, d)
    # no recursion in n: a one-variable-per-frame definition stops near 1000
    assert monomials(400, 1) == tuple(tuple(int(i == j) for j in range(400)) for i in range(400))


def test_no_monomials_of_negative_degree():
    for n in (1, 2, 3):
        for d in (-1, -2):
            assert list(monomials(n, d)) == []
            assert Window("P", n, (d,), QQ).columns == []
        f = P(n, {(2,) + (0,) * (n - 1): 1})
        with pytest.raises(IndexOutOfRange, match="got -1"):
            ann_graded(f, -1)


def test_dp_product_binomials():
    x = DPPoly.variable(1, QQ, 1)
    # x * x = binom(2,1) x^[2] = 2 x^[2]
    assert (x * x).terms == {(2,): Q(2)}
    # x^[2] * x^[3] = binom(5,2) x^[5] = 10 x^[5]
    assert (P(1, {(2,): 1}) * P(1, {(3,): 1})).terms == {(5,): Q(10)}


def test_dp_product_vanishes_in_small_characteristic():
    x = DPPoly.variable(1, GF(3), 1)
    assert (x * x * x).is_zero()  # 3! = 6 = 0 mod 3
    # but the basis element x^[3] itself is a perfectly good element
    assert not P(1, {(3,): 1}, GF(3)).is_zero()


def test_degree_sentinel():
    assert DPPoly.zero(2, QQ).degree == ZERO_DEG
    assert ZERO_DEG < 0
    assert P(2, {(0, 0): 5}).degree == 0


def test_contract_no_binomial():
    f = P(2, {(3, 1): 1})
    a1 = Operator.variable(2, QQ, 1, 4)
    assert contract(a1, f).terms == {(2, 1): Q(1)}
    a2sq = S(2, {(0, 2): 1}, 4)
    assert contract(a2sq, f).is_zero()
    # whole-monomial contraction gives the bare coefficient
    assert contract(S(2, {(3, 1): 1}, 4), f).terms == {(0, 0): Q(1)}


def test_pairing_adjointness_spot():
    f = P(2, {(3, 1): 1, (2, 2): 5})
    sigma = S(2, {(1, 0): 1, (0, 1): 2}, 4)
    tau = S(2, {(2, 1): 3}, 4)
    assert pair(tau, contract(sigma, f)) == pair(tau * sigma, f)


def test_tdf():
    f = P(2, {(3, 1): 1, (2, 0): 7, (0, 0): 1})
    assert f.tdf() == P(2, {(3, 1): 1})
    assert DPPoly.zero(2, QQ).tdf().is_zero()


def test_operator_truncation_and_order():
    s = S(2, {(1, 0): 1, (3, 1): 1}, 2)
    assert s.terms == {(1, 0): Q(1)}  # degree-4 term truncated away
    assert s.order == 1
    assert Operator.zero(2, QQ, 3).order == 4


def test_operator_inverse():
    u = S(2, {(0, 0): 2, (1, 0): 1, (0, 2): -3}, 4)
    prod = u * u.inverse()
    assert prod == Operator.one(2, QQ, 4)


def test_partial_derivative():
    s = S(2, {(3, 1): 2}, 4)
    assert s.partial_derivative(1).terms == {(2, 1): Q(6)}
    assert s.partial_derivative(2).terms == {(3, 0): Q(2)}
    with pytest.raises(IndexOutOfRange):
        s.partial_derivative(3)


def test_omega_round_trip():
    f = P(2, {(4, 0): 1, (2, 1): 3})
    g = omega(f)
    assert isinstance(g, ClassicalPoly)
    assert g.terms == {(4, 0): Q(1, 24), (2, 1): Q(3, 2)}
    assert omega_inv(g) == f


def test_omega_inv_classical_power():
    g = ClassicalPoly(1, QQ, {(4,): Q(1)})
    assert omega_inv(g).terms == {(4,): Q(24)}


def test_omega_guard():
    f = P(1, {(4,): 1}, GF(3))
    with pytest.raises(CharacteristicTooSmall):
        omega(f)
    # char > deg is fine
    omega(P(1, {(4,): 1}, GF(5)))


def test_mismatch_errors():
    with pytest.raises(ArityMismatch):
        P(2, {(1, 0): 1}) + P(1, {(1,): 1})
    with pytest.raises(FieldMismatch):
        P(2, {(1, 0): 1}) + P(2, {(1, 0): 1}, GF(5))
    with pytest.raises(FieldMismatch):
        S(2, {(1, 0): 1}, 3) + S(2, {(1, 0): 1}, 4)
    with pytest.raises(IndexOutOfRange):
        DPPoly.variable(2, QQ, 3)


def test_exponent_keys_of_the_wrong_length_are_rejected():
    # DPPoly(2, QQ, {(1, 2, 3): 1}) used to be accepted, with degree 6
    for key in ((1, 2, 3), (1,), ()):
        with pytest.raises(ArityMismatch):
            DPPoly(2, QQ, {key: Q(1)})
        with pytest.raises(ArityMismatch):
            Operator(2, QQ, {key: Q(1)}, 2)
    with pytest.raises(ArityMismatch):
        DPPoly(2, QQ, {(1, 0): Q(1), (1,): Q(0)})  # a zero term is checked too


def test_negative_or_non_int_exponents_are_rejected():
    # DPPoly(2, QQ, {(-1, 2): 1}) used to be accepted, with degree 1
    for key in ((-1, 2), (1.0, 2), (True, 0), ("1", 0)):
        with pytest.raises(IndexOutOfRange):
            DPPoly(2, QQ, {(0, 1): Q(1), key: Q(1)})
        with pytest.raises(IndexOutOfRange):
            Operator(2, GF(7), {key: 1}, 2)
    with pytest.raises(IndexOutOfRange):
        Operator(2, QQ, {(5, -1): Q(1)}, 2)  # checked before truncation drops it
    assert DPPoly(2, QQ, {(0, 3): Q(2)}).degree == 3


def test_homogeneous_parts():
    f = P(2, {(3, 1): 1, (2, 0): 7, (1, 0): 2})
    assert f.homogeneous_part(2) == P(2, {(2, 0): 7})
    assert f.part_from(2) == P(2, {(3, 1): 1, (2, 0): 7})


def test_operator_product_rejects_mixed_truncations():
    # a1 at trunc 4 times a1 at trunc 2 gave a1^2 at trunc 4, claiming that
    # its unknown coefficients of degree 3 and 4 were zero
    a4, a2 = Operator.variable(1, QQ, 1, 4), Operator.variable(1, QQ, 1, 2)
    with pytest.raises(FieldMismatch, match="truncation 4 vs 2"):
        a4 * a2
    with pytest.raises(FieldMismatch, match="truncation 2 vs 4"):
        a2 * a4
    assert (a4 * a4).terms == {(2,): Q(1)}


def _reference_opmul(x, y):
    """x * y as the double loop over field coefficients, truncated at x.trunc."""
    f = x.field
    out = {}
    for a, ca in x.terms.items():
        da = sum(a)
        for b, cb in y.terms.items():
            if da + sum(b) > x.trunc:
                continue
            e = tuple(ai + bi for ai, bi in zip(a, b))
            out[e] = f.add(out.get(e, f.zero()), f.mul(ca, cb))
    return Operator(x.n, f, out, x.trunc)


def _product_operands(rng, n, field, trunc):
    """Zero, one, a unit, a dense and a sparse operator, and two of order
    above trunc / 2 (their product is 0); over Q also copies with
    denominators."""
    unit = dict(random_operator(rng, n, field, trunc).terms)
    unit[(0,) * n] = field.from_int(rng.choice((1, -1)))
    ops = [
        Operator.zero(n, field, trunc),
        Operator.one(n, field, trunc),
        Operator(n, field, unit, trunc),
        random_operator(rng, n, field, trunc, density=0.8),
        random_operator(rng, n, field, trunc, min_order=1, density=0.3),
        random_operator(rng, n, field, trunc, min_order=trunc // 2 + 1),
        random_operator(rng, n, field, trunc, min_order=trunc // 2 + 1, density=0.9),
    ]
    if field.is_rationals:
        ops += [with_fractions(rng, op) for op in ops[2:]]
    return ops


def _field_terms(field, pairs):
    """The nonzero field coefficients summed from (exponent, coefficient) pairs."""
    out = {}
    for e, c in pairs:
        out[e] = field.add(out.get(e, field.zero()), c)
    return {e: c for e, c in out.items() if not field.is_zero(c)}


def _reference_scale(x, c):
    f = x.field
    return _field_terms(f, [(e, f.mul(c, v)) for e, v in x.terms.items()])


def _reference_add(x, y):
    return _field_terms(x.field, [*x.terms.items(), *y.terms.items()])


def _reference_dpmul(x, y):
    """x * y over field coefficients, one binomial factor per coordinate."""
    f = x.field
    pairs = []
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            c = f.mul(ca, cb)
            for ai, bi in zip(a, b):
                c = f.mul(c, f.binom(ai + bi, ai))
            pairs.append((tuple(ai + bi for ai, bi in zip(a, b)), c))
    return _field_terms(f, pairs)


def _reference_contract(sigma, g):
    f = g.field
    return _field_terms(f, [
        (tuple(bi - ai for ai, bi in zip(a, b)), f.mul(ca, cb))
        for a, ca in sigma.terms.items()
        for b, cb in g.terms.items()
        if all(bi >= ai for ai, bi in zip(a, b))
    ])


def _reference_pair(tau, g):
    f, gt = g.field, g.terms
    out = f.zero()
    for a, c in tau.terms.items():
        if a in gt:
            out = f.add(out, f.mul(c, gt[a]))
    return out


def _reference_derivative(x, i):
    f = x.field
    return _field_terms(f, [
        (e[: i - 1] + (e[i - 1] - 1,) + e[i:], f.mul(c, f.from_int(e[i - 1])))
        for e, c in x.terms.items()
        if e[i - 1]
    ])


def _assert_matches(got, want):
    """got's terms are the oracle's dict, with the field's types, and its
    stored pair (_den, _num) is canonical."""
    field = got.field
    assert got.terms == want, (got, want)
    den, num = got._den, got._num
    assert set(num) == set(want) and all(type(v) is int and v for v in num.values())
    if field.is_rationals:
        assert all(type(c) is Q for c in got.terms.values())
        assert type(den) is int and den > 0 and gcd(den, *num.values()) == 1
    else:
        assert den == 1 and all(type(c) is int and 0 < c < field.p for c in got.terms.values())
    # the constructor builds the same pair from the oracle's coefficients
    if isinstance(got, Operator):
        twin = Operator(got.n, field, want, got.trunc)
    else:
        twin = type(got)(got.n, field, want)
    assert got == twin and hash(got) == hash(twin)


def _poly_operands(rng, n, field, d):
    """Zero, a constant, a dense and a sparse polynomial of degree d and a
    form of degree d; over Q also copies with denominators."""
    polys = [
        DPPoly.zero(n, field),
        DPPoly.monomial(n, field, (0,) * n, field.from_int(rng.choice((2, -3)))),
        random_poly(rng, n, field, d, density=0.8),
        random_poly(rng, n, field, d, density=0.3),
        random_form(rng, n, field, d),
    ]
    if field.is_rationals:
        polys += [with_fractions(rng, f) for f in polys[1:]]
    return polys


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=repr)
def test_operator_product_matches_fraction_oracle(rng, field):
    """The operator product, and with it the rest of the sparse layer (sums,
    scalings, part filters, DPPoly products, contraction, pairing and
    derivatives), against Fraction-dict oracles on field coefficients."""
    for n in (1, 2, 3):
        for trunc in range(0, 7):
            ops = _product_operands(rng, n, field, trunc)
            for x in ops:
                for y in ops:
                    got, want = x * y, _reference_opmul(x, y)
                    assert got.trunc == trunc
                    _assert_matches(got, want.terms)
    scalars = [field.from_int(c) for c in (0, 1, -1, 3)] + [field.from_fraction(Q(-5, 11))]
    for n in (1, 2, 3):
        for d in range(0, 5):
            polys = _poly_operands(rng, n, field, d)
            ops = _product_operands(rng, n, field, d)
            for x in polys + ops:
                _assert_matches(-x, _reference_scale(x, field.from_int(-1)))
                for c in scalars:
                    _assert_matches(x.scale(c), _reference_scale(x, c))
                for k in range(-1, d + 2):
                    terms = x.terms.items()
                    _assert_matches(x.homogeneous_part(k), {e: c for e, c in terms if sum(e) == k})
                    _assert_matches(x.part_from(k), {e: c for e, c in terms if sum(e) >= k})
            for x in ops:
                for i in range(1, n + 1):
                    _assert_matches(x.partial_derivative(i), _reference_derivative(x, i))
                for t in range(0, d + 2):
                    cut = x._at(t)
                    assert cut.trunc == t
                    _assert_matches(cut, {e: c for e, c in x.terms.items() if sum(e) <= t})
                for y in ops:
                    _assert_matches(x + y, _reference_add(x, y))
                    minus_y = _reference_scale(y, field.from_int(-1))
                    _assert_matches(x - y, _field_terms(field, [*x.terms.items(), *minus_y.items()]))
            for x in polys:
                for y in polys:
                    _assert_matches(x + y, _reference_add(x, y))
                    _assert_matches(x * y, _reference_dpmul(x, y))
                for sigma in ops:
                    _assert_matches(contract(sigma, x), _reference_contract(sigma, x))
                    got, want = pair(sigma, x), _reference_pair(sigma, x)
                    assert got == want and type(got) is type(field.zero())
            # == and hash agree with equality of the decoded terms
            for group in (polys, ops):
                for x in group:
                    for y in group:
                        assert (x == y) == (x.terms == y.terms)
                        assert x != y or hash(x) == hash(y)
    if field.is_rationals:
        # filtering changes the gcd: (x/2 + y^[2]/3) is (3x + 2y^[2]) / 6 and
        # its degree-1 part 3x / 6 must come back as x / 2
        f = DPPoly(2, QQ, {(1, 0): Q(1, 2), (0, 2): Q(1, 3)})
        assert f.homogeneous_part(1) == DPPoly(2, QQ, {(1, 0): Q(1, 2)})
        assert hash(f.homogeneous_part(1)) == hash(DPPoly(2, QQ, {(1, 0): Q(1, 2)}))
        assert (f.homogeneous_part(1)._den, f.homogeneous_part(1)._num) == (2, {(1, 0): 1})


def test_fp_coefficients_are_reduced_on_construction():
    # DPPoly(1, GF(7), {(1,): 7}) used to keep 7: nonzero, degree 1, printed 7*x1
    f = DPPoly(1, GF(7), {(1,): 7})
    assert f.is_zero() and f.degree == ZERO_DEG
    assert repr(f) == "<DPPoly 0>"


def test_fp_operator_coefficients_are_residues():
    # Operator(1, GF(7), {(0,): 8}, 2) used to keep 8, so it differed from 1
    u = Operator(1, GF(7), {(0,): 8, (1,): -1}, 2)
    assert u.homogeneous_part(0) == Operator.one(1, GF(7), 2)
    assert Operator(1, GF(7), {(0,): 8}, 2) == Operator.one(1, GF(7), 2)
    assert u.terms == {(0,): 1, (1,): 6}


def test_coefficients_that_are_not_field_elements_are_rejected():
    # a Fraction over F_p computed as a Fraction (f + f gave Fraction(1, 1)),
    # a float over Q computed in floats
    for field, c in ((GF(7), Q(1, 2)), (GF(7), 0.5), (QQ, 0.5), (QQ, "1"), (GF(7), None)):
        with pytest.raises(FieldMismatch):
            DPPoly(1, field, {(1,): c})
        with pytest.raises(FieldMismatch):
            Operator(1, field, {(0,): field.one(), (5,): c}, 2)  # checked before truncation
        with pytest.raises(FieldMismatch):
            ClassicalPoly(1, field, {(0,): c})
    assert DPPoly(1, QQ, {(1,): 2, (0,): Q(1, 2)}).terms == {(1,): Q(2), (0,): Q(1, 2)}
    assert DPPoly(1, GF(7), {(1,): -1}).terms == {(1,): 6}
