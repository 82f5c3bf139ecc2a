from fractions import Fraction as Q

import pytest

from apolar import (
    GF,
    QQ,
    DPPoly,
    Operator,
    ann_generators,
    ann_graded,
    contract,
    dim_apolar,
    hilbert_function,
    ideal_square_graded,
    is_compressed,
    is_t_compressed,
    max_t_compressed,
    module_sf,
    span,
    symmetric_decomposition,
)
from apolar.dp import monomials, monomials_upto
from apolar.errors import ZeroPolynomial
from apolar.linalg import Basis, Window
from apolar.parsing import parse_poly

from conftest import random_form, random_poly, with_fractions


def P(n, terms, field=QQ):
    return DPPoly(n, field, {e: field.from_int(c) for e, c in terms.items()})


def test_hilbert_x3y():
    assert hilbert_function(P(2, {(3, 1): 1})) == (1, 2, 2, 2, 1)


def test_hilbert_rank_two_family():
    for d in range(3, 8):
        expect = (1,) + (2,) * (d - 1) + (1,)
        assert hilbert_function(P(2, {(d - 1, 1): 1})) == expect
        assert hilbert_function(P(2, {(d, 0): 1, (0, d): 1})) == expect


def test_hilbert_f_lambda_13431():
    terms = {e: 1 for e in [(4, 0, 0), (0, 4, 0), (0, 0, 4)]}
    for e in monomials(3, 4):
        terms[e] = terms.get(e, 0) + 1  # plain dp fourth power of x+y+z
    assert hilbert_function(P(3, terms)) == (1, 3, 4, 3, 1)


def test_hilbert_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        hilbert_function(DPPoly.zero(2, QQ))


def test_dim_apolar_is_hilbert_total():
    f = P(2, {(3, 1): 1, (2, 0): 1, (1, 0): 2})
    assert dim_apolar(f) == hilbert_function(f).total()


def test_ann_graded_x3y():
    # Ann(x^[3]y)_2 = span{b^2}
    b = ann_graded(P(2, {(3, 1): 1}), 2)
    assert b.dim == 1
    (v,) = b.vectors()
    assert v.terms == {(0, 2): Q(1)}


def test_ann_graded_leading_forms_13331():
    # F2 = x^[3]y + z^[4]: Ann_2 = (ac, b^2, bc)
    F2 = P(3, {(3, 1, 0): 1, (0, 0, 4): 1})
    b = ann_graded(F2, 2)
    assert b.dim == 3
    got = {tuple(sorted(v.terms.items())) for v in b.vectors()}
    expect = {
        (((1, 0, 1), Q(1)),),
        (((0, 2, 0), Q(1)),),
        (((0, 1, 1), Q(1)),),
    }
    assert got == expect
    # F3 = x^[3]y + x^[2]z^[2]: Ann_2 = (b^2, bc, ab - c^2)
    F3 = P(3, {(3, 1, 0): 1, (2, 0, 2): 1})
    b3 = ann_graded(F3, 2)
    assert b3.dim == 3
    assert b3.contains(Operator(3, QQ, {(1, 1, 0): Q(1), (0, 0, 2): Q(-1)}, 2))


def test_ann_generators_rank_two():
    # Ann(x^[d] + y^[d]) = (ab, a^d - b^d)
    f = P(2, {(4, 0): 1, (0, 4): 1})
    gens, _ = ann_generators(f, 5)
    degs = sorted(g.degree for g in gens)
    assert degs == [2, 4]


def test_ideal_square_border_rank_two():
    # F = x^[d-1]y: (Ann F)^2 in degree < d is (b^3)-ish but perp is larger;
    # here just pin (I^2)_3 for d = 5: I = (b^2, a^5), so (I^2)_3 = 0
    F = P(2, {(4, 1): 1})
    assert ideal_square_graded(F, 3).dim == 0
    assert ideal_square_graded(F, 4).dim == 1  # b^4


def test_module_sf():
    f = P(2, {(3, 1): 1})
    assert module_sf(f, 0).dim == dim_apolar(f)
    assert module_sf(f, 4).dim == 1  # only constants
    assert module_sf(f, 5).dim == 0


def test_compressedness():
    cubic = P(2, {(3, 0): 1, (2, 1): 1, (0, 3): 1, (1, 0): 2})
    assert hilbert_function(cubic) == (1, 2, 2, 1)
    assert is_t_compressed(cubic, 1)
    assert max_t_compressed(cubic) == 1
    assert is_compressed(cubic)
    # x^[3]y is 1-compressed but not compressed
    f = P(2, {(3, 1): 1})
    assert max_t_compressed(f) == 1
    assert not is_compressed(f)
    # Hilbert-function input form
    assert is_t_compressed((1, 3, 6, 3, 1), 2)
    assert not is_t_compressed((1, 3, 5, 3, 1), 2)


def test_symdec_homogeneous_concentrated():
    sd = symmetric_decomposition(P(2, {(3, 1): 1}))
    assert sd[0] == (1, 2, 2, 2, 1)
    assert all(all(x == 0 for x in sd[a]) for a in range(1, len(sd)))


def test_symdec_1222111():
    f = parse_poly("x1^[6] + x1^[2]*x2^[2] + 5*x2^[3]", 2, QQ)
    sd = symmetric_decomposition(f)
    assert sd[0] == (1, 1, 1, 1, 1, 1, 1)
    assert sd[2] == (0, 1, 1, 1, 0)
    for a in (1, 3, 4):
        assert all(x == 0 for x in sd[a])


def test_symdec_x4_plus_y2():
    # Delta_2(1) != 0 here: H = (1,2,1,1,1), graded part (1,1,1,1,1)
    sd = symmetric_decomposition(P(2, {(4, 0): 1, (0, 2): 1}))
    assert sd[2][1] != 0


def test_symdec_sum_is_hilbert():
    f = P(2, {(4, 0): 1, (3, 1): 1, (2, 0): 1, (1, 1): 1, (1, 0): 1})
    H = hilbert_function(f)
    sd = symmetric_decomposition(f)
    d = f.degree
    for i in range(d + 1):
        total = sum(delta[i] for a, delta in enumerate(sd) if i <= d - a)
        assert total == H[i]


def test_apolarity_char2():
    f = P(2, {(1, 2): 1, (0, 3): 1}, GF(2))
    assert hilbert_function(f) == (1, 2, 2, 1)
    assert ann_graded(f, 2).contains(Operator(2, GF(2), {(2, 0): 1}, 2))


def test_symdec_degree_one():
    # at d = 1 the decomposition is Delta_0 = H alone
    for n in (1, 2, 3):
        f = P(n, {(1,) + (0,) * (n - 1): 1})
        assert symmetric_decomposition(f) == [(1, 1)]


# ---------------------------------------------------------------------------
# Differential oracle: the Hilbert function from the dimensions of the
# modules m^k -| f, and the symmetric decomposition from explicit subspace
# intersections C_a(i) = (m^{d-a-i} -| f) cap P_{<=i} modulo P_{<=i-1}.


def _reference_hilbert(f):
    d = f.degree
    dims = [module_sf(f, i).dim for i in range(d + 2)]
    return tuple(dims[i] - dims[i + 1] for i in range(d + 1))


def _reference_symdec(f):
    d = f.degree
    win = Window.P_upto(f.n, d, f.field)

    def p_upto(i):
        rows = []
        for col, e in enumerate(win.columns):
            if sum(e) <= i:
                row = [win.field.zero()] * win.dim
                row[col] = win.field.one()
                rows.append(row)
        return Basis(win, rows, reduced=True)

    modules = {k: module_sf(f, k) for k in range(d + 2)}
    lower = {i: p_upto(i) for i in range(-1, d + 1)}

    def dim_c(a, i):
        k = min(d - a - i, d + 1)
        if k < 0:
            return 0
        inter = modules[k].intersect(lower[i])
        return inter.sum(lower[i - 1]).dim - lower[i - 1].dim

    return [
        tuple(dim_c(a, i) - dim_c(a - 1, i) for i in range(d - a + 1))
        for a in range(max(d - 1, 1))
    ]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=str)
def test_profiles_match_intersection_oracle(field, rng):
    for n in (1, 2, 3):
        for d in range(1, 6 if n == 3 else 7):
            polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d)]
            if field.is_rationals:  # non-integer coefficients: rows from D f
                polys += [with_fractions(rng, f) for f in polys]
            for f in polys:
                assert hilbert_function(f) == _reference_hilbert(f), (n, d, f)
                assert symmetric_decomposition(f) == _reference_symdec(f), (n, d, f)


# ---------------------------------------------------------------------------
# Differential oracle: m^k -| f spanned by explicit contractions sigma -| f
# (Fraction arithmetic through ``contract`` and ``Window.encode``).


def _reference_module_sf(f, k):
    d = max(f.degree, 0)
    vecs = []
    for e in monomials_upto(f.n, d):
        if sum(e) < k:
            continue
        g = contract(Operator.monomial(f.n, f.field, e, d), f)
        if not g.is_zero():
            vecs.append(g)
    return span(vecs, Window.P_upto(f.n, d, f.field))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=str)
def test_module_sf_matches_contraction_oracle(field, rng):
    for n in (1, 2, 3, 4):
        for d in range(0, 5 if n == 4 else 6):
            polys = [
                random_form(rng, n, field, d),
                random_poly(rng, n, field, d),
                DPPoly(n, field, {(0,) * n: field.from_int(rng.choice([1, -1]))}),
            ]
            if field.is_rationals:
                polys += [with_fractions(rng, f) for f in polys]
            for f in polys:
                for k in range(d + 2):
                    assert module_sf(f, k) == _reference_module_sf(f, k), (f, k)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_ann_graded_is_the_catalecticant_kernel(field, rng):
    # dim Ann(f)_i = dim S_i - rank of sigma -> sigma -| f, with the image
    # spanned by explicit contractions
    for n in (1, 2, 3):
        for d in range(1, 5):
            polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d)]
            if field.is_rationals:
                polys += [with_fractions(rng, f) for f in polys]
            for f in polys:
                for i in range(d + 2):
                    ann = ann_graded(f, i)
                    assert all(contract(s, f).is_zero() for s in ann.vectors()), (f, i)
                    image = [
                        contract(Operator.monomial(n, field, e, d), f)
                        for e in monomials(n, i)
                    ]
                    rank = span(image, Window.P_upto(n, d, field)).dim
                    assert ann.dim == len(image) - rank, (f, i)
