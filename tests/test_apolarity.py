from fractions import Fraction as Q
from itertools import compress, count
from operator import add

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
from apolar import apolarity, linalg
from apolar.apolarity import (
    _contraction_batches,
    _contraction_rows,
    _filtration_profiles,
    _generator_rows,
    _image,
    _image_batches,
    _products,
    _shift_table,
    _square,
    _square_pieces,
    _unit_products,
)
from apolar.dp import monomials, monomials_upto
from apolar.errors import IndexOutOfRange, WrongHilbertFunction, ZeroPolynomial
from apolar.linalg import (
    Basis,
    Window,
    _check_window_size,
    _dense,
    _echelon,
    _fill,
    _reduced_rows,
    _row_batches,
    _sparse,
    _store,
)
from apolar.parsing import parse_poly

from conftest import (
    all_pieces_square,
    basis_of_kernel,
    random_form,
    random_poly,
    reference_encode,
    square_inputs,
    with_fractions,
)
from test_linalg import _densified, _pivot_stream, _reference_contains


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
    assert dim_apolar(f) == sum(hilbert_function(f))


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


def test_annihilator_of_zero_rejected():
    # Ann(0) = S is generated by 1, which no degree >= 1 scan finds
    for n in (1, 2, 3):
        for field in (QQ, GF(2)):
            zero = DPPoly.zero(n, field)
            with pytest.raises(ZeroPolynomial):
                ann_generators(zero, 2)
            with pytest.raises(ZeroPolynomial):
                ideal_square_graded(zero, 2)


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


def test_t_compressed_needs_t_within_the_socle_degree():
    # t-compressedness needs 1 <= t <= d; no H(i) past the socle degree is read
    f = P(1, {(3,): 1})
    H = hilbert_function(f)
    assert H == (1, 1, 1, 1) and is_t_compressed(f, 1) and is_t_compressed(H, 3)
    assert not is_t_compressed(f, 4) and not is_t_compressed(H, 4)
    assert not is_t_compressed(f, 0) and not is_t_compressed(H, 0)
    assert not is_t_compressed((1,), 1) and not is_t_compressed((1,), 0)


def test_max_t_compressed_tries_t_up_to_half_the_socle_degree():
    # x1^[4] is t-compressed for t = 1 .. 4, but only t <= deg f // 2 is tried
    f = P(1, {(4,): 1})
    assert all(is_t_compressed(f, t) for t in range(1, 5)) and max_t_compressed(f) == 2
    g = P(2, {(3, 0): 1, (0, 3): 1})
    assert is_t_compressed(g, 1) and max_t_compressed(g) == 1


def test_t_compressed_reads_n_off_the_polynomial_or_off_H1():
    # a polynomial is t-compressed in its f.n variables; a bare H in H(1)
    # variables, so x1^[3] in two variables is not 1-compressed while its H is
    f = P(2, {(3, 0): 1})
    assert not is_t_compressed(f, 1) and max_t_compressed(f) == 0
    assert is_t_compressed(hilbert_function(f), 1)


def test_t_compressed_refuses_a_sequence_that_is_no_hilbert_function():
    # (1, 0, 0) and (1, 0, 1) raised ValueError from math.comb; a nonzero
    # polynomial has H(0) = H(d) = 1 and H(1) > 0 once d >= 1
    for H in ((1, 0, 0), (1, 0, 1), (), (0,), (2, 3, 1)):
        for t in (0, 1, 2):
            with pytest.raises(WrongHilbertFunction, match="no nonzero polynomial"):
                is_t_compressed(H, t)
            with pytest.raises(WrongHilbertFunction):
                is_t_compressed(list(H), t)
    assert is_t_compressed((1,), 1) is False and is_t_compressed((1, 2, 1), 1) is True


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
        assert symmetric_decomposition(f) == ((1, 1),)


def test_invariants_compare_unequal_to_what_is_not_a_sequence():
    # comparing with a non-iterable raised TypeError instead of giving False
    f = P(2, {(3, 1): 1, (2, 0): 1})
    H, sd = hilbert_function(f), symmetric_decomposition(f)
    for other in (None, 5, 1.5, object(), [1, 2]):  # [1, 2] is iterable, its entries not
        assert not H == other and H != other and not other == H
        assert not sd == other and sd != other and not other == sd
    assert H == (1, 2, 2, 2, 1) and H != (1, 2)
    assert H == hilbert_function(f) and sd == symmetric_decomposition(f)


def test_equal_invariants_hash_equal():
    # equal invariants hash equal and serve as dict keys; a symmetric
    # decomposition once had __eq__ without __hash__, so hash() raised TypeError
    f, g = P(2, {(3, 1): 1, (2, 0): 1}), P(2, {(3, 1): 2, (2, 0): 2})
    other = P(2, {(4, 0): 1, (0, 2): 1})
    for invariant in (hilbert_function, symmetric_decomposition):
        a, b, c = invariant(f), invariant(g), invariant(other)
        assert a == b and a is not b and hash(a) == hash(b) and a != c
        assert a == tuple(a) and hash(a) == hash(tuple(a))  # equal to the tuple of its entries
        table = {a: "f", c: "other"}
        assert table[b] == "f" and table[invariant(other)] == "other" and len({a, b, c}) == 2


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_symdec_of_a_nonzero_constant(field):
    # at d = 0 the formula gives Delta_0 = (1) = H; it raised ZeroPolynomial
    for n in (1, 2, 3):
        for c in (1, -2, 5):
            f = P(n, {(0,) * n: c}, field)
            assert hilbert_function(f) == (1,)
            assert symmetric_decomposition(f) == ((1,),)


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
        return Basis(win, rows)

    modules = {k: module_sf(f, k) for k in range(d + 2)}
    lower = {i: p_upto(i) for i in range(-1, d + 1)}

    def dim_c(a, i):
        k = min(d - a - i, d + 1)
        if k < 0:
            return 0
        inter = modules[k].intersect(lower[i])
        return inter.sum(lower[i - 1]).dim - lower[i - 1].dim

    return tuple(
        tuple(dim_c(a, i) - dim_c(a - 1, i) for i in range(d - a + 1))
        for a in range(max(d - 1, 1))
    )


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=str)
def test_profiles_match_intersection_oracle(field, rng):
    for n in (1, 2, 3):
        for d in range(1, 6 if n == 3 else 7):
            polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d)]
            if field.is_rationals:  # non-integer coefficients: rows from D f
                polys += [with_fractions(rng, f) for f in polys]
            for f in polys:
                H, sd = hilbert_function(f), symmetric_decomposition(f)
                want_H, want_sd = _reference_hilbert(f), _reference_symdec(f)
                assert H == want_H and hash(H) == hash(want_H), (n, d, f)
                assert sd == want_sd and hash(sd) == hash(want_sd), (n, d, f)
                assert all(type(h) is int for h in H), (n, d, f)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(7)], ids=str)
def test_delta_0_is_the_hilbert_function_of_the_top_degree_form(field, rng):
    # Q(0) is the apolar algebra of the top-degree form F (Iarrobino, Mem.
    # AMS 514, 1994), so Delta_0 = H_F, here H_F(i) = dim S_i - dim Ann(F)_i:
    # one catalecticant per degree, not the filtration profiles' sweep
    same = cases = 0
    for n in (1, 2, 3):
        for d in range(7):
            polys = [random_poly(rng, n, field, d, density=x) for x in (0.2, 0.5, 0.9)]
            for _ in range(3):  # a top-degree form of one or two terms
                tops = rng.sample(monomials(n, d), min(2, len(monomials(n, d))))
                top = P(n, {e: rng.choice([1, -1, 2, 3]) for e in tops}, field)
                polys.append(top + random_poly(rng, n, field, d - 1, force_top=False) if d else top)
            if field.is_rationals:
                polys += [with_fractions(rng, f) for f in polys[:2]]
            for f in polys:
                F = f.tdf()
                want = tuple(len(monomials(n, i)) - ann_graded(F, i).dim for i in range(d + 1))
                assert symmetric_decomposition(f)[0] == want, (n, d, f)
                cases, same = cases + 1, same + (want == tuple(hilbert_function(f)))
    assert 0 < same < cases  # Delta_0 = H on some inputs, not on all


# ---------------------------------------------------------------------------
# Differential oracle for the sparse row builders: the dense builders that
# came before them, kept verbatim, against the sparse rows densified.


def _reference_dense_contraction_rows(f, exps, degrees):
    get = f._num.get
    f_degrees = {sum(t) for t in f._num}
    cols = {i: list(monomials(f.n, i)) for i in degrees}
    zeros = {i: [0] * len(cols[i]) for i in degrees}
    rows = []
    for e in exps:
        s = sum(e)
        row = []
        for i in degrees:
            if i + s in f_degrees:
                row += [get(tuple(map(add, c, e)), 0) for c in cols[i]]
            else:
                row += zeros[i]
        rows.append(row)
    return rows


def _reference_dense_shifted_rows(rows, n, degrees, window):
    index = window.index
    src = [u for i in degrees for u in monomials(n, i)]
    table = [
        [(index[u[:i] + (u[i] + 1,) + u[i + 1:]], u[i] + 1) for u in src]
        for i in range(n)
    ]
    out = []
    for g in rows:
        nonzero = [(j, g[j]) for j in compress(count(), g)]
        shifts = []
        for shift in table:
            row = [0] * window.dim
            for j, c in nonzero:
                col, w = shift[j]
                row[col] = w * c
            shifts.append(row)
        out.append(shifts)
    return out


def _reference_dense_products(n, left, a, right, b, win):
    table = [[win.index[tuple(map(add, u, v))] for v in monomials(n, b)]
             for u in monomials(n, a)]
    out = []
    for g in left:
        for h in right:
            row = [0] * win.dim
            for j in compress(count(), g):
                for k in compress(count(), h):
                    row[table[j][k]] += g[j] * h[k]
            out.append(row)
    return out


def _builder_polys(rng, n, field, d):
    polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d),
             random_poly(rng, n, field, d, density=0.15)]
    if field.is_rationals:
        polys += [with_fractions(rng, f) for f in polys]
    return polys


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_sparse_row_builders_match_the_dense_ones(field, rng):
    # the exponents reach |e| = d + 1 and the columns degree d + 1, where
    # x^e -| f has no terms
    for n in (1, 2, 3, 4):
        for d in range(0, 5 if n == 4 else 6):
            exps = list(monomials_upto(n, d + 1))
            for f in _builder_polys(rng, n, field, d):
                for degrees in (range(d + 2), range(d + 1, -1, -1), (d,), (0, d + 1)):
                    width = sum(len(monomials(n, i)) for i in degrees)
                    sparse = _contraction_rows(f, exps, degrees)
                    assert all(all(row.values()) for row in sparse), f  # nonzero entries only
                    want = _reference_dense_contraction_rows(f, exps, degrees)
                    assert _densified(sparse, width) == want, (f, degrees)
                    # each lazy batch's range holds its rows' columns
                    for lo, hi, rows in _contraction_batches(f, exps, degrees):
                        assert all(lo <= j <= hi for row in rows for j in row), (f, degrees)
                # the shifts of rows over degrees <= d, taken from degrees < d
                win = Window.P_upto(n, d, field)
                inner = len(win.columns) - len(monomials(n, d))
                rows = _contraction_rows(f, exps, range(d + 1))
                table = _shift_table(n, range(d), win.degrees)
                got = [[_image((g, *shift)) for shift in table] for g in rows]
                dense = [row[:inner] for row in _densified(rows, win.dim)]
                want = _reference_dense_shifted_rows(dense, n, range(d), win)
                assert [_densified(shifts, win.dim) for shifts in got] == want, f
                # the lazy batches hold the nonempty shifts, g-major, each
                # batch's range exactly the span of its rows' columns
                batches = [(lo, hi, list(part)) for lo, hi, part in
                           _image_batches([g for g in rows if g], table)]
                assert [row for _, _, part in batches for row in part] == (
                    [shift for shifts in got for shift in shifts if shift]), f
                for lo, hi, part in batches:
                    keys = [j for row in part for j in row]
                    assert (lo, hi) == (min(keys), max(keys)), f
                # the products of the pieces of Ann(f) with S_1 and with each other
                units = [{t: 1} for t in range(n)]
                for i in range(1, d + 2):
                    I, J = ann_graded(f, i - 1), ann_graded(f, 1)
                    win = Window.S_graded(n, i, field)
                    left = _densified(I._rows, I.window.dim)
                    for right, b in ((units, 1), (J._rows, 1)):  # rows over S_1
                        got = _products(n, I._rows, i - 1, right, b, win)
                        assert all(all(row.values()) for row in got), f
                        right = _densified(right, n)
                        want = _reference_dense_products(n, left, i - 1, right, b, win)
                        assert _densified(got, win.dim) == want, (f, i)


# ---------------------------------------------------------------------------
# Differential oracle: the filtration profiles from one ``_echelon`` per k
# of the rows x^e -| D f with |e| >= k (nested row sets, each eliminated
# from scratch), against the one forward sweep.


def _reference_profiles(f):
    d = f.degree
    degrees = range(d, -1, -1)
    col_degree = [i for i in degrees for _ in monomials(f.n, i)]
    exps = list(monomials_upto(f.n, d))
    rows = list(zip(map(sum, exps), _contraction_rows(f, exps, degrees)))
    profiles = []
    for k in range(d + 2):
        _, pivots = _echelon([row for deg, row in rows if deg >= k], f.field)
        prof = [0] * (d + 1)
        for p in pivots:
            prof[col_degree[p]] += 1
        profiles.append(prof)
    return profiles


def _profile_polys(rng, n, field, d):
    """A form, a polynomial, a constant, x_1^[d] plus terms of degree at
    most 1, a sparse top form (x_1^[d] + x_n^[d]) plus dense terms of every
    lower degree, whose batches fill late or never, and a polynomial with
    coefficients that are multiples of the characteristic; over Q also each
    with Fraction coefficients."""
    low = random_poly(rng, n, field, min(d, 1), force_top=False)
    below = random_poly(rng, n, field, max(d - 1, 0), density=0.9, force_top=False)
    top = DPPoly.monomial(n, field, (d,) + (0,) * (n - 1))
    polys = [
        random_form(rng, n, field, d),
        random_poly(rng, n, field, d),
        DPPoly(n, field, {(0,) * n: field.from_int(rng.choice([1, -1, 2]))}),
        top + low,
        top + DPPoly.monomial(n, field, (0,) * (n - 1) + (d,)) + below,
        _vanishing_poly(rng, n, field, d),
    ]
    if field.is_rationals:
        polys += [with_fractions(rng, f) for f in polys]
    return [f for f in polys if not f.is_zero()]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=str)
def test_profiles_match_nested_echelon_oracle(field, rng):
    for n in (1, 2, 3, 4):
        for d in range(0, 5 if n == 4 else 7):
            for f in _profile_polys(rng, n, field, d):
                assert _filtration_profiles(f) == _reference_profiles(f), (n, d, f)


# The route the early-exit sweep replaced, kept as a second oracle: every
# row x^e -| D f over all of P_{<=d}, through one ``_sweep`` whose leads are
# read off in batches by |e| (``_pivot_stream``, a test-side helper).


def _pivot_stream_profiles(f):
    d = f.degree
    _check_window_size(f.n, range(d + 1))
    degrees = range(d, -1, -1)
    col_degree = [i for i in degrees for _ in monomials(f.n, i)]
    exps = list(monomials_upto(f.n, d))
    batches = {k: [] for k in degrees}
    for e, row in zip(exps, _contraction_rows(f, exps, degrees)):
        batches[sum(e)].append(row)
    prof = [0] * (d + 1)
    profiles = [prof]
    for pivots in _pivot_stream(batches.values(), f.field):
        prof = list(prof)
        for p in pivots:
            prof[col_degree[p]] += 1
        profiles.append(prof)
    return profiles[::-1]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=str)
def test_profiles_match_the_pivot_stream_oracle(field, rng):
    for n in (1, 2, 3, 4):
        for d in range(0, 5 if n == 4 else 7):
            for f in _profile_polys(rng, n, field, d):
                assert _filtration_profiles(f) == _pivot_stream_profiles(f), (n, d, f)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_profile_sweep_skips_full_batches_and_rows_past_the_mark(field, rng, monkeypatch):
    # batch k (rows x^e -| D f, |e| = k) lies in P_{<=d-k}, the last
    # dim P_{<=d-k} columns; ``stored`` is keyed by column minus that
    # batch's first column.  The mark is the first column from which every
    # column holds a stored pivot: a swept row leads before it and is a
    # list up to it, and once the mark reaches the batch's first column the
    # batch builds no further row.
    state = {"k": None, "full": set(), "built": 0, "d": 0, "n": 0}
    build = apolarity._profile_row

    def building(get, e, cols):
        state["k"] = k = sum(e)
        assert k not in state["full"], "a row built after batch %d filled" % k
        state["built"] += 1
        return build(get, e, cols)

    def storing(stored, row, p):
        d, n, k = state["d"], state["n"], state["k"]
        cols = sum(len(monomials(n, i)) for i in range(d - k + 1))  # dim P_{<=d-k}
        mark = cols
        while mark - 1 in stored:
            mark -= 1
        lead = next(compress(count(), row))
        assert lead < mark and len(row) == mark, (k, lead, mark, len(row))
        out = _store(stored, row, p)
        if all(j in stored for j in range(cols)):
            state["full"].add(k)
        return out

    monkeypatch.setattr(apolarity, "_profile_row", building)
    monkeypatch.setattr(apolarity, "_store", storing)
    skipped = fills = 0
    for n, d in ((2, 4), (2, 6), (3, 4), (3, 5)):
        for f in (random_poly(rng, n, field, d), random_poly(rng, n, field, d, density=0.9)):
            # the oracle builds its rows through ``_profile_row`` too, so it
            # runs before the count starts
            state.update(full=set(), d=d, n=n)
            want = _reference_profiles(f)
            state["built"] = 0
            assert _filtration_profiles(f) == want, f
            fills += len(state["full"])
            skipped += len(list(monomials_upto(n, d))) - state["built"]
    assert fills > 0 and skipped > 0


def test_hilbert_function_builds_no_echelon_form(monkeypatch):
    # the profiles come from one forward sweep: no reduced echelon form, whose
    # every emission (``_echelon`` and ``_module_rows``) goes through
    # ``_reduced_rows``
    calls = []

    def counting(blocks, p):
        calls.append(len(blocks))
        return _reduced_rows(blocks, p)

    monkeypatch.setattr(linalg, "_reduced_rows", counting)
    monkeypatch.setattr(apolarity, "_reduced_rows", counting)
    f = parse_poly("x1^[4]*x2 + x2^[3]*x3 + x3^[2] + x1", 3, QQ)
    assert hilbert_function(f) == _reference_hilbert(f)
    assert calls  # the counter sees the reference's eliminations
    calls.clear()
    hilbert_function(f)
    symmetric_decomposition(f)
    assert calls == []


# ---------------------------------------------------------------------------
# Differential oracle: m^k -| f spanned by explicit contractions sigma -| f
# (Fraction arithmetic through ``contract``, spanned by ``span``).


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


def test_ann_graded_rejects_a_negative_degree():
    # it returned a Basis of dimension 0 over an empty degree -1 window
    with pytest.raises(IndexOutOfRange, match="got -1"):
        ann_graded(parse_poly("x1^[2]+x2", 2, QQ), -1)


# ---------------------------------------------------------------------------
# Differential oracle for the early-exit sweep of ``ann_graded``: the kernel
# of every catalecticant row, built at once and eliminated by
# ``reference_kernel`` (through ``basis_of_kernel``).


def _reference_ann_graded(f, i):
    n, d = f.n, f.degree
    win = Window.S_graded(n, i, f.field)
    return basis_of_kernel(win, _contraction_rows(f, list(monomials_upto(n, d - i)), (i,)))


def _vanishing_poly(rng, n, field, d):
    """A polynomial of degree d given with integer coefficients, some of
    them multiples of the characteristic (over Q, of 7)."""
    m = field.p or 7
    terms = {e: rng.choice([m, 2 * m, rng.randint(1, 4), -rng.randint(1, 4)])
             for e in monomials_upto(n, d) if rng.random() < 0.6}
    terms[(d,) + (0,) * (n - 1)] = 1
    return DPPoly(n, field, terms)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(101)], ids=str)
def test_ann_graded_matches_the_full_catalecticant_kernel(field, rng):
    # i = 0, injective degrees (Ann(f)_i = 0 with i <= deg f) and
    # i = deg f + 1 .. deg f + 3 (no catalecticant row: Ann(f)_i = S_i)
    injective = 0
    for n in (1, 2, 3):
        for d in range(0, 6):
            polys = _builder_polys(rng, n, field, d) + [_vanishing_poly(rng, n, field, d)]
            for f in polys:
                for i in range(d + 4):
                    got, want = ann_graded(f, i), _reference_ann_graded(f, i)
                    assert got == want, (f, i)
                    injective += 0 < i <= d and want.dim == 0
                    if i > d:
                        assert got.dim == len(monomials(n, i)), (f, i)
    assert injective


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_ann_graded_builds_no_row_past_an_injective_catalecticant(field, rng, monkeypatch):
    # Ann(f)_i = 0: the sweep stops at its w-th stored row, w = dim S_i, and
    # builds no further row and back-substitutes nothing
    built, stored_after = [], []
    rows = apolarity._catalecticant_rows

    def counting(f, i):
        for row in rows(f, i):
            built.append(row)
            yield row

    def recording(stored, row, p):
        lead = _store(stored, row, p)
        stored_after.append(len(stored))
        return lead

    def no_back_substitution(stored, p):
        raise AssertionError("back-substituted an injective catalecticant")

    monkeypatch.setattr(apolarity, "_catalecticant_rows", counting)
    monkeypatch.setattr(linalg, "_store", recording)
    monkeypatch.setattr(linalg, "_back_substitute", no_back_substitution)
    cases, skipped = 0, 0
    for n, d, i in ((2, 6, 2), (2, 7, 3), (3, 4, 1), (3, 6, 2)):
        w = len(monomials(n, i))
        for f in (random_form(rng, n, field, d), random_poly(rng, n, field, d)):
            if _reference_ann_graded(f, i).dim:
                continue
            cases += 1
            built.clear()
            stored_after.clear()
            assert ann_graded(f, i).dim == 0
            assert stored_after[-1] == w and w not in stored_after[:-1], (f, i)
            # every nonempty row built was swept (``_fill`` skips an empty
            # one), and the last row built made the w-th store
            assert len([row for row in built if row]) == len(stored_after) and built[-1], (f, i)
            skipped += len(list(rows(f, i))) - len(built)
    assert cases >= 4 and skipped > 0


# ---------------------------------------------------------------------------
# Differential oracle: generators by a greedy scan of I_i against explicit
# Operator products a_t sigma (membership by ``_reference_contains``), and
# (I^2)_i spanned by Operator products g tau.


def _reference_ann_generators(f, upto):
    n, field = f.n, f.field
    pieces = {i: ann_graded(f, i) for i in range(upto + 1)}
    gens = []
    for i in range(1, upto + 1):
        win = Window.S_graded(n, i, field)
        prods = []
        for sigma in pieces[i - 1].vectors():
            sigma = Operator(n, field, sigma.terms, i)
            for t in range(1, n + 1):
                prods.append(Operator.variable(n, field, t, i) * sigma)
        current = span([p for p in prods if not p.is_zero()], win)
        for v in pieces[i].vectors():
            if not _reference_contains(current, reference_encode(win, v)):
                gens.append(v)
                current = current.sum(span([v], win))
    return gens, pieces


def _reference_ideal_square(f, i):
    n, field = f.n, f.field
    gens, pieces = _reference_ann_generators(f, i)
    prods = []
    for g in gens:
        dg = g.degree
        if dg >= i:
            continue
        g_i = Operator(n, field, g.terms, i)
        for tau in pieces[i - dg].vectors():
            p = g_i * Operator(n, field, tau.terms, i)
            if not p.is_zero():
                prods.append(p)
    return span(prods, Window.S_graded(n, i, field))


def _typed_operators(ops):
    return [(g.trunc, sorted((e, type(c), c) for e, c in g.terms.items())) for g in ops]


def _typed_rows(basis):
    return [[(type(x), x) for x in row] for row in basis.rows]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=str)
def test_ann_generators_and_square_match_product_oracle(field, rng):
    for n in (1, 2, 3):
        for d in range(0, 6):
            polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d)]
            if field.is_rationals:
                polys += [with_fractions(rng, f) for f in polys]
            for f in polys:
                gens, pieces = ann_generators(f, d + 1)
                want, _ = _reference_ann_generators(f, d + 1)
                assert _typed_operators(gens) == _typed_operators(want), (f, d)
                for k in range(1, d + 1):  # truncated below the socle degree
                    got, _ = ann_generators(f, k)
                    assert _typed_operators(got) == _typed_operators(
                        [g for g in want if g.degree <= k]), (f, k)
                for i in range(d + 2):
                    got, want = ideal_square_graded(f, i), _reference_ideal_square(f, i)
                    assert got.window == want.window, (f, i)
                    assert _typed_rows(got) == _typed_rows(want), (f, i)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_squares_from_one_generator_pass_match_each_degree(field, rng):
    # square_ideal_reduce builds Ann(F) once and reads every degree's square
    # off it; the oracle spans g tau, g a generator
    for n in (1, 2, 3):
        for d in range(1, 6):
            f = random_form(rng, n, field, d)
            pieces = _square_pieces(f, d + 1)
            want_gens, want_pieces = _reference_generator_rows(f, d + 1)
            for i in range(d + 2):
                got = _square(pieces, Window.S_graded(n, i, field))
                want = _reference_square(n, want_gens, want_pieces, i)
                assert got == want and _typed_rows(got) == _typed_rows(want), (f, i)
                assert ideal_square_graded(f, i) == got, (f, i)


# ---------------------------------------------------------------------------
# Differential oracle for the row-form generator selection: the same choice
# made by column, one pivot stream over the transpose of the matrix whose
# columns are the products a_t sigma, sigma in I_{i-1}, then the rows of I_i;
# the generators are the rows of I_i at pivot columns.


def _transposed_generator_rows(f, upto):
    pieces = {i: ann_graded(f, i) for i in range(upto + 1)}
    units = [{t: 1} for t in range(f.n)]
    gens = {}
    for i in range(1, upto + 1):
        I = pieces[i]
        products = _products(f.n, pieces[i - 1]._rows, i - 1, units, 1, I.window)
        cols = _densified(products + I._rows, I.window.dim)
        pivots = sorted(next(_pivot_stream([_sparse(zip(*cols))], f.field)))
        gens[i] = [I._rows[c - len(products)] for c in pivots if c >= len(products)]
    return gens, pieces


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_generator_rows_match_the_transposed_selection(field, rng):
    for n in (1, 2, 3):
        for d in range(0, 6):
            polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d)]
            if field.is_rationals:
                polys += [with_fractions(rng, f) for f in polys]
            for f in polys:
                gens, pieces = _generator_rows(f, d + 1)
                want_gens, want_pieces = _transposed_generator_rows(f, d + 1)
                assert gens == want_gens and pieces == want_pieces, f
                for i in range(d + 2):
                    win = Window.S_graded(n, i, field)
                    want = _reference_square(n, want_gens, want_pieces, i)
                    assert _square(pieces, win) == want, (f, i)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_generator_sweep_stops_once_the_products_span_the_piece(field, monkeypatch):
    # I_{d+1} = S_{d+1} for deg f = d, and for x1^[d] + x2^[d] + x3^[d]
    # (Ann generated by a_i a_j, a_1^d - a_j^d) it is S_1 I_d
    swept = []  # the sparse rows made lists for the sweep

    def recording(row, lo, hi, p):
        swept.append(row)
        return _dense(row, lo, hi, p)

    monkeypatch.setattr(linalg, "_dense", recording)
    for d in (2, 3, 4):
        f = parse_poly("x1^[%d] + x2^[%d] + x3^[%d]" % (d, d, d), 3, field)
        swept.clear()
        gens, pieces = _generator_rows(f, d + 1)
        assert pieces[d + 1].dim == len(monomials(3, d + 1)) and gens[d + 1] == []
        assert swept and not any(row is g for row in swept for g in pieces[d + 1]._rows), f
        assert gens == _transposed_generator_rows(f, d + 1)[0], f


# ---------------------------------------------------------------------------
# Differential oracle for the lead-first generator sweep: the eager sweep of
# every product S_1 I_{i-1}, built up front and taken in the order
# (sigma, t), and (I^2)_i read off pieces reaching degree i.


def _reference_generator_rows(f, upto):
    pieces = {i: ann_graded(f, i) for i in range(upto + 1)}
    units = [{t: 1} for t in range(f.n)]
    p, gens = f.field.p, {}
    for i in range(1, upto + 1):
        I, stored = pieces[i], {}
        last = I.window.dim - 1
        products = _products(f.n, pieces[i - 1]._rows, i - 1, units, 1, I.window)
        _fill(stored, products, 0, last, p, I.dim)
        gens[i] = [g for g, lead in _fill(stored, I._rows, 0, last, p, I.dim) if lead is not None]
    return gens, pieces


def _reference_square(n, gens, pieces, i):
    win = pieces[i].window
    rows = []
    for e in range(1, i):
        rows += _products(n, gens[e], e, pieces[i - e]._rows, i - e, win)
    return Basis._of_batches(win, _row_batches(rows))


_LEAD_FIELDS = [QQ, GF(2), GF(3), GF(7), GF(101)]


def _lead_inputs(rng, n, field, d):
    """Dense and sparse inputs of degree d, and x1^[d] + lower, whose
    generator a_1^{d+1} no product reaches: I_d holds no element leading at
    a_1^d, the one degree-d monomial that does not annihilate it."""
    top = DPPoly.monomial(n, field, (d,) + (0,) * (n - 1))
    polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d),
             random_poly(rng, n, field, d, density=0.15),
             top + random_poly(rng, n, field, d - 1, force_top=False)]
    if field.is_rationals:
        polys += [with_fractions(rng, f) for f in polys]
    return polys


@pytest.mark.parametrize("field", _LEAD_FIELDS, ids=str)
def test_lead_first_generator_sweep_matches_the_eager_one(field, rng):
    for n in (1, 2, 3):
        for d in range(0, 7):
            for f in _lead_inputs(rng, n, field, d):
                gens, pieces = _generator_rows(f, d + 1)
                want_gens, want_pieces = _reference_generator_rows(f, d + 1)
                assert gens == want_gens and pieces == want_pieces, f
                if list(f.homogeneous_part(d).terms) == [(d,) + (0,) * (n - 1)]:
                    assert gens[d + 1], f  # x1^[d] + lower: a generator in degree d + 1
                for i in range(d + 2):
                    want = _reference_square(n, want_gens, want_pieces, i)
                    got = _square(pieces, Window.S_graded(n, i, field))
                    assert got == want and _typed_rows(got) == _typed_rows(want), (f, i)
                    assert _typed_rows(ideal_square_graded(f, i)) == _typed_rows(want), (f, i)
                    # the eager pieces of degree e0 .. i - e0, e0 the initial
                    # degree of Ann(f), or none when I_{floor(i/2)} = 0
                    e0 = min((k for k in range(1, i + 1) if want_pieces[k].dim), default=i)
                    below = {k: want_pieces[k] for k in range(e0, i - e0 + 1)}
                    assert _square_pieces(f, i) == (below if want_pieces[i // 2].dim else {}), (f, i)


@pytest.mark.parametrize("field", _LEAD_FIELDS, ids=str)
def test_unit_products_lead_at_the_shifted_pivot(field, rng):
    units = [{t: 1} for t in range(3)]
    for n in (1, 2, 3):
        for d in range(0, 6):
            for f in _lead_inputs(rng, n, field, d):
                for a in range(d + 2):
                    rows, mons = ann_graded(f, a)._rows, monomials(n, a)
                    win = Window.S_graded(n, a + 1, field)
                    eager = _products(n, rows, a, units[:n], 1, win)
                    for k, sigma in enumerate(rows):
                        u = mons[next(iter(sigma))]  # the pivot, sigma's first key
                        assert next(iter(sigma)) == min(sigma), (f, a)
                        for t in range(n):  # a_t sigma leads at a_t lead(sigma)
                            lead = win.columns[min(eager[k * n + t])]
                            assert lead == u[:t] + (u[t] + 1,) + u[t + 1:], (f, a)
                    # one product per distinct lead, then the others, each in
                    # the eager order
                    seen, order = set(), ([], [])
                    for k, row in enumerate(eager):
                        order[min(row) in seen].append(k)
                        seen.add(min(row))
                    first, rest = _unit_products(n, rows, a, win)
                    built = [{cols[j]: x for j, x in sigma.items()} for cols, sigma in first + rest]
                    assert built == [eager[k] for k in order[0] + order[1]], (f, a)
                    assert len(first) == len(order[0]), (f, a)


class _Logged(dict):
    """A canonical row that logs each product built from it (``items``)."""

    def __init__(self, row, log):
        super().__init__(row)
        self.log = log

    def items(self):
        self.log.append("build")
        return super().items()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_products_go_lead_first_and_none_is_built_past_the_cap(field, rng, monkeypatch):
    log = []
    unit_products = apolarity._unit_products

    def logged_products(n, rows, a, win):
        first, rest = unit_products(n, rows, a, win)
        log.append(("degree", a + 1, len(first), len(rest)))
        return ([(cols, _Logged(sigma, log)) for cols, sigma in first],
                [(cols, _Logged(sigma, log)) for cols, sigma in rest])

    def logged_store(stored, row, p):
        reduced = next(compress(count(), row), None) in stored  # a reduction step
        lead = _store(stored, row, p)
        log.append(("store", reduced, len(stored)))
        return lead

    monkeypatch.setattr(apolarity, "_unit_products", logged_products)
    monkeypatch.setattr(linalg, "_store", logged_store)
    seen = set()  # which ways a degree was decided
    polys = [parse_poly("x1^[4] + x2^[4] + x3^[4] + x1^[2]*x2*x3", 3, field)]
    polys += [f for d in (3, 4, 5) for f in _lead_inputs(rng, 3, field, d)]
    for f in polys:
        log.clear()
        gens, pieces = _generator_rows(f, f.degree + 2)
        marks = [k for k, event in enumerate(log) if event[0] == "degree"]
        for start, end in zip(marks, marks[1:] + [len(log)]):
            _, i, n_first, n_rest = log[start]
            events, cap = log[start + 1:end], pieces[i].dim
            if n_first == cap:  # decided by the leads: nothing built or swept
                assert events == [] and gens[i] == [], (f, i)
                seen.add("leads")
                continue
            builds = [k for k, event in enumerate(events) if event == "build"]
            assert builds == list(range(0, 2 * len(builds), 2)), (f, i)
            stores = [events[k + 1] for k in builds]  # each product's own store
            assert len(builds) >= n_first and not any(s[1] for s in stores[:n_first]), (f, i)
            assert all(s[2] < cap for s in stores[:-1]), (f, i)  # none past the cap
            if len(builds) < n_first + n_rest:
                assert stores[-1][2] == cap, (f, i)
                seen.add("cap")
            if any(s[1] for s in stores):
                seen.add("reduced")
    assert seen == {"leads", "cap", "reduced"}


def test_ideal_square_graded_at_the_ends():
    for field in (QQ, GF(2), GF(101)):
        for n in (1, 2, 3):
            f = parse_poly(" + ".join("x%d^[3]" % (t + 1) for t in range(n)), n, field)
            for i in (0, 1):
                square = ideal_square_graded(f, i)
                assert square.window == Window.S_graded(n, i, field) and square.dim == 0
            with pytest.raises(IndexOutOfRange, match="got -1"):
                ideal_square_graded(f, -1)
            zero = DPPoly.zero(n, field)
            for i in (0, 1, 3):
                with pytest.raises(ZeroPolynomial):
                    ideal_square_graded(zero, i)
            with pytest.raises(IndexOutOfRange, match="got -2"):
                ideal_square_graded(zero, -2)
    # (I^2)_4 = I_2 I_2 for I = Ann(x1^[5] + x2^[5]) = (a1 a2, a1^5 - a2^5):
    # the lone product with e = i - e
    for field in (QQ, GF(7), GF(101)):
        f = parse_poly("x1^[5] + x2^[5]", 2, field)
        win = Window.S_graded(2, 4, field)
        square = ideal_square_graded(f, 4)
        assert square == span([Operator.monomial(2, field, (2, 2), 4)], win)
        assert square == _reference_ideal_square(f, 4)


# ---------------------------------------------------------------------------
# Differential oracle for the pieces a square reads: every piece of degree
# 1 .. i - 1 built and every product I_e I_{i-e} spanned
# (``all_pieces_square``), on ``square_inputs``.


@pytest.mark.parametrize("field", _LEAD_FIELDS, ids=str)
def test_ideal_square_graded_matches_the_all_pieces_route(field, rng):
    nonzero = set()  # the fixed inputs' nonzero squares (I^2)_i below deg f
    for n in (1, 2, 3):
        for f in square_inputs(rng, n, field):
            for i in range(f.degree + 3):
                got, want = ideal_square_graded(f, i), all_pieces_square(f, i)
                assert got.window == want.window, (f, i)
                assert _typed_rows(got) == _typed_rows(want), (f, i)
                if got.dim and i < f.degree and f.terms.keys() <= {(4, 0, 0), (0, 4, 0), (5, 0), (0, 5)}:
                    nonzero.add((f.n, f.degree, i))
    assert nonzero == {(3, 4, 2), (3, 4, 3), (2, 5, 4)}


def test_squares_build_only_the_pieces_a_product_reads(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(apolarity, "ann_graded", lambda f, i: calls.append(i) or ann_graded(f, i))
    # I = Ann(x1^[4] + x2^[4]) in three variables has I_1 = span{a3}: I_2
    # first, the walk down to e0 = 1 (I_0 = 0 is not built), then I_3
    f = parse_poly("x1^[4] + x2^[4]", 3, QQ)
    assert ideal_square_graded(f, 4).dim > 0 and calls == [2, 1, 3]
    calls.clear()
    assert ideal_square_graded(f, 1).dim == 0 and calls == []
    # a compressed f has H(floor(d/2)) = dim S_{floor(d/2)}, so
    # Ann(f)_{floor(d/2)} = 0 and (I^2)_d = 0 with no other piece built
    for field in (QQ, GF(101)):
        for n, d in ((2, 4), (2, 5), (3, 4), (3, 5), (4, 4)):
            # a dense random form is compressed but for a few draws
            f = next(g for g in iter(lambda: random_form(rng, n, field, d, density=1), None)
                     if is_compressed(g))
            calls.clear()
            assert ideal_square_graded(f, d).dim == 0
            assert calls == [d // 2], f


def test_ann_generators_decodes_only_degrees_with_generators(rng, monkeypatch):
    decoded = []
    elements = Window._elements
    monkeypatch.setattr(Window, "_elements", lambda win, rows: decoded.append(len(rows)) or
                        elements(win, rows))
    for field in (QQ, GF(7)):
        for f in [parse_poly("x1^[4] + x2^[4] + x3^[4]", 3, field), random_form(rng, 3, field, 4),
                  random_poly(rng, 2, field, 5)]:
            want, _ = _generator_rows(f, f.degree + 2)
            decoded.clear()
            gens, _ = ann_generators(f, f.degree + 2)
            assert decoded == [len(rows) for rows in want.values() if rows], f
            assert len(gens) == sum(decoded) and len(decoded) < len(want), f
