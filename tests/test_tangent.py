import math
from fractions import Fraction as Q
from itertools import product
from operator import ge, sub

import pytest

from apolar import (
    GF,
    QQ,
    DPPoly,
    Operator,
    Window,
    cangrad_pair_filter,
    contract,
    dense_orbit_test,
    orbit_dimension,
    perp_tangent,
    span,
    tangent_space,
    unip_tangent_space,
)
from apolar import apolarity, linalg, tangent
from apolar.apolarity import _contraction_rows, _module_rows, module_sf
from apolar.dp import monomials, monomials_upto
from apolar.errors import (
    CharacteristicTooSmall,
    CrossCheckFailed,
    TdfMismatch,
    ZeroPolynomial,
)
from apolar.linalg import Basis, _row_batches, _sparse, _store, _sweep
from apolar.parsing import parse_poly
from apolar.tangent import _perp_of, _tangent_batches

from conftest import (
    basis_of_kernel,
    random_form,
    random_poly,
    with_fractions,
)
from test_linalg import _densified, _integer_row, _pivot_stream


def P(n, terms, field=QQ):
    return DPPoly(n, field, {e: field.from_int(c) for e, c in terms.items()})


F1 = P(3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
F2 = P(3, {(3, 1, 0): 1, (0, 0, 4): 1})
F3 = P(3, {(3, 1, 0): 1, (2, 0, 2): 1})


def test_tangent_of_power_is_everything():
    f = P(1, {(5,): 1})
    assert tangent_space(f).dim == 6  # all of P_{<=5}


def test_tangent_of_max_rank_quadric_is_open():
    q = P(2, {(2, 0): 1, (0, 2): 1})
    assert tangent_space(q).dim == Window.P_upto(2, 2, QQ).dim


def test_unip_tangent_rank_one():
    # f = x^[d]: span{x^[r] m : m in P_{<=1}, r + 1 < d}
    f = P(2, {(4, 0): 1})
    b = unip_tangent_space(f)
    expect = []
    for r in range(3):  # r + 1 < 4
        for m in [(0, 0), (1, 0), (0, 1)]:
            expect.append((r + m[0], m[1]))
    assert b.dim == len({e for e in expect})
    for e in expect:
        assert b.contains(DPPoly.monomial(2, QQ, e))


def test_unip_subspace_of_full(rng):
    f = random_form(rng, 2, QQ, 4) + P(2, {(2, 0): 1, (1, 0): 1})
    assert tangent_space(f).contains(unip_tangent_space(f))


def test_homogeneous_tangent_has_homogeneous_basis():
    for v in unip_tangent_space(F3).vectors():
        degs = {sum(e) for e in v.terms}
        assert len(degs) == 1


def test_perp_unip_13331_leading_forms():
    got1 = perp_tangent(F1, unipotent=True, max_degree=3)
    assert got1.dim == 1
    assert got1.contains(Operator(3, QQ, {(1, 1, 1): Q(1)}, 3))
    got2 = perp_tangent(F2, unipotent=True, max_degree=3)
    assert got2.dim == 2
    assert got2.contains(Operator(3, QQ, {(0, 3, 0): Q(1)}, 3))
    assert got2.contains(Operator(3, QQ, {(0, 2, 1): Q(1)}, 3))
    got3 = perp_tangent(F3, unipotent=True, max_degree=3)
    assert got3.dim == 3
    assert got3.contains(Operator(3, QQ, {(0, 3, 0): Q(1)}, 3))
    assert got3.contains(Operator(3, QQ, {(0, 2, 1): Q(1)}, 3))
    assert got3.contains(
        Operator(3, QQ, {(1, 2, 0): Q(1), (0, 1, 2): Q(-2)}, 3)
    )
    # up to the socle degree the perp is the whole complement of the tangent
    # space, full and unipotent
    win_dim = Window.P_upto(3, 4, QQ).dim
    for tang, unipotent in [(tangent_space(F2), False), (unip_tangent_space(F2), True)]:
        assert tang.dim + perp_tangent(F2, unipotent=unipotent).dim == win_dim


def test_perp_border_rank_two():
    # x^[d-1]y: perp-unip_{<d} = (b^3)_{<d}
    F = P(2, {(4, 1): 1})
    b = perp_tangent(F, unipotent=True, max_degree=4)
    assert b.dim == 3
    for e in [(0, 3), (1, 3), (0, 4)]:
        assert b.contains(Operator(2, QQ, {e: Q(1)}, 4))


def test_perp_rank_two():
    # x^[d]+y^[d]: perp-unip_{<d} = ((ab)^2)_{<d}
    F = P(2, {(5, 0): 1, (0, 5): 1})
    b = perp_tangent(F, unipotent=True, max_degree=4)
    assert b.dim == 1
    assert b.contains(Operator(2, QQ, {(2, 2): Q(1)}, 4))


def test_perp_full_vs_unip_below_degree(rng):
    # for homogeneous F the two perps agree in degrees < d
    F = random_form(rng, 2, QQ, 5)
    full = perp_tangent(F, unipotent=False, max_degree=4)
    unip = perp_tangent(F, unipotent=True, max_degree=4)
    assert full == unip


def test_orbit_dimension_values():
    assert orbit_dimension(F1 + P(3, {(1, 1, 1): 1})) == 29
    assert orbit_dimension(F3) == 24
    q = P(2, {(2, 0): 1, (0, 2): 1})
    assert orbit_dimension(q) == 6


def test_orbit_dimension_refuses_small_characteristic():
    f = P(2, {(1, 2): 1, (0, 3): 1}, GF(2))
    with pytest.raises(CharacteristicTooSmall):
        orbit_dimension(f)
    # but the tangent space itself is available
    assert tangent_space(f).dim == 7


def test_char2_counterexample():
    F = GF(2)
    f = P(2, {(1, 2): 1, (0, 3): 1}, F)
    sigma = Operator(2, F, {(2, 0): 1}, 3)
    assert perp_tangent(f, unipotent=False, max_degree=3).contains(sigma)
    assert tangent_space(f).dim < Window.P_upto(2, 3, F).dim


def test_dense_orbit_x3y2_false():
    F = P(2, {(3, 2): 1})
    assert not dense_orbit_test(F)
    b = perp_tangent(F, unipotent=False, max_degree=4)
    assert b.contains(Operator(2, QQ, {(0, 4): Q(1)}, 4))


def test_dense_orbit_binary_quintic_true(rng):
    F = P(2, {(5, 0): 1, (4, 1): 1, (3, 2): 2, (2, 3): -1, (1, 4): 1, (0, 5): 3})
    assert dense_orbit_test(F)


def test_dense_orbit_rejects_inhomogeneous():
    with pytest.raises(TdfMismatch, match="homogeneous form"):
        dense_orbit_test(P(2, {(3, 0): 1, (1, 0): 1}))
    with pytest.raises(ZeroPolynomial):
        dense_orbit_test(P(2, {}))


# Differential oracle: the tangent spaces spanned by the generators of the
# defining formula, sigma -| f for sigma in m^k and tau -| (x_i f) for tau in
# m^{k+1} (k = 0 full, k = 1 unipotent), before the product-rule pruning.


def _reference_tangent(f, unipotent):
    n, field = f.n, f.field
    d = max(f.degree, 0)
    min_sigma, min_tau = (1, 2) if unipotent else (0, 1)
    vecs = []
    for e in monomials_upto(n, d):
        if sum(e) < min_sigma:
            continue
        g = contract(Operator.monomial(n, field, e, d), f)
        if not g.is_zero():
            vecs.append(g)
    shifted = [DPPoly.variable(n, field, i + 1) * f for i in range(n)]
    for e in monomials_upto(n, d + 1):
        if sum(e) < min_tau:
            continue
        sigma = Operator.monomial(n, field, e, d + 1)
        for xf in shifted:
            g = contract(sigma, xf)
            if not g.is_zero():
                vecs.append(g)
    return span(vecs, Window.P_upto(n, d, field))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=str)
def test_pruned_tangent_matches_generator_oracle(field, rng):
    for n in (1, 2, 3, 4):
        for d in range(0, 5 if n == 4 else 6):
            polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d)]
            if field.is_rationals and n < 4:  # non-integer coefficients: rows from D f
                polys += [with_fractions(rng, f) for f in polys]
                for f in polys[2:]:  # raises CrossCheckFailed if the routes differ
                    perp_tangent(f)
                    perp_tangent(f, unipotent=True)
            for f in polys:
                assert tangent_space(f) == _reference_tangent(f, False)
                assert unip_tangent_space(f) == _reference_tangent(f, True)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
@pytest.mark.parametrize("unipotent", [False, True])
def test_cross_check_rejects_a_wrong_tangent_basis(monkeypatch, field, unipotent):
    # The tangent route's rows B of m^k f with one row dropped, or with one
    # row changed at a column that is no pivot of the tangent space (so no
    # pivot of B), span another tangent space: the changed row lies outside
    # the true one.  Its perp differs from the direct route's.
    module_rows = tangent._module_rows
    for F in (F2, F3):
        f = P(3, {e: int(c) for e, c in F.terms.items()}, field)
        kept, B = module_rows(f, 2 if unipotent else 1)
        tang = unip_tangent_space(f) if unipotent else tangent_space(f)
        assert perp_tangent(f, unipotent) == tang.perp()  # the true B passes
        pivots = {next(iter(row)) for row in tang._rows}
        free = next(c for c in range(next(iter(B[0])) + 1, tang.window.dim) if c not in pivots)
        changed = dict(sorted({**B[0], free: B[0].get(free, 0) + 1}.items()))
        for wrong in (B[1:], [changed] + B[1:]):
            monkeypatch.setattr(tangent, "_module_rows", lambda *args: (kept, wrong))
            with pytest.raises(CrossCheckFailed):
                perp_tangent(f, unipotent)
            monkeypatch.undo()


# Differential oracle for the direct perp: every equation row of the defining
# conditions, with no implied row dropped and each m scanning all of f's terms.


def _reference_perp_direct(f, unipotent, max_degree):
    n, field = f.n, f.field
    win = Window.S_upto(n, max_degree, field)
    index = win.index
    d = max(f.degree, 0)
    min_m = 1 if unipotent else 0
    eqs = []
    for m in monomials_upto(n, d):
        if sum(m) < min_m:
            continue
        below = [
            (tuple(map(sub, t, m)), c)
            for t, c in f._num.items()
            if all(map(ge, t, m))
        ]
        if not below:
            continue
        row = [0] * win.dim
        for e, c in below:
            j = index.get(e)
            if j is not None:
                row[j] = c
        eqs.append(row)
        if sum(m) > min_m:
            for i in range(n):
                row = [0] * win.dim
                for e, c in below:
                    j = index.get(e[:i] + (e[i] + 1,) + e[i + 1:])
                    if j is not None:
                        row[j] = (e[i] + 1) * c
                eqs.append(row)
    return basis_of_kernel(win, _sparse(eqs))


def _kept(f, unipotent, max_degree):
    """The rows of m^k f that the direct perp keeps for ``max_degree``: the
    pivot rows of the sweep of them over P_{<= max_degree}."""
    return _module_rows(f, 2 if unipotent else 1, range(max_degree + 1))[0]


def _direct(f, unipotent, max_degree):
    """The direct route's perp: ``_perp_of`` the rows that ``_kept`` gives."""
    win = Window.S_upto(f.n, max_degree, f.field)
    return _perp_of(f, 2 if unipotent else 1, win, _kept(f, unipotent, max_degree))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=str)
def test_perp_direct_matches_unpruned_oracle(field, rng):
    for n in (1, 2, 3, 4):
        for d in range(0, 5 if n == 4 else 6):
            polys = [
                random_form(rng, n, field, d),
                random_poly(rng, n, field, d),
                random_poly(rng, n, field, d, density=0.15),
            ]
            if field.is_rationals:
                polys += [with_fractions(rng, f) for f in polys]
            for f in polys:
                for unipotent in (False, True):
                    for max_degree in sorted({0, max(d - 1, 0), d, d + 1}):
                        assert _direct(f, unipotent, max_degree) == (
                            _reference_perp_direct(f, unipotent, max_degree)
                        )


def _capture_equations(monkeypatch):
    """Record the equations ``_perp_of`` hands its kernel: the batches
    of its one ``_sweep`` in ``tangent``, each built in full (and then swept
    as built), as rows in the original column order of S_{<= max_degree}.
    Returns the list each call appends its rows to."""
    captured = []

    def capture(batches, p):
        batches = [(lo, hi, list(rows)) for lo, hi, rows in batches]
        captured.append([row for _, _, part in batches for row in part])
        return _sweep(batches, p)

    monkeypatch.setattr(tangent, "_sweep", capture)
    return captured


def _unreversed(rows, ncols):
    """Column-reversed rows over ``ncols`` columns, in the original order."""
    return [{ncols - 1 - j: x for j, x in row.items()} for row in rows]


@pytest.mark.parametrize("n, d", [(3, 4), (4, 5)])
@pytest.mark.parametrize("unipotent", [False, True])
def test_perp_direct_drops_implied_equations(monkeypatch, rng, n, d, unipotent):
    # Kept: the binom(n+k-2, k-1) rows of |m| = k - 1 and, for a basis of
    # m^k f, its rows and their n shifts.  Without the pruning every m below
    # a term of f brings n + 1 rows.
    f = random_form(rng, n, QQ, d)
    k = 2 if unipotent else 1
    module = _module_rows(f, k)
    captured = _capture_equations(monkeypatch)
    got = _perp_of(f, k, Window.S_upto(n, d, QQ), module[0])
    monkeypatch.undo()
    assert len(captured[0]) <= math.comb(n + k - 2, k - 1) + (n + 1) * module_sf(f, k).dim
    assert got == _reference_perp_direct(f, unipotent, d)


# Differential oracle for the direct perp's equations: the dense loop that
# came before the sparse rows, kept verbatim (its (t - m, f_t) lists built
# from the divisors of f's terms), yields the same nonzero equation rows, in
# the same order, as the direct route hands its kernel.


def _reference_dense_perp_eqs(f, unipotent, max_degree):
    n, field = f.n, f.field
    win = Window.S_upto(n, max_degree, field)
    index = win.index
    d = max(f.degree, 0)
    min_m = 1 if unipotent else 0
    below = {}
    for t, c in f._num.items():
        for m in product(*(range(ti + 1) for ti in t)):
            below.setdefault(m, []).append((tuple(map(sub, t, m)), c))
    eqs, stored = [], {}
    for m in monomials_upto(n, d):
        if sum(m) < min_m or m not in below:
            continue
        row = [0] * win.dim
        for e, c in below[m]:
            j = index.get(e)
            if j is not None:
                row[j] = c
        if sum(m) == min_m:
            eqs.append(row)
            continue
        if _store(stored, _integer_row(row, field), field.p) is None:
            continue
        eqs.append(row)
        for i in range(n):
            row = [0] * win.dim
            for e, c in below[m]:
                j = index.get(e[:i] + (e[i] + 1,) + e[i + 1:])
                if j is not None:
                    row[j] = (e[i] + 1) * c
            eqs.append(row)
    return eqs


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_perp_direct_keeps_the_equations_of_the_dense_loop(field, rng, monkeypatch):
    captured = _capture_equations(monkeypatch)
    for n in (1, 2, 3, 4):
        for d in range(0, 5 if n == 4 else 6):
            polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d),
                     random_poly(rng, n, field, d, density=0.15)]
            if field.is_rationals:
                polys += [with_fractions(rng, f) for f in polys]
            for f in polys:
                for unipotent in (False, True):
                    for max_degree in sorted({0, max(d - 1, 0), d, d + 1}):
                        captured.clear()
                        _direct(f, unipotent, max_degree)
                        (eqs,) = captured
                        dim = Window.S_upto(n, max_degree, field).dim
                        got = [row for row in _densified(_unreversed(eqs, dim), dim) if any(row)]
                        want = [row for row in _reference_dense_perp_eqs(f, unipotent, max_degree)
                                if any(row)]
                        assert len(got) == len(want) and got == want, (f, unipotent, max_degree)


# Differential oracles for the shared sweep of m^k f: the routes that came
# before it, kept verbatim.  The tangent rows shifted the canonical rows of
# the ``Basis`` of m^k f, echeloned on its own, and the direct perp swept its
# own rows restricted to S_{<= max_degree} to decide its drops.


def _shifted_rows(rows, n, degrees, window):
    """The sparse integer rows of x_1 g, ..., x_n g for each sparse integer
    row g in ``rows``.

    g is a row over the monomials of ``degrees`` (in order, grlex within a
    degree, as ``_contraction_rows`` lays them out), and its entries past
    those columns are dropped: each shift is that of g restricted to
    ``degrees``.  x_i x^[u] = (u_i + 1) x^[u + e_i] places each shift in
    ``window``, which holds every x^[u + e_i]; over F_p a weight u_i + 1
    may vanish.  The column tables (columns, weights) are built once per
    call.  Returns one list of n rows per g.
    """
    index = window.index
    src = [u for i in degrees for u in monomials(n, i)]
    table = [
        ([index[u[:i] + (u[i] + 1,) + u[i + 1:]] for u in src], [u[i] + 1 for u in src])
        for i in range(n)
    ]
    width, out = len(src), []
    for g in rows:
        nonzero = [(j, c) for j, c in g.items() if j < width]
        out.append([{cols[j]: ws[j] * c for j, c in nonzero} for cols, ws in table])
    return out


def _eager_tangent_rows(f, k, module=None):
    """(window, rows) spanning m^{k-1} f + sum_i x_i (m^k f) inside
    P_{<= deg f}: the eager list that came before the lazy batches.

    The rows are sparse integer rows: the contractions of D f by the
    degree-(k-1) monomials, the canonical rows B of m^k f from
    ``module`` (``apolarity._module_rows(f, k)``, built here when not
    given), and their shifts x_i x^[u] = (u_i + 1) x^[u + e_i], keyed by
    column index.
    """
    if f.is_zero():
        raise ZeroPolynomial("tangent space of the zero polynomial")
    d = max(f.degree, 0)
    win = Window.P_upto(f.n, d, f.field)
    gs = (module or _module_rows(f, k))[1]
    rows = _contraction_rows(f, monomials(f.n, k - 1), range(d + 1))
    # m^k f lies in P_{<= d-1}, so its rows are shifted from degrees < d
    for g, shifts in zip(gs, _shifted_rows(gs, f.n, range(d), win)):
        rows.append(g)
        rows += shifts
    return win, rows


def _lazy_order(win, rows, f, k):
    """An eager (window, rows) pair (contractions, then each g of B with its
    n shifts) in the order of ``_tangent_batches``: the contractions, the
    rows of B with one entry, the shifts, g-major, and the other rows of
    B."""
    c, step = len(monomials(f.n, k - 1)), f.n + 1
    groups = [rows[i : i + step] for i in range(c, len(rows), step)]
    gs = [group[0] for group in groups]
    shifts = [s for group in groups for s in group[1:]]
    return win, rows[:c] + [g for g in gs if len(g) == 1] + shifts + [g for g in gs if len(g) > 1]


def _built(win, batches):
    """(window, every row of ``batches`` built in full), after checking
    that each batch's range holds its rows' columns."""
    rows = []
    for lo, hi, part in batches:
        part = list(part)
        assert all(lo <= j <= hi for row in part for j in row)
        rows += part
    return win, rows


def _reference_module_sf(f, k):
    d = max(f.degree, 0)
    exps = [e for e in monomials_upto(f.n, d) if sum(e) >= k]
    rows = _contraction_rows(f, exps, range(d + 1))
    return Basis._of_batches(Window.P_upto(f.n, d, f.field), _row_batches(rows))


def _reference_tangent_rows(f, k):
    if f.is_zero():
        raise ZeroPolynomial("tangent space of the zero polynomial")
    mk = _reference_module_sf(f, k)
    win, gs = mk.window, mk._rows
    d = max(f.degree, 0)
    rows = _contraction_rows(f, monomials(f.n, k - 1), range(d + 1))
    # m^k f lies in P_{<= d-1}, so its rows are shifted from degrees < d
    for g, shifts in zip(gs, _shifted_rows(gs, f.n, range(d), win)):
        rows.append(g)
        rows += shifts
    return win, rows


def _reference_swept_perp_direct(f, unipotent, max_degree):
    n, field = f.n, f.field
    win = Window.S_upto(n, max_degree, field)
    min_m = 1 if unipotent else 0
    exps = [m for m in monomials_upto(n, max(f.degree, 0)) if sum(m) >= min_m]
    rows = _contraction_rows(f, exps, range(max_degree + 1))
    eqs = [row for m, row in zip(exps, rows) if sum(m) == min_m]
    base = [row for m, row in zip(exps, rows) if sum(m) > min_m]
    kept = [row for row, new in zip(base, _pivot_stream([[row] for row in base], field)) if new]
    for row, shifts in zip(kept, _shifted_rows(kept, n, range(max_degree), win)):
        eqs.append(row)
        eqs += shifts
    return basis_of_kernel(win, eqs)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_one_sweep_of_the_module_matches_the_separate_routes(field, rng):
    for n in (1, 2, 3, 4):
        for d in range(0, 5 if n == 4 else 6):
            polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d),
                     random_poly(rng, n, field, d, density=0.15)]
            if field.is_rationals:
                polys += [with_fractions(rng, f) for f in polys]
            for f in polys:
                if field.is_rationals or field.p > d:
                    assert orbit_dimension(f) == tangent_space(f).dim, f
                for k in (1, 2):
                    module = _module_rows(f, k)
                    mk = _reference_module_sf(f, k)
                    dim = mk.window.dim
                    want = _densified(mk._rows, dim)
                    assert _densified(module[1], dim) == want
                    assert _densified(module_sf(f, k)._rows, dim) == want
                    # the rows that add a pivot are a basis of m^k f
                    assert Basis._of_batches(mk.window, _row_batches(module[0])) == mk and len(module[0]) == mk.dim
                    built = _built(*_tangent_batches(f, k))
                    assert built == _lazy_order(*_eager_tangent_rows(f, k), f, k)
                    assert built == _lazy_order(*_reference_tangent_rows(f, k), f, k)
                    for max_degree in sorted(b for b in {0, d - k - 1, d - k, d, d + 1} if b >= 0):
                        want = _reference_swept_perp_direct(f, k == 2, max_degree)
                        assert _direct(f, k == 2, max_degree) == want, (f, k, max_degree)


# The laziness of the row builders, on a dense ternary quartic (the one the
# CI hash-seed step runs) and on the sparse x1^[5] + x2^[5].

Q4 = ("x1^[4] + 2*x1^[3]*x2 - x1^[3]*x3 + 3*x1^[2]*x2^[2] + x1^[2]*x2*x3 - 2*x1^[2]*x3^[2]"
      " + x1*x2^[3] + x1*x2^[2]*x3 + 2*x1*x2*x3^[2] - x1*x3^[3] + x2^[4] + 3*x2^[3]*x3"
      " - x2^[2]*x3^[2] + 2*x2*x3^[3] + x3^[4]")


def _pulling(rows, pulled):
    """``rows``, each appended to ``pulled`` once it is built."""
    for row in rows:
        pulled.append(row)
        yield row


def test_no_row_is_built_after_its_block_is_full(monkeypatch):
    # Every row a sweep pulls from a batch is swept (empty rows aside): a
    # sweep stops pulling once the block is full, so no row is built after
    # that.  And the tangent rows built number fewer than the eager
    # builders' (the oracles below) make.
    f = parse_poly(Q4, 3, QQ)
    built = {"contraction": 0, "shift": 0}
    profile_row, image, sweep = apolarity._profile_row, apolarity._image, linalg._sweep

    def counting_profile_row(get, e, cols):
        built["contraction"] += 1
        return profile_row(get, e, cols)

    def counting_image(item):
        built["shift"] += 1
        return image(item)

    def checking_sweep(batches, p):
        pulled, wrapped = [], []
        for lo, hi, rows in batches:
            pulled.append([])
            wrapped.append((lo, hi, _pulling(rows, pulled[-1])))
        blocks, taken = sweep(wrapped, p)
        for rows, pairs in zip(pulled, taken):
            assert [row for row in rows if row] == [row for row, _ in pairs]
        return blocks, taken

    monkeypatch.setattr(apolarity, "_profile_row", counting_profile_row)
    monkeypatch.setattr(apolarity, "_image", counting_image)
    for module in (linalg, apolarity, tangent):
        monkeypatch.setattr(module, "_sweep", checking_sweep)
    for k, space in ((1, tangent_space), (2, unip_tangent_space)):
        built.update(contraction=0, shift=0)
        basis = space(f)
        lazy = dict(built)
        assert basis == _reference_tangent(f, k == 2)
        # the eager builders: every row x^e -| D f, |e| >= k - 1, and n
        # shifts of each canonical row of m^k f
        exps = [e for e in monomials_upto(3, 4) if sum(e) >= k - 1]
        gs = _module_rows(f, k)[1]
        eager = {"contraction": len(_contraction_rows(f, exps, range(5))),
                 "shift": sum(map(len, _shifted_rows(gs, 3, range(4), Window.P_upto(3, 4, QQ))))}
        assert lazy["contraction"] < eager["contraction"] and lazy["shift"] < eager["shift"], (
            k, lazy, eager)
    for unipotent in (False, True):
        assert perp_tangent(f, unipotent).dim == Window.P_upto(3, 4, QQ).dim - (
            unip_tangent_space(f) if unipotent else tangent_space(f)).dim
    assert orbit_dimension(f) == tangent_space(f).dim


def test_sparse_forms_keep_their_one_column_blocks(monkeypatch):
    # x1^[5] + x2^[5]: the canonical rows of m f are unit rows and their
    # shifts single terms, each with its exact range, so the tangent sweep
    # has one-column blocks, taken with no list made and no _store call.
    f = parse_poly("x1^[5] + x2^[5]", 2, QQ)
    widths = []
    dense = linalg._dense

    def recording(row, lo, hi, p):
        widths.append(hi + 1 - lo)
        return dense(row, lo, hi, p)

    win, batches = _tangent_batches(f, 1)
    monkeypatch.setattr(linalg, "_dense", recording)
    monkeypatch.setattr(linalg, "_store", lambda *args: pytest.fail("a one-column row was stored"))
    blocks, taken = _sweep([b for b in batches if b[0] == b[1]], 0)
    assert sum(1 for lo, hi, stored in blocks if stored) >= 6 and widths == []
    monkeypatch.undo()
    assert Basis._of_batches(win, _tangent_batches(f, 1)[1]) == _reference_tangent(f, False)


# Differential oracles for the perp: the routes that came before it.
# ``Basis.perp(degrees=...)`` paired the tangent basis on P_{<= deg f} with an
# S window of other degrees through a column map; then ``perp_tangent``
# formed the tangent basis on P_{<= max_degree} and took its ``Basis.perp()``.


def _reference_perp_on(tang, degrees):
    """The perp of ``tang`` in the S window of ``degrees``: each canonical
    row re-keyed to that window's columns, the columns it lacks dropped."""
    win = tang.window
    target = Window("S", win.n, degrees, win.field)
    col = {win.index[e]: j for j, e in enumerate(target.columns) if e in win.index}
    return basis_of_kernel(target, [{col[i]: x for i, x in row.items() if i in col}
                                    for row in tang._rows])


def _full_tangent_perp(f, unipotent, max_degree):
    """(tangent basis on P_{<= deg f}, its perp in S_{<= max_degree}), the
    perp through the column map, cross-checked by the direct route."""
    tang = Basis._of_batches(*_tangent_batches(f, 2 if unipotent else 1))
    assert tang.window == Window.P_upto(f.n, max(f.degree, 0), f.field)
    perp = _reference_perp_on(tang, range(max_degree + 1))
    assert perp == _direct(f, unipotent, max_degree)
    return tang, perp


def _tangent_basis_perp(f, unipotent, max_degree, tang=None):
    """``perp_tangent(f, unipotent, max_degree)`` by the tangent basis on
    P_{<= max_degree} and its ``Basis.perp()``.

    The basis is the span of the contractions by the degree-(k-1)
    monomials, the canonical rows B of m^k f and their shifts, all on
    P_{<= max_degree}, B from the sweep of m^k f there.  It is checked to be
    the restriction of ``tang``, the tangent basis on P_{<= deg f} (built
    when not given): the restricted rows span the restriction of the full
    span.
    """
    n, k = f.n, 2 if unipotent else 1
    win = Window.P_upto(n, max_degree, f.field)
    gs = _module_rows(f, k, range(max_degree + 1))[1]
    rows = _contraction_rows(f, monomials(n, k - 1), range(max_degree + 1)) + gs
    for shifts in _shifted_rows(gs, n, range(max_degree), win):
        rows += shifts
    basis = Basis._of_batches(win, _row_batches(rows))
    tang = tang or Basis._of_batches(*_tangent_batches(f, k))
    assert basis == Basis._of_batches(win, _row_batches(
        [{j: x for j, x in row.items() if j < win.dim} for row in tang._rows])), (f, unipotent, max_degree)
    return basis.perp()


@pytest.mark.parametrize("unipotent", [False, True])
def test_perp_tangent_builds_and_sweeps_the_module_rows_once(monkeypatch, rng, unipotent):
    # One perp_tangent call, whatever max_degree: one _module_rows call over
    # P_{<= max_degree}, whose rows x^e -| D f, |e| >= k, are built by one
    # _contraction_batches call and go through one _sweep, and three sweeps
    # in all: that one and one per route.  The route through the tangent
    # basis swept four times: m^k f, the tangent rows, the basis
    # column-reversed for its perp, and the direct route's equations.
    k = 2 if unipotent else 1
    built, swept, calls, sweeps = [], [], [], []
    contraction_batches, sweep, module_rows = (apolarity._contraction_batches, linalg._sweep,
                                               tangent._module_rows)

    def counting_batches(f, exps, degrees):
        exps = list(exps)
        batches = contraction_batches(f, exps, degrees)
        if any(sum(e) >= k for e in exps):
            built.append(batches)
        return batches

    def counting_sweep(batches, p):
        batches = list(batches)
        sweeps.append(len(batches))
        ids = {id(rows) for made in built for _, _, rows in made}
        if any(id(rows) in ids for _, _, rows in batches):
            swept.append(len(batches))
        return sweep(batches, p)

    for module in (apolarity, tangent):
        monkeypatch.setattr(module, "_contraction_batches", counting_batches)
    for module in (linalg, apolarity, tangent):
        monkeypatch.setattr(module, "_sweep", counting_sweep)
    monkeypatch.setattr(tangent, "_module_rows", lambda *args: calls.append(args) or
                        module_rows(*args))
    for f in (random_form(rng, 3, QQ, 5), random_poly(rng, 3, QQ, 5),
              with_fractions(rng, random_poly(rng, 2, QQ, 6)), random_poly(rng, 3, GF(2), 4),
              random_poly(rng, 3, GF(3), 5), random_poly(rng, 3, GF(7), 5),
              random_poly(rng, 4, GF(101), 4)):
        d = f.degree
        for max_degree in (*range(d + 3), None):
            for made in (built, swept, calls, sweeps):
                made.clear()
            got = perp_tangent(f, unipotent, max_degree)
            assert (len(built), len(swept), len(calls), len(sweeps)) == (1, 1, 1, 3), (
                f, max_degree)
            m = d if max_degree is None else max_degree
            assert calls[0][2:] == (range(m + 1),)
            assert got == _tangent_basis_perp(f, unipotent, m), (f, max_degree)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=str)
def test_restricted_perp_matches_the_full_tangent_route(field, rng):
    # over F_2, F_3 and F_7 some shift weights u_i + 1 vanish; above deg f
    # the tangent's window holds columns no row reaches
    for n in (1, 2, 3, 4):
        for d in range(1, (7, 7, 6, 5)[n - 1]):
            polys = [random_form(rng, n, field, d), random_poly(rng, n, field, d)]
            if field.is_rationals:
                polys.append(with_fractions(rng, polys[1]))
            for f in polys:
                for unipotent in (False, True):
                    for m in range(d + 3):
                        tang, want = _full_tangent_perp(f, unipotent, m)
                        assert perp_tangent(f, unipotent, m) == want, (f, unipotent, m)
                        assert _tangent_basis_perp(f, unipotent, m, tang) == want, (f, unipotent, m)


def test_restricted_perp_builds_no_row_above_its_bound(monkeypatch, rng):
    # Every contraction, of m^k f and by the degree-(k-1) monomials, is
    # filled on degrees <= max_degree only, and every shift built, of either
    # route, lies in the window of degrees <= max_degree.
    reached = {}
    contraction_batches, image = apolarity._contraction_batches, apolarity._image

    def recording_batches(f, exps, degrees):
        reached["contractions"] = max(reached.get("contractions", -1), max(degrees))
        return contraction_batches(f, exps, degrees)

    def recording_image(item):
        row = image(item)
        reached["shifts"] = max(reached.get("shifts", -1), max(row, default=-1))
        return row

    monkeypatch.setattr(apolarity, "_contraction_batches", recording_batches)
    monkeypatch.setattr(apolarity, "_image", recording_image)
    for f in (random_form(rng, 3, QQ, 5), random_poly(rng, 3, GF(3), 5), parse_poly(Q4, 3, QQ)):
        d = f.degree
        for unipotent in (False, True):
            for m in range(1, d):
                reached.clear()
                perp_tangent(f, unipotent, m)
                width = Window.P_upto(3, m, QQ).dim
                assert reached["contractions"] == m and reached["shifts"] < width, (f, m)


def test_cangrad_filter_values():
    assert cangrad_pair_filter(6, 5)      # 126 vs 126: not strictly less
    assert not cangrad_pair_filter(7, 5)  # 196 < 210
    assert cangrad_pair_filter(2, 6)      # 6 vs 6
    assert cangrad_pair_filter(1, 12)
    assert not cangrad_pair_filter(3, 6)


def test_cangrad_filter_full_list():
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
