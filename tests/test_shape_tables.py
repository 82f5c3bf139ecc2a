"""The shape tables: one table per (arity, degrees), built once per process.

Each table is checked against the inline builder it replaced, kept here as a
differential oracle, over n <= 4 and degrees <= 7; then that a table is
built once per shape whatever the polynomial or field, that a shape over the
column budget raises on every call, and that the shared tables cannot be
changed in place.
"""

from itertools import count

import pytest

from apolar import GF, QQ, Window, ann_graded, perp_tangent, tangent_space
from apolar.apolarity import (
    _column_runs,
    _reversed_columns,
    _shift_table,
    _unit_products,
)
from apolar.dp import monomials
from apolar.errors import WindowTooLarge
from apolar.linalg import _window_table
from apolar.parsing import parse_poly
from apolar.tangent import _reversed_maps

from conftest import random_form, random_poly

CACHES = (_window_table, _shift_table, _column_runs, _reversed_columns, _reversed_maps)

SHAPES = [(n, d) for n in (1, 2, 3, 4) for d in range(8)]


def _reference_window(n, degrees):
    """Window.__init__'s columns and index, built per window."""
    columns = []
    for d in sorted(degrees):
        columns.extend(monomials(n, d))
    return columns, {e: i for i, e in enumerate(columns)}


def _reference_shift_table(n, degrees, index):
    """``_shift_table``'s maps, built per call from a window's index."""
    src = [u for i in degrees for u in monomials(n, i)]
    return [([index[u[:i] + (u[i] + 1,) + u[i + 1:]] for u in src], [u[i] + 1 for u in src])
            for i in range(n)]


def _reference_layout(n, degrees):
    """``_contraction_batches``' column layout: (degree, first column, monomials)."""
    layout, start = [], 0
    for i in degrees:
        layout.append((i, start, monomials(n, i)))
        start += len(monomials(n, i))
    return layout


@pytest.mark.parametrize("n, d", SHAPES)
def test_shape_tables_match_the_inline_builders(n, d):
    for degrees in (range(d + 1), (d,), tuple(range(d)), (0, d)):
        key = degrees if isinstance(degrees, range) else tuple(sorted(set(degrees)))
        columns, index = _reference_window(n, key)
        win = Window("P", n, degrees, QQ)
        assert (list(win.columns), win.index, win.degrees) == (columns, index, tuple(key))
        runs = [(i, list(pairs)) for i, pairs in _column_runs(n, key)]
        assert runs == [(i, list(zip(count(j), mons))) for i, j, mons in _reference_layout(n, key)]
    up = _reference_window(n, range(d + 1))
    # the shifts of the tangent and perp sweeps, from degrees < d into P_{<= d}
    want = _reference_shift_table(n, range(d), up[1])
    assert [(list(k), list(w)) for k, w in _shift_table(n, range(d), range(d + 1))] == want
    last = len(up[0]) - 1
    reversed_want = [(list(range(last, -1, -1)), [1] * (last + 1))] + [
        ([last - c for c in keys], weights) for keys, weights in want]
    assert [(list(k), list(w)) for k, w in _reversed_maps(n, d)] == reversed_want
    # the catalecticant's column-reversed columns of S_d
    assert list(_reversed_columns(n, d)) == list(enumerate(monomials(n, d)[::-1]))
    # the unit products' maps from S_d into S_{d+1}
    graded = _reference_window(n, (d + 1,))[1]
    rows = [{j: 1} for j in range(len(monomials(n, d)))]
    first, rest = _unit_products(n, rows, d, Window.S_graded(n, d + 1, QQ))
    want = [[graded[u[:t] + (u[t] + 1,) + u[t + 1:]] for u in monomials(n, d)] for t in range(n)]
    assert sorted(list(cols) for cols, _ in first + rest) == sorted(want * len(rows))


def _misses():
    return [cache.cache_info().misses for cache in CACHES]


@pytest.mark.parametrize("call", [
    lambda f: ann_graded(f, 2),
    tangent_space,
    perp_tangent,
    lambda f: perp_tangent(f, True, 2),
    lambda f: perp_tangent(f, False, 6),
], ids=["ann_graded", "tangent_space", "perp_tangent", "restricted_perp", "wide_perp"])
def test_one_shape_builds_each_table_once(rng, call):
    # two polynomials over Q and one over F_7, all of one shape (n = 3,
    # degree 4): the first call builds the tables, the others build none
    polys = [random_form(rng, 3, QQ, 4), random_poly(rng, 3, QQ, 4),
             random_poly(rng, 3, GF(7), 4)]
    for cache in CACHES:
        cache.cache_clear()
    call(polys[0])
    first = _misses()
    assert sum(first) > 0
    for f in polys[1:]:
        call(f)
    assert _misses() == first


def test_a_shape_over_the_budget_raises_on_every_call():
    f = parse_poly("x1^[3]", 1, QQ)
    _window_table.cache_clear()
    for calls in (1, 2, 3):
        with pytest.raises(WindowTooLarge):
            Window.P_upto(3, 40, QQ)
        with pytest.raises(WindowTooLarge):
            perp_tangent(f, max_degree=10**12)
        # the perp's tangent window P_{<= 10**12} is checked before any
        # other window or row, and neither large window is ever cached
        info = _window_table.cache_info()
        assert (info.currsize, info.misses) == (0, 2 * calls)


def _frozen(x):
    """Whether x is built of ints, ranges and tuples only."""
    return isinstance(x, (int, range)) or isinstance(x, tuple) and all(map(_frozen, x))


def test_shared_tables_are_immutable():
    a, b = Window.P_upto(3, 4, QQ), Window.S_upto(3, 4, GF(7))
    assert a.columns is b.columns and _frozen(a.columns)
    # a dual window shares the table, under no second key for its degrees
    misses = _window_table.cache_info().misses
    assert a.dual().columns is a.columns and a.dual() == Window.S_upto(3, 4, QQ)
    assert a.dual().dual() == a and _window_table.cache_info().misses == misses
    with pytest.raises(TypeError):
        a.columns[0] = (9, 9, 9)
    for table in (_shift_table(3, range(4), range(5)), _reversed_maps(3, 4),
                  _column_runs(3, range(5)), _reversed_columns(3, 4)):
        assert _frozen(table)
