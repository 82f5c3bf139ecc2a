from fractions import Fraction as Q
from itertools import compress, count
from math import comb, gcd, lcm
from operator import itemgetter, mul

import pytest

from apolar import (
    GF,
    QQ,
    Basis,
    DPPoly,
    Operator,
    Window,
    ann_generators,
    ann_graded,
    hilbert_function,
    module_sf,
    perp_tangent,
    rref,
    span,
)
from apolar import linalg
from apolar.apolarity import _contraction_rows, _generator_rows
from apolar.dp import monomials_upto
from apolar.errors import AmbientMismatch, ArityMismatch, FieldMismatch, WindowTooLarge
from apolar.linalg import (
    MAX_WINDOW_COLUMNS,
    _back_substitute,
    _check_window_size,
    _decode,
    _dense,
    _echelon,
    _fill,
    _reduced_rows,
    _row_batches,
    _solve,
    _sparse,
    _store,
    _sweep,
)
from conftest import (
    basis_of_kernel,
    random_operator,
    random_poly,
    reference_encode,
    reference_kernel,
    reference_solve,
    with_fractions,
)


def test_rref_rationals():
    rows = [[Q(2), Q(4), Q(6)], [Q(1), Q(3), Q(5)], [Q(3), Q(7), Q(11)]]
    red, pivots = rref(rows, QQ, 3)
    assert pivots == [0, 1]
    assert red == [[Q(1), Q(0), Q(-1)], [Q(0), Q(1), Q(2)]]


def test_rref_prime_field():
    F = GF(5)
    red, pivots = rref([[2, 1], [4, 2]], F, 2)
    assert pivots == [0]
    assert red == [[1, 3]]  # 2^-1 = 3 mod 5


def _nullspace(rows, field, ncols):
    """The kernel of M, rows of ``ncols`` field elements, as reduced rows of
    field elements: ``reference_kernel`` of the integer rows, decoded."""
    return _decode(reference_kernel(_sparse(rows), field, ncols), field, ncols)


def _decoded_solve(rows, rhs, field, ncols):
    """``_solve`` of [M | rhs], rows of field elements, its (den, num) pair
    checked for the form ``dp._make`` takes and decoded to one field element
    per column (Fractions over Q), or None."""
    sol = _solve(_sparse([[*row, b] for row, b in zip(rows, rhs)]), field.p, ncols)
    if sol is None:
        return None
    den, num = sol
    assert list(num) == sorted(num) and all(0 <= j < ncols for j in num)
    if field.p:
        assert den == 1 and all(0 < v < field.p for v in num.values())
    else:
        assert type(den) is int and den > 0 and all(type(v) is int and v for v in num.values())
    x = [field.zero()] * ncols
    for j, v in num.items():
        x[j] = v if field.p else Q(v, den)
    return x


def test_nullspace_and_solve():
    rows = [[Q(1), Q(2), Q(3)], [Q(0), Q(1), Q(1)]]
    ns = _nullspace(rows, QQ, 3)
    assert len(ns) == 1
    v = ns[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0
    x = _decoded_solve(rows, [Q(6), Q(2)], QQ, 3)
    assert x is not None
    assert [sum(a * b for a, b in zip(row, x)) for row in rows] == [Q(6), Q(2)]
    # free variable is set to zero: deterministic particular solution
    assert x[2] == 0
    assert _decoded_solve([[Q(1)], [Q(1)]], [Q(1), Q(2)], QQ, 1) is None
    # the pair itself: x = (0, 4/3) over one denominator, the zero left out
    assert _solve(_sparse([[3, 0, 0], [0, 3, 4]]), 0, 2) == (3, {1: 4})
    assert _solve(_sparse([[3, 0, 0], [0, 3, 4]]), 7, 2) == (1, {1: 6})


def test_window_columns_graded_lex():
    win = Window.P_upto(2, 2, QQ)
    assert win.columns == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert win.dim == 6
    assert win.dual().space == "S"


def _decode_row(win, row):
    """The element of ``win`` with coefficient row ``row`` (one field element
    per window column): the inverse of ``reference_encode``, operators
    truncated at the window's top degree."""
    terms = {e: c for e, c in zip(win.columns, row) if not win.field.is_zero(c)}
    if win.space == "P":
        return DPPoly(win.n, win.field, terms)
    return Operator(win.n, win.field, terms, max(win.degrees, default=0))


def test_encode_decode_round_trip():
    # the dense row of an element decodes back to it, and ``_sparse`` scales
    # it back to the numerators the element stores, the rows span reads
    win = Window.P_upto(2, 3, QQ)
    f = DPPoly(2, QQ, {(2, 1): Q(3, 4), (1, 0): Q(-1, 6)})
    assert _decode_row(win, reference_encode(win, f)) == f
    assert _sparse([reference_encode(win, f)]) == win._numerator_rows([f]) == [{1: -2, 7: 9}]
    swin = Window.S_upto(2, 3, QQ)
    s = Operator(2, QQ, {(2, 1): Q(3)}, 3)
    assert _decode_row(swin, reference_encode(swin, s)) == s
    assert _sparse([reference_encode(swin, s)]) == swin._numerator_rows([s]) == [{7: 3}]


def test_encode_rejects_wrong_ambient():
    # the dense route and every entry that reads an element's numerators
    win = Window.P_graded(2, 2, QQ)
    basis = Basis(win, [])
    for vec in (
        DPPoly(2, QQ, {(1, 0): Q(1)}),  # degree 1 not in window
        Operator(2, QQ, {(2, 0): Q(1)}, 2),  # S element in P window
        DPPoly(3, QQ, {(2, 0, 0): Q(1)}),  # arity
        DPPoly(2, GF(5), {(2, 0): 1}),  # field
    ):
        for route in (lambda v: reference_encode(win, v), lambda v: win._numerator_rows([v]),
                      lambda v: span([v], win), basis.contains, basis.contains_vector):
            with pytest.raises(AmbientMismatch):
                route(vec)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_span_and_contains_read_the_rows_of_the_dense_route(field, rng):
    # oracle: each element made a dense row of field elements
    # (``reference_encode``) and scaled back to integers by ``_sparse``
    for _ in range(30):
        n, d = rng.randint(1, 3), rng.randint(0, 3)
        for win in (Window.P_upto(n, d, field), Window.S_upto(n, d, field)):
            if win.space == "P":
                vecs = [random_poly(rng, n, field, d) for _ in range(rng.randint(1, 4))]
            else:
                vecs = [random_operator(rng, n, field, d) for _ in range(rng.randint(1, 4))]
            if field.is_rationals:
                vecs = [with_fractions(rng, v) for v in vecs]
            dense = [reference_encode(win, v) for v in vecs]
            assert win._numerator_rows(vecs) == _sparse(dense)
            basis = span(vecs, win)
            assert basis == Basis(win, dense) and basis._rows == _echelon(_sparse(dense), field)[0]
            probes = vecs + [vecs[0] + vecs[-1], vecs[0].scale(field.from_int(3))]
            probes.append(random_poly(rng, n, field, d) if win.space == "P"
                          else random_operator(rng, n, field, d))
            for v in probes:
                want = Basis(win, dense).contains_vector(reference_encode(win, v))
                assert basis.contains(v) == basis.contains_vector(v) == want, (vecs, v)


def test_basis_canonical_equality():
    win = Window.P_graded(2, 2, QQ)
    a = DPPoly(2, QQ, {(2, 0): Q(1), (1, 1): Q(1)})
    b = DPPoly(2, QQ, {(1, 1): Q(1)})
    b1 = span([a, b], win)
    b2 = span([a + b, b.scale(Q(7))], win)
    assert b1 == b2
    assert b1.dim == 2
    assert b1.contains(a + b.scale(Q(-5)))
    assert not b1.contains(DPPoly(2, QQ, {(0, 2): Q(1)}))


def test_sum_intersect_perp():
    win = Window.P_graded(2, 2, QQ)
    e20 = DPPoly(2, QQ, {(2, 0): Q(1)})
    e11 = DPPoly(2, QQ, {(1, 1): Q(1)})
    e02 = DPPoly(2, QQ, {(0, 2): Q(1)})
    A = span([e20, e11], win)
    B = span([e11, e02], win)
    assert A.sum(B).dim == 3
    inter = A.intersect(B)
    assert inter.dim == 1
    assert inter.contains(e11)
    # double perp is the identity
    assert A.perp().perp() == A
    # dims are complementary
    assert A.perp().dim == win.dim - A.dim


def test_prime_field_subspaces():
    F = GF(2)
    win = Window.P_upto(2, 2, F)
    f = DPPoly(2, F, {(2, 0): 1, (1, 1): 1})
    g = DPPoly(2, F, {(1, 1): 1, (0, 2): 1})
    b = span([f, g], win)
    assert b.dim == 2
    assert b.contains(f + g)


def _densified(rows, ncols):
    """The dense lists of sparse rows over ``ncols`` columns: every test
    compares the sparse rows of ``_echelon``, ``reference_kernel``, ``Basis._rows``
    and the row builders to lists through this."""
    out = []
    for row in rows:
        dense = [0] * ncols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


# Differential oracle: rref with every Q entry re-wrapped in Fraction, the
# common denominator and row content accumulated one entry at a time, and the
# F_p pivot inverted once per eliminated row.


def _reference_to_primitive(row):
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _reference_rref(rows, field, ncols):
    if field.is_rationals:
        work = [_reference_to_primitive([Q(x) for x in row]) for row in rows]
    else:
        work = [[x % field.p for x in row] for row in rows]
    work = [row for row in work if any(row)]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        piv = work[rank][col]
        for r in range(len(work)):
            if r == rank or work[r][col] == 0:
                continue
            c = work[r][col]
            if field.is_rationals:
                work[r] = [piv * a - c * b for a, b in zip(work[r], work[rank])]
                g = 0
                for x in work[r]:
                    g = gcd(g, x)
                if g > 1:
                    work[r] = [x // g for x in work[r]]
            else:
                factor = (c * pow(piv, -1, field.p)) % field.p
                work[r] = [(a - factor * b) % field.p for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    out = []
    for r in range(rank):
        piv = work[r][pivots[r]]
        if field.is_rationals:
            out.append([Q(x, piv) for x in work[r]])
        else:
            inv = pow(piv, -1, field.p)
            out.append([(x * inv) % field.p for x in work[r]])
    return out, pivots


def _random_entry(rng, kind):
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.choice([0, 0, 0, rng.randint(-9, 9), rng.randint(-10**12, 10**12)])
    return Q(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.6 else Q(0)


def _random_matrix(rng, kind):
    """Rows of ``kind`` entries; some rows zero, some combinations of others,
    some led by a negative entry."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    rows = []
    for _ in range(nrows):
        r = rng.random()
        if r < 0.15:
            rows.append([Q(0) if kind == "frac" else 0] * ncols)
        elif r < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randint(-3, 3)
            rows.append([x + k * y for x, y in zip(a, b)])
        else:
            row = [_random_entry(rng, kind) for _ in range(ncols)]
            if r < 0.55 and next(filter(None, row), 0) > 0:
                row = [-x for x in row]  # first nonzero entry negative
            rows.append(row)
    return rows, ncols


def _typed(result):
    rows, pivots = result
    return [[(type(x), x) for x in row] for row in rows], pivots


@pytest.mark.parametrize("kind", ["int", "frac", "mixed"])
def test_rref_matches_fraction_oracle_over_q(kind, rng):
    for _ in range(300):
        rows, ncols = _random_matrix(rng, kind)
        assert _typed(rref(rows, QQ, ncols)) == _typed(_reference_rref(rows, QQ, ncols))
    for zeros in ([[0, 0, 0], [0, 0, 0]], [[Q(0)] * 4], []):
        ncols = len(zeros[0]) if zeros else 3
        assert rref(zeros, QQ, ncols) == _reference_rref(zeros, QQ, ncols) == ([], [])


@pytest.mark.parametrize("field", [GF(2), GF(101)], ids=str)
def test_rref_matches_oracle_over_prime_fields(field, rng):
    for _ in range(300):
        rows, ncols = _random_matrix(rng, "int")
        assert _typed(rref(rows, field, ncols)) == _typed(_reference_rref(rows, field, ncols))
    assert rref([[0, field.p], [2 * field.p, 0]], field, 2) == ([], [])


# Differential oracle for the column-block split: rows that live in a few
# disjoint column intervals, shuffled, with zero rows, single-entry rows and
# rows that straddle two intervals (which merges their blocks).


def _block_entry(rng, field):
    if not field.is_rationals:
        return rng.choice([0, rng.randint(1, 3 * field.p), field.p])
    return rng.choice([0, rng.randint(-9, 9), Q(rng.randint(-9, 9), rng.randint(1, 6))])


def _block_matrix(rng, field):
    intervals, col = [], rng.randint(0, 2)
    for _ in range(rng.randint(1, 4)):
        width = rng.choice([1, 1, 2, 3, 4])  # single-column blocks often
        intervals.append((col, col + width))
        col += width + rng.randint(0, 2)
    ncols = col + rng.randint(0, 2)
    rows = []
    for lo, hi in intervals:
        for _ in range(rng.randint(1, 4)):
            row = [0] * ncols
            for c in range(lo, hi):
                row[c] = _block_entry(rng, field)
            rows.append(row)
    for _ in range(rng.randint(0, 2)):
        rows.append([0] * ncols)
    for _ in range(rng.randint(0, 2)):
        row = [0] * ncols
        row[rng.randrange(ncols)] = rng.randint(1, 9)
        rows.append(row)
    if len(intervals) > 1 and rng.random() < 0.5:
        i = rng.randrange(len(intervals) - 1)
        row = [0] * ncols
        row[rng.randrange(*intervals[i])] = rng.randint(1, 9)
        row[rng.randrange(*intervals[i + 1])] = rng.randint(-9, -1)
        rows.append(row)
    rng.shuffle(rows)
    return rows, ncols


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_block_split_matches_oracle(field, rng):
    for _ in range(400):
        rows, ncols = _block_matrix(rng, field)
        got = rref(rows, field, ncols)
        assert _typed(got) == _typed(_reference_rref(rows, field, ncols)), rows
        echelon, pivots = _echelon(_sparse(rows), field)
        assert _typed((_decode(echelon, field, ncols), pivots)) == _typed(got)
        assert _densified(echelon, ncols) == _reference_echelon(_sparse(rows), field, ncols)[0]


# Differential oracle for full column blocks: the echelon form that sweeps
# every row of every block and always back-substitutes, against tall blocks
# whose rank often equals their width.


def _reference_echelon(rows, field, ncols):
    spans = []
    for row in _densified(rows, ncols):
        row = _integer_row(row, field)
        first = next(compress(count(), row), None)
        if first is not None:
            last = len(row) - 1 - next(compress(count(), reversed(row)))
            spans.append((first, last, row))
    spans.sort(key=itemgetter(0))
    blocks = []
    for first, last, row in spans:
        if blocks and first <= blocks[-1][1]:
            block = blocks[-1]
            block[1] = max(block[1], last)
            block[2].append(row)
        else:
            blocks.append([first, last, [row]])

    out, pivots, p = [], [], field.p
    for lo, hi, block in blocks:
        pad = [0] * (len(block[0]) - hi - 1)
        if lo == hi:  # one column: the unit row, whatever the rows' entries
            out.append([0] * lo + [1] + pad)
            pivots.append(lo)
            continue
        stored = {}
        for row in block:
            _store(stored, row[lo : hi + 1], p)
        leads = _back_substitute(stored, p)
        out += [[0] * (lo + k) + stored[k] + pad for k in leads]
        pivots += [lo + k for k in leads]
    return out, pivots


def _tall_block_rows(rng, field, lo, width, ncols, big):
    """width..3 width rows on columns lo..lo+width-1: independent rows first
    (``width`` of them in most blocks, fewer in the others), then
    combinations of them, zero rows and rows with ``big`` entries."""
    p = field.p
    rank = width if rng.random() < 0.7 else rng.randint(0, width)
    cols = sorted(rng.sample(range(lo, lo + width), rank))
    rows = []
    for c in cols:  # distinct leading columns: independent
        row = [0] * ncols
        row[c] = rng.choice([1, -1, 2, -big])
        if p and row[c] % p == 0:
            row[c] = 1
        for j in range(c + 1, lo + width):
            row[j] = rng.randint(-big, big)
        rows.append(row)
    for k in range(len(rows)):  # a unitriangular change of basis keeps them independent
        for j in range(k + 1, len(rows)):
            m = rng.choice([0, 1, -3, big])
            rows[k] = [a + m * b for a, b in zip(rows[k], rows[j])]
    while len(rows) < width or (len(rows) < 3 * width and rng.random() < 0.8):
        r = rng.random()
        if r < 0.2 or not cols:
            rows.append([0] * ncols)
        elif r < 0.7:
            a, b = rng.sample(rows, 2) if len(rows) > 1 else rows * 2
            k, m = rng.randint(-5, 5), rng.choice([1, -1, big])
            rows.append([k * x + m * y for x, y in zip(a, b)])
        else:
            row = [0] * ncols
            for j in range(lo, lo + width):
                row[j] = rng.randint(-big, big)
            rows.append(row)
    return rows


def _tall_block_matrix(rng, field):
    """Tall blocks 1-5 columns wide, each as ``_tall_block_rows``; the rows
    shuffled or not, sometimes with a row straddling two blocks."""
    big = 10**12 if rng.random() < 0.5 else 9
    intervals, col = [], rng.randint(0, 2)
    for _ in range(rng.randint(1, 3)):
        width = rng.randint(1, 5)
        intervals.append((col, width))
        col += width + rng.randint(0, 2)
    ncols = col + rng.randint(0, 2)
    rows = []
    for lo, width in intervals:
        rows += _tall_block_rows(rng, field, lo, width, ncols, big)
    if len(intervals) > 1 and rng.random() < 0.3:
        i = rng.randrange(len(intervals) - 1)
        row = [0] * ncols
        row[intervals[i][0]] = rng.randint(1, 9)
        row[intervals[i + 1][0] + intervals[i + 1][1] - 1] = rng.randint(-9, -1)
        rows.insert(rng.randint(0, len(rows)), row)
    if rng.random() < 0.5:
        rng.shuffle(rows)
    if field.is_rationals and rng.random() < 0.5:
        rows = [[x * rng.choice([1, Q(1, 2), Q(-7, 3)]) for x in row] for row in rows]
    return rows, ncols


def _old_path(fn, *args):
    """``fn(*args)`` with every elimination through ``_reference_echelon``."""

    def echelon(rows, field):
        ncols = 1 + max(map(max, filter(None, rows)), default=-1)
        red, pivots = _reference_echelon(rows, field, ncols)
        return _sparse(red), pivots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_echelon", echelon)
        return fn(*args)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_full_blocks_match_the_sweep_of_every_row(field, rng):
    for _ in range(300):
        rows, ncols = _tall_block_matrix(rng, field)
        want = _reference_echelon(_sparse(rows), field, ncols)
        red, pivots = _echelon(_sparse(rows), field)
        assert (_densified(red, ncols), pivots) == want, rows
        got = rref(rows, field, ncols)
        assert _typed(got) == _typed((_decode(red, field, ncols), pivots))
        assert _typed(got) == _typed(_reference_rref(rows, field, ncols)), rows
        kernel = _nullspace(rows, field, ncols)
        assert _typed((kernel, None)) == _typed((_old_path(_nullspace, rows, field, ncols), None))
        assert _typed((kernel, None)) == _typed((_reference_nullspace(rows, field, ncols), None))
        win = Window.P_graded(2, ncols - 1, field)  # ncols columns
        perp = Basis(win, rows).perp()
        old = _old_path(lambda: Basis(win, rows).perp())
        assert perp == old and _typed((perp.rows, None)) == _typed((kernel, None)), rows


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_a_full_block_stops_its_sweep(field, rng, monkeypatch):
    calls = {"_store": 0, "_back_substitute": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    for width in (2, 3, 5):
        # independent rows led by column 0, so swept first, then 40 rows of the block
        rows = [[int(j in (0, i)) for j in range(width)] for i in range(width)]
        rows += [[rng.randint(-9, 9) for _ in range(width)] for _ in range(40)]
        calls.update(_store=0, _back_substitute=0)
        red, pivots = _echelon(_sparse(rows), field)
        assert calls == {"_store": width, "_back_substitute": 0}
        assert (_densified(red, width), pivots) == (
            [[int(i == j) for j in range(width)] for i in range(width)], list(range(width)))


# Differential oracle for the batch sweep: the sweep that took finished
# rows, kept verbatim with its capped loop -- an intake that reduces every
# row mod p, places it by its exact [first, last] interval and sweeps each
# block's rows in their order -- against ``_sweep`` of the same rows in
# batches, whose ranges may be merged or wider than the rows.


def _reference_fill(stored, rows, lo, hi, p, cap):
    leads = []
    for row in rows if len(stored) < cap else ():
        lead = _store(stored, _dense(row, lo, hi, p), p)
        leads.append(None if lead is None else lo + lead)
        if len(stored) == cap:
            break
    return leads


def _reference_sweep(rows, p):
    if p:
        rows = [{j: r for j, x in row.items() if (r := x % p)} for row in rows]
    blocks, members = [], []  # members: each block's rows, by (first, last, index)
    for first, last, i in sorted([(min(row), max(row), i) for i, row in enumerate(rows) if row]):
        if blocks and first <= blocks[-1][1]:
            if last > blocks[-1][1]:
                blocks[-1][1] = last
            members[-1].append(i)
        else:
            blocks.append([first, last, {}])
            members.append([i])
    leads = [None] * len(rows)
    for (lo, hi, stored), idx in zip(blocks, members):
        if lo == hi:  # every row is (lo, lo, i): the first has the least index
            stored[0], leads[idx[0]] = [1], lo
            continue
        idx.sort()
        for i, lead in zip(idx, _reference_fill(stored, map(rows.__getitem__, idx), lo, hi, p,
                                                hi + 1 - lo)):
            leads[i] = lead
    return blocks, leads


def _batch_leads(batches, p):
    """``_sweep`` of ``batches``, each given as (lo, hi, list of rows): its
    blocks and the lead of every row, in order, None for a row the sweep did
    not take.  The rows a batch gives up are a subsequence of it, in order."""
    blocks, taken = _sweep([(lo, hi, iter(rows)) for lo, hi, rows in batches], p)
    leads = []
    for (_, _, rows), pairs in zip(batches, taken):
        pairs = iter(pairs)
        pending = next(pairs, None)
        for row in rows:
            if pending is not None and pending[0] is row:
                leads.append(pending[1])
                pending = next(pairs, None)
            else:
                leads.append(None)
        assert pending is None
    return blocks, leads


def _row_leads(rows, p):
    """``_sweep`` of the ``_row_batches`` of ``rows``: its blocks and the
    lead of each row, None for one the sweep did not take."""
    blocks, leads = _batch_leads([(lo, hi, list(part)) for lo, hi, part in _row_batches(rows)], p)
    leads = iter(leads)
    return blocks, [next(leads) if row else None for row in rows]


def _oracle_batches(rng, rows, ncols):
    """``rows`` cut into consecutive batches (lo, hi, list of rows): a row
    alone or a run of rows, with their exact range or one widened by up to
    two columns on each side (inside 0 .. ncols - 1); a batch of empty rows
    takes the empty range (0, -1) or every column."""
    batches, i = [], 0
    while i < len(rows):
        k = rng.choice([1, 1, 2, 3])
        part = rows[i : i + k]
        i += k
        keys = [j for row in part for j in row]
        if not keys:
            lo, hi = (0, -1) if rng.random() < 0.5 else (0, ncols - 1)
        else:
            lo, hi = min(keys), max(keys)
            if rng.random() < 0.3:
                lo, hi = max(0, lo - rng.randint(0, 2)), min(ncols - 1, hi + rng.randint(0, 2))
        batches.append((lo, hi, part))
    return batches


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_batch_sweep_matches_the_reference_sweep(field, rng):
    p, kinds = field.p, set()
    for _ in range(300):
        rows, ncols = _sparse_matrix(rng, field)
        if p:  # an entry = 0 mod p just past a row's last column
            for row in rng.sample(rows, min(2, len(rows))):
                if row and max(row) + 1 < ncols:
                    row[max(row) + 1] = p * rng.choice([1, -3])
        ref_blocks, want = _reference_sweep(rows, p)
        reduced = list(_reduced_rows(ref_blocks, p))
        batches = _oracle_batches(rng, rows, ncols)
        for blocks, got in (_row_leads(rows, p), _batch_leads(batches, p)):
            # the same lead for every row taken, None for the rest
            assert got == want, (rows, batches)
            assert list(_reduced_rows(blocks, p)) == reduced, (rows, batches)
            kinds.update("one column" for lo, hi, stored in blocks if lo == hi and stored)
            kinds.update("not taken" for row, lead in zip(rows, got) if row and lead is None)
        for lo, hi, part in batches:
            keys = [j for row in part for j in row]
            if keys and (lo, hi) != (min(keys), max(keys)):
                kinds.add("widened")
        kinds.update("empty row" for row in rows if not row)
    assert kinds == {"one column", "widened", "not taken", "empty row"}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_fill_takes_no_row_past_its_cap_and_one_column_rows_are_not_swept(field, rng, monkeypatch):
    p, taken = field.p, []

    def taking(rows):
        for row in rows:
            taken.append(row)
            yield row

    # ``stored`` holds ``cap`` rows already: no row is taken
    assert _fill({0: [1, 5], 1: [1]}, taking([{3: 1}]), 3, 4, p, 2) == [] and taken == []
    # the cap-th store ends the sweep: the fourth row is not taken
    rows = [{3: 1, 4: 1}, {3: 2, 4: 2}, {4: 1}, {3: 1}]
    stored = {}
    assert _fill(stored, taking(rows), 3, 4, p, 2) == list(zip(rows, [3, None, 4]))
    assert taken == rows[:3] and sorted(stored) == [0, 1]
    # the rows of one-column blocks are neither made lists nor stored, and
    # every lead is that of one uncapped sweep of all the rows, in order
    listed, stores = [], []

    def dense(row, lo, hi, p):
        listed.append((lo, hi))
        return _dense(row, lo, hi, p)

    def store(stored, row, p):
        stores.append(len(row))
        return _store(stored, row, p)

    cases = []
    for _ in range(50):
        ncols = rng.randint(2, 12)
        rows = []
        for _ in range(rng.randint(1, 12)):
            first = rng.randrange(ncols)
            last = first if rng.random() < 0.5 else rng.randint(first, min(ncols - 1, first + 2))
            rows.append({j: rng.choice([1, -1, 2, field.p or 3]) for j in {first, last}})
        stored = {}
        want = [_store(stored, _integer_row(row, field), p) for row in _densified(rows, ncols)]
        cases.append((rows, want))
    monkeypatch.setattr(linalg, "_dense", dense)
    monkeypatch.setattr(linalg, "_store", store)
    one_column = 0
    for rows, want in cases:
        listed.clear()
        stores.clear()
        blocks, leads = _row_leads(rows, p)
        assert leads == want, rows
        assert all(lo < hi for lo, hi in listed) and len(stores) == len(listed), rows
        one_column += sum(lo == hi for lo, hi, _ in blocks)
    assert one_column > 0


# Differential oracle for the sparse intake: the dense elimination that
# came before it, kept verbatim -- every row made a full-width integer row
# (``_integer_row``) and placed by scanning it for its first and last nonzero
# entry -- against ``_echelon``, ``Basis.perp``, ``reference_kernel`` and the
# leads of ``_sweep`` (read
# per batch by ``_pivot_stream``) on the same rows as {column: int} dicts.


def _integer_row(row, field):
    """The integer row elimination works on: over Q a row of ints and
    Fractions scaled to a primitive row (gcd 1), over F_p the residues.

    An all-int list over Q is taken as it is (no lcm, no ``denominator``
    reads) and may come back as the same list; nothing mutates it.
    """
    if field.p:
        return [x % field.p for x in row]
    if set(map(type, row)) <= {int}:
        ints = row if type(row) is list else list(row)
    else:
        L = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (L // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _reference_dense_echelon(rows, field):
    spans = []
    for row in rows:
        row = _integer_row(row, field)
        first = next(compress(count(), row), None)
        if first is not None:
            last = len(row) - 1 - next(compress(count(), reversed(row)))
            spans.append((first, last, row))
    spans.sort(key=itemgetter(0))
    blocks = []
    for first, last, row in spans:
        if blocks and first <= blocks[-1][1]:
            block = blocks[-1]
            block[1] = max(block[1], last)
            block[2].append(row)
        else:
            blocks.append([first, last, [row]])

    out, pivots, p = [], [], field.p
    for lo, hi, block in blocks:
        ncols, width, stored = len(block[0]), hi + 1 - lo, {}
        if width > 1:  # one column needs no sweep: its rank is 1
            for row in block:
                _store(stored, row[lo : hi + 1], p)
                if len(stored) == width:
                    break
        if width == 1 or len(stored) == width:
            # full rank: the rows not swept lie in the span, the form is the identity
            out += [[0] * c + [1] + [0] * (ncols - c - 1) for c in range(lo, hi + 1)]
            pivots += range(lo, hi + 1)
            continue
        leads = _back_substitute(stored, p)
        pad = [0] * (ncols - hi - 1)
        out += [[0] * (lo + k) + stored[k] + pad for k in leads]
        pivots += [lo + k for k in leads]
    return out, pivots


def _reference_dense_kernel(rows, field, ncols):
    red, pivots = _reference_dense_echelon([row[::-1] for row in rows], field)
    last = ncols - 1  # column c of a reversed row sits at last - c
    pivot_set = {last - pc for pc in pivots}
    p, kernel = field.p, []
    for c in range(ncols):
        if c in pivot_set:
            continue
        entries = [(last - pc, row[last - c], row[pc]) for row, pc in zip(red, pivots) if row[last - c]]
        L = lcm(*(den // gcd(x, den) for _, x, den in entries))
        vec = [0] * ncols
        vec[c] = L
        for j, x, den in entries:
            vec[j] = p - x if p else -x * L // den
        kernel.append(vec)
    return kernel


def _reference_dense_pivot_stream(batches, field):
    stored, p = {}, field.p
    for batch in batches:
        found = [_store(stored, _integer_row(row, field), p) for row in batch]
        yield [lead for lead in found if lead is not None]


def _sparse_entry(rng, field):
    """A nonzero int: small, 10^12-sized, or over F_p often a multiple of p."""
    r = rng.random()
    if field.p and r < 0.25:
        return field.p * rng.choice([1, 2, -1, 10**12])
    if r < 0.45:
        return rng.choice([1, -1]) * rng.randint(10**12, 10**13)
    return rng.choice([1, -1]) * rng.randint(1, 9)


def _sparse_matrix(rng, field):
    """Sparse rows over a few column intervals, shuffled: keys in random
    order, empty rows, entries that vanish mod p, 10^12-sized entries,
    combinations of other rows and rows that straddle two intervals."""
    intervals, col = [], rng.randint(0, 3)
    for _ in range(rng.randint(1, 4)):
        width = rng.choice([1, 1, 2, 3, 5])
        intervals.append((col, col + width))
        col += width + rng.randint(0, 2)
    ncols = col + rng.randint(0, 2)
    rows = []
    for lo, hi in intervals:
        for _ in range(rng.randint(1, 2 * (hi - lo) + 1)):
            cols = rng.sample(range(lo, hi), rng.randint(1, hi - lo))
            rows.append({c: _sparse_entry(rng, field) for c in cols})
    for _ in range(rng.randint(0, 3)):
        a, b, k = rng.choice(rows), rng.choice(rows), rng.randint(-3, 3)
        row = dict(a)
        for j, x in b.items():
            row[j] = row.get(j, 0) + k * x
        rows.append({j: x for j, x in reversed(row.items()) if x})
    rows += [{} for _ in range(rng.randint(0, 2))]
    if len(intervals) > 1 and rng.random() < 0.5:
        i = rng.randrange(len(intervals) - 1)
        rows.append({rng.randrange(*intervals[i + 1]): rng.randint(-9, -1),
                     rng.randrange(*intervals[i]): _sparse_entry(rng, field)})
    rng.shuffle(rows)
    return rows, ncols


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_sparse_intake_matches_the_dense_path(field, rng):
    for _ in range(300):
        rows, ncols = _sparse_matrix(rng, field)
        before = [list(row.items()) for row in rows]
        dense = _densified(rows, ncols)
        red, pivots = _echelon(rows, field)
        assert (_densified(red, ncols), pivots) == _reference_dense_echelon(dense, field), rows
        kernel = _densified(reference_kernel(rows, field, ncols), ncols)
        assert kernel == _reference_dense_kernel(dense, field, ncols), rows
        perp = Basis._of_canonical(Window.P_upto(1, ncols - 1, field), red).perp()
        assert _densified(perp._rows, ncols) == kernel, rows
        batches = _cut(rng, rows)
        got = list(_pivot_stream(batches, field))
        want = list(_reference_dense_pivot_stream([_densified(b, ncols) for b in batches], field))
        assert got == want, (batches, ncols)
        assert [list(row.items()) for row in rows] == before  # the caller's rows are kept


def test_window_budget_guard_fires_from_the_computed_size():
    # sum_{i <= d} binom(n-1+i, i) = binom(n+d, d): find the last d inside
    # the budget and check the guard on the counts alone, allocating nothing:
    # the count stops at the budget, so a bound of 10**20 costs what 62 does
    for n in (1, 2, 3, 5):
        d = 0
        while comb(n + d + 1, d + 1) <= MAX_WINDOW_COLUMNS:
            d += 1
        _check_window_size(n, range(d + 1))
        with pytest.raises(WindowTooLarge):
            _check_window_size(n, range(d + 2))
    with pytest.raises(WindowTooLarge):
        Window.S_upto(2, 10**6, QQ)
    with pytest.raises(ArityMismatch):
        Window.P_upto(0, 2, QQ)
    with pytest.raises(WindowTooLarge):
        perp_tangent(DPPoly(2, QQ, {(2, 0): Q(1)}), max_degree=10**6)
    # a polynomial whose own window is too large: refused before its rows are built
    with pytest.raises(WindowTooLarge):
        perp_tangent(DPPoly(2, QQ, {(10**6, 0): Q(1)}), max_degree=1)
    x1 = DPPoly(1, QQ, {(1,): Q(1)})
    for bound in (10**18, 10**19, 10**20):
        for n in (1, 2):
            with pytest.raises(WindowTooLarge):
                Window.S_upto(n, bound, QQ)
            with pytest.raises(WindowTooLarge):
                _check_window_size(n, range(bound + 1))
        with pytest.raises(WindowTooLarge):
            perp_tangent(DPPoly(2, QQ, {(2, 0): Q(1)}), max_degree=bound)
        with pytest.raises(WindowTooLarge):
            ann_generators(x1, bound)
        with pytest.raises(WindowTooLarge):
            hilbert_function(DPPoly(1, QQ, {(bound,): Q(1)}))
    # a degree collection that is not a range is counted once per degree
    assert Window("P", 1, [3, 3, 1, 3], QQ).degrees == (1, 3)


# Differential oracle for nullspace: one kernel vector per free column built
# from the normalised reference rref, then put in reduced echelon form by a
# second reference rref.


def _reference_nullspace(rows, field, ncols):
    red, pivots = _reference_rref(rows, field, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(red[r][fc])
        basis.append(vec)
    return _reference_rref(basis, field, ncols)[0]


def _kernel_cases(rng, field):
    kinds = ["int", "frac", "mixed"] if field.is_rationals else ["int"]
    for _ in range(150):
        yield _random_matrix(rng, rng.choice(kinds))
        yield _block_matrix(rng, field)
    for _ in range(30):  # duplicated rows and a zero row
        rows, ncols = _random_matrix(rng, rng.choice(kinds))
        yield rows + [list(r) for r in rows] + [[0] * ncols], ncols
    for _ in range(30):  # tall and rank-deficient, rows repeated up to sign
        base, ncols = _random_matrix(rng, rng.choice(kinds))
        tall = [[sign * x for x in rng.choice(base)]
                for sign in rng.choices([1, -1], k=4 * len(base))]
        tall += [[0] * ncols for _ in range(rng.randint(0, 3))]
        rng.shuffle(tall)
        yield tall, ncols
    for n in range(1, 5):  # full rank: identity and a unit upper triangle
        yield [[int(i == j) for j in range(n)] for i in range(n)], n
        yield [[rng.randint(1, 9) if j > i else int(i == j) for j in range(n)]
               for i in range(n)], n
    yield from (([], 0), ([[]], 0), ([], 3), ([[0], [0]], 1), ([[5]], 1), ([[-3]], 1))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_nullspace_matches_two_rref_oracle(field, rng):
    for rows, ncols in _kernel_cases(rng, field):
        got = _nullspace(rows, field, ncols)
        want = _reference_nullspace(rows, field, ncols)
        assert _typed((got, None)) == _typed((want, None)), (rows, ncols)


# Differential oracle for _solve: the decode route (``reference_solve``),
# which turns the whole reduced augmented matrix into field elements and
# reads the last column.


def _solve_cases(rng, field):
    """(rows, rhs, ncols): each matrix with the image of a random x (a
    consistent system) and with a random right side (often inconsistent)."""
    kinds = ["int", "frac", "mixed"] if field.is_rationals else ["int"]
    for _ in range(200):
        rows, ncols = _random_matrix(rng, rng.choice(kinds))
        x = [_random_entry(rng, rng.choice(kinds)) for _ in range(ncols)]
        image = [sum(a * b for a, b in zip(row, x)) for row in rows]
        if not field.is_rationals:
            image = [b % field.p for b in image]
        yield rows, image, ncols
        yield rows, [_random_entry(rng, rng.choice(kinds)) for _ in rows], ncols
    yield from (([], [], 0), ([], [], 3), ([[]], [0], 0), ([[]], [5], 0), ([[0, 0]], [0], 2))
    yield [[1, 2], [2, 4]], [3, 6], 2  # rank-deficient, consistent
    yield [[1, 2], [2, 4]], [3, 7], 2  # rank-deficient, inconsistent
    yield from _block_solve_cases(rng, field)


def _block_solve_cases(rng, field):
    """Systems whose [M | b] splits into several column blocks.

    M is block-diagonal, each block's rows on its own columns, and the right
    side is nonzero on the rows of one block only.  So the sweep joins that
    block with every block after it, whose pivots come later and whose
    variables are 0, and leaves the blocks before it apart.  Then fixed
    shapes: a full block that holds the right side's column, and rows whose
    only entry is the right side (all inconsistent over every field)."""
    kinds = ["int", "frac"] if field.is_rationals else ["int"]
    for _ in range(100):
        kind = rng.choice(kinds)
        widths = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        ncols, lo, rows, owners = sum(widths), 0, [], []
        for k, w in enumerate(widths):
            for _ in range(rng.randint(1, w + 1)):
                row = [0] * ncols
                row[lo : lo + w] = [_random_entry(rng, kind) for _ in range(w)]
                rows.append(row)
                owners.append(k)
            lo += w
        which = rng.randrange(len(widths))
        x = [_random_entry(rng, kind) for _ in range(ncols)]
        image = [sum(map(mul, row, x)) if k == which else 0 for row, k in zip(rows, owners)]
        if not field.is_rationals:
            image = [b % field.p for b in image]
        yield rows, image, ncols
        yield rows, [_random_entry(rng, kind) if k == which else 0 for k in owners], ncols
    # x1 = 0 apart; x2 + x3 = 1, x2 = 1, x3 = 1: [M | b] has rank 3 on 3 columns
    yield [[1, 0, 0], [0, 1, 1], [0, 1, 0], [0, 0, 1]], [0, 1, 1, 1], 3
    yield [[1, 0], [0, 0]], [1, 5], 2  # 0 = 5
    yield [[1, 0, 0], [0, 1, 1], [0, 0, 0]], [0, 1, 3], 3  # 0 = 3 after a consistent block


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_solve_matches_decode_route(field, rng):
    outcomes = set()
    for rows, rhs, ncols in _solve_cases(rng, field):
        got = _decoded_solve(rows, rhs, field, ncols)
        want = reference_solve(rows, rhs, field, ncols)
        # the shapes of the sweep of [M | b] met along the way
        aug = _sparse([[*row, b] for row, b in zip(rows, rhs)])
        blocks, leads = _row_leads(aug, field.p)
        if blocks and blocks[-1][1] == ncols:  # the last block holds b's column
            lo, hi, stored = blocks[-1]
            if len(stored) == hi + 1 - lo > 1:
                outcomes.add("full block at b")
            if any(row.keys() == {ncols} for row in aug):
                outcomes.add("b only")
            # a pivot of a row with no right side after the first column of
            # a row with one, in a block that follows another
            first_b = min(min(row) for row in aug if ncols in row)
            later = [c for row, c in zip(aug, leads) if c is not None and ncols not in row]
            if want is not None and len(blocks) > 1 and max(later, default=-1) > first_b:
                outcomes.add("later pivots beside b")
        if want is None:
            assert got is None, (rows, rhs)
            outcomes.add("inconsistent")
            continue
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want], (rows, rhs)
        for row, b in zip(rows, rhs):  # M x = rhs
            residual = sum(a * v for a, v in zip(row, got)) - b
            assert (residual % field.p if field.p else residual) == 0, (rows, rhs)
        outcomes.add("consistent")
    assert outcomes == {
        "consistent", "inconsistent", "full block at b", "b only", "later pivots beside b",
    }


def test_public_routines_reject_wrong_shapes():
    # every row has ncols entries, or AmbientMismatch
    bad = [
        lambda: rref([[1, 2], [3, 4]], QQ, 3),
        lambda: rref([[1, 2], [3]], QQ, 2),
        lambda: Basis(Window.P_graded(2, 1, QQ), [[1, 0, 0]]),
        lambda: Basis(Window.P_graded(2, 1, GF(7)), [[1, 0], [1]]),
    ]
    for call in bad:
        with pytest.raises(AmbientMismatch):
            call()
    # entries are field elements: ints over F_p, ints and Fractions over Q
    not_elements = [
        lambda: rref([[1, Q(1, 2)]], GF(7), 2),
        lambda: rref([[1, 0.5]], QQ, 2),
        lambda: rref([[True, 0]], QQ, 2),
        lambda: rref([["1", 0]], GF(7), 2),
        # Basis(window, rows) and a plain row given to contains_vector/contains
        lambda: Basis(Window.P_graded(2, 1, GF(7)), [[1, 0]]).contains_vector([Q(1, 2), 0]),
        lambda: Basis(Window.P_graded(2, 1, GF(7)), [[1, 0]]).contains([Q(1, 2), 0]),
        lambda: Basis(Window.P_graded(2, 1, GF(7)), [[1, Q(1, 2)]]),
        lambda: Basis(Window.P_graded(2, 1, QQ), [[1, 0.5]]),
        lambda: Basis(Window.P_graded(2, 1, QQ), [["1", 0]]),
        lambda: Basis(Window.P_graded(2, 1, QQ), [[1, 0]]).contains_vector([0.5, 0]),
        lambda: Basis(Window.P_graded(2, 1, QQ), [[1, 0]]).contains_vector(["1", 0]),
    ]
    for call in not_elements:
        with pytest.raises(FieldMismatch):
            call()
    assert rref([], QQ, 3) == ([], [])
    # rows may be tuples
    assert rref([(1, 2), (2, 4)], QQ, 2) == ([[1, 2]], [0])
    assert Basis(Window.P_graded(2, 1, QQ), [(1, 2)]).perp().rows == [[1, Q(-1, 2)]]


# Differential oracle for the forward sweep: after each batch the pivots it
# has yielded so far are, sorted, the pivots of the reference rref of every
# row so far (not of ``_echelon``, which runs the same sweep).  The rows
# include zero rows, repeated rows, rows equal up to sign and empty batches.


def _pivot_stream(batches, field):
    """For each batch of sparse integer rows, the pivot columns it adds to
    the span of the rows before it, in row order: the leads of one
    ``_sweep`` of all the rows (each batch's ``_row_batches``), read off
    batch by batch."""
    groups = [_row_batches(list(batch)) for batch in batches]
    taken = iter(_sweep([b for group in groups for b in group], field.p)[1])
    for group in groups:
        yield [lead for _ in group for _, lead in next(taken) if lead is not None]


def _stream_cases(rng, field):
    for rows, ncols in _kernel_cases(rng, field):
        yield rows, ncols
        if rows:
            twins = rows + [[-x for x in r] for r in rows] + [list(r) for r in rows]
            rng.shuffle(twins)
            yield twins, ncols


def _cut(rng, rows):
    """``rows`` in consecutive batches, some of them empty."""
    batches, i = [], 0
    while i < len(rows) or rng.random() < 0.3:
        k = rng.randint(0, 3)
        batches.append(rows[i : i + k])
        i += k
    return batches


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_pivot_stream_matches_echelon_on_every_prefix(field, rng):
    for rows, ncols in _stream_cases(rng, field):
        batches = _cut(rng, rows)
        found, prefix = [], []
        yielded = list(_pivot_stream([_sparse(batch) for batch in batches], field))
        assert len(yielded) == len(batches)
        for batch, new in zip(batches, yielded):
            found += new
            prefix += batch
            assert sorted(found) == _reference_rref(prefix, field, ncols)[1], (batches, ncols)
        assert len(set(found)) == len(found)


# Differential oracle for membership: the reduction of a row against the
# basis's pivot rows, one field operation at a time.


def _reference_contains(basis, row):
    field = basis.window.field
    pivots = {next(i for i, x in enumerate(r) if not field.is_zero(x)): r for r in basis.rows}
    for col, prow in sorted(pivots.items()):
        c = row[col]
        if field.is_zero(c):
            continue
        row = [field.sub(a, field.mul(c, b)) for a, b in zip(row, prow)]
    return all(field.is_zero(x) for x in row)


def _random_row(rng, field, ncols):
    return [field.from_int(rng.choice([0, 0, rng.randint(-5, 5)])) for _ in range(ncols)]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_contains_matches_reduction_oracle(field, rng):
    for _ in range(150):
        win = Window.P_upto(rng.randint(1, 3), rng.randint(0, 3), field)
        rows = [_random_row(rng, field, win.dim) for _ in range(rng.randint(0, win.dim))]
        if field.is_rationals:
            rows = [[x * rng.choice([1, Q(1, 2), Q(-5, 3)]) for x in r] for r in rows]
        basis = Basis(win, rows)
        members = []
        for _ in range(3 if rows else 0):  # k r + s for rows r, s of the basis
            k, r, s = field.from_int(rng.randint(-3, 3)), rng.choice(rows), rng.choice(rows)
            members.append([field.add(field.mul(k, a), b) for a, b in zip(r, s)])
        members += [[field.neg(x) for x in r] for r in basis.rows]  # equal up to sign
        others = [_random_row(rng, field, win.dim) for _ in range(3)]
        for row in members + others + [[field.zero()] * win.dim]:
            assert basis.contains(row) == _reference_contains(basis, row), (rows, row)
            assert basis.contains(_decode_row(win, row)) == _reference_contains(basis, row)
        assert all(basis.contains(row) for row in members)
        subs = (Basis(win, rows[: len(rows) // 2]), Basis(win, others), Basis(win, []),
                Basis(win, members), Basis(win, rows + others))
        for sub in subs:
            for big, small in ((basis, sub), (sub, basis)):
                want = all(_reference_contains(big, list(r)) for r in small.rows)
                assert big.contains(small) == want, (rows, others)
        other_win = Window.P_graded(win.n, max(win.degrees) + 1, field)
        with pytest.raises(AmbientMismatch):
            basis.contains(Basis(other_win, []))


# The integer form a Basis keeps: checked on the kernel cases' matrices and,
# over Q, on rows of random polynomials with Fraction coefficients.


def _assert_canonical_integer_rows(rows, field):
    """Sparse rows with their keys increasing and no zero entry, leads
    strictly increasing; over Q primitive with a positive pivot, over F_p
    pivot 1 and residues."""
    leads = [min(row) for row in rows]
    assert all(a < b for a, b in zip(leads, leads[1:])), leads
    for row in rows:
        entries = list(row.values())
        assert list(row) == sorted(row) and all(type(x) is int and x for x in entries), row
        if field.is_rationals:
            assert entries[0] > 0 and gcd(*entries) == 1, row
        else:
            assert entries[0] == 1 and all(0 < x < field.p for x in entries), row


def _assert_canonical_route(basis, rows):
    """``basis`` keeps the canonical integer form, and ``Basis.rows`` is
    the ``rref`` of ``rows``, field-element rows that span it."""
    field, ncols = basis.window.field, basis.window.dim
    _assert_canonical_integer_rows(basis._rows, field)
    assert _typed((basis.rows, None)) == _typed((rref(rows, field, ncols)[0], None)), rows


def _integer_form_cases(rng, field):
    for rows, ncols in _kernel_cases(rng, field):
        yield Window.P_graded(2, ncols - 1, field), rows  # ncols columns
    if field.is_rationals:
        for _ in range(40):
            win = Window.P_upto(2, rng.randint(0, 3), field)
            degree = max(win.degrees)
            polys = [random_poly(rng, 2, field, degree) for _ in range(rng.randint(1, 4))]
            polys += [with_fractions(rng, f) for f in polys]
            yield win, [reference_encode(win, f) for f in polys]


def _same_space_rows(rng, field, rows):
    """Nonzero multiples of ``rows`` plus sums of them, shuffled."""
    scales = [Q(1), Q(-1), Q(2), Q(-3, 4), Q(5, 3)] if field.is_rationals else range(1, field.p)
    out = []
    for row in rows:
        k = rng.choice(scales)
        out.append([field.mul(k, x) for x in row])
    out += [[field.add(a, b) for a, b in zip(rng.choice(rows), rng.choice(rows))] for _ in rows]
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_basis_keeps_the_canonical_integer_form(field, rng):
    # every route that builds a Basis: the constructor, span, _of_batches
    # (of _row_batches), sum, perp and _of_canonical of the canonical
    # kernel rows (through basis_of_kernel), module_sf and ann_graded
    for win, rows in _integer_form_cases(rng, field):
        basis = Basis(win, rows)
        _assert_canonical_route(basis, rows)
        assert _typed((basis.rows, None)) == _typed((_reference_rref(rows, field, win.dim)[0], None))
        _assert_canonical_route(span([_decode_row(win, r) for r in rows], win), rows)
        _assert_canonical_route(Basis._of_batches(win, _row_batches(_sparse(rows))), rows)
        half = len(rows) // 2
        _assert_canonical_route(Basis(win, rows[:half]).sum(Basis(win, rows[half:])), rows)
        kernel = _reference_nullspace(rows, field, win.dim)
        perp = basis.perp()
        _assert_canonical_route(perp, kernel)
        _assert_canonical_route(basis_of_kernel(win, _sparse(rows)), kernel)
        assert perp.dim == win.dim - basis.dim
        _assert_canonical_integer_rows(reference_kernel(_sparse(rows), field, win.dim), field)
    for _ in range(12):
        n, d = rng.randint(1, 3), rng.randint(0, 4)
        f = random_poly(rng, n, field, d)
        if field.is_rationals:
            f = with_fractions(rng, f)
        for k in range(d + 2):
            mk = module_sf(f, k)
            exps = [e for e in monomials_upto(n, d) if sum(e) >= k]
            rows = _densified(_contraction_rows(f, exps, range(d + 1)), mk.window.dim)
            _assert_canonical_route(mk, rows)
        for i in range(d + 3):  # i > d: Ann(f)_i is S_i, the unit rows
            ann = ann_graded(f, i)
            w = ann.window.dim
            eqs = _densified(_contraction_rows(f, list(monomials_upto(n, d)), (i,)), w)
            _assert_canonical_route(ann, _reference_nullspace(eqs, field, w))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_bases_are_equal_exactly_when_each_contains_the_other(field, rng):
    for win, rows in _integer_form_cases(rng, field):
        basis = Basis(win, rows)
        others = [Basis(win, _same_space_rows(rng, field, rows)), Basis(win, rows[1:]),
                  Basis(win, rows + [_random_row(rng, field, win.dim)]), Basis(win, [])]
        assert others[0] == basis and hash(others[0]) == hash(basis)
        for other in others:
            assert (basis == other) == (basis.contains(other) and other.contains(basis))
            assert (basis == other) == (basis.rows == other.rows)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_vectors_match_the_decoded_rows(field, rng):
    for win, rows in _integer_form_cases(rng, field):
        for w in (win, win.dual()):  # DPPoly and Operator elements
            basis = Basis(w, rows)
            assert basis.vectors() == [_decode_row(w, r) for r in basis.rows], rows
    for _ in range(10):
        f = random_poly(rng, rng.randint(1, 3), field, rng.randint(1, 4))
        gens, pieces = _generator_rows(f, f.degree + 1)
        want = [_decode_row(pieces[i].window, r) for i in gens
                for r in _decode(gens[i], field, pieces[i].window.dim)]
        assert ann_generators(f, f.degree + 1)[0] == want, f


def test_contains_vector_rejects_rows_of_the_wrong_width():
    basis = Basis(Window.P_graded(2, 2, QQ), [[1, 0, 0]])
    assert basis.contains([2, 0, 0]) and not basis.contains([0, 1, 0])
    for row in ([1], [1, 0, 0, 5], []):
        with pytest.raises(AmbientMismatch):
            basis.contains_vector(row)
        with pytest.raises(AmbientMismatch):
            basis.contains(row)
