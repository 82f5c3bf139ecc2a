"""Annihilators, Hilbert functions, compressedness, symmetric decomposition.

All ideal-theoretic data is computed degree by degree with linear algebra.
``ann_graded`` is the kernel of the catalecticant map S_i -> P, read off
one ``linalg._sweep`` of the catalecticant rows, built one at a time and
column-reversed, as one block of width w = dim S_i
(``linalg._reversed_kernel``, the read-off ``Basis.perp`` also uses).  At
the w-th stored row Ann(f)_i = 0: no further row is built, and the full
block's reduced form is the identity, which leaves no free column and is
not back-substituted.  For i > deg f there is no catalecticant row, every
column is free, and Ann(f)_i = S_i comes out as the unit rows {c: 1}.

The degree-i generators are the rows of I_i = Ann(f)_i that add a leading
column to one forward sweep of the products a_t sigma, sigma in I_{i-1},
and the rows of I_i before them: one ``_fill`` of the products, then one of
the rows of I_i, both with cap dim I_i.  The products lie in I_i, so once
``stored`` holds dim I_i rows no later row adds a lead.  The columns are
the monomials lex-descending, a monomial order, so a_t sigma leads at
a_t lead(sigma), read off sigma's pivot with no product built: the sweep
takes one product per distinct lead first, each stored with no reduction
step, then the others, each built only when taken, so none past the cap
is built (F4's choice of one reducer per leading monomial).  When the
distinct leads number dim I_i -- in every degree i > deg f + 1, where
I_{i-1} = S_{i-1}, and often below it -- degree i has no generators and
nothing is built or swept.

(I^2)_i is by definition the sum of I_e I_{i-e}, 1 <= e <= i/2 (products
commute, and I_0 = 0 for f != 0), so ``ideal_square_graded`` spans it by
the sparse integer rows sigma tau, sigma in I_e and tau in I_{i-e}, filled
by index: a^u a^v = a^{u+v}.  I_e != 0 gives I_{e+1} != 0, so with e0 the
initial degree of I (the least e with I_e != 0) a product is nonzero only
for e0 <= e <= i - e0.  ``_square_pieces`` builds I_{floor(i/2)} first:
when it is 0 every square of degree <= i is 0 and no other piece is built;
else it walks down to e0 and builds the pieces of degree e0 .. i - e0 only.
It reads no generator.

The Hilbert function and the symmetric decomposition need only pivot counts
of the modules m^k -| f, so ``_filtration_profiles`` reads all of them off
one early-exit forward sweep of the rows x^e -| D f, batch |e| = k from
deg f down to 0, and builds no echelon form.  It is the one loop around
``linalg._store`` besides ``_fill``: it cuts rows at a moving mark and
re-keys its stored rows batch by batch.  With the columns highest degree
first, batch k lies in P_{<=d-k}, a suffix of the columns; the sweep keeps
a mark, the first column from which every column holds a stored pivot,
builds each row only before the mark, sweeps no row that is zero there, and
ends batch k once the mark reaches P_{<=d-k}'s first column.

The rows of the contractions x^e -| f (``_module_rows``, the catalecticant,
the filtration profiles) are filled by exponent lookup, row_e[c] =
f._num[c + e], from f's stored numerators: they are D f for D = f._den
(D = 1 over F_p).  Scaling every row by D changes no row space.  They are
sparse integer rows, {column: int} dicts of their nonzero entries (the one
integer row format of ``linalg``), as are their shifts, the canonical rows
of every ``Basis`` and generator, and the products of
``ideal_square_graded``.  The sweeps of ``linalg._sweep`` take them in lazy
batches: ``_contraction_batches`` gives one batch per |e|, whose range
covers the degrees where x^e -| f can have terms, and ``_image_batches``
each shift x_i g (``_shift_table``) its exact range, read off g's first
and last column before the shift is built; ``_contraction_rows`` builds
every row at once, for the systems of ``classify``.  So the rows x^e -| f
of ``_module_rows`` and the shifts of the tangent and perp sweeps are built
only while their block has room, and a row is made a list
(``linalg._dense``, over Q divided by its gcd, over F_p of residues) on the
columns it is swept on only when a sweep takes it.

The column layouts these builders read depend on the shape alone (the
arity and the degrees) and are built once per process, as shared tuples
in bounded ``functools.lru_cache`` helpers (the comment above
``dp.monomials`` lists them): the column runs of ``_contraction_batches``
and of the filtration profiles (``_column_runs``), the shift maps
(``_shift_table``, whose keys are also the maps of the generator sweep's
products a_t sigma, ``_unit_products``) and the column-reversed columns of
the catalecticant (``_reversed_columns``).  ``ann_graded``'s window, with
its size check, comes from the shared table of ``linalg._window_table``.
"""

import math
from functools import lru_cache
from itertools import count, groupby, islice, repeat
from operator import add

from .dp import DPPoly, monomials, monomials_upto
from .errors import (
    DecompositionInvariantViolated,
    IndexOutOfRange,
    WrongHilbertFunction,
    ZeroPolynomial,
)
from .linalg import (
    Basis,
    Window,
    _check_window_size,
    _dense,
    _fill,
    _reduced_rows,
    _reversed_kernel,
    _row_batches,
    _store,
    _sweep,
)


def ann_graded(f, i):
    """Ann(f)_i = {sigma in S_i : sigma -| f = 0} as a Basis in S_i.

    The kernel of the catalecticant rows x^t -| D f restricted to degree i,
    |t| <= deg f - i (``_catalecticant_rows``), read off one sweep of those
    rows, column-reversed, as one block of width w = dim S_i
    (``_reversed_kernel``).  The rows are built one at a time, and at the
    w-th stored row Ann(f)_i = 0: no further row is built, and the full
    block's reduced form is the identity, which leaves no free column.  For
    i > deg f there are no rows and every column is free: the piece is S_i,
    whose canonical rows are the unit rows {c: 1}.
    """
    if i < 0:
        raise IndexOutOfRange("annihilator degree must be >= 0, got %d" % i)
    win = Window.S_graded(f.n, i, f.field)
    w, p = win.dim, f.field.p
    blocks, _ = _sweep([(0, w - 1, _catalecticant_rows(f, i))], p)
    return Basis._of_canonical(win, _reversed_kernel(blocks, p, w))


def _catalecticant_rows(f, i):
    """The degree-i parts of the rows x^t -| D f, |t| <= deg f - i, D =
    f._den, one at a time, as sparse integer rows (``_profile_row``) over
    the monomials of S_i column-reversed (column j of S_i at w - 1 - j).

    row_t[w - 1 - j] = f._num[c_j + t] for the j-th monomial c_j, looked up
    by exponent as in ``_contraction_rows``; only the |t| where x^t -| f
    has terms of degree i are built, by increasing |t|.
    """
    get, cols = f._num.get, _reversed_columns(f.n, i)
    for s in sorted(set(map(sum, f._num))):  # i + |t| for each degree of f
        for t in monomials(f.n, s - i):  # none for s < i
            yield _profile_row(get, t, cols)


@lru_cache(maxsize=32)
def _reversed_columns(n, i):
    """The (column, monomial) pairs of S_i in n variables column-reversed
    (column j of S_i at w - 1 - j), as one tuple per (n, i)."""
    return tuple(enumerate(monomials(n, i)[::-1]))


@lru_cache(maxsize=32)
def _column_runs(n, degrees):
    """(i, run) for each degree i of ``degrees`` (a range or a tuple), in
    order: run the (column, monomial) pairs of degree i, the columns
    numbered across the degrees in order, grlex within a degree."""
    runs, start = [], 0
    for i in degrees:
        mons = monomials(n, i)
        runs.append((i, tuple(zip(count(start), mons))))
        start += len(mons)
    return tuple(runs)


def _contraction_batches(f, exps, degrees):
    """The sparse integer rows x^e -| D f for e in ``exps``, D = f._den, as
    lazy batches (lo, hi, rows) for ``linalg._sweep``.

    The columns are the monomials of each degree in ``degrees``, in that
    order (grlex within a degree), and row_e[c] = f._num[c + e]: numerators
    are looked up by exponent (``_profile_row``), with no contraction and no
    Fraction arithmetic, and a row keeps only the columns where it is
    nonzero, in increasing order.  Each run of ``exps`` of equal |e| = s is
    one batch, whose range covers the columns of the degrees i where x^e -| f
    can have terms (i + s a degree of f): only those are looked up, and each
    row is built only when the sweep takes it.  A run with no such degree is
    the batch (0, -1, rows) of empty rows, which the sweep skips.
    """
    get, f_degrees, batches = f._num.get, set(map(sum, f._num)), []
    layout = _column_runs(f.n, degrees)
    for s, run in groupby(exps, sum):
        cols = [pair for i, pairs in layout if i + s in f_degrees for pair in pairs]
        lo, hi = (cols[0][0], cols[-1][0]) if cols else (0, -1)
        batches.append((lo, hi, map(_profile_row, repeat(get), list(run), repeat(cols))))
    return batches


def _contraction_rows(f, exps, degrees):
    """The rows of ``_contraction_batches``, built in full: one per e in
    ``exps``, in order (empty where x^e -| f has no term in ``degrees``)."""
    return [row for _, _, rows in _contraction_batches(f, exps, degrees) for row in rows]


@lru_cache(maxsize=32)
def _shift_table(n, degrees, window_degrees):
    """The maps of the shifts x_i g, i = 1 .. n, of rows g over the
    monomials u of ``degrees`` (in order, grlex within a degree, as
    ``_contraction_batches`` lays them out): x_i x^[u] = (u_i + 1)
    x^[u + e_i], so column j of g goes to the column of u_j + e_i in the
    window of ``window_degrees`` with weight u_i + 1 (``_image``).  Over F_p
    a weight may vanish.  One tuple of (keys, weights) tuples per shape,
    both degree sets a range or a tuple."""
    index = {e: j for j, e in enumerate(u for i in window_degrees for u in monomials(n, i))}
    src = [u for i in degrees for u in monomials(n, i)]
    return tuple((tuple(index[u[:i] + (u[i] + 1,) + u[i + 1:]] for u in src),
                  tuple(u[i] + 1 for u in src)) for i in range(n))


def _image(item):
    """The sparse integer row of g under a map (keys, weights), item being
    (g, keys, weights): column j of g, for j < len(keys), goes to keys[j]
    with its entry times weights[j]; its entries past the map are dropped."""
    g, keys, weights = item
    width = len(keys)
    return {keys[j]: weights[j] * c for j, c in g.items() if j < width}


def _image_batches(rows, table):
    """The images of each nonempty sparse integer row g of ``rows`` under
    each map (keys, weights) of ``table`` (``_image``), g-major, as lazy
    batches for ``linalg._sweep``, consecutive overlapping ranges merged
    into one batch.

    g's keys are in increasing column order, and every map is monotone (a
    shift keeps grlex order within a degree and raises the degree by one;
    the column reversal reverses it), so the exact range of an image is
    known before it is built: the keys of g's first column and of its last
    column inside the map.  An image with no column inside its map is left
    out.
    """
    batches, lo, hi, items = [], 0, -1, None
    for g in rows:
        first, end = next(iter(g)), next(reversed(g))
        for keys, weights in table:
            width = len(keys)
            if first >= width:
                continue
            a = keys[first]
            b = keys[end if end < width else next(j for j in reversed(g) if j < width)]
            if a > b:
                a, b = b, a
            if a <= hi and b >= lo:
                lo, hi = min(a, lo), max(b, hi)
                items.append((g, keys, weights))
            else:
                if items:
                    batches.append((lo, hi, map(_image, items)))
                lo, hi, items = a, b, [(g, keys, weights)]
    if items:
        batches.append((lo, hi, map(_image, items)))
    return batches


def _module_rows(f, k, degrees=None):
    """(kept, canonical) for m^k -| f, from one forward sweep of the batches
    of the rows x^e -| D f, |e| >= k, e in ``monomials_upto`` order
    (``_contraction_batches``), over ``degrees`` (P_{<= deg f} when not
    given): ``kept`` are the rows at which it adds a pivot, in order, a
    basis of their span, and ``canonical`` the rows of its canonical integer
    reduced echelon form (``_reduced_rows`` of the same sweep).  f's own
    window P_{<= deg f} is checked (``_check_window_size``) before any
    exponent is listed, whatever ``degrees``."""
    d, p = max(f.degree, 0), f.field.p
    _check_window_size(f.n, range(d + 1))
    if degrees is None:
        degrees = range(d + 1)
    exps = [e for e in monomials_upto(f.n, d) if sum(e) >= k]
    blocks, taken = _sweep(_contraction_batches(f, exps, degrees), p)
    return ([row for pairs in taken for row, lead in pairs if lead is not None],
            [row for _, row in _reduced_rows(blocks, p)])


def module_sf(f, k):
    """The subspace m^k -| f of P (k = 0 gives S f, including f): the span
    of the rows x^e -| D f with |e| >= k in P_{<= deg f}, whose canonical
    rows ``_module_rows`` reads off one sweep."""
    win = Window.P_upto(f.n, max(f.degree, 0), f.field)
    return Basis._of_canonical(win, _module_rows(f, k)[1])


def dim_apolar(f):
    """dim_k Apolar(f) = dim_k S f."""
    return module_sf(f, 0).dim


def _profile_row(get, e, cols):
    """The sparse integer row x^e -| D f on ``cols``, (column, monomial c)
    pairs: entry get(c + e), ``get`` being f._num.get.  A row keeps only
    its nonzero entries; over F_p f's numerators are nonzero residues, so
    no entry vanishes mod p."""
    return {j: v for j, c in cols if (v := get(tuple(map(add, c, e))))}


def _filtration_profiles(f):
    """prof[k][i] = dim(M_k cap P_{<=i}) - dim(M_k cap P_{<=i-1}) for
    M_k = m^k -| f, k = 0 .. deg f + 1.

    The rows x^e -| D f, columns ordered highest degree first (grlex within
    a degree: the runs of ``_column_runs`` over the degrees d .. 0, the
    layout ``_contraction_batches`` reads), are built one at a time
    (``_profile_row``) and swept by ``_store`` in batches by |e| = k = d,
    d-1, .., 0.  The rows swept up to batch k span M_k, so the pivots
    stored so far are those of an echelon form of M_k, and prof[k][i]
    counts the ones of degree i; prof[d+1] (M_{d+1} = 0) is all zeros.  One
    forward sweep serves every k, with no back-substitution.

    Batch k lies in P_{<=d-k}, a suffix of the columns, so its rows are
    lists on those columns only (``stored`` is keyed by column minus the
    first column lo of P_{<=d-k}, and re-keyed as lo moves left).  The mark
    is the first column from which every column holds a stored pivot: the
    span then holds every unit vector from the mark on, and a pivot is
    found as well on the rows cut at the mark.  So a row is looked up and
    made a list only before the mark, a row with no entry there lies in
    the span and is not swept, and batch k builds no further row once the
    mark reaches lo: M_k then fills P_{<=d-k}.  A stored row is cut at the
    mark of its time, and every later row, cut at a mark no further right,
    reduces against its prefix.
    """
    d, n, p = f.degree, f.n, f.field.p
    _check_window_size(n, range(d + 1))
    get, f_degrees = f._num.get, set(map(sum, f._num))
    layout = _column_runs(n, range(d, -1, -1))  # layout[k]: the run of degree d - k
    col_degree = [i for i, run in layout for _ in run]
    stored, lo = {}, len(col_degree)
    mark = lo
    prof = [0] * (d + 1)
    profiles = [prof]
    for k in range(d, -1, -1):
        start = layout[k][1][0][0]  # the first column of P_{<= d-k}
        stored = {j + lo - start: tail for j, tail in stored.items()}
        lo, prof = start, list(prof)
        # the (column, monomial) pairs looked up: degrees i <= d - k only
        cols = [pair for i, run in layout if i + k in f_degrees for pair in run]
        cut = len(cols)
        for e in monomials(n, k):
            while cut and cols[cut - 1][0] >= mark:
                cut -= 1
            row = _profile_row(get, e, islice(cols, cut))
            if not row:  # zero, or zero before the mark: in the span
                continue
            lead = _store(stored, _dense(row, lo, mark - 1, p), p)
            if lead is None:
                continue
            prof[col_degree[lo + lead]] += 1
            if lo + lead == mark - 1:
                mark -= 1
                while mark - lo - 1 in stored:
                    mark -= 1
                if mark == lo:  # M_k fills P_{<= d-k}
                    break
        profiles.append(prof)
    return profiles[::-1]


def _hilbert_from_profiles(profiles):
    dims = [sum(prof) for prof in profiles]
    return tuple(dims[i] - dims[i + 1] for i in range(len(dims) - 1))


def hilbert_function(f):
    """H(i) = dim(m^i -| f) - dim(m^{i+1} -| f) for i = 0 .. deg f, as the
    tuple (H(0), ..., H(deg f)); the socle degree is len(H) - 1.

    With the columns of P ordered highest degree first, dim(M cap P_{<=i})
    is the number of pivots of degree <= i of an echelon form of M; at
    i = deg f that is dim M, the pivot total of ``_filtration_profiles``,
    whose one early-exit forward sweep gives every m^k -| f at once.
    """
    if f.is_zero():
        raise ZeroPolynomial("Hilbert function of the zero polynomial")
    return _hilbert_from_profiles(_filtration_profiles(f))


def _hs(n, i):
    return math.comb(i + n - 1, i) if i >= 0 else 0


def _t_compressed(H, n, t):
    d = len(H) - 1
    return 1 <= t <= d and H[d - 1] == n and all(H[i] == _hs(n, i) for i in range(t + 1))


def is_t_compressed(f, t):
    """H(i) maximal for i <= t and H(d-1) = n, for 1 <= t <= d.

    ``f`` is a DPPoly, whose n is its number of variables f.n, or a
    Hilbert function H(0..d) as a sequence, whose n is H(1) (0 when d = 0).
    The two differ when f does not involve every variable: x1^[3] in two
    variables has H = (1, 1, 1, 1), 1-compressed in one variable but not
    in two.  A sequence that is the Hilbert function of no nonzero
    polynomial -- empty, H(0) != 1, H(d) != 1, or H(1) = 0 with d >= 1 --
    raises WrongHilbertFunction.
    """
    if isinstance(f, DPPoly):
        return _t_compressed(hilbert_function(f), f.n, t)
    H = tuple(f)
    if not H or H[0] != 1 or H[-1] != 1 or (len(H) > 1 and H[1] == 0):
        raise WrongHilbertFunction("%s is the Hilbert function of no nonzero polynomial" % (H,))
    return _t_compressed(H, H[1] if len(H) > 1 else 0, t)


def max_t_compressed(f):
    """Largest t with 1 <= t <= deg f // 2 and is_t_compressed(f, t), or 0
    if none.  Only that range is tried: x1^[4] in one variable gives 2,
    though is_t_compressed(f, t) holds for t = 1 .. 4."""
    H = hilbert_function(f)
    ts = range(1, (len(H) - 1) // 2 + 1)
    return max((t for t in ts if _t_compressed(H, f.n, t)), default=0)


def is_compressed(f):
    H = hilbert_function(f)
    d = len(H) - 1
    return all(H[i] == min(_hs(f.n, i), _hs(f.n, d - i)) for i in range(d + 1))


def symmetric_decomposition(f):
    """The canonical decomposition H = sum_a Delta_a, a = 0 .. max(d-2, 0),
    as the tuple (Delta_0, Delta_1, ...) of tuples Delta_a(0..d-a).

    Delta_a(i) = dim C_a(i) - dim C_{a-1}(i) where C_a(i) is the image in
    P_i of (m^{d-a-i} -| f) cap P_{<=i}, taken modulo P_{<=i-1}.  With the
    columns of P ordered highest degree first, dim(M cap P_{<=i}) is the
    number of pivots of degree <= i of an echelon form of M, so dim C_a(i)
    is the pivot count ``prof[d-a-i][i]`` of ``_filtration_profiles`` (one
    early-exit forward sweep for every k, shared with H).  A nonzero
    constant (d = 0) has H = (1) and the formula's Delta_0 = (1).
    The type invariants (sum = H, symmetry, non-negativity) are theorems; a
    violation raises DecompositionInvariantViolated.
    """
    if f.is_zero():
        raise ZeroPolynomial("decomposition of the zero polynomial")
    d = f.degree
    prof = _filtration_profiles(f)
    H = _hilbert_from_profiles(prof)

    deltas = tuple(
        tuple(prof[d - a - i][i] - prof[d - a + 1 - i][i] for i in range(d - a + 1))
        for a in range(max(d - 1, 1))
    )

    # invariant validation -- these are theorems about the construction
    for i in range(d + 1):
        total = sum(delta[i] for a, delta in enumerate(deltas) if i <= d - a)
        if total != H[i]:
            raise DecompositionInvariantViolated(
                "sum of Delta_a(%d) = %d != H(%d) = %d" % (i, total, i, H[i])
            )
    for a, delta in enumerate(deltas):
        for i in range(d - a + 1):
            if delta[i] < 0:
                raise DecompositionInvariantViolated("Delta_%d(%d) < 0" % (a, i))
            if delta[i] != delta[d - a - i]:
                raise DecompositionInvariantViolated("Delta_%d not symmetric at %d" % (a, i))
    return deltas


def _products(n, left, a, right, b, win):
    """The sparse integer rows of g h in ``win`` = S_{a+b} for g in ``left``
    (sparse integer rows over S_a) and h in ``right`` (sparse integer rows
    over S_b)."""
    table = [[win.index[tuple(map(add, u, v))] for v in monomials(n, b)]
             for u in monomials(n, a)]
    right = [list(h.items()) for h in right]
    out = []
    for g in left:
        g = [(table[j], x) for j, x in g.items()]
        for h in right:
            row = {}
            for cols, x in g:
                for k, y in h:
                    row[cols[k]] = row.get(cols[k], 0) + x * y
            out.append({c: x for c, x in row.items() if x})  # terms may cancel
    return out


def _unit_products(n, rows, a, win):
    """The products a_t sigma, t = 1 .. n, of the canonical integer rows
    sigma over S_a, as (first, rest): lists of (cols, sigma) pairs, the
    product being the sparse row {cols[j]: x for j, x in sigma}, in ``win``
    = S_{a+1}, cols the keys of the shift maps of S_a into it
    (``_shift_table``: a_t a^u = a^{u + e_t}).  No product is built here.

    The columns are the monomials lex-descending, a monomial order, so
    a_t sigma leads at a_t lead(sigma), the column cols[j] of sigma's first
    key j, its pivot.  ``first`` holds one product per distinct lead, the
    first in the order (sigma, t); ``rest`` the others, in that order.
    """
    shifts = [keys for keys, _ in _shift_table(n, (a,), win.degrees)]
    first, rest, leads = [], [], set()
    for sigma in rows:
        j = next(iter(sigma))
        for cols in shifts:
            (rest if cols[j] in leads else first).append((cols, sigma))
            leads.add(cols[j])
    return first, rest


def _check_generator_bound(f, upto):
    """The input checks of the generator sweep up to degree ``upto``."""
    if upto < 0:
        raise IndexOutOfRange("annihilator degree bound must be >= 0, got %d" % upto)
    if f.is_zero():
        raise ZeroPolynomial("annihilator of the zero polynomial")
    _check_window_size(f.n, range(upto + 1))  # the pieces fill S_{<= upto}


def _generator_rows(f, upto):
    """(gens, pieces): pieces[i] = Ann(f)_i for 0 <= i <= upto, and gens[i] for
    1 <= i <= upto the degree-i generators, as canonical integer rows of I_i.

    Degree i sweeps (``_fill``) the products S_1 I_{i-1} and then the rows
    of I_i into one ``stored``, with cap dim I_i: every row swept lies in
    I_i, so each row past the cap lies in the span and is no generator.  The
    generators are the rows of I_i that the second ``_fill`` gives a lead.
    The span the products leave does not depend on their order, and a row of
    I_i adds a lead exactly when it lies outside that span and the rows of
    I_i before it, so the products go lead first (``_unit_products``): one
    per distinct lead, stored with no reduction step since their leads
    differ, then the others, each built only when ``_fill`` takes it, so
    none past the cap is built.  When the distinct leads number dim I_i --
    in every degree i > deg f + 1, where I_{i-1} = S_{i-1}, and often below
    it -- degree i has no generators and no row is built or swept.
    """
    _check_generator_bound(f, upto)
    pieces = {i: ann_graded(f, i) for i in range(upto + 1)}
    p, gens = f.field.p, {}
    for i in range(1, upto + 1):
        I, stored = pieces[i], {}
        first, rest = _unit_products(f.n, pieces[i - 1]._rows, i - 1, I.window)
        if len(first) == I.dim:  # the first products alone span I_i
            gens[i] = []
            continue
        last = I.window.dim - 1
        products = ({cols[j]: x for j, x in sigma.items()} for cols, sigma in first + rest)
        _fill(stored, products, 0, last, p, I.dim)
        # a row of I_i outside the span of the products and the rows before it
        taken = _fill(stored, I._rows, 0, last, p, I.dim)
        gens[i] = [g for g, lead in taken if lead is not None]
    return gens, pieces


def ann_generators(f, upto):
    """Degreewise minimal generators of Ann(f) up to degree ``upto``.

    Generators in degree i are a complement of S_1 * I_{i-1} inside I_i,
    chosen deterministically from the canonical basis of I_i.
    """
    gens, pieces = _generator_rows(f, upto)
    return [g for i in gens if gens[i] for g in pieces[i].window._elements(gens[i])], pieces


def _square_pieces(f, i):
    """The pieces Ann(f)_e that ``_square`` reads for every degree <= i,
    after the input checks of the generator sweep up to degree i
    (``_check_generator_bound``): none when I_{floor(i/2)} = 0, else I_e
    for e0 <= e <= i - e0, e0 the initial degree of I = Ann(f).

    I_e != 0 gives I_{e+1} != 0 (S_1 I_e lies in I_{e+1}), so the nonzero
    pieces are those of degree >= e0, and a product I_e I_{j-e}, e <= j/2,
    j <= i, is nonzero only when e0 <= e <= j - e0 <= i - e0.  When
    I_{floor(i/2)} = 0 every such e is below e0: every square of degree
    <= i is 0.  Else e0 is found walking down from floor(i/2), and the one
    zero piece the walk builds, I_{e0-1}, is dropped (none is built for
    e0 = 1: I_0 = 0 for f != 0)."""
    _check_generator_bound(f, i)
    e0 = i // 2
    if not e0 or not (piece := ann_graded(f, e0)).dim:
        return {}
    pieces = {e0: piece}
    while e0 > 1 and (piece := ann_graded(f, e0 - 1)).dim:
        e0 -= 1
        pieces[e0] = piece
    pieces.update((e, ann_graded(f, e)) for e in range(i // 2 + 1, i - e0 + 1))
    return pieces


def _square(pieces, win):
    """(I^2)_i in ``win`` = S_i from the pieces of ``_square_pieces`` up to
    some degree >= i: spanned by sigma tau for sigma in I_e and tau in
    I_{i-e}, 1 <= e <= i/2, since products commute (I_0 = 0 for f != 0).
    An e whose I_e or I_{i-e} has no piece is skipped: that piece is 0."""
    n, i = win.n, win.degrees[0]
    rows = [row for e in range(1, i // 2 + 1) if e in pieces and i - e in pieces
            for row in _products(n, pieces[e]._rows, e, pieces[i - e]._rows, i - e, win)]
    return Basis._of_batches(win, _row_batches(rows))


def ideal_square_graded(f, i):
    """(I^2)_i for I = Ann(f), by definition sum_e I_e I_{i-e}: the products
    of the pieces of degree e0 .. i - e0, e0 the initial degree of I, and 0
    with no product when I_{floor(i/2)} = 0 (``_square_pieces``)."""
    return _square(_square_pieces(f, i), Window.S_graded(f.n, i, f.field))
