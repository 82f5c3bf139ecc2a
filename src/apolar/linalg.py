"""Exact linear algebra over Q and F_p: canonical subspaces of graded windows.

A :class:`Window` fixes an ambient space -- P or S, arity, and a set of
degrees -- together with the global graded-lex column order.  A
:class:`Basis` is a subspace of a window, kept as its canonical integer
reduced echelon form, so subspace equality is literal row equality.

What depends only on a shape -- the arity and the degrees, never a
polynomial, coefficient or field -- is built once per process and shared,
in a bounded ``functools.lru_cache`` as ``dp.monomials`` is (the comment
there lists every shape cache): a window's columns (one tuple), its index
and its size check (``_window_table``), which the window's dual shares.  A
shape over the column budget raises on every call and is never cached.
``Basis.perp`` pairs a basis with the dual window, whose columns match
the window's one by one, so it reads the canonical rows as they are.

Every integer row here is sparse: a dict {column: int} of the row's nonzero
entries.  The row builders in ``apolarity``, ``tangent`` and ``classify``
fill them from a polynomial's terms, so a row holds only the few terms it
touches, and so do ``span`` and ``contains``/``contains_vector`` given a
polynomial: they read its stored numerators by column
(``Window._numerator_rows``, the mirror of ``Window._elements``;
``AmbientMismatch`` for an element of another space, arity or field, or
with a term outside the window).  Rows of field elements come in through
``rref``, ``Basis(window, rows)`` and ``contains_vector`` given a list
only; they are checked (``_check_matrix``: ``AmbientMismatch`` for a wrong
width, ``FieldMismatch`` for an entry that is no field element; it checks
the matrix of ``actions.apply_linear_map`` too) and converted once
(``_sparse``; over Q a row with Fractions is scaled by the lcm of its
denominators).

There is one elimination, a forward sweep, and one capped loop of it
(``_fill``): rows of one column block [lo, hi], in their order, are each
made a list (``_dense``: over Q divided by its gcd, over F_p of residues) of
their entries on the block's columns only when the loop reaches them, and
reduced (``_store``) against the stored row at its leading column -- over
Q by cross-multiplication with the row gcd divided out after every step,
which keeps intermediate entries small -- until they vanish or lead at a
new column, where they are stored.  The loop stops once the stored rank
reaches a cap and takes no row after that, so a row built lazily past the
cap is never built; it skips empty rows.

``_sweep`` takes its rows in batches (lo, hi, rows): a column range, fixed
before any row is built, and an iterable that builds the rows on demand
(F4's choice of building only the reducers a step needs; Faugere, J. Pure
Appl. Algebra 139, 1999).  Batches whose ranges overlap share a column
block, and the blocks are disjoint.  A row's reduction never leaves its
block, so each block takes its batches in their order through ``_fill``
with its width as the cap: no row space has rank above its width, so the
rows left once a block fills lie in the span, and they are never built,
made lists or scanned.  A one-column block stores its first row with a
nonzero entry there as [1], with no list made.  A range may be wider than
its rows' support: rows in one block interact only through the stored rows
at their leads, so sub-blocks merged by a wide range never touch each
other's columns, and every lead and every canonical row stays the same --
only the early exit and the one-column shortcut are lost.  So the builders
in ``apolarity`` and ``tangent`` give each batch of contractions the range
of the degrees it can reach, and rows that exist already, and the shifts
of such rows, their exact ranges (``_row_batches``, ``_image_batches``).
Over F_p nothing is reduced before the sweep: ``_dense`` reduces the
entries, and an entry that vanishes mod p (a shift weight u_i + 1 can be
p) only widens a range.  A row filled from a homogeneous polynomial lives
in one degree, so a graded space -- every space built from a form -- splits
into one block per degree.

The sweep also returns, for each batch, the rows it took and the column at
which each added a pivot (None when it lies in the span of the rows before
it).  An answer that needs only a rank or the rows that add a pivot reads
them there: membership here (``_rank``), the orbit dimension in
``tangent``, and the rows of m^k f that the direct perp in ``tangent``
keeps (``apolarity._module_rows``).  The annihilator generators in
``apolarity`` are the rows to which their ``_fill`` gives a lead, and the
filtration profiles in ``apolarity`` count the pivots of their own
early-exit sweep.

Canonical rows come from ``_reduced_rows``, which back-substitutes each
block of a sweep (``_back_substitute``) and turns its lists back into
sparse rows: the row space is the direct sum of the blocks' row spaces, so
its reduced echelon form is the direct sum of theirs.  That form is
canonical: over Q each row is the reduced row scaled to a primitive row
with a positive pivot, over F_p the reduced row itself (pivot 1); a
full-rank block's form is the unit rows {c: 1} (canonical over Q and F_p
alike), emitted without back-substitution.  Its rows are what ``_echelon``
returns, what a ``Basis`` stores and what its ``perp``, ``sum``,
``contains`` and ``==`` read, each row's keys in increasing column order,
so its first entry is its pivot.  A kernel is read off the echelon form of
the column-reversed rows (``_reversed_kernel``), where the kernel vectors
come out already in canonical form (see there), so nothing is eliminated
twice.  Each of its three callers sweeps its own column-reversed rows:
``Basis.perp`` its canonical rows, ``apolarity.ann_graded`` the
catalecticant rows, as one block, and each route of the perp in
``tangent`` the equations it builds.

``_solve``, the solver of the reduction steps in ``classify``, forms no
reduced row: after one forward sweep of [M | b] it back-substitutes the
right side alone over the stored rows of the block that holds b's column;
every other pivot variable is 0.  Its solution is integer numerators over
one denominator, the pair the polynomials' canonical form takes.

So rows are lists in two places only: inside the sweep, on a block's
columns, and at the public boundary, where ``_decode`` makes full-width
rows of field elements for ``rref`` and ``Basis.rows`` (over Q each row
divided by its pivot, as Fractions).  Inside the library ``rref`` runs in
one place, ``actions.Automorphism._linear_inverse``, which reads L^-1 off
rref([L | 1]) = [1 | L^-1].  ``Basis.vectors()`` hands each
integer row with its pivot as denominator to the polynomials' own
canonical form (``Window._elements``), so no Fraction is built there.
"""

from copy import copy
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count
from math import comb, gcd, lcm

from .dp import DPPoly, Operator, monomials
from .errors import AmbientMismatch, ArityMismatch, FieldMismatch, WindowTooLarge


# ---------------------------------------------------------------------------
# Row reduction


def _sparse(rows):
    """Sparse integer rows of rows of field elements (the public entry
    points' intake): each row's nonzero entries by column, a row with
    Fractions (over Q) scaled by the lcm of their denominators, which keeps
    its span."""
    out = []
    for row in rows:
        nonzero = {j: row[j] for j in compress(count(), row)}
        if {*map(type, nonzero.values())} - {int}:
            L = lcm(*(x.denominator for x in nonzero.values()))
            nonzero = {j: x.numerator * (L // x.denominator) for j, x in nonzero.items()}
        out.append(nonzero)
    return out


def _dense(row, lo, hi, p):
    """Entries lo..hi of a sparse integer row, every column of the row among
    them, as the list the sweep reduces: over Q divided by their gcd, over
    F_p residues."""
    dense = [0] * (hi + 1 - lo)
    if p:
        for j, x in row.items():
            dense[j - lo] = x % p
    elif (g := gcd(*row.values())) > 1:
        for j, x in row.items():
            dense[j - lo] = x // g
    else:
        for j, x in row.items():
            dense[j - lo] = x
    return dense


def _store(stored, row, p):
    """The forward sweep for one integer row: reduce it against the stored
    row at its leading column until it vanishes or leads at a column with
    no stored row, and store it there.  Returns that column, or None.

    ``stored`` maps a leading column to the row leading there, kept as its
    entries from that column on: primitive over Q (p = 0), pivot 1 over F_p.
    """
    lead = next(compress(count(), row), None)
    if lead is None:
        return None
    tail = row[lead:]
    while (prow := stored.get(lead)) is not None:
        c = tail[0]
        if p:
            tail = [(a - c * b) % p for a, b in zip(tail, prow)]
        else:
            piv = prow[0]
            tail = [piv * a - c * b for a, b in zip(tail, prow)]
        shift = next(compress(count(), tail), None)  # >= 1: the lead cancels
        if shift is None:
            return None
        lead += shift
        tail = tail[shift:]
        if not p:
            g = gcd(*tail)
            if g > 1:
                tail = [x // g for x in tail]
    if p and tail[0] != 1:
        inv = pow(tail[0], -1, p)
        tail = [a * inv % p for a in tail]
    stored[lead] = tail
    return lead


def _fill(stored, rows, lo, hi, p, cap):
    """The capped forward sweep: each nonempty sparse integer row of
    ``rows``, made a list on columns lo..hi (``_dense``), is reduced into
    ``stored`` (``_store``, keyed by lead column minus lo) until ``stored``
    holds ``cap`` rows.  No row is taken once it does, so a lazily built row
    past the cap is never built; an empty row is skipped.  Returns
    (row, lead) for each row swept, in order: lead its column, or None.
    """
    taken = []
    for row in rows if len(stored) < cap else ():
        if row:
            lead = _store(stored, _dense(row, lo, hi, p), p)
            taken.append((row, None if lead is None else lo + lead))
            if len(stored) == cap:
                break
    return taken


def _row_batches(rows):
    """The batches of sparse integer rows that exist already: one per
    nonempty row, with its exact range [smallest, largest column]."""
    return [(min(row), max(row), (row,)) for row in rows if row]


def _sweep(batches, p):
    """The forward sweep of batches of sparse integer rows, run per column
    block.

    A batch is (lo, hi, rows): a column range, fixed before any row is
    built, that holds every column of its rows, and an iterable that builds
    them on demand (lo > hi for a batch of empty rows, which is not swept).
    Batches whose ranges overlap form a column block [lo, hi]; the blocks
    are disjoint, and a row's reduction against stored rows stays inside its
    block, so each block is swept on its own: it takes its batches in their
    order through ``_fill`` with the block's width w as the cap, since its
    rank cannot exceed w and the later rows lie in its span, so a row after
    its block is full is never built.  A range wider than its rows' support
    changes no lead: rows in one block interact only through stored rows at
    their leads.  A one-column block stores [1] for its first row with a
    nonzero entry there (mod p), with no list made and no ``_store``.

    Returns (blocks, taken): the blocks as [lo, hi, stored], sorted by lo,
    ``stored`` keyed by lead column minus lo; taken[b] lists (row, lead) for
    each row the sweep took from batch b, in order, lead the column at which
    it added a pivot or None when it lies in the span of the rows before it
    (the answer of one sweep over all rows, in order).  Every row not taken
    is empty or lies in the span of the rows before it.
    """
    batches = list(batches)
    blocks, members, taken = [], [], [()] * len(batches)
    for lo, hi, b in sorted([(lo, hi, b) for b, (lo, hi, _) in enumerate(batches) if lo <= hi]):
        if blocks and lo <= blocks[-1][1]:
            blocks[-1][1] = max(hi, blocks[-1][1])
            members[-1].append(b)
        else:
            blocks.append([lo, hi, {}])
            members.append([b])
    for (lo, hi, stored), idx in zip(blocks, members):
        cap = hi + 1 - lo
        idx.sort()
        for b in idx:
            if lo < hi:
                taken[b] = _fill(stored, batches[b][2], lo, hi, p, cap)
            else:  # one column: the first row nonzero there (mod p) is stored as [1]
                taken[b] = pairs = []
                for row in filter(None, batches[b][2]):
                    pairs.append((row, lo if not p or row[lo] % p else None))
                    if pairs[-1][1] is not None:
                        stored[0] = [1]
                        break
            if len(stored) == cap:
                break
    return blocks, taken


def _rank(batches, p):
    """The rank of the rows of ``batches``: the rows stored by one
    ``_sweep``."""
    return sum(len(stored) for _, _, stored in _sweep(batches, p)[0])


def _back_substitute(stored, p):
    """Make a sweep's ``stored`` rows the reduced echelon form, in place;
    returns their leads, sorted.

    From the last pivot up, row k clears each later pivot column j with row
    j, reduced already and so zero at the other pivots: in one pass it
    becomes L row_k - sum_j (L c_j / piv_j) row_j, c_j its entry at j and L
    the least multiplier that keeps this integral (1 over F_p, where every
    pivot is 1).  Over Q it is then made primitive with a positive pivot.
    """
    leads = sorted(stored)
    for i in range(len(leads) - 1, -1, -1):
        k = leads[i]
        row = stored[k]
        later = [(j - k, stored[j]) for j in leads[i + 1 :] if row[j - k]]
        if p:
            for off, prow in later:
                c = row[off]
                row[off:] = [(a - c * b) % p for a, b in zip(row[off:], prow)]
            continue
        L = lcm(*(prow[0] // gcd(row[off], prow[0]) for off, prow in later))
        if L > 1:
            row = [L * x for x in row]
        for off, prow in later:
            m = row[off] // prow[0]
            row[off:] = [a - m * b for a, b in zip(row[off:], prow)]
        g = gcd(*row) if row[0] > 0 else -gcd(*row)
        stored[k] = [x // g for x in row] if g != 1 else row
    return leads


def _reduced_rows(blocks, p):
    """The canonical integer reduced echelon rows of a ``_sweep``'s blocks,
    as (lead, row) pairs in increasing lead order, each row sparse with its
    keys in increasing column order.

    The row space is the direct sum of the blocks' row spaces, so its
    reduced echelon form is the direct sum of theirs: each block is
    back-substituted on its own column slice (``_back_substitute``).  A
    block whose rank equals its width w has the w unit rows as its reduced
    echelon form, yielded as (c, {c: 1}) without back-substitution.
    """
    for lo, hi, stored in blocks:
        if len(stored) == hi + 1 - lo:
            # full rank: the rows not swept lie in the span, the form is the identity
            for c in range(lo, hi + 1):
                yield c, {c: 1}
            continue
        for k in _back_substitute(stored, p):
            tail, lead = stored[k], lo + k
            yield lead, {lead + j: tail[j] for j in compress(count(), tail)}


def _echelon(rows, field):
    """Canonical integer reduced echelon form of sparse integer rows.

    Returns (rows, pivots): rows[r] is the r-th reduced row, sparse, with
    its pivot at column pivots[r] and no entry at any other pivot column.
    Pivots are increasing.  Over Q each row is primitive with a positive
    pivot, over F_p its pivot is 1, so the form depends only on the row
    space.  The rows are ``_reduced_rows`` of one ``_sweep`` of their
    ``_row_batches``.
    """
    reduced = list(_reduced_rows(_sweep(_row_batches(rows), field.p)[0], field.p))
    return [row for _, row in reduced], [lead for lead, _ in reduced]


def _decode(rows, field, ncols):
    """Field-element rows of ``ncols`` entries, pivots 1, of canonical
    sparse integer rows.

    Over Q each entry is divided by the row's pivot, its first entry, as a
    Fraction; over F_p the residues are placed as they are.
    """
    zero, out = field.zero(), []
    for row in rows:
        dense, piv = [zero] * ncols, next(iter(row.values()))
        for j, x in row.items():
            dense[j] = x if field.p else Fraction(x, piv)
        out.append(dense)
    return out


def _reversed_kernel(blocks, p, ncols):
    """Canonical sparse integer rows of the kernel of M, read off the
    ``blocks`` of one ``_sweep`` of M's column-reversed rows, over ``ncols``
    columns, through their canonical reduced echelon rows
    (``_reduced_rows``).

    In the original order each reduced row ends at its pivot column pc and
    has no entry at the other pivot columns, so the kernel vector of a free
    column c (1 at c, x_pc = -row[c] / row[pc]) is 0 left of c and at every
    other free column: sorted by c, the vectors are the kernel's reduced
    echelon form.  Each is scaled by the lcm of its denominators, which
    leaves a primitive row with a positive pivot (over F_p every row[pc] is
    1, so nothing is scaled).
    """
    last = ncols - 1  # column c of a reversed row sits at last - c
    free = {c: [] for c in range(ncols)}  # free column -> its (pc, entry, pivot)s
    for lead, row in _reduced_rows(blocks, p):
        del free[last - lead]
        piv = row[lead]
        for j, x in row.items():
            if j != lead:  # a free column: the row has no entry at another pivot
                free[last - j].append((last - lead, x, piv))
    kernel = []
    for c, entries in free.items():
        L = lcm(*(den // gcd(x, den) for _, x, den in entries))
        vec = {c: L}
        for j, x, den in reversed(entries):  # the rows came by decreasing pc
            vec[j] = p - x if p else -x * L // den
        kernel.append(vec)
    return kernel


def _check_matrix(rows, field, ncols):
    """AmbientMismatch unless every row has ``ncols`` entries; FieldMismatch
    unless every entry is a field element: ints over F_p, ints and Fractions
    over Q (the rule of ``dp._Sparse``)."""
    for row in rows:
        if len(row) != ncols:
            raise AmbientMismatch("row of %d entries, expected %d" % (len(row), ncols))
    bad = {*map(type, chain(*rows))} - ({int} if field.p else {int, Fraction})
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise FieldMismatch("entries of type %s are not elements of %r" % (names, field))


def rref(rows, field, ncols):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Every row has ``ncols`` field elements (else AmbientMismatch,
    FieldMismatch).  Rows come back as lists of field elements with pivots
    equal to 1, sorted by pivot column.
    """
    _check_matrix(rows, field, ncols)
    work, pivots = _echelon(_sparse(rows), field)
    return _decode(work, field, ncols), pivots


def _solve(rows, p, ncols):
    """The particular solution of M x = b with the free variables 0, from
    the sparse integer rows of the augmented matrix [M | b], b at column
    ``ncols``, over Q (p = 0) or F_p.  Returns None when the system is
    inconsistent, else (den, num): x[j] = num[j] / den, the nonzero entries
    only, keyed in increasing column order -- the pair ``dp._make`` takes
    (den = 1 over F_p, numerators residues in [1, p)).

    One forward ``_sweep``, and no reduced row.  Column ``ncols`` is the
    last, so only the last block can hold it; the rows of every other block
    have no right side, so their pivot variables are 0.  A stored row
    leading at ``ncols`` makes the system inconsistent.  Otherwise only the
    right side is back-substituted over the stored rows U of that block,
    from the last pivot up: x[pc] = (b_r - sum_j U_r[j] x_j) / U_r[pc] over
    the later pivots j, the free variables being 0.  The values are kept as
    integer numerators over one common denominator, which grows only by the
    part of a pivot that does not divide its numerator.  The particular
    solution with the free variables 0 is unique, so it is the one of the
    reduced echelon form.
    """
    blocks = _sweep(_row_batches(rows), p)[0]
    if not blocks or blocks[-1][1] != ncols:
        return 1, {}
    lo, _, stored = blocks[-1]
    rhs = ncols - lo  # the right side's offset in the block
    if rhs in stored:
        return None
    den, known = 1, []  # known: (offset, numerator over den), nonzero, last pivot first
    for k in sorted(stored, reverse=True):
        row = stored[k]
        num = row[rhs - k] * den - sum(c * v for j, v in known if (c := row[j - k]))
        if p:
            num %= p  # the pivot is 1, den stays 1
        elif num:
            piv = row[0]
            g = gcd(num, piv) if piv > 0 else -gcd(num, piv)
            num, m = num // g, piv // g  # x_k = num / (den m), m > 0
            if m > 1:
                den *= m
                known = [(j, v * m) for j, v in known]
        if num:
            known.append((k, num))
    return den, {lo + j: v for j, v in reversed(known)}


# ---------------------------------------------------------------------------
# Windows and bases


# Column budget for one window (and for the filtration profiles' columns).
# Elimination grows faster than the column count: perp_tangent(x1^[2]) in
# two variables up to degree 60 (1891 columns) takes 0.1 s, up to degree 100
# (5151 columns) about 1 s (Python 3.11, 2 vCPUs).  The largest window the
# test suite and the benchmark build has 126 columns (P_{<=5} in 4 variables).
MAX_WINDOW_COLUMNS = 2000


def _check_window_size(n, degrees):
    """Raise WindowTooLarge if the monomials of ``degrees`` (ascending and
    distinct: a range or a sorted tuple) in n variables, sum of
    binom(n-1+i, i), number more than MAX_WINDOW_COLUMNS.  Counted from the
    degrees alone, before any monomial is enumerated, and only until the
    count passes the budget: each degree i >= 0 adds at least one column, so
    a range from 0 is read for at most MAX_WINDOW_COLUMNS + 1 degrees, and
    the message names its last degree by index, whatever its bound."""
    if n < 1:
        raise ArityMismatch("need at least one variable, got %d" % n)
    size = 0
    for i in degrees:
        if i >= 0:
            size += comb(n - 1 + i, i)
            if size > MAX_WINDOW_COLUMNS:
                raise WindowTooLarge(
                    "window in %d variables up to degree %d has more than %d columns"
                    % (n, degrees[-1], MAX_WINDOW_COLUMNS)
                )


@lru_cache(maxsize=32)
def _window_table(n, degrees):
    """(degrees, columns, index) of the window of the monomials of
    ``degrees`` in n variables, ``degrees`` a range or a sorted tuple of
    distinct degrees: the degrees as a sorted tuple, the monomials in
    graded-lex order as one tuple and {monomial: column}, one table per
    shape shared by every window of it.  The size check
    (``_check_window_size``) runs first, so a shape that fails it raises
    on every call and is never cached."""
    _check_window_size(n, degrees)
    degrees = tuple(sorted(degrees))
    columns = tuple(chain.from_iterable(monomials(n, d) for d in degrees))
    return degrees, columns, {e: i for i, e in enumerate(columns)}


class Window:
    """Ambient graded window: space 'P' or 'S', arity n, tuple of degrees.

    ``columns`` and ``index`` are the shape's shared table
    (``_window_table``): never mutate them."""

    def __init__(self, space, n, degrees, field):
        if space not in ("P", "S"):
            raise ValueError("space must be 'P' or 'S'")
        self.space = space
        self.n = n
        # a range is counted as it is: its set would cost its whole length
        degrees = degrees if isinstance(degrees, range) else tuple(sorted(set(degrees)))
        self.degrees, self.columns, self.index = _window_table(n, degrees)
        self.field = field

    @classmethod
    def P_upto(cls, n, dmax, field):
        return cls("P", n, range(dmax + 1), field)

    @classmethod
    def S_upto(cls, n, dmax, field):
        return cls("S", n, range(dmax + 1), field)

    @classmethod
    def P_graded(cls, n, d, field):
        return cls("P", n, (d,), field)

    @classmethod
    def S_graded(cls, n, d, field):
        return cls("S", n, (d,), field)

    @property
    def dim(self):
        return len(self.columns)

    def dual(self):
        """The window of the other space on the same degrees, sharing this
        window's table: its degrees, a tuple, would be a second key of a
        window given by a range."""
        win = copy(self)
        win.space = "S" if self.space == "P" else "P"
        return win

    def __eq__(self, other):
        return (
            isinstance(other, Window)
            and self.space == other.space
            and self.n == other.n
            and self.degrees == other.degrees
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.space, self.n, self.degrees, self.field))

    def __repr__(self):
        return "<Window %s n=%d degs=%s over %r>" % (
            self.space,
            self.n,
            list(self.degrees),
            self.field,
        )

    def _numerator_rows(self, vectors):
        """The sparse integer rows of DPPolys/Operators of this window: each
        element's stored numerators by column (the mirror of ``_elements``;
        over Q a row is the element times its denominator, which keeps its
        span).  AmbientMismatch for an element of the other space, arity or
        field, or with a term outside the window."""
        expected = DPPoly if self.space == "P" else Operator
        rows = []
        for vec in vectors:
            if not isinstance(vec, expected):
                raise AmbientMismatch("expected %s element" % self.space)
            if vec.n != self.n or vec.field != self.field:
                raise AmbientMismatch("arity/field does not match window")
            if outside := [e for e in vec._num if e not in self.index]:
                raise AmbientMismatch("term of degree %d outside window" % sum(outside[0]))
            rows.append({self.index[e]: x for e, x in vec._num.items()})
        return rows

    def _elements(self, rows):
        """The elements of canonical integer rows (``_echelon``'s form), each
        built by one ``_make``: the numerators over the pivot, the row's first
        entry (1 over F_p).  Operators are truncated at the window's top
        degree."""
        zero = (DPPoly.zero(self.n, self.field) if self.space == "P"
                else Operator.zero(self.n, self.field, max(self.degrees, default=0)))
        cols = self.columns
        return [
            zero._make(next(iter(row.values())), {cols[j]: x for j, x in row.items()})
            for row in rows
        ]


class Basis:
    """Canonical basis of a subspace of a window.

    Kept as the canonical integer reduced echelon form of ``_echelon``
    (sparse rows, primitive with a positive pivot over Q, pivot 1 over
    F_p), which every operation reads; ``rows`` builds field-element rows
    and ``vectors()`` polynomials (DPPoly or Operator).  ``rows`` given to
    the constructor are lists of field elements, one per window column
    (else AmbientMismatch, FieldMismatch).
    """

    def __init__(self, window, rows):
        _check_matrix(rows, window.field, window.dim)
        self.window = window
        self._rows, _ = _echelon(_sparse(rows), window.field)

    @classmethod
    def _of_batches(cls, window, batches):
        """The span of the rows of ``batches`` (``_sweep``'s batches) over
        the window's columns."""
        blocks = _sweep(batches, window.field.p)[0]
        return cls._of_canonical(window, [row for _, row in _reduced_rows(blocks, window.field.p)])

    @classmethod
    def _of_canonical(cls, window, rows):
        """The subspace whose canonical integer rows (``_echelon``'s form)
        are ``rows``, taken as they are."""
        basis = cls.__new__(cls)
        basis.window, basis._rows = window, rows
        return basis

    @property
    def rows(self):
        """The reduced row echelon rows, as field elements (pivots 1)."""
        return _decode(self._rows, self.window.field, self.window.dim)

    @property
    def dim(self):
        return len(self._rows)

    def vectors(self):
        return self.window._elements(self._rows)

    def __eq__(self, other):
        return isinstance(other, Basis) and (self.window, self._rows) == (other.window, other._rows)

    def __hash__(self):
        return hash((self.window, tuple(tuple(row.items()) for row in self._rows)))

    def __repr__(self):
        return "<Basis dim=%d of %r>" % (self.dim, self.window)

    def _require_same_window(self, other):
        if self.window != other.window:
            raise AmbientMismatch("windows differ: %r vs %r" % (self.window, other.window))

    def _adds_no_pivot(self, rows):
        """Whether the sparse integer ``rows`` lie in the span: swept after
        the basis rows, they add no pivot."""
        return _rank(_row_batches(self._rows + rows), self.window.field.p) == len(self._rows)

    def contains_vector(self, vec):
        """Membership of a DPPoly/Operator of the window, read by its stored
        numerators, or of a row of field elements, one per window column
        (else AmbientMismatch, FieldMismatch)."""
        if not isinstance(vec, list):
            return self._adds_no_pivot(self.window._numerator_rows([vec]))
        _check_matrix([vec], self.window.field, self.window.dim)
        return self._adds_no_pivot(_sparse([vec]))

    def contains(self, other):
        if isinstance(other, Basis):
            self._require_same_window(other)
            return self._adds_no_pivot(other._rows)
        return self.contains_vector(other)

    def sum(self, other):
        self._require_same_window(other)
        return Basis._of_batches(self.window, _row_batches(self._rows + other._rows))

    def intersect(self, other):
        self._require_same_window(other)
        # A cap B = (A^perp + B^perp)^perp within matching dual windows.
        return self.perp().sum(other.perp()).perp()

    def perp(self):
        """Orthogonal complement in the dual window under <a^e, x^e> = 1
        (diagonal pairing): the window's columns pair with the dual's one
        by one, so the canonical rows are the kernel's equations as they
        are, read off (``_reversed_kernel``) one ``_sweep`` of those rows
        column-reversed (column j at last - j)."""
        p, last = self.window.field.p, self.window.dim - 1
        eqs = _row_batches({last - j: x for j, x in row.items()} for row in self._rows)
        return Basis._of_canonical(self.window.dual(), _reversed_kernel(_sweep(eqs, p)[0], p, last + 1))


def span(vectors, window):
    """The span of DPPolys/Operators of ``window``, read by their stored
    numerators (``Window._numerator_rows``)."""
    return Basis._of_batches(window, _row_batches(window._numerator_rows(vectors)))
