"""Exact linear algebra over Q and F_p: canonical subspaces of graded windows.

A :class:`Window` fixes an ambient space -- P or S, arity, and a set of
degrees -- together with the global graded-lex column order.  A
:class:`Basis` is a subspace of a window, kept as its canonical integer
reduced echelon form, so subspace equality is literal row equality.

Every integer row here is sparse: a dict {column: int} of the row's nonzero
entries.  The row builders in ``apolarity``, ``tangent`` and ``classify``
fill them from a polynomial's terms, so a row holds only the few terms it
touches; the public entry points (``rref``, ``Basis(window, rows)``,
``span``, ``contains_vector``) check their rows of field elements
(``_check_matrix``: ``AmbientMismatch`` for a wrong width,
``FieldMismatch`` for an entry that is no field element) and convert them
once (``_sparse``; over Q a row with Fractions is scaled by the lcm of its
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
cap is never built.  ``_fill`` runs under ``_sweep``, ``apolarity``'s
``ann_graded`` and its generator sweep; the filtration profiles in
``apolarity``, which cut rows at a moving mark, keep the only other loop
around ``_store``.

``_sweep``'s intake reduces the entries mod p over F_p and drops the ones
that vanish (a shift weight u_i + 1 can equal p), and reads each row's
smallest and largest column.  Rows whose [first, last] intervals overlap
share a column block, and the blocks are disjoint.  A row's reduction never
leaves its block, so each block is swept on its own (one ``_fill``), with
its width as the cap: no row space has rank above its width, so the rows
left once a block fills lie in the span.  A one-column block holds its
first row as the stored row [1].  So the rows of a one-column block, and
the rows left once a block fills, are never made lists.  A row filled from
a homogeneous polynomial lives in one degree, so a graded space -- every
space built from a form -- splits into one block per degree.

The sweep also returns, for each row, the column at which it added a pivot
(None when it lies in the span of the rows before it).  An answer that
needs only pivot columns or a rank reads them there: membership here, the
orbit dimension in ``tangent``, and the equations the direct perp in
``tangent`` keeps.  The annihilator generators in ``apolarity`` are the
rows to which their ``_fill`` gives a lead, and the filtration profiles in
``apolarity`` count the pivots of their own early-exit sweep.

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
the column-reversed rows (``_kernel``, through ``_reversed_kernel``), where
the kernel vectors come out already in canonical form (see there), so
nothing is eliminated twice; ``apolarity.ann_graded`` hands that read-off
the rows of its capped ``_fill``.

``_solve``, the solver of the reduction steps in ``classify``, forms no
reduced row: after one forward sweep of [M | b] it back-substitutes the
right side alone over the stored rows of the block that holds b's column;
every other pivot variable is 0.  Its solution is integer numerators over
one denominator, the pair the polynomials' canonical form takes.

So rows are lists in two places only: inside the sweep, on a block's
columns, and at the public boundary, where ``_decode`` makes full-width
rows of field elements for ``rref`` and ``Basis.rows`` (over Q each row
divided by its pivot, as Fractions).  ``Basis.vectors()`` hands each
integer row with its pivot as denominator to the polynomials' own
canonical form (``Window._elements``), so no Fraction is built there.
"""

from fractions import Fraction
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
    """The capped forward sweep: each sparse integer row of ``rows``, made a
    list on columns lo..hi (``_dense``), is reduced into ``stored``
    (``_store``, keyed by lead column minus lo) until ``stored`` holds
    ``cap`` rows.  No row is taken once it does, so a lazily built row past
    the cap is never built.  Returns the lead of each row swept, in order:
    its column, or None.
    """
    leads = []
    for row in rows if len(stored) < cap else ():
        lead = _store(stored, _dense(row, lo, hi, p), p)
        leads.append(None if lead is None else lo + lead)
        if len(stored) == cap:
            break
    return leads


def _sweep(rows, p):
    """The forward sweep of sparse integer rows, run per column block.

    The intake reduces each row mod p over F_p and drops the entries that
    vanish (over Q a row holds no zero entry), and places each nonzero row
    by its smallest and largest column.  Rows whose [first, last] intervals
    overlap form a column block [lo, hi]; the blocks are disjoint, and a
    row's reduction against stored rows stays inside its block, so each
    block is swept on its own: ``_fill`` takes its rows, in their order,
    with the block's width w as the cap, since its rank cannot exceed w and
    the later rows lie in its span.  A one-column block stores its first
    row as [1], with no list made and no ``_store``.

    Returns (blocks, leads): the blocks as [lo, hi, stored], sorted by lo,
    ``stored`` keyed by lead column minus lo; leads[i] is the column at
    which rows[i] added a pivot, or None when it lies in the span of the
    rows before it (the answer of one sweep over all rows, in order).
    """
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
        for i, lead in zip(idx, _fill(stored, map(rows.__getitem__, idx), lo, hi, p, hi + 1 - lo)):
            leads[i] = lead
    return blocks, leads


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
    space.  The rows are ``_reduced_rows`` of one ``_sweep``.
    """
    reduced = list(_reduced_rows(_sweep(rows, field.p)[0], field.p))
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


def _kernel(rows, field, ncols):
    """Canonical integer rows of {x : M x = 0}, M given by the sparse
    integer ``rows`` over ``ncols`` columns: read off (``_reversed_kernel``)
    one ``_echelon`` of the column-reversed rows (column j of a row goes to
    last - j)."""
    last = ncols - 1
    red, pivots = _echelon([{last - j: x for j, x in row.items()} for row in rows], field)
    return _reversed_kernel(zip(pivots, red), field.p, ncols)


def _reversed_kernel(reduced, p, ncols):
    """Canonical sparse integer rows of the kernel of M, read off
    ``reduced``, the (lead, row) pairs (``_reduced_rows``) of the canonical
    reduced echelon form of M's column-reversed rows, over ``ncols``
    columns.

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
    for lead, row in reduced:
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
    blocks = _sweep(rows, p)[0]
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
    distinct: a range or a sorted list) in n variables, sum of
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


class Window:
    """Ambient graded window: space 'P' or 'S', arity n, tuple of degrees."""

    def __init__(self, space, n, degrees, field):
        if space not in ("P", "S"):
            raise ValueError("space must be 'P' or 'S'")
        self.space = space
        self.n = n
        # a range is counted as it is: its set would cost its whole length
        degrees = degrees if isinstance(degrees, range) else sorted(set(degrees))
        _check_window_size(n, degrees)
        self.degrees = tuple(sorted(degrees))
        self.field = field
        self.columns = []
        for d in self.degrees:
            self.columns.extend(monomials(n, d))
        self.index = {e: i for i, e in enumerate(self.columns)}

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
        return Window("S" if self.space == "P" else "P", self.n, self.degrees, self.field)

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

    def encode(self, vec):
        """Coefficient row of a DPPoly/Operator living in this window."""
        expected = DPPoly if self.space == "P" else Operator
        if not isinstance(vec, expected):
            raise AmbientMismatch("expected %s element" % self.space)
        if vec.n != self.n or vec.field != self.field:
            raise AmbientMismatch("arity/field does not match window")
        row = [self.field.zero()] * self.dim
        for e, c in vec.terms.items():
            i = self.index.get(e)
            if i is None:
                raise AmbientMismatch("term of degree %d outside window" % sum(e))
            row[i] = c
        return row

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
    def _of_rows(cls, window, rows):
        """The span of the sparse integer ``rows`` over the window's columns."""
        return cls._of_canonical(window, _echelon(rows, window.field)[0])

    @classmethod
    def _of_kernel(cls, window, eqs):
        """{x in window : E x = 0} for the sparse integer equation rows
        ``eqs``: the rows of ``_kernel`` are canonical already, so they are
        not eliminated again."""
        return cls._of_canonical(window, _kernel(eqs, window.field, window.dim))

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
        leads = _sweep(self._rows + rows, self.window.field.p)[1]
        return all(lead is None for lead in leads[len(self._rows):])

    def contains_vector(self, vec):
        """Membership of a DPPoly/Operator of the window, or of a row of
        field elements, one per window column (else AmbientMismatch,
        FieldMismatch)."""
        row = vec if isinstance(vec, list) else self.window.encode(vec)
        _check_matrix([row], self.window.field, self.window.dim)
        return self._adds_no_pivot(_sparse([row]))

    def contains(self, other):
        if isinstance(other, Basis):
            self._require_same_window(other)
            return self._adds_no_pivot(other._rows)
        return self.contains_vector(other)

    def sum(self, other):
        self._require_same_window(other)
        return Basis._of_rows(self.window, self._rows + other._rows)

    def intersect(self, other):
        self._require_same_window(other)
        # A cap B = (A^perp + B^perp)^perp within matching dual windows.
        return self.perp().sum(other.perp()).perp()

    def perp(self, degrees=None):
        """Orthogonal complement under <a^e, x^e> = 1 (diagonal pairing)."""
        win = self.window
        target = win.dual() if degrees is None else Window(
            "S" if win.space == "P" else "P", win.n, degrees, win.field
        )
        # the target column of each window column that has one
        col = {win.index[e]: j for j, e in enumerate(target.columns) if e in win.index}
        eqs = [{col[i]: x for i, x in r.items() if i in col} for r in self._rows]
        return Basis._of_kernel(target, eqs)


def span(vectors, window):
    return Basis(window, [window.encode(v) for v in vectors])
