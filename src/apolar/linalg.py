"""Exact linear algebra over Q and F_p: canonical subspaces of graded windows.

A :class:`Window` fixes an ambient space -- P or S, arity, and a set of
degrees -- together with the global graded-lex column order.  A
:class:`Basis` is a subspace of a window, kept as its canonical integer
reduced echelon form, so subspace equality is literal row equality.

Everything works on integer rows (``_integer_row``): over Q each input row
is scaled to a primitive integer row (plain ints, gcd 1; a row that is
already all ints skips the denominators), over F_p the rows are residues.
There is one elimination, a forward sweep (``_store``): each row is reduced
against the stored row at its leading column -- over Q by
cross-multiplication with the row gcd divided out after every step, which
keeps intermediate entries small -- until it vanishes or leads at a new
column, where it is stored.

An answer that needs only pivot columns or a rank -- membership here, the
filtration profiles in ``apolarity`` -- comes from ``_pivot_stream``, the
sweep alone over batches of rows: a row belongs to a span iff adding it adds
no pivot.  The annihilator generators in ``apolarity`` are the rows whose
own ``_store`` adds one.  Canonical rows come from
``_echelon``, which runs the sweep and then back-substitutes
(``_back_substitute``).  Its reduced echelon form is canonical: over Q each
row is the reduced row scaled to a primitive row with a positive pivot, over
F_p the reduced row itself (pivot 1).  That form is what a ``Basis`` stores
and what its ``perp``, ``sum`` and ``==`` read.  Fractions (over Q) appear
only at the boundary, in ``rref``, ``nullspace`` and ``Basis.rows``, which
all divide each row by its pivot (``_decode``), and in ``solve``, which
divides one entry per pivot row.  ``Basis.vectors()`` hands each integer
row with its pivot as denominator to the polynomials' own canonical form
(``Window._elements``), so no Fraction is built there.

Before the sweep, ``_echelon`` splits the columns into blocks.  Each
nonzero row covers the columns from its first to its last nonzero entry;
rows whose intervals overlap share a block, and the blocks are disjoint.  So
the row space is the direct sum of the blocks' row spaces, its reduced
echelon form is the direct sum of theirs, and each block is swept and
back-substituted on its own column slice.  A row filled from a homogeneous
polynomial lives in one degree, so a graded space -- every space built from
a form -- splits into one block per degree.  A block's sweep stops once its
rank equals its width: no row space has rank above its width, so the rows
not yet swept lie in the span, and the reduced echelon form of a full-rank
block is the identity (canonical over Q and F_p alike), so it is emitted
without back-substitution.  A kernel is read off the
echelon form of the column-reversed rows (``_kernel``), where the kernel
vectors come out already in canonical form (see there), so nothing is
eliminated twice.
"""

from fractions import Fraction
from itertools import chain, compress, count
from math import comb, gcd, lcm
from operator import itemgetter

from .dp import DPPoly, Operator, monomials
from .errors import AmbientMismatch, ArityMismatch, FieldMismatch, WindowTooLarge


# ---------------------------------------------------------------------------
# Row reduction


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


def _pivot_stream(batches, field):
    """Forward elimination of batches of rows, reading pivot columns only.

    For each batch (rows of field elements, all as wide) yields the pivot
    columns it adds to the span of the rows before it, in the order
    ``_store`` finds them.  The pivot columns of an echelon form depend only
    on the row space, so after each batch the yielded columns so far are,
    sorted, the pivots ``_echelon`` finds for all the rows so far.
    """
    stored, p = {}, field.p
    for batch in batches:
        found = [_store(stored, _integer_row(row, field), p) for row in batch]
        yield [lead for lead in found if lead is not None]


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


def _echelon(rows, field):
    """Canonical integer reduced echelon form.

    Returns (rows, pivots): rows[r] is the r-th reduced row, as wide as the
    input rows, with its pivot at column pivots[r] and zeros at every other
    pivot column.  Pivots are increasing.  Over Q each row is primitive with
    a positive pivot, over F_p its pivot is 1, so the form depends only on
    the row space.

    Each nonzero input row becomes an integer row (``_integer_row``) and is
    placed by its first and last nonzero column.  Rows whose [first, last]
    intervals overlap form a column block; the blocks are disjoint, so the
    row space is their direct sum and so is its reduced echelon form.  Each
    block is swept (``_store``) and back-substituted on its own column
    slice and its rows padded back to full width, so the caller's lists
    are never mutated or returned.  A block of width w stops its sweep at
    the w-th stored row: its rank cannot exceed w, so the later rows lie in
    the span, and its reduced echelon form is the w unit rows (a one-column
    block is not swept at all).
    """
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


def _decode(rows, field):
    """Field-element rows of canonical integer rows, pivots 1.

    Over Q each row is divided by its pivot, its first nonzero entry, as
    Fractions; over F_p the residues are copied.
    """
    if field.p:
        return [list(row) for row in rows]
    zero = field.zero()
    pivots = [next(filter(None, row)) for row in rows]
    return [[Fraction(x, piv) if x else zero for x in row] for row, piv in zip(rows, pivots)]


def _kernel(rows, field, ncols):
    """Canonical integer rows of {x : M x = 0}, M given by ``rows``.

    Read off one ``_echelon`` of the column-reversed rows.  In the original
    order each of its rows ends at its pivot column pc and is 0 at the other
    pivot columns, so the kernel vector of a free column c (1 at c, x_pc =
    -row[c] / row[pc]) is 0 left of c and at every other free column: sorted
    by c, the vectors are the kernel's reduced echelon form.  Each is scaled
    by the lcm of its denominators, which leaves a primitive row with a
    positive pivot (over F_p every row[pc] is 1, so nothing is scaled).
    """
    red, pivots = _echelon([row[::-1] for row in rows], field)
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


def _check_matrix(rows, field, ncols, rhs=()):
    """AmbientMismatch unless every row has ``ncols`` entries; FieldMismatch
    unless every entry of ``rows`` and ``rhs`` is a field element: ints over
    F_p, ints and Fractions over Q (the rule of ``dp._Sparse``)."""
    for row in rows:
        if len(row) != ncols:
            raise AmbientMismatch("row of %d entries, expected %d" % (len(row), ncols))
    bad = {*map(type, chain(*rows, rhs))} - ({int} if field.p else {int, Fraction})
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
    work, pivots = _echelon(rows, field)
    return _decode(work, field), pivots


def nullspace(rows, field, ncols):
    """Basis (as RREF) of {x : M x = 0}, M given by ``rows`` of ``ncols``
    field elements each (else AmbientMismatch, FieldMismatch); see
    ``_kernel``."""
    _check_matrix(rows, field, ncols)
    return _decode(_kernel(rows, field, ncols), field)


def solve(rows, rhs, field, ncols):
    """Particular solution of M x = rhs with free variables set to zero.

    M is given by ``rows`` of ``ncols`` entries each, and ``rhs`` has one
    entry per row (else AmbientMismatch); every entry is a field element
    (else FieldMismatch).  Returns a list of field elements or None when
    inconsistent.  The solution is the reduced-echelon particular solution,
    so it is deterministic: x[pc] is read off the canonical integer row with
    pivot column pc as row[ncols] / row[pc] (over F_p the pivot is 1), and
    only those entries are decoded.
    """
    if len(rhs) != len(rows):
        raise AmbientMismatch("%d right-hand sides for %d rows" % (len(rhs), len(rows)))
    _check_matrix(rows, field, ncols, rhs)
    red, pivots = _echelon([list(row) + [b] for row, b in zip(rows, rhs)], field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = Fraction(row[ncols], row[pc]) if field.is_rationals else row[ncols]
    return x


# ---------------------------------------------------------------------------
# Windows and bases


# Column budget for one window (and for the filtration profiles' columns).
# Elimination grows faster than the column count: perp_tangent(x1^[2]) in
# two variables up to degree 60 (1891 columns) takes 0.1 s, up to degree 100
# (5151 columns) about 1 s (Python 3.11, 2 vCPUs).  The largest window the
# test suite and the benchmark build has 126 columns (P_{<=5} in 4 variables).
MAX_WINDOW_COLUMNS = 2000


def _check_window_size(n, degrees):
    """Raise WindowTooLarge if the monomials of ``degrees`` in n variables,
    sum of binom(n-1+i, i), number more than MAX_WINDOW_COLUMNS.  Counted
    from the degrees alone, before any monomial is enumerated."""
    if n < 1:
        raise ArityMismatch("need at least one variable, got %d" % n)
    size = 0
    for i in degrees:
        if i >= 0:
            size += comb(n - 1 + i, i)
            if size > MAX_WINDOW_COLUMNS:
                raise WindowTooLarge(
                    "window in %d variables up to degree %d has more than %d columns"
                    % (n, max(degrees), MAX_WINDOW_COLUMNS)
                )


class Window:
    """Ambient graded window: space 'P' or 'S', arity n, tuple of degrees."""

    def __init__(self, space, n, degrees, field):
        if space not in ("P", "S"):
            raise ValueError("space must be 'P' or 'S'")
        self.space = space
        self.n = n
        self.degrees = tuple(sorted(set(degrees)))
        _check_window_size(n, self.degrees)
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

    def decode(self, row):
        terms = {e: c for e, c in zip(self.columns, row) if not self.field.is_zero(c)}
        if self.space == "P":
            return DPPoly(self.n, self.field, terms)
        return Operator(self.n, self.field, terms, max(self.degrees, default=0))

    def _elements(self, rows):
        """The elements of canonical integer rows (``_echelon``'s form), each
        built by one ``_make``: the numerators over the pivot, the row's first
        nonzero entry (1 over F_p)."""
        zero, cols = self.decode([]), self.columns  # the window's zero element
        return [
            zero._make(next(filter(None, row)), {cols[j]: row[j] for j in compress(count(), row)})
            for row in rows
        ]


class Basis:
    """Canonical basis of a subspace of a window.

    Kept as the canonical integer reduced echelon form of ``_echelon``
    (primitive rows with a positive pivot over Q, pivot 1 over F_p), which
    every operation reads; ``rows`` builds field-element rows and
    ``vectors()`` polynomials (DPPoly or Operator).
    """

    def __init__(self, window, rows):
        self.window = window
        self._rows, _ = _echelon(rows, window.field)

    @classmethod
    def _of_kernel(cls, window, eqs):
        """{x in window : E x = 0} for the equation rows ``eqs``: the rows of
        ``_kernel`` are canonical already, so they are not eliminated again."""
        basis = cls.__new__(cls)
        basis.window, basis._rows = window, _kernel(eqs, window.field, window.dim)
        return basis

    @property
    def rows(self):
        """The reduced row echelon rows, as field elements (pivots 1)."""
        return _decode(self._rows, self.window.field)

    @property
    def dim(self):
        return len(self._rows)

    def vectors(self):
        return self.window._elements(self._rows)

    def __eq__(self, other):
        return isinstance(other, Basis) and (self.window, self._rows) == (other.window, other._rows)

    def __hash__(self):
        return hash((self.window, tuple(map(tuple, self._rows))))

    def __repr__(self):
        return "<Basis dim=%d of %r>" % (self.dim, self.window)

    def _require_same_window(self, other):
        if self.window != other.window:
            raise AmbientMismatch("windows differ: %r vs %r" % (self.window, other.window))

    def _adds_no_pivot(self, rows):
        """Whether ``rows`` lie in the span: streamed after the basis rows,
        they add no pivot."""
        return not list(_pivot_stream((self._rows, rows), self.window.field))[1]

    def contains_vector(self, vec):
        row = self.window.encode(vec) if not isinstance(vec, list) else vec
        if len(row) != self.window.dim:
            raise AmbientMismatch("row of %d entries, window of %d" % (len(row), self.window.dim))
        return self._adds_no_pivot([row])

    def contains(self, other):
        if isinstance(other, Basis):
            self._require_same_window(other)
            return self._adds_no_pivot(other._rows)
        return self.contains_vector(other)

    def sum(self, other):
        self._require_same_window(other)
        return Basis(self.window, self._rows + other._rows)

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
        cols = [win.index.get(e) for e in target.columns]
        eqs = [[0 if i is None else r[i] for i in cols] for r in self._rows]
        return Basis._of_kernel(target, eqs)


def span(vectors, window):
    return Basis(window, [window.encode(v) for v in vectors])
