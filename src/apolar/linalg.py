"""Exact linear algebra over Q and F_p: canonical subspaces of graded windows.

A :class:`Window` fixes an ambient space -- P or S, arity, and a set of
degrees -- together with the global graded-lex column order.  A
:class:`Basis` is a subspace of a window, kept as its canonical integer
reduced echelon form, so subspace equality is literal row equality.

Everything works on integer rows.  Over Q each input row is scaled to a
primitive integer row (plain ints, gcd 1; a row that is already all ints
skips the denominators) and eliminated by cross-multiplication, the row gcd
divided out after every step, which keeps intermediate entries small.  Over
F_p the rows are residues.  The reduced echelon form ``_echelon`` computes
is canonical: over Q each row is the reduced row scaled to a primitive row
with a positive pivot, over F_p the reduced row itself (pivot 1).  That form
is what a ``Basis`` stores and what its ``perp``, ``sum`` and ``==`` read.
Fractions (over Q) appear only at the boundary, in ``rref``, ``nullspace``,
``Basis.rows`` and ``Basis.vectors()``, which all divide each row by its
pivot (``_decode``), and in ``solve``, which divides one entry per pivot row.

An answer that needs only pivot columns or a rank -- membership here, the
filtration profiles and annihilator generators in ``apolarity`` -- comes
from ``_pivot_stream``, one forward elimination sweep over batches of rows
with no back-substitution: a row belongs to a span iff adding it adds no
pivot.  Canonical rows only ever come from ``_echelon``.

Before eliminating, ``_echelon`` splits the columns into blocks.  Each
nonzero row covers the columns from its first to its last nonzero entry;
rows whose intervals overlap share a block, and the blocks are disjoint.  So
the row space is the direct sum of the blocks' row spaces, its reduced
echelon form is the direct sum of theirs, and each block is eliminated on
its own column slice.  A row filled from a homogeneous polynomial lives in
one degree, so a graded space -- every space built from a form -- splits
into one block per degree.  A kernel is read off the echelon form of the
column-reversed rows (``_kernel``), where the kernel vectors come out
already in canonical form (see there), so nothing is eliminated twice.
"""

from fractions import Fraction
from itertools import compress, count, islice
from math import comb, gcd, lcm
from operator import itemgetter

from .dp import DPPoly, Operator, monomials
from .errors import AmbientMismatch, ArityMismatch, WindowTooLarge


# ---------------------------------------------------------------------------
# Row reduction


def _to_primitive(row):
    """Scale a row of ints and Fractions to a primitive integer row (gcd 1).

    An all-int row is taken as it is (no lcm, no ``denominator`` reads) and
    may come back as the same list; the elimination never mutates it.
    """
    if set(map(type, row)) <= {int}:
        ints = row
    else:
        L = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (L // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _eliminate(work, field):
    """Reduce the integer rows ``work`` (at least one) in place.

    Afterwards work[r] for r < rank has its pivot at pivots[r] and zeros in
    every other pivot column.  A pivot row is made positive (over Q) or
    divided by its pivot (over F_p) when it is picked, and later steps scale
    it only by positive pivots, so over Q the primitive rows keep a positive
    pivot and over F_p every pivot is 1.  Returns the pivot columns.
    """
    q, p = field.is_rationals, field.p
    pivots = []
    rank = 0
    for col in range(len(work[0])):
        pivot_row = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        prow = work[rank]
        piv = prow[col]
        # the pivot row is zero left of col: each earlier column is either
        # an eliminated pivot column or was zero in every row not yet used
        if q and piv < 0:
            prow[col:] = [-a for a in prow[col:]]
            piv = -piv
        elif not q and piv != 1:
            inv = pow(piv, -1, p)
            prow[col:] = [a * inv % p for a in prow[col:]]
        tail = prow[col:]
        for r in range(len(work)):
            row = work[r]
            if r == rank or row[col] == 0:
                continue
            c = row[col]
            if q:
                row = [piv * a for a in row[:col]] + [
                    piv * a - c * b for a, b in zip(row[col:], tail)
                ]
                g = gcd(*row)
                work[r] = [x // g for x in row] if g > 1 else row
            else:
                row[col:] = [(a - c * b) % p for a, b in zip(row[col:], tail)]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return pivots


def _pivot_stream(batches, field):
    """Forward elimination of batches of rows, reading pivot columns only.

    For each batch (rows of ints and Fractions over Q, of ints over F_p, all
    as wide) yields the pivot columns it adds to the span of the rows
    before it, in the order they are found.  The pivot columns of an
    echelon form depend only on the row space, so after each batch the
    yielded columns so far are, sorted, the pivots ``_echelon`` finds for
    all the rows so far.

    The stored rows are kept by leading column, each as its entries from
    that column on: primitive over Q, pivot 1 over F_p.  An incoming row
    (made primitive, or reduced to residues) is reduced against the stored
    row at its leading column until it vanishes or leads at a column with
    no stored row, where it is stored.  Over Q a step cross-multiplies and
    divides out the row gcd; nothing is back-substituted.
    """
    q, p = field.is_rationals, field.p
    stored = {}
    for batch in batches:
        found = []
        for row in batch:
            row = _to_primitive(row) if q else [x % p for x in row]
            lead = next(compress(count(), row), None)
            if lead is None:
                continue
            tail = row[lead:]
            while lead in stored:
                prow = stored[lead]
                c = tail[0]
                # the entries at lead cancel, so only the columns after it are formed
                pairs = zip(islice(tail, 1, None), islice(prow, 1, None))
                if q:
                    piv = prow[0]
                    tail = [piv * a - c * b for a, b in pairs]
                else:
                    tail = [(a - c * b) % p for a, b in pairs]
                shift = next(compress(count(), tail), None)
                if shift is None:
                    break
                lead += shift + 1
                tail = tail[shift:]
                if q:
                    g = gcd(*tail)
                    if g > 1:
                        tail = [x // g for x in tail]
            else:
                if not q and tail[0] != 1:
                    inv = pow(tail[0], -1, p)
                    tail = [a * inv % p for a in tail]
                stored[lead] = tail
                found.append(lead)
        yield found


def _echelon(rows, field):
    """Canonical integer reduced echelon form.

    Returns (rows, pivots): rows[r] is the r-th reduced row, as wide as the
    input rows, with its pivot at column pivots[r] and zeros at every other
    pivot column.  Pivots are increasing.  Over Q each row is primitive with
    a positive pivot, over F_p its pivot is 1, so the form depends only on
    the row space.

    Each nonzero input row becomes an integer row (primitive over Q,
    residues over F_p) and is placed by its first and last nonzero column.
    Rows whose [first, last] intervals overlap form a column block; the
    blocks are disjoint, so the row space is their direct sum and so is its
    reduced echelon form.  Each block is eliminated on its own column slice
    and its rows padded back to full width, so the caller's lists are never
    mutated or returned.
    """
    if field.is_rationals:
        work = [_to_primitive(row) for row in rows]
    else:
        p = field.p
        work = [[x % p for x in row] for row in rows]
    spans = []
    for row in work:
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

    out, pivots = [], []
    for lo, hi, block in blocks:
        pad = [0] * (len(block[0]) - hi - 1)
        block = [row[lo : hi + 1] for row in block]
        piv = _eliminate(block, field)
        out += [[0] * lo + row + pad for row in block[: len(piv)]]
        pivots += [lo + c for c in piv]
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


def _check_width(rows, ncols):
    for row in rows:
        if len(row) != ncols:
            raise AmbientMismatch("row of %d entries, expected %d" % (len(row), ncols))


def rref(rows, field, ncols):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Every row has ``ncols`` entries (else AmbientMismatch).  Rows come back
    as lists of field elements with pivots equal to 1, sorted by pivot
    column.
    """
    _check_width(rows, ncols)
    work, pivots = _echelon(rows, field)
    return _decode(work, field), pivots


def nullspace(rows, field, ncols):
    """Basis (as RREF) of {x : M x = 0}, M given by ``rows`` of ``ncols``
    entries each (else AmbientMismatch); see ``_kernel``."""
    _check_width(rows, ncols)
    return _decode(_kernel(rows, field, ncols), field)


def solve(rows, rhs, field, ncols):
    """Particular solution of M x = rhs with free variables set to zero.

    M is given by ``rows`` of ``ncols`` entries each, and ``rhs`` has one
    entry per row (else AmbientMismatch).  Returns a list of field elements
    or None when inconsistent.  The solution is the reduced-echelon
    particular solution, so it is deterministic: x[pc] is read off the
    canonical integer row with pivot column pc as row[ncols] / row[pc] (over
    F_p the pivot is 1), and only those entries are decoded.
    """
    _check_width(rows, ncols)
    if len(rhs) != len(rows):
        raise AmbientMismatch("%d right-hand sides for %d rows" % (len(rhs), len(rows)))
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
# Elimination grows about cubically with the column count: a perp in two
# variables up to degree 60 (1891 columns) takes seconds, up to degree 100
# (5151 columns) more than a minute.  The largest window the test suite and
# the benchmark build has 126 columns (P_{<=5} in 4 variables).
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


class Basis:
    """Canonical basis of a subspace of a window.

    Kept as the canonical integer reduced echelon form of ``_echelon``
    (primitive rows with a positive pivot over Q, pivot 1 over F_p), which
    every operation reads; ``rows`` and ``vectors()`` build field elements.
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
        return [self.window.decode(r) for r in self.rows]

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
