"""Exact linear algebra over Q and F_p: canonical subspaces of graded windows.

A :class:`Window` fixes an ambient space -- P or S, arity, and a set of
degrees -- together with the global graded-lex column order.  A
:class:`Basis` is a reduced row echelon matrix over that window, so subspace
equality is literal row equality.

``rref`` works on integer rows only.  Over Q each input row is scaled to a
primitive integer row (plain ints, gcd 1; a row that is already all ints
skips the denominators) and eliminated by cross-multiplication, the row gcd
divided out after every step, which keeps intermediate entries small.  Over
F_p the rows are residues.  Fractions appear again only in the output, when
each pivot is normalised to 1 at the very end.

Before eliminating, ``rref`` splits the columns into blocks.  Each nonzero
row covers the columns from its first to its last nonzero entry; rows whose
intervals overlap share a block, and the blocks are disjoint.  So the row
space is the direct sum of the blocks' row spaces, its reduced echelon form
is the direct sum of theirs, and each block is eliminated on its own column
slice.  A row filled from a homogeneous polynomial lives in one degree, so a
graded space -- every space built from a form -- splits into one block per
degree.  That integer echelon form (``_echelon``) is what callers read:
``rref`` normalises it, and ``nullspace`` reads the kernel off the echelon
form of the column-reversed rows, where the kernel vectors come out already
in reduced echelon form (see there), so nothing is eliminated twice.
"""

from fractions import Fraction
from itertools import compress, count
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
    every other pivot column (the pivot itself is not normalised).  Returns
    the pivot columns.
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
        tail = prow[col:]
        if not q:
            piv_inv = pow(piv, -1, p)
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
                factor = (c * piv_inv) % p
                row[col:] = [(a - factor * b) % p for a, b in zip(row[col:], tail)]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return pivots


def _echelon(rows, field):
    """Integer reduced echelon form, pivots not normalised.

    Returns (rows, pivots): rows[r] is the r-th reduced row, as wide as the
    input rows, with its pivot (an int, not necessarily 1) at column
    pivots[r] and zeros at every other pivot column.  Pivots are increasing.

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


def rref(rows, field, ncols):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Every row has ``ncols`` entries.  Rows come back as lists of field
    elements with pivots equal to 1, sorted by pivot column.
    """
    work, pivots = _echelon(rows, field)
    zero, p = field.zero(), field.p
    out = []
    for row, pc in zip(work, pivots):
        if p:
            inv = pow(row[pc], -1, p)
            out.append([(x * inv) % p for x in row])
        else:
            out.append([Fraction(x, row[pc]) if x else zero for x in row])
    return out, pivots


def nullspace(rows, field, ncols):
    """Basis (as RREF) of {x : M x = 0}, M given by ``rows``.

    Read off one ``_echelon`` of the column-reversed rows.  In the original
    order each of its rows ends at its pivot column pc and is 0 at the other
    pivot columns, so the kernel vector of a free column c (1 at c, x_pc =
    -row[c] / row[pc]) is 0 left of c and at every other free column: sorted
    by c, the vectors are the kernel's (unique) reduced echelon form.
    """
    red, pivots = _echelon([row[::-1] for row in rows], field)
    last = ncols - 1  # column c of a reversed row sits at last - c
    pivot_set = {last - pc for pc in pivots}
    zero, one, p = field.zero(), field.one(), field.p
    kernel = {c: [zero] * c + [one] + [zero] * (last - c)
              for c in range(ncols) if c not in pivot_set}
    for row, pc in zip(red, pivots):
        den = -row[pc]
        inv = pow(den, -1, p) if p else None
        for j in compress(count(), row):
            if j != pc:
                x = row[j]
                kernel[last - j][last - pc] = x * inv % p if p else Fraction(x, den)
    return list(kernel.values())


def solve(rows, rhs, field, ncols):
    """Particular solution of M x = rhs with free variables set to zero.

    Returns a list of field elements or None when inconsistent.  The
    solution is the reduced-echelon particular solution, so it is
    deterministic.
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug, field, ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
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
    """Canonical (RREF) basis of a subspace of a window."""

    def __init__(self, window, rows, reduced=False):
        self.window = window
        if reduced:
            self.rows = [list(r) for r in rows]
        else:
            self.rows, _ = rref(rows, window.field, window.dim)

    @property
    def dim(self):
        return len(self.rows)

    def vectors(self):
        return [self.window.decode(r) for r in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Basis)
            and self.window == other.window
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.window, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return "<Basis dim=%d of %r>" % (self.dim, self.window)

    def _require_same_window(self, other):
        if self.window != other.window:
            raise AmbientMismatch("windows differ: %r vs %r" % (self.window, other.window))

    def contains_vector(self, vec):
        row = self.window.encode(vec) if not isinstance(vec, list) else vec
        if len(row) != self.window.dim:
            raise AmbientMismatch("row of %d entries, window of %d" % (len(row), self.window.dim))
        return len(_echelon(self.rows + [row], self.window.field)[1]) == self.dim

    def contains(self, other):
        if isinstance(other, Basis):
            return self.sum(other).dim == self.dim
        return self.contains_vector(other)

    def sum(self, other):
        self._require_same_window(other)
        return Basis(self.window, self.rows + other.rows)

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
        zero = win.field.zero()
        cols = [win.index.get(e) for e in target.columns]
        eqs = [[zero if i is None else r[i] for i in cols] for r in self.rows]
        rows = nullspace(eqs, win.field, target.dim)
        return Basis(target, rows, reduced=True)


def span(vectors, window):
    return Basis(window, [window.encode(v) for v in vectors])
