"""Exact linear algebra over Q and F_p: canonical subspaces of graded windows.

A :class:`Window` fixes an ambient space -- P or S, arity, and a set of
degrees -- together with the global graded-lex column order.  A
:class:`Basis` is a reduced row echelon matrix over that window, so subspace
equality is literal row equality.

Over Q the elimination is fraction-free: ``rref`` scales each input row to a
primitive integer row (plain ints, gcd 1) and works on those integer rows
only, eliminating by cross-multiplication and dividing out the row gcd after
every step, which keeps intermediate entries small.  Fractions appear again
only in the output, when each pivot is normalised to 1 at the very end.
"""

from fractions import Fraction
from math import gcd, lcm

from .dp import DPPoly, Operator, monomials
from .errors import AmbientMismatch


# ---------------------------------------------------------------------------
# Row reduction


def _to_primitive(row):
    """Scale a row of ints and Fractions to a primitive integer row (gcd 1)."""
    L = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (L // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def rref(rows, field, ncols):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Rows come back as lists of field elements with pivots equal to 1,
    sorted by pivot column.
    """
    if field.is_rationals:
        work = [_to_primitive(row) for row in rows]
    else:
        work = [[x % field.p for x in row] for row in rows]
    work = [row for row in work if any(row)]

    pivots = []
    rank = 0
    for col in range(ncols):
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
        if not field.is_rationals:
            piv_inv = pow(piv, -1, field.p)
        for r in range(len(work)):
            row = work[r]
            if r == rank or row[col] == 0:
                continue
            c = row[col]
            if field.is_rationals:
                row = [piv * a for a in row[:col]] + [
                    piv * a - c * b for a, b in zip(row[col:], tail)
                ]
                g = gcd(*row)
                work[r] = [x // g for x in row] if g > 1 else row
            else:
                factor = (c * piv_inv) % field.p
                row[col:] = [(a - factor * b) % field.p for a, b in zip(row[col:], tail)]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break

    out = []
    zero = field.zero()
    for r in range(rank):
        piv = work[r][pivots[r]]
        if field.is_rationals:
            out.append([Fraction(x, piv) if x else zero for x in work[r]])
        else:
            inv = pow(piv, -1, field.p)
            out.append([(x * inv) % field.p for x in work[r]])
    return out, pivots


def nullspace(rows, field, ncols):
    """Basis (as RREF) of {x : M x = 0}, M given by ``rows``."""
    red, pivots = rref(rows, field, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(red[r][fc])
        basis.append(vec)
    out, _ = rref(basis, field, ncols)
    return out


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


class Window:
    """Ambient graded window: space 'P' or 'S', arity n, tuple of degrees."""

    def __init__(self, space, n, degrees, field):
        if space not in ("P", "S"):
            raise ValueError("space must be 'P' or 'S'")
        self.space = space
        self.n = n
        self.degrees = tuple(sorted(set(degrees)))
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
        row = self.window.encode(vec) if not isinstance(vec, list) else list(vec)
        field = self.window.field
        pivots = {next(i for i, x in enumerate(r) if not field.is_zero(x)): r for r in self.rows}
        for col, prow in sorted(pivots.items()):
            c = row[col]
            if field.is_zero(c):
                continue
            row = [field.sub(a, field.mul(c, b)) for a, b in zip(row, prow)]
        return all(field.is_zero(x) for x in row)

    def contains(self, other):
        if isinstance(other, Basis):
            self._require_same_window(other)
            return all(self.contains_vector(list(r)) for r in other.rows)
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
        eqs = []
        for r in self.rows:
            eq = []
            for e in target.columns:
                idx = win.index.get(e)
                eq.append(r[idx] if idx is not None else win.field.zero())
            eqs.append(eq)
        rows = nullspace(eqs, win.field, target.dim)
        return Basis(target, rows, reduced=True)


def span(vectors, window):
    return Basis(window, [window.encode(v) for v in vectors])
