"""The divided power ring P and the truncated power series ring S.

Elements of P (:class:`DPPoly`) are written on the basis x^[a]; elements of S
(:class:`Operator`) on the monomials a^b.  Both are sparse and keyed by
exponent tuples.  The canonical monomial order used everywhere is graded
lexicographic: lower total degree first, ties broken by descending
lexicographic comparison of exponent vectors.

Coefficients are stored in one canonical integer form: ``_num`` maps each
exponent e to a nonzero int and ``_den`` is one common denominator, so the
coefficient of the monomial e is _num[e] / _den.  Over Q, _den > 0 and
gcd(_den, *_num.values()) = 1; over F_p, _den = 1 and every numerator is a
residue in [1, p).  ``_make`` is the one place that brings a pair to this
form, so ``==`` and ``hash`` compare pairs.  Sums, scalings, products,
contractions and derivatives run on the numerators and reduce their result
once.  Field elements are built only at the boundary: the constructor
encodes them, and ``terms``, ``coeff`` and ``pair`` decode (``Fraction``
over Q, int over F_p).

Key operations:

* ``f * g`` on DPPoly: x^[a] * x^[b] = binom(a+b, a) x^[a+b] componentwise,
  binomials taken over Z and the product reduced once (so it is correct in
  small characteristic);
* ``contract(sigma, f)``: a^a -| x^[b] = x^[b-a] when b >= a, else 0;
* ``pair(tau, f)``: constant coefficient of tau -| f;
* ``omega`` / ``omega_inv``: the characteristic-zero dictionary
  x^[a] <-> x^a / a!, guarded against small characteristic.

``_ints_mul`` is the one operator product kernel: it multiplies a
(den, num) pair by a right factor sorted by degree (``_by_degree``) under a
truncation, without reducing mod p.  ``Operator.__mul__`` applies it to the
stored pairs.  The one power table of ``actions`` (``_power_table``, which
``subst``, ``compose``, the preimage solver and the dual action read)
builds each entry as one product of an earlier entry and one image, sorts
each image once per table, and leaves the reduction to the maps' results.

deg(0) is the sentinel -1, so tests like ``deg(...) <= 0`` admit the zero
polynomial.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb, factorial, gcd, lcm, prod
from operator import add, ge, sub

from .errors import ArityMismatch, FieldMismatch, IndexOutOfRange
from .fields import char_guard

ZERO_DEG = -1  # degree of the zero polynomial: any value < 0 works


# The shape caches: one table per shape, keyed by ints and tuples or ranges
# of degrees only (never a polynomial, coefficient or field), built once per
# process and shared, never mutated.  Keys reached by one set-up and pass of
# each benchmark workload (invariants / orbits / classify, seed 1001), and
# by the whole test suite in one process (distinct argument tuples):
#   monomials(n, d)                        29 / 20 / 15, suite 119; maxsize 128
#   linalg._window_table(n, degrees)       16 / 11 / 17, suite 173
#   apolarity._shift_table                 14 / 11 / 18, suite 102
#   apolarity._column_runs(n, degrees)      6 / 11 / 30, suite 146
#   apolarity._reversed_columns(n, i)      16 /  0 /  2, suite 35
#   tangent._reversed_maps(n, max_degree)   0 / 11 /  3, suite 34
# The filtration profiles add the _column_runs keys (n, range(d, -1, -1)).
# A range and the equal tuple of degrees are two keys, so the shift maps
# index their windows from monomials, not through _window_table, and a
# window's dual shares its table (``Window.dual``): _window_table's keys
# stay the windows' own, one per shape in a pass.  128 keeps every
# monomials key.  The five others keep 32 entries each, at least the keys
# of any pass (30 at most, _column_runs on classify), so no pass evicts a
# table: after one pass each cache's misses equal its size.  The suite
# evicts some, which only rebuilds them.  The tables of a benchmark shape
# (at most 126 columns) take a few KB.  At MAX_WINDOW_COLUMNS (2000
# columns) one shape's tables take at most 0.34, 0.13, 0.56 (n = 1, one
# run per degree), 0.18 and 0.14 MB in the order above (CPython 3.11,
# 64-bit, the shared monomial tuples not counted), so the five caches hold
# at most about 43 MB.
@lru_cache(maxsize=128)
def monomials(n, d):
    """Exponent tuples of total degree d (none if d < 0) in n variables,
    lex-descending, as one tuple per (n, d) shared by every caller.

    The multisets of d variable indices come in lexicographic order, the
    first index most often first, so their exponent vectors come
    lex-descending; no call recurses, whatever n."""
    out = []
    for idx in combinations_with_replacement(range(n), d) if d >= 0 else ():
        e = [0] * n
        for i in idx:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


def monomials_upto(n, dmax):
    for d in range(dmax + 1):
        yield from monomials(n, d)


def grlex_key(exps):
    return (sum(exps), tuple(-e for e in exps))


def _check_pair(a, b):
    if a.n != b.n:
        raise ArityMismatch("arity %d vs %d" % (a.n, b.n))
    if a.field != b.field:
        raise FieldMismatch("%r vs %r" % (a.field, b.field))


def _by_degree(den, num):
    """The (den, num) pair as ``_ints_mul``'s right factor: (den, its terms
    as (degree, exponent, numerator) triples sorted by degree)."""
    return den, sorted((sum(b), b, c) for b, c in num.items())


def _ints_mul(x, y, trunc):
    """The product of a (den, num) pair x and a pair y in the form of
    ``_by_degree``, truncated at total degree trunc, as a (den, num) pair.

    y comes sorted by degree, so a caller that multiplies by the same factor
    many times sorts it once, and the inner loop stops at the first term of
    degree above trunc - deg(a): no pair above the truncation is visited.
    The integers are not reduced mod p.
    """
    (dx, xs), (dy, right) = x, y
    out = {}
    get = out.get
    for a, ca in xs.items():
        room = trunc - sum(a)
        for db, b, cb in right:
            if db > room:
                break
            e = tuple(map(add, a, b))
            out[e] = get(e, 0) + ca * cb
    return dx * dy, out


class _Sparse:
    """Shared plumbing for sparse exponent-dict polynomials, stored as the
    canonical integer pair (``_den``, ``_num``) of the module docstring."""

    def __init__(self, n, field, terms):
        if n < 1:
            raise ArityMismatch("need at least one variable, got %d" % n)
        # every exponent key holds n ints >= 0
        if {*map(len, terms)} - {n}:
            raise ArityMismatch("exponent keys %r for %d variables" % (list(terms), n))
        exps = [*chain.from_iterable(terms)]
        if {*map(type, exps)} - {int} or min(exps, default=0) < 0:
            raise IndexOutOfRange("exponent keys %r need ints >= 0" % (list(terms),))
        # field elements: ints over F_p, ints and Fractions over Q
        values = terms.values()
        if {*map(type, values)} - ({int} if field.p else {int, Fraction}):
            raise FieldMismatch("coefficients %r are not elements of %r" % (list(values), field))
        self.n = n
        self.field = field
        D = lcm(*(c.denominator for c in values))
        new = self._make(D, {e: c.numerator * (D // c.denominator) for e, c in terms.items()})
        self._den, self._num = new._den, new._num

    def _make(self, den, num):
        """A polynomial like self (kind, arity, field, truncation) with the
        coefficients num[e] / den, in canonical form: zeros dropped, over Q
        divided by gcd(den, *num), over F_p reduced mod p (den is 1 there).
        The keys come from checked keys, so they are not checked again."""
        new = object.__new__(type(self))
        vars(new).update(vars(self))
        p = self.field.p
        if p:
            new._den, new._num = 1, {e: r for e, v in num.items() if (r := v % p)}
            return new
        num = {e: v for e, v in num.items() if v}
        g = gcd(den, *num.values())
        if g > 1:
            den, num = den // g, {e: v // g for e, v in num.items()}
        new._den, new._num = den, num
        return new

    @property
    def terms(self):
        """A new dict {exp: coefficient}: ``Fraction`` over Q, int in [1, p)
        over F_p."""
        if self.field.p:
            return dict(self._num)
        D = self._den
        return {e: Fraction(v, D) for e, v in self._num.items()}

    def is_zero(self):
        return not self._num

    @property
    def degree(self):
        return max(map(sum, self._num), default=ZERO_DEG)

    def coeff(self, exps):
        v = self._num.get(tuple(exps), 0)
        return v if self.field.p else Fraction(v, self._den)

    def _part(self, keep):
        """The terms whose total degree d has keep(d)."""
        return self._make(self._den, {e: v for e, v in self._num.items() if keep(sum(e))})

    def homogeneous_part(self, d):
        return self._part(lambda k: k == d)

    def part_from(self, d):
        return self._part(lambda k: k >= d)

    def scale(self, c):
        num = c.numerator
        return self._make(self._den * c.denominator, {e: v * num for e, v in self._num.items()})

    def __add__(self, other):
        _check_pair(self, other)
        dx, dy = self._den, other._den
        L = lcm(dx, dy)
        out = {e: v * (L // dx) for e, v in self._num.items()}
        s = L // dy
        for e, v in other._num.items():
            out[e] = out.get(e, 0) + v * s
        return self._make(L, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._make(self._den, {e: -v for e, v in self._num.items()})

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.n == other.n
            and self.field == other.field
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        key = self._den, frozenset(self._num.items())
        return hash((type(self).__name__, self.n, self.field, key))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def _term_str(self, var):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, a in enumerate(e):
                if a == 1:
                    factors.append("%s%d" % (var, i + 1))
                elif a > 1:
                    factors.append("%s%d^[%d]" % (var, i + 1, a))
            if not factors:
                parts.append(str(c))
            elif c == self.field.one():
                parts.append("*".join(factors))
            elif c == -1:  # over Q only: an F_p residue is never -1
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


class DPPoly(_Sparse):
    """A divided power polynomial, element of P = k_dp[x_1..x_n]."""

    @classmethod
    def zero(cls, n, field):
        return cls(n, field, {})

    @classmethod
    def monomial(cls, n, field, exps, coeff=None):
        exps = tuple(exps)
        return cls(n, field, {exps: field.one() if coeff is None else coeff})

    @classmethod
    def variable(cls, n, field, i):
        if not 1 <= i <= n:
            raise IndexOutOfRange("variable index %d" % i)
        return cls.monomial(n, field, tuple(1 if j == i - 1 else 0 for j in range(n)))

    def __mul__(self, other):
        _check_pair(self, other)
        out = {}
        get = out.get
        for a, ca in self._num.items():
            for b, cb in other._num.items():
                e = tuple(map(add, a, b))
                out[e] = get(e, 0) + ca * cb * prod(map(comb, e, a))
        return self._make(self._den * other._den, out)

    def tdf(self):
        """Top degree form; tdf(0) = 0."""
        if self.is_zero():
            return self
        return self.homogeneous_part(self.degree)

    def __repr__(self):
        return "<DPPoly %s>" % self._term_str("x")


class Operator(_Sparse):
    """An element of S = k[[a_1..a_n]] truncated at total degree ``trunc``."""

    def __init__(self, n, field, terms, trunc):
        super().__init__(n, field, terms)  # checks every key, also those above trunc
        self.trunc = trunc
        cut = self._part(lambda k: k <= trunc)
        self._den, self._num = cut._den, cut._num

    @classmethod
    def zero(cls, n, field, trunc):
        return cls(n, field, {}, trunc)

    @classmethod
    def one(cls, n, field, trunc):
        return cls(n, field, {(0,) * n: field.one()}, trunc)

    @classmethod
    def monomial(cls, n, field, exps, trunc, coeff=None):
        exps = tuple(exps)
        return cls(n, field, {exps: field.one() if coeff is None else coeff}, trunc)

    @classmethod
    def variable(cls, n, field, i, trunc):
        if not 1 <= i <= n:
            raise IndexOutOfRange("variable index %d" % i)
        return cls.monomial(n, field, tuple(1 if j == i - 1 else 0 for j in range(n)), trunc)

    @property
    def order(self):
        """min total degree of a term; the zero operator has order trunc+1."""
        return min(map(sum, self._num), default=self.trunc + 1)

    def is_unit(self):
        return (0,) * self.n in self._num

    def __add__(self, other):
        _check_pair(self, other)
        if self.trunc != other.trunc:
            raise FieldMismatch("truncation %d vs %d" % (self.trunc, other.trunc))
        return super().__add__(other)

    def _at(self, trunc):
        """self truncated at ``trunc``; its keys were checked, so they are not
        checked again."""
        if trunc == self.trunc:
            return self  # operators are never mutated
        new = self._part(lambda k: k <= trunc)
        new.trunc = trunc
        return new

    def __mul__(self, other):
        _check_pair(self, other)
        if self.trunc != other.trunc:
            raise FieldMismatch("truncation %d vs %d" % (self.trunc, other.trunc))
        right = _by_degree(other._den, other._num)
        return self._make(*_ints_mul((self._den, self._num), right, self.trunc))

    def power(self, k):
        result = Operator.one(self.n, self.field, self.trunc)
        for _ in range(k):
            result = result * self
        return result

    def partial_derivative(self, i):
        """Formal d/da_i, integer coefficients reduced into the field."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange("variable index %d" % i)
        return self._make(self._den, {
            e[: i - 1] + (e[i - 1] - 1,) + e[i:]: v * e[i - 1]
            for e, v in self._num.items() if e[i - 1]
        })

    def inverse(self):
        """Multiplicative inverse of a unit, via the geometric series."""
        from .errors import NotAUnit

        f = self.field
        c0 = self.coeff((0,) * self.n)
        if f.is_zero(c0):
            raise NotAUnit("operator has zero constant term")
        c0inv = f.inv(c0)
        # u = c0 (1 - m) with ord(m) >= 1; u^-1 = c0^-1 sum m^k
        m = Operator.one(self.n, f, self.trunc) - self.scale(c0inv)
        result = Operator.one(self.n, f, self.trunc)
        mk = Operator.one(self.n, f, self.trunc)
        for _ in range(self.trunc):
            mk = mk * m
            if mk.is_zero():
                break
            result = result + mk
        return result.scale(c0inv)

    def __repr__(self):
        return "<Operator %s trunc=%d>" % (self._term_str("a"), self.trunc)


def contract(sigma, f):
    """sigma -| f for sigma in S and f in P."""
    _check_pair(sigma, f)
    out = {}
    get = out.get
    for a, ca in sigma._num.items():
        for b, cb in f._num.items():
            if all(map(ge, b, a)):
                e = tuple(map(sub, b, a))
                out[e] = get(e, 0) + ca * cb
    return f._make(sigma._den * f._den, out)


def pair(tau, f):
    """<tau, f>: the constant coefficient of tau -| f."""
    _check_pair(tau, f)
    get = f._num.get
    v = sum(c * get(a, 0) for a, c in tau._num.items())
    p = f.field.p
    return v % p if p else Fraction(v, tau._den * f._den)


class ClassicalPoly(_Sparse):
    """A polynomial with classical coefficients (monomial basis x^a)."""

    def __repr__(self):
        return "<ClassicalPoly %s>" % self._term_str("x")


def omega(f):
    """The ring isomorphism x^[a] -> x^a / a!; needs char 0 or > deg f."""
    k = f.field
    char_guard(k, max(f.degree, 0))
    return ClassicalPoly(f.n, k, {
        e: k.div(c, k.from_int(prod(map(factorial, e)))) for e, c in f.terms.items()
    })


def omega_inv(g):
    """Inverse of omega: x^a -> a! x^[a]; needs char 0 or > deg g."""
    char_guard(g.field, max(g.degree, 0))
    num = {e: v * prod(map(factorial, e)) for e, v in g._num.items()}
    return DPPoly.zero(g.n, g.field)._make(g._den, num)
