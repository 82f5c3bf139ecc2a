"""The divided power ring P and the truncated power series ring S.

Elements of P (:class:`DPPoly`) are written on the basis x^[a]; elements of S
(:class:`Operator`) on the monomials a^b.  Both are sparse dicts keyed by
exponent tuples.  The canonical monomial order used everywhere is graded
lexicographic: lower total degree first, ties broken by descending
lexicographic comparison of exponent vectors.

Key operations:

* ``f * g`` on DPPoly: x^[a] * x^[b] = binom(a+b, a) x^[a+b] componentwise,
  binomials taken over Z then reduced (correct in small characteristic);
* ``contract(sigma, f)``: a^a -| x^[b] = x^[b-a] when b >= a, else 0;
* ``pair(tau, f)``: constant coefficient of tau -| f;
* ``omega`` / ``omega_inv``: the characteristic-zero dictionary
  x^[a] <-> x^a / a!, guarded against small characteristic.

Operator products run on integers.  ``_to_ints`` writes a term dict as
(D, {exp: int}) over one common denominator D (the lcm of the denominators
over Q; D = 1 and the residues over F_p), ``_ints_mul`` multiplies two such
pairs under a truncation without reducing mod p, and ``_from_ints`` builds
the field elements -- ``Fraction(v, D)`` over Q, ``v % p`` over F_p -- once,
for the result handed back.  ``Operator.__mul__`` is these three steps;
``actions.subst`` and ``actions.apply_automorphism_dual`` chain products in
the integer form and decode only their own results.

deg(0) is the sentinel -1, so tests like ``deg(...) <= 0`` admit the zero
polynomial.
"""

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add

from .errors import ArityMismatch, FieldMismatch, IndexOutOfRange
from .fields import char_guard

ZERO_DEG = -1  # degree of the zero polynomial: any value < 0 works


def monomials(n, d):
    """Exponent tuples of total degree d (none if d < 0) in n variables, lex-descending."""
    if n == 1:
        if d >= 0:
            yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials(n - 1, d - first):
            yield (first,) + rest


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


def _to_ints(terms, field):
    """(D, {exp: int}) with terms[e] = ints[e] / D.  Over Q, D is the lcm of
    the denominators; over F_p, D = 1 and the residues are kept."""
    if field.p:
        return 1, terms
    D = lcm(*(c.denominator for c in terms.values()))
    return D, {e: c.numerator * (D // c.denominator) for e, c in terms.items()}


def _ints_mul(x, y, trunc):
    """The product of two ``_to_ints`` pairs, truncated at total degree trunc.

    y's terms are sorted by degree once, so the inner loop stops at the
    first term of degree above trunc - deg(a): no pair above the truncation
    is visited.  The integers are not reduced mod p.
    """
    (dx, xs), (dy, ys) = x, y
    right = sorted((sum(b), b, c) for b, c in ys.items())
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


def _from_ints(x, field):
    """The nonzero field coefficients of a ``_to_ints`` pair: ints[e] / D as
    a Fraction over Q, ints[e] mod p over F_p."""
    D, ints = x
    if field.p:
        p = field.p
        return {e: v % p for e, v in ints.items() if v % p}
    return {e: Fraction(v, D) for e, v in ints.items() if v}


class _Sparse:
    """Shared plumbing for sparse exponent-dict polynomials."""

    def __init__(self, n, field, terms):
        if n < 1:
            raise ArityMismatch("need at least one variable, got %d" % n)
        # every exponent key holds n ints >= 0
        if {*map(len, terms)} - {n}:
            raise ArityMismatch("exponent keys %r for %d variables" % (list(terms), n))
        exps = [*chain.from_iterable(terms)]
        if {*map(type, exps)} - {int} or min(exps, default=0) < 0:
            raise IndexOutOfRange("exponent keys %r need ints >= 0" % (list(terms),))
        self.n = n
        self.field = field
        self.terms = {e: c for e, c in terms.items() if not field.is_zero(c)}

    def _make(self, terms):
        """A polynomial like self (kind, arity, field, truncation) with
        ``terms``.  Their keys come from self's checked keys and stay within
        its truncation, so they are not checked again."""
        new = object.__new__(type(self))
        new.n, new.field = self.n, self.field
        new.terms = {e: c for e, c in terms.items() if not self.field.is_zero(c)}
        return new

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        if not self.terms:
            return ZERO_DEG
        return max(sum(e) for e in self.terms)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.field.zero())

    def homogeneous_part(self, d):
        return self._make({e: c for e, c in self.terms.items() if sum(e) == d})

    def part_upto(self, d):
        return self._make({e: c for e, c in self.terms.items() if sum(e) <= d})

    def part_from(self, d):
        return self._make({e: c for e, c in self.terms.items() if sum(e) >= d})

    def scale(self, c):
        f = self.field
        return self._make({e: f.mul(c, v) for e, v in self.terms.items()})

    def __add__(self, other):
        _check_pair(self, other)
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.add(out.get(e, f.zero()), c)
        return self._make(out)

    def __sub__(self, other):
        return self + other.scale(self.field.from_int(-1))

    def __neg__(self):
        return self.scale(self.field.from_int(-1))

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.n == other.n
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.field, frozenset(self.terms.items())))

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
        f = self.field
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                c = f.mul(ca, cb)
                for ai, bi in zip(a, b):
                    c = f.mul(c, f.binom(ai + bi, ai))
                    if f.is_zero(c):
                        break
                if f.is_zero(c):
                    continue
                e = tuple(ai + bi for ai, bi in zip(a, b))
                prev = out.get(e, f.zero())
                out[e] = f.add(prev, c)
        return self._make(out)

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
        self.terms = {e: c for e, c in self.terms.items() if sum(e) <= trunc}
        self.trunc = trunc

    def _make(self, terms):
        new = super()._make(terms)
        new.trunc = self.trunc
        return new

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
        if not self.terms:
            return self.trunc + 1
        return min(sum(e) for e in self.terms)

    def is_unit(self):
        return not self.field.is_zero(self.terms.get((0,) * self.n, self.field.zero()))

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
        new = self._make({e: c for e, c in self.terms.items() if sum(e) <= trunc})
        new.trunc = trunc
        return new

    def __mul__(self, other):
        _check_pair(self, other)
        if self.trunc != other.trunc:
            raise FieldMismatch("truncation %d vs %d" % (self.trunc, other.trunc))
        f = self.field
        prod = _ints_mul(_to_ints(self.terms, f), _to_ints(other.terms, f), self.trunc)
        return self._make(_from_ints(prod, f))

    def power(self, k):
        result = Operator.one(self.n, self.field, self.trunc)
        for _ in range(k):
            result = result * self
        return result

    def partial_derivative(self, i):
        """Formal d/da_i, integer coefficients reduced into the field."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange("variable index %d" % i)
        f = self.field
        out = {}
        for e, c in self.terms.items():
            a = e[i - 1]
            if a == 0:
                continue
            new = e[: i - 1] + (a - 1,) + e[i:]
            coeff = f.mul(c, f.from_int(a))
            if not f.is_zero(coeff):
                out[new] = f.add(out.get(new, f.zero()), coeff)
        return self._make(out)

    def inverse(self):
        """Multiplicative inverse of a unit, via the geometric series."""
        from .errors import NotAUnit

        f = self.field
        c0 = self.terms.get((0,) * self.n, f.zero())
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
    k = f.field
    out = {}
    for a, ca in sigma.terms.items():
        for b, cb in f.terms.items():
            if all(bi >= ai for ai, bi in zip(a, b)):
                e = tuple(bi - ai for ai, bi in zip(a, b))
                out[e] = k.add(out.get(e, k.zero()), k.mul(ca, cb))
    return DPPoly(f.n, k, out)


def pair(tau, f):
    """<tau, f>: the constant coefficient of tau -| f."""
    _check_pair(tau, f)
    k = f.field
    out = k.zero()
    for a, ca in tau.terms.items():
        cb = f.terms.get(a)
        if cb is not None:
            out = k.add(out, k.mul(ca, cb))
    return out


class ClassicalPoly(_Sparse):
    """A polynomial with classical coefficients (monomial basis x^a)."""

    def __mul__(self, other):
        _check_pair(self, other)
        f = self.field
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                e = tuple(ai + bi for ai, bi in zip(a, b))
                out[e] = f.add(out.get(e, f.zero()), f.mul(ca, cb))
        return self._make(out)

    def __repr__(self):
        return "<ClassicalPoly %s>" % self._term_str("x")


def omega(f):
    """The ring isomorphism x^[a] -> x^a / a!; needs char 0 or > deg f."""
    k = f.field
    char_guard(k, max(f.degree, 0))
    out = {}
    for e, c in f.terms.items():
        denom = k.one()
        for a in e:
            denom = k.mul(denom, k.factorial(a))
        out[e] = k.div(c, denom)
    return ClassicalPoly(f.n, k, out)


def omega_inv(g):
    """Inverse of omega: x^a -> a! x^[a]; needs char 0 or > deg g."""
    k = g.field
    char_guard(k, max(g.degree, 0))
    out = {}
    for e, c in g.terms.items():
        fac = k.one()
        for a in e:
            fac = k.mul(fac, k.factorial(a))
        out[e] = k.mul(c, fac)
    return DPPoly(g.n, k, out)

