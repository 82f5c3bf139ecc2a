"""Exact scalar arithmetic over Q and prime fields F_p.

Scalars are plain Python values: ``fractions.Fraction`` over Q and ints in
``[0, p)`` over F_p.  A :class:`FieldSpec` bundles the operations so the rest
of the package can stay field-agnostic.  Binomial coefficients are always
evaluated over the integers first and only then reduced into the field, so
that e.g. ``binom(3, 1) == 0`` over F_3.
"""

import math
from fractions import Fraction

from .errors import CharacteristicTooSmall, DivisionByZero


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every p below the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); larger moduli are rejected.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Whether 0 <= p < _PRIME_BOUND is prime (Miller-Rabin over _BASES)."""
    if p < 2:
        return False
    for q in _BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Either the rationals (p == 0) or the prime field F_p."""

    def __init__(self, p=0):
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError("modulus %r is not an int" % (p,))
        if p >= _PRIME_BOUND:
            raise ValueError("modulus %d is too large to be checked prime" % p)
        if p != 0 and not _is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p

    @property
    def char(self):
        return self.p

    @property
    def is_rationals(self):
        return self.p == 0

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else "GF(%d)" % self.p

    # -- element construction ------------------------------------------------

    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def from_int(self, n):
        return Fraction(n) if self.p == 0 else n % self.p

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if self.p == 0:
            return fr
        return self.div(self.from_int(fr.numerator), self.from_int(fr.denominator))

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.p == 0:
            return 1 / a
        return pow(a, -1, self.p)

    def div(self, a, b):
        if self.is_zero(b):
            raise DivisionByZero("division by zero")
        if self.p == 0:
            return a / b
        return (a * pow(b, -1, self.p)) % self.p

    def is_zero(self, a):
        return a == 0

    def binom(self, n, k):
        """binom(n, k) over Z, reduced into the field."""
        if k < 0 or k > n:
            return self.zero()
        return self.from_int(math.comb(n, k))

    def factorial(self, n):
        return self.from_int(math.factorial(n))


QQ = FieldSpec(0)


def GF(p):
    """The prime field F_p; p < 2 is rejected (FieldSpec(0) is Q)."""
    if isinstance(p, int) and p < 2:
        raise ValueError("a prime field needs p >= 2, got %r" % (p,))
    return FieldSpec(p)


def char_guard(field, degree):
    """Enforce: characteristic zero, or greater than every degree in play."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if field.p != 0 and field.p <= degree:
        raise CharacteristicTooSmall(field.p, degree)
