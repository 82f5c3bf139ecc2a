import math
import time
from fractions import Fraction

import pytest

from apolar import GF, QQ, FieldSpec, char_guard
from apolar.errors import CharacteristicTooSmall, DivisionByZero
from apolar.fields import _PRIME_BOUND, _is_prime


def test_rationals_basics():
    assert QQ.char == 0
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert QQ.from_int(-3) == Fraction(-3)


def test_prime_field_basics():
    F = GF(7)
    assert F.from_int(-1) == 6
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.div(1, 4) == 2


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        GF(5).div(3, 0)


def test_binom_reduced_after_integer_evaluation():
    # binom(3,1) = 3 == 0 in F_3, but binom is computed over Z first
    assert GF(3).binom(3, 1) == 0
    assert GF(3).binom(4, 2) == 0  # 6 mod 3
    assert QQ.binom(5, 2) == 10
    assert QQ.binom(3, 5) == 0
    assert QQ.binom(3, -1) == 0


def test_char_guard():
    char_guard(QQ, 100)
    char_guard(GF(7), 6)
    with pytest.raises(CharacteristicTooSmall):
        char_guard(GF(7), 7)
    with pytest.raises(CharacteristicTooSmall):
        char_guard(GF(2), 3)


def test_from_fraction_in_prime_field():
    F = GF(5)
    assert F.from_fraction(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1


def test_gf_rejects_moduli_below_two():
    # FieldSpec(0) is Q, so GF(0) must not quietly return it
    for p in (0, 1, -2):
        with pytest.raises(ValueError):
            GF(p)


def test_moduli_that_are_not_ints_are_rejected():
    # GF(7.0) used to print as GF(7) and equal it, then fail in elimination
    for p in (7.0, 0.0, True, False, "7", Fraction(7), None):
        with pytest.raises(ValueError):
            FieldSpec(p)
        with pytest.raises(ValueError):
            GF(p)
    assert FieldSpec() == FieldSpec(0) == QQ


def _reference_is_prime(p):
    """Trial division."""
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def test_primality_matches_trial_division():
    for p in range(3000):
        assert _is_prime(p) == _reference_is_prime(p), p
    for p in range(10**9, 10**9 + 300):
        assert _is_prime(p) == _reference_is_prime(p), p


def test_large_prime_moduli_are_checked_quickly():
    start = time.perf_counter()
    for p in (2**61 - 1, 2**64 - 59, 10**15 + 37):
        assert GF(p).p == p
    assert time.perf_counter() - start < 1.0
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
    # 318665857834031151167461 to every prime base up to 37
    for p in (3215031751, 2**61 + 1, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec(p)
    # the least strong pseudoprime to every base up to 41, and a prime above it
    for p in (_PRIME_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            GF(p)
