from fractions import Fraction

import pytest

from apolar import GF, QQ, FieldSpec, char_guard
from apolar.errors import CharacteristicTooSmall, DivisionByZero


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
