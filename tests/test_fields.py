from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cikit.fields import PRIMALITY_LIMIT, QQ, GF, Field, FieldError, is_prime


def test_rationals_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.of_fraction(3, 2) == Fraction(3, 2)
    assert QQ.is_rationals


def test_prime_field_arithmetic():
    F = GF(5)
    assert F.add(3, 4) == 2
    assert F.mul(3, 4) == 2
    assert F.inv(2) == 3
    assert F.of_fraction(1, 2) == 3
    assert F.of_int(-1) == 4
    assert F.characteristic == 5


def test_char_two_rejected():
    with pytest.raises(FieldError):
        GF(2)


def test_non_prime_rejected():
    with pytest.raises(FieldError):
        GF(9)
    with pytest.raises(FieldError):
        GF(1)


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if by_trial_division(n)
    ]


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, and strong pseudoprimes to the bases 2, 3, 5, 7
    for n in (561, 1105, 1729, 41041, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    with pytest.raises(FieldError):
        GF(561)


def test_large_prime_fields():
    assert GF(2**61 - 1).p == 2**61 - 1
    assert Field.parse(f"Fp {2**61 - 1}").characteristic == 2**61 - 1
    assert not is_prime(2**61 + 1)
    with pytest.raises(FieldError, match=str(PRIMALITY_LIMIT)):
        GF(2**127 - 1)


def test_parse():
    assert Field.parse("Q") == QQ
    assert Field.parse("QQ") == QQ
    assert Field.parse("F7") == GF(7)
    assert Field.parse("Fp 11") == GF(11)
    assert Field.parse("GF(13)") == GF(13)
    assert Field.parse("Fp7") == GF(7)
    assert Field.parse("GF7") == GF(7)
    assert Field.parse(" Fp 7 ") == GF(7)
    with pytest.raises(FieldError):
        Field.parse("R")


@pytest.mark.parametrize("spec", ["GFFG7", "FG7", "F(7", "GF(7", "F7)", "Fp", "Fpx", "F", "GF",
                                  "GF()", "FF7", "F 7", "Q7", "Fp 7x", ""])
def test_parse_rejects_malformed_specs(spec):
    with pytest.raises(FieldError):
        Field.parse(spec)


def test_add_into_drops_zero_sums():
    terms = {"a": Fraction(1, 2), "b": 3}
    QQ.add_into(terms, "a", Fraction(-1, 2))
    QQ.add_into(terms, "b", 1)
    QQ.add_into(terms, "c", Fraction(2, 3))
    assert terms == {"b": 4, "c": Fraction(2, 3)}
    F = GF(7)
    terms = {"a": 3, "b": 5}
    F.add_into(terms, "a", 4)
    F.add_into(terms, "b", 5)
    F.add_into(terms, "c", 6)
    assert terms == {"b": 3, "c": 6}


def test_rationals_keep_integral_values_as_int():
    for value in (QQ.of_int(3), QQ.of_fraction(4, 2),
                  QQ.of_int(-5), QQ.of_fraction(6, -3), QQ.inv(-1),
                  QQ.inv(Fraction(1, 3))):
        assert type(value) is int
    assert QQ.of_fraction(4, 2) == 2 and QQ.inv(Fraction(1, 3)) == 3
    for value, want in ((QQ.inv(2), Fraction(1, 2)), (QQ.div(1, 3), Fraction(1, 3)),
                        (QQ.of_fraction(1, 3), Fraction(1, 3))):
        assert type(value) is Fraction and value == want


rationals = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12),
                      st.integers(-50, 50).map(Fraction))


@settings(max_examples=300, deadline=None)
@given(a=rationals, b=rationals)
def test_rational_ops_agree_with_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    cases = [(QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb), (QQ.mul(a, b), fa * fb),
             (QQ.neg(a), -fa)]
    if b:
        inv = QQ.inv(b)
        assert type(inv) is int or inv.denominator != 1
        cases += [(inv, 1 / fb), (QQ.div(a, b), fa / fb)]
    for got, want in cases:
        assert type(got) in (int, Fraction)
        assert got == want
