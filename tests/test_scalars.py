from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadralg.scalars import QQ, GF, field_from_descriptor


def _exactly(value, expected):
    return type(value) is type(expected) and value == expected


def test_rational_coercion():
    assert _exactly(QQ(3), 3)
    assert _exactly(QQ("2/5"), Fraction(2, 5))
    assert _exactly(QQ.one, 1) and _exactly(QQ.zero, 0)
    assert _exactly(QQ.div(QQ.one, QQ(4)), Fraction(1, 4))
    assert _exactly(QQ(Fraction(6, 3)), 2)
    assert _exactly(QQ("3/1"), 3)
    assert _exactly(QQ(True), 1)


def test_rational_division_is_canonical():
    assert _exactly(QQ.div(6, -3), -2)
    assert _exactly(QQ.div(Fraction(3, 2), Fraction(1, 2)), 3)
    assert _exactly(QQ.div(-7, 2), Fraction(-7, 2))
    assert _exactly(QQ.inv(Fraction(-1, 3)), -3)
    assert _exactly(QQ.inv(4), Fraction(1, 4))


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.div(QQ.one, QQ.zero)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_floats_are_refused():
    with pytest.raises(TypeError):
        QQ(0.1)
    with pytest.raises(TypeError):
        QQ(2.0)
    with pytest.raises(TypeError):
        QQ.div(Fraction(1, 3), 0.5)
    with pytest.raises(TypeError):
        GF(7)(0.5)


def test_skew_refuses_a_float_parameter():
    from quadralg.algebra import QuadraticPresentation
    with pytest.raises(TypeError):
        QuadraticPresentation.skew(QQ, ["x", "y"], [[1, 0.5], [2, 1]])


def test_prime_field_arithmetic():
    F = GF(7)
    a, b = F(3), F(5)
    assert a + b == F(1)
    assert a * b == F(1)
    assert a / b == F(3) * F(3)  # 5^{-1} = 3 mod 7
    assert F.div(3, 5) == F(2) and F.inv(b) == F(3)
    assert -a == F(4)
    assert bool(F(0)) is False


def test_prime_field_division_by_zero():
    F = GF(5)
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(F(5))
    with pytest.raises(ZeroDivisionError):
        F(Fraction(1, 5))


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        GF(6)


def test_descriptor_roundtrip():
    assert field_from_descriptor("QQ") == QQ
    assert field_from_descriptor("11") == GF(11)
    assert field_from_descriptor(13) == GF(13)


def _trial_division(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_large_mersenne_prime_accepted():
    # trial division up to sqrt(2^61 - 1) would not finish here
    F = GF(2**61 - 1)
    assert F(2**61) == F(1)


@pytest.mark.parametrize("p", [561, 2**61 + 1, 3215031751, 2**64 + 1])
def test_composites_refused(p):
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    with pytest.raises(ValueError, match="not prime"):
        GF(p)


def test_characteristic_above_certified_bound_refused():
    from quadralg.scalars import MAX_CHARACTERISTIC
    with pytest.raises(ValueError, match="certified bound"):
        GF(MAX_CHARACTERISTIC)
    # the largest prime below 2^80 is still in range
    assert GF(2**80 - 65).p == 2**80 - 65


@given(st.integers(min_value=-5, max_value=10**6))
def test_primality_agrees_with_trial_division(p):
    from quadralg.scalars import _is_prime
    assert _is_prime(p) == _trial_division(p)
