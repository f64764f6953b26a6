"""Signed tropical arithmetic: -oo, extended reals and signed numbers."""

from fractions import Fraction

import pytest

from tropsdp.tropical import (MINUS_INF, POS, NEG, TROP_ZERO, SignedTrop,
                              as_fraction, is_finite)


def test_minus_inf_is_a_singleton_and_orders_below_everything():
    assert MINUS_INF < Fraction(-10**9)
    assert MINUS_INF <= MINUS_INF
    assert not (MINUS_INF < MINUS_INF)
    assert Fraction(0) > MINUS_INF
    assert max(MINUS_INF, Fraction(-1)) == Fraction(-1)


def test_minus_inf_absorbs_addition():
    assert MINUS_INF + Fraction(5) is MINUS_INF
    assert Fraction(5) + MINUS_INF is MINUS_INF
    assert MINUS_INF + MINUS_INF is MINUS_INF


def test_minus_inf_scaling_rejects_negative_factors():
    # 2 * (-oo) = -oo is fine, but (-1) * (-oo) would be +oo which we
    # don't represent.
    assert 2 * MINUS_INF is MINUS_INF
    with pytest.raises(ArithmeticError):
        (-1) * MINUS_INF


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == Fraction(2)


def test_signed_trop_constructors():
    a = SignedTrop.pos(Fraction(1, 2))
    b = SignedTrop.neg(Fraction(1, 2))
    assert a.sign == POS and b.sign == NEG
    assert a.modulus == b.modulus == Fraction(1, 2)
    assert TROP_ZERO.is_zero
    assert not a.is_zero


def test_signed_trop_rejects_inconsistent_zero():
    with pytest.raises(ValueError):
        SignedTrop(POS, MINUS_INF)
    with pytest.raises(ValueError):
        SignedTrop(0, Fraction(1))


def test_is_finite():
    assert is_finite(Fraction(3))
    assert not is_finite(MINUS_INF)
