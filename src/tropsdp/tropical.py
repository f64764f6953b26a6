"""Signed tropical arithmetic.

The tropical (max-plus) semifield is R u {-oo} with max as addition and + as
multiplication.  A *signed* tropical number additionally carries a sign, so
it is either +a (tropically positive), -a ("theta a", tropically negative),
or the bottom element -oo.

This module provides the bottom element -oo, extended reals and signed
numbers, the scalars that pencil entries and game points are made of.
Moduli are exact rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class _MinusInf:
    """The bottom element -oo: absorbing for +, smaller than every rational.

    A singleton; compare with ``is`` or ``==`` (equality falls back to
    identity).  Scaling by a nonnegative rational leaves it fixed, which is
    the convention used by the Shapley operator: (1/2)*(-oo) = -oo.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-oo"

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and other < 0:
            raise ArithmeticError("cannot scale -oo by a negative factor")
        return self

    __rmul__ = __mul__

    def __hash__(self):
        return hash("-oo")


MINUS_INF = _MinusInf()

# An extended real: a rational or -oo.  Ordinary <, <=, +, max, min work on
# mixed values thanks to the operator overloads above.
ExtReal = Union[Fraction, _MinusInf]


def is_finite(v: ExtReal) -> bool:
    return v is not MINUS_INF


def as_fraction(v) -> Fraction:
    """Coerce ints/strings to Fraction, rejecting floats (use exact input)."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


# Sign constants for SignedTrop.
POS = 1
NEG = -1
ZERO = 0


@dataclass(frozen=True)
class SignedTrop:
    """A signed tropical number: +modulus, (-)modulus, or -oo.

    ``sign`` is one of POS/NEG/ZERO and ``modulus`` is an ExtReal; the sign
    is ZERO exactly when the modulus is -oo.
    """

    sign: int
    modulus: ExtReal

    def __post_init__(self):
        if self.sign not in (POS, NEG, ZERO):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign!r}")
        if (self.sign == ZERO) != (self.modulus is MINUS_INF):
            raise ValueError("sign is zero exactly when the modulus is -oo")
        if self.modulus is not MINUS_INF and not isinstance(self.modulus, Fraction):
            object.__setattr__(self, "modulus", as_fraction(self.modulus))

    @staticmethod
    def pos(modulus) -> "SignedTrop":
        return SignedTrop(POS, as_fraction(modulus))

    @staticmethod
    def neg(modulus) -> "SignedTrop":
        """The tropically negative number (-)modulus (modulus is kept as-is:
        |(-)a| = a, the sign lives in the ``sign`` field)."""
        return SignedTrop(NEG, as_fraction(modulus))

    @property
    def is_zero(self) -> bool:
        return self.sign == ZERO

    def negated(self) -> "SignedTrop":
        """Flip the sign (tropical x -> (-)x); -oo is its own negative."""
        if self.is_zero:
            return self
        return SignedTrop(-self.sign, self.modulus)

    def __repr__(self):
        if self.is_zero:
            return "-oo"
        if self.sign == POS:
            return f"{self.modulus}"
        return f"(-){self.modulus}"


TROP_ZERO = SignedTrop(ZERO, MINUS_INF)

