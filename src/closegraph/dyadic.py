"""Exact arithmetic for dyadic rationals (numbers of the form a / 2**k).

Every closeness value handled by this package is a finite sum of powers
of 1/2, so the dyadic rationals are closed under everything we need:
addition, subtraction, and multiplication. There is deliberately no
general division; dividing by a power of two is multiplication by
``Dyadic.pow2(-k)``.
"""

from __future__ import annotations

import re
from functools import total_ordering

__all__ = ["Dyadic"]

# ASCII digits only: \d and int() would also take other Unicode digits
_CANONICAL_RE = re.compile(r"(-?[0-9]+)/2\^([0-9]+)")


@total_ordering
class Dyadic:
    """An exact rational numerator / 2**exponent.

    Instances are normalized on construction (exponent == 0 or numerator
    odd; zero is stored as 0/2^0) and treated as immutable; all operations
    return fresh values. Equality and ordering are exact.
    """

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int = 0):
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        if numerator == 0:
            exponent = 0
        elif exponent and not numerator & 1:
            # strip every common factor of two in one shift
            shift = (numerator & -numerator).bit_length() - 1
            if shift > exponent:
                shift = exponent
            numerator >>= shift
            exponent -= shift
        self.numerator = numerator
        self.exponent = exponent

    @classmethod
    def pow2(cls, d: int) -> "Dyadic":
        """Exact 2**d for any integer d."""
        if d >= 0:
            return cls(1 << d, 0)
        return cls(1, -d)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse the canonical "n/2^e" form."""
        m = _CANONICAL_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"not a canonical dyadic string: {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def _coerce(self, other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exponent, o.exponent)
        a = self.numerator << (e - self.exponent)
        b = o.numerator << (e - o.exponent)
        return Dyadic(a + b, e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exponent, o.exponent)
        a = self.numerator << (e - self.exponent)
        b = o.numerator << (e - o.exponent)
        return Dyadic(a - b, e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dyadic(self.numerator * o.numerator, self.exponent + o.exponent)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.numerator == o.numerator and self.exponent == o.exponent

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exponent, o.exponent)
        return self.numerator << (e - self.exponent) < o.numerator << (e - o.exponent)

    def __hash__(self):
        if self.exponent == 0:
            return hash(self.numerator)
        # match the hash of the equal fraction so int/Dyadic mix in sets
        return hash(self.as_fraction())

    def __bool__(self):
        return self.numerator != 0

    def as_fraction(self):
        from fractions import Fraction

        return Fraction(self.numerator, 1 << self.exponent)

    def __float__(self):
        # display convenience only; may round
        return float(self.as_fraction())

    def canonical(self) -> str:
        """Canonical text form "n/2^e", e.g. "11/2^1"."""
        return f"{self.numerator}/2^{self.exponent}"

    def __str__(self):
        return self.canonical()

    def __repr__(self):
        return f"Dyadic({self.numerator}, {self.exponent})"
