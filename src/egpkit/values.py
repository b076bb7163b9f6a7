"""Exact values in Q together with a single point at infinity.

All core computations use these; no floats anywhere. Infinity absorbs
addition and comparison from above, and subtracting infinity from
infinity is a hard error rather than a convention.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ValidationError


class ExtValue:
    """A rational number or infinity, with guarded arithmetic."""

    __slots__ = ("q",)

    def __init__(self, q):
        # q is a Fraction, or None for infinity
        if q is not None and not isinstance(q, Fraction):
            q = Fraction(q)
        object.__setattr__(self, "q", q)

    def __setattr__(self, *a):
        raise AttributeError("ExtValue is immutable")

    @property
    def is_finite(self):
        return self.q is not None

    def __add__(self, other):
        other = _coerce(other)
        if self.q is None or other.q is None:
            return INF
        return ExtValue(self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other.q is None:
            if self.q is None:
                raise ValidationError("infinity minus infinity is undefined")
            raise ValidationError("cannot subtract infinity from a finite value")
        if self.q is None:
            return INF
        return ExtValue(self.q - other.q)

    def __eq__(self, other):
        if not isinstance(other, ExtValue):
            other = _coerce(other)
        return self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __le__(self, other):
        # finite <= inf always; inf <= finite never; inf <= inf true
        other = _coerce(other)
        if other.q is None:
            return True
        if self.q is None:
            return False
        return self.q <= other.q

    def __lt__(self, other):
        other = _coerce(other)
        return self <= other and self != other

    def __ge__(self, other):
        return _coerce(other) <= self

    def __gt__(self, other):
        return _coerce(other) < self

    def __repr__(self):
        return f"ExtValue({self})"

    def __str__(self):
        return format_value(self)

    def finite(self):
        """The underlying Fraction; error if infinite."""
        if self.q is None:
            raise ValidationError("expected a finite value, got infinity")
        return self.q


INF = ExtValue(None)
ZERO = ExtValue(Fraction(0))


def _coerce(x):
    if isinstance(x, ExtValue):
        return x
    return ExtValue(Fraction(x))


def fin(x) -> ExtValue:
    """Finite value from an int, Fraction, or "p/q" string."""
    return ExtValue(Fraction(x))


def parse_value(s: str) -> ExtValue:
    """A rational in the grammar of `parse_fraction`, or "inf"."""
    if isinstance(s, str) and s.strip() == "inf":
        return INF
    return ExtValue(parse_fraction(s))


def format_value(v: ExtValue) -> str:
    if v.q is None:
        return "inf"
    if v.q.denominator == 1:
        return str(v.q.numerator)
    return f"{v.q.numerator}/{v.q.denominator}"


def format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# The forms `format_value` writes: an integer, or an integer over a
# positive one. No exponents, decimals or underscores, so that the size of
# a value is the length of its text.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_COUNT = re.compile(r"[0-9]+")


def parse_fraction(s: str) -> Fraction:
    """A rational written as [+-]digits or [+-]digits/digits, with
    surrounding whitespace ignored."""
    if not isinstance(s, str):
        raise ValidationError(f"a rational must be a string such as \"3/2\", not {type(s).__name__}")
    m = _RATIONAL.fullmatch(s.strip())
    if m is not None:
        try:
            return Fraction(int(m[1]), int(m[2] or 1))
        except (ValueError, ZeroDivisionError):  # over the digit limit, or n/0
            pass
    raise ValidationError(f"bad rational literal {s!r}")


def parse_count(s: str) -> int:
    """A non-negative integer written as digits, with surrounding
    whitespace ignored."""
    t = s.strip()
    if _COUNT.fullmatch(t):
        try:
            return int(t)
        except ValueError:  # over the digit limit
            pass
    raise ValidationError(f"bad count {s!r}")
