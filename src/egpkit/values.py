"""Exact values in Q together with a single point at infinity.

All core computations use these; no floats anywhere. Infinity absorbs
addition and comparison from above, and subtracting infinity from
infinity is a hard error rather than a convention.
"""

from __future__ import annotations

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
    s = s.strip()
    if s == "inf":
        return INF
    try:
        return ExtValue(Fraction(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"bad rational literal {s!r}") from e


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


def parse_fraction(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValidationError(f"a rational must be a string such as \"3/2\", not {type(s).__name__}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"bad rational literal {s!r}") from e
