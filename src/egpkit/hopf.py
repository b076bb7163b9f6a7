"""Coproducts and the cointeraction structure, realized as exact formal
sums of tensor terms. A term is a tuple of factors, each a set function
or a preorder on its own ground set.
"""

from __future__ import annotations

from fractions import Fraction

from .conform import cone_fn, conforming_preorders, face_fn, min_faces, pre_of
from .errors import ValidationError
from .preorders import (
    Preorder,
    contractions,
    downset_masks,
    galois_g,
    restrict_preorder,
)
from .submod import SubmodFn, corestrict, is_modular, restrict


def _factor_key(f):
    if isinstance(f, SubmodFn):
        return ("z",) + f.canonical_key()
    if isinstance(f, Preorder):
        return ("p",) + f.canonical_key()
    raise ValidationError(f"unsupported tensor factor {type(f).__name__}")


def term_key(factors):
    return tuple(_factor_key(f) for f in factors)


class FormalSum:
    """Q-linear combination of canonical tensor terms."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict key -> (coeff, factors); zero coefficients pruned
        object.__setattr__(self, "terms", dict(terms or {}))

    def __setattr__(self, *a):
        raise AttributeError("FormalSum is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of(cls, factors, coeff=1):
        factors = tuple(factors)
        coeff = Fraction(coeff)
        if coeff == 0:
            return cls()
        return cls({term_key(factors): (coeff, factors)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, (c, fs) in other.terms.items():
            if k in out:
                c2 = out[k][0] + c
                if c2 == 0:
                    del out[k]
                else:
                    out[k] = (c2, out[k][1])
            else:
                out[k] = (c, fs)
        return FormalSum(out)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return FormalSum()
        return FormalSum({k: (v * c, fs) for k, (v, fs) in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return {k: v for k, (v, _) in self.terms.items()} == {
            k: v for k, (v, _) in other.terms.items()
        }

    def __hash__(self):
        return hash(frozenset((k, v) for k, (v, _) in self.terms.items()))

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        """Yields (coeff, factors) pairs in canonical key order."""
        for k in sorted(self.terms):
            yield self.terms[k]

    def expand(self, index, fn):
        """Replace factor `index` of every term by the formal sum fn gives
        for it, splicing the produced factor tuples in place."""
        out = FormalSum()
        for coeff, factors in self:
            inner = fn(factors[index])
            for c2, mid in inner:
                new = factors[:index] + tuple(mid) + factors[index + 1 :]
                out = out + FormalSum.of(new, coeff * c2)
        return out

    def __repr__(self):
        bits = []
        for coeff, factors in self:
            fs = " (x) ".join(repr(f) for f in factors)
            bits.append(f"{coeff} * [{fs}]")
        return "FormalSum(" + " + ".join(bits) + ")" if bits else "FormalSum(0)"


def coproduct_delta(z: SubmodFn, s_mask: int) -> FormalSum:
    """Split along one subset: restriction tensor corestriction, or zero
    when the subset has infinite value."""
    if not z.table[s_mask].is_finite:
        return FormalSum.zero()
    return FormalSum.of((restrict(z, s_mask), corestrict(z, s_mask)))


def full_coproduct(z: SubmodFn) -> FormalSum:
    out = FormalSum.zero()
    for s in z.ground.subsets():
        out = out + coproduct_delta(z, s)
    return out


def internal_delta(z: SubmodFn, max_n=None) -> FormalSum:
    """One face-function tensor cone-function term per conforming preorder."""
    out = FormalSum.zero()
    for P in conforming_preorders(z, max_n):
        out = out + FormalSum.of((face_fn(z, P), cone_fn(z, P)))
    return out


def phi(z: SubmodFn, max_n=None) -> FormalSum:
    """Sum of cone functions over the smallest faces; every term modular."""
    out = FormalSum.zero()
    for f in min_faces(z, max_n):
        out = out + FormalSum.of((cone_fn(z, f.P),))
    return out


def psi(z: SubmodFn) -> Preorder:
    if not is_modular(z):
        raise ValidationError("psi is defined on modular functions only")
    return pre_of(z)


def counit_eps(z: SubmodFn) -> Fraction:
    """1 when the finite-support preorder is an equivalence, else 0."""
    if not is_modular(z):
        raise ValidationError("the counit is defined on modular functions only")
    P = pre_of(z)
    return Fraction(tuple(P.dn_rows()) == P.up)


def preorder_delta(P: Preorder, max_n=None) -> FormalSum:
    out = FormalSum.zero()
    for Q in contractions(P, max_n):
        out = out + FormalSum.of((galois_g(P, Q), Q))
    return out


def preorder_coproduct(P: Preorder, s_mask: int) -> FormalSum:
    from .preorders import is_downset

    if not is_downset(P, s_mask):
        return FormalSum.zero()
    return FormalSum.of(
        (
            restrict_preorder(P, s_mask),
            restrict_preorder(P, P.ground.full & ~s_mask),
        )
    )


def preorder_full_coproduct(P: Preorder) -> FormalSum:
    out = FormalSum.zero()
    for s in downset_masks(P):
        out = out + FormalSum.of(
            (restrict_preorder(P, s), restrict_preorder(P, P.ground.full & ~s))
        )
    return out
