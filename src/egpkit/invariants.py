"""Polynomial invariants: lattice-point counts of preorder cones, the
canonical polynomial of a submodular function, the character-sum route,
and the generic-function count for matroids.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial, lcm

from . import caps
from .conform import pre_of
from .errors import ValidationError
from .generators import Matroid
from .hopf import counit_eps
from .ground import bit_indices, submasks
from .preorders import Preorder, bubble_masks, downset_masks
from .submod import SubmodFn, is_modular, minor


class RationalPoly:
    """Polynomial with exact rational coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("RationalPoly is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    def __neg__(self):
        return self * Fraction(-1)

    def eval_at(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def compose_linear(self, a, b) -> "RationalPoly":
        """p(a*x + b)."""
        lin = RationalPoly([b, a])
        out = RationalPoly([])
        power = RationalPoly([1])
        for c in self.coeffs:
            out = out + power * c
            power = power * lin
        return out

    def binomial_basis(self):
        """Coefficients c_j with p(k) = sum of c_j * C(k, j)."""
        d = max(self.degree, 0)
        vals = [self.eval_at(i) for i in range(d + 1)]
        out = []
        for j in range(d + 1):
            c = sum(
                (-1) ** (j - i) * comb(j, i) * vals[i] for i in range(j + 1)
            )
            out.append(Fraction(c))
        while out and out[-1] == 0:
            out.pop()
        return out

    @classmethod
    def from_binomial(cls, cs) -> "RationalPoly":
        """The polynomial k -> sum of cs[j] * C(k, j); inverse of binomial_basis."""
        den = factorial(max(len(cs) - 1, 0))
        out = [0] * len(cs)  # times den, so that integer counts stay integers
        falling = [1]  # k(k-1)...(k-j+1) = j! * C(k, j), lowest degree first
        for j, c in enumerate(cs):
            if j:
                falling = [a - (j - 1) * b for a, b in zip([0] + falling, falling + [0])]
            w = c * (den // factorial(j))
            for i, f in enumerate(falling):
                out[i] += w * f
        return cls([Fraction(x, den) for x in out])

    def __repr__(self):
        return f"RationalPoly({[str(c) for c in self.coeffs]})"


def _chain_counts(P: Preorder, strict: bool):
    """c[j] = chains of down-sets from the empty set to the whole ground set
    with j proper steps. Under strict, no step holds two elements one
    strictly below the other."""
    dn = P.dn_rows()
    ds = downset_masks(P)
    counts = [[1] + [0] * P.ground.n]
    for b in ds[1:]:
        row = [0] * (P.ground.n + 1)
        for a, prev in zip(ds, counts):  # the down-sets before b
            s = b & ~a
            if a & ~b or strict and any(dn[i] & s & ~P.up[i] for i in bit_indices(s)):
                continue
            for j, c in enumerate(prev[:-1]):
                row[j + 1] += c
        counts.append(row)
    return counts[-1]


def ehr_star(P: Preorder, max_n=None) -> RationalPoly:
    """k -> maps from the bubbles into 1..k, strictly decreasing along P."""
    caps.check_enum(P.ground.n, caps.soft_cap(max_n), "Ehrhart count")
    return RationalPoly.from_binomial(_chain_counts(P, strict=True))


def ehr(P: Preorder, max_n=None) -> RationalPoly:
    """k -> maps from the bubbles into 0..k, weakly decreasing along P."""
    caps.check_enum(P.ground.n, caps.soft_cap(max_n), "Ehrhart count")
    return RationalPoly.from_binomial(_chain_counts(P, strict=False)).compose_linear(1, 1)


def chi(z: SubmodFn, max_n=None) -> RationalPoly:
    """Foissy's canonical polynomial: k -> chains of subsets from the empty
    set to the ground set with k steps, every step's minor having basic
    character 1 (the count that `chi_character` takes term by term).

    z must be submodular. A step from a to b is then good exactly when a
    is finite and b minus a is a union of bubbles K of `pre_of(z)`, each
    disjoint from a with its strict down-set inside a, over which z is
    additive: z(b) - z(a) is the sum of z(a | K) - z(a). Additivity
    passes to subsets, so a walk from a that adds bubbles in index order
    meets every good step through good prefixes. The strict chains of good
    steps are counted by length, and chi is the polynomial with those
    counts as binomial coefficients.
    """
    n = z.ground.n
    caps.check_enum(n, caps.soft_cap(max_n), "chi")
    qs = [v.q for v in z.table]
    den = lcm(*(q.denominator for q in qs if q is not None))
    t = [None if q is None else q.numerator * (den // q.denominator) for q in qs]
    P = pre_of(z)
    dn = P.dn_rows()
    bubbles = [(b, dn[next(bit_indices(b))] & ~b) for b in bubble_masks(P)]  # strict down-sets
    counts = [None] * (1 << n)  # counts[b][j]: strict good chains to b with j steps
    counts[0] = [1] + [0] * n
    for a, row in enumerate(counts):  # every step goes up, so row is complete
        if row is None:
            continue
        step = [0] + row[:-1]
        ta = t[a]
        free = [(k, t[a | k] - ta) for k, below in bubbles if not k & a and not below & ~a]
        stack = [(0, 0, 0)]  # (next bubble, bubbles taken as a mask, their sum)
        while stack:
            start, d, s = stack.pop()
            for i in range(start, len(free)):
                k, w = free[i]
                b = a | d | k
                if t[b] - ta != s + w:
                    continue
                old = counts[b]
                counts[b] = step if old is None else [x + y for x, y in zip(old, step)]
                stack.append((i + 1, d | k, s + w))
    return RationalPoly.from_binomial(counts[z.ground.full])


def _basic_character(z: SubmodFn) -> int:
    """1 when the polyhedron is an affine subspace: the counit, extended by
    0 to functions that are not modular."""
    return int(counit_eps(z)) if is_modular(z) else 0


def _flag_factor_character(z: SubmodFn, a: int, b: int):
    """Basic character of the piece between nested subsets a inside b;
    None marks an undefined (infinite-value) piece, killing the term."""
    if not (z.table[a].is_finite and z.table[b].is_finite):
        return None
    return _basic_character(minor(z, a, b))


def chi_character(z: SubmodFn, n: int, extended=False) -> Fraction:
    """Sum over ordered decompositions of the ground set into n possibly
    empty blocks of the product of basic characters of the pieces."""
    if n < 0:
        raise ValidationError("the argument must be a nonnegative integer")
    if not extended and not all(v.is_finite for v in z.table):
        raise ValidationError(
            "character sum needs a finite function (pass extended=True otherwise)"
        )
    full = z.ground.full
    total = 0

    def walk(prev, steps):
        nonlocal total
        if steps == 0:
            if prev == full:
                total += 1
            return
        rest = full & ~prev
        for extra in submasks(rest):
            cur = prev | extra
            beta = _flag_factor_character(z, prev, cur)
            if beta:
                walk(cur, steps - 1)

    walk(0, n)
    return Fraction(total)


def bjr_count(M: Matroid, n: int) -> Fraction:
    """Functions into 1..n with a unique weight-maximizing basis."""
    size = M.ground.n
    count = 0
    for y in iproduct(range(1, n + 1), repeat=size):
        best = None
        ties = False
        for b in M.bases:
            w = sum(y[i] for i in bit_indices(b))
            if best is None or w > best:
                best, ties = w, False
            elif w == best:
                ties = True
        if not ties:
            count += 1
    return Fraction(count)
