"""Set functions valued in Q with infinity: storage, structural checks,
minors (restriction and corestriction among them), products, and
decomposition into indecomposable factors.
"""

from __future__ import annotations

from .errors import ValidationError
from .ground import (
    GroundSet,
    expand_mask,
    project_mask,
    reindex_map,
    submasks,
)
from .values import INF, ZERO, ExtValue, fin


class SubmodFn:
    """A set function on a ground set, one value per subset mask.

    The name is aspirational: the constructor only enforces the shape
    invariants (value at the empty set is 0, value at the full set is
    finite). Submodularity is a separate predicate so that intermediate
    tables can be built freely.
    """

    __slots__ = ("ground", "table")

    def __init__(self, ground: GroundSet, table):
        table = tuple(table)
        if len(table) != 1 << ground.n:
            raise ValidationError(
                f"table length {len(table)} for ground of size {ground.n}"
            )
        for v in table:
            if not isinstance(v, ExtValue):
                raise ValidationError("table entries must be ExtValue")
        if table[0] != ZERO:
            raise ValidationError("value at the empty set must be 0")
        if not table[-1].is_finite:
            raise ValidationError("value at the full set must be finite")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "table", table)

    def __setattr__(self, *a):
        raise AttributeError("SubmodFn is immutable")

    def __call__(self, mask: int) -> ExtValue:
        return self.table[mask]

    def value_of(self, items) -> ExtValue:
        return self.table[self.ground.mask_of(items)]

    def __eq__(self, other):
        return (
            isinstance(other, SubmodFn)
            and self.ground == other.ground
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.ground, self.table))

    def __repr__(self):
        parts = []
        for m in self.ground.subsets():
            if m and self.table[m].is_finite:
                parts.append(f"{''.join(self.ground.members(m))}={self.table[m]}")
        return f"SubmodFn({list(self.ground.labels)}; {', '.join(parts)})"

    def canonical_key(self):
        """Hashable, orderable form independent of the label order given."""
        labels = self.ground.sorted_labels()
        pos = [self.ground.index[x] for x in labels]
        vals = []
        for m in range(1 << self.ground.n):
            q = self.table[expand_mask(m, pos)].q
            vals.append((1, 0, 0) if q is None else (0, q.numerator, q.denominator))
        return (labels, tuple(vals))


def from_finite(ground: GroundSet, finite: dict) -> SubmodFn:
    """Build a function from its finite support.

    Keys are iterables of labels (or masks); unlisted nonempty subsets
    get infinity; the empty set is 0.
    """
    table = [INF] * (1 << ground.n)
    table[0] = ZERO
    for key, val in finite.items():
        mask = key if isinstance(key, int) else ground.mask_of(key)
        v = val if isinstance(val, ExtValue) else fin(val)
        if mask == 0:
            if v != ZERO:
                raise ValidationError("the empty set must have value 0")
            continue
        table[mask] = v
    return SubmodFn(ground, table)


def zfn_equal(u: SubmodFn, v: SubmodFn) -> bool:
    """Exact table equality after normalizing both to sorted label order."""
    if set(u.ground.labels) != set(v.ground.labels):
        raise ValidationError("ground sets differ")
    return u.canonical_key() == v.canonical_key()


def is_submodular(z: SubmodFn) -> bool:
    n = z.ground.n
    t = z.table
    # pairwise local check suffices: z(S+i)+z(S+j) >= z(S+i+j)+z(S)
    for s in range(1 << n):
        for i in range(n):
            bi = 1 << i
            if s & bi:
                continue
            for j in range(i + 1, n):
                bj = 1 << j
                if s & bj:
                    continue
                lhs_a, lhs_b = t[s | bi], t[s | bj]
                if not (lhs_a.is_finite and lhs_b.is_finite):
                    continue
                rhs = t[s | bi | bj] + t[s]
                if not (lhs_a + lhs_b >= rhs):
                    return False
    return True


def is_modular(z: SubmodFn) -> bool:
    """Finite-value sets form a topology and the exchange equality holds."""
    n = z.ground.n
    finite = [m for m in range(1 << n) if z.table[m].is_finite]
    fset = set(finite)
    for a in finite:
        for b in finite:
            if a >= b:
                continue
            if (a | b) not in fset or (a & b) not in fset:
                return False
            if z.table[a] + z.table[b] != z.table[a | b] + z.table[a & b]:
                return False
    return True


def minor(z: SubmodFn, a: int, b: int) -> SubmodFn:
    """The minor z(a | U) - z(a) on the elements of b minus a: every piece
    function of a face, the restriction to b when a is empty, and the
    contraction of a when b is the ground set."""
    za = z.table[a]
    if not za.is_finite:
        raise ValidationError("a minor needs a finite value on its base set")
    sub = z.ground.restricted(b & ~a)
    pos = reindex_map(z.ground, sub)
    return SubmodFn(sub, [z.table[a | expand_mask(m, pos)] - za for m in range(1 << sub.n)])


def restrict(z: SubmodFn, mask: int) -> SubmodFn:
    return minor(z, 0, mask)


def corestrict(z: SubmodFn, mask: int) -> SubmodFn:
    """z_{/S}(U) = z(S | U) - z(S) on the complement of S."""
    return minor(z, mask, z.ground.full)


def product(u: SubmodFn, v: SubmodFn) -> SubmodFn:
    if set(u.ground.labels) & set(v.ground.labels):
        raise ValidationError("product factors must have disjoint labels")
    ground = GroundSet(list(u.ground.labels) + list(v.ground.labels))
    upos = reindex_map(ground, u.ground)
    vpos = reindex_map(ground, v.ground)
    table = []
    for m in range(1 << ground.n):
        table.append(u.table[project_mask(m, upos)] + v.table[project_mask(m, vpos)])
    return SubmodFn(ground, table)


def product_all(factors) -> SubmodFn:
    factors = list(factors)
    if not factors:
        return unit_fn()
    out = factors[0]
    for f in factors[1:]:
        out = product(out, f)
    return out


def unit_fn() -> SubmodFn:
    """The function on the empty ground set (unit of the product)."""
    return SubmodFn(GroundSet([]), [ZERO])


def decompose(z: SubmodFn):
    """Finest list of block masks with z the product of its restrictions.

    A block C splits along (C1, C2) exactly when z(C) = z(C1) + z(C2)
    with both parts finite; this is applied recursively.
    """
    t = z.table
    blocks = []

    def split(c):
        # proper submask pairs (c1, c ^ c1); skip infinite parts
        low = c & -c
        for c1 in submasks(c ^ low):
            c1 |= low  # fix the lowest bit into c1 to halve the search
            c2 = c ^ c1
            if c2 == 0:
                continue
            if t[c1].is_finite and t[c2].is_finite and t[c] == t[c1] + t[c2]:
                split(c1)
                split(c2)
                return
        blocks.append(c)

    if z.ground.n:
        split(z.ground.full)
    blocks.sort(key=lambda m: m & -m)
    return blocks


def decompose_factors(z: SubmodFn):
    return [restrict(z, c) for c in decompose(z)]


def splits_along(z: SubmodFn, c1: int, c2: int) -> bool:
    """Definitional split check on a block c1 | c2: additivity across parts."""
    t = z.table
    for s1 in submasks(c1):
        for s2 in submasks(c2):
            lhs = t[s1 | s2]
            rhs = t[s1] + t[s2]
            if lhs != rhs:
                return False
    return True
