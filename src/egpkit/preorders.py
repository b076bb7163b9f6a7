"""Finite preorders on a ground set, stored as bitmask relation rows.

Covers the Alexandroff correspondence with down-set families, the
meet/join lattice, and the subdivision and contraction order relations
together with their Galois maps.
"""

from __future__ import annotations

from itertools import permutations

from . import caps
from .errors import ValidationError
from .ground import GroundSet, bit_indices, popcount, project_mask, reindex_map


class Preorder:
    """up[i] = bitmask of all j with i below-or-equal j."""

    __slots__ = ("ground", "up")

    def __init__(self, ground: GroundSet, up):
        up = tuple(int(r) for r in up)
        if len(up) != ground.n:
            raise ValidationError("relation row count does not match ground size")
        for i, row in enumerate(up):
            if row >> ground.n:
                raise ValidationError("relation row has bits outside the ground set")
            if not row >> i & 1:
                raise ValidationError("relation must be reflexive")
        for i in range(ground.n):
            acc = up[i]
            for j in bit_indices(up[i]):
                acc |= up[j]
            if acc != up[i]:
                raise ValidationError("relation must be transitive")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "up", up)

    def __setattr__(self, *a):
        raise AttributeError("Preorder is immutable")

    def leq(self, a, b) -> bool:
        """a below-or-equal b, by label."""
        i, j = self.ground.index[a], self.ground.index[b]
        return bool(self.up[i] >> j & 1)

    def leq_idx(self, i, j) -> bool:
        return bool(self.up[i] >> j & 1)

    def strictly_below_idx(self, i, j) -> bool:
        return self.leq_idx(i, j) and not self.leq_idx(j, i)

    def __eq__(self, other):
        return (
            isinstance(other, Preorder)
            and self.ground == other.ground
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.ground, self.up))

    def __repr__(self):
        pairs = [
            f"{self.ground.labels[i]}<={self.ground.labels[j]}"
            for i in range(self.ground.n)
            for j in bit_indices(self.up[i])
            if i != j
        ]
        return f"Preorder({list(self.ground.labels)}; {', '.join(pairs)})"

    def canonical_key(self):
        labels = self.ground.sorted_labels()
        pos = [self.ground.index[x] for x in labels]
        return (labels, tuple(project_mask(self.up[p], pos) for p in pos))

    def dn_rows(self):
        """dn[i] = bitmask of all j with j below-or-equal i."""
        n = self.ground.n
        dn = [0] * n
        for i in range(n):
            for j in bit_indices(self.up[i]):
                dn[j] |= 1 << i
        return dn

    def is_total(self) -> bool:
        n = self.ground.n
        for i in range(n):
            for j in range(i + 1, n):
                if not (self.leq_idx(i, j) or self.leq_idx(j, i)):
                    return False
        return True


def _downset_ok(up, mask, full):
    # j in mask and i <= j forces i in mask
    for i in bit_indices(full & ~mask):
        if up[i] & mask:
            return False
    return True


def is_downset(P: Preorder, mask: int) -> bool:
    return _downset_ok(P.up, mask, P.ground.full)


def downset_masks(P: Preorder):
    return [m for m in P.ground.subsets() if _downset_ok(P.up, m, P.ground.full)]


class DownSetFamily:
    __slots__ = ("ground", "sets")

    def __init__(self, ground: GroundSet, sets):
        sets = tuple(sorted(set(int(m) for m in sets)))
        fam = set(sets)
        if 0 not in fam or ground.full not in fam:
            raise ValidationError("family must contain the empty and full sets")
        for a in sets:
            for b in sets:
                if (a | b) not in fam or (a & b) not in fam:
                    raise ValidationError("family not closed under union/intersection")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "sets", sets)

    def __setattr__(self, *a):
        raise AttributeError("DownSetFamily is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, DownSetFamily)
            and self.ground == other.ground
            and self.sets == other.sets
        )

    def __hash__(self):
        return hash((self.ground, self.sets))

    def __iter__(self):
        return iter(self.sets)


def downsets(P: Preorder) -> DownSetFamily:
    return DownSetFamily(P.ground, downset_masks(P))


def preorder_of_sets(ground: GroundSet, sets) -> Preorder:
    """The preorder whose down-sets are exactly the given distinct sets.

    The down-set of j is the intersection of the sets that contain j.
    Every set is then a down-set, so the sets are all of them exactly
    when the two counts agree; otherwise they are not closed under union
    and intersection, and this raises ValidationError.
    """
    n = ground.n
    dn = [ground.full] * n
    for m in sets:
        for j in bit_indices(m):
            dn[j] &= m
    P = Preorder(ground, [sum(1 << j for j in range(n) if dn[j] >> i & 1) for i in range(n)])
    if len(downset_masks(P)) != len(sets):
        raise ValidationError("family not closed under union/intersection")
    return P


def preo_of(T: DownSetFamily) -> Preorder:
    """The preorder whose down-sets are the members of T."""
    return preorder_of_sets(T.ground, T.sets)


def from_relations(ground: GroundSet, pairs) -> Preorder:
    n = ground.n
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[ground.index[a] if a in ground.index else _bad(a)] |= 1 << (
            ground.index[b] if b in ground.index else _bad(b)
        )
    return Preorder(ground, _transitive_closure(up, n))


def _bad(label):
    raise ValidationError(f"unknown label {label!r}")


def _transitive_closure(up, n):
    up = list(up)
    for k in range(n):
        bk = 1 << k
        for i in range(n):
            if up[i] & bk:
                up[i] |= up[k]
    return up


def discrete(ground: GroundSet) -> Preorder:
    return Preorder(ground, [1 << i for i in range(ground.n)])


def coarse(ground: GroundSet) -> Preorder:
    return Preorder(ground, [ground.full] * ground.n)


def chain(ground: GroundSet) -> Preorder:
    """Total order in the ground set's label order, first element lowest."""
    n = ground.n
    return Preorder(ground, [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])


def from_blocks(ground: GroundSet, blocks) -> Preorder:
    """Total preorder from an ordered list of disjoint block masks."""
    n = ground.n
    rest = ground.full
    up = [0] * n
    for b in blocks:
        for i in bit_indices(b):
            up[i] = rest
        rest &= ~b
    if rest:
        raise ValidationError("blocks do not cover the ground set")
    return Preorder(ground, up)


def preorder_leq(P: Preorder, Q: Preorder) -> bool:
    """Every relation of P is a relation of Q."""
    _same_ground(P, Q)
    return all(p & ~q == 0 for p, q in zip(P.up, Q.up))


def _same_ground(P, Q):
    if P.ground != Q.ground:
        raise ValidationError("preorders live on different ground sets")


def opposite(P: Preorder) -> Preorder:
    return Preorder(P.ground, P.dn_rows())


def meet(P: Preorder, Q: Preorder) -> Preorder:
    _same_ground(P, Q)
    return Preorder(P.ground, [p & q for p, q in zip(P.up, Q.up)])


def join(P: Preorder, Q: Preorder) -> Preorder:
    _same_ground(P, Q)
    up = _transitive_closure([p | q for p, q in zip(P.up, Q.up)], P.ground.n)
    return Preorder(P.ground, up)


def bubble_masks(P: Preorder):
    """Classes of mutual comparability, sorted by lowest member."""
    n = P.ground.n
    dn = P.dn_rows()
    seen = 0
    out = []
    for i in range(n):
        if seen >> i & 1:
            continue
        b = P.up[i] & dn[i]
        out.append(b)
        seen |= b
    return out


def total_blocks(L: Preorder):
    """Bubbles of a total preorder, bottom to top."""
    if not L.is_total():
        raise ValidationError("expected a total preorder")
    bubs = bubble_masks(L)
    bubs.sort(key=lambda b: popcount(L.up[next(bit_indices(b))]), reverse=True)
    return bubs


def component_masks(P: Preorder):
    """Zigzag connectivity classes, sorted by lowest member."""
    n = P.ground.n
    dn = P.dn_rows()
    adj = [P.up[i] | dn[i] for i in range(n)]
    comp = _transitive_closure(adj, n)
    seen = 0
    out = []
    for i in range(n):
        if seen >> i & 1:
            continue
        out.append(comp[i])
        seen |= comp[i]
    return out


def restrict_preorder(P: Preorder, mask: int) -> Preorder:
    sub = P.ground.restricted(mask)
    pos = reindex_map(P.ground, sub)
    return Preorder(sub, [project_mask(P.up[p], pos) for p in pos])


def is_convex(P: Preorder, mask: int) -> bool:
    """x <= z <= y with x, y in the set forces z in the set."""
    dn = P.dn_rows()
    for i in bit_indices(mask):
        for j in bit_indices(P.up[i] & mask):
            if P.up[i] & dn[j] & ~mask:
                return False
    return True


def convex_masks(P: Preorder):
    """All convex subsets, as {down-set minus down-set} differences."""
    ds = downset_masks(P)
    out = set()
    for b in ds:
        for a in ds:
            if a & ~b == 0:
                out.add(b & ~a)
    return sorted(out)


def is_connected(P: Preorder) -> bool:
    return P.ground.n == 0 or len(component_masks(P)) == 1


# Galois maps between the preorders below P and the contractions above it.

def galois_f(P: Preorder, R: Preorder) -> Preorder:
    if not preorder_leq(R, P):
        raise ValidationError("first relation must refine the base preorder")
    return join(P, opposite(R))


def galois_g(P: Preorder, Q: Preorder) -> Preorder:
    if not preorder_leq(P, Q):
        raise ValidationError("the base preorder must refine the coarser one")
    return meet(P, opposite(Q))


def is_subdivision(R: Preorder, P: Preorder) -> bool:
    """Fixpoint test: R equals P meet (P-opposite join R)."""
    _same_ground(R, P)
    if not preorder_leq(R, P):
        return False
    return meet(P, join(opposite(P), R)) == R


def is_subdivision_admissible(R: Preorder, P: Preorder) -> bool:
    """Alternative test: matching component fans plus equal restrictions."""
    _same_ground(R, P)
    if not preorder_leq(R, P):
        return False
    lhs = bubble_masks(join(P, opposite(R)))
    rhs = component_masks(R)
    if sorted(lhs) != sorted(rhs):
        return False
    for c in component_masks(R):
        if restrict_preorder(R, c) != restrict_preorder(P, c):
            return False
    return True


def is_subdivision_convex(R: Preorder, P: Preorder) -> bool:
    """Alternative test: connected convex sets of R stay so in P."""
    _same_ground(R, P)
    if not preorder_leq(R, P):
        return False
    for k in convex_masks(R):
        if k == 0:
            continue
        if not is_connected(restrict_preorder(R, k)):
            continue
        if not is_convex(P, k) or not is_connected(restrict_preorder(P, k)):
            return False
    return True


def is_contraction(P: Preorder, Q: Preorder) -> bool:
    """Fixpoint test: P refines Q and Q equals P join (P-opposite meet Q)."""
    _same_ground(P, Q)
    if not preorder_leq(P, Q):
        return False
    return join(P, meet(opposite(P), Q)) == Q


def _bubble_leq(Q, b1, b2):
    i = next(bit_indices(b1))
    j = next(bit_indices(b2))
    return Q.leq_idx(i, j)


def enumerate_preorders(ground: GroundSet, max_n=None):
    """All preorders on the ground set, canonical order.

    Backtracks over the principal down-set of each element; the pairwise
    consistency condition (j in D_i forces D_j inside D_i) is exactly
    reflexivity plus transitivity.
    """
    cap = caps.preorder_cap(caps.PREORDER_ENUM_CAP, max_n)
    caps.check_enum(ground.n, cap, "preorder enumeration")
    n = ground.n
    out = []
    dn = [0] * n

    def place(i):
        if i == n:
            up = [0] * n
            for j in range(n):
                for k in bit_indices(dn[j]):
                    up[k] |= 1 << j
            out.append(Preorder(ground, up))
            return
        for d in range(1 << n):
            if not d >> i & 1:
                continue
            ok = True
            for j in range(i):
                if d >> j & 1 and dn[j] & ~d:
                    ok = False
                    break
                if dn[j] >> i & 1 and d & ~dn[j]:
                    ok = False
                    break
            if ok:
                dn[i] = d
                place(i + 1)
        dn[i] = 0

    place(0)
    out.sort(key=lambda p: p.up)
    return out


def enumerate_total_preorders(ground: GroundSet, max_n=None):
    """All ordered set partitions of the ground set, as total preorders."""
    cap = caps.preorder_cap(caps.TOTAL_PREORDER_ENUM_CAP, max_n)
    caps.check_enum(ground.n, cap, "total preorder enumeration")
    out = []

    def place(rest, blocks):
        if rest == 0:
            out.append(from_blocks(ground, blocks))
            return
        block = rest
        while block:
            blocks.append(block)
            place(rest & ~block, blocks)
            blocks.pop()
            block = (block - 1) & rest

    place(ground.full, [])
    out.sort(key=lambda p: p.up)
    return out


def linear_extensions(P: Preorder):
    """Total preorders refining P with the same bubble partition."""
    bubs = bubble_masks(P)
    out = []
    for perm in permutations(bubs):
        ok = True
        for a in range(len(perm)):
            for b in range(a):
                # earlier blocks must not sit strictly above later ones
                if _bubble_leq(P, perm[a], perm[b]) and not _bubble_leq(
                    P, perm[b], perm[a]
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(from_blocks(P.ground, list(perm)))
    out.sort(key=lambda p: p.up)
    return out


def subdivisions(P: Preorder, max_n=None):
    return [R for R in enumerate_preorders(P.ground, max_n) if is_subdivision(R, P)]


def contractions(P: Preorder, max_n=None):
    return [Q for Q in enumerate_preorders(P.ground, max_n) if is_contraction(P, Q)]
