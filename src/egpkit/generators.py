"""Constructors for the example families: permutahedra, preorder cones,
Minkowski sums of simplices, matroid rank functions with their vertex
posets, and building sets with nestohedra and their forests.
"""

from __future__ import annotations

from fractions import Fraction
from string import ascii_lowercase

from . import caps
from .conform import low_of
from .errors import ValidationError
from .ground import GroundSet, bit_indices, popcount, submasks
from .preorders import (
    Preorder,
    bubble_masks,
    enumerate_preorders,
    from_relations,
)
from .submod import SubmodFn
from .values import fin


def default_labels(n):
    if n > 26:
        raise ValidationError("default labels only cover 26 elements")
    return list(ascii_lowercase[:n])


class Matroid:
    __slots__ = ("ground", "bases", "rank")

    def __init__(self, ground: GroundSet, bases):
        bases = tuple(sorted(set(int(b) for b in bases)))
        if not bases:
            raise ValidationError("a matroid needs at least one basis")
        r = popcount(bases[0])
        for b in bases:
            if popcount(b) != r:
                raise ValidationError("bases must all have the same size")
        bset = set(bases)
        for b1 in bases:
            for b2 in bases:
                for x in bit_indices(b1 & ~b2):
                    if not any(
                        (b1 & ~(1 << x)) | (1 << y) in bset
                        for y in bit_indices(b2 & ~b1)
                    ):
                        raise ValidationError("basis exchange axiom fails")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "rank", r)

    def __setattr__(self, *a):
        raise AttributeError("Matroid is immutable")

    def is_independent(self, mask: int) -> bool:
        return any(mask & ~b == 0 for b in self.bases)

    def loops(self) -> int:
        used = 0
        for b in self.bases:
            used |= b
        return self.ground.full & ~used


def uniform_matroid(r: int, n: int, labels=None) -> Matroid:
    ground = GroundSet(labels if labels is not None else default_labels(n))
    bases = [m for m in ground.subsets() if popcount(m) == r]
    return Matroid(ground, bases)


def graphic_matroid(vertices, edges, labels=None) -> Matroid:
    """Matroid of spanning forests; edges are (u, v) pairs of vertices."""
    labels = labels if labels is not None else default_labels(len(edges))
    ground = GroundSet(labels)
    vlist = list(vertices)
    bases = []
    target = None
    for m in ground.subsets():
        parent = {v: v for v in vlist}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        acyclic = True
        used = 0
        for i in bit_indices(m):
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
            used += 1
        if acyclic:
            if target is None or used > target:
                target = used
                bases = [m]
            elif used == target:
                bases.append(m)
    return Matroid(ground, bases)


def matroid_rank(M: Matroid) -> SubmodFn:
    table = []
    for m in M.ground.subsets():
        table.append(fin(max(popcount(m & b) for b in M.bases)))
    return SubmodFn(M.ground, table)


def fundamental_circuit(M: Matroid, basis: int, c: int) -> int:
    """Unique minimal dependent subset of the basis plus one element."""
    bit = 1 << c
    best = None
    for s in submasks(basis):
        cand = s | bit
        if not M.is_independent(cand):
            if best is None or popcount(cand) < popcount(best):
                best = cand
    assert best is not None
    # minimality sanity: removing any element leaves an independent set
    for i in bit_indices(best):
        assert M.is_independent(best & ~(1 << i))
    return best


def basis_vertex_poset(M: Matroid, basis: int) -> Preorder:
    """Poset of the vertex picked out by a basis: basis elements and loops
    at the bottom, every other element directly above its circuit."""
    if basis not in M.bases:
        raise ValidationError("not a basis of the matroid")
    labels = M.ground.labels
    low = basis | M.loops()
    pairs = []
    for c in bit_indices(M.ground.full & ~low):
        circ = fundamental_circuit(M, basis, c)
        for i in bit_indices(circ & ~(1 << c)):
            pairs.append((labels[i], labels[c]))
    return from_relations(M.ground, pairs)


def permutahedron(levels, labels=None) -> SubmodFn:
    levels = [Fraction(x) for x in levels]
    for a, b in zip(levels, levels[1:]):
        if not a > b:
            raise ValidationError("levels must be strictly decreasing")
    n = len(levels)
    ground = GroundSet(labels if labels is not None else default_labels(n))
    prefix = [Fraction(0)]
    for x in levels:
        prefix.append(prefix[-1] + x)
    table = [fin(prefix[popcount(m)]) for m in ground.subsets()]
    return SubmodFn(ground, table)


def minkowski(ground: GroundSet, weights: dict) -> SubmodFn:
    """Weighted sum of simplices: value of A is the total weight of the
    index sets meeting A."""
    wl = []
    for key, w in weights.items():
        mask = key if isinstance(key, int) else ground.mask_of(key)
        w = Fraction(w)
        if mask == 0:
            raise ValidationError("weights must sit on nonempty subsets")
        if w < 0:
            raise ValidationError("weights must be nonnegative")
        wl.append((mask, w))
    table = []
    for m in ground.subsets():
        table.append(fin(sum((w for j, w in wl if j & m), Fraction(0))))
    return SubmodFn(ground, table)


class BuildingSet:
    __slots__ = ("ground", "members")

    def __init__(self, ground: GroundSet, members):
        members = tuple(sorted(set(int(m) for m in members)))
        mset = set(members)
        for i in range(ground.n):
            if (1 << i) not in mset:
                raise ValidationError("building set must contain all singletons")
        for m in members:
            if m == 0:
                raise ValidationError("building set members must be nonempty")
        for j1 in members:
            for j2 in members:
                if j1 & j2 and (j1 | j2) not in mset:
                    raise ValidationError(
                        "building set must be closed under union of overlapping members"
                    )
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "members", members)

    def __setattr__(self, *a):
        raise AttributeError("BuildingSet is immutable")

    def component_masks(self):
        """Connected components: merge everything inside each member."""
        parent = list(range(self.ground.n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for m in self.members:
            ids = list(bit_indices(m))
            for j in ids[1:]:
                parent[find(ids[0])] = find(j)
        comps = {}
        for i in range(self.ground.n):
            comps.setdefault(find(i), 0)
            comps[find(i)] |= 1 << i
        return sorted(comps.values())


def graph_building_set(ground: GroundSet, edges) -> BuildingSet:
    """Vertex sets of connected induced subgraphs."""
    adj = [0] * ground.n
    for u, v in edges:
        iu, iv = ground.index[u], ground.index[v]
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
    members = []
    for m in ground.subsets():
        if m == 0:
            continue
        start = m & -m
        reach = start
        while True:
            grow = reach
            for i in bit_indices(reach):
                grow |= adj[i] & m
            if grow == reach:
                break
            reach = grow
        if reach == m:
            members.append(m)
    return BuildingSet(ground, members)


def nestohedron(B: BuildingSet) -> SubmodFn:
    table = []
    for m in B.ground.subsets():
        table.append(fin(sum(1 for j in B.members if j & m)))
    return SubmodFn(B.ground, table)


def is_forest(P: Preorder) -> bool:
    """Incomparable elements never share an upper bound."""
    n = P.ground.n
    for i in range(n):
        for j in range(i + 1, n):
            if P.leq_idx(i, j) or P.leq_idx(j, i):
                continue
            if P.up[i] & P.up[j]:
                return False
    return True


def is_b_forest(P: Preorder, B: BuildingSet) -> bool:
    if not is_forest(P):
        return False
    mset = set(B.members)
    n = P.ground.n
    for i in range(n):
        if P.up[i] not in mset:
            return False
    # no union of two or more incomparable up-sets may be a member
    for m in range(1, 1 << n):
        if popcount(m) < 2:
            continue
        ids = list(bit_indices(m))
        if any(
            P.leq_idx(i, j) or P.leq_idx(j, i)
            for a, i in enumerate(ids)
            for j in ids[a + 1 :]
        ):
            continue
        union = 0
        for i in ids:
            union |= P.up[i]
        if union in mset:
            return False
    # root bubbles must match the components of the building set
    dn = P.dn_rows()
    bubs = bubble_masks(P)
    roots = []
    for b in bubs:
        i = next(bit_indices(b))
        if dn[i] & ~b == 0:
            roots.append(b)
    comps = B.component_masks()
    if len(roots) != len(comps):
        return False
    covered = sorted(P.up[next(bit_indices(b))] for b in roots)
    return covered == comps


def b_forests(B: BuildingSet, max_n=None):
    cap = caps.preorder_cap(caps.PREORDER_ENUM_CAP, max_n)
    caps.check_enum(B.ground.n, cap, "forest enumeration")
    return [P for P in enumerate_preorders(B.ground, max_n) if is_b_forest(P, B)]


def preorder_cone(P: Preorder) -> SubmodFn:
    return low_of(P)
