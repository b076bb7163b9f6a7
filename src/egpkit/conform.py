"""Compatibility and conformity of preorders with a submodular function,
the face and cone functions, the closure operator, face-lattice
enumeration, and gluing along a down-set.
"""

from __future__ import annotations

from . import caps
from .errors import ValidationError
from .ground import bit_indices, expand_mask, project_mask, reindex_map
from .preorders import (
    Preorder,
    bubble_masks,
    component_masks,
    convex_masks,
    downset_masks,
    enumerate_total_preorders,
    from_relations,
    is_downset,
    preorder_leq,
    preorder_of_sets,
    restrict_preorder,
    total_blocks,
)
from .submod import SubmodFn, decompose, minor
from .values import INF, ZERO


def pre_of(z: SubmodFn) -> Preorder:
    """The preorder whose down-sets are exactly the finite-valued subsets."""
    return preorder_of_sets(z.ground, [m for m in z.ground.subsets() if z.table[m].is_finite])


def cpre_of(z: SubmodFn) -> Preorder:
    """Totally disconnected preorder on the indecomposable blocks."""
    up = [0] * z.ground.n
    for block in decompose(z):
        for i in bit_indices(block):
            up[i] = block
    return Preorder(z.ground, up)


def low_of(P: Preorder) -> SubmodFn:
    """0 on down-sets of P, infinity elsewhere."""
    ds = set(downset_masks(P))
    table = [ZERO if m in ds else INF for m in P.ground.subsets()]
    return SubmodFn(P.ground, table)


def _same_ground(P, z):
    if P.ground != z.ground:
        raise ValidationError("preorder and function live on different ground sets")


def is_compatible(P: Preorder, z: SubmodFn) -> bool:
    _same_ground(P, z)
    ds = downset_masks(P)
    for m in ds:
        if not z.table[m].is_finite:
            return False
    t = z.table
    for b in ds:
        for a in ds:
            if a & ~b == 0 and a != b:
                c = b & ~a
                comps = component_masks(restrict_preorder(P, c))
                if len(comps) < 2:
                    continue
                globs = comps_global(P, c, comps)
                # every two-part disconnection must split the value exactly
                k = len(globs)
                for pick in range(1, 1 << (k - 1)):
                    c1 = 0
                    for j in range(k):
                        if pick >> j & 1:
                            c1 |= globs[j]
                    c2 = c & ~c1
                    if t[a | c1] + t[a | c2] != t[b] + t[a]:
                        return False
    return True


def comps_global(P: Preorder, c: int, comps):
    """Component masks of a restriction, mapped back to ambient bits."""
    pos = [i for i in range(P.ground.n) if c >> i & 1]
    return [expand_mask(cm, pos) for cm in comps]


def z_of_convex(z: SubmodFn, P: Preorder, c: int) -> SubmodFn:
    """The piece function on a convex set, via its canonical presentation
    (down-closure of the set and that minus the set)."""
    _same_ground(P, z)
    dn = P.dn_rows()
    b = c
    for i in bit_indices(c):
        b |= dn[i]
    a = b & ~c
    if not is_downset(P, a):
        raise ValidationError("set is not convex in the preorder")
    if not z.table[a].is_finite:
        raise ValidationError("piece function needs finite value below the set")
    out = minor(z, a, b)
    if __debug__:
        _check_presentation_free(z, P, c, out)
    return out


def _check_presentation_free(z, P, c, out):
    # any other down-set presentation must give the same table
    ds = downset_masks(P)
    sub = out.ground
    pos = reindex_map(z.ground, sub)
    for b in ds:
        a = b & ~c
        if b & ~a != c or a not in ds or not z.table[a].is_finite:
            continue
        for m in range(1 << sub.n):
            alt = z.table[a | expand_mask(m, pos)] - z.table[a]
            assert alt == out.table[m], "piece function depends on presentation"


def _pieces(z: SubmodFn, P: Preorder):
    """(piece function, ground positions of its elements) per bubble."""
    out = []
    for c in bubble_masks(P):
        zc = z_of_convex(z, P, c)
        out.append((zc, reindex_map(z.ground, zc.ground)))
    return out


def _piece_sum(pieces, m: int):
    """The sum over the bubbles of each piece function on its part of m."""
    total = ZERO
    for zc, pos in pieces:
        total = total + zc.table[project_mask(m, pos)]
    return total


def face_fn(z: SubmodFn, P: Preorder) -> SubmodFn:
    """Sum of the piece functions over the bubbles, as one table."""
    _same_ground(P, z)
    pieces = _pieces(z, P)
    return SubmodFn(z.ground, [_piece_sum(pieces, m) for m in z.ground.subsets()])


def cone_fn(z: SubmodFn, P: Preorder) -> SubmodFn:
    """z on the down-sets of P, infinity elsewhere."""
    _same_ground(P, z)
    ds = set(downset_masks(P))
    for m in ds:
        if not z.table[m].is_finite:
            raise ValidationError("preorder has a down-set with infinite value")
    table = [z.table[m] if m in ds else INF for m in z.ground.subsets()]
    return SubmodFn(z.ground, table)


_CONFORM_TEST_CACHE = {}


def is_conforming(P: Preorder, z: SubmodFn) -> bool:
    _same_ground(P, z)
    key = (z, P)
    hit = _CONFORM_TEST_CACHE.get(key)
    if hit is not None:
        return hit
    result = _is_conforming(P, z)
    if len(_CONFORM_TEST_CACHE) > 65536:
        _CONFORM_TEST_CACHE.clear()
    _CONFORM_TEST_CACHE[key] = result
    return result


def _is_conforming(P: Preorder, z: SubmodFn) -> bool:
    if not is_compatible(P, z):
        return False
    for c in convex_masks(P):
        if c == 0:
            continue
        zc = z_of_convex(z, P, c)
        pos = reindex_map(z.ground, zc.ground)
        blocks = sorted(expand_mask(m, pos) for m in decompose(zc))
        comps = sorted(comps_global(P, c, component_masks(restrict_preorder(P, c))))
        if blocks != comps:
            return False
    return True


def closure(z: SubmodFn, P: Preorder) -> Preorder:
    """The conforming preorder of the face picked out by P.

    A set is open in the result when its value is finite, matches the
    sum of the bubble piece functions, and meets each bubble in a union
    of that bubble's indecomposable blocks.
    """
    _same_ground(P, z)
    pieces = _pieces(z, P)
    blocks = [expand_mask(m, pos) for zc, pos in pieces for m in decompose(zc)]
    opens = [
        m
        for m in z.ground.subsets()
        if z.table[m].is_finite
        and all(m & blk in (0, blk) for blk in blocks)
        and _piece_sum(pieces, m) == z.table[m]
    ]
    result = preorder_of_sets(z.ground, opens)
    if __debug__:
        assert preorder_leq(result, P), "closure must refine its input"
        assert is_conforming(result, z), "closure result must conform"
    return result


class Face:
    __slots__ = ("z", "P", "dim")

    def __init__(self, z: SubmodFn, P: Preorder):
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "dim", z.ground.n - len(bubble_masks(P)))

    def __setattr__(self, *a):
        raise AttributeError("Face is immutable")

    @property
    def fn(self) -> SubmodFn:
        """The face's own set function, computed on each access."""
        return face_fn(self.z, self.P)

    def __repr__(self):
        return f"Face(dim={self.dim}, {self.P!r})"


class FaceLattice:
    __slots__ = ("z", "faces", "covers")

    def __init__(self, z: SubmodFn, faces, covers):
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "faces", tuple(faces))
        object.__setattr__(self, "covers", tuple(covers))

    def __setattr__(self, *a):
        raise AttributeError("FaceLattice is immutable")

    def f_vector(self):
        """Face counts by dimension, lowest dimension first."""
        if not self.faces:
            return ()
        top = max(f.dim for f in self.faces)
        low = min(f.dim for f in self.faces)
        counts = [0] * (top - low + 1)
        for f in self.faces:
            counts[f.dim - low] += 1
        return tuple(counts)

    def preorder_set(self):
        return {f.P for f in self.faces}


_CONFORM_CACHE = {}


def conforming_preorders(z: SubmodFn, max_n=None):
    """All conforming preorders of a submodular z, one closure per face:
    the closures of the layered total preorders."""
    cap = caps.soft_cap(max_n)
    caps.check_enum(z.ground.n, min(cap, caps.TOTAL_PREORDER_ENUM_CAP), "face enumeration")
    cached = _CONFORM_CACHE.get(z)
    if cached is not None:
        return list(cached)
    steps = {}
    out = [
        closure(z, L)
        for L in enumerate_total_preorders(z.ground)
        if _is_layered(z, total_blocks(L), steps)
    ]
    out.sort(key=lambda p: p.up)
    if len(_CONFORM_CACHE) > 4096:
        _CONFORM_CACHE.clear()
    _CONFORM_CACHE[z] = tuple(out)
    return list(out)


def _is_layered(z: SubmodFn, blocks, steps) -> bool:
    """Whether the total preorder with these blocks (bottom first) is the
    one that picks out its face.

    With D_i the union of the first i blocks, every D_i must be finite,
    and each indecomposable block K of the step from D_{i-1} to D_i must
    have z(D_{i-2} | K) infinite or gain strictly more there than on
    D_{i-1}. On equality D_{i-2} | K is a down-set of the face, so K
    could sit one layer lower; submodularity rules out a smaller gain.
    `steps` keeps the blocks of each step (D_{i-1}, D_i) for the rest of
    the enumeration.
    """
    t = z.table
    d2 = d1 = 0  # D_{i-2}, D_{i-1}
    for b in blocks:
        d = d1 | b
        if not t[d].is_finite:
            return False
        if d1:
            ks = steps.get((d1, d))
            if ks is None:
                piece = minor(z, d1, d)
                pos = reindex_map(z.ground, piece.ground)
                ks = steps[d1, d] = [expand_mask(m, pos) for m in decompose(piece)]
            for k in ks:
                low = t[d2 | k]
                if low.is_finite and not low.q - t[d2].q > t[d1 | k].q - t[d1].q:
                    return False
        d2, d1 = d1, d
    return True


def enumerate_faces(z: SubmodFn, max_n=None) -> FaceLattice:
    """The faces, sorted by dimension and then preorder rows, and their
    covers (i, j): face i is a facet of face j. The lattice is graded by
    dimension, so these are the containments one dimension apart."""
    faces = [Face(z, P) for P in conforming_preorders(z, max_n)]
    faces.sort(key=lambda f: (f.dim, f.P.up))
    by_dim = {}
    for j, f in enumerate(faces):
        by_dim.setdefault(f.dim, []).append(j)
    covers = [
        (i, j)
        for i, fi in enumerate(faces)
        for j in by_dim.get(fi.dim + 1, ())
        if all(p & ~q == 0 for p, q in zip(fi.P.up, faces[j].P.up))
    ]
    return FaceLattice(z, faces, covers)


def min_faces(z: SubmodFn, max_n=None):
    """The smallest faces. They all translate the lineality space, so they
    are the faces of minimum dimension: the most bubbles."""
    pres = conforming_preorders(z, max_n)
    sizes = [len(bubble_masks(P)) for P in pres]
    most = max(sizes, default=0)
    return [Face(z, P) for P, k in zip(pres, sizes) if k == most]


def glue(z: SubmodFn, s_mask: int, P1: Preorder, P2: Preorder) -> Preorder:
    """The unique conforming preorder with the given down-set, restricting
    to the two given preorders on the down-set and its complement."""
    if not z.table[s_mask].is_finite:
        raise ValidationError("glue needs a finite value on the down-set")
    t_mask = z.ground.full & ~s_mask
    if set(P1.ground.labels) != set(z.ground.members(s_mask)):
        raise ValidationError("first preorder must live on the down-set")
    if set(P2.ground.labels) != set(z.ground.members(t_mask)):
        raise ValidationError("second preorder must live on the complement")
    pairs = []
    for Q in (P1, P2):
        for i in range(Q.ground.n):
            for j in bit_indices(Q.up[i]):
                pairs.append((Q.ground.labels[i], Q.ground.labels[j]))
    for a in z.ground.members(s_mask):
        for b in z.ground.members(t_mask):
            pairs.append((a, b))
    q0 = from_relations(z.ground, pairs)
    if not is_compatible(q0, z):
        raise ValidationError("stacked preorder is not compatible with the function")
    result = closure(z, q0)
    assert is_downset(result, s_mask), "glue lost the down-set"
    assert _relabeled_equal(restrict_preorder(result, s_mask), P1), "glue broke the lower part"
    assert _relabeled_equal(restrict_preorder(result, t_mask), P2), "glue broke the upper part"
    return result


def _relabeled_equal(P: Preorder, Q: Preorder) -> bool:
    return P.canonical_key() == Q.canonical_key()
