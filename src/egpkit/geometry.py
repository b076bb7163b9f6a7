"""Exact point and direction computations for the polyhedron of a
submodular function: membership, greedy-style points for total
preorders, braid cones, and the direction-to-face map.
"""

from __future__ import annotations

from fractions import Fraction

from .conform import Face, closure
from .errors import UnboundedDirection, ValidationError
from .ground import bit_indices, popcount
from .preorders import (
    DownSetFamily,
    Preorder,
    downset_masks,
    from_blocks,
    total_blocks,
)
from .submod import SubmodFn
from .values import ExtValue


def _coords(z_or_p, x):
    ground = z_or_p.ground
    if set(x) != set(ground.labels):
        raise ValidationError("point must assign a value to every element")
    return [Fraction(x[lab]) for lab in ground.labels]


def _mask_sum(vals, mask):
    return sum((vals[i] for i in bit_indices(mask)), Fraction(0))


def contains(z: SubmodFn, x: dict) -> bool:
    """x sums to z on the full set and respects every finite inequality."""
    vals = _coords(z, x)
    if ExtValue(_mask_sum(vals, z.ground.full)) != z.table[z.ground.full]:
        return False
    for m in z.ground.subsets():
        if z.table[m].is_finite and _mask_sum(vals, m) > z.table[m].q:
            return False
    return True


def alin_point(z: SubmodFn, L: Preorder) -> dict:
    """Triangular solve along the blocks of a total preorder; within a
    block the block's increment is shared equally."""
    if L.ground != z.ground:
        raise ValidationError("preorder and function live on different ground sets")
    blocks = total_blocks(L)
    coords = {}
    below = 0
    for b in blocks:
        hi = z.table[below | b]
        lo = z.table[below]
        if not (hi.is_finite and lo.is_finite):
            raise ValidationError("total preorder has a down-set with infinite value")
        share = (hi.q - lo.q) / popcount(b)
        for i in bit_indices(b):
            coords[z.ground.labels[i]] = share
        below |= b
    return coords


def cone_contains(P: Preorder, y: dict) -> bool:
    """y is weakly decreasing along the preorder: lower elements get
    larger coordinates."""
    vals = _coords(P, y)
    for i in range(P.ground.n):
        for j in bit_indices(P.up[i]):
            if vals[i] < vals[j]:
                return False
    return True


def level_preorder(ground, y: dict) -> Preorder:
    """Total preorder of the level sets; higher value means lower."""
    vals = [Fraction(y[lab]) for lab in ground.labels]
    levels = sorted(set(vals), reverse=True)
    blocks = []
    for lv in levels:
        blocks.append(sum(1 << i for i, v in enumerate(vals) if v == lv))
    return from_blocks(ground, blocks)


def direction_to_face(z: SubmodFn, y: dict) -> Face:
    """The face on which the linear functional attains its maximum."""
    ty = level_preorder(z.ground, y)
    for m in downset_masks(ty):
        if not z.table[m].is_finite:
            raise UnboundedDirection(
                "direction has no maximum on the polyhedron"
            )
    return Face(z, closure(z, ty))


def equality_set(z: SubmodFn, points) -> DownSetFamily:
    """Subsets whose inequality is tight at every given point."""
    rows = []
    for x in points:
        if not contains(z, x):
            raise ValidationError("point lies outside the polyhedron")
        rows.append(_coords(z, x))
    tight = []
    for m in z.ground.subsets():
        if not z.table[m].is_finite:
            continue
        if all(ExtValue(_mask_sum(vals, m)) == z.table[m] for vals in rows):
            tight.append(m)
    return DownSetFamily(z.ground, tight)
