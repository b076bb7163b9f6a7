import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from egpkit import (
    CapExceeded,
    GroundSet,
    RationalPoly,
    ValidationError,
    bjr_count,
    chain,
    chi,
    chi_character,
    coarse,
    discrete,
    ehr,
    ehr_star,
    enumerate_preorders,
    from_relations,
    full_coproduct,
    internal_delta,
    low_of,
    min_faces,
    permutahedron,
    product,
    uniform_matroid,
    matroid_rank,
)
from egpkit.ground import bit_indices
from egpkit.preorders import Preorder, bubble_masks
from conftest import FAMILIES, cardinality_fn, family
from test_acceptance import big_corpus, small_corpus


# The brute-force route to the Ehrhart counts, the oracle for the chain
# count over down-sets: count maps at d+1 points, interpolate, and check
# two more points.

def lagrange(points) -> RationalPoly:
    """Exact interpolation through (x, y) pairs with distinct x."""
    out = RationalPoly([])
    for i, (xi, yi) in enumerate(points):
        term = RationalPoly([Fraction(yi)])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            denom = Fraction(xi) - Fraction(xj)
            term = term * RationalPoly([Fraction(-xj) / denom, Fraction(1) / denom])
        out = out + term
    return out


def _bubble_strict_pairs(P: Preorder):
    bubs = bubble_masks(P)
    reps = [next(bit_indices(b)) for b in bubs]
    pairs = []
    for i, ri in enumerate(reps):
        for j, rj in enumerate(reps):
            if i != j and P.leq_idx(ri, rj) and not P.leq_idx(rj, ri):
                pairs.append((i, j))
    return len(bubs), pairs


def _count_strict(P, k):
    """Maps from bubbles into 1..k, strictly decreasing along the order."""
    d, pairs = _bubble_strict_pairs(P)
    count = 0
    for h in iproduct(range(1, k + 1), repeat=d):
        if all(h[i] > h[j] for i, j in pairs):
            count += 1
    return count


def _count_weak(P, k):
    """Maps from bubbles into 0..k, weakly decreasing along the order."""
    d, pairs = _bubble_strict_pairs(P)
    count = 0
    for h in iproduct(range(k + 1), repeat=d):
        if all(h[i] >= h[j] for i, j in pairs):
            count += 1
    return count


def brute_ehr_star(P: Preorder) -> RationalPoly:
    d = len(bubble_masks(P))
    pts = [(k, _count_strict(P, k)) for k in range(1, d + 2)]
    poly = lagrange(pts)
    assert poly.degree <= d
    for k in (d + 2, d + 3):
        assert poly.eval_at(k) == _count_strict(P, k), "interpolation drift"
    return poly


def brute_ehr(P: Preorder) -> RationalPoly:
    d = len(bubble_masks(P))
    pts = [(k, _count_weak(P, k)) for k in range(d + 1)]
    poly = lagrange(pts)
    assert poly.degree <= d
    for k in (d + 1, d + 2):
        assert poly.eval_at(k) == _count_weak(P, k), "interpolation drift"
    return poly


def chi_by_faces(z) -> RationalPoly:
    """The face route to chi, the oracle for the chain count over additive
    minors: the strict Ehrhart counts of the smallest faces, summed."""
    out = RationalPoly([])
    for f in min_faces(z):
        out = out + ehr_star(f.P)
    return out


def random_bubbled_preorder(ground, bubbles, rng):
    """Exactly `bubbles` classes: a random partition of the ground set, then
    random relations between classes along the order of the partition."""
    idx = list(range(ground.n))
    rng.shuffle(idx)
    cuts = sorted(rng.sample(range(1, ground.n), bubbles - 1))
    parts = [idx[a:b] for a, b in zip([0] + cuts, cuts + [ground.n])]
    labels = ground.labels
    pairs = []
    for part in parts:
        pairs += [(labels[part[0]], labels[j]) for j in part]
        pairs += [(labels[j], labels[part[0]]) for j in part]
    for a in range(bubbles):
        for b in range(a + 1, bubbles):
            if rng.random() < 0.4:
                pairs.append((labels[parts[a][0]], labels[parts[b][0]]))
    return from_relations(ground, pairs)


def test_poly_arithmetic():
    p = RationalPoly([1, 2])  # 1 + 2k
    q = RationalPoly([0, 0, 1])  # k^2
    assert (p + q).coeffs == (1, 2, 1)
    assert (p * q).coeffs == (0, 0, 1, 2)
    assert (p * 3).coeffs == (3, 6)
    assert (-p).coeffs == (-1, -2)
    assert p.eval_at(Fraction(1, 2)) == 2
    assert RationalPoly([1, 0, 0]).degree == 0
    assert RationalPoly([]).coeffs == ()


def test_compose_linear():
    p = RationalPoly([0, 0, 1])  # k^2
    assert p.compose_linear(-1, -1).coeffs == (1, 2, 1)  # (−k−1)^2
    p = RationalPoly([1, 1, 1])
    for k in range(-3, 4):
        assert p.compose_linear(2, 5).eval_at(k) == p.eval_at(2 * k + 5)


def test_binomial_basis():
    # k^2 = 2*C(k,2) + C(k,1)
    assert RationalPoly([0, 0, 1]).binomial_basis() == [0, 1, 2]
    assert RationalPoly([0, 2, -3, 1]).binomial_basis() == [0, 0, 0, 6]
    for p in [
        RationalPoly([]),
        RationalPoly([7]),
        RationalPoly([0, 2, -3, 1]),
        RationalPoly([Fraction(1, 3), -2, 0, Fraction(5, 7), 1]),
    ]:
        assert RationalPoly.from_binomial(p.binomial_basis()) == p
    assert RationalPoly.from_binomial([0, 1, 2]) == RationalPoly([0, 0, 1])


def test_lagrange():
    p = lagrange([(0, 1), (1, 2), (2, 5)])
    assert p.coeffs == (1, 0, 1)  # k^2 + 1


def test_chain_count_matches_brute_force_on_small_preorders():
    for n in range(5):
        for P in enumerate_preorders(GroundSet([chr(97 + i) for i in range(n)])):
            assert ehr_star(P) == brute_ehr_star(P)
            assert ehr(P) == brute_ehr(P)


def test_chain_count_matches_brute_force_on_seeded_preorders():
    rng = random.Random(20241)
    for n in (5, 6):
        ground = GroundSet([chr(97 + i) for i in range(n)])
        for d in range(1, n + 1):
            P = random_bubbled_preorder(ground, d, rng)
            assert len(bubble_masks(P)) == d
            assert ehr_star(P) == brute_ehr_star(P)
            assert ehr(P) == brute_ehr(P)


def test_ehrhart_cap(abc):
    P = chain(abc)
    for count in (ehr_star, ehr):
        with pytest.raises(CapExceeded):
            count(P, max_n=2)
        assert count(P, max_n=3) == count(P)


def test_ehr_star_chain():
    g = GroundSet(["a", "b"])
    p = ehr_star(chain(g))
    assert p == RationalPoly([0, Fraction(-1, 2), Fraction(1, 2)])  # C(k,2)


def test_ehr_star_vee(abc):
    P = from_relations(abc, [("a", "b"), ("c", "b")])
    # k(k-1)(2k-1)/6: squares summed
    assert ehr_star(P) == RationalPoly(
        [0, Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)]
    )


def test_ehr_star_bubbles_collapse(abc):
    # one bubble means one free value
    assert ehr_star(coarse(abc)) == RationalPoly([0, 1])


def test_ehr_weak_chain():
    g = GroundSet(["a", "b"])
    # weakly decreasing pairs from {0..k}: C(k+2,2)
    assert ehr(chain(g)) == RationalPoly([1, Fraction(3, 2), Fraction(1, 2)])


def test_reciprocity(abc):
    # strict count at k equals (-1)^d times the weak count at -k-1
    for P in enumerate_preorders(abc):
        d = ehr(P).degree
        lhs = ehr_star(P)
        rhs = ehr(P).compose_linear(-1, -1) * Fraction((-1) ** d)
        assert lhs == rhs


def test_chi_hexagon(hexagon):
    assert chi(hexagon) == RationalPoly([0, 2, -3, 1])  # k(k-1)(k-2)


def test_chi_pentagon(pentagon):
    p = chi(pentagon)
    assert p.degree == 3
    # five vertices, so five strict-count summands
    assert p.eval_at(1) == 0
    assert p.eval_at(2) >= 0


def test_chi_of_cones(abc):
    # the cone of a chain counts its order-preserving strict maps
    for n in range(1, 5):
        g = GroundSet([chr(97 + i) for i in range(n)])
        p = chi(low_of(chain(g)))
        from math import comb

        for k in range(n, n + 4):
            assert p.eval_at(k) == comb(k, n)


def test_chi_multiplicative(hexagon):
    u = permutahedron([2, 1], labels=["x", "y"])
    assert chi(product(u, hexagon)) == chi(u) * chi(hexagon)


def test_chi_character_matches_chi(abc, hexagon, pentagon):
    for z in [hexagon, pentagon, cardinality_fn(abc)]:
        p = chi(z)
        for n in range(5):
            assert chi_character(z, n) == p.eval_at(n)


def test_chi_character_rejects(hexagon, abc):
    with pytest.raises(ValidationError):
        chi_character(hexagon, -1)
    with pytest.raises(ValidationError):
        chi_character(low_of(chain(abc)), 2)  # needs extended=True


def test_chi_character_extended(abc):
    z = low_of(chain(abc))
    p = chi(z)
    for n in range(5):
        assert chi_character(z, n, extended=True) == p.eval_at(n)


def test_bjr_uniform():
    M = uniform_matroid(1, 2)
    # unique maximum iff the two values differ
    for n in range(1, 5):
        assert bjr_count(M, n) == n * n - n


def test_bjr_matches_chi():
    for M in [uniform_matroid(1, 2), uniform_matroid(2, 3)]:
        p = chi(matroid_rank(M))
        for n in range(5):
            assert bjr_count(M, n) == p.eval_at(n)


def _letters(n):
    return GroundSet([chr(97 + i) for i in range(n)])


def test_chi_matches_face_route_on_corpora():
    # every cone on at most 3 points and a seeded sixth of those on 4: the
    # face route costs about 7 ms per 4-point cone
    cones4 = enumerate_preorders(_letters(4))
    zs = small_corpus() + big_corpus()
    for n in range(4):
        zs += [low_of(P) for P in enumerate_preorders(_letters(n))]
    zs += [low_of(P) for P in random.Random(2019).sample(cones4, len(cones4) // 6)]
    for z in zs:
        assert chi(z) == chi_by_faces(z), z


def test_chi_matches_face_route_on_families():
    rng = random.Random(2020)
    zs = [family(name, 4, rng) for name in FAMILIES for _ in range(2)]
    zs += [family(name, 5, rng) for name in ("cone", "minkowski_cone")]
    for z in zs:
        assert chi(z) == chi_by_faces(z), z


def _values(p, n):
    """p at 0..n, as ints: chi counts chains there."""
    out = [p.eval_at(x) for x in range(n + 1)]
    assert all(v.denominator == 1 for v in out)
    return [v.numerator for v in out]


def test_chi_coproduct_identity():
    # chi(z)(x + y) is the sum over finite S of chi(z|S)(x) * chi(z/S)(y);
    # both sides have degree at most n in x and in y, so the grid of
    # 0 <= x, y <= n settles it
    rng = random.Random(2021)
    zs = [family(name, n, rng) for n in (3, 5, 7) for name in FAMILIES if name != "permutahedron"]
    for z in zs + [permutahedron(list(range(8, 0, -1)))]:
        n = z.ground.n
        terms = [(_values(chi(a), n), _values(chi(b), n)) for _, (a, b) in full_coproduct(z)]
        p = _values(chi(z), 2 * n)
        for x in range(n + 1):
            for y in range(n + 1):
                assert p[x + y] == sum(u[x] * v[y] for u, v in terms), (z, x, y)


def test_chi_internal_coproduct_identity():
    # chi(z)(x * y) is the sum over conforming P of
    # chi(face_fn(z, P))(x) * chi(cone_fn(z, P))(y)
    rng = random.Random(2022)
    for name in FAMILIES:
        z = family(name, 4, rng)
        terms = [(c, _values(chi(f), 4), _values(chi(g), 4)) for c, (f, g) in internal_delta(z)]
        p = _values(chi(z), 16)
        for x in range(5):
            for y in range(5):
                assert p[x * y] == sum(c * u[x] * v[y] for c, u, v in terms), (name, x, y)


def test_chi_at_minus_one_counts_min_faces():
    # every smallest face has deg chi bubbles and adds (-1)^deg to chi(-1);
    # deg chi is n exactly when the smallest faces are points
    rng = random.Random(2023)
    zs = small_corpus() + big_corpus()
    zs += [family(name, n, rng) for n in (2, 3, 4) for name in FAMILIES]
    for n in range(4):
        zs += [low_of(P) for P in enumerate_preorders(_letters(n))]
    for z in zs:
        p = chi(z)
        assert (-1) ** p.degree * p.eval_at(-1) == len(min_faces(z)), z


def test_chi_soft_cap(hexagon):
    # n <= 12 passes by default: criterion 03 takes the permutahedron to n=10
    with pytest.raises(CapExceeded):
        chi(low_of(discrete(_letters(13))))
    with pytest.raises(CapExceeded):
        chi(hexagon, max_n=2)
    assert chi(hexagon, max_n=3) == RationalPoly([0, 2, -3, 1])
