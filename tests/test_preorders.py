import random

import pytest

from egpkit import (
    CapExceeded,
    DownSetFamily,
    GroundSet,
    Preorder,
    ValidationError,
    bubble_masks,
    chain,
    coarse,
    component_masks,
    contractions,
    discrete,
    downsets,
    enumerate_preorders,
    enumerate_total_preorders,
    from_relations,
    galois_f,
    galois_g,
    is_contraction,
    is_subdivision,
    join,
    linear_extensions,
    meet,
    opposite,
    preo_of,
    preorder_leq,
    preorder_of_sets,
    subdivisions,
)
from egpkit.ground import bit_indices
from egpkit.preorders import (
    _bubble_leq,
    convex_masks,
    downset_masks,
    from_blocks,
    is_convex,
    is_connected,
    is_downset,
    is_subdivision_admissible,
    is_subdivision_convex,
    restrict_preorder,
)


def vpo(abc):
    # a < b, c < b
    return from_relations(abc, [("a", "b"), ("c", "b")])


def test_constructor_rejects_bad_rows(abc):
    with pytest.raises(ValidationError):
        Preorder(abc, [0b001, 0b010])  # wrong length
    with pytest.raises(ValidationError):
        Preorder(abc, [0b010, 0b010, 0b100])  # not reflexive
    with pytest.raises(ValidationError):
        Preorder(abc, [0b011, 0b110, 0b100])  # a<=b, b<=c but not a<=c


def test_from_relations_closes_transitively(abc):
    P = from_relations(abc, [("a", "b"), ("b", "c")])
    assert P.leq("a", "c")
    assert P == chain(abc)
    with pytest.raises(ValidationError):
        from_relations(abc, [("a", "z")])


def test_leq_and_total(abc):
    P = vpo(abc)
    assert P.leq("a", "b") and not P.leq("b", "a")
    assert not P.leq("a", "c")
    assert not P.is_total()
    assert chain(abc).is_total()
    assert coarse(abc).is_total()


def test_downsets_of_chain(abc):
    assert downset_masks(chain(abc)) == [0b000, 0b001, 0b011, 0b111]


def test_downsets_of_vee(abc):
    # V-poset: down-sets are generated by {a} and {c}
    assert downset_masks(vpo(abc)) == [0b000, 0b001, 0b100, 0b101, 0b111]


def test_alexandroff_round_trip(abc):
    for P in enumerate_preorders(abc):
        assert preo_of(downsets(P)) == P


def test_family_round_trip(abc):
    for P in enumerate_preorders(abc):
        fam = downsets(P)
        assert downsets(preo_of(fam)) == fam


def preorder_by_scan(T: DownSetFamily) -> Preorder:
    """i below j iff every member containing j also contains i: the
    definitional route from a family to its preorder, the oracle of
    `preorder_of_sets`."""
    n = T.ground.n
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if all(not (m >> j & 1) or (m >> i & 1) for m in T.sets):
                up[i] |= 1 << j
    return Preorder(T.ground, up)


def _family_outcomes(ground, sets):
    """(preorder_of_sets, the scan of the pairwise-checked family), with
    None for a family that a route rejects."""
    try:
        got = preorder_of_sets(ground, sets)
    except ValidationError as e:
        assert str(e) == "family not closed under union/intersection"
        got = None
    try:
        want = preorder_by_scan(DownSetFamily(ground, sets))
    except ValidationError:
        want = None
    return got, want


def test_preorder_of_sets_matches_scan():
    families = []
    for n in range(5):
        g = GroundSet([chr(97 + i) for i in range(n)])
        families += [(g, downset_masks(P)) for P in enumerate_preorders(g)]
    rng = random.Random(21)
    for _ in range(2000):
        n = rng.randint(1, 4)
        g = GroundSet([chr(97 + i) for i in range(n)])
        if rng.random() < 0.5:  # any distinct sets
            sets = rng.sample(range(1 << n), rng.randint(1, 1 << n))
        else:  # the down-sets of a random relation, one set toggled
            P = from_relations(g, [(a, b) for a in g for b in g if rng.random() < 0.2])
            sets = set(downset_masks(P)) ^ {rng.randrange(1 << n)}
            sets = sorted(sets)
        families.append((g, sets))
    rejected = 0
    for g, sets in families:
        got, want = _family_outcomes(g, sets)
        assert got == want, (g, sets)
        rejected += got is None
    assert 1000 < rejected < len(families) - 500


def test_downset_family_validation(abc):
    with pytest.raises(ValidationError):
        DownSetFamily(abc, [0b000, 0b001])  # missing full set
    with pytest.raises(ValidationError):
        DownSetFamily(abc, [0b000, 0b001, 0b010, 0b111])  # no union {a,b}


def test_preorder_count_sequence():
    # labeled preorders = labeled topologies: 1, 4, 29
    for n, count in [(1, 1), (2, 4), (3, 29)]:
        g = GroundSet([chr(97 + i) for i in range(n)])
        assert len(enumerate_preorders(g)) == count


def test_total_preorder_count_sequence():
    # ordered set partitions: 1, 3, 13, 75
    for n, count in [(1, 1), (2, 3), (3, 13), (4, 75)]:
        g = GroundSet([chr(97 + i) for i in range(n)])
        assert len(enumerate_total_preorders(g, max_n=n)) == count


def test_enumeration_caps():
    g = GroundSet([chr(97 + i) for i in range(7)])
    with pytest.raises(CapExceeded):
        enumerate_preorders(g)


def test_max_n_only_lowers_the_preorder_cap(abc):
    # 7 points would take hours to enumerate, so max_n must not lift the cap
    with pytest.raises(CapExceeded):
        enumerate_preorders(GroundSet([chr(97 + i) for i in range(7)]), max_n=10)
    with pytest.raises(CapExceeded):
        enumerate_preorders(abc, max_n=2)
    assert len(enumerate_preorders(abc, max_n=3)) == 29


def test_max_n_only_lowers_the_total_preorder_cap(abc):
    # 9 points would take minutes to enumerate, so max_n must not lift the cap
    with pytest.raises(CapExceeded):
        enumerate_total_preorders(GroundSet([chr(97 + i) for i in range(9)]), max_n=9)
    with pytest.raises(CapExceeded):
        enumerate_total_preorders(abc, max_n=2)
    assert len(enumerate_total_preorders(abc, max_n=3)) == 13


def test_preorder_leq(abc):
    assert preorder_leq(discrete(abc), chain(abc))
    assert preorder_leq(vpo(abc), coarse(abc))
    assert not preorder_leq(chain(abc), vpo(abc))
    for P in enumerate_preorders(abc):
        assert preorder_leq(discrete(abc), P)
        assert preorder_leq(P, coarse(abc))
        assert preorder_leq(P, P)


def test_lattice_operations(abc):
    pres = enumerate_preorders(abc)
    for P in pres:
        assert opposite(opposite(P)) == P
        for Q in pres:
            m, j = meet(P, Q), join(P, Q)
            assert preorder_leq(m, P) and preorder_leq(m, Q)
            assert preorder_leq(P, j) and preorder_leq(Q, j)
            # meet/join agree with the containment order
            assert (m == P) == preorder_leq(P, Q)
            assert (j == Q) == preorder_leq(P, Q)


def test_bubbles_and_components(abc):
    P = vpo(abc)
    assert bubble_masks(P) == [0b001, 0b010, 0b100]
    assert component_masks(P) == [0b111]
    Q = from_relations(abc, [("a", "b")])
    assert component_masks(Q) == [0b011, 0b100]
    assert bubble_masks(coarse(abc)) == [0b111]


def test_restrict_preorder(abc):
    P = chain(abc)
    R = restrict_preorder(P, 0b101)
    assert R.leq("a", "c") and not R.leq("c", "a")


def test_convexity(abc):
    P = chain(abc)  # a < b < c
    assert is_convex(P, 0b011) and is_convex(P, 0b110) and is_convex(P, 0b010)
    assert not is_convex(P, 0b101)  # skips b
    assert 0b101 not in convex_masks(P)
    assert sorted(convex_masks(vpo(abc))) == sorted(
        [0, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    )


def test_convex_masks_match_definition(abc):
    for P in enumerate_preorders(abc):
        cm = set(convex_masks(P))
        for m in abc.subsets():
            assert (m in cm) == is_convex(P, m)


def test_downset_predicate(abc):
    P = chain(abc)
    assert is_downset(P, 0b011)
    assert not is_downset(P, 0b010)


def test_subdivision_example(abc):
    # dropping the middle relation of a chain subdivides it
    P = chain(abc)
    R = from_relations(abc, [("a", "b")])  # keep a<b, cut b<c
    assert is_subdivision(R, P)
    # a non-convex leftover does not
    R2 = from_relations(abc, [("b", "c")])
    assert is_subdivision(R2, P) == is_subdivision_admissible(R2, P)


def test_subdivision_characterizations_agree(abc):
    pres = enumerate_preorders(abc)
    for P in pres:
        for R in pres:
            a = is_subdivision(R, P)
            b = is_subdivision_admissible(R, P)
            c = is_subdivision_convex(R, P)
            assert a == b == c


def test_contraction_example(abc):
    P = from_relations(abc, [("a", "b")])
    Q = from_relations(abc, [("a", "b"), ("b", "a")])  # merge a,b into a bubble
    assert is_contraction(P, Q)
    assert not is_contraction(P, coarse(abc))  # no strict witness below c
    assert is_contraction(chain(abc), coarse(abc))


# The structural contraction test, the oracle for the fixpoint test in
# is_contraction: P refines Q, every Q-bubble is connected in P, and every
# cover between Q-bubbles has a strict P-relation as witness.

def _contraction_bubbles(P: Preorder, Q: Preorder) -> bool:
    if not preorder_leq(P, Q):
        return False
    qb = bubble_masks(Q)
    for b in qb:
        if not is_connected(restrict_preorder(P, b)):
            return False
    # every cover among Q-bubbles needs a strict P-relation witness
    for b1 in qb:
        for b2 in qb:
            if b1 == b2 or not _bubble_cover(Q, qb, b1, b2):
                continue
            if not any(
                P.strictly_below_idx(i, j)
                for i in bit_indices(b1)
                for j in bit_indices(b2)
            ):
                return False
    return True


def _bubble_cover(Q, qb, b1, b2):
    if not (_bubble_leq(Q, b1, b2) and not _bubble_leq(Q, b2, b1)):
        return False
    for b in qb:
        if b in (b1, b2):
            continue
        if (
            _bubble_leq(Q, b1, b) and not _bubble_leq(Q, b, b1)
            and _bubble_leq(Q, b, b2) and not _bubble_leq(Q, b2, b)
        ):
            return False
    return True


def test_contraction_routes_agree():
    for n in range(4):
        pres = enumerate_preorders(GroundSet([chr(97 + i) for i in range(n)]))
        for P in pres:
            for Q in pres:
                assert is_contraction(P, Q) == _contraction_bubbles(P, Q), (P, Q)
    # on 4 points, Q is coarsened to a join with P so that P refines it
    pres = enumerate_preorders(GroundSet(["a", "b", "c", "d"]))
    rng = random.Random(4355)
    hits = 0
    for _ in range(2000):
        P = rng.choice(pres)
        Q = join(P, rng.choice(pres))
        fast = is_contraction(P, Q)
        assert fast == _contraction_bubbles(P, Q), (P, Q)
        hits += fast
    assert 0 < hits < 2000


def test_galois_bijection(abc):
    # F and G are inverse bijections between subdivisions and contractions
    for P in enumerate_preorders(abc):
        subs = subdivisions(P)
        cons = contractions(P)
        assert len(subs) == len(cons)
        assert sorted(q.up for q in (galois_f(P, R) for R in subs)) == sorted(
            q.up for q in cons
        )
        for R in subs:
            assert galois_g(P, galois_f(P, R)) == R
        for Q in cons:
            assert galois_f(P, galois_g(P, Q)) == Q


def test_galois_preconditions(abc):
    with pytest.raises(ValidationError):
        galois_f(discrete(abc), chain(abc))
    with pytest.raises(ValidationError):
        galois_g(chain(abc), discrete(abc))


def test_contraction_is_a_partial_order(abc):
    pres = enumerate_preorders(abc)
    for P in pres:
        assert is_contraction(P, P)
        for Q in pres:
            if is_contraction(P, Q) and is_contraction(Q, P):
                assert P == Q
            for R in pres:
                if is_contraction(P, Q) and is_contraction(Q, R):
                    assert is_contraction(P, R)


def test_linear_extensions_of_vee(abc):
    P = vpo(abc)
    exts = linear_extensions(P)
    assert len(exts) == 2  # a,c then b; in either order of a,c
    for L in exts:
        assert L.is_total()
        assert preorder_leq(P, L)
        assert L.leq("a", "b") and L.leq("c", "b")


def test_linear_extensions_partition_totals(abc):
    # every total order extends exactly the posets it refines
    chains = [L for L in enumerate_total_preorders(abc) if len(bubble_masks(L)) == 3]
    assert len(chains) == 6
    P = vpo(abc)
    exts = set(linear_extensions(P))
    for L in chains:
        assert (L in exts) == preorder_leq(P, L)


def test_from_blocks_validation(abc):
    with pytest.raises(ValidationError):
        from_blocks(abc, [0b001, 0b010])  # c uncovered
    L = from_blocks(abc, [0b100, 0b011])
    assert L.leq("c", "a") and L.leq("a", "b") and L.leq("b", "a")


def test_canonical_key_ignores_label_order():
    g1 = GroundSet(["x", "y"])
    g2 = GroundSet(["y", "x"])
    P1 = from_relations(g1, [("x", "y")])
    P2 = from_relations(g2, [("x", "y")])
    assert P1.canonical_key() == P2.canonical_key()
