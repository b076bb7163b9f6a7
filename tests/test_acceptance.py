"""End-to-end acceptance checks, one test per headline claim."""

import random
from fractions import Fraction
from math import comb

from egpkit import (
    FormalSum,
    GroundSet,
    alin_point,
    b_forests,
    basis_vertex_poset,
    bjr_count,
    chain,
    chi,
    chi_character,
    closure,
    cone_fn,
    conforming_preorders,
    corestrict,
    counit_eps,
    ehr,
    ehr_star,
    enumerate_faces,
    enumerate_preorders,
    from_finite,
    from_relations,
    full_coproduct,
    glue,
    graph_building_set,
    graphic_matroid,
    internal_delta,
    is_conforming,
    is_contraction,
    is_modular,
    is_subdivision,
    linear_extensions,
    low_of,
    matroid_rank,
    min_faces,
    nestohedron,
    permutahedron,
    phi,
    preorder_delta,
    preorder_full_coproduct,
    product,
    psi,
    restrict,
    uniform_matroid,
)
from egpkit.generators import BuildingSet
from egpkit.invariants import RationalPoly
from egpkit.preorders import (
    bubble_masks,
    downset_masks,
    from_blocks,
    galois_f,
    galois_g,
    is_downset,
    is_subdivision_admissible,
    is_subdivision_convex,
    join,
    meet,
    restrict_preorder,
)

ABC = GroundSet(["a", "b", "c"])
HEXAGON = permutahedron([3, 2, 1])
PENTAGON = from_finite(
    ABC,
    {
        ("a",): 3, ("b",): 3, ("c",): 3,
        ("a", "b"): 5, ("b", "c"): 5,
        ("a", "c"): 6, ("a", "b", "c"): 6,
    },
)


def _letters(n):
    return GroundSet([chr(97 + i) for i in range(n)])


def small_corpus():
    """Functions on at most 3 elements, finite and extended."""
    g1 = GroundSet(["a"])
    g2 = GroundSet(["a", "b"])
    return [
        from_finite(g1, {("a",): 1}),
        permutahedron([2, 1]),
        HEXAGON,
        PENTAGON,
        from_finite(ABC, {m: Fraction(bin(m).count("1")) for m in ABC.subsets() if m}),
        matroid_rank(uniform_matroid(2, 3)),
        nestohedron(graph_building_set(ABC, [("a", "b"), ("b", "c")])),
        low_of(chain(ABC)),
        low_of(from_relations(ABC, [("a", "b")])),
        low_of(from_relations(g2, [("a", "b")])),
    ]


def big_corpus():
    """Representatives on 4 elements."""
    g4 = _letters(4)
    return [
        permutahedron([4, 3, 2, 1]),
        low_of(chain(g4)),
        nestohedron(
            graph_building_set(g4, [("a", "b"), ("b", "c"), ("c", "d")])
        ),
        matroid_rank(uniform_matroid(2, 4)),
    ]


def test_criterion_01_hexagon_face_lattice():
    lat = enumerate_faces(HEXAGON)
    assert len(lat.faces) == 13
    assert lat.f_vector() == (6, 6, 1)
    pres = enumerate_preorders(ABC)
    assert len(pres) == 29
    filt = {P for P in pres if is_conforming(P, HEXAGON)}
    assert lat.preorder_set() == filt


def test_criterion_02_pentagon_face_lattice():
    lat = enumerate_faces(PENTAGON)
    assert len(lat.faces) == 11
    assert lat.f_vector() == (5, 5, 1)
    filt = {P for P in enumerate_preorders(ABC) if is_conforming(P, PENTAGON)}
    assert lat.preorder_set() == filt
    # the blunt corner: two total orders close to the same vertex poset
    vee = from_relations(ABC, [("a", "b"), ("c", "b")])
    assert closure(PENTAGON, from_blocks(ABC, [0b001, 0b100, 0b010])) == vee
    assert closure(PENTAGON, from_blocks(ABC, [0b100, 0b001, 0b010])) == vee


def test_criterion_03_permutahedron_chi_falling_factorial():
    for n in range(2, 11):
        z = permutahedron(list(range(n, 0, -1)))
        expected = RationalPoly([1])
        for i in range(n):
            expected = expected * RationalPoly([-i, 1])
        assert chi(z) == expected


def test_criterion_04_chain_cone_chi_binomial():
    for n in range(1, 6):
        p = chi(low_of(chain(_letters(n))))
        for k in range(0, n + 4):
            assert p.eval_at(k) == comb(k, n)


def test_criterion_05_ehrhart_examples_and_reciprocity():
    assert ehr_star(chain(_letters(2))) == RationalPoly(
        [0, Fraction(-1, 2), Fraction(1, 2)]
    )
    vee = from_relations(ABC, [("a", "b"), ("c", "b")])
    assert ehr_star(vee) == RationalPoly(
        [0, Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)]
    )
    for n in range(1, 5):
        for P in enumerate_preorders(_letters(n)):
            d = len(bubble_masks(P))
            assert ehr_star(P) == ehr(P).compose_linear(-1, -1) * Fraction(
                (-1) ** d
            )


def test_criterion_06_character_sum_equals_chi():
    for z in small_corpus() + big_corpus():
        if not all(v.is_finite for v in z.table):
            continue
        p = chi(z)
        for n in range(6):
            assert chi_character(z, n) == p.eval_at(n)


def test_criterion_07_matroid_counts():
    matroids = [
        uniform_matroid(1, 2),
        uniform_matroid(2, 3),
        graphic_matroid([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
    ]
    for M in matroids:
        p = chi(matroid_rank(M))
        for n in range(5):
            assert bjr_count(M, n) == p.eval_at(n)


def _check_bialgebra_identities(z):
    d2 = full_coproduct(z)
    assert d2.expand(0, full_coproduct) == d2.expand(1, full_coproduct)

    d = internal_delta(z)
    assert d.expand(0, internal_delta) == d.expand(1, internal_delta)

    # modular counit recovers the function from the face-cone sum
    acc = FormalSum.zero()
    for c, (zp, zP) in d:
        acc = acc + FormalSum.of((zp,), c * counit_eps(zP))
    assert acc == FormalSum.of((z,))

    # coproduct and coaction cointeract, split by split
    for s in z.ground.subsets():
        upper = FormalSum.zero()
        for c, (zp, zP) in d:
            if zP.table[s].is_finite:
                upper = upper + FormalSum.of(
                    (zp, restrict(zP, s), corestrict(zP, s)), c
                )
        lower = FormalSum.zero()
        if z.table[s].is_finite:
            u, v = restrict(z, s), corestrict(z, s)
            for c1, (u1, uP) in internal_delta(u):
                for c2, (v1, vP) in internal_delta(v):
                    lower = lower + FormalSum.of(
                        (product(u1, v1), uP, vP), c1 * c2
                    )
        assert upper == lower

    # the vertex-sum map respects the coaction and the coproduct
    assert phi(z).expand(0, internal_delta) == d.expand(0, phi)
    for s in z.ground.subsets():
        upper = FormalSum.zero()
        for c, (w,) in phi(z):
            if w.table[s].is_finite:
                upper = upper + FormalSum.of((restrict(w, s), corestrict(w, s)), c)
        lower = FormalSum.zero()
        if z.table[s].is_finite:
            for c1, (a,) in phi(restrict(z, s)):
                for c2, (b,) in phi(corestrict(z, s)):
                    lower = lower + FormalSum.of((a, b), c1 * c2)
        assert upper == lower


def _check_modular_identities(w):
    # both counit laws hold on modular functions
    accL = FormalSum.zero()
    accR = FormalSum.zero()
    for c, (zp, zP) in internal_delta(w):
        accL = accL + FormalSum.of((zp,), c * counit_eps(zP))
        accR = accR + FormalSum.of((zP,), c * counit_eps(zp))
    assert accL == FormalSum.of((w,))
    assert accR == FormalSum.of((w,))

    # the preorder map intertwines both coproducts
    P = psi(w)
    acc = FormalSum.zero()
    for c, (zq, zQ) in internal_delta(w):
        acc = acc + FormalSum.of((psi(zq), psi(zQ)), c)
    assert acc == preorder_delta(P)
    acc = FormalSum.zero()
    for c, (a, b) in full_coproduct(w):
        acc = acc + FormalSum.of((psi(a), psi(b)), c)
    assert acc == preorder_full_coproduct(P)


def test_criterion_08_bialgebra_identity_battery():
    for z in small_corpus() + big_corpus():
        _check_bialgebra_identities(z)
        w = cone_fn(z, chain(z.ground))
        if is_modular(w):
            _check_modular_identities(w)
    # the vertex-sum map respects products across disjoint grounds
    u = permutahedron([2, 1], labels=["x", "y"])
    pm = FormalSum.zero()
    for c1, (a,) in phi(u):
        for c2, (b,) in phi(HEXAGON):
            pm = pm + FormalSum.of((product(a, b),), c1 * c2)
    assert phi(product(u, HEXAGON)) == pm


def _all_building_sets(ground):
    singles = [1 << i for i in range(ground.n)]
    optional = [
        m for m in ground.subsets() if m and bin(m).count("1") >= 2
    ]
    out = []
    for pick in range(1 << len(optional)):
        members = list(singles)
        for i, m in enumerate(optional):
            if pick >> i & 1:
                members.append(m)
        mset = set(members)
        ok = True
        for j1 in members:
            for j2 in members:
                if j1 & j2 and (j1 | j2) not in mset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(BuildingSet(ground, members))
    return out


def test_criterion_09_forest_bijection():
    path = graph_building_set(ABC, [("a", "b"), ("b", "c")])
    forests = b_forests(path)
    assert len(forests) == 11
    for n in (1, 2, 3, 4):
        ground = _letters(n)
        for B in _all_building_sets(ground):
            fs = b_forests(B)
            faces = conforming_preorders(nestohedron(B))
            assert len(fs) == len(faces)
            assert {P.canonical_key() for P in fs} == {
                P.canonical_key() for P in faces
            }


def _height_at_most_two(P):
    n = P.ground.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (
                    P.strictly_below_idx(i, j)
                    and P.strictly_below_idx(j, k)
                ):
                    return False
    return True


def test_criterion_10_matroid_vertex_posets():
    matroids = [
        uniform_matroid(1, 2),
        uniform_matroid(2, 3),
        graphic_matroid([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
        uniform_matroid(2, 4),
    ]
    for M in matroids:
        z = matroid_rank(M)
        posets = set()
        for b in M.bases:
            P = basis_vertex_poset(M, b)
            assert _height_at_most_two(P)
            for L in linear_extensions(P):
                assert closure(z, L) == P
            posets.add(P)
        assert posets == {f.P for f in min_faces(z)}


def test_criterion_11_glue_uniqueness():
    for z in [HEXAGON, PENTAGON]:
        pres = enumerate_preorders(z.ground)
        for P in conforming_preorders(z):
            for s in downset_masks(P):
                if s in (0, z.ground.full):
                    continue
                t = z.ground.full & ~s
                P1 = restrict_preorder(P, s)
                P2 = restrict_preorder(P, t)
                assert glue(z, s, P1, P2) == P
                # exhaustive filter: P is the only conforming preorder
                # with this down-set and these two restrictions
                hits = [
                    Q
                    for Q in pres
                    if is_downset(Q, s)
                    and restrict_preorder(Q, s) == P1
                    and restrict_preorder(Q, t) == P2
                    and is_conforming(Q, z)
                ]
                assert hits == [P]


def _check_galois(P, pres):
    subs = [R for R in pres if is_subdivision(R, P)]
    cons = [Q for Q in pres if is_contraction(P, Q)]
    assert len(subs) == len(cons)
    assert sorted(q.up for q in (galois_f(P, R) for R in subs)) == sorted(
        q.up for q in cons
    )
    for R in subs:
        assert galois_g(P, galois_f(P, R)) == R
    for Q in cons:
        assert galois_f(P, galois_g(P, Q)) == Q
    return subs, cons


def test_criterion_12_subdivision_and_lattice_laws():
    # exhaustive on 3 points
    pres3 = enumerate_preorders(ABC)
    for P in pres3:
        for R in pres3:
            a = is_subdivision(R, P)
            assert a == is_subdivision_admissible(R, P)
            assert a == is_subdivision_convex(R, P)
        subs, cons = _check_galois(P, pres3)
        for R1 in subs:
            for R2 in subs:
                assert is_subdivision(meet(R1, R2), P)
        for Q1 in cons:
            for Q2 in cons:
                assert is_contraction(P, join(Q1, Q2))

    # seeded sample on 4 points
    rng = random.Random(0)
    pres4 = enumerate_preorders(_letters(4))
    assert len(pres4) == 355
    for P in rng.sample(pres4, 12):
        for R in rng.sample(pres4, 60):
            a = is_subdivision(R, P)
            assert a == is_subdivision_admissible(R, P)
            assert a == is_subdivision_convex(R, P)
        subs, cons = _check_galois(P, pres4)
        for _ in range(40):
            if subs:
                assert is_subdivision(meet(rng.choice(subs), rng.choice(subs)), P)
            if cons:
                assert is_contraction(P, join(rng.choice(cons), rng.choice(cons)))


def test_criterion_13_hexagon_vertex_and_cone():
    P = from_blocks(ABC, [0b010, 0b100, 0b001])  # b < c < a
    assert alin_point(HEXAGON, P) == {"a": 1, "b": 3, "c": 2}
    g = cone_fn(HEXAGON, P)
    finite = {m: g.table[m] for m in ABC.subsets() if g.table[m].is_finite}
    assert sorted(finite) == [0b000, 0b010, 0b110, 0b111]
    assert [finite[m].finite() for m in sorted(finite)] == [0, 3, 5, 6]
