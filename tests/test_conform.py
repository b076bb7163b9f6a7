import random

import pytest

from egpkit import (
    INF,
    SubmodFn,
    ValidationError,
    chain,
    closure,
    coarse,
    cone_fn,
    conforming_preorders,
    contractions,
    cpre_of,
    discrete,
    enumerate_faces,
    enumerate_preorders,
    face_fn,
    fin,
    from_relations,
    glue,
    graph_building_set,
    graphic_matroid,
    is_compatible,
    is_conforming,
    low_of,
    matroid_rank,
    min_faces,
    minkowski,
    nestohedron,
    permutahedron,
    pre_of,
    preorder_leq,
    uniform_matroid,
    z_of_convex,
)
from egpkit.preorders import (
    DownSetFamily,
    GroundSet,
    component_masks,
    bubble_masks,
    downset_masks,
    enumerate_total_preorders,
    from_blocks,
)
from egpkit import conform
from conftest import FAMILIES, family
from test_acceptance import big_corpus, small_corpus
from test_preorders import preorder_by_scan


def vpo(abc):
    return from_relations(abc, [("a", "b"), ("c", "b")])


def test_pre_of_inverts_low(abc):
    for P in enumerate_preorders(abc):
        assert pre_of(low_of(P)) == P


def _pre_of_by_family(z):
    """The family route to pre_of, its oracle: validate the finite sets as
    a topology pairwise, then read the preorder off them by the scan."""
    finite = [m for m in z.ground.subsets() if z.table[m].is_finite]
    return preorder_by_scan(DownSetFamily(z.ground, finite))


def _outcome(route, z):
    try:
        return route(z)
    except ValidationError as e:
        return str(e)


def test_pre_of_matches_family_route():
    zs = []
    for n in range(5):
        zs += [low_of(P) for P in enumerate_preorders(GroundSet([chr(97 + i) for i in range(n)]))]
    rng = random.Random(12)
    for _ in range(600):
        n = rng.randint(1, 4)
        inner = [INF if rng.random() < 0.5 else fin(rng.randint(-3, 3)) for _ in range((1 << n) - 2)]
        zs.append(SubmodFn(GroundSet([chr(97 + i) for i in range(n)]), [fin(0)] + inner + [fin(1)]))
    raised = 0
    for z in zs:
        got = _outcome(pre_of, z)
        assert got == _outcome(_pre_of_by_family, z), z
        raised += isinstance(got, str)
    assert 100 < raised < len(zs) - 400


def test_pre_of_finite_function_is_discrete(hexagon):
    assert pre_of(hexagon) == discrete(hexagon.ground)


def test_low_values(abc):
    z = low_of(chain(abc))
    assert z.value_of(["a", "b"]) == fin(0)
    assert z.value_of(["b"]) == INF


def test_cpre_blocks_are_components(abc, hexagon):
    assert bubble_masks(cpre_of(hexagon)) == [abc.full]
    for P in enumerate_preorders(abc):
        assert bubble_masks(cpre_of(low_of(P))) == component_masks(P)


def test_compatibility_vee(abc, hexagon, pentagon):
    # {a,c} is convex and disconnected in the V-poset, so the split
    # z(ac) = z(a) + z(c) decides compatibility
    P = vpo(abc)
    assert not is_compatible(P, hexagon)  # 5 != 3 + 3
    assert is_compatible(P, pentagon)  # 6 == 3 + 3
    assert is_conforming(P, pentagon)
    assert not is_conforming(P, hexagon)


def test_compatibility_needs_finite_downsets(abc, hexagon):
    z = low_of(chain(abc))
    assert is_compatible(chain(abc), z)
    assert not is_compatible(discrete(abc), z)  # {b} infinite


def test_coarse_always_conforms_to_connected(hexagon, pentagon):
    for z in [hexagon, pentagon]:
        assert is_conforming(coarse(z.ground), z)


def test_z_of_convex_middle_of_chain(abc, hexagon):
    zc = z_of_convex(hexagon, chain(abc), abc.mask_of(["b"]))
    assert zc.value_of(["b"]) == fin(2)  # z(ab) - z(a)


def test_z_of_convex_rejects_nonconvex(abc, hexagon):
    with pytest.raises(ValidationError):
        z_of_convex(hexagon, chain(abc), abc.mask_of(["a", "c"]))


def test_face_fn_at_vertex(abc, hexagon):
    # vertex of the total order b < c < a has coordinates (1, 3, 2)
    P = from_blocks(abc, [0b010, 0b100, 0b001])
    f = face_fn(hexagon, P)
    assert f.value_of(["a"]) == fin(1)
    assert f.value_of(["b"]) == fin(3)
    assert f.value_of(["c"]) == fin(2)
    assert f.value_of(["a", "b", "c"]) == fin(6)


def test_cone_fn_support(abc, hexagon):
    P = from_blocks(abc, [0b010, 0b100, 0b001])  # b < c < a
    g = cone_fn(hexagon, P)
    assert g.table[0b000] == fin(0)
    assert g.value_of(["b"]) == fin(3)
    assert g.value_of(["b", "c"]) == fin(5)
    assert g.value_of(["a", "b", "c"]) == fin(6)
    for m in abc.subsets():
        if m not in (0b000, 0b010, 0b110, 0b111):
            assert g.table[m] == INF


def test_cone_fn_needs_finite_downsets(abc):
    z = low_of(chain(abc))
    with pytest.raises(ValidationError):
        cone_fn(z, discrete(abc))


def test_closure_refines_and_conforms(abc, hexagon, pentagon):
    for z in [hexagon, pentagon]:
        for L in enumerate_total_preorders(abc):
            if not all(z.table[m].is_finite for m in downset_masks(L)):
                continue
            P = closure(z, L)
            assert preorder_leq(P, L)
            assert is_conforming(P, z)
            assert closure(z, P) == P  # idempotent


def test_closure_merges_coinciding_vertices(abc, pentagon):
    # the two total orders through the degenerate corner give one vertex
    P1 = closure(pentagon, from_blocks(abc, [0b001, 0b100, 0b010]))  # a<c<b
    P2 = closure(pentagon, from_blocks(abc, [0b100, 0b001, 0b010]))  # c<a<b
    assert P1 == P2 == vpo(abc)


def test_closure_fixes_conforming_total_order(abc, hexagon):
    L = chain(abc)
    assert closure(hexagon, L) == L


def conforming_by_scan(z):
    """The closures of all total preorders with finite down-sets,
    deduplicated and sorted: the n!-scan that `conforming_preorders`
    narrows to one total preorder per face, its oracle. Also returns the
    map from each of those total preorders to its closure."""
    closed = {
        L: closure(z, L)
        for L in enumerate_total_preorders(z.ground)
        if all(z.table[m].is_finite for m in downset_masks(L))
    }
    distinct = {P.up: P for P in closed.values()}
    return sorted(distinct.values(), key=lambda p: p.up), closed


def containment_by_scan(lat):
    """All pairs (i, j) with face i inside face j, and the Hasse diagram
    of that order: the O(F^2) scan and O(F^3) cover search behind
    `enumerate_faces`'s covers, their oracle."""
    order = []
    for i, fi in enumerate(lat.faces):
        for j, fj in enumerate(lat.faces):
            if i != j and preorder_leq(fi.P, fj.P):
                order.append((i, j))  # face i contained in face j
    oset = set(order)
    covers = []
    for i, j in order:
        if not any((i, k) in oset and (k, j) in oset for k in range(len(lat.faces))):
            covers.append((i, j))
    return order, covers


def _cones(n):
    return [low_of(P) for P in enumerate_preorders(GroundSet([chr(97 + i) for i in range(n)]))]


def test_conforming_preorders_match_scan(monkeypatch):
    rng = random.Random(23)
    zs = small_corpus() + big_corpus() + _cones(1) + _cones(2) + _cones(3)
    zs += [z for z in _cones(4) if rng.random() < 1 / 3]
    zs += [family(name, 4, rng) for name in FAMILIES for _ in range(2)]
    zs += [family(name, 5, rng) for name in ("cone", "minkowski_cone", "uniform")]
    for z in zs:
        want, closed = conforming_by_scan(z)
        calls = []
        # closure is deterministic: look up the scan's result for each call
        # (a total preorder with an infinite down-set raises KeyError)
        monkeypatch.setattr(conform, "closure", lambda _z, L: calls.append(L) or closed[L])
        monkeypatch.setattr(conform, "_CONFORM_CACHE", {})
        assert conforming_preorders(z) == want, z
        assert len(calls) == len(want), z  # one closure per face


def test_hexagon_face_lattice(abc, hexagon):
    lat = enumerate_faces(hexagon)
    assert len(lat.faces) == 13
    assert lat.f_vector() == (6, 6, 1)
    # matches the brute-force filter over all preorders
    filt = {P for P in enumerate_preorders(abc) if is_conforming(P, hexagon)}
    assert lat.preorder_set() == filt
    # every vertex lies on exactly two edges and in the whole polytope
    by_dim = {}
    for i, f in enumerate(lat.faces):
        by_dim.setdefault(f.dim, []).append(i)
    oset = set(containment_by_scan(lat)[0])
    for i in by_dim[0]:
        ups = [j for j in by_dim[1] if (i, j) in oset]
        assert len(ups) == 2
        assert (i, by_dim[2][0]) in oset
    # the top face carries the indecomposability preorder
    top = lat.faces[by_dim[2][0]]
    assert top.P == cpre_of(hexagon)


def test_pentagon_face_lattice(abc, pentagon):
    lat = enumerate_faces(pentagon)
    assert len(lat.faces) == 11
    assert lat.f_vector() == (5, 5, 1)
    filt = {P for P in enumerate_preorders(abc) if is_conforming(P, pentagon)}
    assert lat.preorder_set() == filt


def test_covers_are_covers(hexagon, pentagon):
    rng = random.Random(29)
    zs = [hexagon, pentagon] + _cones(1) + _cones(2) + _cones(3)
    zs += [family(name, 4, rng) for name in FAMILIES]
    for z in zs:
        lat = enumerate_faces(z)
        assert list(lat.covers) == containment_by_scan(lat)[1], z
        for i, j in lat.covers:
            assert lat.faces[j].dim == lat.faces[i].dim + 1


def test_min_faces_of_hexagon(hexagon):
    faces = min_faces(hexagon)
    assert len(faces) == 6
    for f in faces:
        assert f.dim == 0
        assert f.P.is_total()


def _refinement_minimal(z):
    """Conforming preorders with no other conforming preorder refining them:
    the definition of the smallest faces, the oracle for min_faces."""
    pres = conforming_preorders(z)
    return [P for P in pres if not any(Q != P and preorder_leq(Q, P) for Q in pres)]


def test_min_faces_are_refinement_minimal(abc, hexagon, pentagon):
    g4 = GroundSet(["a", "b", "c", "d"])
    corpus = [
        hexagon,
        pentagon,
        permutahedron([4, 3, 2, 1]),
        matroid_rank(uniform_matroid(2, 4)),
        matroid_rank(graphic_matroid([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])),
        nestohedron(graph_building_set(g4, [("a", "b"), ("b", "c"), ("c", "d")])),
    ]
    corpus += [low_of(P) for P in enumerate_preorders(abc)]
    rng = random.Random(5)
    for ground in (abc, g4) * 4:
        supports = {rng.randrange(1, ground.full + 1) for _ in range(rng.randint(3, ground.n + 2))}
        mink = minkowski(ground, {m: rng.randint(1, 9) for m in sorted(supports)})
        pairs = [
            (a, b) for a in ground.labels for b in ground.labels if a != b and rng.random() < 0.3
        ]
        cone = low_of(from_relations(ground, pairs))
        corpus += [mink, cone, SubmodFn(ground, [a + b for a, b in zip(mink.table, cone.table)])]
    for z in corpus:
        assert [f.P for f in min_faces(z)] == _refinement_minimal(z)


def test_min_faces_of_low(abc):
    # a cone has a single smallest face, its apex preorder
    for P in enumerate_preorders(abc):
        faces = min_faces(low_of(P))
        assert len(faces) == 1
        assert faces[0].P == P


def test_faces_of_cone_are_contractions(abc):
    for P in enumerate_preorders(abc):
        pres = conforming_preorders(low_of(P))
        assert sorted(q.up for q in pres) == sorted(
            q.up for q in contractions(P)
        )


def test_glue_chain_from_parts(abc, hexagon):
    P1 = discrete(GroundSet(["a"]))
    P2 = from_relations(GroundSet(["b", "c"]), [("b", "c")])
    R = glue(hexagon, abc.mask_of(["a"]), P1, P2)
    assert R == chain(abc)


def test_glue_rejects_incompatible_split(abc, hexagon):
    P1 = discrete(GroundSet(["a", "c"]))
    P2 = discrete(GroundSet(["b"]))
    with pytest.raises(ValidationError):
        glue(hexagon, abc.mask_of(["a", "c"]), P1, P2)


def test_glue_rejects_wrong_grounds(abc, hexagon):
    P1 = discrete(GroundSet(["a", "b"]))
    P2 = discrete(GroundSet(["c"]))
    with pytest.raises(ValidationError):
        glue(hexagon, abc.mask_of(["a"]), P1, P2)


def test_glue_recovers_conforming_preorders(abc, pentagon):
    # every conforming preorder is glued back from any of its down-set splits
    from egpkit.preorders import restrict_preorder

    for P in conforming_preorders(pentagon):
        for s in downset_masks(P):
            if s in (0, abc.full):
                continue
            P1 = restrict_preorder(P, s)
            P2 = restrict_preorder(P, abc.full & ~s)
            assert glue(pentagon, s, P1, P2) == P
