import pytest

from egpkit import (
    BuildingSet,
    CapExceeded,
    GroundSet,
    Matroid,
    ValidationError,
    b_forests,
    basis_vertex_poset,
    chain,
    conforming_preorders,
    discrete,
    from_relations,
    graph_building_set,
    graphic_matroid,
    is_submodular,
    low_of,
    matroid_rank,
    min_faces,
    minkowski,
    nestohedron,
    permutahedron,
    preorder_cone,
    uniform_matroid,
    zfn_equal,
)
from egpkit.generators import fundamental_circuit, is_b_forest, is_forest


def test_permutahedron_values(hexagon):
    assert hexagon.value_of(["a"]).finite() == 3
    assert hexagon.value_of(["a", "c"]).finite() == 5
    assert hexagon.value_of(["a", "b", "c"]).finite() == 6
    with pytest.raises(ValidationError):
        permutahedron([2, 2, 1])
    with pytest.raises(ValidationError):
        permutahedron([1, 2, 3])


def test_minkowski_matches_nestohedron(abc):
    B = graph_building_set(abc, [("a", "b"), ("b", "c")])
    z = minkowski(abc, {m: 1 for m in B.members})
    assert zfn_equal(z, nestohedron(B))


def test_minkowski_validation(abc):
    with pytest.raises(ValidationError):
        minkowski(abc, {(): 1})
    with pytest.raises(ValidationError):
        minkowski(abc, {("a",): -1})


def test_matroid_validation():
    g = GroundSet(["a", "b", "c", "d"])
    with pytest.raises(ValidationError):
        Matroid(g, [g.mask_of("ab"), g.mask_of("abc")])  # unequal sizes
    with pytest.raises(ValidationError):
        Matroid(g, [g.mask_of("ab"), g.mask_of("cd")])  # exchange fails
    with pytest.raises(ValidationError):
        Matroid(g, [])


def test_uniform_matroid():
    M = uniform_matroid(2, 4)
    assert len(M.bases) == 6
    assert M.rank == 2
    assert M.is_independent(M.ground.mask_of("a"))
    assert not M.is_independent(M.ground.mask_of("abc"))
    assert M.loops() == 0


def test_graphic_matroid_triangle():
    M = graphic_matroid([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert M.rank == 2
    assert len(M.bases) == 3  # spanning trees of the triangle


def test_matroid_with_loop():
    g = GroundSet(["a", "b"])
    M = Matroid(g, [g.mask_of("a")])
    assert M.loops() == g.mask_of("b")
    assert not M.is_independent(g.mask_of("b"))


def test_matroid_rank_function():
    M = uniform_matroid(2, 3)
    z = matroid_rank(M)
    assert is_submodular(z)
    assert z.value_of(["a"]).finite() == 1
    assert z.value_of(["a", "b"]).finite() == 2
    assert z.value_of(["a", "b", "c"]).finite() == 2


def test_fundamental_circuit():
    M = uniform_matroid(2, 3)
    g = M.ground
    basis = g.mask_of("ab")
    assert fundamental_circuit(M, basis, g.index["c"]) == g.full
    M2 = graphic_matroid([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert fundamental_circuit(M2, basis, g.index["c"]) == g.full


def test_basis_vertex_poset(abc):
    M = uniform_matroid(2, 3)
    P = basis_vertex_poset(M, abc.mask_of("ab"))
    assert P == from_relations(abc, [("a", "c"), ("b", "c")])
    with pytest.raises(ValidationError):
        basis_vertex_poset(M, abc.mask_of("abc"))


def test_vertex_posets_are_min_faces():
    M = uniform_matroid(2, 3)
    z = matroid_rank(M)
    posets = {basis_vertex_poset(M, b) for b in M.bases}
    assert posets == {f.P for f in min_faces(z)}


def test_building_set_validation(abc):
    with pytest.raises(ValidationError):
        BuildingSet(abc, [0b001, 0b010, 0b100, 0b011, 0b110])  # ab|bc needs abc
    with pytest.raises(ValidationError):
        BuildingSet(abc, [0b001, 0b010, 0b111])  # missing singleton c


def test_graph_building_set_path(abc):
    B = graph_building_set(abc, [("a", "b"), ("b", "c")])
    assert B.members == (0b001, 0b010, 0b011, 0b100, 0b110, 0b111)
    assert B.component_masks() == [abc.full]


def test_nestohedron_values(abc):
    B = graph_building_set(abc, [("a", "b"), ("b", "c")])
    z = nestohedron(B)
    assert z.value_of(["a"]).finite() == 3
    assert z.value_of(["b"]).finite() == 4
    assert z.value_of(["a", "c"]).finite() == 5
    assert z.value_of(["a", "b", "c"]).finite() == 6
    assert is_submodular(z)


def test_is_forest(abc):
    assert is_forest(chain(abc))
    assert is_forest(discrete(abc))
    assert not is_forest(from_relations(abc, [("a", "b"), ("c", "b")]))


def test_b_forests_path(abc):
    B = graph_building_set(abc, [("a", "b"), ("b", "c")])
    forests = b_forests(B)
    assert len(forests) == 11
    for P in forests:
        assert is_b_forest(P, B)
    # matches the face preorders of the nestohedron
    faces = conforming_preorders(nestohedron(B))
    assert {P.canonical_key() for P in forests} == {
        P.canonical_key() for P in faces
    }


def test_b_forests_discrete():
    g = GroundSet(["a", "b"])
    B = BuildingSet(g, [0b01, 0b10])
    forests = b_forests(B)
    assert forests == [discrete(g)]


def test_b_forests_max_n_cannot_lift_the_cap(abc):
    g = GroundSet([chr(97 + i) for i in range(7)])
    B = BuildingSet(g, [1 << i for i in range(7)])
    with pytest.raises(CapExceeded):
        b_forests(B, max_n=7)
    path = graph_building_set(abc, [("a", "b"), ("b", "c")])
    with pytest.raises(CapExceeded):
        b_forests(path, max_n=2)
    assert len(b_forests(path, max_n=3)) == 11


def test_preorder_cone_is_low(abc):
    P = chain(abc)
    assert preorder_cone(P) == low_of(P)
