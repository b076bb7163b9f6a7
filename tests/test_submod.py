import pytest

from egpkit import (
    GroundSet,
    ValidationError,
    chain,
    corestrict,
    decompose,
    discrete,
    from_finite,
    from_relations,
    is_modular,
    is_submodular,
    low_of,
    minor,
    permutahedron,
    product,
    restrict,
    zfn_equal,
)
from egpkit.ground import submasks
from egpkit.submod import decompose_factors, product_all, splits_along, unit_fn
from conftest import cardinality_fn
from test_acceptance import big_corpus, small_corpus


def test_hexagon_is_submodular(hexagon):
    assert is_submodular(hexagon)
    assert not is_modular(hexagon)  # 3 + 3 != 0 + 5


def test_submodularity_violation(abc):
    g = GroundSet(["a", "b"])
    z = from_finite(g, {("a",): 1, ("b",): 1, ("a", "b"): 3})
    assert not is_submodular(z)


def test_low_is_submodular(abc):
    for P in [chain(abc), discrete(abc), from_relations(abc, [("a", "b")])]:
        assert is_submodular(low_of(P))


def test_cardinality_is_modular(abc):
    assert is_modular(cardinality_fn(abc))


def test_malformed_tables(abc):
    with pytest.raises(ValidationError):
        from_finite(abc, {(): 1})
    with pytest.raises(ValidationError):
        # full set must be finite
        from_finite(abc, {("a",): 1})


def test_restrict_hexagon(hexagon):
    z = restrict(hexagon, hexagon.ground.mask_of(["a", "b"]))
    assert z.value_of(["a"]).finite() == 3
    assert z.value_of(["b"]).finite() == 3
    assert z.value_of(["a", "b"]).finite() == 5


def test_restrict_full_is_identity(hexagon):
    assert restrict(hexagon, hexagon.ground.full) == hexagon


def test_restrict_low_chain(abc):
    z = low_of(chain(abc))  # a<b<c
    r = restrict(z, abc.mask_of(["a", "b"]))
    # induced order a<b
    sub = GroundSet(["a", "b"])
    assert zfn_equal(r, low_of(from_relations(sub, [("a", "b")])))


def test_corestrict_hexagon(hexagon):
    z = corestrict(hexagon, hexagon.ground.mask_of(["a"]))
    assert z.value_of(["b"]).finite() == 2
    assert z.value_of(["c"]).finite() == 2
    assert z.value_of(["b", "c"]).finite() == 3


def test_corestrict_empty_is_identity(hexagon):
    assert corestrict(hexagon, 0) == hexagon


def test_corestrict_needs_finite_base(abc):
    z = low_of(chain(abc))
    with pytest.raises(ValidationError):
        corestrict(z, abc.mask_of(["b"]))  # z({b}) infinite


def test_corestrict_low_two_chain():
    g = GroundSet(["a", "b"])
    z = low_of(from_relations(g, [("a", "b")]))
    r = corestrict(z, g.mask_of(["a"]))
    assert r.value_of(["b"]).finite() == 0


def test_product_singletons():
    u = from_finite(GroundSet(["a"]), {("a",): 1})
    v = from_finite(GroundSet(["b"]), {("b",): 1})
    z = product(u, v)
    assert z.value_of(["a", "b"]).finite() == 2
    assert is_modular(z)


def test_product_rejects_overlap():
    u = from_finite(GroundSet(["a"]), {("a",): 0})
    with pytest.raises(ValidationError):
        product(u, u)


def test_product_commutes_up_to_relabeling():
    u = from_finite(GroundSet(["a"]), {("a",): 1})
    v = from_finite(GroundSet(["b"]), {("b",): 2})
    assert zfn_equal(product(u, v), product(v, u))


def test_zfn_equal_distinguishes(hexagon, pentagon):
    assert zfn_equal(hexagon, hexagon)
    assert not zfn_equal(hexagon, pentagon)


def test_decompose_cardinality(abc):
    assert decompose(cardinality_fn(abc)) == [1, 2, 4]


def test_decompose_hexagon_is_one_block(hexagon):
    assert decompose(hexagon) == [7]


def test_decompose_disjoint_low(abc):
    P = from_relations(abc, [("a", "b")])  # (a<b) and isolated c
    assert decompose(low_of(P)) == [abc.mask_of(["a", "b"]), abc.mask_of(["c"])]


def test_decompose_reconstructs(hexagon, pentagon, abc):
    for z in [hexagon, pentagon, cardinality_fn(abc), low_of(chain(abc))]:
        assert zfn_equal(product_all(decompose_factors(z)), z)


def test_decompose_factors_are_indecomposable(hexagon, abc):
    for z in [hexagon, cardinality_fn(abc)]:
        for f in decompose_factors(z):
            assert decompose(f) == [f.ground.full]


def test_split_criterion_matches_definition(abc, hexagon, pentagon):
    # the one-equation split test must agree with full additivity
    for z in [hexagon, pentagon, cardinality_fn(abc), low_of(chain(abc))]:
        full = z.ground.full
        for c1 in submasks(full):
            c2 = full & ~c1
            if c1 == 0 or c2 == 0:
                continue
            one_eq = (
                z.table[c1].is_finite
                and z.table[c2].is_finite
                and z.table[full] == z.table[c1] + z.table[c2]
            )
            assert one_eq == splits_along(z, c1, c2)


def test_restrict_corestrict_composition(hexagon):
    from egpkit.ground import expand_mask, project_mask, reindex_map
    from egpkit.submod import SubmodFn

    g = hexagon.ground
    for t in g.subsets():
        gt = g.restricted(t)
        for s in submasks(t):
            s_local = project_mask(s, reindex_map(g, gt))
            via = corestrict(restrict(hexagon, t), s_local)
            sub = g.restricted(t & ~s)
            pos = reindex_map(g, sub)
            direct = SubmodFn(
                sub,
                [
                    hexagon.table[s | expand_mask(m, pos)] - hexagon.table[s]
                    for m in range(1 << sub.n)
                ],
            )
            assert via == direct


def test_minor_matches_its_definition():
    # w(U) = z(a | U) - z(a), read through labels; a needs a finite value,
    # and b one too, since a function is finite on its whole ground set
    checked = 0
    for z in small_corpus() + big_corpus():
        g = z.ground
        for b in g.subsets():
            for a in submasks(b):
                if not (z.table[a].is_finite and z.table[b].is_finite):
                    with pytest.raises(ValidationError):
                        minor(z, a, b)
                    continue
                w = minor(z, a, b)
                assert w.ground.labels == tuple(g.members(b & ~a))
                for u in w.ground.subsets():
                    want = z.value_of(g.members(a) + w.ground.members(u)) - z.table[a]
                    assert w.table[u] == want
                checked += 1
    assert checked > 400


def test_operations_preserve_submodularity(hexagon, pentagon, abc):
    for z in [hexagon, pentagon, low_of(chain(abc))]:
        for s in z.ground.subsets():
            if z.table[s].is_finite:
                assert is_submodular(restrict(z, s))
                assert is_submodular(corestrict(z, s))
    u = permutahedron([2, 1], labels=["x", "y"])
    assert is_submodular(product(u, hexagon))


def test_unit_function():
    e = unit_fn()
    assert e.ground.n == 0
    assert is_modular(e)
    assert decompose(e) == []
