from fractions import Fraction

import pytest

from egpkit import (
    GroundSet,
    SubmodFn,
    from_finite,
    from_relations,
    graph_building_set,
    graphic_matroid,
    matroid_rank,
    minkowski,
    nestohedron,
    permutahedron,
    preorder_cone,
    uniform_matroid,
)


@pytest.fixture
def abc():
    return GroundSet(["a", "b", "c"])


@pytest.fixture
def hexagon():
    # 2-dim standard permutahedron: 3/5/6 by cardinality
    return permutahedron([3, 2, 1])


@pytest.fixture
def pentagon(abc):
    return from_finite(
        abc,
        {
            ("a",): 3,
            ("b",): 3,
            ("c",): 3,
            ("a", "b"): 5,
            ("b", "c"): 5,
            ("a", "c"): 6,
            ("a", "b", "c"): 6,
        },
    )


def cardinality_fn(ground):
    """z(S) = |S|, the basic modular example."""
    return from_finite(
        ground,
        {m: Fraction(bin(m).count("1")) for m in ground.subsets() if m},
    )


FAMILIES = (
    "permutahedron", "minkowski", "nestohedron", "uniform",
    "simplex", "graphic", "cone", "minkowski_cone",
)


def _random_cone(ground, rng):
    order = list(ground.labels)
    rng.shuffle(order)
    pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1:] if rng.random() < 0.3]
    return preorder_cone(from_relations(ground, pairs))


def _random_minkowski(ground, rng):
    supports = {rng.randrange(1, 1 << ground.n) for _ in range(rng.randint(3, ground.n + 2))}
    return minkowski(ground, {m: rng.randint(1, 9) for m in sorted(supports)})


def family(name, n, rng):
    """A seeded member of one of the benchmark's families on n >= 2 points
    (the families of `bench/workloads.py`, unscaled and untranslated)."""
    ground = GroundSet([chr(97 + i) for i in range(n)])
    if name == "permutahedron":
        return permutahedron(sorted(rng.sample(range(1, 10 * n), n), reverse=True))
    if name == "minkowski":
        return _random_minkowski(ground, rng)
    if name == "nestohedron":
        labels = ground.labels
        edges = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < 0.5]
        return nestohedron(graph_building_set(ground, edges))
    if name == "uniform":
        return matroid_rank(uniform_matroid(rng.randint(1, n - 1), n))
    if name == "simplex":
        return matroid_rank(uniform_matroid(1, n))
    if name == "graphic":
        edges = [(rng.randrange(n - 1), rng.randrange(n - 1)) for _ in range(n)]
        return matroid_rank(graphic_matroid(range(n - 1), edges))
    if name == "cone":
        return _random_cone(ground, rng)
    if name == "minkowski_cone":
        cone, mink = _random_cone(ground, rng), _random_minkowski(ground, rng)
        return SubmodFn(ground, [a + b for a, b in zip(mink.table, cone.table)])
    raise ValueError(f"unknown family {name!r}")
