"""Seeded inputs, operations and output checks for the benchmark workloads.

A run makes several passes over one corpus of *slots*. Slot i has a fixed
kind (a family of functions, or the bubble count of a preorder), taken in
turn from the workload's `cycle`, and every pass builds a fresh input of
that kind in three parts:

- its shape (the graph of a nestohedron, the supports of a Minkowski sum,
  the poset of a cone, the rank of a uniform matroid, the preorders given
  to the Ehrhart counts and to `closure`, the coproduct split) from
  `random.Random(f"{workload}:shape:{i}")`, a stream that every pass and
  every seed shares;
- its values (levels, weights, scalings, a translation by a random modular
  function, and the directions given to `direction_to_face`) from
  `random.Random(f"{workload}:{seed}:{p}:{i}")` for pass p;
- its ground set from the pass: pass p names the elements a{p}, b{p}, ...

So the same seed gives the same inputs, two seeds give different ones, and
every pass of every run does the same work: the cost of these algorithms
follows the face lattice and the labelled preorders, which the shape fixes,
and egpkit indexes elements by position, so the names change no work. When
the seed drew the shapes, the median and tail latencies of `faces` moved by
12-16% between seeds; relabelling a preorder changes the cost of the
brute-force Ehrhart counts by up to 30%. No input repeats within a run, so
nothing that egpkit caches for one pass serves another. egpkit receives
only the generated inputs.

Every op returns its output; `Op.check` verifies it outside the timed
region and returns the canonical text that goes into the output digest.

Library calls go through module attributes at call time (`conform.
enumerate_faces(z)`, not a name imported here) so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import random
from fractions import Fraction
from itertools import permutations
from math import factorial
from pathlib import Path

import egpkit
from egpkit import cli, conform, generators, geometry, invariants, preorders, submod
from egpkit import io as eio


class CheckFailed(Exception):
    """An op returned an output that fails its check."""


class Op:
    __slots__ = ("kind", "input", "run", "check")

    def __init__(self, kind, input, run, check):
        self.kind = kind
        self.input = input  # canonical text of the op's input
        self.run = run  # () -> output, timed
        self.check = check  # output -> canonical text; raises CheckFailed


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


# -- input families ---------------------------------------------------------

def _ground(n):
    return egpkit.GroundSet(generators.default_labels(n))


def pass_ground(n, p):
    """The ground set of pass p: elements a{p}, b{p}, ..."""
    return egpkit.GroundSet([f"{x}{p}" for x in generators.default_labels(n)])


def _translate(z, ground, rng):
    """Add a random modular function and move z onto `ground`: the same
    polyhedron moved by a lattice vector, so that every generated function
    is distinct."""
    n = z.ground.n
    shift = [rng.randint(-9, 9) for _ in range(n)]
    table = [v + sum(shift[i] for i in range(n) if m >> i & 1) for m, v in enumerate(z.table)]
    return submod.SubmodFn(ground, table)


def _scaled(z, c):
    return submod.SubmodFn(z.ground, [egpkit.fin(v.q * c) for v in z.table])


def _random_poset(ground, rng):
    order = list(ground.labels)
    rng.shuffle(order)
    n = len(order)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    return preorders.from_relations(ground, pairs)


def _minkowski(ground, srng, vrng):
    """Positive weights on random supports; the supports alone fix the faces."""
    supports = {srng.randrange(1, 1 << ground.n) for _ in range(srng.randint(3, ground.n + 2))}
    return generators.minkowski(ground, {m: vrng.randint(1, 9) for m in sorted(supports)})


def _family(name, n, srng, vrng):
    """A member of the family: shape from srng, values from vrng."""
    ground = _ground(n)
    if name == "permutahedron":
        return generators.permutahedron(sorted(vrng.sample(range(1, 10 * n), n), reverse=True))
    if name == "minkowski":
        return _minkowski(ground, srng, vrng)
    if name == "nestohedron":
        labels = ground.labels
        edges = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if srng.random() < 0.5]
        return generators.nestohedron(generators.graph_building_set(ground, edges))
    if name == "uniform":
        rank = generators.matroid_rank(generators.uniform_matroid(srng.randint(1, n - 1), n))
        return _scaled(rank, vrng.randint(1, 9))
    if name == "simplex":
        return _scaled(generators.matroid_rank(generators.uniform_matroid(1, n)), vrng.randint(1, 9))
    if name == "graphic":
        vertices = range(n - 1)
        edges = [(srng.randrange(n - 1), srng.randrange(n - 1)) for _ in range(n)]
        return _scaled(generators.matroid_rank(generators.graphic_matroid(vertices, edges)), vrng.randint(1, 9))
    if name == "cone":
        return generators.preorder_cone(_random_poset(ground, srng))
    if name == "minkowski_cone":
        cone = generators.preorder_cone(_random_poset(ground, srng))
        mink = _minkowski(ground, srng, vrng)
        return submod.SubmodFn(ground, [a + b for a, b in zip(mink.table, cone.table)])
    raise ValueError(f"unknown family {name!r}")


def _key(z):
    return repr((z.ground.labels, [str(v) for v in z.table]))


def _is_finite(z):
    return all(v.is_finite for v in z.table)


def _random_total_preorder(ground, rng):
    idx = list(range(ground.n))
    rng.shuffle(idx)
    cuts = sorted(rng.sample(range(1, ground.n), rng.randint(0, ground.n - 1)))
    blocks = [sum(1 << i for i in idx[a:b]) for a, b in zip([0] + cuts, cuts + [ground.n])]
    return preorders.from_blocks(ground, blocks)


def _random_bubbled_preorder(ground, bubbles, rng):
    """A preorder with exactly `bubbles` classes: a random partition of the
    ground set, then random relations between classes along a random order."""
    idx = list(range(ground.n))
    rng.shuffle(idx)
    cuts = sorted(rng.sample(range(1, ground.n), bubbles - 1))
    parts = [idx[a:b] for a, b in zip([0] + cuts, cuts + [ground.n])]
    labels = ground.labels
    pairs = []
    for part in parts:
        pairs += [(labels[part[0]], labels[j]) for j in part] + [(labels[j], labels[part[0]]) for j in part]
    for a in range(bubbles):
        for b in range(a + 1, bubbles):
            if rng.random() < 0.4:
                pairs.append((labels[parts[a][0]], labels[parts[b][0]]))
    return preorders.from_relations(ground, pairs)


# -- shared checks ----------------------------------------------------------

def _stirling2(n, k):
    row = [1] + [0] * k
    for i in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def permutahedron_f_vector(n):
    """Faces of dimension d are ordered set partitions into n - d blocks."""
    return tuple(factorial(n - d) * _stirling2(n, n - d) for d in range(n))


def _check_dims(dims, z, family):
    """Euler relation for polytopes, and the permutahedron closed form."""
    if _is_finite(z):
        _require(sum((-1) ** d for d in dims) == 1, "Euler relation fails")
    if family == "permutahedron":
        counts = [0] * z.ground.n
        for d in dims:
            counts[d] += 1
        _require(tuple(counts) == permutahedron_f_vector(z.ground.n), "permutahedron f-vector")


def _greedy_vertex_count(z):
    """Distinct greedy points over all linear orders: the vertices of a
    finite submodular polytope, found without the face machinery."""
    points = set()
    for perm in permutations(range(z.ground.n)):
        L = preorders.from_blocks(z.ground, [1 << i for i in perm])
        x = geometry.alin_point(z, L)
        points.add(tuple(x[lab] for lab in z.ground.labels))
    return len(points)


def _chi_agrees(coeffs, z):
    """chi(z)(k) equals the character sum for k <= 3."""
    poly = invariants.RationalPoly(coeffs)
    for k in range(4):
        _require(poly.eval_at(k) == invariants.chi_character(z, k, extended=not _is_finite(z)),
                 f"chi disagrees with chi_character at k={k}")


def _reciprocal(strict, weak, d):
    """Ehrhart reciprocity: ehr*(k) = (-1)^d ehr(-k-1)."""
    _require(strict == weak.compose_linear(-1, -1) * Fraction((-1) ** d), "Ehrhart reciprocity fails")


# -- workloads --------------------------------------------------------------

class Workload:
    """Passes over `slots` slots, built lazily; pass 0 is built in set-up.
    Every pass has the same ops in the same order, on fresh inputs."""

    name = ""
    cycle = ()  # slot i has kind cycle[i % len(cycle)]
    slots_per_32s = 1  # slots for --seconds 32; see slots_for

    def __init__(self, seed, workdir, slots=None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.slots = slots or len(self.cycle)
        self._seen = set()
        self._passes = []

    @classmethod
    def slots_for(cls, seconds):
        """Slots in proportion to --seconds. At 32 s the default and -O
        processes of a run are busy for about that long together on a
        2-core AMD EPYC VM at the commit that added the benchmark."""
        return max(1, round(cls.slots_per_32s * seconds / 32))

    def distinct(self, family, ground, srng, vrng):
        """A fresh function of the family on `ground`, never equal to an
        earlier one."""
        shape = srng.getstate()
        while True:
            srng.setstate(shape)  # a repeat draws new values, not a new shape
            z = _translate(_family(family, ground.n, srng, vrng), ground, vrng)
            key = (ground.labels, tuple(v.q for v in z.table))
            if key not in self._seen:
                self._seen.add(key)
                return z

    def pass_ops(self, p):
        while len(self._passes) <= p:
            k = len(self._passes)
            ops = []
            for i in range(self.slots):
                srng = random.Random(f"{self.name}:shape:{i}")
                vrng = random.Random(f"{self.name}:{self.seed}:{k}:{i}")
                ops += self.build_slot(k, i, self.cycle[i % len(self.cycle)], srng, vrng)
            self._passes.append(ops)
        return self._passes[p]

    def build_slot(self, p, i, kind, srng, vrng):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError


class Faces(Workload):
    """enumerate_faces on n=5 functions, all distinct within a run."""

    name = "faces"
    cycle = (
        "permutahedron", "minkowski", "nestohedron", "cone", "minkowski_cone", "uniform", "cone",
        "minkowski_cone", "graphic", "cone", "minkowski_cone", "simplex", "cone", "minkowski_cone",
        "cone", "minkowski_cone",
    )
    slots_per_32s = 32

    def build_slot(self, p, i, family, srng, vrng):
        return [self._op(family, self.distinct(family, pass_ground(5, p), srng, vrng))]

    def _op(self, family, z):
        def check(lat):
            dims = [f.dim for f in lat.faces]
            _check_dims(dims, z, family)
            if _is_finite(z):
                _require(dims.count(0) == _greedy_vertex_count(z), "vertex count differs from greedy points")
            return repr((family, lat.f_vector(), [(f.dim, f.P.up) for f in lat.faces], lat.covers))

        return Op(f"faces:{family}", _key(z), lambda: conform.enumerate_faces(z), check)

    def warm_up(self):
        conform.enumerate_faces(generators.permutahedron([4, 3, 2, 1]))


class Invariants(Workload):
    """chi on distinct n=4 functions; ehr_star and ehr on 6-point preorders."""

    name = "invariants"
    cycle = ("permutahedron", "minkowski", "nestohedron", "uniform", "graphic", "cone", "minkowski_cone",
             "ehr:4", "ehr:5", "ehr:6")
    slots_per_32s = 80

    def build_slot(self, p, i, kind, srng, vrng):
        if kind.startswith("ehr:"):
            d = int(kind[4:])
            return self._ehr_ops(_random_bubbled_preorder(pass_ground(6, p), d, srng), d)
        return [self._chi_op(kind, self.distinct(kind, pass_ground(4, p), srng, vrng))]

    def _chi_op(self, family, z):
        def check(p):
            _chi_agrees(p.coeffs, z)
            return repr((family, p.coeffs))

        return Op(f"chi:{family}", _key(z), lambda: invariants.chi(z), check)

    def _ehr_ops(self, P, d):
        strict = []

        def check_strict(p):
            _require(p.degree == d, "ehr_star degree is not the bubble count")
            strict.append(p)
            return repr(("ehr_star", P.up, p.coeffs))

        def check_weak(p):
            _require(bool(strict), "no ehr_star result to compare")
            _reciprocal(strict[0], p, d)
            return repr(("ehr", P.up, p.coeffs))

        return [
            Op(f"ehr_star:{d}", repr((P.ground.labels, P.up)), lambda: invariants.ehr_star(P), check_strict),
            Op(f"ehr:{d}", repr((P.ground.labels, P.up)), lambda: invariants.ehr(P), check_weak),
        ]

    def warm_up(self):
        invariants.chi(generators.permutahedron([3, 2, 1]))


def run_cli(argv):
    """egpkit.cli.main in process, stdout captured: (exit code, stdout)."""
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_doc(out, kind):
    code, text = out
    _require(code == 0, f"CLI exit code {code}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        raise CheckFailed("CLI stdout is not JSON") from None
    _require(isinstance(doc, dict) and doc.get("kind") == kind, f"CLI output is not a {kind} document")
    return doc


def _relations_key(pdoc):
    return tuple(tuple(r) for r in pdoc["relations"])


class _Session:
    """What the checks of one function's queries learn from earlier ones."""

    def __init__(self, z):
        self.z = z
        self.faces = {}  # relations key -> dim
        self.min_faces = None
        self.strict = None


class Session(Workload):
    """A few n=5 functions, each queried through egpkit.cli.main as JSON
    documents, with direction_to_face calls between the queries."""

    name = "session"
    cycle = ("permutahedron", "minkowski", "uniform", "nestohedron", "graphic")
    slots_per_32s = 3
    directions_per_query = 3

    def build_slot(self, p, i, family, srng, vrng):
        z = self.distinct(family, pass_ground(5, p), srng, vrng)
        return self._function_ops(f"p{p}s{i}", family, z, srng, vrng)

    def _write(self, stem, doc):
        path = self.workdir / f"{stem}.json"
        path.write_text(eio.dump_document(doc))
        return str(path)

    def _function_ops(self, stem, family, z, srng, vrng):
        st = _Session(z)
        zpath = self._write(f"{stem}_z", eio.submodfn_to_doc(z))
        L = _random_total_preorder(z.ground, srng)
        lpath = self._write(f"{stem}_L", eio.preorder_to_doc(L))
        fpath = str(self.workdir / f"{stem}_F.json")
        split = ",".join(sorted(srng.sample(z.ground.labels, srng.randint(1, z.ground.n - 1))))
        inputs = (_key(z), L.up, split)

        def cli_op(argv, kind, check):
            def run():
                return run_cli(argv)

            def checked(out):
                check(_cli_doc(out, kind))
                return out[1]

            flags = [a for a in argv if not a.endswith(".json")]
            return Op(f"cli:{argv[0]}", repr((flags, inputs)), run, checked)

        def on_check(doc):
            _require(doc["submodular"] is True, "generated function reported not submodular")

        def on_faces(doc):
            st.faces = {_relations_key(f["preorder"]): f["dim"] for f in doc["faces"]}
            _require(len(st.faces) == len(doc["faces"]), "repeated face")
            _check_dims([f["dim"] for f in doc["faces"]], z, family)

        def on_min_faces(doc):
            st.min_faces = len(doc["faces"])
            _require(all(_relations_key(f["preorder"]) in st.faces for f in doc["faces"]),
                     "a minimal face is not a face")

        def on_chi(doc):
            _chi_agrees([Fraction(c) for c in doc["coeffs"]], z)

        def on_phi(doc):
            _require(len(doc["terms"]) == st.min_faces, "phi has one term per minimal face")

        def on_delta(doc):
            _require(len(doc["terms"]) == len(st.faces), "delta has one term per face")

        def on_coproduct(doc):
            _require(len(doc["terms"]) == 1, "a finite split gives one term")

        def on_closure(doc):
            _require(_relations_key(doc) in st.faces, "closure is not a face")
            Path(fpath).write_text(json.dumps(doc))

        def on_ehr_star(doc):
            st.strict = invariants.RationalPoly([Fraction(c) for c in doc["coeffs"]])

        def on_ehr(doc):
            d = z.ground.n - st.faces[_relations_key(json.loads(Path(fpath).read_text()))]
            _reciprocal(st.strict, invariants.RationalPoly([Fraction(c) for c in doc["coeffs"]]), d)

        queries = [
            cli_op(["check", zpath], "report", on_check),
            cli_op(["faces", zpath], "facelattice", on_faces),
            cli_op(["min-faces", zpath], "facelattice", on_min_faces),
            cli_op(["chi", zpath], "polynomial", on_chi),
            cli_op(["phi", zpath], "formalsum", on_phi),
            cli_op(["delta", zpath], "formalsum", on_delta),
            cli_op(["coproduct", "--split", split, zpath], "formalsum", on_coproduct),
            cli_op(["closure", zpath, lpath], "preorder", on_closure),
            cli_op(["ehrhart", fpath], "polynomial", on_ehr_star),
            cli_op(["ehrhart", "--weak", fpath], "polynomial", on_ehr),
        ]
        # direction_to_face calls sit between the queries once the face
        # lattice is known, so their results can be checked against it.
        # They are most of the ops, so the median op is one of them rather
        # than the boundary between them and the cheapest queries.
        ops = queries[:2]
        for q in queries[2:]:
            for _ in range(self.directions_per_query):
                ops.append(self._direction_op(st, {lab: vrng.randint(-9, 9) for lab in z.ground.labels}))
            ops.append(q)
        return ops

    def _direction_op(self, st, y):
        def check(face):
            key = _relations_key(eio.preorder_to_doc(face.P))
            _require(st.faces.get(key) == face.dim, "direction_to_face returned no face of the lattice")
            level = geometry.level_preorder(st.z.ground, y)
            _require(preorders.preorder_leq(face.P, level), "face does not refine the direction's levels")
            return repr((face.dim, face.P.up))

        return Op("direction_to_face", repr((_key(st.z), sorted(y.items()))),
                  lambda: geometry.direction_to_face(st.z, y), check)

    def warm_up(self):
        z = generators.permutahedron([4, 3, 2, 1])
        path = self._write("warmup_z", eio.submodfn_to_doc(z))
        _cli_doc(run_cli(["faces", path]), "facelattice")


WORKLOADS = {cls.name: cls for cls in (Faces, Invariants, Session)}
