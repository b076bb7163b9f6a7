"""Command-line front end.

Reads one JSON document per input (path or "-" for standard input),
writes deterministic output to standard output. Exit codes: 0 success,
1 validation failure, 2 size cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import io
from .conform import (
    closure,
    conforming_preorders,
    enumerate_faces,
    glue,
    is_compatible,
    min_faces,
    pre_of,
)
from .errors import CapExceeded, UnboundedDirection, ValidationError
from .generators import (
    BuildingSet,
    b_forests,
    default_labels,
    graph_building_set,
    matroid_rank,
    nestohedron,
    permutahedron,
    preorder_cone,
    uniform_matroid,
)
from .ground import GroundSet
from .hopf import coproduct_delta, internal_delta, phi
from .invariants import chi, ehr, ehr_star
from .preorders import Preorder, chain, discrete, enumerate_preorders
from .submod import SubmodFn, decompose, is_modular, is_submodular
from .values import parse_count, parse_fraction


def _read_doc(path, want=None):
    text = sys.stdin.read() if path == "-" else open(path).read()
    obj = io.parse_document(text)
    if want is not None and not isinstance(obj, want):
        raise ValidationError(f"expected a {want.__name__} document")
    return obj


def _read_submodular(path):
    """A function document for a command whose result assumes submodularity."""
    z = _read_doc(path, SubmodFn)
    if not is_submodular(z):
        raise ValidationError("function is not submodular")
    return z


def _emit(args, json_doc, text_lines):
    if args.format == "json":
        print(io.dump_document(json_doc))
    else:
        for line in text_lines:
            print(line)


def cmd_check(args):
    z = _read_doc(args.input, SubmodFn)
    sub = is_submodular(z)
    mod = is_modular(z) if sub else False
    blocks = [sorted(z.ground.members(b)) for b in decompose(z)] if sub else []
    doc = {
        "kind": "report",
        "submodular": sub,
        "modular": mod,
        "blocks": blocks,
    }
    lines = [
        f"submodular: {'yes' if sub else 'no'}",
        f"modular: {'yes' if mod else 'no'}",
        "blocks: " + "; ".join(",".join(b) for b in blocks),
    ]
    _emit(args, doc, lines)
    return 0


def cmd_pre(args):
    z = _read_doc(args.input, SubmodFn)
    P = pre_of(z)
    doc = io.preorder_to_doc(P)
    _emit(args, doc, [_preorder_text(P)])
    return 0


def _preorder_text(P: Preorder):
    doc = io.preorder_to_doc(P)
    rels = " ".join(f"{a}<={b}" for a, b in doc["relations"])
    return f"preorder on {{{','.join(P.ground.labels)}}}: {rels or '(discrete)'}"


def cmd_faces(args):
    z = _read_submodular(args.input)
    lat = enumerate_faces(z, max_n=args.max_n)
    doc = io.facelattice_to_doc(lat)
    fv = ",".join(str(c) for c in lat.f_vector())
    lines = [f"faces: {len(lat.faces)}", f"f-vector: {fv}"]
    for f in lat.faces:
        lines.append(f"dim {f.dim}: {_preorder_text(f.P)}")
    _emit(args, doc, lines)
    return 0


def cmd_min_faces(args):
    z = _read_submodular(args.input)
    faces = min_faces(z, max_n=args.max_n)
    doc = {
        "kind": "facelattice",
        "faces": [{"preorder": io.preorder_to_doc(f.P), "dim": f.dim} for f in faces],
        "covers": [],
    }
    lines = [f"minimal faces: {len(faces)}"] + [
        f"dim {f.dim}: {_preorder_text(f.P)}" for f in faces
    ]
    _emit(args, doc, lines)
    return 0


def cmd_closure(args):
    z = _read_submodular(args.zfile)
    P = _read_doc(args.pfile, Preorder)
    if not is_compatible(P, z):
        raise ValidationError("preorder is not compatible with the function")
    R = closure(z, P)
    _emit(args, io.preorder_to_doc(R), [_preorder_text(R)])
    return 0


def cmd_glue(args):
    z = _read_submodular(args.zfile)
    P1 = _read_doc(args.p1, Preorder)
    P2 = _read_doc(args.p2, Preorder)
    s_mask = z.ground.mask_of(_split_labels(args.split))
    R = glue(z, s_mask, P1, P2)
    _emit(args, io.preorder_to_doc(R), [_preorder_text(R)])
    return 0


def _split_labels(arg):
    return [x for x in arg.split(",") if x] if arg else []


def cmd_chi(args):
    z = _read_submodular(args.input)
    p = chi(z, max_n=args.max_n)
    lines = [
        f"chi = {io.poly_text(p)}",
        f"binomial: {io.poly_binomial_text(p)}",
    ]
    _emit(args, io.polynomial_to_doc(p), lines)
    return 0


def cmd_ehrhart(args):
    P = _read_doc(args.input, Preorder)
    p = (ehr if args.weak else ehr_star)(P, max_n=args.max_n)
    name = "ehr" if args.weak else "ehr*"
    _emit(args, io.polynomial_to_doc(p), [f"{name} = {io.poly_text(p)}"])
    return 0


def cmd_coproduct(args):
    z = _read_doc(args.input, SubmodFn)
    s = coproduct_delta(z, z.ground.mask_of(_split_labels(args.split)))
    _emit(args, io.formalsum_to_doc(s), [f"terms: {len(s)}"])
    return 0


def cmd_delta(args):
    z = _read_submodular(args.input)
    s = internal_delta(z, max_n=args.max_n)
    _emit(args, io.formalsum_to_doc(s), [f"terms: {len(s)}"])
    return 0


def cmd_phi(args):
    z = _read_submodular(args.input)
    s = phi(z, max_n=args.max_n)
    _emit(args, io.formalsum_to_doc(s), [f"terms: {len(s)}"])
    return 0


def _building_set(members):
    labels = sorted({x for m in members for x in _split_labels(m)})
    ground = GroundSet(labels)
    return BuildingSet(ground, [ground.mask_of(_split_labels(m)) for m in members])


def cmd_bforests(args):
    B = _building_set(args.members)
    forests = b_forests(B, max_n=args.max_n)
    doc = {
        "kind": "formalsum",
        "terms": [
            {"coeff": "1", "factors": [io.preorder_to_doc(P)]} for P in forests
        ],
    }
    lines = [f"forests: {len(forests)}"] + [_preorder_text(P) for P in forests]
    _emit(args, doc, lines)
    return 0


def cmd_gen(args):
    family = args.family
    params = args.params
    if family == "permutahedron":
        if len(params) != 1:
            raise ValidationError("usage: gen permutahedron <l1,l2,...>")
        z = permutahedron([parse_fraction(x) for x in params[0].split(",")])
    elif family == "preorder-cone":
        if len(params) != 1 or ":" not in params[0]:
            raise ValidationError("usage: gen preorder-cone chain:<n>|discrete:<n>")
        shape, count = params[0].split(":", 1)
        ground = GroundSet(default_labels(parse_count(count)))
        if shape == "chain":
            z = preorder_cone(chain(ground))
        elif shape == "discrete":
            z = preorder_cone(discrete(ground))
        else:
            raise ValidationError(f"unknown preorder shape {shape!r}")
    elif family == "nestohedron":
        z = nestohedron(_building_set(params))
    elif family == "matroid-rank":
        if len(params) != 1 or not params[0].startswith("uniform:"):
            raise ValidationError("usage: gen matroid-rank uniform:<r>,<n>")
        counts = params[0].split(":", 1)[1].split(",")
        if len(counts) != 2:
            raise ValidationError("usage: gen matroid-rank uniform:<r>,<n>")
        z = matroid_rank(uniform_matroid(*map(parse_count, counts)))
    else:
        raise ValidationError(f"unknown family {family!r}")
    doc = io.submodfn_to_doc(z)
    _emit(args, doc, [io.dump_document(doc)])
    return 0


def cmd_oracle(args):
    from .conform import is_conforming
    from .invariants import RationalPoly

    results = []

    hexagon = permutahedron([3, 2, 1])
    lat = enumerate_faces(hexagon)
    results.append(("hexagon face count 13", len(lat.faces) == 13))
    results.append(("hexagon f-vector 6,6,1", lat.f_vector() == (6, 6, 1)))
    filt = {
        P
        for P in enumerate_preorders(hexagon.ground)
        if is_conforming(P, hexagon)
    }
    results.append(("hexagon faces match exhaustive filter", filt == lat.preorder_set()))

    from .submod import from_finite

    ground = GroundSet(["a", "b", "c"])
    pentagon = from_finite(
        ground,
        {
            ("a",): 3, ("b",): 3, ("c",): 3,
            ("a", "b"): 5, ("b", "c"): 5,
            ("a", "c"): 6, ("a", "b", "c"): 6,
        },
    )
    plat = enumerate_faces(pentagon)
    results.append(("pentagon face count 11", len(plat.faces) == 11))
    results.append(("pentagon f-vector 5,5,1", plat.f_vector() == (5, 5, 1)))

    results.append(
        (
            "permutahedron(3) chi = k^3-3k^2+2k",
            chi(hexagon) == RationalPoly([0, 2, -3, 1]),
        )
    )

    path = graph_building_set(ground, [("a", "b"), ("b", "c")])
    nf = b_forests(path)
    results.append(
        (
            "path forests match nestohedron faces",
            {P.canonical_key() for P in nf}
            == {P.canonical_key() for P in conforming_preorders(nestohedron(path))},
        )
    )

    ok = True
    for name, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="egpkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_input=True, capped=False):
        if with_input:
            p.add_argument("input", nargs="?", default="-", help="document path or - for stdin")
        p.add_argument("--format", choices=["json", "text"], default="json")
        if capped:
            p.add_argument("--max-n", type=int, default=None, dest="max_n")

    common(sub.add_parser("check", help="submodular/modular/decomposition report"))
    common(sub.add_parser("pre", help="finite-support preorder of a function"))
    common(sub.add_parser("faces", help="full face lattice"), capped=True)
    common(sub.add_parser("min-faces", help="smallest faces"), capped=True)

    p = sub.add_parser("closure", help="conforming preorder of the face of a preorder")
    p.add_argument("zfile")
    p.add_argument("pfile")
    common(p, with_input=False)

    p = sub.add_parser("glue", help="unique conforming preorder over a down-set split")
    p.add_argument("zfile")
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--split", required=True, help="comma-separated labels of the down-set")
    common(p, with_input=False)

    common(sub.add_parser("chi", help="canonical polynomial invariant"), capped=True)

    p = sub.add_parser("ehrhart", help="lattice point polynomial of a preorder")
    p.add_argument("--weak", action="store_true", help="weak count instead of strict")
    common(p, capped=True)

    p = sub.add_parser("coproduct", help="restriction/corestriction split")
    p.add_argument("--split", required=True, help="comma-separated labels (empty for the empty set)")
    common(p)

    common(sub.add_parser("delta", help="face-cone coaction sum"), capped=True)
    common(sub.add_parser("phi", help="sum of cone functions over smallest faces"), capped=True)

    p = sub.add_parser("bforests", help="forests of a building set")
    p.add_argument("members", nargs="+", help="members as comma-joined label lists")
    common(p, with_input=False, capped=True)

    p = sub.add_parser("gen", help="generate an example family")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    common(p, with_input=False)

    p = sub.add_parser("oracle", help="run brute-force cross-checks")
    common(p, with_input=False)

    return ap


_HANDLERS = {
    "check": cmd_check,
    "pre": cmd_pre,
    "faces": cmd_faces,
    "min-faces": cmd_min_faces,
    "closure": cmd_closure,
    "glue": cmd_glue,
    "chi": cmd_chi,
    "ehrhart": cmd_ehrhart,
    "coproduct": cmd_coproduct,
    "delta": cmd_delta,
    "phi": cmd_phi,
    "bforests": cmd_bforests,
    "gen": cmd_gen,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValidationError, UnboundedDirection, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
