"""JSON document formats for the CLI: set functions, preorders,
polynomials, face lattices, and formal sums. Rationals travel as "p/q"
strings and infinity as "inf"; subsets as sorted label lists.
"""

from __future__ import annotations

import json

from .conform import FaceLattice
from .errors import ValidationError
from .ground import GroundSet, bit_indices
from .hopf import FormalSum
from .invariants import RationalPoly
from .preorders import Preorder, from_relations
from .submod import SubmodFn, from_finite
from .values import format_fraction, format_value, parse_fraction


def _set_list(ground: GroundSet, mask: int):
    return sorted(ground.members(mask))


_NOUNS = {str: "strings", list: "lists", dict: "objects"}


def _list(x, what, item=object):
    """x itself, when it is a list whose entries all have the given type."""
    if not isinstance(x, list) or not all(isinstance(v, item) for v in x):
        raise ValidationError(f"{what} must be a list of {_NOUNS.get(item, 'values')}")
    return x


def submodfn_to_doc(z: SubmodFn) -> dict:
    finite = []
    for m in z.ground.subsets():
        if m and z.table[m].is_finite:
            finite.append({"set": _set_list(z.ground, m), "value": format_value(z.table[m])})
    return {"kind": "submodfn", "ground": list(z.ground.labels), "finite": finite}


def submodfn_from_doc(doc: dict) -> SubmodFn:
    ground = GroundSet(_list(doc["ground"], "ground", str))
    table = {}
    for entry in _list(doc.get("finite", []), "finite", dict):
        mask = ground.mask_of(_list(entry["set"], "set", str))
        if mask == 0:
            if parse_fraction(entry["value"]) != 0:
                raise ValidationError("the empty set may only carry the value 0")
            continue
        if mask in table:
            raise ValidationError("duplicate subset in function document")
        table[mask] = parse_fraction(entry["value"])
    return from_finite(ground, table)


def preorder_to_doc(P: Preorder) -> dict:
    rels = []
    for i in range(P.ground.n):
        for j in bit_indices(P.up[i]):
            if i != j:
                rels.append([P.ground.labels[i], P.ground.labels[j]])
    rels.sort()
    return {"kind": "preorder", "ground": list(P.ground.labels), "relations": rels}


def preorder_from_doc(doc: dict) -> Preorder:
    ground = GroundSet(_list(doc["ground"], "ground", str))
    pairs = [_list(p, "a relation", str) for p in _list(doc.get("relations", []), "relations")]
    if any(len(p) != 2 for p in pairs):
        raise ValidationError("a relation must be a pair of labels")
    return from_relations(ground, pairs)


def polynomial_to_doc(p: RationalPoly) -> dict:
    return {"kind": "polynomial", "coeffs": [format_fraction(c) for c in p.coeffs]}


def polynomial_from_doc(doc: dict) -> RationalPoly:
    return RationalPoly([parse_fraction(c) for c in _list(doc["coeffs"], "coeffs")])


def facelattice_to_doc(L: FaceLattice) -> dict:
    return {
        "kind": "facelattice",
        "faces": [
            {"preorder": preorder_to_doc(f.P), "dim": f.dim} for f in L.faces
        ],
        "covers": [list(c) for c in L.covers],
    }


def formalsum_to_doc(s: FormalSum) -> dict:
    terms = []
    for coeff, factors in s:
        fdocs = []
        for f in factors:
            if isinstance(f, SubmodFn):
                fdocs.append(submodfn_to_doc(f))
            else:
                fdocs.append(preorder_to_doc(f))
        terms.append({"coeff": format_fraction(coeff), "factors": fdocs})
    return {"kind": "formalsum", "terms": terms}


def formalsum_from_doc(doc: dict) -> FormalSum:
    out = FormalSum.zero()
    for t in _list(doc["terms"], "terms", dict):
        factors = []
        for f in _list(t["factors"], "factors", dict):
            if f.get("kind") == "submodfn":
                factors.append(submodfn_from_doc(f))
            elif f.get("kind") == "preorder":
                factors.append(preorder_from_doc(f))
            else:
                raise ValidationError("unsupported tensor factor kind")
        out = out + FormalSum.of(factors, parse_fraction(t.get("coeff", "1")))
    return out


_PARSERS = {
    "submodfn": submodfn_from_doc,
    "preorder": preorder_from_doc,
    "polynomial": polynomial_from_doc,
    "formalsum": formalsum_from_doc,
}


def parse_document(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON at line {e.lineno}, column {e.colno}") from e
    except (ValueError, RecursionError) as e:  # an integer too long, or nesting too deep
        raise ValidationError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise ValidationError(f"unsupported document kind {kind!r}")
    try:
        return _PARSERS[kind](doc)
    except KeyError as e:
        raise ValidationError(f"document is missing field {e.args[0]!r}") from e


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False)


def poly_text(p: RationalPoly, var="k") -> str:
    if not p.coeffs:
        return "0"
    bits = []
    for d in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[d]
        if c == 0:
            continue
        mag = format_fraction(abs(c))
        if d == 0:
            body = mag
        else:
            head = "" if mag == "1" else f"{mag}*"
            body = f"{head}{var}" + (f"^{d}" if d > 1 else "")
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits)


def poly_binomial_text(p: RationalPoly, var="k") -> str:
    cs = p.binomial_basis()
    if not cs:
        return "0"
    bits = []
    for j in range(len(cs) - 1, -1, -1):
        c = cs[j]
        if c == 0:
            continue
        mag = format_fraction(abs(c))
        head = "" if mag == "1" and j > 0 else f"{mag}" + ("*" if j > 0 else "")
        body = f"{head}C({var},{j})" if j > 0 else mag
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits)
