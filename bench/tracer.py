"""Spans around egpkit's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function and method of the egpkit
modules with a wrapper, in every module namespace that refers to it, so
that calls made through `from .x import f` bindings are seen too. Nothing
under src/ changes; `uninstall()` puts the originals back.

A span is (name, start, end, parent span, op id). Spans are kept in arrays
while the run lasts, written to one file when it ends, and every per-layer
metric is derived from that file by `layer_metrics`, so the numbers can be
recomputed from it.

Not wrapped:
- generator functions (`ground.bit_indices`, `ground.submasks`): their work
  happens lazily in the caller's loop, so it counts as the caller's self time;
- `ExtValue`: its add/sub/compare calls run millions of times per op, so
  they are counted (`values.ext_ops`) instead of recorded as spans;
- exception classes, properties, class and static methods, and functions
  reached only through a dict (`io._PARSERS`, `cli._HANDLERS`): their time
  is their caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import operator
import sys
import time
from array import array

MAGIC = b"egpkit-spans-1\n"

# Spans that record the length of their return value as an attribute.
# dump_document returns ASCII text (json.dumps escapes the rest): its
# length is its size in bytes.
_LENGTH_ATTRS = {
    "conform.conforming_preorders",
    "io.dump_document",
    "hopf.internal_delta",
    "hopf.phi",
    "hopf.coproduct_delta",
}

_EXT_COUNTED = ("__add__", "__radd__", "__sub__", "__eq__", "__le__", "__lt__", "__ge__", "__gt__")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.attrs = {}
        self.counters = {"values.ext_ops": 0}
        self.op_id = -1  # spans are recorded only while an op runs
        self._stack = [-1]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        summarise = name in _LENGTH_ATTRS
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack, attrs = self.start, self.end, self._stack, self.attrs
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op_id
            if op < 0:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if summarise:
                attrs[sid] = len(out)
            return out

        return wrapper

    def _count_wrapper(self, fn, counter):
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.op_id >= 0:
                counters[counter] += 1
            return fn(*args)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        import egpkit

        modules = _egpkit_modules(egpkit)
        wrappers = {}  # id(original function) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = (obj, self._span_wrapper(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(obj, f"{short}.{attr}")
        for mod in [egpkit] + modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _patch_class(self, cls, name):
        if name == "values.ExtValue":
            for attr in _EXT_COUNTED:
                self._set(cls, attr, self._count_wrapper(vars(cls)[attr], "values.ext_ops"))
            return
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                continue
            if attr == "__init__":
                self._set(cls, attr, self._span_wrapper(obj, name))
            elif attr == "__add__" and name == "hopf.FormalSum":
                self._set(cls, attr, self._span_wrapper(obj, f"{name}.add"))
            elif not attr.startswith("_"):
                self._set(cls, attr, self._span_wrapper(obj, f"{name}.{attr}"))

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path, meta=None):
        """Write the spans as a JSON header line followed by five raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counters": self.counters,
            "byteorder": sys.byteorder,
            "meta": meta or {},
        }
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(MAGIC)
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                f.write(arr.tobytes())


def _egpkit_modules(egpkit):
    prefix = egpkit.__name__ + "."
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None]


class Spans:
    """Spans loaded from a file written by `Tracer.write`."""

    def __init__(self, names, name, parent, op, start, end, attrs, counters, meta=None):
        self.names = names
        self.name, self.parent, self.op = name, parent, op
        self.start, self.end = start, end
        self.attrs = attrs
        self.counters = counters
        self.meta = meta or {}


def load_spans(path) -> Spans:
    with gzip.open(path, "rb") as f:
        if f.readline() != MAGIC:
            raise ValueError(f"{path} is not a span file")
        header = json.loads(f.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "i", "q", "q"):
            arr = array(code)
            arr.frombytes(f.read(n * arr.itemsize))
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            arrays.append(arr)
    attrs = {int(k): v for k, v in header["attrs"].items()}
    return Spans(header["names"], *arrays, attrs, header["counters"], header["meta"])


def self_times(spans: Spans):
    """Per span, its duration minus the durations of its direct children, in ns.

    One thread runs every op, so children nest inside their parent and do
    not overlap each other.
    """
    dur = array("q", map(operator.sub, spans.end, spans.start))
    out = array("q", dur)
    for i, p in enumerate(spans.parent):
        if p >= 0:
            out[p] -= dur[i]
    return out


# Per-layer metrics: (module, function) pairs reported with .calls and .self_s.
FUNCTIONS = {
    "submod": ("decompose", "is_modular", "SubmodFn"),
    "preorders": ("enumerate_total_preorders", "enumerate_preorders", "preorder_leq",
                  "downset_masks", "is_contraction"),
    "conform": ("closure", "z_of_convex", "face_fn", "is_conforming", "conforming_preorders",
                "enumerate_faces", "min_faces"),
    "geometry": ("direction_to_face",),
    "hopf": ("FormalSum.add", "internal_delta", "phi"),
    "invariants": ("ehr_star", "ehr", "lagrange", "chi", "chi_character"),
    "cli": ("main",),
}
MODULE_SELF = ("ground", "submod", "preorders", "conform", "hopf", "invariants")
SELF_ONLY = ("io.parse_document", "io.dump_document")


def layer_metrics(spans: Spans):
    """Every per-layer metric derivable from the spans, as name -> (value, unit)."""
    selfs = self_times(spans)
    calls, self_ns, module_ns = {}, {}, {}
    for i, nid in enumerate(spans.name):
        name = spans.names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        mod = name.split(".", 1)[0]
        module_ns[mod] = module_ns.get(mod, 0) + selfs[i]

    out = {"values.ext_ops": (spans.counters.get("values.ext_ops", 0), "count")}
    for mod in MODULE_SELF:
        out[f"{mod}.self_s"] = (module_ns.get(mod, 0) / 1e9, "s")
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")

    out.update(_conform_ratios(spans))
    out["hopf.terms"] = (_attr_sum(spans, ("hopf.internal_delta", "hopf.phi", "hopf.coproduct_delta")), "count")
    out["io.bytes_out"] = (_attr_sum(spans, ("io.dump_document",)), "bytes")
    return out


def _ids(spans, name):
    return spans.names.index(name) if name in spans.names else None


def _attr_sum(spans, names):
    wanted = {_ids(spans, n) for n in names} - {None}
    return sum(v for sid, v in spans.attrs.items() if spans.name[sid] in wanted)


def _conform_ratios(spans):
    """cache_hit_ratio: share of conforming_preorders calls that enumerated no
    total preorders. closure_yield: distinct faces those enumerating calls
    returned, per closure they ran."""
    cp = _ids(spans, "conform.conforming_preorders")
    etp = _ids(spans, "preorders.enumerate_total_preorders")
    clo = _ids(spans, "conform.closure")
    cp_spans = [i for i, n in enumerate(spans.name) if n == cp] if cp is not None else []
    missed = set()
    if etp is not None:
        for i, n in enumerate(spans.name):
            if n != etp:
                continue
            p = spans.parent[i]
            while p >= 0 and spans.name[p] != cp:
                p = spans.parent[p]
            if p >= 0:
                missed.add(p)
    closures = 0
    if clo is not None and missed:
        closures = sum(1 for i, n in enumerate(spans.name) if n == clo and spans.parent[i] in missed)
    faces = sum(spans.attrs.get(i, 0) for i in missed)
    hit_ratio = (len(cp_spans) - len(missed)) / len(cp_spans) if cp_spans else 0.0
    yield_ = faces / closures if closures else 0.0
    return {
        "conform.cache_hit_ratio": (hit_ratio, "ratio"),
        "conform.closure_yield": (yield_, "ratio"),
    }
