"""Tests of the benchmark itself: seeded inputs, span arithmetic, and that
wrong outputs are counted as failures."""

from array import array

import pytest

import run
import tracer as tr

workloads = run.import_program()


def _inputs(name, seed, workdir, passes=1):
    wl = workloads.WORKLOADS[name](seed, workdir)
    return [op.input for p in range(passes) for op in wl.pass_ops(p)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    a = _inputs(name, 1, tmp_path)
    assert a == _inputs(name, 1, tmp_path)
    assert a != _inputs(name, 2, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_passes_repeat_the_ops_on_inputs_that_never_repeat(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    passes = [wl.pass_ops(p) for p in range(3)]
    assert [op.kind for op in passes[0]] == [op.kind for op in passes[1]] == [op.kind for op in passes[2]]
    calls = [(op.kind, op.input) for ops in passes for op in ops]
    assert len(set(calls)) == len(calls)


def test_slots_grow_with_seconds():
    faces = workloads.WORKLOADS["faces"]
    assert faces.slots_for(32) == faces.slots_per_32s
    assert faces.slots_for(64) == 2 * faces.slots_per_32s
    assert faces.slots_for(0.1) == 1


def test_per_op_is_the_median_pass_of_each_op():
    phase = run.Phase()
    phase.passes = [[3.0, 1.0, 2.0], [1.0, 4.0, 2.5], [2.0, 2.0, 1.5]]
    assert phase.per_op() == [2.0, 2.0, 2.0]
    assert phase.busy_s == pytest.approx(19.0)


def _spans(rows, attrs=None, counters=None):
    """rows: (name, parent, op, start, end)."""
    names = sorted({r[0] for r in rows})
    cols = list(zip(*rows))
    return tr.Spans(
        names,
        array("i", [names.index(n) for n in cols[0]]),
        array("i", cols[1]), array("i", cols[2]), array("q", cols[3]), array("q", cols[4]),
        attrs or {}, counters or {},
    )


def test_self_time_subtracts_direct_children_only():
    spans = _spans([
        ("conform.enumerate_faces", -1, 0, 0, 100),
        ("conform.conforming_preorders", 0, 0, 10, 40),
        ("conform.closure", 1, 0, 15, 25),
        ("preorders.preorder_leq", 0, 0, 50, 90),
        ("preorders.preorder_leq", 3, 0, 60, 70),
        ("conform.enumerate_faces", -1, 1, 200, 230),
    ])
    assert list(tr.self_times(spans)) == [100 - 30 - 40, 30 - 10, 10, 40 - 10, 10, 30]
    m = tr.layer_metrics(spans)
    assert m["conform.enumerate_faces.calls"] == (2, "count")
    assert m["conform.enumerate_faces.self_s"][0] == pytest.approx(60e-9)
    assert m["preorders.preorder_leq.self_s"][0] == pytest.approx(40e-9)
    assert m["conform.self_s"][0] == pytest.approx((30 + 20 + 10 + 30) * 1e-9)
    assert m["ground.self_s"] == (0.0, "s")


def test_cache_ratio_and_closure_yield_from_span_tree():
    spans = _spans([
        ("conform.conforming_preorders", -1, 0, 0, 100),  # enumerates: a miss
        ("preorders.enumerate_total_preorders", 0, 0, 1, 2),
        ("conform.closure", 0, 0, 3, 4),
        ("conform.closure", 0, 0, 5, 6),
        ("conform.closure", 0, 0, 7, 8),
        ("conform.closure", 0, 0, 9, 10),
        ("conform.conforming_preorders", -1, 1, 200, 201),  # a hit
        ("conform.conforming_preorders", -1, 2, 300, 301),  # a hit
        ("conform.closure", -1, 3, 400, 401),  # outside any enumeration
    ], attrs={0: 3})
    m = tr.layer_metrics(spans)
    assert m["conform.cache_hit_ratio"][0] == pytest.approx(2 / 3)
    assert m["conform.closure_yield"][0] == pytest.approx(3 / 4)


def test_traced_spans_round_trip_and_patches_undo(tmp_path):
    import egpkit
    from egpkit import conform, preorders

    z = egpkit.permutahedron([3, 2, 1])
    original = (conform.closure, preorders.preorder_leq, egpkit.enumerate_faces)
    t = tr.Tracer()
    t.install()
    try:
        t.op_id = 0
        lattice = egpkit.enumerate_faces(z)
        t.op_id = -1
        egpkit.enumerate_faces(z)  # outside an op: not recorded
    finally:
        t.uninstall()
    assert (conform.closure, preorders.preorder_leq, egpkit.enumerate_faces) == original
    path = tmp_path / "spans.bin.gz"
    t.write(path)
    spans = tr.load_spans(path)
    assert list(spans.start) == list(t.start) and list(spans.parent) == list(t.parent)
    m = tr.layer_metrics(spans)
    assert m["conform.enumerate_faces.calls"] == (1, "count")
    assert m["conform.conforming_preorders.calls"] == (1, "count")
    assert m["conform.closure_yield"][0] == pytest.approx(len(lattice.faces) / 13)
    assert m["values.ext_ops"][0] > 0
    selfs = tr.self_times(spans)
    roots = [i for i, p in enumerate(spans.parent) if p < 0]
    assert sum(selfs) == sum(spans.end[i] - spans.start[i] for i in roots)


def test_wrong_outputs_raise_failed_ops(tmp_path, monkeypatch):
    from egpkit import invariants

    wl = workloads.WORKLOADS["invariants"](5, tmp_path)
    clean = run.measure(wl, 1)
    assert clean.failed == 0

    monkeypatch.setattr(invariants, "ehr", lambda P: invariants.RationalPoly([1]))
    wl = workloads.WORKLOADS["invariants"](5, tmp_path)
    broken = run.measure(wl, 1)
    assert broken.failed == sum(kind.startswith("ehr:") for kind in wl.cycle)
    assert broken.failed / len(broken.latencies) > clean.failed / len(clean.latencies)
    assert broken.digest.hexdigest() != clean.digest.hexdigest()


def test_faces_check_rejects_a_wrong_lattice(tmp_path):
    import egpkit

    wl = workloads.WORKLOADS["faces"](1, tmp_path)
    op = wl.pass_ops(0)[0]
    assert op.kind == "faces:permutahedron"
    with pytest.raises(workloads.CheckFailed):
        op.check(egpkit.enumerate_faces(egpkit.permutahedron([9, 5, 4, 2, 1][:4])))


def test_permutahedron_f_vector_closed_form():
    assert workloads.permutahedron_f_vector(3) == (6, 6, 1)
    assert workloads.permutahedron_f_vector(5) == (120, 240, 150, 30, 1)


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([i / 100 for i in range(100)])
    assert (value, n) == (0.89, 100)
    assert pct == pytest.approx(90.0)
