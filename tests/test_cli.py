import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egpkit import chain, closure, enumerate_preorders, from_finite, from_relations, is_submodular, low_of, zfn_equal
from egpkit.cli import build_parser, main
from egpkit.io import (
    dump_document,
    parse_document,
    preorder_to_doc,
    submodfn_to_doc,
)


@pytest.fixture(autouse=True)
def clean_cap_env(monkeypatch):
    monkeypatch.delenv("EGPKIT_MAX_N", raising=False)
    yield
    os.environ.pop("EGPKIT_MAX_N", None)


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def hexagon_doc(tmp_path):
    code_path = tmp_path / "hex.json"
    from egpkit import permutahedron

    code_path.write_text(dump_document(submodfn_to_doc(permutahedron([3, 2, 1]))))
    return str(code_path)


def test_gen_permutahedron_round_trip(capsys, hexagon):
    code, out, _ = run(capsys, ["gen", "permutahedron", "3,2,1"])
    assert code == 0
    z = parse_document(out)
    assert zfn_equal(z, hexagon)


def test_check_report(capsys, tmp_path):
    path = hexagon_doc(tmp_path)
    code, out, _ = run(capsys, ["check", path, "--format", "text"])
    assert code == 0
    assert "submodular: yes" in out
    assert "modular: no" in out
    code, out, _ = run(capsys, ["check", path])
    doc = json.loads(out)
    assert doc["submodular"] is True
    assert doc["blocks"] == [["a", "b", "c"]]


def test_faces_text(capsys, tmp_path):
    path = hexagon_doc(tmp_path)
    code, out, _ = run(capsys, ["faces", path, "--format", "text"])
    assert code == 0
    assert "faces: 13" in out
    assert "f-vector: 6,6,1" in out


def test_min_faces_json(capsys, tmp_path):
    path = hexagon_doc(tmp_path)
    code, out, _ = run(capsys, ["min-faces", path])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["faces"]) == 6
    assert all(f["dim"] == 0 for f in doc["faces"])


def test_chi_text_and_json(capsys, tmp_path):
    path = hexagon_doc(tmp_path)
    code, out, _ = run(capsys, ["chi", path, "--format", "text"])
    assert code == 0
    assert "chi = k^3 - 3*k^2 + 2*k" in out
    assert "binomial: 6*C(k,3)" in out
    code, out, _ = run(capsys, ["chi", path])
    assert json.loads(out)["coeffs"] == ["0", "2", "-3", "1"]


def test_stdin_pipe(capsys, monkeypatch, hexagon):
    text = dump_document(submodfn_to_doc(hexagon))
    code, out, _ = run(
        capsys, ["faces", "-", "--format", "text"], stdin_text=text, monkeypatch=monkeypatch
    )
    assert code == 0
    assert "f-vector: 6,6,1" in out


def test_pre_of_cone(capsys, tmp_path, abc):
    z = low_of(chain(abc))
    path = tmp_path / "cone.json"
    path.write_text(dump_document(submodfn_to_doc(z)))
    code, out, _ = run(capsys, ["pre", str(path), "--format", "text"])
    assert code == 0
    assert "a<=b" in out and "b<=c" in out and "a<=c" in out


def test_ehrhart(capsys, tmp_path, abc):
    path = tmp_path / "p.json"
    path.write_text(dump_document(preorder_to_doc(chain(abc))))
    code, out, _ = run(capsys, ["ehrhart", str(path)])
    assert code == 0
    # C(k,3) = k(k-1)(k-2)/6
    assert json.loads(out)["coeffs"] == ["0", "1/3", "-1/2", "1/6"]
    code, out, _ = run(capsys, ["ehrhart", "--weak", str(path)])
    assert json.loads(out)["coeffs"] == ["1", "11/6", "1", "1/6"]


def test_closure(capsys, tmp_path, abc, pentagon):
    zpath = tmp_path / "z.json"
    zpath.write_text(dump_document(submodfn_to_doc(pentagon)))
    ppath = tmp_path / "p.json"
    # the total order a < c < b closes to the vee over the blunt corner
    L = from_relations(abc, [("a", "c"), ("c", "b")])
    ppath.write_text(dump_document(preorder_to_doc(L)))
    code, out, _ = run(capsys, ["closure", str(zpath), str(ppath)])
    assert code == 0
    doc = json.loads(out)
    assert doc["relations"] == [["a", "b"], ["c", "b"]]


def test_closure_needs_a_compatible_preorder(capsys, tmp_path, abc, hexagon):
    zpath = hexagon_doc(tmp_path)
    ppath = tmp_path / "p.json"
    totals = 0
    for P in enumerate_preorders(abc):
        ppath.write_text(dump_document(preorder_to_doc(P)))
        code, out, err = run(capsys, ["closure", zpath, str(ppath)])
        if P.is_total():
            totals += 1
            assert code == 0 and err == ""
            assert json.loads(out) == preorder_to_doc(closure(hexagon, P))
        else:
            assert code == 1 and out == ""
            assert err == "error: preorder is not compatible with the function\n"
    assert totals == 13


def test_glue(capsys, tmp_path, hexagon):
    zpath = tmp_path / "z.json"
    zpath.write_text(dump_document(submodfn_to_doc(hexagon)))
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps({"kind": "preorder", "ground": ["a"], "relations": []}))
    p2 = tmp_path / "p2.json"
    p2.write_text(
        json.dumps({"kind": "preorder", "ground": ["b", "c"], "relations": [["b", "c"]]})
    )
    code, out, _ = run(
        capsys, ["glue", str(zpath), str(p1), str(p2), "--split", "a"]
    )
    assert code == 0
    assert json.loads(out)["relations"] == [["a", "b"], ["a", "c"], ["b", "c"]]


def test_coproduct(capsys, tmp_path):
    path = hexagon_doc(tmp_path)
    code, out, _ = run(capsys, ["coproduct", "--split", "a", path])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["terms"]) == 1
    assert len(doc["terms"][0]["factors"]) == 2


def test_delta_and_phi(capsys, tmp_path):
    path = hexagon_doc(tmp_path)
    code, out, _ = run(capsys, ["delta", path, "--format", "text"])
    assert code == 0
    assert "terms: 13" in out
    code, out, _ = run(capsys, ["phi", path, "--format", "text"])
    assert "terms: 6" in out


def test_bforests(capsys):
    code, out, _ = run(
        capsys,
        ["bforests", "a", "b", "c", "a,b", "b,c", "a,b,c", "--format", "text"],
    )
    assert code == 0
    assert "forests: 11" in out


def test_bforests_honours_max_n(capsys):
    argv = ["bforests", "a", "b", "c", "a,b", "b,c", "a,b,c"]
    code, out, err = run(capsys, argv + ["--max-n", "1"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "error:" in err
    code, out, _ = run(capsys, argv + ["--max-n", "3", "--format", "text"])
    assert code == 0 and "forests: 11" in out


def test_gen_families(capsys):
    code, out, _ = run(capsys, ["gen", "matroid-rank", "uniform:2,3"])
    assert code == 0
    z = parse_document(out)
    assert z.value_of(["a", "b"]).finite() == 2
    code, out, _ = run(capsys, ["gen", "preorder-cone", "chain:3"])
    assert code == 0
    z = parse_document(out)
    assert z.value_of(["a"]).finite() == 0
    code, out, _ = run(capsys, ["gen", "nestohedron", "a", "b", "a,b"])
    assert code == 0


def test_error_exit_codes(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["check", str(bad)])
    assert code == 1 and "error:" in err

    code, _, err = run(capsys, ["gen", "dodecahedron"])
    assert code == 1

    code, _, err = run(capsys, ["check", str(tmp_path / "missing.json")])
    assert code == 1

    # undersized cap trips the size guard
    code, out, _ = run(capsys, ["gen", "permutahedron", "4,3,2,1"])
    zdoc = tmp_path / "p4.json"
    zdoc.write_text(out)
    code, _, err = run(capsys, ["faces", str(zdoc), "--max-n", "3"])
    assert code == 2 and "error:" in err


def test_gen_bad_numbers_end_in_one_line(capsys):
    for params in [
        ["permutahedron", "3,x"],
        ["permutahedron", "1e9,1"],
        ["permutahedron", "3,,1"],
        ["preorder-cone", "chain:x"],
        ["preorder-cone", "chain:-1"],
        ["matroid-rank", "uniform:2,x"],
        ["matroid-rank", "uniform:2"],
    ]:
        code, out, err = run(capsys, ["gen", *params])
        assert code == 1 and out == "", params
        assert err.count("\n") == 1 and err.startswith("error: "), err


def test_face_commands_reject_a_function_that_is_not_submodular(capsys, tmp_path, abc):
    # z(a) + z(b) = 2 < z(ab) + z(empty) = 3
    values = {("a",): 1, ("b",): 1, ("c",): 1, ("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2, ("a", "b", "c"): 3}
    z = from_finite(abc, values)
    assert not is_submodular(z)
    zpath = tmp_path / "z.json"
    zpath.write_text(dump_document(submodfn_to_doc(z)))
    ppath = tmp_path / "p.json"
    ppath.write_text(dump_document(preorder_to_doc(chain(abc))))
    for argv in [
        ["faces", str(zpath)],
        ["min-faces", str(zpath)],
        ["chi", str(zpath)],
        ["delta", str(zpath)],
        ["phi", str(zpath)],
        ["closure", str(zpath), str(ppath)],
        ["glue", str(zpath), str(ppath), str(ppath), "--split", "a"],
    ]:
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert err == "error: function is not submodular\n", argv


def test_huge_exponent_value_exits_at_once(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"kind": "submodfn", "ground": ["a"], "finite": [{"set": ["a"], "value": "1e10000000"}]}')
    start = time.perf_counter()
    code, out, err = run(capsys, ["check", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_wrong_document_kind(capsys, tmp_path, abc):
    path = tmp_path / "p.json"
    path.write_text(dump_document(preorder_to_doc(chain(abc))))
    code, _, err = run(capsys, ["faces", str(path)])
    assert code == 1


def test_oracle_passes(capsys):
    code, out, _ = run(capsys, ["oracle"])
    assert code == 0
    assert "FAIL" not in out


def test_max_n_leaves_no_state(capsys, tmp_path):
    # a flag on one in-process call must not cap a later call without it
    path = hexagon_doc(tmp_path)
    code, _, err = run(capsys, ["faces", "--max-n", "2", path])
    assert code == 2 and "error:" in err
    code, out, _ = run(capsys, ["min-faces", path])
    assert code == 0
    assert len(json.loads(out)["faces"]) == 6
    assert "EGPKIT_MAX_N" not in os.environ


def test_cap_env_must_be_an_integer(capsys, tmp_path, monkeypatch):
    path = hexagon_doc(tmp_path)
    monkeypatch.setenv("EGPKIT_MAX_N", "abc")
    code, out, err = run(capsys, ["min-faces", path])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "EGPKIT_MAX_N" in err


def test_ehrhart_honours_max_n(capsys, tmp_path, abc):
    path = tmp_path / "p.json"
    path.write_text(dump_document(preorder_to_doc(chain(abc))))
    code, _, err = run(capsys, ["ehrhart", str(path), "--max-n", "2"])
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, ["ehrhart", "--weak", str(path), "--max-n", "3"])
    assert code == 0


def test_chi_honours_max_n(capsys, tmp_path):
    from egpkit import permutahedron

    path = tmp_path / "p4.json"
    path.write_text(dump_document(submodfn_to_doc(permutahedron([4, 3, 2, 1]))))
    code, out, err = run(capsys, ["chi", str(path), "--max-n", "3"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "error:" in err
    code, out, _ = run(capsys, ["chi", str(path), "--max-n", "4"])
    assert code == 0 and json.loads(out)["kind"] == "polynomial"


def test_flag_max_n_only_where_a_cap_reads_it(capsys, tmp_path, abc):
    zpath = hexagon_doc(tmp_path)
    ppath = tmp_path / "p.json"
    ppath.write_text(dump_document(preorder_to_doc(chain(abc))))
    ignored = [
        ["check", zpath],
        ["pre", zpath],
        ["closure", zpath, str(ppath)],
        ["glue", zpath, str(ppath), str(ppath), "--split", "a"],
        ["coproduct", "--split", "a", zpath],
        ["gen", "permutahedron", "3,2,1"],
        ["oracle"],
    ]
    for argv in ignored:
        with pytest.raises(SystemExit) as e:
            main(argv + ["--max-n", "3"])
        assert e.value.code == 2
        assert "unrecognized arguments: --max-n 3" in capsys.readouterr().err
    parser = build_parser()
    for argv in (["faces"], ["min-faces"], ["chi"], ["delta"], ["phi"], ["ehrhart"], ["bforests", "a"]):
        assert parser.parse_args(argv + ["--max-n", "3"]).max_n == 3


MALFORMED = [
    '{"kind": "submodfn", "ground": ["a"], "finite": [{"set": ["a"], "value": 3}]}',
    '{"kind": "preorder", "ground": ["a", "b"], "relations": [["a"]]}',
    '{"kind": "submodfn", "ground": ["a"], "finite": [["a"]]}',
    '{"kind": "submodfn", "ground": ["a", "b"], "finite": [{"set": "ab", "value": "1"}]}',
    '{"kind": "submodfn", "ground": "ab", "finite": [{"set": ["a", "b"], "value": "1"}]}',
]


def test_malformed_documents_end_in_one_line(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for text in MALFORMED:
        path.write_text(text)
        command = "ehrhart" if '"preorder"' in text else "check"
        code, out, err = run(capsys, [command, str(path)])
        assert code == 1 and out == "", text
        assert err.count("\n") == 1 and err.startswith("error: "), err
    path.write_bytes(b"\xdc\x00 not text")
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 1 and out == "" and err.count("\n") == 1


_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from(["a", "b", "1", "-1/2", "inf", "1/0", ""])
)
_ANY = st.recursive(
    _LEAF,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(["kind", "ground", "set", "value", "terms"]), kids, max_size=3),
    ),
    max_leaves=6,
)


def _or_any(good):
    return st.one_of(good, good, good, _ANY)


_LABELS = st.sampled_from([[], ["a"], ["b"], ["a", "b"], ["b", "a"], ["a", "a"], ["c"]])
_VALUES = st.sampled_from(["0", "1", "2", "3/2", "-1", "x"])
_SUBMODFN = st.fixed_dictionaries({
    "kind": st.just("submodfn"),
    "ground": _or_any(_LABELS),
    "finite": _or_any(st.lists(
        _or_any(st.fixed_dictionaries({"set": _or_any(_LABELS), "value": _or_any(_VALUES)})),
        max_size=4,
    )),
})
_PREORDER = st.fixed_dictionaries({
    "kind": st.just("preorder"),
    "ground": _or_any(_LABELS),
    "relations": _or_any(st.lists(_or_any(st.lists(st.sampled_from(["a", "b"]), min_size=2, max_size=2)), max_size=3)),
})
_DOCS = st.one_of(
    _SUBMODFN,
    _PREORDER,
    st.fixed_dictionaries({"kind": st.just("polynomial"), "coeffs": _or_any(st.lists(_VALUES, max_size=3))}),
    st.fixed_dictionaries({
        "kind": st.just("formalsum"),
        "terms": _or_any(st.lists(_or_any(st.fixed_dictionaries({
            "coeff": _or_any(_VALUES),
            "factors": _or_any(st.lists(st.one_of(_SUBMODFN, _PREORDER, _ANY), max_size=2)),
        })), max_size=2)),
    }),
    _ANY,
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(doc=_DOCS, command=st.sampled_from(["check", "pre", "chi"]))
def test_any_small_document_ends_in_an_exit_code(doc, command):
    if isinstance(doc, dict) and doc.get("kind") == "preorder":
        command = "ehrhart"
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "-"])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
