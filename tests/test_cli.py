"""End-to-end runs of the command line against fresh temp files."""

import dataclasses
import enum
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import planepart
from planepart import cli, reproduce
from planepart.cli import _BLOCK, _PIECE, _json_chunks, _partition_doc, _write_json, build_parser, main
from planepart.constructions import Partition, construct_baer_partition
from planepart.graphs import LabelMap, json_default
from planepart.plane import incidence_graph, plane_of_order
from planepart.search import (
    AnnealParams,
    anneal_search,
    exhaustive_exists,
    exhaustive_max_intimacy,
)
from planepart.spectral import singular_spectrum
from planepart.verify import margins

from oracles import get_graph, get_plane


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plane_summary_and_exports(tmp_path, capsys):
    jpath = tmp_path / "plane.json"
    dpath = tmp_path / "graph.dimacs"
    code, out, _ = run(
        capsys,
        "plane", "--q", "3", "--json", str(jpath), "--export-graph", str(dpath),
    )
    assert code == 0
    assert "PG(2,3): 13 points, 13 lines" in out
    assert "26 vertices, 52 edges" in out
    doc = json.loads(jpath.read_text())
    assert doc["order"] == 3
    assert len(doc["points"]) == 13
    lines = dpath.read_text().splitlines()
    assert lines[0] == "p edge 26 52"
    assert sum(1 for ln in lines if ln.startswith("e ")) == 52


def test_construct_baer_q9(tmp_path, capsys):
    out_path = tmp_path / "baer9.json"
    code, out, _ = run(capsys, "construct", "baer", "--q", "9", "--out", str(out_path))
    assert code == 0
    assert "partition intimacy: 1" in out
    doc = json.loads(out_path.read_text())
    assert doc["margin_report"]["summary"]["partition_intimacy"] == 1
    assert len(doc["assignment"]) == 2 * 91
    assert doc["provenance"]["construction"] == "baer"


def test_construct_wrong_residue_class_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "alg1mod4", "--q", "7")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "construct", "alg3mod4", "--q", "5")
    assert code == 2


@pytest.mark.parametrize("flag,triple", [
    ("--point", "7:0:1"),
    ("--line", "1:-4:1"),
    ("--point", "5:0:1"),
])
def test_coordinates_outside_the_field_are_usage_errors(capsys, flag, triple):
    code, _, err = run(capsys, "construct", "combinatorial", "--q", "5", flag, triple)
    assert code == 2
    assert err.startswith("error:") and "outside GF(5)" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("construct", "baer", "--q", "9", "--drop"),
    ("construct", "baer", "--q", "9", "--variant", "interior_skew"),
    ("construct", "oval", "--q", "7", "--erase-units"),
    ("construct", "oval", "--q", "7", "--secant", "1:0:0"),
    ("construct", "even", "--q", "8", "--point", "0:0:1"),
    ("construct", "even", "--q", "8", "--line", "1:0:0"),
    ("construct", "combinatorial", "--q", "5", "--erase-units"),
    ("construct", "alg1mod4", "--q", "5", "--variant", "exterior_skewtangent"),
    ("construct", "alg3mod4", "--q", "7", "--drop"),
    ("search", "exhaustive", "--q", "3", "--max-intimacy", "--t", "5"),
    ("search", "exhaustive", "--q", "3", "--max-intimacy", "--t", "0"),
])
def test_flags_that_do_not_apply_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "does not apply to" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("construct", "combinatorial", "--q", "5", "--drop", "--point", "0:0:1", "--line", "0:0:1"),
    ("construct", "alg1mod4", "--q", "5", "--erase-units"),
    ("construct", "alg3mod4", "--q", "7", "--erase-units"),
    ("construct", "oval", "--q", "7", "--variant", "exterior_skewtangent"),
    ("construct", "even", "--q", "8", "--secant", "1:0:0"),
])
def test_flags_that_apply_are_accepted(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "partition intimacy: 0" in out


# each construction at an order it applies to, and each construct flag with a value
_ORDER_OF = {
    "baer": "9", "combinatorial": "5", "alg1mod4": "5", "alg3mod4": "7", "oval": "7", "even": "8",
}
_FLAG_ARGS = {
    "drop": ("--drop",),
    "point": ("--point", "0:0:1"),
    "line": ("--line", "0:0:1"),
    "erase-units": ("--erase-units",),
    "variant": ("--variant", "exterior_skewtangent"),
    "secant": ("--secant", "1:0:0"),
}
_APPLIES = {
    ("combinatorial", "drop"), ("combinatorial", "point"), ("combinatorial", "line"),
    ("alg1mod4", "erase-units"), ("alg3mod4", "erase-units"), ("oval", "variant"),
    ("even", "secant"),
}


@pytest.mark.parametrize("name", _ORDER_OF)
@pytest.mark.parametrize("flag", _FLAG_ARGS)
def test_construct_flag_matrix(capsys, name, flag):
    code, out, err = run(capsys, "construct", name, "--q", _ORDER_OF[name], *_FLAG_ARGS[flag])
    if (name, flag) in _APPLIES:
        assert (code, err) == (0, "")
        assert f"construction: {name}" in out
    else:
        assert (code, out) == (2, "")
        assert err == f"error: --{flag} does not apply to construction {name!r}\n"


def test_construct_reports_the_first_flag_that_does_not_apply(capsys):
    # in table order: drop, point, line, erase-units, variant, secant
    flags = [arg for args in reversed(_FLAG_ARGS.values()) for arg in args]
    for name, first in [("baer", "drop"), ("combinatorial", "erase-units"), ("oval", "drop")]:
        code, _, err = run(capsys, "construct", name, "--q", _ORDER_OF[name], *flags)
        assert code == 2
        assert err == f"error: --{first} does not apply to construction {name!r}\n"


def test_consecutive_main_calls_share_one_parser_but_no_flags(tmp_path, capsys):
    # the parser is built once per process; a flag of one call leaks into no later one
    for flags, drop in (("--drop",), True), ((), False):
        path = tmp_path / f"drop{drop}.json"
        code, _, _ = run(
            capsys, "construct", "combinatorial", "--q", "5", *flags, "--out", str(path)
        )
        assert code == 0
        assert json.loads(path.read_text())["provenance"]["parameters"]["drop_variant"] is drop
    assert build_parser() is build_parser()


def test_an_empty_coordinate_flag_is_given_not_absent(capsys):
    code, _, err = run(capsys, "construct", "combinatorial", "--q", "5", "--point", "")
    assert (code, err) == (2, "error: expected a:b:c coordinate triple, got ''\n")
    code, _, err = run(capsys, "construct", "baer", "--q", "9", "--line", "")
    assert (code, err) == (2, "error: --line does not apply to construction 'baer'\n")


def test_construct_even_odd_order_rejected(capsys):
    code, _, err = run(capsys, "construct", "even", "--q", "5")
    assert code == 2
    assert "error:" in err


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    part_path = tmp_path / "comb3.json"
    code, out, _ = run(
        capsys, "construct", "combinatorial", "--q", "3", "--out", str(part_path)
    )
    assert code == 0

    code, out, _ = run(
        capsys, "verify", "--q", "3", "--partition", str(part_path), "--t", "0"
    )
    assert code == 0
    assert "OK: partition is 0-internal" in out

    doc = json.loads(part_path.read_text())
    # flipping a vertex of margin m > 0 leaves it at margin -m
    report = doc["margin_report"]["margins"]
    moved = max(report, key=report.get)
    assert report[moved] > 0
    doc["assignment"][moved] = "B" if doc["assignment"][moved] == "A" else "A"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "verify", "--q", "3", "--partition", str(tampered), "--t", "0"
    )
    assert code == 1
    assert "violation: vertex " in out


@pytest.mark.parametrize("argv", [
    ("verify", "--q", "3", "--partition"),
    ("search", "anneal", "--q", "3", "--restarts", "1", "--steps", "1", "--init"),
])
def test_missing_partition_file_is_usage_error(tmp_path, capsys, argv):
    missing = tmp_path / "nonexistent.json"
    code, _, err = run(capsys, *argv, str(missing))
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_verify_at_unreachable_t(tmp_path, capsys):
    part_path = tmp_path / "baer4.json"
    run(capsys, "construct", "baer", "--q", "4", "--out", str(part_path))
    code, out, _ = run(
        capsys, "verify", "--q", "4", "--partition", str(part_path), "--t", "1"
    )
    assert code == 1
    assert "needs at least 2" in out


def test_verify_and_init_accept_a_search_result(tmp_path, capsys):
    path = tmp_path / "found3.json"
    run(capsys, "search", "exhaustive", "--q", "3", "--t", "0", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--q", "3", "--partition", str(path), "--t", "0")
    assert code == 0
    assert "OK: partition is 0-internal" in out
    code, out, _ = run(
        capsys,
        "search", "anneal", "--q", "3", "--t", "0",
        "--restarts", "1", "--steps", "1", "--init", str(path),
    )
    assert code == 0
    assert "status: found" in out
    # the loader keeps the Partition.from_json(doc, label_to_id, n) signature
    g = get_graph(3)
    witness = json.loads(path.read_text())["witness"]
    part = Partition.from_json(witness, g.label_ids, g.n)
    assert margins(g, part).partition_intimacy >= 0


@pytest.mark.parametrize("doc", ["search-none", [1, 2], {"assignment": ["A", "B"]}])
def test_non_partition_documents_are_usage_errors(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    if doc == "search-none":
        run(capsys, "search", "exhaustive", "--q", "3", "--t", "1", "--out", str(path))
        assert json.loads(path.read_text())["witness"] is None
    else:
        path.write_text(json.dumps(doc))
    for argv in (
        ["verify", "--q", "3", "--partition", str(path)],
        ["search", "anneal", "--q", "3", "--steps", "1", "--init", str(path)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "no partition 'assignment' object" in err


def test_verify_rejects_another_field_modulus(tmp_path, capsys):
    path = tmp_path / "baer9.json"
    run(capsys, "construct", "baer", "--q", "9", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["provenance"]["field_modulus"] = [9, 9, 9]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--q", "9", "--partition", str(path), "--t", "1")
    assert code == 2
    assert "field modulus [9, 9, 9]" in err
    assert "OK" not in out


def test_spectrum_q5(tmp_path, capsys):
    jpath = tmp_path / "spec5.json"
    code, out, _ = run(capsys, "spectrum", "--q", "5", "--json", str(jpath))
    assert code == 0
    assert "max |MM^T - qI - J| = 0" in out
    doc = json.loads(jpath.read_text())
    assert doc["max_residual"] == 0
    assert doc["singular_values"][0][1] == 1
    assert doc["singular_values"][1][1] == 30


@pytest.mark.parametrize("q,expect", [(3, "0"), (8, "0"), (9, "1"), (25, "2"), (64, "3")])
def test_bound_prints_plain_integer(capsys, q, expect):
    code, out, _ = run(capsys, "bound", "--q", str(q))
    assert code == 0
    assert out.strip() == expect


def test_max_intimacy_scan_of_pg2_8_starts_at_the_parity_cap(capsys):
    # the paper's cap is 1 at q=8, where t=1 is left undecided after
    # millions of nodes; the parity cap is 0, which a witness settles
    code, out, _ = run(capsys, "search", "exhaustive", "--q", "8", "--max-intimacy")
    assert code == 0
    assert "max intimacy: 0" in out.splitlines()
    assert "nodes explored: 119" in out.splitlines()


def test_bound_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "bound", "--q", "6")
    assert code == 2


def test_search_exhaustive_negative(capsys):
    code, out, _ = run(capsys, "search", "exhaustive", "--q", "5", "--t", "1")
    assert code == 0  # a completed nonexistence proof is a success
    assert "status: exhausted_none" in out
    counts = "nodes explored: 1744\nconflicts: 872\nmax depth: 20\npresets: 5\npropagations: 3029\n"
    assert counts in out


def test_search_exhaustive_max_intimacy_pg2_5_counts(capsys):
    # t = 1 is refuted in 1,744 nodes and t = 0 found in 27, on the rows t = 1 built
    code, out, _ = run(capsys, "search", "exhaustive", "--q", "5", "--max-intimacy")
    assert code == 0
    counts = "nodes explored: 1771\nconflicts: 872\nmax depth: 27\npresets: 5\npropagations: 3058\n"
    assert counts in out
    assert out.splitlines()[-1] == "max intimacy: 0"


@pytest.mark.parametrize("q,t,presets", [("5", "1", 5), ("2", "-1", 1)])
def test_search_exhaustive_prints_presets(capsys, q, t, presets):
    code, out, _ = run(capsys, "search", "exhaustive", "--q", q, "--t", t)
    assert code == 0
    lines = out.splitlines()
    depth = next(i for i, line in enumerate(lines) if line.startswith("max depth: "))
    assert lines[depth + 1] == f"presets: {presets}"


@pytest.mark.parametrize(
    "budget",
    [
        ["--workers", "0"],
        ["--workers", "-3"],
        ["--max-seconds", "-1"],
        ["--max-seconds", "0"],
        ["--max-nodes", "0"],
    ],
)
def test_search_exhaustive_rejects_meaningless_budgets(capsys, budget):
    for mode in (["--t", "1"], ["--max-intimacy"]):
        code, out, err = run(capsys, "search", "exhaustive", "--q", "3", *mode, *budget)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_search_exhaustive_witness_out(tmp_path, capsys):
    out_path = tmp_path / "witness.json"
    code, out, _ = run(
        capsys, "search", "exhaustive", "--q", "3", "--t", "0", "--out", str(out_path)
    )
    assert code == 0
    assert "status: found" in out
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "found"
    assert doc["witness"]["provenance"]["construction"] == "exhaustive"
    assert len(doc["witness"]["assignment"]) == 26


def test_search_exhaustive_budget_exit(capsys):
    code, out, _ = run(
        capsys, "search", "exhaustive", "--q", "4", "--t", "0", "--max-nodes", "1"
    )
    assert code == 1
    assert "status: timeout" in out


def test_search_max_intimacy_q3(tmp_path, capsys):
    out_path = tmp_path / "max3.json"
    code, out, _ = run(
        capsys,
        "search", "exhaustive", "--q", "3", "--max-intimacy", "--out", str(out_path),
    )
    assert code == 0
    assert "max intimacy: 0" in out
    assert json.loads(out_path.read_text())["max_intimacy"] == 0


def test_max_intimacy_timeout_writes_its_result(tmp_path, capsys):
    # a scan out of budget writes its result as --t does, with no max intimacy
    out_path = tmp_path / "max5.json"
    code, out, _ = run(
        capsys,
        "search", "exhaustive", "--q", "5", "--max-intimacy", "--max-nodes", "1",
        "--out", str(out_path),
    )
    assert code == 1
    assert "max intimacy: unresolved (budget exhausted)" in out.splitlines()
    assert out.splitlines()[-1] == f"wrote search JSON to {out_path}"
    doc = json.loads(out_path.read_text())
    assert (doc["status"], doc["max_intimacy"], doc["witness"]) == ("timeout", None, None)


def test_max_intimacy_result_is_a_partition_file(tmp_path, capsys):
    out_path = tmp_path / "max3.json"
    code, _, _ = run(
        capsys,
        "search", "exhaustive", "--q", "3", "--max-intimacy", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "found"
    t = str(doc["max_intimacy"])
    code, out, _ = run(capsys, "verify", "--q", "3", "--partition", str(out_path), "--t", t)
    assert code == 0
    assert f"OK: partition is {t}-internal" in out
    code, out, _ = run(
        capsys, "search", "anneal", "--q", "3", "--t", t, "--init", str(out_path)
    )
    assert code == 0
    assert "status: found" in out and "steps: 0" in out


def test_search_anneal_deterministic(tmp_path, capsys):
    argv = [
        "search", "anneal", "--q", "4", "--t", "0",
        "--seed", "2", "--restarts", "3", "--steps", "300",
    ]
    code, out1, _ = run(capsys, *argv, "--out", str(tmp_path / "a.json"))
    assert code == 0
    assert "status: found" in out1
    assert "steps: " in out1
    assert "aspirations: " in out1
    code, out2, _ = run(capsys, *argv, "--out", str(tmp_path / "b.json"))
    assert code == 0
    d1 = json.loads((tmp_path / "a.json").read_text())
    d2 = json.loads((tmp_path / "b.json").read_text())
    d1.pop("wall_time")
    d2.pop("wall_time")
    assert d1 == d2
    assert d1["params"] == {"seed": 2, "restarts": 3, "steps": 300}


def test_search_anneal_seeded_init(tmp_path, capsys):
    baer_path = tmp_path / "baer9.json"
    run(capsys, "construct", "baer", "--q", "9", "--out", str(baer_path))
    code, out, _ = run(
        capsys,
        "search", "anneal", "--q", "9", "--t", "1",
        "--restarts", "1", "--steps", "5", "--init", str(baer_path),
    )
    assert code == 0
    assert "status: found" in out
    assert "partition intimacy: 1" in out


def test_unknown_construction_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "nonesuch", "--q", "3"])
    assert exc.value.code == 2


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -- the JSON writer -------------------------------------------------------------


def _assert_written_as_json_dump(tmp_path, doc):
    path = tmp_path / "doc.json"
    _write_json(str(path), doc)
    got = path.read_bytes()
    want = (json.dumps(doc, indent=2, default=json_default) + "\n").encode("ascii")
    # a plain == would make pytest diff two large documents
    same = got == want
    assert same, f"first difference at byte {_first_difference(got, want)}"


def _first_difference(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _search_docs():
    g = get_graph(3)
    found = exhaustive_exists(g, 0)
    assert found.witness is not None
    best, scan = exhaustive_max_intimacy(g)
    annealed = anneal_search(get_graph(4), 0, AnnealParams(seed=2, restarts=3, steps=300))
    assert annealed.witness is not None
    timed_out = anneal_search(g, 1, AnnealParams(restarts=1, steps=3))
    docs = [
        found.to_json(g.labels),
        exhaustive_exists(g, 1).to_json(g.labels),
        {**scan.to_json(g.labels), "max_intimacy": best},
    ]
    for res, graph in ((annealed, get_graph(4)), (timed_out, g)):
        doc = res.to_json(graph.labels)
        doc["params"] = dataclasses.asdict(AnnealParams())
        docs.append(doc)
    return docs


def test_json_writer_matches_json_dump_on_package_documents(tmp_path):
    g = get_graph(9)
    baer = construct_baer_partition(get_plane(9))
    docs = [
        get_plane(4).to_json(),
        get_plane(9).to_json(),
        _partition_doc(g, baer, margins(g, baer)),
        singular_spectrum(get_plane(5)).to_json(),
        *_search_docs(),
    ]
    for doc in docs:
        _assert_written_as_json_dump(tmp_path, doc)


class _Kind(enum.IntEnum):
    A = 0
    B = 1


class _Text(str):
    pass


class _Real(float):
    pass


_RUN_LENGTHS = (_PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 1)


@pytest.mark.parametrize("doc", [
    {},
    [],
    (),
    {"a": [], "b": {}, "c": [[], {}, [[]]]},
    [{}, [], ()],
    (1, (2, 3), [4, (5,)]),
    [0.1, 1e300, -0.0, 2.5e-300, float("nan"), float("inf"), -float("inf")],
    [None, True, False, 0, -1, 2**70, "", "x"],
    {"é": "ñ", "quote\"back\\slash\n": "\u2603 \U0001F600", "\x00": "\t"},
    {1: "int key", 2.5: "float key", None: "null key", True: "bool key", "s": 1},
    [1, "a", [2, "b"], 3, {"k": [4.5, None]}, "tail", False],
    [True, False, 1, 0],
    {"x": 1, "y": [2], "z": 3, "w": "4", "v": {}, "u": None},
    {"scalars": [1, 2, 3], "mixed": [1, [2], 3], "deep": {"x": {"y": {"z": []}}}},
    # runs longer than one encoder piece, whole and cut by a container
    list(range(2 * _PIECE + 5)),
    {f"k{i}": i % 3 == 0 or str(i) for i in range(_PIECE + 1)},
    [*range(_PIECE + 7), [None], *map(str, range(_PIECE)), {}, 0.5],
    # runs at the piece boundaries, and flat containers at three depths
    *[list(range(n)) for n in _RUN_LENGTHS],
    *[{i if i % 2 else f"k{i}": i / 4 for i in range(n)} for n in _RUN_LENGTHS],
    {"one": [1, 2], "two": {"a": {"b": 3, "c": 4}, "d": [[5, 6], {"e": 7}]}},
    [[[1, "x"], [2.5, None]], {"k": {"n": [3]}}],
    # subclasses are written as their base type writes them
    {_Kind.B: _Kind.A, _Text("key"): _Text("value"), _Real(0.25): _Real(1.5)},
    [_Kind.B, _Text("a"), _Real(2.0), {"k": [_Kind.A, _Real(-0.5)]}],
    {_Kind.A: [_Text("t")], _Real(3.5): {_Text("s"): _Kind.B}},
    None,
    7,
    "top-level string",
])
def test_json_writer_matches_json_dump_on_edge_cases(tmp_path, doc):
    _assert_written_as_json_dump(tmp_path, doc)


def test_json_writer_rejects_what_json_rejects(tmp_path):
    with pytest.raises(TypeError):
        _write_json(str(tmp_path / "a.json"), {(1, 2): "tuple key"})
    with pytest.raises(TypeError):
        _write_json(str(tmp_path / "c.json"), {"ok": 1, (1, 2): ["tuple key"]})
    with pytest.raises(TypeError):
        _write_json(str(tmp_path / "b.json"), {"set": {1, 2}})


def test_json_writer_streams_the_plane_document():
    # one string per block of rows, so no piece is close to the whole file
    pieces = list(_json_chunks(get_plane(16).to_json()))
    same = "".join(pieces) == json.dumps(get_plane(16).to_json(), indent=2, default=json_default)
    assert same
    assert max(map(len, pieces)) < sum(map(len, pieces)) / 4


def _peak_mb(step) -> float:
    """The peak of ``step()`` above what was traced when it started, in MB."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    step()
    return (tracemalloc.get_traced_memory()[1] - base) / 1e6


def test_json_writer_holds_a_piece_at_a_time(tmp_path):
    # q=64: the Baer document's 8,322-entry assignment and margins objects
    # are written within 0.15 MB; the plane document's rows are the pencils
    # themselves, so its whole step, document and write, is bounded: its
    # 4,161 rows of 65 points peaked at 4.8 MB as a list of lists
    pl = plane_of_order(64)
    g = incidence_graph(pl)
    baer = construct_baer_partition(pl)
    doc = _partition_doc(g, baer, margins(g, baer))
    tracemalloc.start()
    try:
        baer_mb = _peak_mb(lambda: _write_json(str(tmp_path / "baer.json"), doc))
        plane_mb = _peak_mb(lambda: _write_json(str(tmp_path / "plane.json"), pl.to_json()))
    finally:
        tracemalloc.stop()
    assert baer_mb < 0.15, baer_mb
    assert plane_mb < 1, plane_mb


def _refused(obj):
    raise AssertionError(f"{type(obj).__name__} went through json_default")


def test_json_writer_writes_package_documents_from_text_tables(tmp_path, monkeypatch):
    # the plane, partition and search documents never take the fallback
    monkeypatch.setattr(cli, "json_default", _refused)
    g = get_graph(9)
    baer = construct_baer_partition(get_plane(9))
    for doc in (get_plane(9).to_json(), _partition_doc(g, baer, margins(g, baer)), *_search_docs()):
        _write_json(str(tmp_path / "doc.json"), doc)


_ROWS = _BLOCK // 5  # rows of 5 entries per block of a 2-D array


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, np.uint64])
@pytest.mark.parametrize("shape", [
    (0,), (1,), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (3 * _BLOCK + 2,),
    (0, 5), (3, 0), (1, 5), (_ROWS - 1, 5), (_ROWS, 5), (_ROWS + 1, 5), (4 * _ROWS + 3, 5),
    (3, 2 * _BLOCK + 1),  # a row wider than a block
])
def test_json_writer_matches_json_dump_on_integer_arrays(tmp_path, monkeypatch, dtype, shape):
    rng = np.random.default_rng(sum(shape))
    size = int(np.prod(shape))
    lo = 0 if np.dtype(dtype).kind == "u" else -size // 3  # negatives reach the table's tail
    a = rng.integers(lo, lo + max(size, 1), size=shape).astype(dtype)
    if size:  # written from the table
        monkeypatch.setattr(cli, "json_default", _refused)
    _assert_written_as_json_dump(tmp_path, {"level": [{"a": a}], "top": a, "same": [a, a[::-1]]})
    _assert_written_as_json_dump(tmp_path, a)


@pytest.mark.parametrize("a", [
    np.array([0, 2**40, -(2**40)], dtype=np.int64),  # a table as wide as the range would not fit
    np.array([[True, False]]),
    np.array([0.5, -1.25]),
    np.arange(8).reshape(2, 2, 2),
    np.array(3),
])
def test_json_writer_writes_other_arrays_through_the_fallback(tmp_path, a):
    _assert_written_as_json_dump(tmp_path, {"a": a, "b": [a]})


_ESCAPED = ['quote"', "back\\slash", "new\nline", "é", "\u2603 \U0001F600", "", "\x00"]


@pytest.mark.parametrize("n", [0, 1, _PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 3])
def test_json_writer_matches_json_dump_on_label_maps(tmp_path, monkeypatch, n):
    if n:  # written from the table
        monkeypatch.setattr(cli, "json_default", _refused)
    labels = [_ESCAPED[i % len(_ESCAPED)] + str(i) for i in range(n)]
    rng = np.random.default_rng(n)
    side = rng.integers(0, 2, size=n, dtype=np.uint8)
    margin = rng.integers(-n // 4 - 1, n // 4 + 1, size=n)
    doc = {
        "assignment": LabelMap(labels, side, ("A", "B")),
        "margins": LabelMap(labels, margin),
        "nested": [LabelMap(labels, margin, [[], {"k": None}, "x"] * n)] if n else [],
    }
    _assert_written_as_json_dump(tmp_path, doc)
    assert dict(doc["assignment"]) == {lab: "AB"[s] for lab, s in zip(labels, side.tolist())}


def test_label_maps_are_read_only_mappings():
    m = LabelMap(["a", "b", "c"], np.array([1, 0, 1]), ("A", "B"))
    assert (len(m), list(m), m["b"], "c" in m, "d" in m) == (3, ["a", "b", "c"], "A", True, False)
    assert m == {"a": "B", "b": "A", "c": "B"}
    assert json.dumps(m, default=json_default) == '{"a": "B", "b": "A", "c": "B"}'
    with pytest.raises(ValueError):
        LabelMap(["a", "b"], np.array([1, 0, 1]))


def test_json_writer_rejects_labels_that_are_not_strings(tmp_path):
    with pytest.raises(TypeError):
        _write_json(str(tmp_path / "a.json"), {"m": LabelMap(["a", 2], np.array([0, 1]))})


def test_construct_writes_negative_margins_and_exits_1(tmp_path, capsys, monkeypatch):
    # a partition below 0-internal is still written, margins and all, before the exit code 1
    pl = get_plane(4)
    side = np.zeros(2 * pl.n, dtype=np.uint8)
    side[[0, pl.n]] = 1  # point 0 and line 0 alone on B
    monkeypatch.setattr(cli, "construct_baer_partition", lambda pl: Partition(side))
    path = tmp_path / "low.json"
    code, out, _ = run(capsys, "construct", "baer", "--q", "4", "--out", str(path))
    assert code == 1
    assert "not internal" in out
    g = get_graph(4)
    doc = _partition_doc(g, Partition(side), margins(g, side))
    assert min(doc["margin_report"]["margins"].values()) < 0
    want = json.dumps(doc, indent=2, default=json_default) + "\n"
    same = path.read_text(encoding="ascii") == want
    assert same


def test_construct_even_leaves_numpy_ma_unimported(tmp_path):
    # np.unique, behind np.setxor1d and np.setdiff1d, imports numpy.ma (14-21 ms)
    code = (
        "import sys\n"
        "from planepart import cli\n"
        f"assert cli.main(['construct', 'even', '--q', '16', '--out', {str(tmp_path / 'e.json')!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    # the child imports the planepart that this test imports
    src = str(Path(planepart.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, env=env)


def test_reproduce_manifest_is_written_as_json_dump(tmp_path, capsys):
    assert reproduce.run(outdir=str(tmp_path), only="criterion-1") == 0
    text = (tmp_path / "manifest.json").read_text(encoding="ascii")
    manifest = json.loads(text)
    assert manifest["criteria"][0]["records"]
    same = text == json.dumps(manifest, indent=2) + "\n"
    assert same


# -- anneal parameters -----------------------------------------------------------


@pytest.mark.parametrize("flag,value", [
    ("--restarts", "0"),
    ("--restarts", "-1"),
    ("--steps", "0"),
    ("--steps", "-1"),
    # the temperature schedule is gone: its flags are argparse usage errors
    ("--sweeps", "1"),
    ("--start-temp", "0"),
    ("--start-temp", "-1"),
    ("--start-temp", "inf"),
    ("--start-temp", "nan"),
    ("--cooling", "0"),
    ("--cooling", "-1"),
    ("--cooling", "1.5"),
    ("--cooling", "nan"),
])
def test_search_anneal_rejects_meaningless_parameters(capsys, flag, value):
    try:
        code = main(["search", "anneal", "--q", "3", flag, value])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert "error:" in err
    assert "status:" not in out


def test_search_anneal_accepts_one_step(capsys):
    code, out, _ = run(
        capsys, "search", "anneal", "--q", "2", "--t", "1", "--restarts", "1", "--steps", "1",
    )
    assert code == 0
    assert "status: timeout" in out
    assert "steps: 1\n" in out


def test_search_anneal_times_out_after_its_budget(capsys):
    # PG(2,2) has no 1-internal partition: a timeout exits 0 after every step
    code, out, _ = run(
        capsys, "search", "anneal", "--q", "2", "--t", "1",
        "--restarts", "2", "--steps", "1200",
    )
    assert code == 0
    assert "status: timeout" in out
    assert f"steps: {2 * 1200}\n" in out
