"""End-to-end runs of the command line against fresh temp files."""

import json

import pytest

from planepart.cli import main
from planepart.constructions import Partition
from planepart.verify import margins

from oracles import get_graph


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
        "--restarts", "1", "--sweeps", "1", "--init", str(path),
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
        ["search", "anneal", "--q", "3", "--sweeps", "1", "--init", str(path)],
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


@pytest.mark.parametrize("q,expect", [(3, "0"), (9, "1"), (25, "2")])
def test_bound_prints_plain_integer(capsys, q, expect):
    code, out, _ = run(capsys, "bound", "--q", str(q))
    assert code == 0
    assert out.strip() == expect


def test_bound_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "bound", "--q", "6")
    assert code == 2


def test_search_exhaustive_negative(capsys):
    code, out, _ = run(capsys, "search", "exhaustive", "--q", "3", "--t", "1")
    assert code == 0  # a completed nonexistence proof is a success
    assert "status: exhausted_none" in out


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


def test_search_anneal_deterministic(tmp_path, capsys):
    argv = [
        "search", "anneal", "--q", "4", "--t", "0",
        "--seed", "2", "--restarts", "3", "--sweeps", "300",
    ]
    code, out1, _ = run(capsys, *argv, "--out", str(tmp_path / "a.json"))
    assert code == 0
    assert "status: found" in out1
    assert "accepted flips: " in out1
    code, out2, _ = run(capsys, *argv, "--out", str(tmp_path / "b.json"))
    assert code == 0
    d1 = json.loads((tmp_path / "a.json").read_text())
    d2 = json.loads((tmp_path / "b.json").read_text())
    d1.pop("wall_time")
    d2.pop("wall_time")
    assert d1 == d2
    assert d1["params"]["seed"] == 2


def test_search_anneal_seeded_init(tmp_path, capsys):
    baer_path = tmp_path / "baer9.json"
    run(capsys, "construct", "baer", "--q", "9", "--out", str(baer_path))
    code, out, _ = run(
        capsys,
        "search", "anneal", "--q", "9", "--t", "1",
        "--restarts", "1", "--sweeps", "5", "--init", str(baer_path),
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
