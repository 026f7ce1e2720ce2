"""Acceptance table: every criterion runs at its stated tolerance.

Each test executes one criterion end to end and prints the same PASS/FAIL
line the reproduce-paper command emits, so `pytest -v` doubles as the
acceptance report.
"""

import dataclasses
import json

import pytest

from planepart import __version__, reproduce
from planepart.cli import main


@pytest.mark.parametrize("name,func", reproduce.CRITERIA, ids=[n for n, _ in reproduce.CRITERIA])
def test_criterion(name, func, tmp_path, capsys):
    ok, detail, records = func(str(tmp_path))
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert records, "every criterion must log at least one run record"
    assert ok, detail


@pytest.mark.parametrize("name", [n for n, _ in reproduce.CRITERIA])
def test_manifest_written(name, tmp_path):
    rc = reproduce.run(outdir=str(tmp_path), only=name)
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["artifact_version"] == __version__
    assert [c["name"] for c in manifest["criteria"]] == [name]
    fields = {f.name for f in dataclasses.fields(reproduce.RunRecord)}
    for record in manifest["criteria"][0]["records"]:
        assert set(record) == fields
        assert record["artifact_version"] == __version__
        assert record["field_modulus"] is None or isinstance(record["field_modulus"], list)


def test_unknown_criterion_is_usage_error(tmp_path, capsys):
    argv = ["reproduce-paper", "--outdir", str(tmp_path), "--only", "criterion-99"]
    assert main(argv) == 2
    assert "unknown criterion 'criterion-99'" in capsys.readouterr().err


@pytest.mark.parametrize("per_run", [False, True], ids=["whole-check", "per-cli-run"])
def test_wrapper_enforces_the_budget(per_run):
    argv = ["bound", "--q", "3"]

    def check(outdir, q):
        failures = []
        outputs = {"failures": failures}
        if per_run:
            return failures, "fine", [(argv, {"q": q}, outputs, 0.5)]
        return failures, "fine", outputs

    for budget in (10.0, 0.0):
        row = reproduce.Criterion("criterion-x", budget, check, {"q": 3}, per_run=per_run)
        ok, detail, [record] = reproduce._measured(row)("unused")
        assert ok == (budget > 0)
        if ok:
            assert detail == "fine"
        else:
            assert detail.startswith("bound --q 3: took 0.5s" if per_run else "took ")
            assert detail.endswith("budget 0s")
            assert record.outputs["failures"] == [detail]
        command = argv if per_run else ["reproduce-paper", "--only", "criterion-x"]
        assert record.command == "planepart " + " ".join(command)
        assert record.field_modulus == list(reproduce._plane(3).field.modulus)
        assert record.artifact_version == __version__
