"""Acceptance table: every criterion runs at its stated tolerance.

Each test executes one criterion end to end and prints the same PASS/FAIL
line the reproduce-paper command emits, so `pytest -v` doubles as the
acceptance report.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from planepart import __version__, cli, reproduce
from planepart.cli import main
from planepart.graphs import json_default

from procs import ended_within, kill_running, package_env, read_pids, running, session


@pytest.mark.parametrize("name,func", reproduce.CRITERIA, ids=[n for n, _ in reproduce.CRITERIA])
def test_criterion(name, func, tmp_path, capsys):
    ok, detail, records, wall = func(str(tmp_path))
    assert wall > 0
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
        ok, detail, [record], wall = reproduce._measured(row)("unused")
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
        assert wall < 0.5 if per_run else record.wall_time == wall


def test_criterion_wall_leaves_out_the_records(monkeypatch):
    # a record's field modulus may build a plane; that time counts against
    # no budget and is not the criterion's wall time
    plane = reproduce._plane

    def slow(q):
        time.sleep(0.3)
        return plane(q)

    monkeypatch.setattr(reproduce, "_plane", slow)
    row = reproduce.Criterion("criterion-x", 0.2, lambda outdir, q: ([], "fine", {}), {"q": 3})
    ok, detail, [record], wall = reproduce._measured(row)("unused")
    assert ok, detail
    assert record.wall_time == wall < 0.2


CRITERION_9 = dict(reproduce.CRITERIA)["criterion-9"]
ANNEAL_ORDERS = [5, 7]


def anneal_argv(q, out):
    return ["search", "anneal", "--q", str(q), "--t", "1", "--seed", "0", "--out", str(out)]


def anneal_doc(path):
    return reproduce._strip_wall(json.loads(Path(path).read_text()))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_criterion9_forked_reruns_equal_in_process_runs(tmp_path, capsys):
    # two in-process CLI runs per q are the reference for the four files and
    # for the records, in the order q5 run1, q5 run2, q7 run1, q7 run2
    ref = []
    for q in ANNEAL_ORDERS:
        for i in (1, 2):
            out = tmp_path / f"ref-q{q}-run{i}.json"
            assert main(anneal_argv(q, out)) == 0
            ref.append(anneal_doc(out))
    table = tmp_path / "table"
    table.mkdir()
    ok, detail, records, _ = CRITERION_9(str(table))
    assert ok, detail
    files = [table / f"criterion9-anneal-q{q}-run{i}.json" for q in ANNEAL_ORDERS for i in (1, 2)]
    assert [anneal_doc(path) for path in files] == ref
    assert [r.outputs for r in records] == ref
    assert [r.command for r in records] == [
        "planepart " + " ".join(anneal_argv(q, path))
        for q, path in zip([5, 5, 7, 7], files)
    ]
    assert all(r.wall_time > 0 for r in records)
    assert_no_child_left()


def test_criterion9_run2_is_written_by_another_process(tmp_path, monkeypatch):
    write_json = cli._write_json

    def stamped(path, doc):
        write_json(path, doc)
        Path(path + ".pid").write_text(str(os.getpid()))

    monkeypatch.setattr(cli, "_write_json", stamped)
    ok, detail, _, _ = CRITERION_9(str(tmp_path))
    assert ok, detail
    pids = {
        (q, i): int((tmp_path / f"criterion9-anneal-q{q}-run{i}.json.pid").read_text())
        for q in ANNEAL_ORDERS
        for i in (1, 2)
    }
    assert {pids[q, 1] for q in ANNEAL_ORDERS} == {os.getpid()}
    (child,) = {pids[q, 2] for q in ANNEAL_ORDERS}
    assert child != os.getpid()
    assert_no_child_left()


class Hung(Exception):
    pass


def test_criterion9_raises_when_the_rerun_process_dies(tmp_path, monkeypatch):
    # the process of run 2 exits with code 3 before its first result; an
    # alarm turns a hang into a failure
    pid = os.getpid()
    run_cli = reproduce._run_cli

    def dying(argv):
        if os.getpid() != pid:
            os._exit(3)
        return run_cli(argv)

    def hung(signum, frame):
        raise Hung

    monkeypatch.setattr(reproduce, "_run_cli", dying)
    old = signal.signal(signal.SIGALRM, hung)
    try:
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        with pytest.raises(RuntimeError, match="exit code 3"):
            CRITERION_9(str(tmp_path))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert_no_child_left()


def test_criterion9_still_compares_the_reruns(tmp_path, monkeypatch):
    # run 2 of each q counts one more step, in the forked process only
    pid = os.getpid()
    run_cli = reproduce._run_cli

    def skewed(argv):
        rc, wall = run_cli(argv)
        if os.getpid() != pid:
            out = Path(argv[-1])
            doc = json.loads(out.read_text())
            doc["nodes_explored"] += 1
            out.write_text(json.dumps(doc))
        return rc, wall

    monkeypatch.setattr(reproduce, "_run_cli", skewed)
    ok, detail, records, _ = CRITERION_9(str(tmp_path))
    assert not ok
    assert detail == "q=5: reruns differ; q=7: reruns differ"
    assert len(records) == 4
    assert_no_child_left()


def test_reproduce_paper_prints_each_line_once(tmp_path):
    # stdout is a pipe, so it is block-buffered (PYTHONUNBUFFERED is
    # dropped): a fork that kept a copy of the buffer and flushed it on
    # exit would print the earlier lines twice; criterion 9 runs forked,
    # and its line still comes last, in table order
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "planepart", "reproduce-paper", "--outdir", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"PASS {name}" for name, _ in reproduce.CRITERIA
    ]
    assert lines[-1].startswith("manifest written to ")


def test_run_writes_the_serial_manifest(tmp_path):
    # every criterion called in this process, one after another, is the
    # reference for everything in the manifest but the wall times
    rows = []
    for name, func in reproduce.CRITERIA:
        ok, detail, records, _ = func(str(tmp_path))
        rows.append(
            {"name": name, "ok": ok, "detail": detail,
             "records": [dataclasses.asdict(r) for r in records]}
        )
    ref = {"artifact_version": __version__, "all_pass": True, "criteria": rows}
    ref = json.loads(json.dumps(ref, default=json_default))
    assert reproduce.run(outdir=str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert reproduce._strip_wall(manifest) == reproduce._strip_wall(ref)
    assert all(c["wall_time"] > 0 for c in manifest["criteria"])
    assert_no_child_left()


def test_run_makes_criterion9_in_another_process(tmp_path, monkeypatch):
    write_json = cli._write_json

    def stamped(path, doc):
        write_json(path, doc)
        Path(path + ".pid").write_text(str(os.getpid()))

    monkeypatch.setattr(cli, "_write_json", stamped)
    assert reproduce.run(outdir=str(tmp_path)) == 0
    pids = {
        (q, i): int((tmp_path / f"criterion9-anneal-q{q}-run{i}.json.pid").read_text())
        for q in ANNEAL_ORDERS
        for i in (1, 2)
    }
    (first,) = {pids[q, 1] for q in ANNEAL_ORDERS}
    (second,) = {pids[q, 2] for q in ANNEAL_ORDERS}
    assert len({os.getpid(), first, second}) == 3
    assert int((tmp_path / "criterion1-baer-q9.json.pid").read_text()) == os.getpid()
    assert_no_child_left()


@pytest.mark.parametrize("name,forks", [("criterion-3", 0), ("criterion-9", 1)])
def test_only_forks_for_a_forked_row(name, forks, tmp_path, monkeypatch):
    # the forks of this process: none for an in-process row, one for the
    # forked row (its reruns fork in that process)
    fork = os.fork
    calls = []

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert reproduce.run(outdir=str(tmp_path), only=name) == 0
    assert len(calls) == forks
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [c["name"] for c in manifest["criteria"]] == [name]
    assert manifest["all_pass"]
    assert_no_child_left()


def test_a_raising_forked_row_is_exit_code_1(tmp_path, monkeypatch, capfd):
    def planted(outdir):
        raise ValueError("planted")

    monkeypatch.setattr(reproduce, "CRITERIA", [("criterion-9", planted)])
    with pytest.raises(RuntimeError, match="a fan-out process ended with exit code 1"):
        reproduce.run(outdir=str(tmp_path))
    assert "ValueError: planted" in capfd.readouterr().err
    assert not (tmp_path / "manifest.json").exists()
    assert_no_child_left()


def test_an_error_in_the_table_leaves_no_rerun_running(tmp_path, monkeypatch):
    # the forked criterion 9 forks its rerun process, which writes its pid
    # and sleeps; criterion 1 raises in this process once that pid is
    # written, and leaving the table's fan-out must end the rerun too
    pid_file = tmp_path / "rerun.pid"
    run_cli = reproduce._run_cli

    def sleepy(argv):
        if argv[-1].endswith("run2.json"):
            (tmp_path / "pid.tmp").write_text(str(os.getpid()))
            os.replace(tmp_path / "pid.tmp", pid_file)
            time.sleep(600)
        return run_cli(argv)

    def planted(outdir):
        deadline = time.monotonic() + 60
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ValueError("planted")

    monkeypatch.setattr(reproduce, "_run_cli", sleepy)
    table = [("criterion-1", planted), ("criterion-9", CRITERION_9)]
    monkeypatch.setattr(reproduce, "CRITERIA", table)
    with pytest.raises(ValueError, match="planted"):
        reproduce.run(outdir=str(tmp_path))
    rerun = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 10
        while running(rerun) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not running(rerun)
    finally:
        if running(rerun):
            os.kill(rerun, signal.SIGKILL)
    assert_no_child_left()


# criterion 9 alone, whose rerun process writes its pid and its parent's
# (criterion 9's process) and sleeps
SLEEPY_RERUN = (
    "import os, sys, time\n"
    "from planepart import reproduce\n"
    "from procs import write_pids\n"
    "outdir, pid_file = sys.argv[1:]\n"
    "run_cli = reproduce._run_cli\n"
    "def sleepy(argv):\n"
    "    if argv[-1].endswith('run2.json'):\n"
    "        write_pids(pid_file, os.getpid(), os.getppid())\n"
    "        time.sleep(600)\n"
    "    return run_cli(argv)\n"
    "reproduce._run_cli = sleepy\n"
    "reproduce.run(outdir=outdir, only='criterion-9')\n"
)


@pytest.mark.parametrize("group", [True, False], ids=["sigterm-to-the-group", "sigkill-to-the-caller"])
def test_a_killed_table_leaves_no_criterion9_running(group, tmp_path):
    # `timeout` sends SIGTERM to the caller's process group; a SIGKILL to the
    # caller alone reaches no other process, and the kernel ends the rest
    pid_file = tmp_path / "rerun.pid"
    with session(SLEEPY_RERUN, str(tmp_path), str(pid_file)) as caller:
        pids = read_pids(pid_file)
        try:
            assert caller.pid not in pids
            if group:
                os.killpg(caller.pid, signal.SIGTERM)
            else:
                os.kill(caller.pid, signal.SIGKILL)
            caller.wait()
            assert ended_within(pids, 5)
        finally:
            kill_running(pids)
