"""Branch and bound vs unpruned ground truth, plus annealing behavior."""

import hashlib
import itertools
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import planepart as pp
import planepart.search as search_module
from planepart.graphs import Graph
from planepart.plane import collineation_perm
from planepart.search import (
    AnnealParams,
    SearchResult,
    _Solver,
    _cases,
    _presets,
    anneal_search,
    brute_force_exists,
    exhaustive_exists,
    exhaustive_max_intimacy,
)
from planepart.spectral import parity_intimacy_bound
from planepart.verify import margins

import oracles
import procs
from oracles import get_graph, get_plane, random_bipartite, reference_anneal, reference_solve


def complete_graph(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def top_jobs(adj, t, presets):
    """The jobs a pooled search fans out: a ``(path, nodes, conflicts, propagations)`` each."""
    solver = _Solver(adj, t)
    return solver.search(solver.assign_presets(presets), None, None, split=2)[6]


def untagged(g):
    """The same graph without ``plane_order``: its search pins vertex 0 alone."""
    return Graph(g.indptr, g.indices, n_left=g.n_left)


def record_forks(monkeypatch):
    """Count the ``os.fork`` calls of each fan-out: one count per ``_fan_out`` call."""
    sizes = []
    fan_out, fork = search_module._fan_out, os.fork

    def counted_fan_out(*args):
        sizes.append(0)
        return fan_out(*args)

    def counted_fork():
        sizes[-1] += 1
        return fork()

    monkeypatch.setattr(search_module, "_fan_out", counted_fan_out)
    monkeypatch.setattr(os, "fork", counted_fork)
    return sizes


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pg2_3_no_1_internal():
    # both torus cases are decided by propagating their presets, so the
    # search from the flag triangle takes no node; from vertex 0 alone it takes 48
    g = get_graph(3)
    res = exhaustive_exists(g, 1)
    assert (res.status, res.witness, res.nodes_explored) == ("exhausted_none", None, 0)
    assert res.details["presets"] == 5
    res = exhaustive_exists(untagged(g), 1)
    assert (res.status, res.witness, res.nodes_explored) == ("exhausted_none", None, 48)


def test_pg2_3_0_internal_found():
    g = get_graph(3)
    res = exhaustive_exists(g, 0)
    assert res.status == "found"
    rep = margins(g, res.witness)
    assert rep.partition_intimacy >= 0


@pytest.mark.parametrize("q,expect", [(2, 0), (3, 0)])
def test_max_intimacy_small_planes(q, expect):
    t, res = exhaustive_max_intimacy(get_graph(q))
    assert t == expect
    assert res.status == "found"
    assert margins(get_graph(q), res.witness).partition_intimacy >= expect


def test_k4_max_intimacy():
    # any split of K4 strands someone: 3-regular, best margin is -1
    t, res = exhaustive_max_intimacy(complete_graph(4))
    assert t == -1
    assert res.status == "found"


def test_k33_no_0_internal():
    k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)], n_left=3)
    res = exhaustive_exists(k33, 0)
    assert res.status == "exhausted_none"
    assert brute_force_exists(k33, 0) is False


def test_workers_agree_with_single(monkeypatch):
    sizes = record_forks(monkeypatch)
    # at t = 0 the 5-vertex graph's first level holds a leaf beside two
    # jobs, and the jobs still fan out; PG(2,2) at t = 0 fans out only in
    # the second torus case, the first being exhausted by its presets
    leaf = Graph.from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 3)])
    for workers, forks in (2, [2, 2, 2, 2]), (3, [2, 3, 3, 2]):
        sizes.clear()
        for g, t in [(get_graph(2), 0), (get_graph(3), 0), (get_graph(5), 1), (leaf, 0)]:
            solo = exhaustive_exists(g, t)
            pooled = exhaustive_exists(g, t, workers=workers)
            assert (pooled.status, pooled.nodes_explored) == (solo.status, solo.nodes_explored)
            assert pooled.details == {**solo.details, "workers": workers}
            if solo.witness is None:
                assert pooled.witness is None
            else:
                assert pooled.witness.side.tolist() == solo.witness.side.tolist()
                assert margins(g, pooled.witness).partition_intimacy >= t
        assert (solo.status, solo.nodes_explored) == ("found", 2)
        # one fan-out per call, the leaf case included, of at most one process per job
        assert sizes == forks


def test_node_budget_times_out():
    res = exhaustive_exists(get_graph(4), 0, max_nodes=1)
    assert res.status == "timeout"
    assert res.witness is None


def test_recursion_limit_restored():
    before = sys.getrecursionlimit()
    assert exhaustive_exists(get_graph(3), 1).status == "exhausted_none"
    assert sys.getrecursionlimit() == before
    assert exhaustive_exists(get_graph(4), 0, max_nodes=1).status == "timeout"
    assert sys.getrecursionlimit() == before


def test_recursion_limit_never_lowered():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(50_000)
    try:
        exhaustive_exists(get_graph(3), 0)
        assert sys.getrecursionlimit() == 50_000
    finally:
        sys.setrecursionlimit(before)


def test_deep_search_leaves_the_recursion_limit_alone():
    # a path branches once per vertex, deeper than the default limit of 1000
    n = 1200
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    before = sys.getrecursionlimit()
    for workers in (1, 2):
        res = exhaustive_exists(path, -1, workers=workers)
        assert res.status == "found"
        assert margins(path, res.witness).partition_intimacy >= -1
    assert sys.getrecursionlimit() == before


def test_search_needs_no_recursion():
    # the search is a loop over an explicit stack, also in fan-out processes
    n = 1200
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        for workers in (1, 2):
            res = exhaustive_exists(path, -1, workers=workers)
            assert res.status == "found"
            assert margins(path, res.witness).partition_intimacy >= -1
    finally:
        sys.setrecursionlimit(before)
    # nothing is forced at t=-1: one level per vertex but the pinned one, and
    # side B goes first, so the first leaf, every other vertex on B, is a witness
    solo = exhaustive_exists(path, -1)
    assert (solo.nodes_explored, solo.details["conflicts"], solo.details["max_depth"]) == (
        n - 1, 0, n - 1
    )


def test_degenerate_frontier_runs_the_serial_search(monkeypatch):
    # the pooled call starts no process and runs the serial search with the
    # whole node budget: K3 at t=0 has no jobs at the top of the tree, and
    # PG(2,4) at t=0 has four, but its top takes 6 nodes, more than a
    # budget of 3 leaves them
    sizes = record_forks(monkeypatch)
    cases = [(complete_graph(3), 10, 0, "exhausted_none"), (get_graph(4), 3, 4, "timeout")]
    for g, max_nodes, jobs, status in cases:
        assert len(top_jobs(g.adjacency_lists, 0, _presets(g, 0))) == jobs
        solo = exhaustive_exists(g, 0, max_nodes=max_nodes)
        pooled = exhaustive_exists(g, 0, workers=2, max_nodes=max_nodes)
        assert pooled.status == solo.status == status
        assert pooled.nodes_explored == solo.nodes_explored
        assert {**pooled.details, "workers": 1} == solo.details
    assert sizes == []


def test_pool_is_sized_to_its_jobs(monkeypatch):
    sizes = record_forks(monkeypatch)
    # PG(2,3) at t=1 has four jobs below vertex 0 alone: six workers start
    # four processes; PG(2,5) at t=1 has four in its first torus case, and
    # its second fails at its presets; the leaf graph at t=0 has two jobs
    res = exhaustive_exists(untagged(get_graph(3)), 1, workers=6)
    assert res.status == "exhausted_none"
    assert sizes == [4]
    res = exhaustive_exists(get_graph(5), 1, workers=6)
    assert res.status == "exhausted_none"
    assert sizes == [4, 4]
    leaf = Graph.from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 3)])
    assert len(top_jobs(leaf.adjacency_lists, 0, [(0, 0)])) == 2
    res = exhaustive_exists(leaf, 0, workers=6)
    assert res.status == "found"
    assert sizes == [4, 4, 2]


def test_a_one_job_top_runs_the_serial_search(monkeypatch):
    # the top of this graph's tree makes one job: a fan-out would run it in
    # one process beside this one, so the pooled call runs the serial search
    sizes = record_forks(monkeypatch)
    edges = [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 5), (3, 4), (4, 5)]
    g = Graph.from_edges(6, edges)
    (path, *counts), = top_jobs(g.adjacency_lists, 0, [(0, 0)])
    solo = exhaustive_exists(g, 0)
    # the job's own subtree takes nodes beyond the top's tries
    assert _counts(solo) == ("found", 5, 2, 3, 2) and counts[0] < 5
    pooled = exhaustive_exists(g, 0, workers=2)
    assert _counts(pooled) == _counts(solo)
    assert pooled.witness.side.tolist() == solo.witness.side.tolist()
    assert sizes == []


def test_max_intimacy_scan_forks_per_fan_out(monkeypatch):
    # the untagged PG(2,3) scan fans out at t = 1 (exhausted) and t = 0
    # (found), and each fan-out starts two processes of its own
    sizes = record_forks(monkeypatch)
    g = untagged(get_graph(3))
    assert [len(top_jobs(g.adjacency_lists, t, [(0, 0)])) for t in (1, 0)] == [4, 4]
    best, res = exhaustive_max_intimacy(g, workers=2)
    assert (best, res.status) == (0, "found")
    assert sizes == [2, 2]
    assert_no_child_left()


def test_pooled_scan_is_reproducible():
    # fan-out results are read in frontier order, so the first job to find a
    # witness is the same on every run, and it holds the serial witness
    g = untagged(get_graph(4))
    solo_t, solo = exhaustive_max_intimacy(g)
    runs = [exhaustive_max_intimacy(g, workers=2) for _ in range(5)]
    assert len({res.nodes_explored for _, res in runs}) == 1
    for t, res in runs:
        assert (t, res.status) == (solo_t, "found")
        assert res.witness.side.tolist() == solo.witness.side.tolist()


def test_max_seconds_is_one_budget_across_workers():
    # four jobs on two workers: a full budget per job would run for about 2 s
    res = exhaustive_exists(get_graph(8), 1, workers=2, max_seconds=1.0)
    assert res.status == "timeout"
    assert res.wall_time < 1.6


def test_max_nodes_is_one_budget_across_workers():
    # four jobs on two workers: the frontier's six tries leave 4,998 nodes
    # to each job, and each stops at its share + 1
    res = exhaustive_exists(get_graph(8), 1, workers=2, max_nodes=20_000)
    assert res.status == "timeout"
    assert res.nodes_explored <= 20_004


@pytest.mark.parametrize(
    "budget",
    [
        {"max_nodes": 0},
        {"max_nodes": -5},
        {"max_seconds": 0},
        {"max_seconds": -1.0},
        {"max_seconds": float("nan")},
        {"workers": 0},
        {"workers": -3},
    ],
)
def test_meaningless_budgets_are_rejected(budget):
    with pytest.raises(ValueError):
        exhaustive_exists(get_graph(2), 0, **budget)
    with pytest.raises(ValueError):
        exhaustive_max_intimacy(get_graph(2), **budget)


def test_max_intimacy_scan_has_one_node_budget():
    # untagged PG(2,3): t = 2, 1, 0 take 0 + 48 + 17 nodes and 0 + 24 + 0 conflicts
    g = untagged(get_graph(3))
    best, res = exhaustive_max_intimacy(g, max_nodes=65)
    assert (best, res.status, res.nodes_explored) == (0, "found", 65)
    assert res.details["conflicts"] == 24
    # one node short: t = 0 gets the 16 nodes that t = 1 left, and stops at its 17th
    best, res = exhaustive_max_intimacy(g, max_nodes=64)
    assert (best, res.status, res.nodes_explored) == (None, "timeout", 65)
    # PG(2,5) with the flag triangle: its scan starts at the parity cap, and
    # t = 1, 0 take 1,744 + 27 nodes and 872 + 0 conflicts
    g = get_graph(5)
    best, res = exhaustive_max_intimacy(g, max_nodes=1771)
    assert (best, res.status, res.nodes_explored) == (0, "found", 1771)
    assert res.details["conflicts"] == 872
    best, res = exhaustive_max_intimacy(g, max_nodes=1770)
    assert (best, res.status, res.nodes_explored) == (None, "timeout", 1771)


def test_torus_cases_share_one_node_budget(monkeypatch):
    # PG(2,5) t=1: the first case takes 1,744 nodes and the second, which
    # fails at its presets, none; the second gets what the first left
    budgets = []
    decide = search_module._decide

    def spy(*args):
        budgets.append(args[2])
        return decide(*args)

    monkeypatch.setattr(search_module, "_decide", spy)
    g = get_graph(5)
    for max_nodes, left, status, nodes in [
        (2000, 256, "exhausted_none", 1744),
        (1744, 0, "exhausted_none", 1744),
        (1743, None, "timeout", 1744),
    ]:
        budgets.clear()
        res = exhaustive_exists(g, 1, max_nodes=max_nodes)
        assert (res.status, res.nodes_explored) == (status, nodes)
        assert budgets == [max_nodes] + ([] if left is None else [left])


def test_max_intimacy_scan_has_one_deadline(monkeypatch):
    deadlines = []
    decide = search_module._decide

    def spy(*args):
        deadlines.append(args[3])
        return decide(*args)

    monkeypatch.setattr(search_module, "_decide", spy)
    before = time.monotonic()
    best, res = exhaustive_max_intimacy(get_graph(5), max_seconds=30.0)
    # the scan starts at the parity cap: two torus cases at t = 1 (both
    # exhausted), the first one found at t = 0
    assert best == 0 and len(deadlines) == 3
    assert len(set(deadlines)) == 1
    assert before <= deadlines[0] - 30.0 <= before + res.wall_time


def _counts(res):
    d = res.details
    return (res.status, res.nodes_explored, d["conflicts"], d["max_depth"], d["propagations"])


def test_solver_counters():
    for g, counts in [
        # 24 frames of two tries each: 23 tries open the other frames, one
        # reaches the all-A leaf, which is no witness, and the other 24 fail
        # to propagate
        (untagged(get_graph(3)), (48, 24, 7)),
        # 872 frames below the flag triangle and M on A: 871 tries open the
        # other frames, one reaches a leaf that is no witness, and the other
        # 872 fail to propagate; the second torus case fails at its presets
        (get_graph(5), (1744, 872, 20)),
    ]:
        res = exhaustive_exists(g, 1)
        assert res.status == "exhausted_none"
        assert res.nodes_explored == counts[0]
        assert res.details["conflicts"] == counts[1]
        assert res.details["max_depth"] == counts[2]
        # the pooled counts include the two levels its jobs fan out from
        assert _counts(exhaustive_exists(g, 1, workers=2)) == _counts(res)


def test_pooled_counts_are_the_serial_counts():
    # the top of the tree counts its own tries at the two levels, so a pooled
    # search without budgets reports the serial tree
    g = get_graph(5)
    solo = exhaustive_exists(g, 1)
    assert solo.status == "exhausted_none"
    assert _counts(exhaustive_exists(g, 1, workers=2)) == _counts(solo)


def test_fan_out_processes_build_no_solver(monkeypatch, tmp_path):
    # a fan-out process inherits the solver of its t, rows and all: a spy
    # leaves a marker file for each process that searches, and one for each
    # solver built outside this process (none)
    pid = os.getpid()
    init, search = _Solver.__init__, _Solver.search

    def spy_init(self, adj, t):
        if os.getpid() != pid:
            (tmp_path / f"solver-{os.getpid()}").touch()
        init(self, adj, t)

    def spy_search(self, *args):
        if os.getpid() != pid:
            (tmp_path / f"search-{os.getpid()}").touch()
        return search(self, *args)

    monkeypatch.setattr(_Solver, "__init__", spy_init)
    monkeypatch.setattr(_Solver, "search", spy_search)
    g = untagged(get_graph(3))
    pooled = exhaustive_exists(g, 1, workers=2)
    assert _counts(pooled) == _counts(exhaustive_exists(g, 1))
    names = sorted(path.name.split("-")[0] for path in tmp_path.iterdir())
    assert names == ["search", "search"]


def test_fan_out_runs_its_jobs_from_the_call_and_yields_them_in_order(tmp_path):
    # the processes start on entering the with block, before any result is
    # read; two processes make the results of five jobs, read back in job order
    marker = tmp_path / "ran"

    def touch(job):
        marker.touch()
        return job

    with search_module._fan_out(touch, ["first"], 1) as results:
        deadline = time.monotonic() + 30
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert marker.exists()
        assert list(results) == ["first"]
    with search_module._fan_out(lambda x: (x, x * x), range(5), 2) as results:
        assert list(results) == [(x, x * x) for x in range(5)]
    assert_no_child_left()


def test_fan_out_processes_stay_in_the_callers_process_group():
    # so a signal sent to that group, as `timeout` sends one, reaches them;
    # the caller stays in its group too
    group = os.getpgid(0)
    with search_module._fan_out(lambda job: os.getpgid(0), [0, 1], 2) as results:
        assert list(results) == [group] * 2
    assert os.getpgid(0) == group
    assert_no_child_left()


def test_a_nested_fan_out_stays_in_the_callers_process_group():
    # the outer process and the processes it forks all stay in this
    # process's group, so a signal sent to that group reaches every one
    def outer(job):
        with search_module._fan_out(lambda j: os.getpgid(0), [0, 1], 2) as inner:
            return os.getpid(), os.getpgid(0), list(inner)

    with search_module._fan_out(outer, [0], 1) as results:
        ((pid, group, inner),) = list(results)
    assert pid != os.getpid()
    assert group == os.getpgid(0)
    assert inner == [group, group]
    assert_no_child_left()


class FailingPrctl:
    def prctl(self, *args):
        return -1


@pytest.mark.parametrize(
    "libc,error",
    [(FailingPrctl(), "OSError"), (object(), "AttributeError")],
    ids=["failing", "missing"],
)
def test_a_fan_out_process_without_its_death_signal_is_exit_code_1(monkeypatch, capfd, libc, error):
    # a prctl that fails, or none at all, ends the process with the
    # traceback: there is no silent fallback
    monkeypatch.setattr(search_module.ctypes, "CDLL", lambda *args, **kwargs: libc)
    with search_module._fan_out(lambda job: job, [0], 1) as results:
        with pytest.raises(RuntimeError, match="a fan-out process ended with exit code 1"):
            next(results)
    assert error in capfd.readouterr().err
    assert_no_child_left()


def test_a_killed_caller_takes_its_fan_out_with_it(tmp_path):
    # the one job writes its pid and returns 1 MB, more than a pipe holds,
    # while the caller sleeps without reading; once the caller is SIGKILLed
    # the job's process must end, not block on its full pipe for good
    pid_file = tmp_path / "job.pid"
    code = (
        "import os, sys, time\n"
        "from planepart.search import _fan_out\n"
        "from procs import write_pids\n"
        "def job(path):\n"
        "    write_pids(path, os.getpid())\n"
        "    return b'x' * 1_000_000\n"
        "with _fan_out(job, [sys.argv[1]], 1):\n"
        "    time.sleep(600)\n"
    )
    with procs.session(code, str(pid_file)) as caller:
        pids = procs.read_pids(pid_file)
        try:
            os.kill(caller.pid, signal.SIGKILL)
            caller.wait()
            assert procs.ended_within(pids, 5)
        finally:
            procs.kill_running(pids)


def test_a_raising_fan_out_job_is_exit_code_1(capfd):
    # the process prints the traceback and exits with code 1; the results
    # before its job still arrive
    def job(x):
        if x == 5:
            raise ValueError("planted")
        return x

    with search_module._fan_out(job, [1, 5, 2], 2) as results:
        assert next(results) == 1
        with pytest.raises(RuntimeError, match="a fan-out process ended with exit code 1"):
            next(results)
    assert "ValueError: planted" in capfd.readouterr().err
    assert_no_child_left()


def test_a_fan_out_process_killed_by_a_signal_is_its_negative_number():
    def job(x):
        os.kill(os.getpid(), signal.SIGKILL)

    with search_module._fan_out(job, [0], 1) as results:
        with pytest.raises(RuntimeError, match="a fan-out process ended with exit code -9"):
            next(results)
    assert_no_child_left()


def test_a_dying_fan_out_process_is_an_error():
    # the process that runs job 0 of each fan-out exits with code 3 before
    # its first result, and the others hang (with three workers, processes
    # 1 and 2): the search raises, and every process is killed and reaped;
    # a hang fails on the timeout
    code = (
        "import os, time\n"
        "import planepart.search as search\n"
        "from planepart.reproduce import _graph\n"
        "fan_out = search._fan_out\n"
        "def dying(fn, jobs, workers):\n"
        "    def job(presets):\n"
        "        if presets is jobs[0]:\n"
        "            os._exit(3)\n"
        "        time.sleep(600)\n"
        "    return fan_out(job, jobs, workers)\n"
        "search._fan_out = dying\n"
        "for workers in (2, 3):\n"
        "    try:\n"
        "        search.exhaustive_exists(_graph(5), 1, workers=workers)\n"
        "    except RuntimeError as exc:\n"
        "        print(exc)\n"
        "    try:\n"
        "        print(os.waitpid(-1, os.WNOHANG))\n"
        "    except ChildProcessError:\n"
        "        print('no child')\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=procs.package_env(),
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0
    assert out == "a fan-out process ended with exit code 3\nno child\n" * 2


def test_pooled_witness_is_the_serial_witness():
    # PG(2,7) and PG(2,9) t=1 are found in the first torus case: the jobs
    # are read in the order the serial search visits them, so the first job
    # with a witness holds the serial one; with three workers the four jobs
    # split unevenly, process 0 running jobs 0 and 3
    for q, counts in [(7, ("found", 52, 20, 21, 170)), (9, ("found", 489, 211, 88, 563))]:
        g = get_graph(q)
        assert len(top_jobs(g.adjacency_lists, 1, _cases(g, _presets(g, 1))[0])) == 4
        solo = exhaustive_exists(g, 1)
        for workers in (2, 3):
            pooled = exhaustive_exists(g, 1, workers=workers)
            assert _counts(pooled) == _counts(solo) == counts
            assert pooled.witness.side.tolist() == solo.witness.side.tolist()
            assert margins(g, pooled.witness).partition_intimacy >= 1


@pytest.mark.parametrize("workers", [1, 2])
def test_one_t_scan_is_the_single_t_search(workers):
    # both entry points are one scan: PG(2,7)'s max-intimacy scan starts at
    # its parity cap, 1, and finds a witness there, so it is exhaustive_exists at t = 1
    g = get_graph(7)
    single = exhaustive_exists(g, 1, workers=workers)
    best, scan = exhaustive_max_intimacy(g, workers=workers)
    assert best == 1
    assert _counts(scan) == _counts(single) == ("found", 52, 20, 21, 170)
    assert scan.witness.side.tolist() == single.witness.side.tolist()
    assert scan.details == single.details


def test_pool_stops_when_a_pooled_search_raises(monkeypatch):
    sizes = record_forks(monkeypatch)

    def fail(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(search_module, "_result", fail)
    for scan in (
        lambda g: exhaustive_exists(g, 1, workers=2),
        lambda g: exhaustive_max_intimacy(g, workers=2),
    ):
        with pytest.raises(RuntimeError, match="planted"):
            scan(get_graph(5))
        assert_no_child_left()
    # the planted error comes after every fan-out has ended: one for the
    # single t, and one at each of t = 1 and 0 for the scan
    assert sizes == [2, 2, 2]


class Interrupted(Exception):
    pass


def test_an_error_while_the_fan_out_waits_kills_its_processes(monkeypatch):
    # the processes sleep and send nothing; an alarm raises in this process
    # while it waits for the first result
    sizes = record_forks(monkeypatch)
    fan_out = search_module._fan_out
    monkeypatch.setattr(
        search_module, "_fan_out", lambda fn, *args: fan_out(lambda job: time.sleep(10), *args)
    )

    def interrupt(signum, frame):
        raise Interrupted

    old = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(Interrupted):
            exhaustive_exists(get_graph(5), 1, workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - start < 8
    assert_no_child_left()
    assert sizes == [2]


def test_an_error_in_the_with_block_kills_the_fan_outs_processes(monkeypatch):
    # both processes sleep and send nothing; leaving the block by an
    # exception kills and reaps them
    sizes = record_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(Interrupted):
        with search_module._fan_out(lambda job: time.sleep(600), [0, 1], 2):
            raise Interrupted
    assert time.monotonic() - start < 8
    assert sizes == [2]
    assert_no_child_left()


class Unpicklable:
    def __reduce__(self):
        raise TypeError("planted")


def test_a_result_that_fails_to_pickle_part_way_is_exit_code_1(capfd):
    # the 300,000 bytes are on the pipe before the pickler reaches the
    # object that raises, so the stream ends inside a result; the results
    # before that job still arrive
    jobs = [1, 2, [b"x" * 300_000, Unpicklable()]]
    with search_module._fan_out(lambda job: job, jobs, 2) as results:
        assert next(results) == 1
        assert next(results) == 2
        with pytest.raises(RuntimeError, match="a fan-out process ended with exit code 1"):
            next(results)
    assert "TypeError: planted" in capfd.readouterr().err
    assert_no_child_left()


def test_a_process_that_dies_inside_a_result_is_its_exit_code(tmp_path):
    # process 1 dies while its 8 MB result fills its pipe, which this process
    # reads only after job 0 has waited for that death: the stream ends inside
    # the bytes (an UnpicklingError, where one that ends between results is an
    # EOFError)
    dying = tmp_path / "dying"

    def die():
        dying.touch()
        os._exit(3)

    def job(k):
        if k == 1:
            threading.Timer(0.1, die).start()
            return b"x" * 8_000_000
        deadline = time.monotonic() + 30
        while not dying.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return k

    with search_module._fan_out(job, [0, 1], 2) as results:
        assert next(results) == 0
        with pytest.raises(RuntimeError, match="a fan-out process ended with exit code 3"):
            next(results)
    assert_no_child_left()


def test_propagations_sum_over_pool_jobs_and_scans():
    # a pooled search adds the top's propagations to its jobs': PG(2,5) t=1
    # fans out in its first torus case, and its second fails at its presets
    g = get_graph(5)
    adj = g.adjacency_lists
    first, second = _cases(g, _presets(g, 1))
    solver = _Solver(adj, 1)
    assert solver.assign_presets(second) is None
    *top, jobs = solver.search(solver.assign_presets(first), None, None, split=2)
    top_propagations = top[5]
    pooled = exhaustive_exists(g, 1, workers=2)
    per_job = [_fresh_search(adj, 1, first + path, None, None)[5] for path, *_ in jobs]
    assert len(per_job) == 4
    assert pooled.details["propagations"] == top_propagations + sum(per_job)
    # the scan decides t = 1, its parity cap, and 0
    best, res = exhaustive_max_intimacy(g)
    per_t = [exhaustive_exists(g, t).details["propagations"] for t in (1, 0)]
    assert best == 0 and res.details["propagations"] == sum(per_t) > 0


def _fresh_search(adj, t, presets, max_nodes, split):
    solver = _Solver(adj, t)
    return solver.search(solver.assign_presets(presets), max_nodes, None, split)


def _reuse_one_solver(adj, t, runs):
    """Run ``(presets, max_nodes, split)`` searches in order on one solver at t.

    Each must return what a fresh solver returns, witness, counts and jobs
    included, and no search may write on the solver but its row cache.
    Returns how many searches ran right after one that found.
    """
    solver = _Solver(adj, t)
    built = dict(vars(solver), rows=None)
    after_found, last = 0, None
    for presets, max_nodes, split in runs:
        got = solver.search(solver.assign_presets(presets), max_nodes, None, split)
        assert got == _fresh_search(adj, t, presets, max_nodes, split)
        after_found += last == "found"
        last = got[0]
    assert dict(vars(solver), rows=None) == built
    return after_found


def test_one_solver_runs_every_search_at_its_t():
    after_found = 0
    # both torus cases at every t of the scan, and searches with the first
    # vertices on A, which end on the all-A leaf when they exhaust: whole,
    # cut at two levels, without a budget and on five nodes
    for q in (3, 4, 5, 7):
        g = get_graph(q)
        for t in scan_range(g):
            cases = _cases(g, _presets(g, t))
            on_a = [[(v, 0) for v in range(k)] for k in (g.n // 4, g.n // 2)]
            runs = [(p, m, s) for p in cases + on_a + cases for m in (None, 5) for s in (None, 2)]
            after_found += _reuse_one_solver(g.adjacency_lists, t, runs)
    rng = random.Random(2027)
    for _ in range(40):
        g = random_bipartite(rng, rng.randint(2, 7), rng.randint(2, 7), p=0.5)
        on_a = [(v, 0) for v in range(g.n // 2)]
        for t in (-1, 0, 1):
            presets = [[(0, 0)], on_a, [(0, 0), (g.n - 1, 1)], [(0, 0)]]
            runs = [(p, m, None) for p in presets for m in (None, 3)]
            after_found += _reuse_one_solver(g.adjacency_lists, t, runs)
    assert after_found > 100


def test_one_solver_per_t_in_the_calling_process(monkeypatch):
    # the t of each solver this process builds; fan-out processes inherit it
    built = []
    init = _Solver.__init__

    def spy(self, adj, t):
        built.append(t)
        init(self, adj, t)

    monkeypatch.setattr(_Solver, "__init__", spy)
    # PG(2,5) t=1: both torus cases, serial and fanned out
    for workers in (1, 2):
        built.clear()
        assert exhaustive_exists(get_graph(5), 1, workers=workers).status == "exhausted_none"
        assert built == [1]
    # the top of PG(2,4) t=0 takes more than the 3 nodes, so the search
    # falls back to serial on the top's solver
    built.clear()
    res = exhaustive_exists(get_graph(4), 0, max_nodes=3, workers=2)
    assert (res.status, res.nodes_explored) == ("timeout", 4)
    assert built == [0]
    # PG(2,3)'s scan starts at its parity cap, 0, and the untagged graph's at its degree cap
    built.clear()
    assert exhaustive_max_intimacy(get_graph(3))[0] == 0
    assert built == [0]
    built.clear()
    assert exhaustive_max_intimacy(untagged(get_graph(3)))[0] == 0
    assert built == [2, 1, 0]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_plane_scan_starts_at_the_parity_cap(monkeypatch, q):
    # no t above the parity cap gets a solver: the plane's own cap decides the
    # start; the budget turns a scan that starts higher (PG(2,8) at t = 1) into a timeout
    built = []
    init = _Solver.__init__

    def spy(self, adj, t):
        built.append(t)
        init(self, adj, t)

    monkeypatch.setattr(_Solver, "__init__", spy)
    best, res = exhaustive_max_intimacy(get_graph(q), max_nodes=5000)
    assert built[0] == parity_intimacy_bound(q)
    assert (best, res.status) == (built[-1], "found")


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_plane_scan_finds_what_the_degree_cap_scan_finds(q):
    # the same graph without plane_order scans from its degree cap, (q + 1) // 2
    g = get_graph(q)
    best, _ = exhaustive_max_intimacy(g)
    untagged_best, _ = exhaustive_max_intimacy(untagged(g))
    assert best == untagged_best


def _assert_same_solve(adj, t, presets, max_nodes):
    got = _fresh_search(adj, t, presets, max_nodes, None)
    assert got[:3] == reference_solve(adj, t, presets, max_nodes, None)


@pytest.mark.parametrize("t", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_solver_matches_reference_on_planes(q, t):
    _assert_same_solve(get_graph(q).adjacency_lists, t, [(0, 0)], 50_000)


@pytest.mark.parametrize("q,max_nodes", [(5, None), (7, 5_000)])
def test_solver_matches_reference_on_frontier_jobs(q, max_nodes):
    # PG(2,5)'s four jobs are searched to the end, PG(2,7)'s time out
    adj = get_graph(q).adjacency_lists
    jobs = top_jobs(adj, 1, [(0, 0)])
    assert len(jobs) == 4
    for path, *_ in jobs:
        _assert_same_solve(adj, 1, [(0, 0)] + path, max_nodes)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solver_matches_reference_on_small_graphs(data):
    g = data.draw(small_graphs())
    t = data.draw(st.integers(-2, 2))
    vertex = st.integers(0, g.n - 1)
    presets = [(0, 0)] + data.draw(st.lists(st.tuples(vertex, st.integers(0, 1)), max_size=3))
    max_nodes = data.draw(st.one_of(st.none(), st.integers(1, 40)))
    _assert_same_solve(g.adjacency_lists, t, presets, max_nodes)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_flag_triangle_keeps_every_status(q):
    g = get_graph(q)
    for t in range(-2, 3):
        assert exhaustive_exists(g, t).status == exhaustive_exists(untagged(g), t).status


def scan_range(g):
    """Every t from the degree cap down to the trivial floor."""
    return range(int(g.degrees.min()) // 2, -((int(g.degrees.max()) + 1) // 2) - 1, -1)


def test_torus_split_matches_brute_force_on_pg2_2():
    g = get_graph(2)
    split = [t for t in scan_range(g) if len(_cases(g, _presets(g, t))) == 2]
    assert split == [1, 0]
    for t in scan_range(g):
        assert (exhaustive_exists(g, t).status == "found") is brute_force_exists(g, t)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_torus_split_keeps_every_status(q):
    # the split decides each t as the search from the bare flag triangle does
    g = get_graph(q)
    for t in scan_range(g):
        max_nodes = 50_000 if (q, t) == (7, 1) else None
        bare = _fresh_search(g.adjacency_lists, t, _presets(g, t), max_nodes, None)[0]
        assert exhaustive_exists(g, t).status == bare


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_frame_torus_carries_m_onto_every_off_triangle_line(q):
    pl, g = get_plane(q), get_graph(q)
    n = pl.n
    presets = _presets(g, 1)
    first, second = _cases(g, presets)
    p0, l0, l1, p1, p2 = [v for v, _ in presets]
    off = [n + j for j, line in enumerate(pl.pencils.tolist()) if not {p0, p1, p2} & set(line)]
    assert len(off) == (q - 1) ** 2
    assert first == presets + [(off[0], 0)]
    assert second == presets + [(v, 1) for v in off]
    images = []
    for mat, perm in oracles.frame_torus(pl, (p0, p1, p2)):
        assert (collineation_perm(pl, mat) == perm).all()
        # a collineation: each line's points go onto its image's points
        assert (np.sort(perm[pl.pencils], axis=1) == pl.pencils[perm[n:] - n]).all()
        assert perm[[p0, p1, p2, l0, l1]].tolist() == [p0, p1, p2, l0, l1]
        images.append(int(perm[off[0]]))
    assert sorted(images) == off


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("q,max_nodes", [(3, None), (4, None), (5, None), (7, 5_000)])
def test_solver_matches_reference_from_the_flag_triangle(q, max_nodes, t):
    g = get_graph(q)
    presets = _presets(g, t)
    assert len(presets) == 5
    _assert_same_solve(g.adjacency_lists, t, presets, max_nodes)


def test_solver_pins_the_plane_trees():
    # reference_solve compares status, witness and nodes only: these pin the
    # conflicts, depth and propagations of two trees from the flag triangle
    for q, max_nodes, want in [
        (5, None, ("exhausted_none", 7384, 3692, 24, 10616)),
        (7, 50_000, ("found", 312, 137, 48, 378)),
    ]:
        g = get_graph(q)
        status, side, *counts = _fresh_search(g.adjacency_lists, 1, _presets(g, 1), max_nodes, None)[:6]
        assert (status, *counts) == want
        if side is not None:
            part = pp.Partition(side=np.asarray(side, dtype=np.uint8))
            assert margins(g, part).partition_intimacy >= 1


class _CountingSolver(oracles._Solver):
    """The recursive reference solver, counting what its successful branches force."""

    forced = None  # None while the presets are assigned

    def _assign(self, v, s):
        mark = len(self.trail)
        ok = super()._assign(v, s)
        if ok and self.forced is not None:
            self.forced += len(self.trail) - mark - 1
        return ok


def reference_propagations(adj, t, presets, max_nodes):
    solver = _CountingSolver(adj, t, max_nodes=max_nodes)
    if not solver.assign_presets(presets):
        return 0
    solver.forced = 0
    try:
        solver.search()
    except oracles._Stop:
        pass
    return solver.forced


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_propagations_match_the_reference_on_planes(q):
    # the packed solver forces a branch's vertices in waves, the reference
    # one at a time: the counts agree because the fixpoint does not depend
    # on the order
    g = get_graph(q)
    for t in range(-2, 3):
        for presets in [(0, 0)], _presets(g, t):
            got = _fresh_search(g.adjacency_lists, t, presets, 10_000, None)[5]
            assert got == reference_propagations(g.adjacency_lists, t, presets, 10_000)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_propagations_match_the_reference_on_small_graphs(data):
    g = data.draw(small_graphs())
    t = data.draw(st.integers(-2, 2))
    vertex = st.integers(0, g.n - 1)
    presets = [(0, 0)] + data.draw(st.lists(st.tuples(vertex, st.integers(0, 1)), max_size=3))
    max_nodes = data.draw(st.one_of(st.none(), st.integers(1, 40)))
    got = _fresh_search(g.adjacency_lists, t, presets, max_nodes, None)[5]
    assert got == reference_propagations(g.adjacency_lists, t, presets, max_nodes)


@pytest.mark.parametrize("max_nodes", [None, 50])
@pytest.mark.parametrize("t", [-2, -1, 0, 1, 2])
def test_solver_matches_reference_with_wide_fields(t, max_nodes):
    # a hub joined to every vertex of 65 disjoint K4s has degree 260: its cap
    # or d - cap passes 128 at every t here, so the counters need wider fields
    hub = [(0, v) for v in range(1, 261)]
    pairs = list(itertools.combinations(range(4), 2))
    k4s = [(v + i, v + j) for v in range(1, 261, 4) for i, j in pairs]
    adj = Graph.from_edges(261, hub + k4s).adjacency_lists
    assert _Solver(adj, t).step > 1
    _assert_same_solve(adj, t, [(0, 0)], max_nodes)


def test_rows_from_bytes_are_sums_of_shifted_ones():
    # PG(2,5) at t=1 has 1-byte fields; the hub of the star K(1,300) has cap
    # 150 at t=0, so need is 152 and its fields are 2 bytes
    star = Graph.from_edges(301, [(0, v) for v in range(1, 301)])
    for g, t, step in (get_graph(5), 1, 1), (star, 0, 2):
        adj = g.adjacency_lists
        solver = _Solver(adj, t)
        assert solver.step == step
        for v in range(g.n):
            assert solver._row(v) == sum(1 << (u * solver.width) for u in adj[v])
            assert solver.rows[v] == solver._row(v)


def test_max_intimacy_scan_builds_each_row_once_per_width(monkeypatch):
    # PG(2,5) scans t = 1, then 0, both on 1-byte fields, so t = 0 reads the
    # rows that t = 1 built; the tree is the pinned one
    built = []
    row = _Solver._row

    def spy(self, v):
        built.append((self.width, v))
        return row(self, v)

    monkeypatch.setattr(_Solver, "_row", spy)
    best, res = exhaustive_max_intimacy(get_graph(5))
    assert (best, res.nodes_explored, res.details["conflicts"]) == (0, 1771, 872)
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize("max_nodes", [None, 1])
@pytest.mark.parametrize("t", [-2, -1, 0, 1, 2])
def test_solver_matches_reference_with_negative_caps(t, max_nodes):
    # at t >= 1 the isolated vertex 4 has cap < 0 and no neighbour to reach
    # it, so only the search meets it; the pendant 5 adds a neighbour that
    # can take no side
    k4 = list(itertools.combinations(range(4), 2))
    for n, edges in (5, k4), (6, k4 + [(3, 5)]):
        adj = Graph.from_edges(n, edges).adjacency_lists
        for presets in [(0, 0)], [(1, 1)], [(4, 0)]:
            _assert_same_solve(adj, t, presets, max_nodes)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_presets_form_a_flag_triangle(q):
    pl, g = get_plane(q), get_graph(q)
    n = pl.n
    presets = _presets(g, 1)
    assert [s for _, s in presets] == [0] * 5
    p0, l0, l1, p1, p2 = [v for v, _ in presets]
    assert p0 == 0 and p1 < n and p2 < n and l0 >= n and l1 >= n
    lines = [set(row) for row in pl.pencils.tolist()]
    assert [j + n for j, line in enumerate(lines) if {p0, p1} <= line] == [l0]
    assert [j + n for j, line in enumerate(lines) if {p0, p2} <= line] == [l1]
    assert p1 != p0 and p2 != p0 and l0 != l1
    assert not any({p0, p1, p2} <= line for line in lines)


def test_only_vertex_0_is_pinned_below_two_own_neighbours():
    # a vertex of degree q + 1 needs ceil((q + 1 + 2t)/2) own-side neighbours
    for q, t in [(2, -1), (2, -2), (3, -1), (4, -2)]:
        g = get_graph(q)
        assert _presets(g, t) == [(0, 0)]
        assert exhaustive_exists(g, t).details["presets"] == 1
    assert len(_presets(get_graph(4), -1)) == 5
    assert _presets(untagged(get_graph(5)), 1) == [(0, 0)]
    assert _presets(complete_graph(6), 1) == [(0, 0)]


def test_infeasible_t_short_circuits():
    g = get_graph(2)  # 3-regular: margin caps at 3, so t=2 needs d_own > d
    res = exhaustive_exists(g, 2)
    assert res.status == "exhausted_none"
    assert res.nodes_explored == 0


def test_brute_force_rejects_large_graph():
    with pytest.raises(ValueError):
        brute_force_exists(get_graph(3), 0)


def test_brute_force_at_its_cap_holds_int8_blocks():
    # 20 vertices, every one of the 2^19 assignments: int8 sides, counts and
    # margins in blocks of 2^16 rows; int64 ones held 64.8 MB
    g = random_bipartite(random.Random(7), 10, 10, 0.5)
    assert g.n == 20
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        found = brute_force_exists(g, 3)
        peak = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
    assert found is (exhaustive_exists(g, 3).status == "found") is False
    assert peak < 16, peak


@pytest.mark.parametrize("t,expect", [(0, True), (1, False), (-2, True), (-1, True), (2, False)])
def test_bruteforce_fano(t, expect):
    g = get_graph(2)
    assert brute_force_exists(g, t) is expect
    # the search from the flag triangle (t >= 0) or from vertex 0 agrees
    assert (exhaustive_exists(g, t).status == "found") is expect


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_exhaustive_matches_bruteforce(data):
    nl = data.draw(st.integers(2, 6))
    nr = data.draw(st.integers(2, 6))
    seed = data.draw(st.integers(0, 10**6))
    t = data.draw(st.sampled_from([-1, 0, 1]))
    g = random_bipartite(random.Random(seed), nl, nr, p=0.5)
    truth = brute_force_exists(g, t)
    res = exhaustive_exists(g, t)
    assert (res.status == "found") is truth
    if truth:
        assert margins(g, res.witness).partition_intimacy >= t


def test_regular_graphs_admit_near_internal():
    # every regular graph here splits with margin >= -2 everywhere
    for g in (get_graph(2), get_graph(3), complete_graph(4), complete_graph(5)):
        t, res = exhaustive_max_intimacy(g)
        assert t >= -1


def test_search_result_json_schema():
    g = get_graph(2)
    doc = exhaustive_exists(g, 0).to_json(g.labels)
    assert set(doc) == {"status", "nodes_explored", "wall_time", "details", "witness"}
    assert doc["status"] == "found"
    assert isinstance(doc["nodes_explored"], int)
    assert doc["witness"]["assignment"]
    empty = exhaustive_exists(g, 2).to_json(g.labels)
    assert empty["witness"] is None


def test_anneal_from_baer_seed():
    q = 9
    g = get_graph(q)
    init = pp.construct_baer_partition(get_plane(q))
    res = anneal_search(g, 1, AnnealParams(seed=0, restarts=1, steps=5), init=init)
    assert res.status == "found"
    assert res.details["step"] == 0
    assert res.nodes_explored == 0
    assert margins(g, res.witness).partition_intimacy >= 1


def test_anneal_cold_start_pg2_4():
    g = get_graph(4)
    res = anneal_search(g, 0, AnnealParams(seed=2, restarts=3, steps=300))
    assert res.status == "found"
    assert margins(g, res.witness).partition_intimacy >= 0


def test_anneal_never_fakes_a_witness():
    # no 1-internal partition of this graph exists; anneal may only time out
    g = get_graph(3)
    for seed in range(5):
        res = anneal_search(g, 1, AnnealParams(seed=seed, restarts=2, steps=60))
        assert res.status == "timeout"
        assert res.witness is None
        assert res.details["best_objective"] > 0


def test_anneal_default_params_time_out_on_pg2_5():
    # PG(2,5) has no 1-internal partition: every default run spends its whole budget;
    # the best objectives and aspiration counts pin the full 30,000-step trajectories
    g = get_graph(5)
    for seed, aspirations in enumerate([10, 6, 12, 10, 7]):
        res = anneal_search(g, 1, AnnealParams(seed=seed))
        assert res.status == "timeout"
        assert res.witness is None
        assert res.details["best_objective"] == 4
        assert res.details["aspirations"] == aspirations
        assert res.nodes_explored == 10 * 3000


# PG(2,7) t=1 with the default budget, by seed: steps to the witness, all in
# restart 0, and the sha256 of its side bytes
PG2_7_DEFAULT_RUNS = {
    0: (368, "22d80a3c6f6611714f3cdfb7e3f0010da4de92a6bc77ca390453523743ee05c8"),
    1: (1462, "c50a3964f66ed9da8ff331c4408a8fb10f896db61050230f06bb030af51cd565"),
    2: (2040, "5660544ea57cfa5af189a64161bc13bfc0bfe1ea591af549fc26fa08786a34ed"),
    3: (547, "80e21ef28e304d4cc1e6446e13967f4102948ea10a657fcb4968b12d4261bad2"),
    4: (2670, "fa65848dd676c01939ff4e0eeab03b3924293c282e4fefc3b3c31e32eba8a0b5"),
}


def _assert_pg2_7_default_run(res, seed):
    steps, digest = PG2_7_DEFAULT_RUNS[seed]
    assert res.status == "found"
    assert res.details["best_objective"] == 0
    assert res.nodes_explored == steps
    assert res.details["restart"] == 0 and res.details["step"] == steps
    assert hashlib.sha256(res.witness.side.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", range(1, 5))
def test_anneal_default_params_find_pg2_7(seed):
    # seed 0 is test_anneal_default_budget_pg2_7
    g = get_graph(7)
    res = anneal_search(g, 1, AnnealParams(seed=seed))
    _assert_pg2_7_default_run(res, seed)
    assert margins(g, res.witness).partition_intimacy >= 1


def test_anneal_pg2_7_seeds_0_to_49_as_the_readme_states():
    # README: a witness for each of the seeds 0-49, in 2,119 steps at the
    # median and 13,698 at most
    g = get_graph(7)
    steps = []
    for seed in range(50):
        res = anneal_search(g, 1, AnnealParams(seed=seed))
        assert res.status == "found"
        steps.append(res.nodes_explored)
    assert statistics.median(steps) == 2119
    assert max(steps) == 13698


def test_anneal_deterministic():
    g = get_graph(4)
    p = AnnealParams(seed=7, restarts=2, steps=120)
    r1 = anneal_search(g, 0, p)
    r2 = anneal_search(g, 0, p)
    assert r1.status == r2.status
    assert r1.nodes_explored == r2.nodes_explored
    assert r1.details == r2.details
    if r1.witness is not None:
        assert r1.witness.side.tolist() == r2.witness.side.tolist()


def test_anneal_seed_changes_trajectory():
    g = get_graph(4)
    r1 = anneal_search(g, 0, AnnealParams(seed=1, restarts=1, steps=50))
    r2 = anneal_search(g, 0, AnnealParams(seed=2, restarts=1, steps=50))
    different = (
        r1.nodes_explored != r2.nodes_explored
        or r1.details != r2.details
        or (
            r1.witness is not None
            and r2.witness is not None
            and r1.witness.side.tolist() != r2.witness.side.tolist()
        )
    )
    assert different


def test_anneal_rejects_mismatched_init():
    g = get_graph(2)  # 14 vertices
    short = np.zeros(g.n - 1, dtype=np.uint8)
    short[0] = 1
    for init in (pp.construct_baer_partition(get_plane(4)), pp.Partition(short)):
        for search in (anneal_search, reference_anneal):
            with pytest.raises(ValueError, match="init partition does not match the graph"):
                search(g, 0, AnnealParams(restarts=1, steps=1), init=init)


def test_witness_provenance_labels():
    g = get_graph(3)
    res = exhaustive_exists(g, 0)
    assert res.witness.provenance["construction"] == "exhaustive"
    assert res.witness.provenance["parameters"]["t"] == 0
    res2 = anneal_search(g, 0, AnnealParams(seed=3, restarts=2, steps=200))
    if res2.witness is not None:
        assert res2.witness.provenance["construction"] == "anneal"
        assert res2.witness.provenance["parameters"]["seed"] == 3


def _assert_same_run(res, ref):
    assert res.status == ref.status
    assert res.nodes_explored == ref.nodes_explored
    assert res.details == ref.details
    if ref.witness is None:
        assert res.witness is None
    else:
        assert res.witness.side.tolist() == ref.witness.side.tolist()


@pytest.mark.parametrize(
    "q, t, seed",
    [(q, t, seed) for q in (2, 3, 4, 5) for t in (-1, 0, 1) for seed in (0, 1, 2)]
    # large neighbourhoods; PG(2,8) has odd degree 9, so one flip can move both
    # the lose_of and the gain_of term of a neighbour
    + [(q, t, seed) for q in (8, 9) for t in (1, 2) for seed in (0, 1, 2)],
)
def test_anneal_matches_reference(q, t, seed):
    g = get_graph(q)
    params = AnnealParams(seed=seed, restarts=2, steps=150 if q <= 5 else 100)
    _assert_same_run(anneal_search(g, t, params), reference_anneal(g, t, params))


def test_anneal_leaves_no_adjacency_lists_on_the_graph():
    # the tabu search builds its neighbour tuples for the call, so a cached
    # graph it searched keeps no Python lists; its trajectory is unchanged
    g = untagged(get_graph(5))
    params = AnnealParams(seed=1, restarts=2, steps=150)
    res = anneal_search(g, 1, params)
    assert "adjacency_lists" not in g.__dict__
    _assert_same_run(res, reference_anneal(g, 1, params))


@pytest.mark.parametrize("t", [1, 2])
def test_anneal_matches_reference_baer_seeded(t):
    g = get_graph(9)
    init = pp.construct_baer_partition(get_plane(9))
    params = AnnealParams(seed=0, restarts=2, steps=20)
    _assert_same_run(
        anneal_search(g, t, params, init=init),
        reference_anneal(g, t, params, init=init),
    )


@pytest.mark.parametrize("seed", [0, 4])
def test_anneal_aspiration_matches_reference(seed):
    # PG(2,3) has no 1-internal partition, so the whole budget runs and tabu
    # vertices get flipped for beating the restart's best objective
    g = get_graph(3)
    params = AnnealParams(seed=seed, restarts=2, steps=200)
    res = anneal_search(g, 1, params)
    assert res.status == "timeout"
    assert res.details["aspirations"] > 0
    _assert_same_run(res, reference_anneal(g, 1, params))


def test_anneal_steps_without_an_eligible_vertex():
    # each class of a two-vertex graph holds one vertex, so no flip is allowed
    g = Graph.from_edges(2, [(0, 1)])
    params = AnnealParams(restarts=3, steps=7)
    res = anneal_search(g, 1, params)
    assert res.status == "timeout"
    assert res.nodes_explored == 21
    assert res.details["best_objective"] == 6
    _assert_same_run(res, reference_anneal(g, 1, params))


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 + 3])
def test_inline_index_draw_is_randrange(seed):
    # anneal_search draws its tie breaks and tabu tenures with this loop in
    # place of rng.randrange(n); the trajectories, and reference_anneal as
    # their oracle, depend on both giving the same value and the same state after
    ns = list(range(2, 301)) + [512, 1024, 4096]
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        for n in ns:
            k = n.bit_length()
            for _ in range(5):
                v = ours.getrandbits(k)
                while v >= n:
                    v = ours.getrandbits(k)
                assert v == theirs.randrange(n)
                assert ours.getstate() == theirs.getstate()


def test_anneal_default_budget_pg2_7():
    # criterion-9's run: this count was recorded with the rescanning loop
    g = get_graph(7)
    res = anneal_search(g, 1, AnnealParams(seed=0))
    _assert_pg2_7_default_run(res, 0)
    assert margins(g, res.witness).partition_intimacy >= 1


@st.composite
def small_graphs(draw):
    """Graphs with isolated and degree-1 vertices, not necessarily bipartite."""
    n = draw(st.integers(2, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    return Graph.from_edges(n, edges)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_anneal_gain_cache_matches_reference(data):
    g = data.draw(small_graphs())
    t = data.draw(st.integers(-2, 2))
    params = AnnealParams(
        seed=data.draw(st.integers(0, 10**6)),
        restarts=data.draw(st.integers(1, 3)),
        # past 10 steps the first tenures start to end
        steps=data.draw(st.integers(1, 60)),
    )
    init = None
    kind = data.draw(st.sampled_from(["cold", "single", "given"]))
    if kind == "single":
        # one class holds one vertex, so flipping that vertex is skipped
        lone = data.draw(st.integers(0, 1))
        side = np.full(g.n, 1 - lone, dtype=np.uint8)
        side[data.draw(st.integers(0, g.n - 1))] = lone
        init = pp.Partition(side=side)
    elif kind == "given":
        bits = data.draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n))
        assume(0 < sum(bits) < g.n)
        init = pp.Partition(side=np.array(bits, dtype=np.uint8))
    _assert_same_run(
        anneal_search(g, t, params, init=init),
        reference_anneal(g, t, params, init=init),
    )
