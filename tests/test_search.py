"""Branch and bound vs unpruned ground truth, plus annealing behavior."""

import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import planepart as pp
from planepart.graphs import Graph
from planepart.search import (
    AnnealParams,
    SearchResult,
    anneal_search,
    brute_force_exists,
    exhaustive_exists,
    exhaustive_max_intimacy,
)
from planepart.verify import margins

from oracles import get_graph, get_plane, random_bipartite, reference_anneal


def complete_graph(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def test_pg2_3_no_1_internal():
    res = exhaustive_exists(get_graph(3), 1)
    assert res.status == "exhausted_none"
    assert res.witness is None
    assert res.nodes_explored > 0


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


def test_workers_agree_with_single():
    g = get_graph(3)
    for t in (0, 1):
        solo = exhaustive_exists(g, t)
        pooled = exhaustive_exists(g, t, workers=2)
        assert solo.status == pooled.status
        if pooled.status == "found":
            assert margins(g, pooled.witness).partition_intimacy >= t


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


def test_pool_workers_raise_the_recursion_limit_too():
    # a path branches once per vertex, deeper than the default limit of 1000
    n = 1200
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    before = sys.getrecursionlimit()
    for workers in (1, 2):
        res = exhaustive_exists(path, -1, workers=workers)
        assert res.status == "found"
        assert margins(path, res.witness).partition_intimacy >= -1
    assert sys.getrecursionlimit() == before


def test_max_seconds_is_one_budget_across_workers():
    # four jobs on two workers: a full budget per job would run for about 2 s
    res = exhaustive_exists(get_graph(7), 1, workers=2, max_seconds=1.0)
    assert res.status == "timeout"
    assert res.wall_time < 1.6


def test_infeasible_t_short_circuits():
    g = get_graph(2)  # 3-regular: margin caps at 3, so t=2 needs d_own > d
    res = exhaustive_exists(g, 2)
    assert res.status == "exhausted_none"
    assert res.nodes_explored == 0


def test_brute_force_rejects_large_graph():
    with pytest.raises(ValueError):
        brute_force_exists(get_graph(3), 0)


@pytest.mark.parametrize("t,expect", [(0, True), (1, False)])
def test_bruteforce_fano(t, expect):
    assert brute_force_exists(get_graph(2), t) is expect


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
    doc = exhaustive_exists(g, 0).to_json()
    assert set(doc) == {"status", "nodes_explored", "wall_time", "details", "witness"}
    assert doc["status"] == "found"
    assert isinstance(doc["nodes_explored"], int)
    assert doc["witness"]["assignment"]
    empty = exhaustive_exists(g, 2).to_json()
    assert empty["witness"] is None


def test_anneal_from_baer_seed():
    q = 9
    g = get_graph(q)
    init = pp.construct_baer_partition(get_plane(q))
    res = anneal_search(g, 1, AnnealParams(seed=0, restarts=1, sweeps=5), init=init)
    assert res.status == "found"
    assert res.details["sweep"] == 0
    assert margins(g, res.witness).partition_intimacy >= 1


def test_anneal_cold_start_pg2_4():
    g = get_graph(4)
    res = anneal_search(g, 0, AnnealParams(seed=2, restarts=3, sweeps=300))
    assert res.status == "found"
    assert margins(g, res.witness).partition_intimacy >= 0


def test_anneal_never_fakes_a_witness():
    # no 1-internal partition of this graph exists; anneal may only time out
    g = get_graph(3)
    for seed in range(5):
        res = anneal_search(g, 1, AnnealParams(seed=seed, restarts=2, sweeps=60))
        assert res.status == "timeout"
        assert res.witness is None
        assert res.details["best_objective"] > 0


def test_anneal_deterministic():
    g = get_graph(4)
    p = AnnealParams(seed=7, restarts=2, sweeps=120)
    r1 = anneal_search(g, 0, p)
    r2 = anneal_search(g, 0, p)
    assert r1.status == r2.status
    assert r1.nodes_explored == r2.nodes_explored
    assert r1.details == r2.details
    if r1.witness is not None:
        assert r1.witness.side.tolist() == r2.witness.side.tolist()


def test_anneal_seed_changes_trajectory():
    g = get_graph(4)
    r1 = anneal_search(g, 0, AnnealParams(seed=1, restarts=1, sweeps=50))
    r2 = anneal_search(g, 0, AnnealParams(seed=2, restarts=1, sweeps=50))
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
    g = get_graph(2)
    init = pp.construct_baer_partition(get_plane(4))
    with pytest.raises(ValueError):
        anneal_search(g, 0, AnnealParams(restarts=1, sweeps=1), init=init)


def test_witness_provenance_labels():
    g = get_graph(3)
    res = exhaustive_exists(g, 0)
    assert res.witness.provenance["construction"] == "exhaustive"
    assert res.witness.provenance["parameters"]["t"] == 0
    res2 = anneal_search(g, 0, AnnealParams(seed=3, restarts=2, sweeps=200))
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


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("t", [-1, 0, 1])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_anneal_matches_reference(q, t, seed):
    g = get_graph(q)
    params = AnnealParams(seed=seed, restarts=2, sweeps=150)
    _assert_same_run(anneal_search(g, t, params), reference_anneal(g, t, params))


@pytest.mark.parametrize("t", [1, 2])
def test_anneal_matches_reference_baer_seeded(t):
    g = get_graph(9)
    init = pp.construct_baer_partition(get_plane(9))
    params = AnnealParams(seed=0, restarts=2, sweeps=20)
    _assert_same_run(
        anneal_search(g, t, params, init=init),
        reference_anneal(g, t, params, init=init),
    )


def test_anneal_default_budget_pg2_7():
    # criterion-9's run: these counts were recorded with the rescanning loop
    res = anneal_search(get_graph(7), 1, AnnealParams(seed=0))
    assert res.status == "timeout"
    assert res.details["best_objective"] == 4
    assert res.nodes_explored == 1_368_000


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
        sweeps=data.draw(st.integers(1, 30)),
        start_temp=data.draw(st.sampled_from([0.3, 1.0, 2.5])),
        cooling=data.draw(st.sampled_from([0.9, 0.995])),
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
