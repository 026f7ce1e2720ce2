"""Margin arithmetic checked against a direct neighbor-scan oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planepart as pp
from planepart.verify import is_internal, is_strict, margins

from oracles import get_graph, get_plane, naive_intimacy, naive_margins, random_partition


# every form a side may take: margins casts it to int8 once it is checked
SIDE_FORMS = [
    lambda side: side,  # uint8, as random_partition makes it
    lambda side: side.astype(bool),
    lambda side: side.astype(np.int64),
    lambda side: side.astype(float),  # 0.0 and 1.0 only
    lambda side: side.tolist(),
]


def _check_against_oracle(g, rng, rounds):
    for _ in range(rounds):
        side = random_partition(rng, g.n)
        want = naive_margins(g, side)
        for form in SIDE_FORMS:
            rep = margins(g, form(side))
            assert rep.margin.tolist() == want
            assert rep.partition_intimacy == naive_intimacy(g, side)


@pytest.mark.parametrize("q", [3, 4])
def test_margins_match_oracle_random(q):
    _check_against_oracle(get_graph(q), random.Random(1000 + q), 100)


def test_margins_match_oracle_off_the_plane():
    # graphs with odd cycles, uneven degrees and isolated vertices (margin 0)
    rng = random.Random(5)
    for n in (2, 5, 9, 16):
        inner = range(1, n - 1)
        edges = [(u, v) for u in inner for v in inner if u < v and rng.random() < 0.4]
        g = pp.Graph.from_edges(n, edges)  # vertices 0 and n-1 isolated
        _check_against_oracle(g, rng, 30)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_own_degree_edge_identity(q):
    # sum_v d_own(v) = 2*(|E| - e(A,B)): own-side edges counted twice
    g = get_graph(q)
    rng = random.Random(77 * q)
    for _ in range(20):
        side = random_partition(rng, g.n)
        rep = margins(g, side)
        d_own = (rep.margin + g.degrees) // 2
        crossing = 0
        for v in range(g.n):
            crossing += sum(1 for u in g.neighbors(v) if side[u] != side[v])
        crossing //= 2
        assert int(d_own.sum()) == 2 * (g.edge_count - crossing)


def test_baer_partition_intimacy_q9():
    q = 9
    part = pp.construct_baer_partition(get_plane(q))
    rep = margins(get_graph(q), part)
    assert rep.partition_intimacy == 1
    assert rep.class_sizes[0] + rep.class_sizes[1] == get_graph(q).n


@pytest.mark.parametrize("q", [3, 4, 5])
def test_single_vertex_class_margin(q):
    g = get_graph(q)
    side = np.zeros(g.n, dtype=np.uint8)
    side[0] = 1
    rep = margins(g, side)
    assert rep.min_margin_b == -(q + 1)
    # floor toward minus infinity: -4 // 2 == -2, -5 // 2 == -3
    assert rep.partition_intimacy == (-(q + 1)) // 2


def test_intimacy_floor_is_toward_minus_infinity():
    g = get_graph(4)  # 5-regular, odd degree gives odd margins
    side = np.zeros(g.n, dtype=np.uint8)
    side[0] = 1
    rep = margins(g, side)
    assert rep.min_margin_b == -5
    assert rep.partition_intimacy == -3


def test_is_internal_examples():
    g3 = get_graph(3)
    assert is_internal(g3, pp.construct_combinatorial(get_plane(3)))
    lonely = np.zeros(g3.n, dtype=np.uint8)
    lonely[0] = 1
    assert not is_internal(g3, lonely)
    g5 = get_graph(5)
    assert is_internal(g5, pp.construct_oval(get_plane(5), variant="interior_skew"))


def test_is_strict_examples():
    assert is_strict(get_graph(8), pp.construct_even(get_plane(8)))
    # odd-degree vertices can tie at margin 0, which strictness rejects
    assert not is_strict(get_graph(3), pp.construct_combinatorial(get_plane(3)))
    g = get_graph(3)
    side = np.ones(g.n, dtype=np.uint8)
    side[0] = 0
    assert not is_strict(g, side)


def test_margins_rejects_empty_class():
    g = get_graph(2)
    with pytest.raises(ValueError):
        margins(g, np.zeros(g.n, dtype=np.uint8))
    with pytest.raises(ValueError):
        margins(g, np.ones(g.n, dtype=np.uint8))


def test_margins_rejects_bad_side_values():
    # integers other than 0 and 1 in every integer form, and fractional
    # sides, which must not be truncated to 0 or 1 before they are checked
    g = get_graph(4)
    for bad in (2, -1, 0.5, 1.5):
        side = np.zeros(g.n)
        side[1] = 1
        side[0] = bad
        forms = [side, side.tolist()]
        if bad == int(bad):
            ints = side.astype(np.int64)
            forms += [ints, ints.astype(np.uint8), ints.tolist()]  # uint8 wraps -1 to 255
        for form in forms:
            with pytest.raises(ValueError):
                margins(g, form)


def test_margins_rejects_text_and_short_sides():
    g = get_graph(2)
    text = ["0"] * g.n
    text[0] = "1"
    with pytest.raises(ValueError):
        margins(g, text)
    with pytest.raises(ValueError):
        margins(g, np.array(text))
    with pytest.raises(ValueError):
        margins(g, np.zeros(g.n - 1, dtype=np.uint8))


def test_margins_rejects_a_partition_of_another_graph():
    # a Partition is checked once, when it is built; margins checks its length
    part = pp.construct_baer_partition(get_plane(4))
    with pytest.raises(ValueError, match="covers 42 vertices, graph has 26"):
        margins(get_graph(3), part)


def test_margins_rejects_a_2d_side():
    g = get_graph(2)
    side = np.zeros((2, g.n // 2), dtype=np.uint8)
    side[0, 0] = 1
    with pytest.raises(ValueError, match="1-D array"):
        margins(g, side)
    with pytest.raises(ValueError, match="1-D array"):
        margins(g, side.reshape(g.n, 1))


def test_report_json_schema():
    g = get_graph(2)
    pl = get_plane(2)
    side = np.zeros(g.n, dtype=np.uint8)
    side[g.n - 1] = 1
    rep = margins(g, side)
    labels = pl.labels
    doc = rep.to_json(labels)
    assert set(doc) == {"margins", "summary"}
    assert len(doc["margins"]) == g.n
    assert all(lbl in doc["margins"] for lbl in labels)
    s = doc["summary"]
    assert s["class_sizes"] == {"A": g.n - 1, "B": 1}
    assert s["min_margin_B"] == -3
    assert s["partition_intimacy"] == -2
    assert all(isinstance(v, int) for v in doc["margins"].values())


def test_graph_labels_default_to_vertex_ids():
    # a graph built without labels names vertex v "v<v>"; the report's keys
    # are the labels it is handed
    g = pp.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.labels == ["v0", "v1", "v2", "v3"]
    assert g.label_ids == {"v0": 0, "v1": 1, "v2": 2, "v3": 3}
    assert pp.Graph(g.indptr, g.indices).labels == g.labels
    named = pp.Graph.from_edges(2, [(0, 1)], n_left=1, labels=["P", "L"])
    assert named.labels == ["P", "L"] and named.n_left == 1
    doc = margins(g, [0, 0, 1, 1]).to_json(g.labels)
    assert list(doc["margins"]) == g.labels


@settings(max_examples=60)
@given(st.lists(st.integers(0, 1), min_size=14, max_size=14))
def test_margins_property_fano(bits):
    side = np.array(bits, dtype=np.uint8)
    g = get_graph(2)
    if side.sum() in (0, g.n):
        side[0] ^= 1
    rep = margins(g, side)
    assert rep.margin.tolist() == naive_margins(g, side)
    assert rep.partition_intimacy == naive_intimacy(g, side)
    assert is_internal(g, side) == (rep.partition_intimacy >= 0)
