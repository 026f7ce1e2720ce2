"""Margin arithmetic checked against a direct neighbor-scan oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planepart as pp
from planepart.verify import _MARGIN_BLOCK, is_internal, is_strict, margins

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


def _whole_array_margin(g, side):
    """The margins from one comparison and one running count over the whole adjacency."""
    same = side[g.indices] == np.repeat(side, g.degrees)
    cum = np.zeros(same.size + 1, dtype=np.int32)
    np.cumsum(same, out=cum[1:])
    return 2 * (cum[g.indptr[1:]] - cum[g.indptr[:-1]]) - g.degrees


def _check_against_whole_array(g, side):
    rep = margins(g, side)
    want = _whole_array_margin(g, side)
    assert rep.margin.dtype == want.dtype and (rep.margin == want).all()
    assert rep.min_margin_a == want[side == 0].min()
    assert rep.min_margin_b == want[side == 1].min()
    assert rep.partition_intimacy == (want // 2).min()


def _rows(rng, n, entries):
    """``n`` neighbour rows holding ``entries`` entries in all, each row kept as made.

    Rows need not be symmetric, so any entry count is possible; with about
    four entries a row, a few dozen rows are empty.
    """
    sizes = [0] * n
    for _ in range(entries):
        sizes[rng.randrange(n)] += 1
    return [[u for u in rng.sample(range(n), k + 1) if u != v][:k] for v, k in enumerate(sizes)]


@pytest.mark.parametrize("extra", [-1, 0, 1, _MARGIN_BLOCK + 3])
def test_margins_match_the_whole_array_count_at_block_ends(extra):
    # B-1 and B entries are one block, B+1 entries two, 2B+3 three
    rng = random.Random(extra)
    entries = _MARGIN_BLOCK + extra
    g = pp.Graph.from_neighbor_lists(_rows(rng, entries // 4, entries))
    assert g.indices.size == entries
    assert len(g.vertex_blocks(_MARGIN_BLOCK)) == -(-entries // _MARGIN_BLOCK)
    assert (g.degrees == 0).any()
    for _ in range(3):
        _check_against_whole_array(g, random_partition(rng, g.n))


def test_margins_across_blocks_with_isolated_vertices_and_a_hub():
    b = _MARGIN_BLOCK
    rng = random.Random(3)
    # degree 1 but for B-1, B, B+2 and B+4: a block ends after B+2, isolated
    # vertices close it, and the next one starts at B+3
    n = b + 8
    zero = {b - 1, b, b + 2, b + 4}
    live = [v for v in range(n) if v not in zero]
    pair = {u: v for u, v in zip(live[::2], live[1::2])}
    pair.update({v: u for u, v in pair.items()})
    g = pp.Graph.from_neighbor_lists([[pair[v]] if v in pair else [] for v in range(n)])
    assert [v for v in range(n) if g.degrees[v] == 0] == sorted(zero)
    assert len(g.vertex_blocks(b)) == 2
    _check_against_whole_array(g, random_partition(rng, n))
    # vertex 3 is joined to every other vertex: its row alone is more than a block
    n = b + 100
    hub = [[3] if v != 3 else [u for u in range(n) if u != 3] for v in range(n)]
    g = pp.Graph.from_neighbor_lists(hub)
    assert (3, 4) in g.vertex_blocks(b)
    for _ in range(3):
        _check_against_whole_array(g, random_partition(rng, n))


@pytest.mark.parametrize("q", [2, 3, 16, 61, 64])
def test_margins_match_the_whole_array_count_on_planes(q):
    g = get_graph(q)
    rng = random.Random(q)
    for _ in range(3):
        _check_against_whole_array(g, random_partition(rng, g.n))


def test_one_block_margins_search_no_block_ends(monkeypatch):
    # a graph within one block runs the whole-array count, with no searchsorted
    def no_search(*args, **kwargs):
        raise AssertionError("searchsorted called on a one-block graph")

    g = get_graph(7)
    assert g.indices.size <= _MARGIN_BLOCK
    side = random_partition(random.Random(0), g.n)
    monkeypatch.setattr(np, "searchsorted", no_search)
    _check_against_whole_array(g, side)


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
