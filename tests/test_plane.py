import io
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import planepart as pp
from planepart import incidence_graph, plane_of_order, singer_cycle, verify_subplane
from planepart import plane as plane_module
from planepart.constructions import construct_baer_partition
from planepart.fields import MAX_FIELD_ORDER, prime_factors
from planepart.graphs import _DIMACS_BLOCK, Graph
from planepart.plane import collineation_perm, least_primitive_cubic, vertex_ids
from planepart.verify import margins
from oracles import (
    ReferenceField,
    dense_incidence,
    get_baer,
    get_graph,
    get_plane,
    girth,
    random_bipartite,
    reference_action,
    reference_dimacs,
    reference_least_primitive_cubic,
    reference_labels,
    reference_mat_inv,
    reference_triples,
)


def _prime_powers(lo, hi):
    return [q for q in range(lo, hi + 1) if len(prime_factors(q)) == 1]


def _dimacs(g):
    fh = io.StringIO()
    g.to_dimacs(fh)
    return fh.getvalue()


def test_fano_counts():
    pl = get_plane(2)
    assert pl.n == 7
    assert dense_incidence(pl).sum() == 21


def test_q3_graph_shape():
    g = get_graph(3)
    assert g.n == 26
    assert set(g.degrees.tolist()) == {4}
    assert g.edge_count == 52
    assert girth(g) == 6


def test_q4_counts():
    pl = get_plane(4)
    assert pl.n == 21
    g = get_graph(4)
    assert set(g.degrees.tolist()) == {5}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_edge_count_formula(q):
    g = get_graph(q)
    assert g.edge_count == (q + 1) * (q * q + q + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_incidence_graph_reads_the_plane_buffer(q):
    # the point half of the indices is the pencils shifted by n, the line
    # half is the pencils themselves, and the plane stores neither twice
    pl = plane_of_order(q)
    n, r = pl.n, q + 1
    g = incidence_graph(pl)
    assert (g.indices[: n * r].reshape(n, r) == pl.pencils + n).all()
    assert (g.indices[n * r :].reshape(n, r) == pl.pencils).all()
    assert np.shares_memory(g.indices[n * r :], pl.pencils)
    # a second graph of the plane writes the same point half
    assert (incidence_graph(pl).indices == g.indices).all()


@pytest.mark.parametrize("q", [2, 4, 9])
def test_girth_six(q):
    assert girth(get_graph(q)) == 6


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_any_two_points_span_one_line(q):
    pl = get_plane(q)
    inc = dense_incidence(pl).astype(np.int64)
    common = inc @ inc.T
    off = common[~np.eye(pl.n, dtype=bool)]
    assert (off == 1).all()
    # dually for lines
    common_l = inc.T @ inc
    off_l = common_l[~np.eye(pl.n, dtype=bool)]
    assert (off_l == 1).all()


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_per_line_and_per_point_counts(q):
    inc = dense_incidence(get_plane(q))
    assert inc.shape == (q * q + q + 1,) * 2
    assert (inc.sum(axis=0) == q + 1).all()
    assert (inc.sum(axis=1) == q + 1).all()


def test_normalization_last_nonzero_one():
    pl = get_plane(9)
    for t in pl.coords.tolist():
        last = next(c for c in reversed(t) if c != 0)
        assert last == 1


def test_normalize_scaling_invariance():
    pl = get_plane(5)
    t = pl.coords
    for s in range(1, pl.q):
        assert (pl.index(pl.field.mul_table[s, t]) == np.arange(pl.n)).all()
    assert int(pl.index((0, 0, 3))) == int(pl.index((0, 0, 1)))


@pytest.mark.parametrize("triple", [(5, 0, 1), (0, -1, 1), (0, 0, 0)])
def test_index_rejects_triples_outside_the_plane(triple):
    with pytest.raises(ValueError):
        get_plane(5).index(triple)


def test_index_rejects_non_integer_coordinates():
    pl = get_plane(5)
    # (1.5, 0, 1) once truncated to (1:0:1); an integral float still names it
    assert int(pl.index((1.0, 0, 1))) == int(pl.index((1, 0, 1))) == 7
    for triple in [(1.5, 0, 1), (0, 0.25, 1), (float("nan"), 0, 1)]:
        with pytest.raises(ValueError):
            pl.index(triple)


def test_vertex_ids_is_a_checked_sorted_set():
    ids = vertex_ids([5, 3.0, 5, np.int32(0)], 31)
    assert ids.dtype == np.int64 and ids.tolist() == [0, 3, 5]
    assert vertex_ids([], 31).tolist() == []
    # the first bad entry in sorted order is named
    with pytest.raises(ValueError, match=r"^point -1 is not an id in \[0, 31\)$"):
        vertex_ids([40, 2, -1], 31, "point")


def test_hits_rejects_ids_outside_the_plane():
    # PG(2,5): hits([-1]) once counted point 30 and hits([4.7]) point 4
    pl = get_plane(5)
    for bad in (-1, pl.n, 0.5, 4.7):
        with pytest.raises(ValueError, match=r"^id .* is not an id in \[0, 31\)$"):
            pl.hits([0, bad])
    # repeats count, and an integral float names its id
    assert (pl.hits([4, 4.0]) == 2 * pl.hits([4])).all()


def test_labels_format():
    pl = get_plane(2)
    labels = pl.labels
    assert labels[0].startswith("P(") and labels[0].endswith(")")
    assert labels[pl.n].startswith("L[") and labels[pl.n].endswith("]")
    assert len(labels) == 2 * pl.n


def test_incidence_symmetric_roles():
    pl = get_plane(3)
    # same triple list serves points and lines; incidence via dot product
    f = ReferenceField(pl.field.p, pl.field.h)
    for i in (0, 5, 12):
        for j in (1, 4, 9):
            dot = 0
            for a, b in zip(pl.coords[i].tolist(), pl.coords[j].tolist()):
                dot = f.add(dot, f.mul(a, b))
            assert pl.is_incident(i, j) == (dot == 0)


@pytest.mark.parametrize("bad", [-1, 13, 0.5])
def test_is_incident_follows_the_id_rule(bad):
    pl = get_plane(3)
    with pytest.raises(ValueError, match=r"^point .* is not an id in \[0, 13\)$"):
        pl.is_incident(bad, 0)
    with pytest.raises(ValueError, match=r"^line .* is not an id in \[0, 13\)$"):
        pl.is_incident(0, bad)
    # integral floats pass, as everywhere in the id rule
    assert pl.is_incident(0.0, 1.0) == pl.is_incident(0, 1)


def test_dimacs_export_shape():
    g = get_graph(2)
    text = _dimacs(g)
    lines = text.strip().splitlines()
    assert lines[0] == "p edge 14 21"
    assert len(lines) == 22
    for ln in lines[1:]:
        tag, u, v = ln.split()
        assert tag == "e"
        assert 1 <= int(u) < int(v) <= 14


@pytest.mark.parametrize("q", _prime_powers(2, 64))
def test_pencils_match_dense_oracle(q):
    pl = get_plane(q)
    inc = dense_incidence(pl)
    expect = np.array([np.flatnonzero(inc[:, j]) for j in range(pl.n)])
    assert pl.pencils.shape == (pl.n, q + 1)
    assert (pl.pencils == expect).all()


def test_corrupt_tables_rejected():
    f = pp.make_field(2, 2)
    f.mul_table = f.mul_table.copy()
    f.mul_table[2, 3] = f.mul_table[3, 2] = 2
    # the line check fires before the repeat and count checks of its block
    with pytest.raises(RuntimeError, match="off its line"):
        pp.Plane(f)


def test_corrupt_pencils_past_the_first_block_are_rejected():
    pl = get_plane(25)
    assert pl.n > 600 > plane_module._CHECK_BLOCK
    rows = pl.pencils.copy()
    rows[600, 1] = rows[600, 0]  # a point of line 600, so on its line
    with pytest.raises(RuntimeError, match="^pencil repeats a point; field tables corrupt$"):
        plane_module._check_pencils(pl.field, pl.coords, rows)
    # with every product 0, every point passes every line's equation: a row
    # whose least point is swapped for a smaller id passes the line and
    # repeat checks, and two points then lie on q and q+2 lines
    f = pp.make_field(5, 2)
    f.mul_table = np.zeros_like(f.mul_table)
    rows = pl.pencils.copy()
    j = 512 + int(np.argmax(rows[512:, 0] > 0))
    rows[j, 0] -= 1
    with pytest.raises(RuntimeError, match="^point on a wrong number of lines; field tables corrupt$"):
        plane_module._check_pencils(f, pl.coords, rows)
    plane_module._check_pencils(pl.field, pl.coords, pl.pencils)


@pytest.mark.parametrize("q", [16, 64])
def test_check_pencils_rejects_each_fault_in_the_last_block(q):
    pl = get_plane(q)
    n, block = pl.n, plane_module._CHECK_BLOCK
    # the last row sits in the last of at least three blocks
    assert (n - 1) // block >= 2
    j = n - 1
    rows = pl.pencils.copy()
    rows[j, 0] = np.flatnonzero(pl.hits([j]) == 0)[0]  # a point off line j
    with pytest.raises(RuntimeError, match="^pencil point off its line; field tables corrupt$"):
        plane_module._check_pencils(pl.field, pl.coords, rows)
    rows = pl.pencils.copy()
    rows[j, 1] = rows[j, 0]
    with pytest.raises(RuntimeError, match="^pencil repeats a point; field tables corrupt$"):
        plane_module._check_pencils(pl.field, pl.coords, rows)
    # with every product 0 every point passes every line's equation, so
    # lowering the least point of row j passes the line and repeat checks
    # and leaves two points on q and q+2 lines
    f = pp.make_field(pl.field.p, pl.field.h)
    f.mul_table = np.zeros_like(f.mul_table)
    rows = pl.pencils.copy()
    assert rows[j, 0] > 0
    rows[j, 0] -= 1
    with pytest.raises(RuntimeError, match="^point on a wrong number of lines; field tables corrupt$"):
        plane_module._check_pencils(f, pl.coords, rows)
    plane_module._check_pencils(pl.field, pl.coords, pl.pencils)


@pytest.mark.parametrize("q", [16, 64])
def test_field_tables_are_intp_and_the_plane_arrays_int32(q):
    pl = get_plane(q)
    for name in ("add_table", "mul_table", "neg_table", "inv_table"):
        assert getattr(pl.field, name).dtype == np.intp, name
    assert pl.pencils.dtype == np.int32
    assert pl.coords.dtype == np.int32
    assert get_graph(q).indices.dtype == np.int32


def _swap(t, a, b):
    t[[a, b]] = t[[b, a]]


def _bump(t, a, b):
    t[a, b] = (t[a, b] + 1) % len(t)


# every swap of two entries of a 1-D table and every bump of one entry of a 2-D one
_CORRUPTIONS = {"inv_table": _swap, "neg_table": _swap, "add_table": _bump, "mul_table": _bump}


@pytest.mark.parametrize("p,h", [(2, 2), (5, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("table", _CORRUPTIONS)
def test_every_single_table_corruption_is_rejected(p, h, table):
    q, corrupt = p**h, _CORRUPTIONS[table]
    entries = [(a, b) for a in range(q) for b in range(q) if corrupt is _bump or a < b]
    for a, b in entries:
        f = pp.make_field(p, h)
        t = getattr(f, table).copy()
        corrupt(t, a, b)
        setattr(f, table, t)
        with pytest.raises(RuntimeError, match="field tables corrupt"):
            pp.Plane(f)


@pytest.mark.parametrize("q", _prime_powers(2, MAX_FIELD_ORDER))
def test_labels_and_coords_follow_the_canonical_order(q):
    pl = get_plane(q)
    assert pl.labels == reference_labels(q)
    assert pl.coords.dtype == np.int32
    assert pl.coords.tolist() == [list(t) for t in reference_triples(q)]


# q=32 has 69,762 adjacency entries: to_dimacs writes four blocks of 496
# vertices (16,368 entries, 2^14 less 16) and a last one of 130 vertices
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 32])
def test_dimacs_matches_reference_on_planes(q):
    g = get_graph(q)
    assert _dimacs(g) == reference_dimacs(g)


def _matching(n, isolated) -> list[list[int]]:
    """Neighbour rows pairing the vertices not in ``isolated`` in id order."""
    live = [v for v in range(n) if v not in isolated]
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(live[0::2], live[1::2]):
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def test_dimacs_matches_reference_on_other_graphs():
    rng = random.Random(11)
    graphs = [random_bipartite(rng, a, a, 0.5) for a in (1, 3, 6, 10)]
    graphs.append(Graph.from_edges(5, [(0, 1), (1, 2), (3, 1)]))  # vertex 4 isolated
    # the CSR graphs below come from from_neighbor_lists, which keeps each
    # row as given; out of order rows write each edge in its lower end's order
    shuffled = random_bipartite(rng, 30, 30, 0.5).adjacency_lists
    for row in shuffled:
        rng.shuffle(row)
    graphs.append(Graph.from_neighbor_lists(shuffled))
    # degree-1 vertices but for B-1, B, B+2 and B+4 (B = _DIMACS_BLOCK): the
    # first block ends after B+2, so isolated vertices close it, and the
    # second starts at B+3 with B+4 isolated inside it
    b = _DIMACS_BLOCK
    graphs.append(Graph.from_neighbor_lists(_matching(b + 8, {b - 1, b, b + 2, b + 4})))
    # vertex 3 is joined to every other vertex: its row alone is more than a
    # block, and its lower neighbours write their edge to it from their rows
    n = b + 100
    hub = [[3] if v != 3 else [u for u in range(n) if u != 3] for v in range(n)]
    hub[0].append(1)
    hub[1].append(0)
    graphs.append(Graph.from_neighbor_lists(hub))
    for g in graphs:
        assert _dimacs(g) == reference_dimacs(g)


def test_adjacency_lists_are_the_neighbour_rows():
    # isolated vertices first, between and last; graphs of no and one vertex;
    # the planes are copies, as the lists are changed below
    graphs = [Graph.from_neighbor_lists(_matching(12, {0, 1, 4, 7, 8, 11}))]
    graphs += [Graph.from_edges(n, []) for n in (0, 1)]
    graphs += [Graph(get_graph(q).indptr, get_graph(q).indices) for q in (2, 5)]
    for g in graphs:
        lists = g.adjacency_lists
        assert lists == [g.neighbors(v).tolist() for v in range(g.n)]
        # each vertex has a list of its own, so a change to one shows in no other
        assert len({id(a) for a in lists}) == g.n
        for a in lists:
            a.append(-1)
        assert lists == [g.neighbors(v).tolist() + [-1] for v in range(g.n)]


def _row_sums_by_loop(g, values, lo, hi):
    base = g.indptr[lo]
    return [int(values[g.indptr[v] - base : g.indptr[v + 1] - base].sum()) for v in range(lo, hi)]


def test_row_sums_match_a_per_row_loop():
    rng = np.random.default_rng(5)
    # empty rows first (0, 1), between rows (4, 7, 8) and last in the graph (11)
    g = Graph.from_neighbor_lists(_matching(12, {0, 1, 4, 7, 8, 11}))
    no_edges = Graph.from_neighbor_lists([[] for _ in range(4)])
    # every (lo, hi): blocks that end on an empty row, (7, 9) and (11, 12) of
    # empty rows only, and empty blocks
    for graph in (g, no_edges):
        for lo in range(graph.n + 1):
            for hi in range(lo, graph.n + 1):
                m = int(graph.indptr[hi] - graph.indptr[lo])
                for values in (rng.random(m) < 0.5, rng.integers(-9, 10, m, dtype=np.int32)):
                    sums = graph.row_sums(values, lo, hi)
                    assert sums.dtype == np.int32 and sums.shape == (hi - lo,)
                    assert sums.tolist() == _row_sums_by_loop(graph, values, lo, hi), (lo, hi)
    # a hub row between empty rows, and int64 values summed as int64
    hub = Graph.from_neighbor_lists([[], [0, 2, 3, 4], [], [1], [1], []])
    values = np.array([2**40, 1, 2, 3, 4, 5], dtype=np.int64)
    assert hub.row_sums(values, 0, 6).tolist() == [0, 2**40 + 6, 0, 4, 5, 0]
    assert hub.row_sums(values[:4], 0, 3).dtype == np.int64


def _transient_mb(step):
    """``step()`` and the peak memory tracemalloc saw above its start, in MB."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = step()
    return out, (tracemalloc.get_traced_memory()[1] - base) / 1e6


class _Discard:
    """A text sink that keeps nothing, so an export's reading is the exporter's own."""

    def write(self, text):
        pass


def test_plane_request_steps_hold_a_block_of_temporaries(monkeypatch):
    # each step of a q=64 plane, Baer or export request keeps its temporaries
    # to a block; whole-plane int64 temporaries read 6.8-17.4 MB per step,
    # and adjacency-length ones in the build, margins and export 3.4, 3.0
    # and 2.2 MB.  The build allocates the plane's one incidence buffer,
    # 2.2 MB, which the graph then uses: build and graph read 3.1 and 1.0 MB,
    # and 2.3 and 3.1 MB when the graph held a second copy of the pencils;
    # the export reads 0.9 MB
    handed = []

    def recording_graph(indptr, indices, **kw):
        handed.append(indices)
        return Graph(indptr, indices, **kw)

    monkeypatch.setattr(plane_module, "Graph", recording_graph)
    tracemalloc.start()
    try:
        pl, build = _transient_mb(lambda: plane_of_order(64))
        g, graph = _transient_mb(lambda: incidence_graph(pl))
        part = construct_baer_partition(pl)
        _, margin = _transient_mb(lambda: margins(g, part))
        _, export = _transient_mb(lambda: g.to_dimacs(_Discard()))
        _, doc = _transient_mb(pl.to_json)
    finally:
        tracemalloc.stop()
    peaks = {"build": build, "graph": graph, "margins": margin, "export": export, "json": doc}
    assert max(peaks.values()) < 6, peaks
    assert build + graph < 4.6 and graph < 1.2, peaks
    assert margin < 0.5 and export < 1.6, peaks
    assert pl.pencils.dtype == np.int32
    assert np.shares_memory(g.indices, handed[0])
    assert np.shares_memory(g.indices, pl.pencils)


@pytest.mark.parametrize("edge", [(-1, 0), (0, 3), (5, 1)])
def test_from_edges_rejects_vertices_outside_the_graph(edge):
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), edge])


def test_plane_of_order_rejects_bad_orders():
    with pytest.raises(ValueError):
        plane_of_order(6)
    with pytest.raises(ValueError):
        plane_of_order(65)
    # the least prime power past the cap that is not a prime
    over = next(
        q for q in itertools.count(MAX_FIELD_ORDER + 1)
        if len(prime_factors(q)) == 1 and prime_factors(q) != [q]
    )
    with pytest.raises(ValueError, match=f"supported maximum {MAX_FIELD_ORDER}"):
        plane_of_order(over)


# -- Singer cycle ---------------------------------------------------------------


@pytest.mark.parametrize("q,orbit", [(2, 7), (3, 13)])
def test_singer_single_orbit(q, orbit):
    sc = singer_cycle(get_plane(q))
    v = 0
    seen = set()
    for _ in range(orbit):
        seen.add(v)
        v = int(sc.perm[v])
    assert v == 0 and len(seen) == orbit


def test_single_cycle_walks_the_orbit_of_zero():
    assert plane_module._single_cycle(np.array([2, 0, 1]), "walk").tolist() == [0, 2, 1]
    # two cycles, a fixed 0, and a map that is not a permutation
    for perm in ([1, 0, 2], [0, 1, 2], [1, 1, 0]):
        with pytest.raises(RuntimeError, match="^walk does not act as a single 3-cycle$"):
            plane_module._single_cycle(np.array(perm), "walk")


@pytest.mark.parametrize("q", _prime_powers(2, MAX_FIELD_ORDER))
def test_least_primitive_cubic_matches_reference(q):
    f = get_plane(q).field
    assert least_primitive_cubic(f) == reference_least_primitive_cubic(ReferenceField(f.p, f.h))


@pytest.mark.parametrize("q", _prime_powers(2, MAX_FIELD_ORDER))
def test_singer_perms_match_reference(q):
    pl = get_plane(q)
    sc = singer_cycle(pl)
    inv_t = tuple(zip(*reference_mat_inv(ReferenceField(pl.field.p, pl.field.h), sc.matrix)))
    assert (sc.perm[: pl.n] == reference_action(pl, sc.matrix)).all()
    assert (sc.perm[pl.n :] == pl.n + reference_action(pl, inv_t)).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_singer_order_is_plane_size(q):
    pl = get_plane(q)
    sc = singer_cycle(pl)
    perm = np.arange(2 * pl.n)
    for _ in range(pl.n):
        perm = sc.perm[perm]
    assert (perm == np.arange(2 * pl.n)).all()


def test_singer_preserves_incidence():
    pl = get_plane(9)
    sc = singer_cycle(pl)
    rng = random.Random(4)
    for _ in range(1000):
        p = rng.randrange(pl.n)
        ln = rng.randrange(pl.n)
        assert pl.is_incident(p, ln) == pl.is_incident(sc.perm[p], sc.perm[pl.n + ln] - pl.n)


def _random_invertible(f, rng):
    while True:
        m = [[rng.randrange(f.q) for _ in range(3)] for _ in range(3)]
        try:
            reference_mat_inv(f, m)
        except ZeroDivisionError:
            continue
        return m


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_collineation_perm_is_a_graph_automorphism(q):
    pl, g = get_plane(q), get_graph(q)
    rng = random.Random(q)
    f = ReferenceField(pl.field.p, pl.field.h)
    nbrs = np.sort(g.indices.reshape(g.n, -1), axis=1)
    for mat in [singer_cycle(pl).matrix] + [_random_invertible(f, rng) for _ in range(5)]:
        perm = collineation_perm(pl, mat)
        assert perm.dtype == np.int64
        assert (np.sort(perm) == np.arange(g.n)).all()
        # each vertex's neighbours go onto its image's neighbours
        assert (np.sort(perm[nbrs], axis=1) == nbrs[perm]).all()


def test_collineation_perm_rejects_a_singular_matrix():
    with pytest.raises(ValueError, match="zero triple"):
        collineation_perm(get_plane(5), [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


# -- Baer decomposition -----------------------------------------------------


@pytest.mark.parametrize("q,count,size", [(4, 3, 7), (9, 7, 13)])
def test_baer_decomposition_shape(q, count, size):
    dec = get_baer(q)
    assert len(dec.subplanes) == count
    pts_all, lns_all = [], []
    r = dec.suborder
    for pts, lns in dec.subplanes:
        assert len(pts) == size and len(lns) == size
        assert verify_subplane(get_plane(q), pts, lns, r)
        pts_all.extend(pts.tolist())
        lns_all.extend(lns.tolist())
    assert sorted(pts_all) == list(range(q * q + q + 1))
    assert sorted(lns_all) == list(range(q * q + q + 1))


@pytest.mark.parametrize("q", [4, 9])
def test_baer_covering_property(q):
    # each outside point lies on exactly one line meeting the subplane richly
    pl = get_plane(q)
    dec = get_baer(q)
    r = dec.suborder
    for pts, lns in dec.subplanes:
        mask = np.zeros(pl.n, dtype=np.int64)
        mask[pts] = 1
        inc = dense_incidence(pl).astype(np.int64)
        rich = inc.T @ mask  # per line: meets in
        outside = np.setdiff1d(np.arange(pl.n), pts)
        for p in outside:
            through = pl.pencils[p]
            assert (rich[through] == r + 1).sum() == 1
        # dual: each outside line meets exactly one point of high line-degree
        lmask = np.zeros(pl.n, dtype=np.int64)
        lmask[lns] = 1
        richp = inc @ lmask
        for ln in np.setdiff1d(np.arange(pl.n), lns):
            on = pl.pencils[ln]
            assert (richp[on] == r + 1).sum() == 1


def test_verify_subplane_full_plane():
    pl = get_plane(4)
    ids = list(range(pl.n))
    assert verify_subplane(pl, ids, ids, 4)


def test_verify_subplane_rejects_random_pointset():
    pl = get_plane(4)
    rng = random.Random(1)
    pts = rng.sample(range(pl.n), 7)
    lns = rng.sample(range(pl.n), 7)
    assert not verify_subplane(pl, pts, lns, 2)
    # at q=16: a Baer subplane with one point swapped out, and with the
    # lines of another subplane
    pl = get_plane(16)
    (pts, lns), (_, other_lns) = get_baer(16).subplanes[:2]
    outside = np.setdiff1d(np.arange(pl.n), pts)
    assert verify_subplane(pl, pts, lns, 4)
    assert not verify_subplane(pl, np.append(pts[1:], outside[0]), lns, 4)
    assert not verify_subplane(pl, pts, other_lns, 4)
    # the point and line sets follow the id rule: repeats collapse, bad ids raise
    assert verify_subplane(pl, np.repeat(pts, 2), lns.astype(float), 4)
    for bad in (-1, pl.n, 0.5):
        with pytest.raises(ValueError, match=r"^point .* is not an id in \[0, 273\)$"):
            verify_subplane(pl, np.append(pts[1:], bad), lns, 4)
        with pytest.raises(ValueError, match=r"^line .* is not an id in \[0, 273\)$"):
            verify_subplane(pl, pts, np.append(lns[1:], bad), 4)


def test_baer_requires_square_order():
    with pytest.raises(ValueError):
        pp.baer_decomposition(get_plane(5))


def test_plane_json_export():
    pl = get_plane(2)
    doc = pl.to_json()
    assert doc["order"] == 2
    assert doc["field"]["modulus"] == [0, 1]  # prime field: modulus is x
    assert len(doc["points"]) == 7
    assert len(doc["lines_points"]) == 7
    # the rows are the pencils themselves, which the document cannot write to
    assert np.shares_memory(doc["lines_points"], pl.pencils)
    with pytest.raises(ValueError):
        doc["lines_points"][0, 0] = 1
