import io

import numpy as np
import pytest

import planepart as pp
from planepart import (
    classify_conic,
    construct_algebraic_1mod4,
    construct_algebraic_3mod4,
    construct_baer_partition,
    construct_combinatorial,
    construct_denniston,
    construct_even,
    construct_oval,
    verify_maximal_arc,
)
from planepart.constructions import LINE_SKEW, LINE_TANGENT, OVAL_VARIANTS, Partition
from planepart.spectral import check_mixing, edges_between
from planepart.verify import is_internal, is_strict, margins
from oracles import dense_incidence, get_graph, get_plane


def induced_degrees(q, side, side_val):
    g = get_graph(q)
    vs = np.flatnonzero(side == side_val)
    return {
        sum(1 for u in g.neighbors(v) if side[u] == side_val) for v in vs
    }


# -- Baer partition ---------------------------------------------------------


@pytest.mark.parametrize("q,deg_a,deg_b,t", [
    (4, 3, 4, 0),
    (9, 6, 7, 1),
    (25, 15, 16, 2),
])
def test_baer_partition_regularity_and_intimacy(q, deg_a, deg_b, t):
    pl = get_plane(q)
    part = construct_baer_partition(pl)
    assert induced_degrees(q, part.side, 0) == {deg_a}
    assert induced_degrees(q, part.side, 1) == {deg_b}
    rep = margins(get_graph(q), part.side)
    assert rep.partition_intimacy == t


def test_baer_partition_class_sizes():
    pl = get_plane(9)
    part = construct_baer_partition(pl)
    # 3 of 7 subplanes, 13 points and 13 lines each
    assert len(part.class_a()) == 2 * 3 * 13
    assert part.provenance["construction"] == "baer"


def test_baer_partition_requires_square():
    with pytest.raises(ValueError):
        construct_baer_partition(get_plane(7))


# -- combinatorial (half pencil) ---------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
@pytest.mark.parametrize("drop", [False, True])
def test_combinatorial_internal(q, drop):
    part = construct_combinatorial(get_plane(q), drop_variant=drop)
    assert is_internal(get_graph(q), part.side)


def test_combinatorial_own_degree_facts():
    q = 5
    pl = get_plane(q)
    g = get_graph(q)
    part = construct_combinatorial(pl)
    side = part.side
    ell = part.provenance["parameters"]["line"]
    # A-points keep at least (q+1)/2 own lines
    for v in part.class_a():
        if v >= pl.n:
            continue
        own = sum(1 for u in g.neighbors(v) if side[u] == 0)
        assert own >= (q + 1) // 2
    # points of ell outside A see every non-ell line in their own class
    off = [p for p in pl.pencils[ell].tolist() if side[p] == 1]
    assert len(off) == (q + 1) // 2
    for p in off:
        own = sum(1 for u in g.neighbors(p) if side[u] == 1)
        assert own == q


def test_combinatorial_rejects_even_q():
    with pytest.raises(ValueError):
        construct_combinatorial(get_plane(4))


def test_combinatorial_rejects_incident_point_line():
    pl = get_plane(3)
    ln = int(pl.pencils[0][0])
    with pytest.raises(ValueError):
        construct_combinatorial(pl, point=0, line=ln)


def test_combinatorial_rejects_bad_pencil():
    pl = get_plane(3)
    point = int(pl.index((0, 0, 1)))
    off = [ln for ln in range(pl.n) if not pl.is_incident(point, ln)]
    with pytest.raises(ValueError):
        construct_combinatorial(pl, pencil=off[:2])  # not through the point
    with pytest.raises(ValueError):
        construct_combinatorial(pl, pencil=[0, 0])  # duplicates


def test_combinatorial_rejects_ids_outside_the_plane():
    # PG(2,5) has 31 points and 31 lines; -1 once aliased point or line 30
    pl = get_plane(5)
    point = int(pl.index((0, 0, 1)))
    pencil = pl.pencils[point][:3].tolist()
    for kwargs in [
        {"line": -1, "drop_variant": True},
        {"line": 31},
        {"point": -1},
        {"point": 2.5},
        {"pencil": [pencil[0] - pl.n] + pencil[1:]},
        {"pencil": [pl.n] + pencil[1:]},
        {"pencil": [0.5] + pencil[1:]},
    ]:
        with pytest.raises(ValueError, match=r"not an id in \[0, 31\)"):
            construct_combinatorial(pl, **kwargs)


def test_combinatorial_drop_shrinks_classes():
    pl = get_plane(5)
    base = construct_combinatorial(pl)
    drop = construct_combinatorial(pl, drop_variant=True)
    assert len(drop.class_a()) == len(base.class_a()) - 2


# -- algebraic residue-class constructions -----------------------------------


@pytest.mark.parametrize("q", [5, 9, 13, 25])
@pytest.mark.parametrize("erase", [False, True])
def test_algebraic_1mod4_internal(q, erase):
    part = construct_algebraic_1mod4(get_plane(q), erase_units=erase)
    assert is_internal(get_graph(q), part.side)


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27])
@pytest.mark.parametrize("erase", [False, True])
def test_algebraic_3mod4_internal(q, erase):
    part = construct_algebraic_3mod4(get_plane(q), erase_units=erase)
    assert is_internal(get_graph(q), part.side)


def test_algebraic_residue_preconditions():
    with pytest.raises(ValueError):
        construct_algebraic_1mod4(get_plane(7))
    with pytest.raises(ValueError):
        construct_algebraic_3mod4(get_plane(9))


def test_algebraic_erase_moves_six_vertices():
    pl = get_plane(13)
    base = construct_algebraic_1mod4(pl)
    er = construct_algebraic_1mod4(pl, erase_units=True)
    assert len(base.class_a()) - len(er.class_a()) == 6
    for u in pl.index([(0, 0, 1), (1, 0, 0), (0, 1, 0)]):
        assert base.side[u] == 0 and er.side[u] == 1
        assert base.side[pl.n + u] == 0 and er.side[pl.n + u] == 1


def test_algebraic_1mod4_slope_classes():
    # almost-complete A-lines through (0:0:1): exactly (q-1)/2 of them
    q = 13
    pl = get_plane(q)
    part = construct_algebraic_1mod4(pl)
    side = part.side
    origin = int(pl.index((0, 0, 1)))
    count = 0
    for ln in pl.pencils[origin]:
        if side[pl.n + ln] != 0:
            continue
        pts = pl.pencils[ln]
        out = [p for p in pts.tolist() if side[p] != 0]
        if len(out) == 1 and pl.coords[out[0], 2] == 0:
            count += 1
    assert count == (q - 1) // 2


# -- conic classification -----------------------------------------------------


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_conic_counts(q):
    od = classify_conic(get_plane(q))
    assert len(od.oval) == q + 1
    assert len(od.exterior_points) == q * (q + 1) // 2
    assert len(od.interior_points) == q * (q - 1) // 2
    assert len(od.tangent_lines) == q + 1
    assert len(od.secant_lines) == q * (q + 1) // 2
    assert len(od.skew_lines) == q * (q - 1) // 2


@pytest.mark.parametrize("q", [5, 9])
def test_conic_no_three_collinear(q):
    pl = get_plane(q)
    od = classify_conic(pl)
    mask = np.zeros(pl.n, dtype=np.int64)
    mask[od.oval] = 1
    per_line = dense_incidence(pl).astype(np.int64).T @ mask
    assert per_line.max() == 2


@pytest.mark.parametrize("q", [5, 7, 9])
def test_conic_tangent_histogram(q):
    od = classify_conic(get_plane(q))
    off = np.setdiff1d(np.arange(get_plane(q).n), od.oval)
    counts = {0: 0, 2: 0}
    for p in off:
        counts[int(od.tangent_count[p])] += 1
    assert counts == {0: q * (q - 1) // 2, 2: q * (q + 1) // 2}


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_non_tangent_lines_split_evenly(q):
    pl = get_plane(q)
    od = classify_conic(pl)
    interior = set(od.interior_points.tolist())
    exterior = set(od.exterior_points.tolist())
    oval = set(od.oval.tolist())
    for ln in range(pl.n):
        if od.line_class[ln] == LINE_TANGENT:
            continue
        pts = [p for p in pl.pencils[ln].tolist() if p not in oval]
        ni = sum(1 for p in pts if p in interior)
        ne = sum(1 for p in pts if p in exterior)
        assert ni == ne


def test_classify_conic_rejects_even_q():
    with pytest.raises(ValueError):
        classify_conic(get_plane(4))


# -- oval partitions ----------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
@pytest.mark.parametrize("variant", OVAL_VARIANTS)
def test_oval_partitions_internal(q, variant):
    part = construct_oval(get_plane(q), variant=variant)
    assert is_internal(get_graph(q), part.side)


def test_oval_interior_regular_subgraph():
    q = 5
    part = construct_oval(get_plane(q), variant="interior_skew")
    assert induced_degrees(q, part.side, 0) == {(q + 1) // 2}


def test_oval_complement_min_degree():
    q = 7
    g = get_graph(q)
    part = construct_oval(get_plane(q), variant="interior_skew")
    side = part.side
    degs = {
        sum(1 for u in g.neighbors(v) if side[u] == 1)
        for v in np.flatnonzero(side == 1)
    }
    assert min(degs) >= (q + 1) // 2
    assert min(degs) == 5  # attained minimum sits above the guarantee


def test_oval_unknown_variant():
    with pytest.raises(ValueError):
        construct_oval(get_plane(5), variant="nope")


# -- maximal arcs and even q ---------------------------------------------------


@pytest.mark.parametrize("q,size", [(4, 6), (8, 28), (16, 120)])
def test_denniston_arc(q, size):
    pl = get_plane(q)
    arc = construct_denniston(pl)
    assert arc.degree == q // 2
    assert len(arc.arc) == size
    assert verify_maximal_arc(pl, arc.arc, q // 2)
    assert set(np.unique(arc.secant_profile).tolist()) <= {0, q // 2}


def test_denniston_rejects_odd_and_q2():
    with pytest.raises(ValueError):
        construct_denniston(get_plane(5))
    with pytest.raises(ValueError):
        construct_denniston(get_plane(2))


def test_verify_maximal_arc_rejects_line():
    pl = get_plane(4)
    line_pts = pl.pencils[0].tolist()
    assert not verify_maximal_arc(pl, line_pts, 2)
    # at q=16: the Denniston arc with one point swapped for a point off it
    pl = get_plane(16)
    arc = construct_denniston(pl).arc
    off = np.setdiff1d(np.arange(pl.n), arc)
    assert not verify_maximal_arc(pl, np.append(arc[1:], off[0]), 8)
    assert not verify_maximal_arc(pl, arc, 4)


def test_verify_maximal_arc_single_point():
    pl = get_plane(4)
    assert verify_maximal_arc(pl, [3], 1)
    assert verify_maximal_arc(pl, [3, 3.0], 1)  # repeats collapse
    # PG(2,5): [-1] once passed as the one-point arc {30}
    pl = get_plane(5)
    for bad in (-1, pl.n, 0.5):
        with pytest.raises(ValueError, match=r"not an id in \[0, 31\)"):
            verify_maximal_arc(pl, [bad], 1)


@pytest.mark.parametrize("q", [4, 8])
def test_arc_double_counting_facts(q):
    pl = get_plane(q)
    arc = construct_denniston(pl)
    half = q // 2
    assert (arc.secant_profile == 0).sum() == q + 2
    marc = np.zeros(pl.n, dtype=bool)
    marc[arc.arc] = True
    for p in np.flatnonzero(~marc):
        through = pl.pencils[p]
        profile = arc.secant_profile[through]
        assert (profile == half).sum() == q - 1
        assert (profile == 0).sum() == 2


@pytest.mark.parametrize("q", [4, 8, 16])
def test_even_partition_strict(q):
    pl = get_plane(q)
    part = construct_even(pl)
    g = get_graph(q)
    assert is_strict(g, part.side)
    rep = margins(g, part.side)
    assert rep.partition_intimacy >= 0
    # every A-vertex keeps more than half its pencil
    mins = min(
        sum(1 for u in g.neighbors(v) if part.side[u] == 0)
        for v in part.class_a()
    )
    assert mins >= q // 2 + 1


def test_even_q4_class_sizes():
    pl = get_plane(4)
    part = construct_even(pl)
    pts = [v for v in part.class_a() if v < pl.n]
    lns = [v for v in part.class_a() if v >= pl.n]
    assert len(pts) == 7 and len(lns) == 7


def test_even_rejects_non_secant():
    pl = get_plane(4)
    arc = construct_denniston(pl)
    skew = int(np.flatnonzero(arc.secant_profile == 0)[0])
    with pytest.raises(ValueError):
        construct_even(pl, arc=arc, secant_line=skew)


def test_even_rejects_ids_outside_the_plane():
    pl = get_plane(8)
    for line in (-1, pl.n):
        with pytest.raises(ValueError, match=r"not an id in \[0, 73\)"):
            construct_even(pl, secant_line=line)


# -- Partition plumbing --------------------------------------------------------


def test_partition_json_round_trip():
    pl = get_plane(3)
    g = get_graph(3)
    part = construct_combinatorial(pl)
    doc = part.to_json(g.labels)
    label_to_id = {lab: i for i, lab in enumerate(g.labels)}
    assert g.label_ids == label_to_id
    back = Partition.from_json(doc, label_to_id, g.n)
    assert (back.side == part.side).all()
    assert back.provenance["construction"] == "combinatorial"


def test_partition_rejects_empty_class():
    pl = get_plane(3)
    with pytest.raises(ValueError):
        Partition(np.zeros(2 * pl.n, dtype=np.uint8), {})


@pytest.mark.parametrize("side", [
    [0, 1, 2, 1],  # vertex 2 would be in neither class
    [0, 1, 257],  # would overflow the uint8 cast
    np.array([0, 1, -1], dtype=np.int8),  # would wrap to 255
    [0.0, 1.0, 0.5],
    [[0, 1], [1, 0]],
    1,
])
def test_partition_rejects_malformed_side(side):
    with pytest.raises(ValueError, match="1-D array of 0"):
        Partition(side)


def test_all_partitions_respect_spectral_bound():
    # constructions and the spectral cap cross-check each other
    for q in (4, 9, 16, 25):
        bound = pp.intimacy_upper_bound(q)
        pl = get_plane(q)
        g = get_graph(q)
        parts = []
        if q in (4, 9, 25):
            parts.append(construct_baer_partition(pl))
        if q % 2 == 1:
            parts.append(construct_combinatorial(pl))
            parts.append(construct_oval(pl))
        if q % 4 == 1:
            parts.append(construct_algebraic_1mod4(pl))
        if q % 2 == 0:
            parts.append(construct_even(pl))
        for part in parts:
            rep = margins(g, part.side)
            assert rep.partition_intimacy <= bound
        if q in (4, 9, 25):
            rep = margins(g, construct_baer_partition(pl).side)
            assert rep.partition_intimacy == bound


@pytest.mark.parametrize("q", [16, 25])
def test_hot_paths_never_build_the_dense_matrix(q):
    pl = pp.plane_of_order(q)  # not the shared cache, which tests may have filled
    g = pp.incidence_graph(pl)
    dec = pp.baer_decomposition(pl)
    parts = [construct_baer_partition(pl, dec)]
    if q % 2:
        od = classify_conic(pl)
        parts += [construct_oval(pl, od, variant) for variant in OVAL_VARIANTS]
        parts += [construct_combinatorial(pl, drop_variant=d) for d in (False, True)]
        parts += [construct_algebraic_1mod4(pl, erase_units=e) for e in (False, True)]
    else:
        parts.append(construct_even(pl, construct_denniston(pl)))
    inc = dense_incidence(pl)
    for part in parts:
        assert is_internal(g, part)
        a = part.class_a()
        pts, lns = a[a < pl.n], a[a >= pl.n]
        assert check_mixing(pl, pts, lns)
        assert edges_between(pl, pts, lns) == inc[np.ix_(pts, lns - pl.n)].sum()
    g.to_dimacs(io.StringIO())
    pl.to_json()
    assert not hasattr(pl, "incidence")
