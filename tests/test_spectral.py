"""Incidence spectrum, Gram identity, mixing window, intimacy cap."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import planepart as pp
from planepart import cli, reproduce
from planepart.spectral import (
    check_mixing,
    edges_between,
    intimacy_upper_bound,
    mixing_bound,
    parity_intimacy_bound,
    singular_spectrum,
)

from planepart.fields import MAX_FIELD_ORDER, prime_factors
from oracles import get_plane, reference_spectrum

ALL_SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
PRIME_POWERS = [q for q in range(2, MAX_FIELD_ORDER + 1) if len(prime_factors(q)) == 1]


@pytest.mark.parametrize("q", ALL_SMALL_ORDERS)
def test_gram_identity_exact(q):
    # M M^T = qI + J holds entrywise over the integers
    rep = singular_spectrum(get_plane(q))
    assert rep.max_residual == 0


def test_gram_check_holds_a_block_of_entries():
    # q=64 reads the Gram matrix a few rows, about 2^14 entries, at a time;
    # 256-row blocks of int64 rows and their residual copies held 30 MB
    pl = get_plane(64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = singular_spectrum(pl)
        peak = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
    assert rep.max_residual == 0
    assert peak < 1, peak


@pytest.mark.parametrize(
    "q,top,second,mult",
    [
        (2, 3.0, math.sqrt(2), 6),
        (3, 4.0, math.sqrt(3), 12),
        (4, 5.0, 2.0, 20),
    ],
)
def test_singular_values_small(q, top, second, mult):
    rep = singular_spectrum(get_plane(q))
    assert len(rep.singular_values) == 2
    (v1, m1), (v2, m2) = rep.singular_values
    assert m1 == 1 and abs(v1 - top) < 1e-9
    assert m2 == mult and abs(v2 - second) < 1e-9
    assert abs(rep.lambda2 - second) < 1e-9


@pytest.mark.parametrize("q", ALL_SMALL_ORDERS)
def test_spectrum_shape_general(q):
    n = q * q + q + 1
    rep = singular_spectrum(get_plane(q))
    assert rep.singular_values == [(q + 1.0, 1), (math.sqrt(q), n - 1)]
    assert rep.lambda2 == math.sqrt(q)
    # the float SVD of the dense matrix built from the line equations agrees
    ref = reference_spectrum(get_plane(q))
    assert [m for _, m in ref] == [1, n - 1]
    for (v, _), (r, _) in zip(rep.singular_values, ref):
        assert abs(v - r) < 1e-9


def test_spectrum_exact_up_to_the_field_cap(capsys):
    for q in (17, 64):
        rep = singular_spectrum(get_plane(q))
        assert rep.max_residual == 0
        assert rep.singular_values == [(q + 1.0, 1), (math.sqrt(q), q * q + q)]
    assert cli.main(["spectrum", "--q", "128"]) == 2
    assert "exceeds the supported maximum 64" in capsys.readouterr().err


def test_spectrum_json_round_numbers():
    doc = singular_spectrum(get_plane(2)).to_json()
    assert doc == {
        "singular_values": [[3.0, 1], [math.sqrt(2), 6]],
        "lambda2": math.sqrt(2),
        "max_residual": 0,
    }


def test_corrupt_pencil_has_no_spectrum(monkeypatch, capsys, tmp_path):
    # one pencil entry moved to a point off the line breaks M M^T = qI + J
    # a plane of its own: its pencils are a view of its incidence buffer
    bad = pp.plane_of_order(3)
    bad.pencils[0, 0] = next(p for p in range(bad.n) if p not in bad.pencils[0])
    rep = singular_spectrum(bad)
    assert rep.max_residual > 0
    assert rep.singular_values == []
    assert rep.lambda2 is None
    monkeypatch.setattr(cli, "plane_of_order", lambda q: bad)
    assert cli.main(["spectrum", "--q", "3"]) == 1
    assert f"max |MM^T - qI - J| = {rep.max_residual}" in capsys.readouterr().out
    # the acceptance check reports the failure instead of raising
    monkeypatch.setattr(reproduce, "_plane", lambda q: bad if q == 3 else get_plane(q))
    failures, _, _ = reproduce._spectrum(str(tmp_path), [3], 1)
    assert f"q=3: Gram residual {rep.max_residual}" in failures


def test_mixing_bound_degenerate_cases():
    b = mixing_bound(31, 6, math.sqrt(5), 0, 12)
    assert b.lower == b.upper == 0.0
    # full-by-full: window collapses onto the exact total d*n
    b = mixing_bound(31, 6, math.sqrt(5), 31, 31)
    assert b.deviation_cap == 0.0
    assert b.lower == b.upper == 6 * 31


def test_mixing_bound_q5_example():
    b = mixing_bound(31, 6, math.sqrt(5), 10, 10)
    assert abs(b.expected - 600 / 31) < 1e-9
    assert abs(b.deviation_cap - math.sqrt(5) * 10 * 21 / 31) < 1e-9


def test_mixing_bound_rejects_out_of_range():
    with pytest.raises(ValueError):
        mixing_bound(31, 6, math.sqrt(5), -1, 3)
    with pytest.raises(ValueError):
        mixing_bound(31, 6, math.sqrt(5), 3, 32)


def test_edges_between_pencil():
    pl = get_plane(5)
    n = pl.n
    p = 0
    its_lines = [n + ln for ln in pl.pencils[p]]
    assert edges_between(pl, [p], its_lines) == pl.q + 1
    missing = [n + j for j in range(n) if j not in set(pl.pencils[p])][: pl.q + 1]
    assert edges_between(pl, [p], missing) == 0


def test_edges_between_validates_vertex_ranges():
    pl = get_plane(3)
    with pytest.raises(ValueError):
        edges_between(pl, [pl.n], [pl.n + 1])  # a line id in the point slot
    with pytest.raises(ValueError):
        edges_between(pl, [0], [1])  # a point id in the line slot
    # PG(2,5): a point vertex 1.5 was once counted as point 1
    pl = get_plane(5)
    n = pl.n
    lines = range(n, n + 6)
    for f in (edges_between, check_mixing):
        for bad in (-1, n, 0.5, 1.5):
            with pytest.raises(ValueError, match=r"^point vertex .* is not an id in \[0, 31\)$"):
                f(pl, [1, bad], lines)
        for bad in (-1, 2 * n, n + 0.5):
            with pytest.raises(ValueError, match=r"^line vertex .* is not an id in \[0, 62\)$"):
                f(pl, [1], [n, bad])
        with pytest.raises(ValueError, match="line set must hold line vertices"):
            f(pl, [1], [n - 1, n])
    # repeats collapse, and an integral float names its vertex
    assert edges_between(pl, [0, 0.0, 0], [n + ln for ln in pl.pencils[0]] * 2) == pl.q + 1


def test_edges_between_totals():
    pl = get_plane(4)
    n = pl.n
    total = edges_between(pl, range(n), range(n, 2 * n))
    assert total == n * (pl.q + 1)


@pytest.mark.parametrize("q", [3, 5])
def test_check_mixing_random_pairs(q):
    pl = get_plane(q)
    n = pl.n
    rng = random.Random(9000 + q)
    for _ in range(200):
        s = rng.randint(1, n)
        t = rng.randint(1, n)
        pts = rng.sample(range(n), s)
        lns = [n + j for j in rng.sample(range(n), t)]
        assert check_mixing(pl, pts, lns)


def test_check_mixing_pencil_cases():
    pl = get_plane(5)
    n = pl.n
    p = 3
    its = [n + ln for ln in pl.pencils[p]]
    assert check_mixing(pl, [p], its)
    rest = [n + j for j in range(n) if j not in set(pl.pencils[p])]
    assert check_mixing(pl, [p], rest[:6])


@pytest.mark.parametrize(
    "q,bound", [(2, 0), (3, 0), (4, 0), (5, 1), (9, 1), (16, 1), (25, 2), (27, 2), (49, 3)]
)
def test_intimacy_upper_bound_values(q, bound):
    assert intimacy_upper_bound(q) == bound
    # defining property: largest t with 4 t^2 < q
    t = intimacy_upper_bound(q)
    assert 4 * t * t < q
    assert 4 * (t + 1) * (t + 1) >= q


def test_intimacy_upper_bound_rejects_non_prime_power():
    with pytest.raises(ValueError):
        intimacy_upper_bound(6)
    with pytest.raises(ValueError):
        intimacy_upper_bound(1)


def test_parity_cap_against_the_papers_cap():
    for q in [q for q in range(2, 65) if len(prime_factors(q)) == 1]:
        t, even = parity_intimacy_bound(q), q % 2 == 0
        # defining property: largest t with (2t + [q even])^2 < q
        assert (2 * t + even) ** 2 < q <= (2 * t + 2 + even) ** 2
        if not even or math.isqrt(q) ** 2 == q:
            assert t == intimacy_upper_bound(q)
        assert t == intimacy_upper_bound(q) - (q == 8)
    with pytest.raises(ValueError):
        parity_intimacy_bound(6)


def test_no_1_internal_size_pair_fits_the_mixing_window_at_q8():
    # a 1-internal partition of PG(2,8) has odd margins of at least 3: every
    # vertex has at least 6 of its 9 neighbours on its side.  With s points
    # and k lines on A, that forces e = e(P_A, L_A) into [lo, hi]; no e there
    # is within sqrt(8) * sqrt(s k (1 - s/n) (1 - k/n)) of 9 s k / n, the
    # window of mixing_bound, checked exactly; only the one-class splits fit
    q, n, d, own = 8, 73, 9, 6
    fits = []
    for s in range(n + 1):
        for k in range(n + 1):
            lo = max(own * s, own * k, d * k - (d - own) * (n - s), d * s - (d - own) * (n - k))
            hi = min(d * s, d * k)
            expected = Fraction(d * s * k, n)
            cap_sq = q * Fraction(s * k * (n - s) * (n - k), n * n)
            b = mixing_bound(n, d, math.sqrt(q), s, k)
            assert b.expected == pytest.approx(float(expected), abs=1e-9)
            assert b.deviation_cap**2 == pytest.approx(float(cap_sq), abs=1e-6)
            if any((e - expected) ** 2 <= cap_sq for e in range(lo, hi + 1)):
                fits.append((s, k))
    assert fits == [(0, 0), (n, n)]
    assert parity_intimacy_bound(q) == 0


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_no_size_pair_fits_the_mixing_window_above_the_parity_cap(q):
    # the q=8 check above at t = parity cap + 1, for every order: every vertex
    # has at least own neighbours on its side, which bounds e = e(P_A, L_A) to
    # [lo, hi], and the window is (n e - d s k)^2 <= q s k (n-s) (n-k).  The
    # integers either side of d s k / n, clipped into [lo, hi], are the e
    # nearest the window's centre.  int64 is exact: |n e - d s k| <= d n^2, so
    # at q=64 the left side is below 1.3e18, and the right below 1.3e15
    n, d = q * q + q + 1, q + 1
    assert (d * n * n) ** 2 < 2**63
    own = (d + 2 * (parity_intimacy_bound(q) + 1) + 1) // 2
    k = np.arange(n + 1, dtype=np.int64)
    fits = []
    for s0 in range(0, n + 1, 128):
        s = np.arange(s0, min(s0 + 128, n + 1), dtype=np.int64)[:, None]
        lo = np.maximum(
            np.maximum(own * s, own * k),
            np.maximum(d * k - (d - own) * (n - s), d * s - (d - own) * (n - k)),
        )
        hi = np.minimum(d * s, d * k)
        dsk = d * s * k
        cap = q * s * k * (n - s) * (n - k)
        fit = np.zeros(lo.shape, dtype=bool)
        for e in (dsk // n, dsk // n + 1):
            fit |= (n * np.clip(e, lo, hi) - dsk) ** 2 <= cap
        fits += [(s0 + int(i), int(j)) for i, j in zip(*np.nonzero(fit & (lo <= hi)))]
    assert fits == [(0, 0), (n, n)]


def test_baer_edge_audit_q9():
    # point class vs line class of the Baer split: e(A_P, A_L) hits the
    # count forced by induced regularity and stays inside the mixing window
    q = 9
    pl = get_plane(q)
    part = pp.construct_baer_partition(pl)
    a = part.class_a()
    n = pl.n
    a_pts = [v for v in a if v < n]
    a_lns = [v for v in a if v >= n]
    e = edges_between(pl, a_pts, a_lns)
    assert e == 234
    assert e == len(a_pts) * 6
    inti = pp.margins(pp.incidence_graph(pl), part).partition_intimacy
    assert e >= len(a_pts) * ((q + 1) // 2 + inti)
    b = mixing_bound(n, q + 1, math.sqrt(q), len(a_pts), len(a_lns))
    assert e <= b.upper + 1e-9
