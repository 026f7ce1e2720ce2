"""The desarguesian projective plane PG(2,q) over GF(q).

Points and lines carry homogeneous coordinate triples normalized so the
last nonzero coordinate is 1; the point ``(a:b:c)`` lies on the line
``[x:y:z]`` exactly when ``ax + by + cz = 0``.  Both index sets are sorted
by the normalized triple with the last coordinate most significant,
coordinates compared by their canonical integer encodings: (1:0:0), then
(x:1:0), then (x:y:1).  ``Plane.coords`` is that order, and ``Plane.labels``
its text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import Field, factor_prime_power, make_field, prime_factors
from .graphs import Graph


def _triple_indices(f: Field, t: np.ndarray) -> np.ndarray:
    """Indices in ``Plane.coords`` order of a batch of nonzero triples.

    ``t`` has shape ``(..., 3)``; each triple is scaled by the inverse of its
    last nonzero coordinate before its index is read off.
    """
    a, b, c = t[..., 0], t[..., 1], t[..., 2]
    lead = np.where(c != 0, c, np.where(b != 0, b, a))
    if not lead.all():
        raise ValueError("zero triple has no projective class")
    s = f.inv_table[lead]
    x = f.mul_table[s, a].astype(np.int64)
    y = f.mul_table[s, b].astype(np.int64)
    q = f.q
    return np.where(c != 0, 1 + q + q * y + x, np.where(b != 0, 1 + x, 0))


def _dot(f: Field, u, v) -> np.ndarray:
    """``u . v`` over GF(q), with broadcasting.

    ``u`` and ``v`` each hold three coordinates along their first axis: a
    length-3 sequence, or arrays of shape ``(3, ...)``.  The tables are read
    flattened, ``add.ravel()[q*a + b]``, which is cheaper than 2-D indexing.
    """
    q = f.q
    add, mul = f.add_table.ravel(), f.mul_table.ravel()
    s = add[q * mul[q * u[0] + v[0]] + mul[q * u[1] + v[1]]]
    return add[q * s + mul[q * u[2] + v[2]]]


def _off_ids(a: np.ndarray, hi: int) -> np.ndarray:
    """Mask of the entries of ``a`` that are negative, ``>= hi`` or not integral."""
    bad = (a < 0) | (a >= hi)
    if a.dtype.kind not in "iu":
        bad |= np.mod(a, 1) != 0
    return bad


def _checked_ids(ids, hi: int, what: str) -> np.ndarray:
    """``ids`` as int64, in their order; ValueError on the first one ``_off_ids`` marks."""
    a = np.asarray(ids)
    # an integer array's least and largest entries decide its range
    if a.dtype.kind not in "iu" or (a.size and (a.min() < 0 or a.max() >= hi)):
        bad = _off_ids(a, hi)
        if bad.any():
            raise ValueError(f"{what} {a[bad][0].item()!r} is not an id in [0, {hi})")
    return a.astype(np.int64, copy=False)


def distinct(a) -> np.ndarray:
    """The distinct entries of ``a``, flattened, ascending, as ``np.unique``.

    One sort and one neighbour comparison: numpy 2.4's ``np.unique`` hashes
    integers, which takes about 20 times as long on a few thousand ids.
    """
    a = np.sort(np.ravel(a))
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def vertex_ids(ids, hi: int, what: str = "id") -> np.ndarray:
    """The id rule for a set of points or lines: sorted, without repeats, as int64.

    Raises ValueError on the first entry, in sorted order, that is negative,
    ``>= hi`` or not integral; integral floats pass.
    """
    return _checked_ids(distinct(ids), hi, what)


_CHECK_BLOCK = 512  # lines per block of the pencil build and of its checks


def _pencils(f: Field, coords: np.ndarray, out: np.ndarray) -> None:
    """Write the sorted ids of the q+1 points on each line, one row per line, into ``out``.

    In affine terms, with (x : y : 1) the point of id 1+q+q*y+x:
    - the line y = mx + c is [m : -1 : c] and holds the points (x : mx+c : 1)
      and (1 : m : 0);
    - the line x = c is [1 : 0 : -c] and holds (c : y : 1) and (0 : 1 : 0);
    - the line at infinity [0 : 0 : 1] holds the points 0..q.
    Each row is written at its line's canonical id, which ``inv``, ``neg``
    and ``mul`` lookups give, with the point ids read off ``add`` and
    ``mul``: no point is normalised.  The non-vertical lines are written a
    block of slopes at a time, so no temporary grows with q^3, and the rows
    are then sorted in place.  ``out`` is an int32 (n, q+1) array, zeroed
    first.

    ``coords`` holds the triples, which ``_check_pencils`` reads to check
    the rows: a RuntimeError names corrupt tables.  A line id that no row
    reaches keeps point 0 in every slot, which its repeat check rejects.
    """
    q = f.q
    add, mul = f.add_table.ravel(), f.mul_table.ravel()
    inv, neg = f.inv_table, f.neg_table
    e = np.arange(q)
    out.fill(0)
    out[1 + q] = np.arange(q + 1)
    # x = c is [1 : 0 : 0] for c = 0, else [1/-c : 0 : 1]
    vertical = np.concatenate([[0], 1 + q + inv[neg[e[1:]]]])
    out[vertical, 0] = 1
    out[vertical, 1:] = 1 + q + q * e + e[:, None]
    # y = mx + c is [-m : 1 : 0] for c = 0, else [m/c : -1/c : 1]
    ic = inv[e[1:]]
    step = max(1, _CHECK_BLOCK // q)
    for lo in range(0, q, step):
        m = e[lo : lo + step, None]
        lines = np.empty((len(m), q), dtype=np.int64)
        lines[:, :1] = 1 + neg[m]
        lines[:, 1:] = 1 + q + q * neg[ic] + mul[q * m + ic]
        y = add[q * mul[q * m + e][:, None, :] + e[:, None]]  # (slope, c, x)
        out[lines, :q] = 1 + q + q * y + e
        out[lines, q] = np.where(m == 0, 0, 1 + inv[m])
    out.sort(axis=1)
    _check_pencils(f, coords, out)


def _check_pencils(f: Field, coords: np.ndarray, pencils: np.ndarray) -> None:
    """RuntimeError unless the rows are the pencils of the plane over ``f``.

    A block of ``_CHECK_BLOCK`` rows at a time: every point of row j lies
    on line j (``coords`` holds the triples), no row repeats a point, and,
    summing one bincount per block, every point lies on q+1 lines.
    """
    n, cols = len(pencils), coords.T
    lines_on = np.zeros(n, dtype=np.int64)  # per point, the rows that hold it
    for lo in range(0, n, _CHECK_BLOCK):
        blk = pencils[lo : lo + _CHECK_BLOCK]
        at = slice(lo, lo + len(blk))
        if _dot(f, [c[blk] for c in cols], [c[at, None] for c in cols]).any():
            raise RuntimeError("pencil point off its line; field tables corrupt")
        if (np.diff(blk, axis=1) == 0).any():
            raise RuntimeError("pencil repeats a point; field tables corrupt")
        lines_on += np.bincount(blk.ravel(), minlength=n)
    if (lines_on != f.q + 1).any():
        raise RuntimeError("point on a wrong number of lines; field tables corrupt")


class Plane:
    """PG(2,q) with exact incidence and index lookups.

    The one stored incidence is ``pencils``: row j lists, ascending, the
    q+1 points on line j, as int32.  Point and line triples coincide and the
    pairing is symmetric, so row i also lists, ascending, the q+1 lines
    through point i.  No dense point-by-line matrix is kept: counts, the
    incidence graph and the spectrum's Gram check all read the pencils.

    The pencils are the second half of one int32 buffer of 2n(q+1) entries,
    laid out as the incidence graph's CSR ``indices``: the lines through
    each point, shifted by n, then the points on each line.
    ``incidence_graph`` writes the first half and hands the buffer to its
    ``Graph``; until then it is left unwritten.

    The pencils are written straight from each line's slope and intercept,
    and then checked a block of lines at a time: every stored point lies on
    its line's equation, no row repeats a point and every point lies on q+1
    lines; any failure is a RuntimeError.
    """

    def __init__(self, field: Field):
        q = field.q
        self.field = field
        self.q = q
        self.n = n = q * q + q + 1
        self._indices = np.empty(2 * n * (q + 1), dtype=np.int32)
        self.pencils = self._indices[n * (q + 1) :].reshape(n, q + 1)
        _pencils(field, self.coords, self.pencils)

    @cached_property
    def coords(self) -> np.ndarray:
        """The normalized triples in index order, as an ``(n, 3)`` int32 array.

        This is the canonical order: row 0 is (1:0:0), row 1 + x is (x:1:0)
        and row 1 + q + q*y + x is (x:y:1).  Point i and line i share row i.
        """
        q = self.q
        e = np.arange(q, dtype=np.int32)
        c = np.zeros((self.n, 3), dtype=np.int32)
        c[0, 0] = 1
        c[1 : q + 1, 0] = e
        c[1 : q + 1, 1] = 1
        c[q + 1 :, 0] = np.tile(e, q)
        c[q + 1 :, 1] = np.repeat(e, q)
        c[q + 1 :, 2] = 1
        return c

    def index(self, triples) -> np.ndarray:
        """Indices of nonzero coordinate triples, shape ``(..., 3)``.

        Each triple is scaled to its normalized form first, so any nonzero
        multiple of a point or line names it.  Raises ValueError on a
        coordinate outside ``[0, q)`` or not an integer, and on the zero triple.
        """
        t = np.asarray(triples)
        bad = _off_ids(t, self.q).any(axis=-1)
        if bad.any():
            raise ValueError(f"triple {t[bad][0].tolist()} has a coordinate outside GF({self.q})")
        return _triple_indices(self.field, t.astype(np.int64))

    def is_incident(self, point: int, line: int) -> bool:
        """Whether the point lies on the line; each id follows the rule of ``vertex_ids``."""
        line = _checked_ids(line, self.n, "line")
        return bool((self.pencils[line] == _checked_ids(point, self.n, "point")).any())

    def hits(self, ids) -> np.ndarray:
        """Per line, how many of the given points lie on it (repeats count).

        Points and lines share the pencils, so given line ids this counts,
        per point, the given lines through it.  An id outside the rule of
        ``vertex_ids`` is a ValueError.
        """
        ids = _checked_ids(ids, self.n, "id")
        return np.bincount(self.pencils[ids].ravel(), minlength=self.n)

    @cached_property
    def labels(self) -> list[str]:
        """Graph-order labels: ``P(a:b:c)`` for each row of ``coords``, then ``L[a:b:c]``."""
        xs = [str(x) for x in range(self.q)]
        names = ["1:0:0", *(f"{x}:1:0" for x in xs), *(f"{x}:{y}:1" for y in xs for x in xs)]
        return [f"P({s})" for s in names] + [f"L[{s}]" for s in names]

    def to_json(self) -> dict:
        """The plane document; ``lines_points`` is a read-only view of the pencils."""
        rows = self.pencils.view()
        rows.flags.writeable = False
        return {
            "order": self.q,
            "field": {
                "p": self.field.p,
                "h": self.field.h,
                "modulus": list(self.field.modulus),
            },
            "points": self.labels[: self.n],
            "lines": self.labels[self.n :],
            "lines_points": rows,
        }

    def __repr__(self) -> str:
        return f"Plane(q={self.q}, n={self.n})"


def plane_of_order(q: int) -> Plane:
    """Build PG(2,q) from a prime-power order."""
    p, h = factor_prime_power(q)
    # through make_field, which a traced benchmark run rebinds here to time fields.field
    return Plane(make_field(p, h))


def incidence_graph(pl: Plane) -> Graph:
    """Bipartite point/line graph: points are vertices 0..n-1, lines follow.

    The graph carries ``plane_order = q``: it is the incidence graph of the
    desarguesian plane, whose collineations the exhaustive search may use.
    Its ``indices`` are the plane's buffer (see ``Plane``): the point half
    is written here as ``pencils + n``, and the line half is the pencils.
    """
    n, r = pl.n, pl.q + 1
    indptr = np.arange(2 * n + 1, dtype=np.int64) * r
    np.add(pl.pencils, n, out=pl._indices[: n * r].reshape(n, r))
    return Graph(indptr, pl._indices, n_left=n, labels=pl.labels, plane_order=pl.q)


# -- Singer cycle -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SingerCycle:
    """A cyclic collineation, regular on points and on lines; ``perm`` is its collineation_perm."""

    poly: tuple[int, int, int]  # x^3 + c2 x^2 + c1 x + c0 as (c0, c1, c2)
    matrix: tuple[tuple[int, int, int], ...]
    perm: np.ndarray


def _mulmod_cubic(add, mul, neg, a, b, m):
    # a, b: length-3 coefficient lists, constant first; m = (c0, c1, c2),
    # a monic cubic; add, mul, neg: the field's tables as nested lists
    prod = [0] * 5
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = add[prod[i + j]][mul[ai][bj]]
    for k in (4, 3):
        c = neg[prod[k]]
        for i, mi in enumerate(m):
            prod[k - 3 + i] = add[prod[k - 3 + i]][mul[c][mi]]
    return [prod[0], prod[1], prod[2]]


def least_primitive_cubic(f: Field) -> tuple[int, int, int]:
    """Least monic primitive degree-3 polynomial over GF(q).

    Candidates x^3 + c2 x^2 + c1 x + c0 run with c2, then c1, then c0
    ascending.  Primitive means the companion matrix has multiplicative
    order q^3 - 1: the cubic has no root in GF(q), and x^((q^3-1)/r) is not
    1 mod the cubic for any prime r dividing q^3 - 1.
    """
    q = f.q
    group = q**3 - 1
    primes = prime_factors(group)
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    e = np.arange(q)
    c1s, xs = e[:, None], e[None, :]
    add_l, mul_l, neg_l = add.tolist(), mul.tolist(), neg.tolist()

    def pow_x(m, k):
        result, base = [1, 0, 0], [0, 1, 0]
        while k:
            if k & 1:
                result = _mulmod_cubic(add_l, mul_l, neg_l, result, base, m)
            base = _mulmod_cubic(add_l, mul_l, neg_l, base, base, m)
            k >>= 1
        return result

    for c2 in range(q):
        # the c0 that makes x a root: -((x + c2) x + c1) x
        roots = neg[mul[add[mul[add[xs, c2], xs], c1s], xs]]
        has_root = np.zeros((q, q), dtype=bool)
        has_root[c1s, roots] = True
        has_root[:, 0] = True  # c0 = 0 gives a root at 0
        for c1, c0 in np.argwhere(~has_root).tolist():
            m = (c0, c1, c2)
            if all(pow_x(m, group // r) != [1, 0, 0] for r in primes):
                if pow_x(m, group) != [1, 0, 0]:
                    raise RuntimeError("irreducible cubic with wrong order")
                return m
    raise RuntimeError(f"no primitive cubic over GF({q})")


def collineation_perm(pl: Plane, mat) -> np.ndarray:
    """The int64 permutation of the 2n incidence graph vertices that ``mat`` induces.

    ``perm[:n]`` moves the points by the invertible 3x3 ``mat``; ``perm[n:]`` is
    ``n +`` the move of the lines by its inverse transpose, the inverse of the
    transpose's action.  A singular ``mat`` sends a point to zero: ValueError.
    """
    f, t = pl.field, pl.coords.T
    rows = np.array(mat, dtype=np.int32)
    points, by_transpose = (
        _triple_indices(f, np.stack([_dot(f, r, t) for r in m], axis=-1)) for m in (rows, rows.T)
    )
    return np.concatenate([points, pl.n + np.argsort(by_transpose)])


def _single_cycle(perm: np.ndarray, what: str) -> np.ndarray:
    """The orbit 0, perm[0], perm[perm[0]], ...; RuntimeError unless it is all of perm's ids."""
    step = perm.tolist()
    n = len(step)
    orbit, v = [0], step[0]
    while v and len(orbit) < n:
        orbit.append(v)
        v = step[v]
    if v or len(orbit) != n:
        raise RuntimeError(f"{what} does not act as a single {n}-cycle")
    return np.array(orbit, dtype=np.int64)


def singer_cycle(pl: Plane) -> SingerCycle:
    """Cyclic collineation of order q^2+q+1 from the least primitive cubic.

    Points map by the companion matrix, lines by its inverse transpose, so
    incidence is preserved; each must act as one n-cycle.
    """
    c0, c1, c2 = least_primitive_cubic(pl.field)
    neg = pl.field.neg_table.tolist()
    mat = (
        (0, 0, neg[c0]),
        (1, 0, neg[c1]),
        (0, 1, neg[c2]),
    )
    perm = collineation_perm(pl, mat)
    _single_cycle(perm[: pl.n], "point action")
    _single_cycle(perm[pl.n :] - pl.n, "line action")
    return SingerCycle(poly=(c0, c1, c2), matrix=mat, perm=perm)


# -- Baer subplane decomposition ---------------------------------------------


@dataclass(frozen=True, eq=False)
class BaerDecomposition:
    """Disjoint Baer subplanes covering the points and the lines of PG(2,q)."""

    suborder: int
    subplanes: list[tuple[np.ndarray, np.ndarray]]  # (point ids, line ids)


def verify_subplane(pl: Plane, pts, lns, m: int) -> bool:
    """Check that (pts, lns), id sets under ``vertex_ids``, is a subplane of order m."""
    pts = vertex_ids(pts, pl.n, "point")
    lns = vertex_ids(lns, pl.n, "line")
    k = m * m + m + 1
    if pts.size != k or lns.size != k:
        return False
    if not (pl.hits(pts)[lns] == m + 1).all() or not (pl.hits(lns)[pts] == m + 1).all():
        return False
    # every two points of pts share a line of lns: the lines' point pairs
    # cover all k(k-1)/2 pairs
    in_pts = np.zeros(pl.n, dtype=bool)
    in_pts[pts] = True
    on = pl.pencils[lns]
    # int64: the pair codes reach n*n, which passes int32 once q > 214
    sub = on[in_pts[on]].reshape(k, m + 1).astype(np.int64)
    a, b = np.triu_indices(m + 1, 1)
    pairs = sub[:, a] * pl.n + sub[:, b]
    return bool(distinct(pairs).size == k * (k - 1) // 2)


def baer_decomposition(pl: Plane) -> BaerDecomposition:
    """Partition points and lines into q - sqrt(q) + 1 Baer subplanes.

    Point classes are the orbits of the subgroup generated by the
    (q - sqrt(q) + 1)-th power of the Singer cycle; each class's line set is
    recovered as the lines meeting it in sqrt(q) + 1 points.
    """
    q = pl.q
    r = math.isqrt(q)
    if r * r != q:
        raise ValueError(f"Baer decomposition requires a square order, got q={q}")
    n = pl.n
    e = q - r + 1  # subplane count; orbit length is n // e = q + r + 1
    cycle = _single_cycle(singer_cycle(pl).perm[:n], "point action")
    size = n // e
    orbits = np.sort(cycle[(np.arange(e)[:, None] + e * np.arange(size)) % n], axis=1)
    orbits = orbits[np.argsort(orbits[:, 0])]
    rich = r + 1
    subplanes: list[tuple[np.ndarray, np.ndarray]] = []
    for pts in orbits:
        lns = np.flatnonzero(pl.hits(pts) == rich)
        if lns.size != size or not verify_subplane(pl, pts, lns, r):
            raise RuntimeError("Singer power orbit is not a Baer subplane")
        subplanes.append((pts, lns))
    covered = np.concatenate([s[1] for s in subplanes])
    if distinct(covered).size != n:
        raise RuntimeError("subplane line sets do not partition the lines")
    return BaerDecomposition(suborder=r, subplanes=subplanes)
