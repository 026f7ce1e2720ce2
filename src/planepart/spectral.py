"""Singular values of the plane incidence matrix and the mixing bound.

For PG(2,q) the point-line incidence matrix M satisfies
``M M^T = q I + J`` exactly, so the singular values are q+1 once and
sqrt(q) with multiplicity q^2+q.  ``singular_spectrum`` checks that
identity over the integers from the pencils; no dense matrix is built.
The expander mixing bound with lambda_2 = sqrt(q) caps the intimacy of
any partition at the largest integer strictly below sqrt(q)/2, the
paper's cap; the parity of the margins lowers it for some even q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import factor_prime_power
from .plane import Plane, vertex_ids

_GRAM_BLOCK = 1 << 14  # Gram entries per block of singular_spectrum


@dataclass(frozen=True, eq=False)
class SpectralReport:
    singular_values: list[tuple[float, int]]  # (value, multiplicity), descending
    lambda2: float | None  # None when the Gram identity fails
    max_residual: int  # max abs entry of M M^T - qI - J, exact integer

    def to_json(self) -> dict:
        return {
            "singular_values": [[v, m] for v, m in self.singular_values],
            "lambda2": self.lambda2,
            "max_residual": self.max_residual,
        }


def singular_spectrum(pl: Plane) -> SpectralReport:
    """Singular values of M from the exact Gram residual max |M M^T - qI - J|.

    Row P of M M^T is ``pl.hits(pl.pencils[P])``, read with one
    bincount per block of points, about 2^14 Gram entries (``_GRAM_BLOCK``)
    at a time; points and lines share the pencils, so the rows are those of
    M^T M too.  A zero residual gives q+1 once and sqrt(q) q^2+q times;
    otherwise the report holds no values.
    """
    n, q = pl.n, pl.q
    block = max(1, _GRAM_BLOCK // n)
    residual = 0
    for lo in range(0, n, block):
        rows = np.arange(lo, min(lo + block, n))
        on = pl.pencils[pl.pencils[rows]].reshape(rows.size, -1)
        on += (np.arange(rows.size) * n)[:, None]
        gram = np.bincount(on.ravel(), minlength=rows.size * n).reshape(rows.size, n)
        gram[np.arange(rows.size), rows] -= q
        gram -= 1
        np.abs(gram, out=gram)
        residual = max(residual, int(gram.max()))
    if residual:
        return SpectralReport(singular_values=[], lambda2=None, max_residual=residual)
    values = [(float(q + 1), 1), (math.sqrt(q), q * q + q)]
    return SpectralReport(singular_values=values, lambda2=math.sqrt(q), max_residual=0)


@dataclass(frozen=True)
class MixingBound:
    """Edge-count window for subsets S, T of the two sides of the graph."""

    s: int
    t: int
    expected: float
    deviation_cap: float

    @property
    def lower(self) -> float:
        return self.expected - self.deviation_cap

    @property
    def upper(self) -> float:
        return self.expected + self.deviation_cap


def mixing_bound(n: int, d: int, lambda2: float, s: int, t: int) -> MixingBound:
    """Mixing window for a d-regular bipartite graph with n vertices a side.

    e(S,T) lies within lambda2 * sqrt(s*t*(1-s/n)*(1-t/n)) of d*s*t/n.
    """
    if not (0 <= s <= n and 0 <= t <= n):
        raise ValueError(f"subset sizes must lie in [0, {n}], got s={s}, t={t}")
    expected = d * s * t / n
    cap = lambda2 * math.sqrt(s * t * (1 - s / n) * (1 - t / n))
    return MixingBound(s=s, t=t, expected=expected, deviation_cap=cap)


def _vertex_sets(pl: Plane, point_set, line_set) -> tuple[np.ndarray, np.ndarray]:
    """Point ids and line ids (graph ids less n) of two vertex sets, under ``vertex_ids``."""
    n = pl.n
    pts = vertex_ids(point_set, n, "point vertex")
    lns = vertex_ids(line_set, 2 * n, "line vertex")
    if lns.size and lns[0] < n:
        raise ValueError("line set must hold line vertices (ids n..2n-1)")
    return pts, lns - n


def edges_between(pl: Plane, point_set, line_set) -> int:
    """Incidences between graph point vertices and graph line vertices.

    Takes sets of incidence-graph vertex ids under ``vertex_ids``: points
    in [0, n), lines in [n, 2n).
    """
    pts, lns = _vertex_sets(pl, point_set, line_set)
    return int(pl.hits(pts)[lns].sum())


def check_mixing(pl: Plane, point_set, line_set) -> bool:
    """True when the actual incidence count sits inside the mixing window.

    The sets are those of ``edges_between``.  lambda2 enters symbolically
    as sqrt(q); a hair of float slack absorbs rounding in the window ends.
    """
    pts, lns = _vertex_sets(pl, point_set, line_set)
    b = mixing_bound(pl.n, pl.q + 1, math.sqrt(pl.q), pts.size, lns.size)
    return b.lower - 1e-9 <= int(pl.hits(pts)[lns].sum()) <= b.upper + 1e-9


def intimacy_upper_bound(q: int) -> int:
    """The paper's cap: the largest integer strictly below sqrt(q)/2, i.e. max t with 4t^2 < q."""
    factor_prime_power(q)  # plane orders are prime powers
    return math.isqrt((q - 1) // 4)


def parity_intimacy_bound(q: int) -> int:
    """The parity cap: the largest t with (2t + [q even])^2 < q.

    The mixing bound leaves some margin of every partition at most sqrt(q).
    A margin ``2*d_own - (q+1)`` has the parity of q+1, so it is not sqrt(q),
    an integer only when q is a square, of q's parity; hence the least
    margin is below sqrt(q).  A t-internal partition has every margin at
    least 2t, and at least 2t+1 when q is even, as margins are then odd.
    This is ``intimacy_upper_bound`` on every odd and every square q; among
    prime powers up to 64 it is lower only at q=8, where it is 0.
    """
    factor_prime_power(q)  # plane orders are prime powers
    return (math.isqrt(q - 1) - (q % 2 == 0)) // 2
