"""Singular values of the plane incidence matrix and the mixing bound.

For PG(2,q) the point-line incidence matrix M satisfies
``M M^T = q I + J`` exactly, so the singular values are q+1 once and
sqrt(q) with multiplicity q^2+q.  The expander mixing bound with
lambda_2 = sqrt(q) caps the intimacy of any partition at the largest
integer strictly below sqrt(q)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import factor_prime_power
from .plane import Plane

MAX_SPECTRUM_ORDER = 16
GROUP_TOL = 1e-9


def incidence_matrix(pl: Plane) -> np.ndarray:
    """Dense 0/1 point-by-line matrix."""
    return pl.incidence.astype(np.int64)


@dataclass(frozen=True, eq=False)
class SpectralReport:
    singular_values: list[tuple[float, int]]  # (value, multiplicity), descending
    lambda2: float
    max_residual: int  # max abs entry of M M^T - qI - J, exact integer

    def to_json(self) -> dict:
        return {
            "singular_values": [[v, m] for v, m in self.singular_values],
            "lambda2": self.lambda2,
            "max_residual": self.max_residual,
        }


def singular_spectrum(pl: Plane) -> SpectralReport:
    """Grouped singular values of M plus the exact Gram residual.

    Dense computation; restricted to q <= 16.
    """
    if pl.q > MAX_SPECTRUM_ORDER:
        raise ValueError(
            f"spectrum computation restricted to q <= {MAX_SPECTRUM_ORDER}, got q={pl.q}"
        )
    m = incidence_matrix(pl)
    gram = m @ m.T
    expect = pl.q * np.eye(pl.n, dtype=np.int64) + np.ones((pl.n, pl.n), np.int64)
    max_residual = int(np.abs(gram - expect).max())
    sv = np.linalg.svd(m.astype(np.float64), compute_uv=False)
    groups: list[list] = []
    for v in sv:
        if groups and groups[-1][0] - v <= GROUP_TOL:
            groups[-1][1] += 1
        else:
            groups.append([float(v), 1])
    lambda2 = groups[1][0] if len(groups) > 1 else 0.0
    return SpectralReport(
        singular_values=[(v, c) for v, c in groups],
        lambda2=lambda2,
        max_residual=max_residual,
    )


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


def edges_between(pl: Plane, point_set, line_set) -> int:
    """Incidences between graph point vertices and graph line vertices.

    Takes incidence-graph vertex ids: points in [0, n), lines in [n, 2n).
    """
    n = pl.n
    pts = np.asarray(sorted(set(int(v) for v in point_set)), dtype=np.int64)
    lns = np.asarray(sorted(set(int(v) for v in line_set)), dtype=np.int64)
    if pts.size and not ((0 <= pts) & (pts < n)).all():
        raise ValueError("point set must hold point vertices (ids below n)")
    if lns.size and not ((n <= lns) & (lns < 2 * n)).all():
        raise ValueError("line set must hold line vertices (ids n..2n-1)")
    if pts.size == 0 or lns.size == 0:
        return 0
    return int(pl.hits(pts)[lns - n].sum())


def check_mixing(pl: Plane, point_set, line_set) -> bool:
    """True when the actual incidence count sits inside the mixing window.

    lambda2 enters symbolically as sqrt(q); a hair of float slack absorbs
    rounding in the window ends.
    """
    pts = set(int(v) for v in point_set)
    lns = set(int(v) for v in line_set)
    actual = edges_between(pl, pts, lns)
    b = mixing_bound(pl.n, pl.q + 1, math.sqrt(pl.q), len(pts), len(lns))
    return b.lower - 1e-9 <= actual <= b.upper + 1e-9


def intimacy_upper_bound(q: int) -> int:
    """Largest integer strictly below sqrt(q)/2, i.e. max t with 4t^2 < q."""
    factor_prime_power(q)  # plane orders are prime powers
    return math.isqrt((q - 1) // 4)
