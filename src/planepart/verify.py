"""Margins and intimacy of a two-class vertex partition.

This is the single source of truth for partition quality: constructions and
searches emit assignments, this module measures them.  The margin of a
vertex is ``2*d_own(v) - d(v)``; a partition is t-internal when every
margin is at least ``2t``, and its intimacy is ``min_v floor(margin(v)/2)``
with floor taken toward minus infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import Partition
from .graphs import Graph, LabelMap


@dataclass(frozen=True, eq=False)
class MarginReport:
    margin: np.ndarray
    class_sizes: tuple[int, int]
    min_margin_a: int
    min_margin_b: int
    partition_intimacy: int

    def to_json(self, labels) -> dict:
        return {
            "margins": LabelMap(labels, self.margin),
            "summary": {
                "class_sizes": {"A": self.class_sizes[0], "B": self.class_sizes[1]},
                "min_margin_A": self.min_margin_a,
                "min_margin_B": self.min_margin_b,
                "partition_intimacy": self.partition_intimacy,
            },
        }


def margins(g: Graph, partition) -> MarginReport:
    """Exact margin report of a :class:`Partition` or of its ``side`` array.

    A side that is not a ``Partition`` is checked by building one; a
    partition that does not cover the graph's vertices is a ValueError.
    """
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    side = partition.side
    if side.size != g.n:
        raise ValueError(f"partition covers {side.size} vertices, graph has {g.n}")
    size_a = int(np.count_nonzero(side == 0))
    size_b = g.n - size_a
    same = side[g.indices] == np.repeat(side, g.degrees)
    cum = np.zeros(same.size + 1, dtype=np.int32)
    cum[1:] = same
    np.cumsum(cum[1:], out=cum[1:])  # in place: cumsum would copy a bool input to int32
    d_own = cum[g.indptr[1:]] - cum[g.indptr[:-1]]
    margin = 2 * d_own - g.degrees
    return MarginReport(
        margin=margin,
        class_sizes=(size_a, size_b),
        min_margin_a=int(margin[side == 0].min()),
        min_margin_b=int(margin[side == 1].min()),
        partition_intimacy=int((margin // 2).min()),
    )


def is_internal(g: Graph, partition) -> bool:
    """True when every vertex has at least half its neighbors on its side."""
    return margins(g, partition).partition_intimacy >= 0


def is_strict(g: Graph, partition) -> bool:
    """True when every vertex has strictly more neighbors on its own side."""
    return bool((margins(g, partition).margin >= 1).all())
