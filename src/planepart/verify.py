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

_MARGIN_BLOCK = 1 << 14  # adjacency entries per block of the own-side count


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


def _own_counts(g: Graph, side, lo: int, hi: int) -> np.ndarray:
    """Per vertex of ``lo..hi-1``, its neighbours on its own side.

    Reads only the adjacency entries of those vertices: one gather of their
    sides, and one per-row sum of it, which counts the neighbours on side 1.
    The block's int32 entries are cast to intp first, faster than the gather's own cast.
    """
    ones = g.row_sums(side[g.indices[g.indptr[lo] : g.indptr[hi]].astype(np.intp)], lo, hi)
    return np.where(side[lo:hi] == 1, ones, g.degrees[lo:hi] - ones)


def margins(g: Graph, partition) -> MarginReport:
    """Exact margin report of a :class:`Partition` or of its ``side`` array.

    A side that is not a ``Partition`` is checked by building one; a
    partition that does not cover the graph's vertices is a ValueError.
    The own-side neighbours are counted a block of vertices at a time,
    ``g.vertex_blocks(_MARGIN_BLOCK)``, so no temporary is as long as the
    adjacency of a graph of more than one block.
    """
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    side = partition.side
    if side.size != g.n:
        raise ValueError(f"partition covers {side.size} vertices, graph has {g.n}")
    size_a = int(np.count_nonzero(side == 0))
    d_own = np.empty(g.n, dtype=np.int32)
    for lo, hi in g.vertex_blocks(_MARGIN_BLOCK):
        d_own[lo:hi] = _own_counts(g, side, lo, hi)
    margin = 2 * d_own - g.degrees
    return MarginReport(
        margin=margin,
        class_sizes=(size_a, g.n - size_a),
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
