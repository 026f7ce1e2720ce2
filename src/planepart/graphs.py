"""Undirected graphs in CSR adjacency form, with DIMACS export."""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

import numpy as np

_DIMACS_BLOCK = 1 << 13  # adjacency entries per block of the DIMACS export


class Graph:
    """Simple undirected graph.

    Vertices are ``0..n-1``.  ``n_left`` marks a bipartition boundary when
    the graph is a point/line incidence graph (points first).  ``labels``
    holds one text per vertex; a graph built without them labels vertex v
    ``v<v>``.  ``plane_order`` is q when the graph is the incidence graph of
    PG(2,q), as built by ``plane.incidence_graph``, and None otherwise; the
    exhaustive search uses it to cut the plane's symmetry from its tree.
    """

    def __init__(self, indptr, indices, n_left=None, labels=None, plane_order=None):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.n_left = n_left
        self.labels = [f"v{v}" for v in range(self.n)] if labels is None else labels
        self.plane_order = plane_order

    @classmethod
    def from_neighbor_lists(cls, nbrs, n_left=None, labels=None) -> "Graph":
        indptr = np.zeros(len(nbrs) + 1, dtype=np.int64)
        np.cumsum([len(x) for x in nbrs], out=indptr[1:])
        parts = [np.asarray(x, dtype=np.int32) for x in nbrs] or [np.empty(0, np.int32)]
        return cls(indptr, np.concatenate(parts), n_left=n_left, labels=labels)

    @classmethod
    def from_edges(cls, n: int, edges, n_left=None, labels=None) -> "Graph":
        nbrs: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside [0, {n})")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        return cls.from_neighbor_lists([sorted(x) for x in nbrs], n_left=n_left, labels=labels)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr).astype(np.int64)

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def vertex_blocks(self, entries: int) -> list[tuple[int, int]]:
        """Consecutive vertex ranges ``(lo, hi)`` that cover ``0..n-1`` in order.

        A range holds at most ``entries`` adjacency entries, or is one vertex
        whose row alone holds more.  A graph of at most ``entries`` entries is
        one range, found without a search of ``indptr``.
        """
        indptr, n = self.indptr, self.n
        total = int(indptr[-1])
        blocks, lo = [], 0
        while lo < n:
            end = int(indptr[lo]) + entries
            hi = n if end >= total else max(lo + 1, int(np.searchsorted(indptr, end, "right")) - 1)
            blocks.append((lo, hi))
            lo = hi
        return blocks

    def row_sums(self, values, lo: int, hi: int) -> np.ndarray:
        """Per vertex of ``lo..hi-1``, the sum of ``values`` over its adjacency entries.

        ``values`` has one entry per entry of ``indices[indptr[lo]:indptr[hi]]``;
        the sums are in its dtype, or int32 for a narrower one, and an empty
        row sums to 0.  One ``np.add.reduceat`` over the starts of the rows
        that have entries: each start is below ``len(values)``.
        """
        starts = self.indptr[lo:hi] - self.indptr[lo]
        full = self.degrees[lo:hi] > 0
        dtype = np.promote_types(values.dtype, np.int32)
        out = np.zeros(hi - lo, dtype=dtype)
        out[full] = np.add.reduceat(values, starts[full], dtype=dtype)
        return out

    @cached_property
    def adjacency_lists(self) -> list[list[int]]:
        cut, flat = self.indptr.tolist(), self.indices.tolist()
        return [flat[a:b] for a, b in zip(cut, cut[1:])]

    @cached_property
    def label_ids(self) -> dict[str, int]:
        """The vertex id of each label: the inverse of ``labels``."""
        return {label: v for v, label in enumerate(self.labels)}

    def to_dimacs(self, fh) -> None:
        """Write DIMACS-like text to ``fh``: ``p edge n m``, one ``e u v`` per edge.

        Each edge is written once, from its lower end, in that end's
        neighbour order.  The text goes out a block of vertices at a time,
        ``vertex_blocks(_DIMACS_BLOCK)``, so only one block's lines, not the
        text of the whole graph, are alive at once.
        """
        n, indptr = self.n, self.indptr
        fh.write(f"p edge {n} {self.edge_count}\n")
        # the 1-based text of each vertex, gathered a block of edge tails at a time
        ids = np.array([str(v) for v in range(1, n + 1)], dtype=object)
        for lo, hi in self.vertex_blocks(_DIMACS_BLOCK):
            nbrs = self.indices[indptr[lo] : indptr[hi]]
            src = np.repeat(np.arange(lo, hi, dtype=np.int32), self.degrees[lo:hi])
            keep = nbrs > src
            tails = ids[nbrs[keep]].tolist()
            # tails[cut[v - lo] : cut[v - lo + 1]] are the higher neighbours of v
            cut = [0, *np.cumsum(self.row_sums(keep, lo, hi)).tolist()]
            parts = []
            for v, a, b in zip(range(lo, hi), cut, cut[1:]):
                if a < b:
                    head = f"e {v + 1} "
                    parts.append(head + f"\n{head}".join(tails[a:b]) + "\n")
            fh.write("".join(parts))


class LabelMap(Mapping):
    """The JSON object ``{labels[v]: value of v}`` over the vertices, kept as arrays.

    ``labels`` are distinct strings and ``codes`` an integer array with one
    entry per label; the value of v is ``names[codes[v]]``, or ``codes[v]``
    itself when ``names`` is None.  The arrays are not copied.  The CLI's JSON
    writer writes the object from them, without building the dict that
    ``dict(m)`` builds.
    """

    def __init__(self, labels, codes, names=None):
        self.labels = labels
        self.codes = np.asarray(codes)
        self.names = names
        if self.codes.shape != (len(labels),):
            raise ValueError(f"{len(labels)} labels, but codes of shape {self.codes.shape}")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, label):
        return self.value(int(self.codes[self._ids[label]]))

    def value(self, code: int):
        """The JSON value that ``code`` stands for."""
        return code if self.names is None else self.names[code]

    @cached_property
    def _ids(self) -> dict:
        return {label: v for v, label in enumerate(self.labels)}


def json_default(obj):
    """The ``default`` of ``json.dumps`` for the package's documents.

    An array becomes its ``tolist()`` and a :class:`LabelMap` its dict.  The
    CLI writes every document as ``json.dumps(doc, indent=2,
    default=json_default)`` would write it.
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, LabelMap):
        return dict(zip(obj.labels, map(obj.value, obj.codes.tolist())))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
