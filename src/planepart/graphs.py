"""Undirected graphs in CSR adjacency form, with DIMACS export."""

from __future__ import annotations

from functools import cached_property

import numpy as np


class Graph:
    """Simple undirected graph.

    Vertices are ``0..n-1``.  ``n_left`` marks a bipartition boundary when
    the graph is a point/line incidence graph (points first).  Labels are
    optional; unlabeled vertices print as ``v<id>``.
    """

    def __init__(self, indptr, indices, n_left=None, labels=None):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.n_left = n_left
        self.labels = labels

    @classmethod
    def from_neighbor_lists(cls, nbrs, n_left=None, labels=None) -> "Graph":
        indptr = np.zeros(len(nbrs) + 1, dtype=np.int64)
        np.cumsum([len(x) for x in nbrs], out=indptr[1:])
        if len(nbrs):
            parts = [np.asarray(x, dtype=np.int32) for x in nbrs]
            indices = np.concatenate(parts) if indptr[-1] else np.empty(0, np.int32)
        else:
            indices = np.empty(0, np.int32)
        return cls(indptr, indices, n_left=n_left, labels=labels)

    @classmethod
    def from_edges(cls, n: int, edges, n_left=None, labels=None) -> "Graph":
        nbrs: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        return cls.from_neighbor_lists(
            [sorted(x) for x in nbrs], n_left=n_left, labels=labels
        )

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

    @cached_property
    def adjacency_lists(self) -> list[list[int]]:
        return [self.neighbors(v).tolist() for v in range(self.n)]

    def label(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return f"v{v}"

    @cached_property
    def label_ids(self) -> dict[str, int]:
        """The vertex id of each label: the inverse of ``label``."""
        return {self.label(v): v for v in range(self.n)}

    def to_dimacs(self) -> str:
        """DIMACS-like text: ``p edge n m`` then one ``e u v`` per edge, 1-based."""
        out = [f"p edge {self.n} {self.edge_count}"]
        for v in range(self.n):
            for u in self.neighbors(v):
                if u > v:
                    out.append(f"e {v + 1} {u + 1}")
        return "\n".join(out) + "\n"
