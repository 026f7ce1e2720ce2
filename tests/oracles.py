"""Independent reference implementations the tests check the package against."""

import math
import random
import sys
import time
from collections import deque

import numpy as np

from planepart.graphs import Graph
# the package's one cache of planes, graphs and Baer decompositions
from planepart.reproduce import _baer as get_baer, _graph as get_graph, _plane as get_plane
from planepart.reproduce import _random_bipartite as random_bipartite
from planepart.search import EXHAUSTED, FOUND, TIMEOUT, AnnealParams, SearchResult, _wrap_witness


def naive_margins(g: Graph, side) -> list[int]:
    """Per-vertex 2*own - deg by direct neighbor scan."""
    out = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        own = sum(1 for u in nbrs if side[u] == side[v])
        out.append(2 * own - len(nbrs))
    return out


def naive_intimacy(g: Graph, side) -> int:
    ms = naive_margins(g, side)
    # floor toward -infinity
    return min(m // 2 if m >= 0 or m % 2 == 0 else (m - 1) // 2 for m in ms)


def dense_incidence(pl) -> np.ndarray:
    """Point-by-line boolean matrix by testing every point against every line."""
    f = pl.field
    t = np.array(pl.triples, dtype=np.int32)
    mul, add = f.mul_table, f.add_table
    inc = np.empty((pl.n, pl.n), dtype=bool)
    for lo in range(0, pl.n, 1024):
        hi = min(lo + 1024, pl.n)
        a = t[lo:hi]
        s = mul[a[:, 0][:, None], t[:, 0][None, :]]
        s = add[s, mul[a[:, 1][:, None], t[:, 1][None, :]]]
        s = add[s, mul[a[:, 2][:, None], t[:, 2][None, :]]]
        inc[lo:hi] = s == 0
    return inc


def reference_perm_from_action(pl, mat) -> np.ndarray:
    """Permutation of triple indices under a 3x3 matrix, one triple at a time."""
    f = pl.field

    def mat_vec(v):
        return tuple(
            f.add(f.add(f.mul(mat[i][0], v[0]), f.mul(mat[i][1], v[1])), f.mul(mat[i][2], v[2]))
            for i in range(3)
        )

    perm = np.empty(pl.n, dtype=np.int64)
    for i, t in enumerate(pl.triples):
        perm[i] = pl.index_of[pl.normalize(mat_vec(t))]
    return perm


def reference_dimacs(g: Graph) -> str:
    """DIMACS text by a per-vertex scan of the neighbor lists."""
    out = [f"p edge {g.n} {g.edge_count}"]
    for v in range(g.n):
        for u in g.neighbors(v):
            if u > v:
                out.append(f"e {v + 1} {u + 1}")
    return "\n".join(out) + "\n"


def girth(g: Graph) -> int:
    """Shortest cycle length by BFS from every vertex."""
    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                u = int(u)
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif parent[v] != u:
                    cyc = dist[v] + dist[u] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def poly_divides(p, d, f):
    """Whether monic d divides f over GF(p); both little-endian, f monic."""
    f = list(f)
    while len(f) >= len(d):
        c = f[-1]
        if c:
            shift = len(f) - len(d)
            for i, di in enumerate(d):
                f[shift + i] = (f[shift + i] - c * di) % p
        f.pop()
    return all(c == 0 for c in f)


def monic_polys(p, deg):
    for enc in range(p**deg):
        coeffs = []
        e = enc
        for _ in range(deg):
            coeffs.append(e % p)
            e //= p
        yield coeffs + [1]


def is_irreducible_bruteforce(p, f) -> bool:
    deg = len(f) - 1
    for d_deg in range(1, deg // 2 + 1):
        for d in monic_polys(p, d_deg):
            if poly_divides(p, d, f):
                return False
    return True


def random_partition(rng, n) -> np.ndarray:
    while True:
        side = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.uint8)
        if 0 < side.sum() < n:
            return side


def reference_anneal(g: Graph, t: int, params=None, init=None) -> SearchResult:
    """The annealer as a plain loop: every proposal rescans N(v) for its delta.

    ``planepart.search.anneal_search`` caches the deltas instead and must
    agree with this on status, proposals, details and witness.
    """
    params = params or AnnealParams()
    if g.n < 2:
        raise ValueError("need at least two vertices to partition")
    start = time.monotonic()
    rng = random.Random(params.seed)
    n = g.n
    adj = [tuple(a) for a in g.adjacency_lists]
    deg = [len(a) for a in adj]
    target = [deg[v] + 2 * t for v in range(n)]
    proposals = 0
    accepted = 0
    best_obj = None

    def finish(status, side=None, detail=None):
        witness = None
        if side is not None:
            witness = _wrap_witness(
                g, side, t, "anneal", {"seed": params.seed}
            )
        details = {
            "seed": params.seed, "t": t, "best_objective": best_obj, "accepted": accepted
        }
        details.update(detail or {})
        return SearchResult(
            status=status,
            witness=witness,
            nodes_explored=proposals,
            wall_time=time.monotonic() - start,
            details=details,
        )

    for restart in range(params.restarts):
        if restart == 0 and init is not None:
            side = [int(s) for s in init.side]
            if len(side) != n:
                raise ValueError("init partition does not match the graph")
        else:
            side = [rng.randrange(2) for _ in range(n)]
        ones = sum(side)
        if ones == 0:
            side[rng.randrange(n)] = 1
        elif ones == n:
            side[rng.randrange(n)] = 0
        counts = [n - sum(side), sum(side)]
        own = [sum(1 for u in adj[v] if side[u] == side[v]) for v in range(n)]
        obj = sum(max(0, target[v] - 2 * own[v]) for v in range(n))
        best_obj = obj if best_obj is None else min(best_obj, obj)
        if obj == 0:
            return finish(FOUND, side=side, detail={"restart": restart, "sweep": 0})
        temp = params.start_temp
        for sweep in range(params.sweeps):
            for _ in range(n):
                proposals += 1
                v = rng.randrange(n)
                s = side[v]
                if counts[s] == 1:
                    continue
                d = deg[v]
                new_own_v = d - own[v]
                pen_old = target[v] - 2 * own[v]
                pen_new = target[v] - 2 * new_own_v
                delta = max(0, pen_new) - max(0, pen_old)
                for u in adj[v]:
                    ou = own[u]
                    nu = ou - 1 if side[u] == s else ou + 1
                    tu = target[u]
                    po = tu - 2 * ou
                    pn = tu - 2 * nu
                    delta += max(0, pn) - max(0, po)
                if delta <= 0 or rng.random() < math.exp(-delta / temp):
                    accepted += 1
                    for u in adj[v]:
                        own[u] += -1 if side[u] == s else 1
                    own[v] = new_own_v
                    counts[s] -= 1
                    counts[s ^ 1] += 1
                    side[v] ^= 1
                    obj += delta
                    if obj < best_obj:
                        best_obj = obj
                    if obj == 0:
                        return finish(
                            FOUND, side=side, detail={"restart": restart, "sweep": sweep}
                        )
            temp *= params.cooling
    return finish(TIMEOUT)


# -- the recursive branch and bound --------------------------------------------------
# ``planepart.search._solve`` must visit the same tree: the same status, node
# count and witness from every start.

_BUDGET_CHECK_MASK = 0x3FF


class _Stop(Exception):
    """Raised when the node or time budget runs out."""


class _Solver:
    def __init__(self, adj, t, max_nodes=None, deadline=None):
        self.adj = adj
        self.n = len(adj)
        self.deg = [len(a) for a in adj]
        # per-vertex own-degree requirement: ceil((d + 2t)/2), clamped at 0
        self.req = [max(0, (d + 2 * t + 1) // 2) for d in self.deg]
        self.side = [-1] * self.n
        self.cnt = ([0] * self.n, [0] * self.n)  # assigned neighbors on A, on B
        self.trail: list[int] = []
        self.nodes = 0
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.witness: list[int] | None = None

    def _bump(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Stop
        if (
            self.deadline is not None
            and (self.nodes & _BUDGET_CHECK_MASK) == 0
            and time.monotonic() > self.deadline
        ):
            raise _Stop

    def _check(self, u, queue) -> bool:
        d = self.deg[u]
        a = self.cnt[0][u]
        b = self.cnt[1][u]
        un = d - a - b
        r = self.req[u]
        su = self.side[u]
        if su == 0:
            if a + un < r:
                return False
            if a + un == r and un:
                for w in self.adj[u]:
                    if self.side[w] == -1:
                        queue.append((w, 0))
        elif su == 1:
            if b + un < r:
                return False
            if b + un == r and un:
                for w in self.adj[u]:
                    if self.side[w] == -1:
                        queue.append((w, 1))
        else:
            ok_a = a + un >= r
            ok_b = b + un >= r
            if not ok_a and not ok_b:
                return False
            if ok_a != ok_b:
                queue.append((u, 0 if ok_a else 1))
        return True

    def _assign(self, v, s) -> bool:
        queue = [(v, s)]
        while queue:
            w, sw = queue.pop()
            cur = self.side[w]
            if cur == sw:
                continue
            if cur != -1:
                return False
            self.side[w] = sw
            self.trail.append(w)
            cw = self.cnt[sw]
            for u in self.adj[w]:
                cw[u] += 1
            if not self._check(w, queue):
                return False
            for u in self.adj[w]:
                if not self._check(u, queue):
                    return False
        return True

    def _undo(self, mark):
        while len(self.trail) > mark:
            v = self.trail.pop()
            s = self.side[v]
            self.side[v] = -1
            cs = self.cnt[s]
            for u in self.adj[v]:
                cs[u] -= 1

    def _select(self):
        best = None
        best_key = None
        for v in range(self.n):
            if self.side[v] != -1:
                continue
            a = self.cnt[0][v]
            b = self.cnt[1][v]
            un = self.deg[v] - a - b
            r = self.req[v]
            key = (min(a, b) + un - r, a + b + 2 * un - 2 * r, v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def assign_presets(self, presets) -> bool:
        for v, s in presets:
            if self.side[v] == s:
                continue
            if not self._assign(v, s):
                return False
        return True

    def _complete(self) -> bool:
        side = self.side
        if 0 in side and 1 in side:
            self.witness = list(side)
            return True
        return False

    def search(self) -> bool:
        v = self._select()
        if v is None:
            return self._complete()
        for s in (0, 1):
            self._bump()
            mark = len(self.trail)
            if self._assign(v, s) and self.search():
                return True
            self._undo(mark)
        return False


def reference_solve(adj, t, presets, max_nodes, deadline):
    """The recursive solver's run from ``presets``: ``(status, witness side, nodes)``.

    ``search()`` recurses once per branching level, so the recursion limit
    is raised (never lowered) for the length of the run and the caller's
    limit is restored.
    """
    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(caller_limit, 10_000, 4 * len(adj) + 100))
    solver = _Solver(adj, t, max_nodes=max_nodes, deadline=deadline)
    try:
        if not solver.assign_presets(presets):
            return (EXHAUSTED, None, solver.nodes)
        if solver.search():
            return (FOUND, solver.witness, solver.nodes)
        return (EXHAUSTED, None, solver.nodes)
    except _Stop:
        return (TIMEOUT, None, solver.nodes)
    finally:
        sys.setrecursionlimit(caller_limit)
