"""Independent reference implementations the tests check the package against."""

import math
import random
import time
from collections import deque

import numpy as np

from planepart.graphs import Graph
# the package's one cache of planes, graphs and Baer decompositions
from planepart.reproduce import _baer as get_baer, _graph as get_graph, _plane as get_plane
from planepart.reproduce import _random_bipartite as random_bipartite
from planepart.search import FOUND, TIMEOUT, AnnealParams, SearchResult, _wrap_witness


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
