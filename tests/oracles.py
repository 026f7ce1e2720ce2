"""Independent reference implementations the tests check the package against."""

import itertools
import random
import sys
import time
from collections import deque

import numpy as np

from planepart.fields import least_irreducible, prime_factors
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


def reference_triples(q: int) -> list[tuple[int, int, int]]:
    """The normalized triples of PG(2,q) in index order, by filter and sort.

    Every triple in [0, q)^3 whose last nonzero coordinate is 1, sorted with
    the last coordinate most significant.
    """
    cube = itertools.product(range(q), repeat=3)
    normal = [t for t in cube if any(t) and next(c for c in reversed(t) if c) == 1]
    return sorted(normal, key=lambda t: t[::-1])


def reference_labels(q: int) -> list[str]:
    """Graph-order vertex labels: ``P(a:b:c)`` for each point, then ``L[x:y:z]``."""
    names = [":".join(map(str, t)) for t in reference_triples(q)]
    return [f"P({s})" for s in names] + [f"L[{s}]" for s in names]


def dense_incidence(pl) -> np.ndarray:
    """Point-by-line boolean matrix by testing every point against every line."""
    f = pl.field
    t = np.array(reference_triples(pl.q), dtype=np.int32)
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


def reference_spectrum(pl) -> list[tuple[float, int]]:
    """Singular values of the dense incidence matrix by a float SVD.

    Values within 1e-9 of the previous one join its group; descending
    (value, multiplicity) pairs.  Dense, so restricted to q <= 16.
    """
    if pl.q > 16:
        raise ValueError(f"reference spectrum restricted to q <= 16, got q={pl.q}")
    sv = np.linalg.svd(dense_incidence(pl).astype(np.float64), compute_uv=False)
    groups: list[list] = []
    for v in sv:
        if groups and groups[-1][0] - v <= 1e-9:
            groups[-1][1] += 1
        else:
            groups.append([float(v), 1])
    return [(v, c) for v, c in groups]


def reference_action(pl, mat) -> np.ndarray:
    """Permutation of triple indices under a 3x3 matrix, one triple at a time."""
    f = ReferenceField(pl.field.p, pl.field.h)

    def mat_vec(v):
        return tuple(
            f.add(f.add(f.mul(mat[i][0], v[0]), f.mul(mat[i][1], v[1])), f.mul(mat[i][2], v[2]))
            for i in range(3)
        )

    def normalize(triple):
        s = f.inv(next(c for c in reversed(triple) if c))
        return tuple(f.mul(s, c) for c in triple)

    triples = reference_triples(pl.q)
    index_of = {t: i for i, t in enumerate(triples)}
    perm = np.empty(pl.n, dtype=np.int64)
    for i, t in enumerate(triples):
        perm[i] = index_of[normalize(mat_vec(t))]
    return perm


def frame_torus(pl, frame) -> list[tuple[list, np.ndarray]]:
    """``(matrix, perm)`` of B diag(a, b, 1) B^-1 for every nonzero a, b.

    B's columns are the coordinates of the three points of ``frame``, so each
    map scales each of them and fixes it.  The products and inverses are
    taken in ``ReferenceField``.  ``perm`` moves the 2n graph vertices,
    points first: points by the matrix and lines by its inverse transpose,
    each through ``reference_action``.
    """
    f = ReferenceField(pl.field.p, pl.field.h)

    def matmul(x, y):
        out = [[0] * 3 for _ in range(3)]
        for i, j, k in itertools.product(range(3), repeat=3):
            out[i][j] = f.add(out[i][j], f.mul(x[i][k], y[k][j]))
        return out

    triples = reference_triples(pl.q)
    b = [[triples[p][i] for p in frame] for i in range(3)]
    b_inv = reference_mat_inv(f, b)
    maps = []
    for x, y in itertools.product(f.units(), repeat=2):
        mat = matmul(matmul(b, [[x, 0, 0], [0, y, 0], [0, 0, 1]]), b_inv)
        inv_t = [list(col) for col in zip(*reference_mat_inv(f, mat))]
        points = reference_action(pl, mat)
        lines = reference_action(pl, inv_t)
        maps.append((mat, np.concatenate([points, pl.n + lines])))
    return maps


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


# -- scalar GF(q) arithmetic, the reference for the package's tables ----------


def _poly_mul_mod(a, b, modulus, p):
    """Product of little-endian digit tuples, reduced mod a monic modulus."""
    h = len(modulus) - 1
    prod = [0] * (2 * h - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, h - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(h):
                prod[k - h + i] = (prod[k - h + i] - c * modulus[i]) % p
    return tuple(prod[:h])


class ReferenceField:
    """GF(p**h) one element at a time: digit-wise sums, polynomial products.

    Elements are encoded as in ``planepart.fields``: the integer whose
    base-p digits are the coefficient vector, constant term first.
    """

    def __init__(self, p: int, h: int = 1):
        self.p = p
        self.h = h
        self.q = p**h
        self.modulus = least_irreducible(p, h)
        self._digits = [
            tuple((v // p**i) % p for i in range(h)) for v in range(self.q)
        ]
        self._pow_p = [p**i for i in range(h)]

    def _encode(self, digits) -> int:
        return sum(d * w for d, w in zip(digits, self._pow_p))

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def add(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a + b) % self.p
        da, db = self._digits[a], self._digits[b]
        p = self.p
        return self._encode(tuple((x + y) % p for x, y in zip(da, db)))

    def neg(self, a: int) -> int:
        if self.h == 1:
            return (-a) % self.p
        p = self.p
        return self._encode(tuple((-x) % p for x in self._digits[a]))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._encode(_poly_mul_mod(self._digits[a], self._digits[b], self.modulus, self.p))

    def pow(self, a: int, k: int) -> int:
        result = 1
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def trace(self, a: int) -> int:
        """Trace onto the prime subfield: a + a^p + ... + a^(p^(h-1))."""
        acc = a
        cur = a
        for _ in range(self.h - 1):
            cur = self.pow(cur, self.p)
            acc = self.add(acc, cur)
        return acc


def _mulmod_cubic(f, a, b, m):
    # a, b: little-endian length-3 digit tuples; m = (c0, c1, c2), monic cubic
    prod = [0] * 5
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = f.add(prod[i + j], f.mul(ai, bj))
    for k in (4, 3):
        c = prod[k]
        if c:
            prod[k] = 0
            for i, mi in enumerate(m):
                prod[k - 3 + i] = f.sub(prod[k - 3 + i], f.mul(c, mi))
    return (prod[0], prod[1], prod[2])


def _pow_x_mod_cubic(f, m, e: int):
    result = (1, 0, 0)
    base = (0, 1, 0)
    while e:
        if e & 1:
            result = _mulmod_cubic(f, result, base, m)
        base = _mulmod_cubic(f, base, base, m)
        e >>= 1
    return result


def _has_root(f, c0: int, c1: int, c2: int) -> bool:
    for x in f.elements():
        v = f.add(f.mul(f.add(f.mul(f.add(x, c2), x), c1), x), c0)
        if v == 0:
            return True
    return False


def reference_least_primitive_cubic(f) -> tuple[int, int, int]:
    """Least monic primitive degree-3 polynomial over GF(q), by scalar arithmetic.

    Primitive means the companion matrix has multiplicative order q^3 - 1,
    checked by exponentiation at the cofactors of each prime divisor.
    """
    group = f.q**3 - 1
    primes = prime_factors(group)
    for c2 in f.elements():
        for c1 in f.elements():
            for c0 in f.units():  # c0 = 0 gives a root at 0
                if _has_root(f, c0, c1, c2):
                    continue
                m = (c0, c1, c2)
                if all(
                    _pow_x_mod_cubic(f, m, group // r) != (1, 0, 0) for r in primes
                ):
                    if _pow_x_mod_cubic(f, m, group) != (1, 0, 0):
                        raise RuntimeError("irreducible cubic with wrong order")
                    return m
    raise RuntimeError(f"no primitive cubic over GF({f.q})")


def reference_mat_inv(f, m):
    """Inverse of a 3x3 matrix over GF(q): adjugate over determinant."""
    def det2(a, b, c, d):
        return f.sub(f.mul(a, d), f.mul(b, c))

    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = det2(m[r[0]][c[0]], m[r[0]][c[1]], m[r[1]][c[0]], m[r[1]][c[1]])
            cof[i][j] = minor if (i + j) % 2 == 0 else f.neg(minor)
    det = f.add(
        f.add(f.mul(m[0][0], cof[0][0]), f.mul(m[0][1], cof[0][1])),
        f.mul(m[0][2], cof[0][2]),
    )
    dinv = f.inv(det)
    # inverse = adjugate / det; adjugate = transpose of cofactors
    return tuple(
        tuple(f.mul(dinv, cof[j][i]) for j in range(3)) for i in range(3)
    )


def random_partition(rng, n) -> np.ndarray:
    while True:
        side = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.uint8)
        if 0 < side.sum() < n:
            return side


def reference_anneal(g: Graph, t: int, params=None, init=None) -> SearchResult:
    """The tabu search as a plain loop: every step rescans N(v) for every delta.

    ``planepart.search.anneal_search`` caches the deltas instead and must
    agree with this on status, steps, details and witness.
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
    steps = 0
    aspirations = 0
    best_obj = None

    def finish(status, side=None, detail=None):
        witness = None
        if side is not None:
            witness = _wrap_witness(
                g, side, t, "anneal", {"seed": params.seed}
            )
        details = {
            "seed": params.seed, "t": t, "best_objective": best_obj, "aspirations": aspirations
        }
        details.update(detail or {})
        return SearchResult(
            status=status,
            witness=witness,
            nodes_explored=steps,
            wall_time=time.monotonic() - start,
            details=details,
        )

    def flip_delta(side, own, v):
        s = side[v]
        delta = max(0, target[v] - 2 * (deg[v] - own[v])) - max(0, target[v] - 2 * own[v])
        for u in adj[v]:
            ou = own[u]
            nu = ou - 1 if side[u] == s else ou + 1
            delta += max(0, target[u] - 2 * nu) - max(0, target[u] - 2 * ou)
        return delta

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
            return finish(FOUND, side=side, detail={"restart": restart, "step": 0})
        tabu_until = [0] * n
        restart_best = obj
        for step in range(params.steps):
            eligible = []
            for v in range(n):
                if counts[side[v]] == 1:
                    continue
                d = flip_delta(side, own, v)
                if tabu_until[v] <= step or obj + d < restart_best:
                    eligible.append((v, d))
            if not eligible:
                continue
            least = min(d for _, d in eligible)
            ties = [v for v, d in eligible if d == least]
            v = ties[0]
            for j in range(2, len(ties) + 1):
                if rng.randrange(j) == 0:
                    v = ties[j - 1]
            if tabu_until[v] > step:
                aspirations += 1
            s = side[v]
            for u in adj[v]:
                own[u] += -1 if side[u] == s else 1
            own[v] = deg[v] - own[v]
            side[v] = s ^ 1
            counts[s] -= 1
            counts[s ^ 1] += 1
            tabu_until[v] = step + 1 + 10 + rng.randrange(10)
            obj += least
            best_obj = min(best_obj, obj)
            restart_best = min(restart_best, obj)
            if obj == 0:
                steps += step + 1
                return finish(FOUND, side=side, detail={"restart": restart, "step": step + 1})
        steps += params.steps
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
        for s in (1, 0):
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
