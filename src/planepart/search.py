"""Exact and stochastic search for t-internal partitions.

The exhaustive solver is a sound and complete branch and bound over A/B
assignments with unit propagation: a vertex on side X stays feasible only
while ``assigned_X + unassigned >= ceil((d + 2t)/2)``, and when that holds
with equality all its unassigned neighbors are forced to X.  The first
vertex is pinned to A to quotient out the swap symmetry.  ``found`` /
``exhausted_none`` answers are deterministic for any worker count; which
witness is returned first is deterministic only with one worker.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import sys
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .constructions import Partition
from .graphs import Graph
from .verify import margins

FOUND = "found"
EXHAUSTED = "exhausted_none"
TIMEOUT = "timeout"

_BUDGET_CHECK_MASK = 0x3FF


@dataclass(eq=False)
class SearchResult:
    status: str
    witness: Partition | None
    nodes_explored: int
    wall_time: float
    details: dict = dc_field(default_factory=dict)

    def to_json(self, labels=None) -> dict:
        doc = {
            "status": self.status,
            "nodes_explored": self.nodes_explored,
            "wall_time": self.wall_time,
            "details": self.details,
            "witness": None,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_json(
                labels or [f"v{v}" for v in range(self.witness.n)]
            )
        return doc


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


def _run_job(args):
    adj, t, presets, max_nodes, remaining = args
    deadline = None if remaining is None else time.monotonic() + remaining
    solver = _Solver(adj, t, max_nodes=max_nodes, deadline=deadline)
    try:
        if not solver.assign_presets(presets):
            return (EXHAUSTED, None, solver.nodes)
        if solver.search():
            return (FOUND, solver.witness, solver.nodes)
        return (EXHAUSTED, None, solver.nodes)
    except _Stop:
        return (TIMEOUT, None, solver.nodes)


def _frontier_jobs(adj, t, presets):
    """Expand the top two branching levels into independent preset lists."""
    probe = _Solver(adj, t)
    if not probe.assign_presets(presets):
        return EXHAUSTED, None, []
    v1 = probe._select()
    if v1 is None:
        if probe._complete():
            return FOUND, probe.witness, []
        return EXHAUSTED, None, []
    jobs = []
    for s1 in (0, 1):
        mark = len(probe.trail)
        if probe._assign(v1, s1):
            v2 = probe._select()
            if v2 is None:
                if probe._complete():
                    return FOUND, probe.witness, []
            else:
                jobs.extend(presets + [(v1, s1), (v2, s2)] for s2 in (0, 1))
        probe._undo(mark)
    return None, None, jobs


def _wrap_witness(g: Graph, side, t: int, source: str, extra=None) -> Partition:
    part = Partition(
        side=np.asarray(side, dtype=np.uint8),
        provenance={"construction": source, "parameters": {"t": t, **(extra or {})}},
    )
    report = margins(g, part)
    if report.partition_intimacy < t:
        raise RuntimeError("search produced a witness below the requested t")
    return part


def exhaustive_exists(
    g: Graph,
    t: int,
    *,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    workers: int = 1,
) -> SearchResult:
    """Decide whether a t-internal partition exists, with optional budgets.

    With ``workers > 1`` the top two branching levels fan out to a process
    pool; each job carries the full budget.
    """
    start = time.monotonic()
    adj = g.adjacency_lists

    def result(status, side=None, nodes=0, details=None):
        witness = None
        if side is not None:
            witness = _wrap_witness(g, side, t, "exhaustive")
        return SearchResult(
            status=status,
            witness=witness,
            nodes_explored=nodes,
            wall_time=time.monotonic() - start,
            details=details or {"t": t, "workers": workers},
        )

    if g.n < 2 or any(max(0, (len(a) + 2 * t + 1) // 2) > len(a) for a in adj):
        return result(EXHAUSTED)
    presets = [(0, 0)]
    if workers <= 1:
        # search() recurses once per branching level; the caller's limit is restored
        caller_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(caller_limit, 10_000, 4 * g.n + 100))
        deadline = None if max_seconds is None else start + max_seconds
        solver = _Solver(adj, t, max_nodes=max_nodes, deadline=deadline)
        try:
            if not solver.assign_presets(presets):
                return result(EXHAUSTED, nodes=solver.nodes)
            if solver.search():
                return result(FOUND, side=solver.witness, nodes=solver.nodes)
            return result(EXHAUSTED, nodes=solver.nodes)
        except _Stop:
            return result(TIMEOUT, nodes=solver.nodes)
        finally:
            sys.setrecursionlimit(caller_limit)

    status, side, jobs = _frontier_jobs(adj, t, presets)
    if status == FOUND:
        return result(FOUND, side=side)
    if status == EXHAUSTED and not jobs:
        return result(EXHAUSTED)
    remaining = None if max_seconds is None else max(0.0, max_seconds)
    args = [(adj, t, job, max_nodes, remaining) for job in jobs]
    nodes = 0
    timed_out = False
    found_side = None
    with multiprocessing.get_context().Pool(processes=workers) as pool:
        for status, side, job_nodes in pool.imap_unordered(_run_job, args):
            nodes += job_nodes
            if status == FOUND:
                found_side = side
                pool.terminate()
                break
            if status == TIMEOUT:
                timed_out = True
    if found_side is not None:
        return result(FOUND, side=found_side, nodes=nodes)
    if timed_out:
        return result(TIMEOUT, nodes=nodes)
    return result(EXHAUSTED, nodes=nodes)


def exhaustive_max_intimacy(
    g: Graph,
    *,
    t_hi: int | None = None,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    workers: int = 1,
) -> tuple[int | None, SearchResult]:
    """Largest t admitting a t-internal partition, by descending scan.

    Scans from ``t_hi`` (default: min_v floor(d(v)/2), the degree cap; pass
    the spectral bound for plane graphs) down to the trivial floor, where
    any split qualifies.  Returns ``(None, result)`` on a budget timeout.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices to partition")
    degs = g.degrees
    if t_hi is None:
        t_hi = int(degs.min()) // 2
    t_lo = -((int(degs.max()) + 1) // 2)
    for t in range(t_hi, t_lo - 1, -1):
        res = exhaustive_exists(
            g, t, max_nodes=max_nodes, max_seconds=max_seconds, workers=workers
        )
        if res.status == FOUND:
            return t, res
        if res.status == TIMEOUT:
            return None, res
    raise RuntimeError("scan passed the trivial floor without a witness")


_BRUTE_MAX_VERTICES = 20
_BRUTE_CHUNK = 1 << 16


def brute_force_exists(g: Graph, t: int) -> bool:
    """Ground truth by unpruned enumeration of every A/B assignment.

    Vertex 0 is fixed to A (swap symmetry only); no other pruning.  Meant
    as the oracle the branch and bound is checked against.
    """
    n = g.n
    if n < 2:
        return False
    if n > _BRUTE_MAX_VERTICES:
        raise ValueError(f"brute force enumeration capped at {_BRUTE_MAX_VERTICES} vertices")
    adj = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        adj[v, g.neighbors(v)] = 1
    deg = g.degrees
    count = 1 << (n - 1)
    for lo in range(0, count, _BRUTE_CHUNK):
        masks = np.arange(lo, min(lo + _BRUTE_CHUNK, count), dtype=np.int64)
        side = np.zeros((masks.size, n), dtype=np.int64)
        for v in range(1, n):
            side[:, v] = (masks >> (v - 1)) & 1
        nbrs_b = side @ adj
        own = np.where(side == 1, nbrs_b, deg[None, :] - nbrs_b)
        margin = 2 * own - deg[None, :]
        ok = (margin >= 2 * t).all(axis=1) & (side.sum(axis=1) > 0)
        if ok.any():
            return True
    return False


# -- simulated annealing ---------------------------------------------------------


@dataclass(frozen=True)
class AnnealParams:
    seed: int = 0
    restarts: int = 10
    sweeps: int = 1200
    start_temp: float = 2.5
    cooling: float = 0.995


def anneal_search(
    g: Graph,
    t: int,
    params: AnnealParams | None = None,
    init: Partition | None = None,
) -> SearchResult:
    """Seeded annealing over single-vertex flips.

    Minimizes the total shortfall ``sum_v max(0, d(v) + 2t - 2 d_own(v))``;
    objective zero is a verified witness.  Flips never empty a class.  A
    failure to find reports status ``timeout``: it never claims
    nonexistence.  Identical (graph, t, params, init) reruns are identical.

    Each vertex keeps its raw shortfall ``short[v] = d(v) + 2t - 2 d_own(v)``
    (its penalty is ``max(0, short[v])``, and flipping v turns it into
    ``4t - short[v]``) and the change in its penalty if it loses
    (``lose[v]``) or gains (``gain[v]``) one neighbour on its own side.  The
    invariant is that ``delta[v]`` is the exact change in the objective if v
    alone flips::

        delta[v] = max(0, 4t - short[v]) - max(0, short[v])
                   + sum(lose[u] for own-side u in N(v))
                   + sum(gain[u] for other-side u in N(v))

    A proposal reads ``delta[v]`` in O(1).  An accepted flip updates
    ``short`` and ``delta`` on N(v), and ``delta`` on N(u) for each
    neighbour u whose ``lose``/``gain`` moved: O(d * changed).  Flipping v
    back would undo the flip, so v's own delta becomes ``-delta[v]``.  The
    random stream and the acceptance rule are those of a plain loop that
    rescans N(v) on every proposal, so statuses, proposal counts, best
    objectives and witnesses are the same as that loop's.
    ``details["accepted"]`` counts accepted flips.
    """
    params = params or AnnealParams()
    if g.n < 2:
        raise ValueError("need at least two vertices to partition")
    start = time.monotonic()
    rng = random.Random(params.seed)
    randrange = rng.randrange
    uniform = rng.random
    n = g.n
    adj = [tuple(a) for a in g.adjacency_lists]
    deg = [len(a) for a in adj]
    t4 = 4 * t
    # penalty changes keyed by raw shortfall x, over every x a vertex can reach
    xs = range(2 * t - max(deg), max(deg) + 2 * t + 1)
    flip_of = {x: max(0, t4 - x) - max(0, x) for x in xs}
    lose_of = {x: max(0, x + 2) - max(0, x) for x in xs}
    gain_of = {x: max(0, x - 2) - max(0, x) for x in xs}
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
        short = [
            deg[v] + 2 * t - 2 * sum(1 for u in adj[v] if side[u] == side[v])
            for v in range(n)
        ]
        obj = sum(max(0, x) for x in short)
        best_obj = obj if best_obj is None else min(best_obj, obj)
        if obj == 0:
            return finish(FOUND, side=side, detail={"restart": restart, "sweep": 0})
        lose = [lose_of[x] for x in short]
        gain = [gain_of[x] for x in short]
        delta = [
            flip_of[short[v]]
            + sum(lose[u] if side[u] == side[v] else gain[u] for u in adj[v])
            for v in range(n)
        ]
        temp = params.start_temp
        for sweep in range(params.sweeps):
            # temp is fixed within a sweep, so exp depends on the delta alone
            boltzmann = {}
            for i in range(n):
                v = randrange(n)
                s = side[v]
                if counts[s] == 1:
                    continue
                dv = delta[v]
                if dv > 0:
                    p = boltzmann.get(dv)
                    if p is None:
                        p = boltzmann[dv] = math.exp(-dv / temp)
                    if not uniform() < p:
                        continue
                accepted += 1
                side[v] = s ^ 1
                counts[s] -= 1
                counts[s ^ 1] += 1
                lose_v, gain_v = lose[v], gain[v]
                xv = short[v] = t4 - short[v]
                new_lose_v = lose[v] = lose_of[xv]
                new_gain_v = gain[v] = gain_of[xv]
                for u in adj[v]:
                    # u's term for v switches between lose[v] and gain[v]
                    xu = short[u]
                    if side[u] == s:
                        x = xu + 2
                        change = new_gain_v - lose_v
                    else:
                        x = xu - 2
                        change = new_lose_v - gain_v
                    short[u] = x
                    delta[u] += change + flip_of[x] - flip_of[xu]
                    d_lose = lose_of[x] - lose[u]
                    d_gain = gain_of[x] - gain[u]
                    if d_lose or d_gain:
                        lose[u] += d_lose
                        gain[u] += d_gain
                        su = side[u]
                        for w in adj[u]:
                            delta[w] += d_lose if side[w] == su else d_gain
                # overwrites what the loop above added to delta[v]
                delta[v] = -dv
                obj += dv
                if obj < best_obj:
                    best_obj = obj
                if obj == 0:
                    proposals += i + 1
                    return finish(
                        FOUND, side=side, detail={"restart": restart, "sweep": sweep}
                    )
            proposals += n
            temp *= params.cooling
    return finish(TIMEOUT)
