"""Exact and stochastic search for t-internal partitions.

The exhaustive solver is a sound and complete branch and bound over A/B
assignments with unit propagation on one threshold per vertex: with
``cap[v] = d(v) - ceil((d(v) + 2t)/2)``, a vertex on side X is feasible
exactly while at most ``cap[v]`` of its neighbours are on the other side.
Each vertex keeps one counter of assigned neighbours per side.  When w is
put on side X, only its neighbours not on X are checked, each by one
comparison of its X counter with its cap: above the cap is a conflict for
a vertex on the other side and forces an unassigned vertex onto X; at the
cap, the other-side vertex forces all its unassigned neighbours onto its
own side.  Propagation runs to a fixpoint, which does not depend on the
order of the forced assignments.  The search is a loop over an explicit
stack of (vertex, next side, trail mark) frames, so its depth is not
bounded by the interpreter's recursion limit; undoing to a trail mark
restores sides and counters.  The branching vertex minimises
``(cap - max(a, b), 2 cap - a - b, v)`` over the unassigned vertices, a
and b its neighbours on A and on B.  Every search starts from presets
that cut symmetry from the tree.  On any graph vertex 0 is pinned to A,
which quotients out the swap of A and B.  On the incidence graph of
PG(2,q), at a t where every vertex needs at least two neighbours on its
own side, a flag triangle is put on A as well: point 0, two lines L0 and
L1 through it, and a second point on each line (see ``_presets`` for why
no partition is lost).  ``found`` / ``exhausted_none`` answers are
deterministic for any worker count.  So are the witness and the node count
of a search without a ``max_seconds`` deadline: the pool's jobs are read in
frontier order, and the first that finds a witness ends the search.
"""

from __future__ import annotations

import math
import multiprocessing
import random
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


class _Solver:
    """Sides, per-side neighbour counters and the trail of one branch and bound."""

    def __init__(self, adj, t, max_nodes=None, deadline=None):
        self.adj = adj
        self.n = n = len(adj)
        deg = [len(a) for a in adj]
        # the most neighbours a vertex may have on the other side: d - ceil((d + 2t)/2)
        self.cap = cap = [d - max(0, (d + 2 * t + 1) // 2) for d in deg]
        # _select's key (cap - max(a, b), 2 cap - a - b, v) as one integer:
        # base - scale * max(a, b) - (a + b), with scale wider than the range
        # of the second component, and ties left to the scan order of v
        spread = max(cap, default=0) - min(cap, default=0)
        self.scale = scale = 2 * spread + max(deg, default=0) + 1
        self.base = [(scale + 2) * c for c in cap]
        self.side = [-1] * n
        self.cnt = ([0] * n, [0] * n)  # assigned neighbours on A, on B
        self.trail: list[int] = []
        self.nodes = 0
        self.conflicts = 0
        self.max_depth = 0
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.witness: list[int] | None = None

    def _assign(self, v, s) -> bool:
        """Put v on side s and propagate to a fixpoint; False on a conflict.

        On False the state is part-way: the caller undoes to its trail mark.
        """
        adj = self.adj
        cap = self.cap
        side = self.side
        cnt = self.cnt
        trail = self.trail
        waiting = ([], [])  # vertices forced onto A, onto B
        waiting[s].append(v)
        to_a, to_b = waiting
        while to_a or to_b:
            if to_a:
                w, sw = to_a.pop(), 0
            else:
                w, sw = to_b.pop(), 1
            cur = side[w]
            if cur == sw:
                continue
            other_w = cnt[sw ^ 1][w]
            cap_w = cap[w]
            if cur != -1 or other_w > cap_w:
                return False
            side[w] = sw
            trail.append(w)
            nbrs = adj[w]
            mine = cnt[sw]
            ours = waiting[sw]
            if other_w == cap_w:
                ours.extend([u for u in nbrs if side[u] == -1])
            # only a neighbour not on w's side can reach its threshold here;
            # a conflict still counts every neighbour, as _undo decrements them all
            conflict = False
            for u in nbrs:
                c = mine[u] + 1
                mine[u] = c
                cap_u = cap[u]
                if c < cap_u:
                    continue
                su = side[u]
                if su == -1:
                    if c > cap_u:
                        ours.append(u)
                elif su != sw:
                    if c > cap_u:
                        conflict = True
                    else:
                        waiting[su].extend([x for x in adj[u] if side[x] == -1])
            if conflict:
                return False
        return True

    def _undo(self, mark):
        trail = self.trail
        side = self.side
        adj = self.adj
        cnt = self.cnt
        for v in trail[mark:]:
            cs = cnt[side[v]]
            side[v] = -1
            for u in adj[v]:
                cs[u] -= 1
        del trail[mark:]

    def _select(self):
        side = self.side
        a_cnt, b_cnt = self.cnt
        base = self.base
        scale = self.scale
        best = None
        best_key = math.inf
        for v in range(self.n):
            if side[v] != -1:
                continue
            a = a_cnt[v]
            b = b_cnt[v]
            key = base[v] - scale * (a if a > b else b) - a - b
            if key < best_key:
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

    def search(self) -> str:
        """Depth first over an explicit stack of (vertex, next side, trail mark).

        Tries side 0 then side 1 of each branching vertex, one node per try,
        and returns FOUND, EXHAUSTED or TIMEOUT.
        """
        v = self._select()
        if v is None:
            return FOUND if self._complete() else EXHAUSTED
        assign = self._assign
        select = self._select
        undo = self._undo
        trail = self.trail
        max_nodes = math.inf if self.max_nodes is None else self.max_nodes
        deadline = self.deadline
        nodes = self.nodes
        conflicts = 0
        max_depth = 1
        status = EXHAUSTED
        stack = [(v, 0, len(trail))]
        while stack:
            v, s, mark = stack[-1]
            if len(trail) > mark:
                undo(mark)
            if s == 2:
                stack.pop()
                continue
            stack[-1] = (v, s + 1, mark)
            nodes += 1
            if nodes > max_nodes or (
                deadline is not None
                and (nodes & _BUDGET_CHECK_MASK) == 0
                and time.monotonic() > deadline
            ):
                status = TIMEOUT
                break
            if not assign(v, s):
                conflicts += 1
                continue
            w = select()
            if w is None:
                if self._complete():
                    status = FOUND
                    break
                continue
            stack.append((w, 0, len(trail)))
            if len(stack) > max_depth:
                max_depth = len(stack)
        self.nodes = nodes
        self.conflicts = conflicts
        self.max_depth = max_depth
        return status


def _solve(adj, t, presets, max_nodes, deadline):
    """One solver run from ``presets``.

    Returns ``(status, witness side, nodes, conflicts, max_depth)``.  Pool
    workers run this too.
    """
    solver = _Solver(adj, t, max_nodes=max_nodes, deadline=deadline)
    if not solver.assign_presets(presets):
        return (EXHAUSTED, None, 0, 0, 0)
    status = solver.search()
    return (status, solver.witness, solver.nodes, solver.conflicts, solver.max_depth)


def _run_job(args):
    return _solve(*args)


def _presets(g: Graph, t: int) -> list[tuple[int, int]]:
    """The assignments every search of ``g`` at ``t`` starts from.

    ``[(0, 0)]``, vertex 0 on A, unless ``g`` is the incidence graph of
    PG(2,q) (``g.plane_order`` is set) and every vertex needs at least two
    neighbours on its own side at t, ``ceil((q + 1 + 2t)/2) >= 2``.  Then
    five vertices go on A: the point P0 = 0, the first two lines L0 and L1
    through it, and the first point P1 != P0 of L0 and P2 != P0 of L1.
    P1 and P2 are not collinear with P0, since L0 and L1 meet only in P0.

    No partition is lost up to symmetry.  Take a t-internal partition and
    a point P; swapping the classes if need be, P is in A.  P has two lines
    M0 and M1 in A, and each of them has a point in A other than P, say Q0
    and Q1.  (P, Q0, Q1) is an ordered triangle, and PGL(3,q) is
    transitive on those: a collineation maps it to (P0, P1, P2), so maps
    M0 = PQ0 to L0 and M1 = PQ1 to L1.  It is an automorphism of the
    incidence graph, so the image is a t-internal partition that meets all
    five presets.
    """
    q = g.plane_order
    if q is None or (q + 2 * t + 2) // 2 < 2:
        return [(0, 0)]
    adj = g.adjacency_lists
    l0, l1 = adj[0][:2]
    p1 = next(p for p in adj[l0] if p != 0)
    p2 = next(p for p in adj[l1] if p != 0)
    return [(0, 0), (l0, 0), (l1, 0), (p1, 0), (p2, 0)]


def _frontier_jobs(adj, t, presets):
    """Expand the top two branching levels into independent preset lists.

    ``[]`` when the presets fail, nothing is left to branch on, or a leaf
    lies within the top two levels: the caller then searches serially.
    """
    probe = _Solver(adj, t)
    v1 = probe._select() if probe.assign_presets(presets) else None
    if v1 is None:
        return []
    jobs = []
    for s1 in (0, 1):
        mark = len(probe.trail)
        if probe._assign(v1, s1):
            v2 = probe._select()
            if v2 is None:
                return []
            jobs.extend(presets + [(v1, s1), (v2, s2)] for s2 in (0, 1))
        probe._undo(mark)
    return jobs


class _Pool:
    """The process pool of one search call, started by the first t that fans out.

    It has ``min(workers, len(jobs))`` processes for that t's jobs and
    serves every later t of the call; a context manager, it stops its
    processes on exit.  A t that ends ``found`` or ``timeout`` ends the
    call, so no job of one t is still queued when the next t starts.
    """

    def __init__(self, workers):
        self.workers = workers
        self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.terminate()

    def imap(self, args):
        if self._pool is None:
            self._pool = multiprocessing.get_context().Pool(
                processes=min(self.workers, len(args))
            )
        return self._pool.imap(_run_job, args)


def _decide(adj, t, presets, max_nodes, deadline, pool):
    """Decide one t: ``(status, witness side, nodes, conflicts, max_depth)``.

    A t that a vertex's degree rules out takes no node.  One worker, or a
    frontier with no jobs, searches serially; otherwise each job gets its
    share of ``max_nodes`` on ``pool``.  Results are read in frontier order,
    the order in which the serial search visits the jobs' subtrees, and the
    first job to find a witness ends the t: without budgets its witness is
    the serial one, and the nodes are those of the jobs up to it.
    """
    if len(adj) < 2 or any(max(0, (len(a) + 2 * t + 1) // 2) > len(a) for a in adj):
        return (EXHAUSTED, None, 0, 0, 0)
    jobs = [] if pool.workers == 1 else _frontier_jobs(adj, t, presets)
    if not jobs:
        return _solve(adj, t, presets, max_nodes, deadline)
    share = None if max_nodes is None else max_nodes // len(jobs)
    args = [(adj, t, job, share, deadline) for job in jobs]
    status, side, nodes, conflicts, max_depth = EXHAUSTED, None, 0, 0, 0
    for job_status, job_side, job_nodes, job_conflicts, job_depth in pool.imap(args):
        nodes += job_nodes
        conflicts += job_conflicts
        max_depth = max(max_depth, 2 + job_depth)
        if job_status == FOUND:
            status, side = FOUND, job_side
            break
        if job_status == TIMEOUT:
            status = TIMEOUT
    return (status, side, nodes, conflicts, max_depth)


def _wrap_witness(g: Graph, side, t: int, source: str, extra=None) -> Partition:
    part = Partition(
        side=np.asarray(side, dtype=np.uint8),
        provenance={"construction": source, "parameters": {"t": t, **(extra or {})}},
    )
    report = margins(g, part)
    if report.partition_intimacy < t:
        raise RuntimeError("search produced a witness below the requested t")
    return part


def _result(g: Graph, t, start, status, side, nodes, details, source="exhaustive", extra=None):
    """The result of every search; a witness side is re-checked by ``margins``."""
    witness = None if side is None else _wrap_witness(g, side, t, source, extra)
    return SearchResult(status, witness, nodes, time.monotonic() - start, details)


def _check_budgets(max_nodes, max_seconds, workers):
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    if max_seconds is not None and not max_seconds > 0:
        raise ValueError(f"max_seconds must be positive, got {max_seconds}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def exhaustive_exists(
    g: Graph,
    t: int,
    *,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    workers: int = 1,
) -> SearchResult:
    """Decide whether a t-internal partition exists, with optional budgets.

    With ``workers > 1`` the top two branching levels below the presets fan
    out to a pool of at most one process per job, so at most four; a top of
    the tree that yields no jobs is searched serially, as with one worker.
    ``max_seconds`` is one deadline for the whole call, shared by every job
    (``time.monotonic`` is system-wide, so pool workers read the same
    clock).  ``max_nodes`` is one budget too: each of the k jobs gets
    ``max_nodes // k`` nodes and, like a single worker, stops at its share
    plus one.  ``details`` carries ``presets`` (how many assignments the
    search started from, 1 or 5; see ``_presets``), ``conflicts`` (branches
    whose propagation failed) and ``max_depth`` (the most branching levels
    on one path, counting the two fanned-out levels above each pool job).

    Raises ValueError when ``max_nodes < 1``, ``max_seconds <= 0`` or
    ``workers < 1``.
    """
    _check_budgets(max_nodes, max_seconds, workers)
    start = time.monotonic()
    deadline = None if max_seconds is None else start + max_seconds
    presets = _presets(g, t)
    with _Pool(workers) as pool:
        status, side, nodes, conflicts, max_depth = _decide(
            g.adjacency_lists, t, presets, max_nodes, deadline, pool
        )
    details = {
        "t": t,
        "workers": workers,
        "presets": len(presets),
        "conflicts": conflicts,
        "max_depth": max_depth,
    }
    return _result(g, t, start, status, side, nodes, details)


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
    any split qualifies; a ``t_hi`` below it is a ValueError.  Returns
    ``(None, result)`` on a budget timeout.  ``max_nodes`` and
    ``max_seconds`` are each one budget for the whole scan: every t gets
    what the ones before it left.  The result's ``nodes_explored`` and
    ``conflicts`` sum over the scan, ``max_depth`` is its deepest path,
    ``presets`` counts the presets of the last t tried, and ``wall_time``
    times the whole scan.  With ``workers > 1`` one pool serves the whole
    scan: it starts at the first t that fans out.
    """
    _check_budgets(max_nodes, max_seconds, workers)
    if g.n < 2:
        raise ValueError("need at least two vertices to partition")
    start = time.monotonic()
    deadline = None if max_seconds is None else start + max_seconds
    degs = g.degrees
    if t_hi is None:
        t_hi = int(degs.min()) // 2
    t_lo = -((int(degs.max()) + 1) // 2)
    if t_hi < t_lo:
        raise ValueError(f"t_hi={t_hi} is below the trivial floor t={t_lo}")
    nodes = conflicts = max_depth = 0
    with _Pool(workers) as pool:
        for t in range(t_hi, t_lo - 1, -1):
            presets = _presets(g, t)
            nodes_left = None if max_nodes is None else max_nodes - nodes
            if (nodes_left is not None and nodes_left < 1) or (
                deadline is not None and time.monotonic() >= deadline
            ):
                status, side = TIMEOUT, None
                break
            status, side, t_nodes, t_conflicts, t_depth = _decide(
                g.adjacency_lists, t, presets, nodes_left, deadline, pool
            )
            nodes += t_nodes
            conflicts += t_conflicts
            max_depth = max(max_depth, t_depth)
            if status != EXHAUSTED:
                break
        else:
            raise RuntimeError("scan passed the trivial floor without a witness")
    details = {
        "t": t,
        "workers": workers,
        "presets": len(presets),
        "conflicts": conflicts,
        "max_depth": max_depth,
    }
    return (t if status == FOUND else None), _result(g, t, start, status, side, nodes, details)


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


# -- tabu search -----------------------------------------------------------------

# a flipped vertex is tabu for _TABU_MIN + rng.randrange(_TABU_SPREAD) steps
_TABU_MIN = 10
_TABU_SPREAD = 10


@dataclass(frozen=True)
class AnnealParams:
    seed: int = 0
    restarts: int = 10
    steps: int = 3000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")


def anneal_search(
    g: Graph,
    t: int,
    params: AnnealParams | None = None,
    init: Partition | None = None,
) -> SearchResult:
    """Seeded tabu search over single-vertex flips.

    Minimizes the total shortfall ``sum_v max(0, d(v) + 2t - 2 d_own(v))``;
    objective zero is a verified witness.  Each restart starts from ``init``
    (the first one only) or a random split and takes up to ``params.steps``
    steps.  A step flips the eligible vertex of least objective change, even
    when that change is uphill.  A vertex is eligible when flipping it keeps
    both classes nonempty and it is not tabu, or when the flip would beat
    the restart's best objective (aspiration).  Ties go to a reservoir draw
    over the tied vertices in index order: the j-th replaces the choice when
    ``rng.randrange(j) == 0``.  A flipped vertex is then tabu for the next
    ``10 + rng.randrange(10)`` steps.  A step with no eligible vertex flips
    nothing.  A failure to find reports status ``timeout``: it never claims
    nonexistence.  Identical (graph, t, params, init) reruns are identical.
    ``AnnealParams`` rejects fewer than one restart or step with ValueError.
    ``nodes_explored`` counts steps, ``details["aspirations"]`` the flips
    of tabu vertices.

    Each vertex keeps its raw shortfall ``short[v] = d(v) + 2t - 2 d_own(v)``
    (its penalty is ``max(0, short[v])``, and flipping v turns it into
    ``4t - short[v]``) and the change in its penalty if it loses
    (``lose[v]``) or gains (``gain[v]``) one neighbour on its own side.  The
    invariant is that ``delta[v]`` is the exact change in the objective if v
    alone flips::

        delta[v] = max(0, 4t - short[v]) - max(0, short[v])
                   + sum(lose[u] for own-side u in N(v))
                   + sum(gain[u] for other-side u in N(v))

    plus ``off``, which exceeds twice any such change, once while v is tabu
    and once more while v is alone in its class, so the least entry of
    ``delta`` is the least change of a non-tabu vertex.  A flip updates
    ``short`` and ``delta`` on N(v), and ``delta`` on N(u) for each
    neighbour u whose ``lose``/``gain`` moved: O(d * changed).  Flipping v
    back would undo the flip, so v's own change becomes ``-delta[v]``.  The
    choices and the random stream are those of a plain loop that rescans
    N(v) for every vertex on every step, so statuses, step counts, best
    objectives and witnesses are the same as that loop's.  The tie and tenure
    draws are taken as ``rng.randrange`` takes them in CPython, k-bit
    ``getrandbits`` draws until one is in range, without the call's argument
    checks.
    """
    params = params or AnnealParams()
    if g.n < 2:
        raise ValueError("need at least two vertices to partition")
    start = time.monotonic()
    rng = random.Random(params.seed)
    randrange = rng.randrange
    getrandbits = rng.getrandbits
    spread_bits = _TABU_SPREAD.bit_length()
    n = g.n
    adj = [tuple(a) for a in g.adjacency_lists]
    deg = [len(a) for a in adj]
    t4 = 4 * t
    # penalty changes keyed by raw shortfall x, over every x a vertex can reach
    xs = range(2 * t - max(deg), max(deg) + 2 * t + 1)
    flip_of = {x: max(0, t4 - x) - max(0, x) for x in xs}
    lose_of = {x: max(0, x + 2) - max(0, x) for x in xs}
    gain_of = {x: max(0, x - 2) - max(0, x) for x in xs}
    # every objective change lies in [-span, span]; an entry above span is ineligible
    span = 4 * abs(t) + 4 * max(deg)
    off = 2 * span + 1
    ring = _TABU_MIN + _TABU_SPREAD
    steps = 0
    aspirations = 0
    best_obj = None

    def finish(status, side=None, detail=None):
        details = {
            "seed": params.seed, "t": t, "best_objective": best_obj, "aspirations": aspirations
        }
        details.update(detail or {})
        return _result(
            g, t, start, status, side, steps, details, "anneal", {"seed": params.seed}
        )

    for restart in range(params.restarts):
        if restart == 0 and init is not None:
            side = [int(s) for s in init.side]
            if len(side) != n:
                raise ValueError("init partition does not match the graph")
        else:
            side = [randrange(2) for _ in range(n)]
        ones = sum(side)
        if ones == 0:
            side[randrange(n)] = 1
        elif ones == n:
            side[randrange(n)] = 0
        counts = [n - sum(side), sum(side)]
        short = [
            deg[v] + 2 * t - 2 * sum(1 for u in adj[v] if side[u] == side[v])
            for v in range(n)
        ]
        obj = sum(max(0, x) for x in short)
        best_obj = obj if best_obj is None else min(best_obj, obj)
        if obj == 0:
            return finish(FOUND, side=side, detail={"restart": restart, "step": 0})
        lose = [lose_of[x] for x in short]
        gain = [gain_of[x] for x in short]
        delta = [
            flip_of[short[v]]
            + sum(lose[u] if side[u] == side[v] else gain[u] for u in adj[v])
            for v in range(n)
        ]
        # alone[s]: the vertex of class s while it is the only one, else None
        alone = [side.index(s) if counts[s] == 1 else None for s in (0, 1)]
        for v in alone:
            if v is not None:
                delta[v] += off
        tabu_until = [0] * n
        tabu = set()
        expiring = [[] for _ in range(ring)]
        restart_best = obj
        for step in range(params.steps):
            slot = expiring[step % ring]
            for v in slot:
                # a vertex flipped again while tabu has two entries; only one ends its tenure
                if tabu_until[v] == step:
                    tabu_until[v] = 0
                    delta[v] -= off
                    tabu.remove(v)
            slot.clear()
            # a tabu vertex aspires when obj + (delta[v] - off) < restart_best
            bar = restart_best - obj + off
            aspiring = [v for v in tabu if delta[v] < bar]
            if aspiring:
                key = delta[:]
                for v in aspiring:
                    key[v] -= off
            else:
                key = delta
            dv = min(key)
            if dv > span:
                continue
            v = key.index(dv)
            ties = key.count(dv)
            if ties > 1:
                i = v
                for j in range(2, ties + 1):
                    i = key.index(dv, i + 1)
                    # rng.randrange(j) without its argument checks: the same
                    # rejection loop over k-bit draws, so the stream is unchanged
                    k = j.bit_length()
                    r = getrandbits(k)
                    while r >= j:
                        r = getrandbits(k)
                    if not r:
                        v = i
            if tabu_until[v] > step:
                aspirations += 1
            s = side[v]
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
            # v is now tabu; this overwrites what the loop above added to delta[v]
            delta[v] = off - dv
            # rng.randrange(_TABU_SPREAD), drawn as above
            r = getrandbits(spread_bits)
            while r >= _TABU_SPREAD:
                r = getrandbits(spread_bits)
            until = tabu_until[v] = step + 1 + _TABU_MIN + r
            expiring[until % ring].append(v)
            tabu.add(v)
            if alone[s ^ 1] is not None:
                delta[alone[s ^ 1]] -= off
                alone[s ^ 1] = None
            if counts[s] == 1:
                u = alone[s] = side.index(s)
                delta[u] += off
            obj += dv
            if obj < restart_best:
                restart_best = obj
                if obj < best_obj:
                    best_obj = obj
                if obj == 0:
                    steps += step + 1
                    return finish(
                        FOUND, side=side, detail={"restart": restart, "step": step + 1}
                    )
        steps += params.steps
    return finish(TIMEOUT)
