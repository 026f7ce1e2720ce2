"""Exact and stochastic search for t-internal partitions.

The exhaustive solver is a sound and complete branch and bound over A/B
assignments with unit propagation on one threshold per vertex: with
``cap[v] = d(v) - ceil((d(v) + 2t)/2)``, a vertex on side X is feasible
exactly while at most ``cap[v]`` of its neighbours are on the other side.
Each side's neighbour counters are one int with a field per vertex, biased
so that the field's top bit says "above the cap" (see ``_Solver``), and
putting w on a side adds w's packed neighbour row to that side's counters.
Propagation runs in waves over the side masks: a free vertex above its cap
on X goes on X, a vertex at its cap on the other side sends its free
neighbours to its own side, and a vertex above its cap on the other side
is a conflict.  Each forcing follows from the assignment and stays true as
it grows, so neither the fixpoint nor whether a conflict lies on the way
to it depends on the order of the forced assignments.  The search is a
loop over an explicit stack whose every level keeps its own state, O(n)
bytes, so backtracking drops a level and the depth is not bounded by the
interpreter's recursion limit.  The branching vertex minimises
``(cap - max(a, b), 2 cap - a - b, v)`` over the free vertices, a and b
its neighbours on A and on B; it tries B first.  The presets put vertex 0
on A, and A first walks a large tree of near-all-A assignments, whose B
is too small to be t-internal.  The order changes no ``exhausted_none``
tree, which visits both sides of every level.  Every search starts from
presets that cut symmetry from the tree.  On any graph vertex 0 is pinned
to A, which quotients out the swap of A and B.  On the incidence graph of
PG(2,q), at a t where every vertex needs at least two neighbours on its
own side, a flag triangle is put on A as well: point 0, two lines L0 and
L1 through it, and a second point on each line (see ``_presets`` for why
no partition is lost).  The collineations that fix that triangle, the
diagonal torus of the frame P0, P1, P2, still act on the tree: they move
the (q-1)^2 lines through none of the three points regularly.  So the
search splits in two cases (``_cases``): the least of those lines on A,
then all of them on B.  ``exhaustive_exists`` and ``exhaustive_max_intimacy``
are one scan over t (``_scan``) with one node budget and one deadline;
the first decides a single t.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import random
import signal
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

    def to_json(self, labels) -> dict:
        doc = {
            "status": self.status,
            "nodes_explored": self.nodes_explored,
            "wall_time": self.wall_time,
            "details": self.details,
            "witness": None,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_json(labels)
        return doc


class _Solver:
    """The packed graph at one t, from which any number of searches start.

    A state is ``(ca, cb, ma, mb)``.  Field v of ``ca``, bits ``W*v`` to
    ``W*v + W - 1``, holds ``H - 1 - cap[v] + a``, H = 2**(W-1) and a the
    neighbours of v on A, so its top bit is set exactly above the cap and it
    is ``H - 1`` exactly at it; ``cb`` counts B alike.  ``ma`` and ``mb``
    hold the vertices on A and on B at their fields' top bits.  The graph
    must be simple: a repeated neighbour would carry out of a field.  A
    search writes nothing on the solver but the rows it builds on first use.
    """

    def __init__(self, adj, t):
        self.adj = adj
        self.t = t
        deg = [len(a) for a in adj]
        # the most neighbours a vertex may have on the other side: d - ceil((d + 2t)/2)
        cap = [d - max(0, (d + 2 * t + 1) // 2) for d in deg]
        # a vertex with cap < 0 is above its cap with no neighbour assigned,
        # so it can take no side; _select takes the least (cap, v) of them first
        self.neg_first = min(((c, v) for v, c in enumerate(cap) if c < 0), default=(0, None))[1]
        # H >= need: a field below 2H - 1 does not carry out on adding one, and
        # a key cap - count of _select stays below the H - 1 of assigned fields
        need = max([c + 2 for c in cap] + [d - c + 1 for d, c in zip(deg, cap)], default=0)
        self.step = step = ((need - 1).bit_length() + 8) // 8
        self.width = width = 8 * step
        self.top = top = width - 1
        self.nbytes = len(adj) * step
        self.ones = int.from_bytes((1).to_bytes(step, "little") * len(adj), "little")
        self.hi = self.ones << top
        self.low = self.hi - self.ones
        bias = b"".join(((1 << top) - 1 - c).to_bytes(step, "little") for c in cap)
        self.base = (int.from_bytes(bias, "little"),) * 2 + (0, 0)
        self.rows = [None] * len(adj)

    def _row(self, v):
        """v's row, 1 in the field of each neighbour; shifted by W - 1, its neighbour mask."""
        row = self.rows[v] = sum(1 << (u * self.width) for u in self.adj[v])
        return row

    def _fields(self, x):
        """The fields of x in vertex order."""
        b, k = x.to_bytes(self.nbytes, "little"), self.step
        if k == 1:
            return b
        return [int.from_bytes(b[i : i + k], "little") for i in range(0, len(b), k)]

    def _assign(self, state, v, s):
        """The state after free v goes on side s, at the fixpoint; None on a conflict.

        A wave puts its vertices on their sides and adds their rows.  The next
        wave takes each free vertex that it took above its cap on X to X, and
        the free neighbours of each vertex on Y that it brought to its cap on
        X, or that joined Y at it, to Y.  Only the vertices a wave touches are
        judged, so a free vertex with cap < 0 and no neighbour assigned is
        not forced.
        """
        ca, cb, ma, mb = state
        rows, row, ones, hi = self.rows, self._row, self.ones, self.hi
        width, top = self.width, self.top
        bit = 1 << (v * width + top)
        na, nb = (bit, 0) if s == 0 else (0, bit)
        while na or nb:
            if na & nb:
                return None
            ma |= na
            mb |= nb
            touch_a = touch_b = 0
            x = na
            while x:
                p = x.bit_length() - 1
                x ^= 1 << p
                r = rows[p // width] or row(p // width)
                ca += r
                touch_a |= r
            if ca & mb:
                return None
            x = nb
            while x:
                p = x.bit_length() - 1
                x ^= 1 << p
                r = rows[p // width] or row(p // width)
                cb += r
                touch_b |= r
            if cb & ma:
                return None
            free = hi ^ ma ^ mb
            touch_a <<= top
            touch_b <<= top
            # adding one to a field flips its top bit exactly at the cap
            x = (touch_a | nb) & mb & ((ca + ones) ^ ca)
            y = (touch_b | na) & ma & ((cb + ones) ^ cb)
            na = ca & touch_a & free
            nb = cb & touch_b & free
            while x:
                p = x.bit_length() - 1
                x ^= 1 << p
                nb |= (rows[p // width] << top) & free
            while y:
                p = y.bit_length() - 1
                y ^= 1 << p
                na |= (rows[p // width] << top) & free
        return (ca, cb, ma, mb)

    def _select(self, state):
        """The free vertex of least (cap - max(a, b), 2 cap - a - b, v), or None.

        Field by field, with ``ka = cap - a``, ``kb = cap - b`` and H - 1 for
        an assigned vertex: the least ``min(ka, kb)``, then ``max(ka, kb)``.
        """
        ca, cb, ma, mb = state
        hi = self.hi
        free = hi ^ ma ^ mb
        if not free or self.neg_first is not None:
            return self.neg_first if free else None
        low, top = self.low, self.top
        free -= free >> top
        ka = (ca & free) ^ low
        kb = (cb & free) ^ low
        ge = ((ka | hi) - kb) & hi  # the fields where ka >= kb
        kmin = ka ^ ((ka ^ kb) & (ge - (ge >> top)))
        keys = self._fields(kmin)
        k = 0
        while k not in keys:
            k += 1
        eq = (((kmin ^ (k * self.ones)) + low) & hi) ^ hi  # the fields where kmin == k
        eq -= eq >> top
        keys = self._fields(((ka ^ kb ^ kmin) & eq) | (eq ^ low))
        while k not in keys:
            k += 1
        return keys.index(k)

    def assign_presets(self, presets):
        """The base state with ``presets`` assigned, at the fixpoint; None on a conflict."""
        state = self.base
        for v, s in presets:
            bit = 1 << (v * self.width + self.top)
            if state and not state[2 + s] & bit:  # state[2 + s]: the side-s mask
                state = None if state[3 - s] & bit else self._assign(state, v, s)
        return state

    def _complete(self, state):
        return list(self._fields(state[3] >> self.top)) if state[2] and state[3] else None

    def search(self, state, max_nodes, deadline, split=None):
        """Depth first from ``state``, over a stack of (vertex, next side, state) levels.

        One node per try of side 1 (B), then side 0 (A), of each branching
        vertex (see the module docstring); a level drops its state at its
        second try.  Returns ``(status, witness side, nodes, conflicts,
        max_depth, propagations, jobs)``, status FOUND, EXHAUSTED or TIMEOUT;
        a None ``state`` (presets that conflict) takes no node.  A try that
        succeeds at depth ``split`` descends no further: it appends ``(path,
        nodes, conflicts, propagations)`` to ``jobs``, the ``(vertex, side)``
        tries on the stack and the counts so far.
        """
        jobs = []
        if state is None or (v := self._select(state)) is None:
            side = state and self._complete(state)
            return (FOUND if side else EXHAUSTED, side, 0, 0, 0, 0, jobs)
        assign, select, complete = self._assign, self._select, self._complete
        max_nodes = math.inf if max_nodes is None else max_nodes
        nodes, conflicts, max_depth, forced, status, side = 0, 0, 1, 0, EXHAUSTED, None
        stack = [(v, 0, state)]
        while stack:
            v, s, state = stack[-1]
            if s == 2:
                stack.pop()
                continue
            stack[-1] = (v, 1, state) if s == 0 else (v, 2, None)
            nodes += 1
            if nodes > max_nodes or (
                deadline is not None
                and (nodes & _BUDGET_CHECK_MASK) == 0
                and time.monotonic() > deadline
            ):
                status = TIMEOUT
                break
            after = assign(state, v, s ^ 1)
            if after is None:
                conflicts += 1
                continue
            forced += ((after[2] | after[3]) ^ (state[2] | state[3])).bit_count() - 1
            if len(stack) == split:
                # a level's next side is 1 while it tries B and 2 while it tries A
                path = [(u, 2 - k) for u, k, _ in stack]
                jobs.append((path, nodes, conflicts, forced))
                continue
            w = select(after)
            if w is None:
                if side := complete(after):
                    status = FOUND
                    break
                continue
            stack.append((w, 0, after))
            if len(stack) > max_depth:
                max_depth = len(stack)
        return (status, side, nodes, conflicts, max_depth, forced, jobs)


def _serve(fn, jobs, fd):
    """A fan-out process: ``fn`` on each of ``jobs`` in order, each result pickled onto ``fd``.

    The results form one pickle stream, which marks where each ends.
    Never returns, also on an exception: the process must not unwind into
    the caller's frames, and ``os._exit`` runs no exit handler and flushes
    no buffer that the process inherited.
    """
    code = 0
    try:
        with open(fd, "wb") as out:
            for job in jobs:
                pickle.dump(fn(job), out)
                out.flush()
    except BaseException:
        code = 1
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


@contextlib.contextmanager
def _fan_out(fn, jobs, workers):
    """A ``with`` block over ``fn(job)`` for each of ``jobs``, in order, run in forked processes.

    Entering the block forks ``w = min(workers, len(jobs))`` processes, so
    the caller can work while they run, and binds an iterator of the
    results in job order.  The processes inherit the caller's memory (a
    search's ``_Solver``, rows and all), so nothing is sent to them:
    process k calls ``fn`` on jobs k, k + w, ... and pickles each result
    onto a one-way pipe of its own (``_serve``).  The standard streams are
    flushed before the forks, so no process holds a copy of their buffers.
    Leaving the block SIGKILLs and reaps every process.  A pipe that ends
    before a whole result arrives is a RuntimeError naming the process's
    exit code.  This is the package's one fork code path, also behind
    criterion 9 of ``reproduce-paper``; it imports no process-pool library,
    whose import alone raised the peak memory of that run.
    """
    w = min(workers, len(jobs))
    pids, readers = [], []

    def results():
        for i in range(len(jobs)):
            k = i % w
            try:
                result = pickle.load(readers[k])
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(pids[k], 0)[1])
                pids[k] = None
                raise RuntimeError(f"a fan-out process ended with exit code {code}") from None
            yield result

    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for k in range(w):
            recv, send = os.pipe()
            readers.append(open(recv, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, jobs[k::w], send)
            finally:
                os.close(send)  # the child's copy alone keeps the pipe open
            pids.append(pid)
        yield results()
    finally:
        live = [pid for pid in pids if pid is not None]
        for pid in live:
            os.kill(pid, signal.SIGKILL)
        for pid in live:
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


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


def _cases(g: Graph, presets) -> list[list[tuple[int, int]]]:
    """The preset lists whose searches together decide a t, in search order.

    ``[presets]`` unless ``presets`` is the flag triangle of ``_presets``.
    Then the collineations that fix P0, P1 and P2 form the diagonal torus
    in that frame, of order (q-1)^2; they fix L0 = P0P1 and L1 = P0P2 too,
    so they keep all five presets.  The lines through none of P0, P1, P2
    have all three coordinates nonzero in that frame, so there are (q-1)^2
    of them, and the torus acts on them regularly: one element maps any of
    them onto M, the least line id among them.  So a partition that meets
    the presets either has one of those lines on A, and an image of it has
    M on A (case i), or has all of them on B (case ii).  Case i goes first:
    case ii presets (q-1)^2 lines, which at q=64 costs more than a small
    node budget.
    """
    if len(presets) < 5:
        return [presets]
    adj = g.adjacency_lists
    p0, _, _, p1, p2 = (v for v, _ in presets)
    through = set(adj[p0]) | set(adj[p1]) | set(adj[p2])
    off = [v for v in range(g.n_left, g.n) if v not in through]
    return [presets + [(off[0], 0)], presets + [(v, 1) for v in off]]


def _decide(solver, presets, max_nodes, deadline, workers):
    """Decide the solver's t: ``(status, witness side, nodes, conflicts, max_depth, propagations)``.

    A t that a vertex's degree rules out (``solver.neg_first``) takes no
    node.  With ``workers > 1``, the search of the top two branching levels,
    unbudgeted, cuts the jobs (see ``_Solver.search``), and ``_fan_out``
    runs them on an equal share of the nodes the top leaves.  The jobs are
    read in the serial order, each after the top's tries before it, then
    the top's own result, up to the first witness; leaving the fan-out's
    ``with`` block kills its processes.  With one worker, when the top
    makes fewer than two jobs (one job would gain no parallelism for the
    start-up of a process), or when ``max_nodes`` leaves fewer nodes after
    the top than there are jobs, the search is serial with the whole budget.
    """
    ok = len(solver.adj) > 1 and solver.neg_first is None
    state = solver.assign_presets(presets) if ok else None
    jobs = []
    if workers > 1:
        top_status, top_side, top_nodes, top_conflicts, _, top_forced, jobs = solver.search(
            state, None, None, 2
        )
    if len(jobs) < 2 or (max_nodes is not None and max_nodes - top_nodes < len(jobs)):
        return solver.search(state, max_nodes, deadline)[:6]
    share = None if max_nodes is None else (max_nodes - top_nodes) // len(jobs)

    def job(job_presets):
        return solver.search(solver.assign_presets(job_presets), share, deadline)[:6]

    # each result comes after the top's counts at its job; the top's own result last
    marks = [counts for _, *counts in jobs] + [(top_nodes, top_conflicts, top_forced)]
    status, nodes, conflicts, max_depth, forced = EXHAUSTED, 0, 0, 0, 0
    with _fan_out(job, [presets + path for path, *_ in jobs], workers) as fanned:
        results = itertools.chain(fanned, [(top_status, top_side, 0, 0, 0, 0)])
        for (at_nodes, at_conflicts, at_forced), result in zip(marks, results):
            job_status, side, job_nodes, job_conflicts, job_depth, job_forced = result
            nodes += job_nodes
            conflicts += job_conflicts
            max_depth = max(max_depth, 2 + job_depth)
            forced += job_forced
            if job_status != EXHAUSTED:
                status = job_status
                if status == FOUND:
                    break
    return (status, side, at_nodes + nodes, at_conflicts + conflicts, max_depth, at_forced + forced)


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


def _scan(g: Graph, ts, max_nodes, max_seconds, workers):
    """Decide the t of ``ts`` in order up to the first not exhausted: ``(t, result)``.

    t is the one the scan stopped at.  ``max_nodes`` and ``max_seconds`` are
    each one budget for the scan: every t gets what the ones before it left
    and starts only while some is left.  A t is one ``_decide`` per case of
    ``_cases``, in order up to the first case that is not exhausted; each
    case gets what the ones before it left, which may be no node, and one
    ``_Solver`` per t serves every case and every process it fans out to.
    ``nodes_explored``, ``conflicts``, ``propagations`` and ``wall_time``
    cover the scan, ``max_depth`` is its deepest path and ``presets``
    counts the last t's ``_presets``.  With ``workers > 1`` each case that
    fans out forks its own processes and has killed them when its
    ``_decide`` returns or raises, so no process outlives its case.  Raises
    ValueError when ``max_nodes < 1``, ``max_seconds <= 0`` or ``workers < 1``.
    """
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    if max_seconds is not None and not max_seconds > 0:
        raise ValueError(f"max_seconds must be positive, got {max_seconds}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    start = time.monotonic()
    deadline = None if max_seconds is None else start + max_seconds
    nodes = conflicts = max_depth = forced = 0
    for t in ts:
        presets = _presets(g, t)
        if (max_nodes is not None and max_nodes - nodes < 1) or (
            deadline is not None and time.monotonic() >= deadline
        ):
            status, side = TIMEOUT, None
            break
        solver = _Solver(g.adjacency_lists, t)
        for case in _cases(g, presets):
            nodes_left = None if max_nodes is None else max_nodes - nodes
            status, side, c_nodes, c_conflicts, c_depth, c_forced = _decide(
                solver, case, nodes_left, deadline, workers
            )
            nodes += c_nodes
            conflicts += c_conflicts
            max_depth = max(max_depth, c_depth)
            forced += c_forced
            if status != EXHAUSTED:
                break
        if status != EXHAUSTED:
            break
    details = {
        "t": t,
        "workers": workers,
        "presets": len(presets),
        "conflicts": conflicts,
        "max_depth": max_depth,
        "propagations": forced,
    }
    return t, _result(g, t, start, status, side, nodes, details)


def exhaustive_exists(
    g: Graph,
    t: int,
    *,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    workers: int = 1,
) -> SearchResult:
    """Decide whether a t-internal partition exists, with optional budgets.

    The one-t case of the scan that ``exhaustive_max_intimacy`` runs (see
    ``_scan``): one node budget, one deadline and one ``_Solver``, which
    serves both torus cases.  With ``workers > 1`` the top two branching
    levels below each case's presets make at most four jobs, which run in
    ``min(workers, jobs)`` forked processes that inherit the solver; a
    process that ends before its results is a RuntimeError.  A top that
    yields fewer than two jobs, or a ``max_nodes`` that leaves fewer than
    one node per job after the top, is searched serially on the same
    solver, as with one worker.  Without budgets the status, witness and
    counts do not depend on ``workers``.  ``max_seconds`` is one deadline
    for the whole call, shared by every job (``time.monotonic`` is
    system-wide, so every process reads the same clock).  ``max_nodes`` is
    one budget too: each of the k jobs gets a k-th of what the tries above
    the jobs leave and, like a
    single worker, stops at its share plus one.  ``details`` carries
    ``presets`` (the size of the symmetry presets, 1 or 5, see
    ``_presets``; the torus cases of ``_cases`` add one line, or (q-1)^2
    lines, to the 5 and are not counted), ``conflicts`` (branches whose
    propagation failed), ``propagations`` (vertices forced in the other
    branches) and ``max_depth`` (the most branching levels on one path,
    counting the two fanned-out levels above each job).

    Raises ValueError when ``max_nodes < 1``, ``max_seconds <= 0`` or
    ``workers < 1``.
    """
    return _scan(g, [t], max_nodes, max_seconds, workers)[1]


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
    ``(None, result)`` on a budget timeout.  It runs ``_scan``, as
    ``exhaustive_exists`` does for one t: one node budget and one deadline
    for the whole scan, each t getting what the ones before it left, counts
    and ``wall_time`` over the whole scan, and with ``workers > 1`` the
    processes of each fan-out killed before the scan goes on.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices to partition")
    degs = g.degrees
    if t_hi is None:
        t_hi = int(degs.min()) // 2
    t_lo = -((int(degs.max()) + 1) // 2)
    if t_hi < t_lo:
        raise ValueError(f"t_hi={t_hi} is below the trivial floor t={t_lo}")
    t, res = _scan(g, range(t_hi, t_lo - 1, -1), max_nodes, max_seconds, workers)
    if res.status == EXHAUSTED:
        raise RuntimeError("scan passed the trivial floor without a witness")
    return (t if res.status == FOUND else None), res


_BRUTE_MAX_VERTICES = 20
_BRUTE_CHUNK = 1 << 16


def brute_force_exists(g: Graph, t: int) -> bool:
    """Ground truth by unpruned enumeration of every A/B assignment.

    Vertex 0 is fixed to A (swap symmetry only); no other pruning.  Meant
    as the oracle the branch and bound is checked against.  Sides,
    adjacency and degrees are int8: at most 20 vertices have degrees of at
    most 19, so every count, doubled count and margin fits.
    """
    n = g.n
    if n < 2:
        return False
    if n > _BRUTE_MAX_VERTICES:
        raise ValueError(f"brute force enumeration capped at {_BRUTE_MAX_VERTICES} vertices")
    adj = np.zeros((n, n), dtype=np.int8)
    for v in range(n):
        adj[v, g.neighbors(v)] = 1
    deg = g.degrees.astype(np.int8)
    count = 1 << (n - 1)
    for lo in range(0, count, _BRUTE_CHUNK):
        masks = np.arange(lo, min(lo + _BRUTE_CHUNK, count), dtype=np.int64)
        side = np.zeros((masks.size, n), dtype=np.int8)
        for v in range(1, n):
            side[:, v] = (masks >> (v - 1)) & 1
        nbrs_b = side @ adj
        own = np.where(side == 1, nbrs_b, deg - nbrs_b)
        margin = 2 * own - deg
        ok = (margin >= 2 * t).all(axis=1) & side.any(axis=1)
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
    ``4t - short[v]``).  The lookup tables ``lose_of[x]`` and ``gain_of[x]``
    give the change in the penalty of a vertex of shortfall x if it loses or
    gains one neighbour on its own side.  The invariant is that ``delta[v]``
    is the exact change in the objective if v alone flips::

        delta[v] = max(0, 4t - short[v]) - max(0, short[v])
                   + sum(lose_of[short[u]] for own-side u in N(v))
                   + sum(gain_of[short[u]] for other-side u in N(v))

    plus ``off``, which exceeds twice any such change, once while v is tabu
    and once more while v is alone in its class, so the least entry of
    ``delta`` is the least change of a non-tabu vertex.  ``tabu`` maps each
    tabu vertex to the step its tenure ends.  A flip updates ``short`` and
    ``delta`` on N(v), and ``delta`` on N(u) for each neighbour u whose
    ``lose_of``/``gain_of`` entry moved: O(d * changed).  Flipping v back
    would undo the flip, so v's own change becomes ``-delta[v]``.  The
    choices and the random stream are those of a plain loop that rescans
    N(v) for every vertex on every step, so statuses, step counts, best
    objectives and witnesses are the same as that loop's.  Every draw is
    taken as ``rng.randrange`` takes it in CPython, k-bit ``getrandbits``
    draws until one is in range, without the call's argument checks.
    """
    params = params or AnnealParams()
    if g.n < 2:
        raise ValueError("need at least two vertices to partition")
    start = time.monotonic()
    rng = random.Random(params.seed)
    getrandbits = rng.getrandbits

    def randbelow(j):
        # rng.randrange(j) without its argument checks: the same rejection
        # loop over k-bit draws, so the stream is unchanged
        k = j.bit_length()
        r = getrandbits(k)
        while r >= j:
            r = getrandbits(k)
        return r

    n = g.n
    # this call's neighbour tuples, not cached on g; each vertex id is one shared int object
    ids = list(range(n))
    cut = g.indptr.tolist()
    adj = [tuple(map(ids.__getitem__, g.indices[a:b].tolist())) for a, b in zip(cut, cut[1:])]
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
            side = [randbelow(2) for _ in range(n)]
        ones = sum(side)
        if ones == 0:
            side[randbelow(n)] = 1
        elif ones == n:
            side[randbelow(n)] = 0
        counts = [n - sum(side), sum(side)]
        short = [
            deg[v] + 2 * t - 2 * sum(1 for u in adj[v] if side[u] == side[v])
            for v in range(n)
        ]
        obj = sum(max(0, x) for x in short)
        best_obj = obj if best_obj is None else min(best_obj, obj)
        if obj == 0:
            return finish(FOUND, side=side, detail={"restart": restart, "step": 0})
        delta = [
            flip_of[short[v]]
            + sum((lose_of if side[u] == side[v] else gain_of)[short[u]] for u in adj[v])
            for v in range(n)
        ]
        # alone[s]: the vertex of class s while it is the only one, else None
        alone = [side.index(s) if counts[s] == 1 else None for s in (0, 1)]
        for v in alone:
            if v is not None:
                delta[v] += off
        tabu = {}
        expiring = [[] for _ in range(ring)]
        restart_best = obj
        for step in range(params.steps):
            slot = expiring[step % ring]
            for v in slot:
                # a vertex flipped again while tabu has two entries; only one ends its tenure
                if tabu.get(v) == step:
                    del tabu[v]
                    delta[v] -= off
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
                    if not randbelow(j):
                        v = i
            if v in tabu:
                aspirations += 1
            s = side[v]
            side[v] = s ^ 1
            counts[s] -= 1
            counts[s ^ 1] += 1
            xv = short[v]
            short[v] = t4 - xv
            # u's term for v turns from lose_of into gain_of (u on v's old side) or back
            own, other = gain_of[t4 - xv] - lose_of[xv], lose_of[t4 - xv] - gain_of[xv]
            for u in adj[v]:
                xu = short[u]
                if side[u] == s:
                    x = xu + 2
                    change = own
                else:
                    x = xu - 2
                    change = other
                short[u] = x
                delta[u] += change + flip_of[x] - flip_of[xu]
                d_lose = lose_of[x] - lose_of[xu]
                d_gain = gain_of[x] - gain_of[xu]
                if d_lose or d_gain:
                    su = side[u]
                    for w in adj[u]:
                        delta[w] += d_lose if side[w] == su else d_gain
            # v is now tabu; this overwrites what the loop above added to delta[v]
            delta[v] = off - dv
            until = tabu[v] = step + 1 + _TABU_MIN + randbelow(_TABU_SPREAD)
            expiring[until % ring].append(v)
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
