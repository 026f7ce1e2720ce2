"""Workload inputs, generated from the seed, and the answers they must give.

Pure Python with no package import, so the worker (which times the
requests) and the orchestrator (which checks them) derive the same inputs
from the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("construct-cold", "exact-search", "reproduce-table")

# today's MAX_PLANE_ORDER; q = 128 and 256 wait for the sparse plane core
MAX_Q = 64

FOUND = "found"
EXHAUSTED = "exhausted_none"
TIMEOUT = "timeout"
DECIDED = (FOUND, EXHAUSTED)


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, h) with q = p**h, or None when q is not a prime power."""
    for p in range(2, q + 1):
        if q % p == 0:
            h = 0
            while q % p == 0:
                q //= p
                h += 1
            return (p, h) if q == 1 else None
    return None


ORDERS = tuple(q for q in range(3, MAX_Q + 1) if prime_power(q))


# -- construct-cold ---------------------------------------------------------------

# sweeps in one set of construct-cold passes: every q has 2 to 5 kinds
SWEEPS_PER_SET = 5


@dataclass(frozen=True)
class ConstructRequest:
    """One CLI-shaped request: ``plane`` or a named construction at order q."""

    q: int
    kind: str
    options: tuple = ()  # extra CLI flags, e.g. ("--variant", "interior_skew")

    @property
    def id(self) -> str:
        return "-".join([f"q{self.q}", self.kind, *(o.lstrip("-") for o in self.options)])

    def files(self, outdir: str) -> dict:
        """The files the request writes: plane JSON and DIMACS, or partition JSON."""
        stem = f"{outdir}/{self.id}"
        if self.kind == "plane":
            return {"json": stem + ".json", "dimacs": stem + ".dimacs"}
        return {"json": stem + ".json"}

    def argv(self, outdir: str) -> list[str]:
        files = self.files(outdir)
        q = str(self.q)
        if self.kind == "plane":
            return ["plane", "--q", q, "--json", files["json"],
                    "--export-graph", files["dimacs"]]
        return ["construct", self.kind, "--q", q, "--out", files["json"], *self.options]


def construct_kinds(q: int) -> list[str]:
    """Request kinds whose preconditions q meets, in a fixed order."""
    p, h = prime_power(q)
    kinds = ["plane"]
    if h % 2 == 0:
        kinds.append("baer")
    if p == 2 and h > 1:
        kinds.append("even")
    if p != 2:
        kinds += ["combinatorial", "oval", "alg1mod4" if q % 4 == 1 else "alg3mod4"]
    return kinds


def _options(kind: str, rng: random.Random) -> tuple:
    if kind == "combinatorial" and rng.random() < 0.5:
        return ("--drop",)
    if kind in ("alg1mod4", "alg3mod4") and rng.random() < 0.5:
        return ("--erase-units",)
    if kind == "oval":
        return ("--variant", rng.choice(("interior_skew", "exterior_skewtangent")))
    return ()


def construct_requests(seed: int, sweep: int) -> list[ConstructRequest]:
    """One sweep: each order 3 <= q <= 64 at most once, in a seeded order.

    A set of ``SWEEPS_PER_SET`` sweeps makes every kind of every q once
    (100 requests), so a set's cost and peak memory do not depend on the
    seed, and a run, which repeats whole sets, does not depend on how many
    passes it makes.  The seed fixes each kind's flags, the sweep each
    kind falls in and the order of each sweep after its first request.
    """
    rng = random.Random(f"construct-cold/{seed}")
    mine = []
    for q in ORDERS:
        kinds = construct_kinds(q)
        sweeps = rng.sample(range(SWEEPS_PER_SET), len(kinds))
        for k, s in zip(kinds, sweeps):
            req = ConstructRequest(q, k, _options(k, rng))
            if s == sweep:
                mine.append(req)
    random.Random(f"construct-cold/{seed}/{sweep}").shuffle(mine)
    # the largest order first, so a pass's peak memory is that of its
    # largest request in a fresh process, as one CLI call would see it
    top = max(r.q for r in mine)
    mine.sort(key=lambda r: r.q != top)
    return mine


# -- exact-search -----------------------------------------------------------------


@dataclass(frozen=True)
class SearchRequest:
    """A single-worker exhaustive search with a node budget.

    ``t is None`` asks for the max-intimacy scan.  ``allowed`` lists the
    statuses that are correct answers; ``expect_best`` is the scan's answer.
    """

    id: str
    t: int | None
    budget: int
    allowed: tuple
    q: int | None = None  # plane order, or None for a random graph
    graph: int | None = None  # index into random_graphs(seed)
    expect_best: int | None = None


NODE_BUDGET = 200_000

# Answers recorded at the commit that introduced the benchmark.  PG(2,7) at
# t=1 times out within 50,000 nodes, but a 1-internal partition exists, so a
# re-verified "found" is also correct and "exhausted_none" is wrong.
PLANE_SEARCHES = (
    SearchRequest("pg3_t0", 0, NODE_BUDGET, (FOUND,), q=3),
    SearchRequest("pg3_t1", 1, NODE_BUDGET, (EXHAUSTED,), q=3),
    SearchRequest("pg4_t0", 0, NODE_BUDGET, (FOUND,), q=4),
    SearchRequest("pg4_t1", 1, NODE_BUDGET, (EXHAUSTED,), q=4),
    SearchRequest("pg2_max", None, NODE_BUDGET, (FOUND,), q=2, expect_best=0),
    SearchRequest("pg3_max", None, NODE_BUDGET, (FOUND,), q=3, expect_best=0),
    SearchRequest("pg4_max", None, NODE_BUDGET, (FOUND,), q=4, expect_best=0),
    SearchRequest("pg5_t0", 0, NODE_BUDGET, (FOUND,), q=5),
    SearchRequest("pg5_t1", 1, NODE_BUDGET, (EXHAUSTED,), q=5),
    SearchRequest("pg7_t0", 0, NODE_BUDGET, (FOUND,), q=7),
    SearchRequest("pg7_t1", 1, 50_000, (TIMEOUT, FOUND), q=7),
)

RANDOM_GRAPHS = 20
RANDOM_SIDE = 6  # 6 + 6 = 12 vertices, within the brute-force oracle's reach
RANDOM_T = (-1, 0, 1)


def random_graphs(seed: int) -> list[list[tuple[int, int]]]:
    """Edge lists of seeded random bipartite graphs on 6 + 6 vertices."""
    rng = random.Random(f"exact-search/{seed}")
    a = b = RANDOM_SIDE
    return [
        [(i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5]
        for _ in range(RANDOM_GRAPHS)
    ]


def search_requests(seed: int) -> list[SearchRequest]:
    """The fixed plane instances, then t in {-1, 0, 1} on each random graph.

    The allowed status of a random-graph request is filled in by the checker
    from the brute-force oracle, outside the timed request.
    """
    out = list(PLANE_SEARCHES)
    for k in range(RANDOM_GRAPHS):
        for t in RANDOM_T:
            out.append(SearchRequest(f"rand{k}_t{t}", t, NODE_BUDGET, (), graph=k))
    return out


def instance_of(request_id: str) -> str:
    return "random" if request_id.startswith("rand") else request_id


# -- reproduce-table --------------------------------------------------------------

CRITERIA = tuple(f"criterion-{k}" for k in range(1, 10))
ANNEAL_ORDERS = (5, 7)  # criterion-9 anneals PG(2,5) and PG(2,7) at t=1, twice each


def sweeps_per_set(workload: str) -> int:
    """Passes in one set: a run repeats whole sets, so each pass is repeated."""
    return SWEEPS_PER_SET if workload == "construct-cold" else 1


@dataclass
class Inputs:
    """Everything a pass needs, made from the seed during set-up."""

    construct: list = field(default_factory=list)
    search: list = field(default_factory=list)
    edges: list = field(default_factory=list)


def make_inputs(workload: str, seed: int, sweep: int = 0) -> Inputs:
    if workload == "construct-cold":
        return Inputs(construct=construct_requests(seed, sweep))
    if workload == "exact-search":
        return Inputs(search=search_requests(seed), edges=random_graphs(seed))
    if workload == "reproduce-table":
        return Inputs()
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
