"""Acceptance table runner behind ``planepart reproduce-paper``.

Each row of ``TABLE`` is a criterion: name, wall budget, check, parameters.
A check returns (failures, summary, outputs), where outputs is the outputs
dict of the criterion's one RunRecord or, for a check that drives the CLI,
a list of ``(argv, parameters, outputs, wall_time)`` runs, one record each.
``_measured`` turns a row into the ``fn(outdir) -> (ok, detail, records,
wall)`` of ``CRITERIA``, ``wall`` being the check's own time, without the
records.  ``run`` prints one PASS/FAIL line per criterion with that time
and writes a manifest of RunRecords, both in table order.  It forks one
process for the rows marked ``forked`` (criterion 9) when it starts and
runs the other rows itself meanwhile; a forked row's check and its wall
time are measured in that process, while other work runs, and its result
is read back when the table reaches it.  Replaying a record's command
reproduces its outputs byte for byte (wall times are excluded from outputs
for that reason).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, cli
from .constructions import (
    LINE_TANGENT,
    Partition,
    classify_conic,
    construct_algebraic_1mod4,
    construct_algebraic_3mod4,
    construct_baer_partition,
    construct_combinatorial,
    construct_denniston,
    construct_even,
    construct_oval,
    verify_maximal_arc,
)
from .graphs import Graph
from .plane import baer_decomposition, incidence_graph, plane_of_order
from .search import (
    EXHAUSTED,
    FOUND,
    TIMEOUT,
    AnnealParams,
    _fan_out,
    anneal_search,
    brute_force_exists,
    exhaustive_exists,
    exhaustive_max_intimacy,
)
from .spectral import check_mixing, intimacy_upper_bound, singular_spectrum
from .verify import is_internal, is_strict, margins


@dataclass
class RunRecord:
    command: str
    parameters: dict
    field_modulus: list | None
    artifact_version: str
    outputs: dict
    wall_time: float


# The package's one cache of planes, graphs and Baer decompositions; the
# tests share it.  It calls the names imported above, which a traced
# benchmark run rebinds to time each layer.
@lru_cache(maxsize=None)
def _plane(q: int):
    return plane_of_order(q)


@lru_cache(maxsize=None)
def _graph(q: int) -> Graph:
    return incidence_graph(_plane(q))


@lru_cache(maxsize=None)
def _baer(q: int):
    return baer_decomposition(_plane(q))


def _run_cli(argv: list[str]) -> tuple[int, float]:
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, time.monotonic() - t0


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _strip_wall(doc):
    if isinstance(doc, dict):
        return {k: _strip_wall(v) for k, v in doc.items() if k != "wall_time"}
    if isinstance(doc, list):
        return [_strip_wall(v) for v in doc]
    return doc


def _listed(orders) -> str:
    return ",".join(map(str, orders))


# Constructions 1-4 as (orders, label, builder); ``orders`` names a list of
# ``_ORDERS``.  The builders look each construction up when called, so a
# traced run that rebinds this module's names sees every call.
_ORDERS = {
    "odd_q": [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27],
    "alg1_q": [5, 9, 13, 25],
    "alg3_q": [3, 7, 11, 19, 23, 27],
}
_CONSTRUCTIONS = [
    ("odd_q", "combinatorial", lambda pl: construct_combinatorial(pl)),
    ("odd_q", "combinatorial-drop", lambda pl: construct_combinatorial(pl, drop_variant=True)),
    ("odd_q", "oval-interior", lambda pl: construct_oval(pl, variant="interior_skew")),
    ("odd_q", "oval-exterior", lambda pl: construct_oval(pl, variant="exterior_skewtangent")),
    ("alg1_q", "alg1mod4", lambda pl: construct_algebraic_1mod4(pl)),
    ("alg1_q", "alg1mod4-erase", lambda pl: construct_algebraic_1mod4(pl, erase_units=True)),
    ("alg3_q", "alg3mod4", lambda pl: construct_algebraic_3mod4(pl)),
    ("alg3_q", "alg3mod4-erase", lambda pl: construct_algebraic_3mod4(pl, erase_units=True)),
]


def _partition_suite(q: int) -> list[tuple[str, Partition]]:
    """Baer, the constructions criterion-4 runs at q, and the even one."""
    pl = _plane(q)
    out = [("baer", construct_baer_partition(pl, _baer(q)))]
    out += [(label, build(pl)) for key, label, build in _CONSTRUCTIONS if q in _ORDERS[key]]
    if q % 2 == 0:
        out.append(("even", construct_even(pl)))
    return out


def _random_bipartite(rng: random.Random, a: int, b: int, p: float) -> Graph:
    edges = [
        (i, a + j) for i in range(a) for j in range(b) if rng.random() < p
    ]
    return Graph.from_edges(a + b, edges, n_left=a)


# -- checks -------------------------------------------------------------------


def _baer_cli(outdir: str, expected: dict):
    """Baer partition intimacy via the CLI: q=9 -> 1, q=25 -> 2, q=4 -> 0."""
    failures = []
    runs = []
    for q, want in expected.items():
        out = os.path.join(outdir, f"criterion1-baer-q{q}.json")
        argv = ["construct", "baer", "--q", str(q), "--out", out]
        rc, wall = _run_cli(argv)
        got = None
        if rc == 0:
            got = _read_json(out)["margin_report"]["summary"]["partition_intimacy"]
        if rc != 0 or got != want:
            failures.append(f"q={q}: rc={rc} intimacy={got}")
        outputs = {"exit_code": rc, "partition_intimacy": got}
        runs.append((argv, {"q": q, "expected_intimacy": want}, outputs, wall))
    return failures, "construct baer intimacy q=9:1 q=25:2 q=4:0, each under 5 s", runs


def _spectral_bound(outdir: str, orders: list):
    """Every produced partition respects the spectral bound; Baer meets it."""
    checked = 0
    failures = []
    for q in orders:
        g = _graph(q)
        bound = intimacy_upper_bound(q)
        parts = _partition_suite(q)
        seeded = anneal_search(
            g, bound, params=AnnealParams(seed=0, restarts=1, steps=1), init=parts[0][1]
        )
        if seeded.witness is not None:
            parts.append(("anneal-seeded", seeded.witness))
        if q == 4:
            cold = anneal_search(
                g, 0, params=AnnealParams(seed=2, restarts=3, steps=300)
            )
            if cold.witness is not None:
                parts.append(("anneal-cold", cold.witness))
        for name, part in parts:
            t = margins(g, part).partition_intimacy
            checked += 1
            if t > bound:
                failures.append(f"q={q} {name}: intimacy {t} > bound {bound}")
            if name == "baer" and t != bound:
                failures.append(f"q={q} baer: intimacy {t} != bound {bound}")
    summary = f"{checked} partitions over q in ({_listed(orders)}) all within bound; Baer tight"
    return failures, summary, {"partitions_checked": checked, "failures": failures}


def _pg3_exact(outdir: str, q: int):
    """PG(2,3): no 1-internal partition, a 0-internal one, max intimacy 0."""
    g = _graph(q)
    r1 = exhaustive_exists(g, 1)
    r0 = exhaustive_exists(g, 0)
    best, _ = exhaustive_max_intimacy(g)
    summary = (
        f"t=1 {r1.status} ({r1.nodes_explored} nodes), t=0 {r0.status}, "
        f"max intimacy {best}"
    )
    ok = (r1.status, r0.status, best) == (EXHAUSTED, FOUND, 0)
    outputs = {
        "t1_status": r1.status,
        "t1_nodes": r1.nodes_explored,
        "t0_status": r0.status,
        "max_intimacy": best,
    }
    return [] if ok else [summary], summary, outputs


def _constructions_internal(outdir: str, **orders):
    """Constructions 1-4 internal for all odd prime powers q <= 27 in class."""
    failures = []
    checked = 0
    for key, label, build in _CONSTRUCTIONS:
        for q in orders[key]:
            checked += 1
            if not is_internal(_graph(q), build(_plane(q))):
                failures.append(f"q={q} {label} not internal")
    summary = (
        f"{checked} construction outputs internal across odd prime powers "
        f"<= {max(orders['odd_q'])}"
    )
    return failures, summary, {"checked": checked, "failures": failures}


def _even_order(outdir: str, orders: list):
    """Denniston arcs verify; even-order partition strict with own-degree >= q/2+1."""
    failures = []
    for q in orders:
        pl = _plane(q)
        g = _graph(q)
        arc = construct_denniston(pl)
        if arc.size != (q // 2 - 1) * (q + 1) + 1:
            failures.append(f"q={q}: arc size {arc.size}")
        if not verify_maximal_arc(pl, arc, q // 2):
            failures.append(f"q={q}: arc fails 0-or-n check")
        part = construct_even(pl, arc=arc)
        rep = margins(g, part)
        if not is_strict(g, part):
            failures.append(f"q={q}: even partition not strict")
        a_ids = part.class_a()
        own = (rep.margin[a_ids] + (q + 1)) // 2
        if own.min() < q // 2 + 1:
            failures.append(f"q={q}: A-vertex own-degree {own.min()} < {q // 2 + 1}")
    summary = f"arcs verified and even partitions strict for q in ({_listed(orders)})"
    return failures, summary, {"failures": failures}


def _spectrum(outdir: str, orders: list, mixing_pairs: int):
    """Gram identity exact, singular values within 1e-9, mixing holds on PG(2,5)."""
    failures = []
    for q in orders:
        rep = singular_spectrum(_plane(q))
        if rep.max_residual != 0:
            failures.append(f"q={q}: Gram residual {rep.max_residual}")
        sv = rep.singular_values
        expect = [(q + 1.0, 1), (q**0.5, q * q + q)]
        if len(sv) != 2 or any(
            abs(sv[i][0] - expect[i][0]) > 1e-9 or sv[i][1] != expect[i][1]
            for i in range(2)
        ):
            failures.append(f"q={q}: singular values {sv}")
    pl = _plane(5)
    rng = random.Random(6)
    n = pl.n
    bad_pairs = 0
    for _ in range(mixing_pairs):
        s = rng.randint(1, n)
        t = rng.randint(1, n)
        pts = rng.sample(range(n), s)
        lns = [n + j for j in rng.sample(range(n), t)]
        if not check_mixing(pl, pts, lns):
            bad_pairs += 1
    if bad_pairs:
        failures.append(f"{bad_pairs}/{mixing_pairs} mixing pairs out of window")
    summary = (
        f"Gram identity exact for q <= {max(orders)}; spectra match; "
        f"{mixing_pairs} mixing pairs in window"
    )
    return failures, summary, {"failures": failures}


def _conic(outdir: str, orders: list):
    """Conic point counts and the even split on non-tangent lines."""
    failures = []
    for q in orders:
        pl = _plane(q)
        od = classify_conic(pl)
        if od.exterior_points.size != q * (q + 1) // 2:
            failures.append(f"q={q}: exterior count {od.exterior_points.size}")
        if od.interior_points.size != q * (q - 1) // 2:
            failures.append(f"q={q}: interior count {od.interior_points.size}")
        lines = np.flatnonzero(od.line_class != LINE_TANGENT)
        uneven = lines[pl.hits(od.interior_points)[lines] != pl.hits(od.exterior_points)[lines]]
        if uneven.size:
            failures.append(f"q={q}: line {uneven[0]} splits unevenly")
    summary = (
        f"exterior/interior counts and even line splits hold for q in ({_listed(orders)})"
    )
    return failures, summary, {"failures": failures}


def _solver_vs_oracle(outdir: str, graphs: int, vertices: int, t_values: list, seed: int):
    """Branch and bound agrees with unpruned enumeration on random graphs."""
    rng = random.Random(seed)
    failures = []
    trials = 0
    for i in range(graphs):
        g = _random_bipartite(rng, vertices // 2, vertices // 2, 0.5)
        for t in t_values:
            trials += 1
            res = exhaustive_exists(g, t)
            if res.status not in (FOUND, EXHAUSTED):
                failures.append(f"graph {i} t={t}: status {res.status}")
                continue
            truth = brute_force_exists(g, t)
            if (res.status == FOUND) != truth:
                failures.append(
                    f"graph {i} t={t}: solver {res.status}, oracle {truth}"
                )
    summary = f"{trials} solver/oracle comparisons agree on {graphs} random bipartite graphs"
    return failures, summary, {"trials": trials, "failures": failures}


def _anneal_cli(outdir: str, orders: list, t: int, seed: int):
    """Tabu search on q=5 and q=7 at t=1: reproducible seed-stamped records.

    Run 2 of each q is made in one forked process while this one makes
    run 1 of each; every check reads the files here.
    """

    def argv(q, i):
        path = os.path.join(outdir, f"criterion9-anneal-q{q}-run{i}.json")
        return [
            "search", "anneal", "--q", str(q), "--t", str(t), "--seed", str(seed), "--out", path,
        ]

    with _fan_out(_run_cli, [argv(q, 2) for q in orders], 1) as reruns:
        firsts = [_run_cli(argv(q, 1)) for q in orders]
        seconds = list(reruns)
    failures = []
    runs = []
    statuses = {}
    for q, *pair in zip(orders, firsts, seconds):
        docs = []
        for i, (rc, wall) in enumerate(pair, 1):
            if rc != 0:
                failures.append(f"q={q}: exit code {rc}")
                continue
            run = argv(q, i)
            docs.append(_strip_wall(_read_json(run[-1])))
            runs.append((run, {"q": q, "t": t, "seed": seed}, docs[-1], wall))
        if len(docs) != 2:
            continue
        if docs[0] != docs[1]:
            failures.append(f"q={q}: reruns differ")
        doc = docs[0]
        statuses[q] = doc["status"]
        if doc["status"] not in (FOUND, TIMEOUT):
            failures.append(f"q={q}: unexpected status {doc['status']}")
        if doc["details"].get("seed") != seed:
            failures.append(f"q={q}: record not seed-stamped")
        if doc["witness"] is not None:
            g = _graph(q)
            part = Partition.from_json(doc["witness"], g.label_ids, g.n)
            if margins(g, part).partition_intimacy < t:
                failures.append(f"q={q}: witness fails re-verification")
    outcomes = ", ".join(f"q={q}: {s}" for q, s in sorted(statuses.items()))
    summary = f"anneal outcomes {outcomes} (reproducible, witnesses re-verified)"
    return failures, summary, runs


# -- the table ----------------------------------------------------------------


class Criterion(NamedTuple):
    name: str
    budget: float  # wall seconds for the whole check, or for each CLI run if per_run
    check: Callable
    parameters: dict
    per_run: bool = False
    forked: bool = False  # run in a forked process while ``run`` runs the rows before it


def _measured(row: Criterion):
    """Time the row's check, enforce its budget, and build its records."""

    def criterion(outdir: str):
        t0 = time.monotonic()
        failures, summary, runs = row.check(outdir, **row.parameters)
        wall = time.monotonic() - t0
        if isinstance(runs, dict):
            runs = [(["reproduce-paper", "--only", row.name], row.parameters, runs, wall)]
        timed = [(" ".join(r[0]) + ": ", r[3]) for r in runs] if row.per_run else [("", wall)]
        for what, w in timed:
            if w >= row.budget:
                # in place: a check may list its failures among its outputs too
                failures.append(f"{what}took {w:.1f}s, budget {row.budget:g}s")
        records = [
            RunRecord(
                command="planepart " + " ".join(argv),
                parameters=parameters,
                field_modulus=(
                    list(_plane(parameters["q"]).field.modulus) if "q" in parameters else None
                ),
                artifact_version=__version__,
                outputs=outputs,
                wall_time=w,
            )
            for argv, parameters, outputs, w in runs
        ]
        return not failures, "; ".join(failures) if failures else summary, records, wall

    return criterion


TABLE = [
    Criterion("criterion-1", 5.0, _baer_cli, {"expected": {9: 1, 25: 2, 4: 0}}, per_run=True),
    Criterion("criterion-2", 60.0, _spectral_bound, {"orders": [4, 9, 16, 25]}),
    Criterion("criterion-3", 60.0, _pg3_exact, {"q": 3}),
    Criterion("criterion-4", 120.0, _constructions_internal, _ORDERS),
    Criterion("criterion-5", 30.0, _even_order, {"orders": [4, 8, 16]}),
    Criterion(
        "criterion-6",
        30.0,
        _spectrum,
        {"orders": [2, 3, 4, 5, 7, 8, 9, 11, 13, 16], "mixing_pairs": 1000},
    ),
    Criterion("criterion-7", 10.0, _conic, {"orders": [5, 7, 9, 11, 13]}),
    Criterion(
        "criterion-8",
        60.0,
        _solver_vs_oracle,
        {"graphs": 20, "vertices": 12, "t_values": [-1, 0, 1], "seed": 8},
    ),
    Criterion(
        "criterion-9", 300.0, _anneal_cli, {"orders": [5, 7], "t": 1, "seed": 0}, forked=True
    ),
]

CRITERIA = [(row.name, _measured(row)) for row in TABLE]


def run(outdir: str = "reproduce-out", only: str | None = None) -> int:
    names = [name for name, _ in CRITERIA]
    if only is not None and only not in names:
        raise ValueError(f"unknown criterion {only!r}; pick from {names}")
    os.makedirs(outdir, exist_ok=True)
    rows = [(name, func) for name, func in CRITERIA if only in (None, name)]
    forked = {row.name for row in TABLE if row.forked}
    jobs = [func for name, func in rows if name in forked]
    manifest = {
        "artifact_version": __version__,
        "all_pass": True,
        "criteria": [],
    }
    with _fan_out(lambda func: func(outdir), jobs, 1) as results:
        for name, func in rows:
            ok, detail, records, wall = next(results) if name in forked else func(outdir)
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{wall:.1f}s]")
            manifest["all_pass"] = manifest["all_pass"] and ok
            manifest["criteria"].append(
                {
                    "name": name,
                    "ok": ok,
                    "detail": detail,
                    "wall_time": wall,
                    "records": [dataclasses.asdict(r) for r in records],
                }
            )
    path = os.path.join(outdir, "manifest.json")
    cli._write_json(path, manifest)
    print(f"manifest written to {path}")
    return 0 if manifest["all_pass"] else 1
