"""Checks of every answer a pass wrote, outside the timed requests.

Each check returns an ``Outcome`` per request: its errors (empty when the
answer is right), how many searches it held and how many of them were
decided, and an ``answer`` string that must repeat exactly between passes
of one seed.  Witnesses are re-checked with ``verify.margins`` on graphs
the checker builds itself.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np
from planepart.constructions import Partition
from planepart.graphs import Graph
from planepart.plane import incidence_graph, plane_of_order
from planepart.search import brute_force_exists
from planepart.spectral import intimacy_upper_bound
from planepart.verify import margins

from workloads import (
    ANNEAL_ORDERS,
    CRITERIA,
    DECIDED,
    EXHAUSTED,
    FOUND,
    RANDOM_SIDE,
    TIMEOUT,
    random_graphs,
)


@dataclass
class Outcome:
    id: str
    errors: list = field(default_factory=list)
    searches: int = 0
    decided: int = 0
    answer: str = ""
    stats: dict = field(default_factory=dict)


class Oracle:
    """Graphs and known answers for one seed, built once per run."""

    def __init__(self, seed: int):
        self.seed = seed
        self._planes: dict[int, tuple[Graph, dict]] = {}
        self._random: list[Graph] | None = None
        self._truth: dict[tuple[int, int], bool] = {}

    def plane_graph(self, q: int) -> tuple[Graph, dict]:
        if q not in self._planes:
            g = incidence_graph(plane_of_order(q))
            self._planes[q] = (g, {label: v for v, label in enumerate(g.labels)})
        return self._planes[q]

    def random_graph(self, k: int) -> Graph:
        if self._random is None:
            self._random = [
                Graph.from_edges(2 * RANDOM_SIDE, edges, n_left=RANDOM_SIDE)
                for edges in random_graphs(self.seed)
            ]
        return self._random[k]

    def exists(self, k: int, t: int) -> bool:
        if (k, t) not in self._truth:
            self._truth[(k, t)] = brute_force_exists(self.random_graph(k), t)
        return self._truth[(k, t)]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- construct-cold ---------------------------------------------------------------


def check_plane_files(q: int, files: dict) -> list[str]:
    n = q * q + q + 1
    errors = []
    doc = _load(files["json"])
    if doc.get("order") != q or len(doc.get("points", ())) != n or len(doc.get("lines", ())) != n:
        errors.append(f"plane JSON does not describe PG(2,{q})")
    elif any(len(pts) != q + 1 for pts in doc["lines_points"]):
        errors.append("plane JSON has a line without q+1 points")
    with open(files["dimacs"], encoding="utf-8") as fh:
        header = fh.readline().strip()
        edges = sum(1 for line in fh if line.startswith("e "))
    if header != f"p edge {2 * n} {n * (q + 1)}":
        errors.append(f"DIMACS header {header!r}, want 'p edge {2 * n} {n * (q + 1)}'")
    if edges != n * (q + 1):
        errors.append(f"DIMACS lists {edges} edges, want {n * (q + 1)}")
    return errors


def check_partition_file(q: int, kind: str, path: str, oracle: Oracle) -> list[str]:
    g, label_to_id = oracle.plane_graph(q)
    doc = _load(path)
    part = Partition.from_json(doc, label_to_id, g.n)
    rep = margins(g, part)
    t = rep.partition_intimacy
    errors = []
    claimed = doc.get("margin_report", {}).get("summary", {}).get("partition_intimacy")
    if claimed != t:
        errors.append(f"file claims intimacy {claimed}, margins give {t}")
    if kind == "baer":
        if t != intimacy_upper_bound(q):
            errors.append(f"Baer intimacy {t}, want the bound {intimacy_upper_bound(q)}")
    elif kind == "even":
        if not (rep.margin >= 1).all():
            errors.append("even partition is not strictly internal")
    elif t < 0:
        errors.append(f"{kind} partition has intimacy {t} < 0")
    return errors


def check_construct(req, rec: dict, outdir: str, oracle: Oracle) -> Outcome:
    out = Outcome(req.id)
    if "error" in rec:
        out.errors.append(rec["error"].strip().splitlines()[-1])
        return out
    if rec.get("rc") != 0:
        out.errors.append(f"exit code {rec.get('rc')}")
        return out
    files = req.files(outdir)
    try:
        if req.kind == "plane":
            out.errors += check_plane_files(req.q, files)
        else:
            out.errors += check_partition_file(req.q, req.kind, files["json"], oracle)
        out.answer = _digest(files.values())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.errors.append(f"unreadable output: {exc!r}")
    return out


# -- exact-search -----------------------------------------------------------------


def check_search(req, rec: dict, oracle: Oracle) -> Outcome:
    out = Outcome(req.id, searches=1)
    if "error" in rec:
        out.errors.append(rec["error"].strip().splitlines()[-1])
        return out
    status = rec["status"]
    if req.q is not None:
        g = oracle.plane_graph(req.q)[0]
        allowed = req.allowed
    else:
        g = oracle.random_graph(req.graph)
        allowed = req.allowed or ((FOUND,) if oracle.exists(req.graph, req.t) else (EXHAUSTED,))
    if status not in allowed:
        out.errors.append(f"status {status}, known answer {'/'.join(allowed)}")
    t = req.t
    if req.t is None:
        t = rec["best"]
        if rec["best"] != req.expect_best:
            out.errors.append(f"max intimacy {rec['best']}, known {req.expect_best}")
    if status == FOUND:
        if rec["witness"] is None or t is None:
            out.errors.append("found without a witness")
        elif margins(g, np.asarray(rec["witness"])).partition_intimacy < t:
            out.errors.append(f"witness is not {t}-internal")
    out.decided = int(status in DECIDED and not out.errors)
    out.answer = json.dumps([status, rec["nodes"], rec["best"], rec["witness"]])
    out.stats = {"nodes": rec["nodes"]}
    return out


# -- reproduce-table --------------------------------------------------------------


def _anneal_docs(rdir: str) -> list[tuple[int, dict]]:
    return [
        (q, _load(os.path.join(rdir, f"criterion9-anneal-q{q}-run{i}.json")))
        for q in ANNEAL_ORDERS
        for i in (1, 2)
    ]


def check_reproduce(rec: dict, outdir: str, oracle: Oracle) -> list[Outcome]:
    """One outcome per criterion; criteria 3 and 9 also count as searches."""
    outs = {name: Outcome(name) for name in CRITERIA}
    rdir = os.path.join(outdir, rec.get("outdir", "reproduce"))
    try:
        manifest = _load(os.path.join(rdir, "manifest.json"))
    except (OSError, ValueError) as exc:
        manifest = {"criteria": []}
        for o in outs.values():
            o.errors.append(f"no manifest: {exc!r}")
    if "error" in rec:
        for o in outs.values():
            o.errors.append(rec["error"].strip().splitlines()[-1])
    if rec.get("rc") != 0:
        outs[CRITERIA[0]].errors.append(f"reproduce exit code {rec.get('rc')}")
    if manifest.get("criteria") and not manifest.get("all_pass"):
        outs[CRITERIA[0]].errors.append("manifest all_pass is false")
    for line in rec.get("fail_lines", ()):
        name = line.split()[1].rstrip(":")
        outs.get(name, outs[CRITERIA[0]]).errors.append(line)
    seen = set()
    for crit in manifest.get("criteria", ()):
        name = crit["name"]
        seen.add(name)
        o = outs[name]
        if not crit["ok"]:
            o.errors.append(f"not ok: {crit['detail']}")
        o.answer = json.dumps([crit["ok"], [r["outputs"] for r in crit["records"]]])
        if name == "criterion-3":
            rec3 = crit["records"][0]["outputs"]
            decided = [
                rec3["t1_status"] in DECIDED,
                rec3["t0_status"] in DECIDED,
                rec3["max_intimacy"] is not None,
            ]
            o.searches = len(decided)
            o.decided = 0 if o.errors else sum(decided)
    for name, o in outs.items():
        if name not in seen and manifest.get("criteria"):
            o.errors.append("missing from the manifest")
    _check_anneal(outs["criterion-9"], rdir, oracle)
    return list(outs.values())


def _check_anneal(o: Outcome, rdir: str, oracle: Oracle):
    """Criterion-9's four anneal records: statuses, witnesses, exact counts."""
    o.searches = 2 * len(ANNEAL_ORDERS)
    try:
        docs = _anneal_docs(rdir)
    except (OSError, ValueError) as exc:
        o.errors.append(f"anneal output unreadable: {exc!r}")
        return
    decided = 0
    for q, doc in docs:
        if doc["status"] not in (FOUND, TIMEOUT):
            o.errors.append(f"q={q}: anneal status {doc['status']}")
        if doc["status"] == FOUND:
            g, label_to_id = oracle.plane_graph(q)
            part = Partition.from_json(doc["witness"], label_to_id, g.n)
            if margins(g, part).partition_intimacy < 1:
                o.errors.append(f"q={q}: anneal witness is not 1-internal")
            else:
                decided += 1
    o.decided = 0 if o.errors else decided
    o.stats = {
        "proposals": sum(d["nodes_explored"] for _, d in docs),
        "anneal_s": sum(d["wall_time"] for _, d in docs),
        "best_objective": sum(d["details"]["best_objective"] for _, d in docs),
    }
