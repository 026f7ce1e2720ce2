"""One pass of a workload in a fresh process: the program under test.

    python3 perfbench/worker.py --workload construct-cold --seed 0 --sweep 0 \
        --out DIR [--trace] [--setup-only]

Set-up (importing the package and making the inputs from the seed) is
timed from the first lines of this file.  The pass then runs the workload's
requests in order, one at a time, and writes ``result.json`` into DIR with
the answers, the pass's wall time (at the reference host speed of
``refclock.py``, and as read) and peak RSS, and the spans of a traced
pass.  Answers are checked by ``run.py``.
"""

import refclock

_SETUP = refclock.RefClock(period=refclock.SETUP_PERIOD_S)
_SETUP.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import planepart  # noqa: E402
from planepart import cli, constructions, plane, reproduce, search  # noqa: E402
from planepart.graphs import Graph  # noqa: E402
from planepart.plane import Plane, incidence_graph, plane_of_order  # noqa: E402
from planepart.search import exhaustive_exists, exhaustive_max_intimacy  # noqa: E402

from spans import Timer, Tracer  # noqa: E402
from workloads import RANDOM_SIDE, make_inputs  # noqa: E402


def _tables(f):
    return f.add_table, f.mul_table


def _vertices(g, *_):
    return g.n


# -- spans around the package's calls into its layers -----------------------------

# module attributes of reproduce and cli rebound during a traced pass, and their spans
_SPAN_OF = {
    "plane_of_order": "plane.build",
    "incidence_graph": "graphs.incidence_graph",
    "baer_decomposition": "plane.baer",
    "construct_baer_partition": "constructions.baer",
    "construct_combinatorial": "constructions.combinatorial",
    "construct_algebraic_1mod4": "constructions.alg1mod4",
    "construct_algebraic_3mod4": "constructions.alg3mod4",
    "construct_oval": "constructions.oval",
    "construct_even": "constructions.even",
    "construct_denniston": "constructions.denniston",
    "classify_conic": "constructions.classify_conic",
    "verify_maximal_arc": "constructions.verify_maximal_arc",
    "margins": "verify.margins",
    "is_internal": "verify.margins",
    "is_strict": "verify.margins",
    "singular_spectrum": "spectral.singular_spectrum",
    "check_mixing": "spectral.check_mixing",
    "exhaustive_exists": "search.exhaustive",
    "exhaustive_max_intimacy": "search.exhaustive",
    "brute_force_exists": "search.brute_force",
    "anneal_search": "search.anneal",
}
_COUNT_OF = {"margins": _vertices, "is_internal": _vertices, "is_strict": _vertices}


def _json_span(doc: dict) -> str:
    """The span of a CLI JSON write: partition (with its report) or plane."""
    if "margin_report" in doc:
        return "cli.partition_json"
    if "lines_points" in doc:
        return "cli.plane_json"
    return "cli.write_json"


def layer_patches(tr) -> list:
    """``(owner, attribute, replacement)`` triples that span each layer call.

    The package's own code runs unchanged (``cli.main``, ``reproduce.run``);
    only the names it calls are rebound for the length of a traced pass.
    The plane's field is split into ``fields.field`` and ``fields.tables``
    (the first access to the addition and multiplication tables), so
    ``plane.build`` keeps the self time of ``Plane`` alone.  Untraced
    passes rebind nothing.
    """
    if not tr.enabled:
        return []
    make_field = plane.make_field
    write_json = cli._write_json

    def field(*args):
        f = tr.call("fields.field", make_field, *args)
        tr.call("fields.tables", _tables, f)
        return f

    def write(path, doc):
        return tr.call(_json_span(doc), write_json, path, doc)

    targets = [
        (plane, "make_field", field),
        (plane, "singer_cycle", tr.wrap("plane.singer", plane.singer_cycle)),
        (constructions, "baer_decomposition",
         tr.wrap("plane.baer", constructions.baer_decomposition)),
        (Plane, "to_json", tr.wrap("cli.plane_json", Plane.to_json)),
        (Graph, "to_dimacs", tr.wrap("graphs.to_dimacs", Graph.to_dimacs)),
        (search, "margins", tr.wrap("verify.margins", search.margins, _vertices)),
        (cli, "_partition_doc", tr.wrap("cli.partition_json", cli._partition_doc)),
        (cli, "_write_json", write),
        (cli, "main", tr.wrap("cli.main", cli.main)),
    ]
    for mod in (reproduce, cli):
        for attr, name in _SPAN_OF.items():
            if hasattr(mod, attr):
                fn = getattr(mod, attr)
                targets.append((mod, attr, tr.wrap(name, fn, _COUNT_OF.get(attr))))
    return targets


# -- construct-cold ---------------------------------------------------------------


def construct_via_cli(req, outdir: str) -> int:
    """``planepart plane|construct ...`` in-process."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(req.argv(outdir))
        except SystemExit as exc:  # argparse rejects the request
            return int(exc.code or 0)


def run_construct(tr, inputs, outdir: str) -> list[dict]:
    records = []
    with tr.patched(layer_patches(tr)):
        for req in inputs.construct:
            rec = {"id": req.id, "q": req.q, "kind": req.kind, "options": list(req.options)}
            try:
                with tr.request(req.id):
                    rec["rc"] = construct_via_cli(req, outdir)
            except Exception:  # a failed request is counted, the pass goes on
                rec["error"] = traceback.format_exc(limit=3)
            records.append(rec)
    return records


# -- exact-search -----------------------------------------------------------------


def search_one(tr, req, graphs) -> dict:
    if req.q is not None:
        pl = tr.call("plane.build", plane_of_order, req.q)
        g = tr.call("graphs.incidence_graph", incidence_graph, pl)
    else:
        g = graphs[req.graph]
    tr.call("graphs.adjacency_lists", getattr, g, "adjacency_lists")
    best = None
    if req.t is None:
        best, res = tr.call(
            "search.exhaustive", exhaustive_max_intimacy, g, max_nodes=req.budget
        )
    else:
        res = tr.call("search.exhaustive", exhaustive_exists, g, req.t, max_nodes=req.budget)
    witness = None if res.witness is None else res.witness.side.tolist()
    return {"status": res.status, "nodes": res.nodes_explored, "best": best, "witness": witness}


def run_search(tr, inputs, graphs) -> list[dict]:
    records = []
    with tr.patched(layer_patches(tr)):
        for req in inputs.search:
            rec = {"id": req.id, "q": req.q, "t": req.t}
            try:
                with tr.request(req.id):
                    rec.update(search_one(tr, req, graphs))
            except Exception:
                rec["error"] = traceback.format_exc(limit=3)
            records.append(rec)
    return records


def measure_fanout() -> dict:
    """PG(2,5) at t=1 with one worker and with two (traced runs only)."""
    g = incidence_graph(plane_of_order(5))
    out = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        res = exhaustive_exists(g, 1, workers=workers)
        out[f"workers{workers}"] = {
            "wall_s": time.perf_counter() - t0,
            "status": res.status,
            "nodes": res.nodes_explored,
        }
    return out


# -- reproduce-table --------------------------------------------------------------


def reproduce_patches(tr) -> list:
    """The layer spans, plus one request span per criterion."""
    if not tr.enabled:
        return []
    targets = layer_patches(tr)

    def request_per_criterion(name, fn):
        def criterion(outdir):
            with tr.request(name):
                return fn(outdir)

        return criterion

    criteria = [(name, request_per_criterion(name, fn)) for name, fn in reproduce.CRITERIA]
    targets.append((reproduce, "CRITERIA", criteria))
    return targets


def run_reproduce(tr, outdir: str) -> list[dict]:
    rdir = os.path.join(outdir, "reproduce")
    out = io.StringIO()
    rec = {"id": "reproduce", "outdir": "reproduce"}
    try:
        with tr.patched(reproduce_patches(tr)):
            with contextlib.redirect_stdout(out):
                rec["rc"] = reproduce.run(outdir=rdir)
    except Exception:
        rec["error"] = traceback.format_exc(limit=3)
    rec["fail_lines"] = [ln for ln in out.getvalue().splitlines() if ln.startswith("FAIL")]
    return [rec]


def random_graph_objects(edge_lists) -> list:
    n = 2 * RANDOM_SIDE
    return [Graph.from_edges(n, edges, n_left=RANDOM_SIDE) for edges in edge_lists]


def run_pass(workload: str, tr, inputs, outdir: str, graphs=()) -> list[dict]:
    if workload == "construct-cold":
        return run_construct(tr, inputs, outdir)
    if workload == "exact-search":
        return run_search(tr, inputs, graphs)
    return run_reproduce(tr, outdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweep", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = make_inputs(args.workload, args.seed, args.sweep)
    graphs = random_graph_objects(inputs.edges)
    _SETUP.stop()
    result = {"setup_s": _SETUP.wall_s, "setup_raw_s": _SETUP.raw_s,
              "package": planepart.__file__}
    if not args.setup_only:
        tr = Tracer() if args.trace else Timer()
        # traced passes take no samples inside the pass, so none falls in a span
        clock = refclock.RefClock(sampling=not args.trace)
        clock.start()
        result["requests"] = run_pass(args.workload, tr, inputs, args.out, graphs)
        clock.stop()
        result["wall_s"] = clock.wall_s
        result["wall_raw_s"] = clock.raw_s
        result["ref_samples_s"] = clock.samples
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            result["spans"] = tr.spans
            if args.workload == "exact-search":
                result["fanout"] = measure_fanout()
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
