"""Command-line front door.

Exit codes: 0 on success, 1 on a verification failure (a partition below
the requested t, or a search that ran out of budget without an answer),
2 on usage errors including violated construction preconditions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .constructions import (
    OVAL_VARIANTS,
    Partition,
    construct_algebraic_1mod4,
    construct_algebraic_3mod4,
    construct_baer_partition,
    construct_combinatorial,
    construct_denniston,
    construct_even,
    construct_oval,
)
from .graphs import Graph
from .plane import Plane, incidence_graph, plane_of_order
from .search import (
    TIMEOUT,
    AnnealParams,
    anneal_search,
    exhaustive_exists,
    exhaustive_max_intimacy,
)
from .spectral import intimacy_upper_bound, singular_spectrum
from .verify import MarginReport, margins

CONSTRUCTIONS = ("baer", "combinatorial", "alg1mod4", "alg3mod4", "oval", "even")


def _write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected a:b:c coordinate triple, got {text!r}")
    try:
        a, b, c = (int(x) for x in parts)
    except ValueError:
        raise ValueError(f"coordinate triple {text!r} has non-integer entries") from None
    return a, b, c


def _triple_index(pl: Plane, text: str) -> int:
    t = pl.normalize(_parse_triple(text))
    if t not in pl.index_of:
        raise ValueError(f"triple {text!r} has a coordinate outside GF({pl.q})")
    return pl.index_of[t]


def _print_margins(report: MarginReport):
    t = report.partition_intimacy
    quality = "internal" if t >= 0 else "not internal"
    if (report.margin >= 1).all():
        quality = "strictly internal"
    print(f"class sizes: |A| = {report.class_sizes[0]}, |B| = {report.class_sizes[1]}")
    print(f"min margin: A = {report.min_margin_a}, B = {report.min_margin_b}")
    print(f"partition intimacy: {t} ({quality})")


def _partition_doc(g: Graph, part: Partition, report: MarginReport) -> dict:
    doc = part.to_json(g.labels)
    doc["margin_report"] = report.to_json(g.labels)
    return doc


def cmd_plane(args) -> int:
    pl = plane_of_order(args.q)
    g = incidence_graph(pl)
    print(f"PG(2,{pl.q}): {pl.n} points, {pl.n} lines")
    print(f"field GF({pl.q}), modulus coefficients low-to-high: {list(pl.field.modulus)}")
    print(f"incidence graph: {g.n} vertices, {g.edge_count} edges, ({pl.q + 1})-regular")
    if args.json:
        _write_json(args.json, pl.to_json())
        print(f"wrote plane JSON to {args.json}")
    if args.export_graph:
        with open(args.export_graph, "w", encoding="utf-8") as fh:
            fh.write(g.to_dimacs())
        print(f"wrote DIMACS graph to {args.export_graph}")
    return 0


def _build_construction(pl: Plane, args) -> Partition:
    name = args.name
    if name == "baer":
        return construct_baer_partition(pl)
    if name == "combinatorial":
        point = _triple_index(pl, args.point) if args.point else None
        line = _triple_index(pl, args.line) if args.line else None
        return construct_combinatorial(
            pl, point=point, line=line, drop_variant=args.drop
        )
    if name == "alg1mod4":
        return construct_algebraic_1mod4(pl, erase_units=args.erase_units)
    if name == "alg3mod4":
        return construct_algebraic_3mod4(pl, erase_units=args.erase_units)
    if name == "oval":
        return construct_oval(pl, variant=args.variant)
    if name == "even":
        secant = _triple_index(pl, args.secant) if args.secant else None
        return construct_even(pl, secant_line=secant)
    raise ValueError(f"unknown construction {name!r}")


def cmd_construct(args) -> int:
    pl = plane_of_order(args.q)
    part = _build_construction(pl, args)
    g = incidence_graph(pl)
    report = margins(g, part)
    print(f"construction: {args.name}  q = {pl.q}")
    _print_margins(report)
    if args.out:
        _write_json(args.out, _partition_doc(g, part, report))
        print(f"wrote partition JSON to {args.out}")
    return 0 if report.partition_intimacy >= 0 else 1


def _load_partition(path: str, pl: Plane, g: Graph) -> Partition:
    """A partition file, or the witness of a search result, for PG(2,q).

    Raises ValueError (exit code 2) on a document without an ``assignment``
    object and on a provenance field modulus other than the plane's.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "assignment" not in doc:
        doc = doc.get("witness")
    if not isinstance(doc, dict) or not isinstance(doc.get("assignment"), dict):
        raise ValueError(f"{path}: no partition 'assignment' object, nor a search witness")
    provenance = doc.get("provenance")
    modulus = provenance.get("field_modulus") if isinstance(provenance, dict) else None
    if modulus is not None and modulus != list(pl.field.modulus):
        raise ValueError(
            f"{path}: field modulus {modulus} is not that of GF({pl.q}), "
            f"{list(pl.field.modulus)}"
        )
    return Partition.from_json(doc, g.label_ids, g.n)


def cmd_verify(args) -> int:
    pl = plane_of_order(args.q)
    g = incidence_graph(pl)
    part = _load_partition(args.partition, pl, g)
    report = margins(g, part)
    _print_margins(report)
    if report.partition_intimacy >= args.t:
        print(f"OK: partition is {args.t}-internal")
        return 0
    bad = next(
        v for v in range(g.n) if report.margin[v] // 2 < args.t
    )
    print(
        f"violation: vertex {g.label(bad)} has margin {int(report.margin[bad])}, "
        f"needs at least {2 * args.t}"
    )
    return 1


def cmd_spectrum(args) -> int:
    pl = plane_of_order(args.q)
    rep = singular_spectrum(pl)
    groups = ", ".join(f"{v:.9f} (x{m})" for v, m in rep.singular_values)
    print(f"singular values of M for q = {pl.q}: {groups}")
    print(f"max |MM^T - qI - J| = {rep.max_residual}")
    if args.json:
        _write_json(args.json, rep.to_json())
        print(f"wrote spectrum JSON to {args.json}")
    return 0 if rep.max_residual == 0 else 1


def cmd_bound(args) -> int:
    print(intimacy_upper_bound(args.q))
    return 0


def cmd_search(args) -> int:
    pl = plane_of_order(args.q)
    g = incidence_graph(pl)
    if args.mode == "exhaustive":
        return _search_exhaustive(pl, g, args)
    return _search_anneal(pl, g, args)


def _search_exhaustive(pl: Plane, g: Graph, args) -> int:
    if args.max_intimacy:
        t_hi = min(int(g.degrees.min()) // 2, intimacy_upper_bound(pl.q))
        best, res = exhaustive_max_intimacy(
            g,
            t_hi=t_hi,
            max_nodes=args.max_nodes,
            max_seconds=args.max_seconds,
            workers=args.workers,
        )
        print(f"nodes explored: {res.nodes_explored}")
        print(f"wall time: {res.wall_time:.2f} s")
        if best is None:
            print("max intimacy: unresolved (budget exhausted)")
            return 1
        print(f"max intimacy: {best}")
        if args.out:
            doc = {"max_intimacy": best, "result": res.to_json(g.labels)}
            _write_json(args.out, doc)
            print(f"wrote search JSON to {args.out}")
        return 0
    res = exhaustive_exists(
        g,
        args.t,
        max_nodes=args.max_nodes,
        max_seconds=args.max_seconds,
        workers=args.workers,
    )
    print(f"status: {res.status}")
    print(f"nodes explored: {res.nodes_explored}")
    print(f"wall time: {res.wall_time:.2f} s")
    if res.witness is not None:
        _print_margins(margins(g, res.witness))
    if args.out:
        _write_json(args.out, res.to_json(g.labels))
        print(f"wrote search JSON to {args.out}")
    return 1 if res.status == TIMEOUT else 0


def _search_anneal(pl: Plane, g: Graph, args) -> int:
    params = AnnealParams(
        seed=args.seed,
        restarts=args.restarts,
        sweeps=args.sweeps,
        start_temp=args.start_temp,
        cooling=args.cooling,
    )
    init = _load_partition(args.init, pl, g) if args.init else None
    res = anneal_search(g, args.t, params=params, init=init)
    print(f"status: {res.status}  (seed {params.seed}, t = {args.t})")
    print(f"flip proposals: {res.nodes_explored}")
    print(f"best objective: {res.details.get('best_objective')}")
    print(f"accepted flips: {res.details.get('accepted')}")
    print(f"wall time: {res.wall_time:.2f} s")
    if res.witness is not None:
        _print_margins(margins(g, res.witness))
    if args.out:
        doc = res.to_json(g.labels)
        doc["params"] = dataclasses.asdict(params)
        _write_json(args.out, doc)
        print(f"wrote search JSON to {args.out}")
    return 0


def cmd_reproduce(args) -> int:
    from . import reproduce

    return reproduce.run(outdir=args.outdir, only=args.only)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planepart",
        description="Internal partitions of PG(2,q) incidence graphs",
    )
    parser.add_argument("--version", action="version", version=f"planepart {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plane", help="build PG(2,q) and export it")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", help="write plane description JSON here")
    p.add_argument("--export-graph", help="write incidence graph DIMACS here")
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser("construct", help="run a named partition construction")
    p.add_argument("name", choices=CONSTRUCTIONS)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", help="write partition + margin report JSON here")
    p.add_argument("--drop", action="store_true", help="combinatorial: drop P and ell")
    p.add_argument(
        "--erase-units", action="store_true", help="alg1mod4/alg3mod4: drop unit triples"
    )
    p.add_argument("--variant", choices=OVAL_VARIANTS, default="interior_skew")
    p.add_argument("--point", help="combinatorial: pencil point a:b:c")
    p.add_argument("--line", help="combinatorial: reference line x:y:z")
    p.add_argument("--secant", help="even: secant line x:y:z")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="measure a partition JSON file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--t", type=int, default=0, help="required internality level")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="singular values and the Gram identity")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", help="write spectrum JSON here")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bound", help="spectral upper bound on intimacy")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("search", help="look for t-internal partitions")
    mode = p.add_subparsers(dest="mode", required=True)

    ex = mode.add_parser("exhaustive", help="sound and complete branch and bound")
    ex.add_argument("--q", type=int, required=True)
    ex.add_argument("--t", type=int, default=0)
    ex.add_argument(
        "--max-intimacy", action="store_true", help="scan t downward for the maximum"
    )
    ex.add_argument("--max-nodes", type=int, default=None)
    ex.add_argument("--max-seconds", type=float, default=None)
    ex.add_argument("--workers", type=int, default=1)
    ex.add_argument("--out", help="write search result JSON here")
    ex.set_defaults(func=cmd_search)

    an = mode.add_parser("anneal", help="seeded stochastic local search")
    an.add_argument("--q", type=int, required=True)
    an.add_argument("--t", type=int, default=1)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--restarts", type=int, default=AnnealParams.restarts)
    an.add_argument("--sweeps", type=int, default=AnnealParams.sweeps)
    an.add_argument("--start-temp", type=float, default=AnnealParams.start_temp)
    an.add_argument("--cooling", type=float, default=AnnealParams.cooling)
    an.add_argument("--init", help="partition JSON to seed the first restart")
    an.add_argument("--out", help="write search result JSON here")
    an.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "reproduce-paper", help="run the full acceptance table and write a manifest"
    )
    p.add_argument("--outdir", default="reproduce-out")
    p.add_argument("--only", help="run a single criterion, e.g. criterion-3")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
