"""Command-line front door.

Exit codes: 0 on success, 1 on a verification failure (a partition below
the requested t, or an exhaustive search that ran out of budget without an
answer), 2 on usage errors, including violated construction preconditions,
flags that do not apply to the construction or search mode, meaningless
search budgets or anneal parameters, and files that cannot be read or
written.  ``search anneal`` exits 0 on ``timeout``: finding no
witness is not a claim that none exists, and the acceptance table's
criterion 9 relies on that exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import operator
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

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
from .graphs import Graph, LabelMap, json_default
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

# each construction: the construct flags it reads (any other is a usage error)
# and its builder, which looks its construct_* up in this module when called
_CONSTRUCTIONS = {
    "baer": ((), lambda pl, a: construct_baer_partition(pl)),
    "combinatorial": (("drop", "point", "line"), lambda pl, a: construct_combinatorial(
        pl,
        point=_triple_index(pl, a.point),
        line=_triple_index(pl, a.line),
        drop_variant=a.drop,
    )),
    "alg1mod4": (("erase_units",), lambda pl, a: construct_algebraic_1mod4(
        pl, erase_units=a.erase_units
    )),
    "alg3mod4": (("erase_units",), lambda pl, a: construct_algebraic_3mod4(
        pl, erase_units=a.erase_units
    )),
    "oval": (("variant",), lambda pl, a: construct_oval(
        pl, variant=a.variant or "interior_skew"
    )),
    "even": (("secant",), lambda pl, a: construct_even(
        pl, secant_line=_triple_index(pl, a.secant)
    )),
}


_FORMS = (np.ndarray, LabelMap)  # what json_default turns into lists and dicts
_CONTAINERS = (dict, list, tuple, *_FORMS)
_PIECE = 256  # labels of a label map per block
_BLOCK = 1024  # entries of an integer array per lookup, tolist and join


@functools.lru_cache(maxsize=None)
def _encoder(level: int) -> json.JSONEncoder:
    """The C encoder with the item separator of ``indent=2`` at ``level``."""
    return json.JSONEncoder(separators=(",\n" + "  " * (level + 1), ": "))


def _json_chunks(obj, level: int = 0):
    """The text of ``json.dumps(obj, indent=2, default=json_default)``, piece by piece.

    A scalar, and a container that holds no container, is one call of the
    stdlib C encoder, whose item separator carries the indent of ``level``;
    only a container that holds containers recurses.  ``indent`` itself
    would select the pure-Python encoder, which makes a call per token.
    Integer arrays and label maps are written by ``_form_chunks``.
    """
    if isinstance(obj, _FORMS):
        yield from _form_chunks(obj, level)
        return
    encoder = _encoder(level)
    encode = encoder.encode
    if not isinstance(obj, _CONTAINERS) or not obj:
        yield encode(obj)
        return
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    sep = encoder.item_separator
    lead = ("{" if is_dict else "[") + sep[1:]
    if any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values))):
        for key, value in zip(obj, values):  # a list's "keys" are its values, unused
            # the key as the encoder coerces or rejects it, then ": "
            yield lead + encode({key: 0})[1:-2] if is_dict else lead
            yield from _json_chunks(value, level + 1)
            lead = sep
    else:
        yield lead + encode(obj)[1:-1]
    yield "\n" + "  " * level + ("}" if is_dict else "]")


def _text_table(values: np.ndarray, text) -> np.ndarray | None:
    """An object array with ``table[v] == text(v)`` for every entry v of ``values``.

    The table runs from 0 to the largest entry and then from the least entry
    to -1, which negative indices reach, so ``table[values]`` holds the texts
    of ``values``.  None when ``values`` is empty or not of integers, or when
    the table would be longer than both ``values`` and ``_PIECE``.
    """
    if values.dtype.kind not in "iu" or not values.size:
        return None
    lo, hi = int(values.min()), int(values.max())
    if max(hi + 1, 0) + max(-lo, 0) > max(values.size, _PIECE):
        return None
    return np.array([*map(text, range(hi + 1)), *map(text, range(lo, 0))], dtype=object)


def _form_chunks(obj, level: int):
    """``_json_chunks`` of an array or a ``LabelMap``, from a table of value texts.

    The entries of a 1-D or 2-D integer array, and the codes of a label map,
    index one table of their texts: a block of entries is one lookup, one
    ``tolist`` and one join, and each label's key text is one call of the C
    string encoder.  Any other array, and a table that would outgrow its
    array, goes through ``json_default``.
    """
    if isinstance(obj, LabelMap):
        texts = _text_table(obj.codes, lambda c: ": " + "".join(_json_chunks(obj.value(c), level + 1)))
        if texts is not None:
            return _label_map_chunks(obj, texts, level)
    elif obj.ndim in (1, 2):
        texts = _text_table(obj, str)  # an int's JSON text
        if texts is not None:
            return _array_chunks(obj, texts, level)
    return _json_chunks(json_default(obj), level)


def _label_map_chunks(m: LabelMap, texts: np.ndarray, level: int):
    sep = _encoder(level).item_separator
    lead = "{" + sep[1:]
    for start in range(0, len(m.labels), _PIECE):
        # the encoder's own key text, which raises TypeError on a label that is not a str
        keys = map(encode_basestring_ascii, m.labels[start:start + _PIECE])
        yield lead + sep.join(map(operator.add, keys, texts[m.codes[start:start + _PIECE]].tolist()))
        lead = sep
    yield "\n" + "  " * level + "}"


def _array_chunks(a: np.ndarray, texts: np.ndarray, level: int):
    sep = _encoder(level).item_separator
    if a.ndim == 1:
        row_open = row_close = ""
        step = _BLOCK
    else:  # each row is an array one level in
        inner = _encoder(level + 1).item_separator
        row_open, row_close = "[" + inner[1:], "\n" + "  " * (level + 1) + "]"
        step = max(1, _BLOCK // a.shape[1])
    between = row_close + sep + row_open
    lead = "[" + sep[1:] + row_open
    for start in range(0, len(a), step):
        block = texts[a[start:start + step]].tolist()
        yield lead + (sep.join(block) if a.ndim == 1 else between.join(map(inner.join, block)))
        lead = between
    yield row_close + "\n" + "  " * level + "]"


def _write_json(path: str, doc: dict):
    """Write ``json.dumps(doc, indent=2, default=json_default)`` and a newline.

    The text goes to the file piece by piece, without building one string.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in _json_chunks(doc):
            fh.write(chunk)
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


def _triple_index(pl: Plane, text: str | None) -> int | None:
    return None if text is None else int(pl.index(_parse_triple(text)))


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
            g.to_dimacs(fh)
        print(f"wrote DIMACS graph to {args.export_graph}")
    return 0


def cmd_construct(args) -> int:
    reads, build = _CONSTRUCTIONS[args.name]
    # the first flag that does not apply, in table order
    for flags, _ in _CONSTRUCTIONS.values():
        for flag in flags:
            if getattr(args, flag) not in (None, False) and flag not in reads:
                option = "--" + flag.replace("_", "-")
                raise ValueError(f"{option} does not apply to construction {args.name!r}")
    pl = plane_of_order(args.q)
    part = build(pl, args)
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
    bad = np.flatnonzero(report.margin < 2 * args.t)[0]
    print(
        f"violation: vertex {g.labels[bad]} has margin {int(report.margin[bad])}, "
        f"needs at least {2 * args.t}"
    )
    return 1


def cmd_spectrum(args) -> int:
    pl = plane_of_order(args.q)
    rep = singular_spectrum(pl)
    groups = ", ".join(f"{v:.9f} (x{m})" for v, m in rep.singular_values)
    print(f"singular values of M for q = {pl.q}: {groups or 'none, the Gram identity fails'}")
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


def _print_solver_counts(res) -> None:
    print(f"nodes explored: {res.nodes_explored}")
    print(f"conflicts: {res.details['conflicts']}")
    print(f"max depth: {res.details['max_depth']}")
    print(f"presets: {res.details['presets']}")
    print(f"propagations: {res.details['propagations']}")
    print(f"wall time: {res.wall_time:.2f} s")


def _search_exhaustive(pl: Plane, g: Graph, args) -> int:
    if args.max_intimacy:
        if args.t is not None:
            raise ValueError("--t does not apply to --max-intimacy, which scans every t")
        best, res = exhaustive_max_intimacy(
            g,
            t_hi=intimacy_upper_bound(pl.q),
            max_nodes=args.max_nodes,
            max_seconds=args.max_seconds,
            workers=args.workers,
        )
        _print_solver_counts(res)
        if best is None:
            print("max intimacy: unresolved (budget exhausted)")
            return 1
        print(f"max intimacy: {best}")
        if args.out:
            doc = res.to_json(g.labels)
            doc["max_intimacy"] = best
            _write_json(args.out, doc)
            print(f"wrote search JSON to {args.out}")
        return 0
    res = exhaustive_exists(
        g,
        args.t or 0,
        max_nodes=args.max_nodes,
        max_seconds=args.max_seconds,
        workers=args.workers,
    )
    print(f"status: {res.status}")
    _print_solver_counts(res)
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
        steps=args.steps,
    )
    init = _load_partition(args.init, pl, g) if args.init else None
    res = anneal_search(g, args.t, params=params, init=init)
    print(f"status: {res.status}  (seed {params.seed}, t = {args.t})")
    print(f"steps: {res.nodes_explored}")
    print(f"best objective: {res.details['best_objective']}")
    print(f"aspirations: {res.details['aspirations']}")
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


@functools.cache  # one parser per process, built at the first main call
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
    p.add_argument("name", choices=_CONSTRUCTIONS)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", help="write partition + margin report JSON here")
    p.add_argument("--drop", action="store_true", help="combinatorial: drop P and ell")
    p.add_argument(
        "--erase-units", action="store_true", help="alg1mod4/alg3mod4: drop unit triples"
    )
    p.add_argument("--variant", choices=OVAL_VARIANTS, help="oval: default interior_skew")
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
    ex.add_argument("--t", type=int, help="default 0; not with --max-intimacy")
    ex.add_argument(
        "--max-intimacy", action="store_true", help="scan t downward for the maximum"
    )
    ex.add_argument("--max-nodes", type=int, default=None)
    ex.add_argument("--max-seconds", type=float, default=None)
    ex.add_argument("--workers", type=int, default=1)
    ex.add_argument("--out", help="write search result JSON here")
    ex.set_defaults(func=cmd_search)

    an = mode.add_parser("anneal", help="seeded tabu search over single-vertex flips")
    an.add_argument("--q", type=int, required=True)
    an.add_argument("--t", type=int, default=1)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--restarts", type=int, default=AnnealParams.restarts)
    an.add_argument("--steps", type=int, default=AnnealParams.steps, help="steps per restart")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
