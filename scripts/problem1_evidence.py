#!/usr/bin/env python
"""Annealing evidence for 1-internal partitions of small prime-order planes.

Whether PG(2,q) incidence graphs with prime q >= 5 admit 1-internal
partitions is open; this script only logs heuristic outcomes.  A found
witness is a proof of existence for that q; a timeout proves nothing.

Each (q, seed) run appends one JSON line to the output file.
"""

import argparse
import json
import sys
import time

from planepart import AnnealParams, anneal_search, incidence_graph, plane_of_order
from planepart.verify import margins


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--orders", type=int, nargs="+", default=[5, 7, 11, 13])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--t", type=int, default=1)
    ap.add_argument("--restarts", type=int, default=AnnealParams.restarts)
    ap.add_argument("--sweeps", type=int, default=AnnealParams.sweeps)
    ap.add_argument("--out", default="problem1_results.jsonl")
    args = ap.parse_args()

    found = {}
    with open(args.out, "a", encoding="utf-8") as fh:
        for q in args.orders:
            pl = plane_of_order(q)
            g = incidence_graph(pl)
            for seed in args.seeds:
                params = AnnealParams(
                    seed=seed, restarts=args.restarts, sweeps=args.sweeps
                )
                t0 = time.monotonic()
                res = anneal_search(g, args.t, params=params)
                row = {
                    "q": q,
                    "t": args.t,
                    "seed": seed,
                    "status": res.status,
                    "best_objective": res.details.get("best_objective"),
                    "proposals": res.nodes_explored,
                    "accepted": res.details.get("accepted"),
                    "wall_time": round(time.monotonic() - t0, 3),
                }
                if res.witness is not None:
                    rep = margins(g, res.witness)
                    row["intimacy"] = rep.partition_intimacy
                    row["class_a"] = [
                        g.label(v) for v in res.witness.class_a().tolist()
                    ]
                    found[q] = True
                fh.write(json.dumps(row) + "\n")
                fh.flush()
                print(
                    f"q={q} seed={seed}: {res.status} "
                    f"(best objective {row['best_objective']}, {row['wall_time']}s)"
                )

    for q in args.orders:
        verdict = "witness found" if found.get(q) else "no witness in these runs"
        print(f"q={q}, t={args.t}: {verdict}")
    print(f"results appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
