"""planepart benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload construct-cold --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is built or installed).  Each pass of the workload runs
in a fresh process (``worker.py``), one after another.  A run repeats a
fixed set of passes until ``--seconds`` have passed and at least two
passes have run; set-up is timed in at least 15 fresh processes.  Times
are reported at a fixed host speed (``refclock.py``), and also as read.
The answers are checked here, outside the timed requests.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
holds the per-layer metrics.  Pass outputs go to a temporary directory
under ``.perfbench_tmp/`` that is removed at exit; a stamped record of the
run, with the spans of traced runs, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
TIME_LIMIT = 150  # seconds; no set starts that would end after this
MIN_PASSES = 2  # so that answers and exact counts are compared within every run
SETUP_SAMPLES = 15  # set-ups per run; setup_s is their median
# One BLAS thread per worker: every workload runs one client on one core, and
# the thread pool that numpy's OpenBLAS starts at import made set-up take 0.05
# or 0.14 s at random on a 2-vCPU host, depending on where the scheduler put it.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

from workloads import (  # noqa: E402
    CRITERIA,
    PLANE_SEARCHES,
    RANDOM_GRAPHS,
    RANDOM_T,
    WORKLOADS,
    instance_of,
    make_inputs,
    sweeps_per_set,
)


def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics that BENCHMARK.json lists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def stamp(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "instances": _instances(workload, seed),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD when the checkout is itself a git work tree, else None."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "planepart").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _instances(workload: str, seed: int) -> list:
    if workload == "construct-cold":
        return [f"q={r.q} {r.kind}" for r in make_inputs(workload, seed).construct]
    if workload == "exact-search":
        planes = [f"{r.id}: q={r.q} t={'max' if r.t is None else r.t} "
                  f"nodes<={r.budget}" for r in PLANE_SEARCHES]
        return planes + [f"random: {RANDOM_GRAPHS} graphs on 12 vertices, t in {RANDOM_T}"]
    return list(CRITERIA)


# -- passes -----------------------------------------------------------------------


def run_child(args, sweep: int, passdir: Path, *, traced=False, setup_only=False,
              timeout: float) -> dict:
    """One worker process; returns its result, or ``{"crash": reason}``."""
    passdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--sweep", str(sweep), "--out", str(passdir)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
                              env=WORKER_ENV)
    except subprocess.TimeoutExpired:
        return {"crash": f"worker exceeded {timeout:.0f} s", "dir": passdir}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"crash": f"worker exit {proc.returncode}: {tail[0]}", "dir": passdir}
    try:
        with open(passdir / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError) as exc:
        return {"crash": f"no worker result: {exc!r}", "dir": passdir}
    if Path(result["package"]).resolve().parent != SRC / "planepart":
        return {"crash": f"imported planepart from {result['package']}", "dir": passdir}
    result.update(dir=passdir, sweep=sweep, traced=traced, child_s=time.monotonic() - t0)
    return result


def run_passes(args, workdir: Path) -> tuple[list[dict], list[dict]]:
    """Whole sets of passes until ``--seconds`` are used.

    A set is the workload's sweeps (several on construct-cold, else one),
    so every run covers the same requests however many sets it makes.  In
    trace mode each sweep runs untraced and then traced.
    """
    plan = [(sweep, traced) for sweep in range(sweeps_per_set(args.workload))
            for traced in ((False, True) if args.trace else (False,))]
    start = time.monotonic()
    passes: list[dict] = []
    sets = 0
    while True:
        for sweep, traced in plan:
            left = max(1.0, TIME_LIMIT + 20 - (time.monotonic() - start))
            p = run_child(args, sweep, workdir / f"pass{len(passes)}", traced=traced,
                          timeout=left)
            passes.append(p)
            if "crash" in p:
                break
        else:
            sets += 1
        elapsed = time.monotonic() - start
        if "crash" in passes[-1] or elapsed * (sets + 1) / max(sets, 1) > TIME_LIMIT:
            break
        if len(passes) >= MIN_PASSES and elapsed >= args.seconds:
            break
    runs = [p for p in passes if "crash" not in p]
    while len(runs) < SETUP_SAMPLES:
        p = run_child(args, 0, workdir / f"setup{len(runs)}", setup_only=True, timeout=60)
        if "crash" in p:
            passes.append(p)
            break
        runs.append(p)
    return passes, runs


# -- checking ---------------------------------------------------------------------


def check_pass(workload: str, seed: int, p: dict, oracle) -> list:
    """Outcomes of one pass's requests; a crashed pass fails all of them."""
    from check import Outcome, check_construct, check_reproduce, check_search

    inputs = make_inputs(workload, seed, p.get("sweep", 0))
    if workload == "construct-cold":
        ids = [r.id for r in inputs.construct]
    elif workload == "exact-search":
        ids = [r.id for r in inputs.search]
    else:
        ids = list(CRITERIA)
    if "crash" in p:
        return [Outcome(i, errors=[p["crash"]]) for i in ids]
    if workload == "reproduce-table":
        return check_reproduce(p["requests"][0], str(p["dir"]), oracle)
    recs = {r["id"]: r for r in p["requests"]}
    if workload == "construct-cold":
        return [check_construct(r, recs[r.id], str(p["dir"]), oracle) for r in inputs.construct]
    outcomes = [check_search(r, recs[r.id], oracle) for r in inputs.search]
    for key, run in (p.get("fanout") or {}).items():
        # the fan-out runs are requests of the traced pass: PG(2,5) has no 1-internal split
        errors = [] if run["status"] == "exhausted_none" else [f"status {run['status']}"]
        outcomes.append(Outcome(f"fanout-{key}", errors=errors))
    return outcomes


def check_all(workload: str, seed: int, passes: list[dict]) -> list[list]:
    """Check every pass, then require each answer to repeat across passes.

    A request that recurs in a run (every request on exact-search and
    reproduce-table; on construct-cold, those of a second set) must give the
    same answer and exact counts; a difference fails the later pass.
    """
    from check import Oracle

    oracle = Oracle(seed)
    checked = [check_pass(workload, seed, p, oracle) for p in passes]
    first: dict[str, str] = {}
    for outcomes in checked:
        for o in outcomes:
            if o.errors or not o.answer:
                continue
            if o.id not in first:
                first[o.id] = o.answer
            elif first[o.id] != o.answer:
                o.errors.append("answer differs from an earlier pass of the same seed")
                o.decided = 0
    return checked


# -- metrics ----------------------------------------------------------------------


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def end_to_end(passes, runs, checked) -> dict:
    plain = [(p, c) for p, c in zip(passes, checked) if "crash" not in p and not p["traced"]]
    searches = sum(o.searches for _, c in plain for o in c)
    decided = sum(o.decided for _, c in plain for o in c)
    return {
        "setup_s": _median([r["setup_s"] for r in runs]),
        # whole sets, so the mean covers the same requests on every run
        "wall_s": statistics.mean(p["wall_s"] for p, _ in plain) if plain else 0.0,
        "solved_ratio": decided / searches if searches else 1.0,
        # a set makes every request of the run; its largest one starts a pass
        "peak_rss_mb": max((p["peak_rss_mb"] for p, _ in plain), default=0.0),
    }


def as_read(passes, runs) -> dict:
    """Times as the clock read them, and the reference kernel's median sample."""
    plain = [p for p in passes if "crash" not in p and not p["traced"]]
    samples = [s for p in plain for s in p["ref_samples_s"]]
    return {
        "setup_raw_s": _median([r["setup_raw_s"] for r in runs]),
        "wall_raw_s": statistics.mean(p["wall_raw_s"] for p in plain) if plain else 0.0,
        "ref_kernel_s": _median(samples),
    }


def per_layer(workload: str, passes, checked) -> dict:
    """Layer metrics from the traced passes: times are per-pass means."""
    from spans import END, NAME, REQ, START, merge, summarize

    traced = [(p, c) for p, c in zip(passes, checked) if "crash" not in p and p["traced"]]
    k = len(traced) or 1
    spans = merge(p["spans"] for p, _ in traced)
    summ = summarize(spans)
    m = {name: 0.0 for name in declared_metrics()[1]}

    for name, self_s in summ["self_s"].items():
        if f"{name}_s" in m:
            m[f"{name}_s"] = self_s / k
    for layer, self_s in summ["layer_self_s"].items():
        if f"{layer}.self_s" in m:
            m[f"{layer}.self_s"] = self_s / k
    for req, dur in summ["by_request"].items():
        if f"reproduce.{req}_s" in m:
            m[f"reproduce.{req}_s"] = dur / k
    for s in spans:
        if s[NAME] == "search.exhaustive" and workload == "exact-search":
            m[f"search.exhaustive.{instance_of(s[REQ])}_s"] += (s[END] - s[START]) / k

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m["verify.margins_vertices_per_s"] = rate(
        summ["count"].get("verify.margins", 0), summ["total_s"].get("verify.margins", 0.0))
    m["spectral.check_mixing_per_s"] = rate(
        summ["calls"].get("spectral.check_mixing", 0),
        summ["total_s"].get("spectral.check_mixing", 0.0))

    if workload == "exact-search" and traced:
        outcomes = traced[0][1]
        for o in outcomes:
            if "nodes" in o.stats:
                m[f"search.exhaustive.{instance_of(o.id)}.nodes"] += o.stats["nodes"]
                m["search.exhaustive.nodes"] += o.stats["nodes"]
        search_s = sum(s[END] - s[START] for s in spans if s[NAME] == "search.exhaustive")
        m["search.exhaustive.nodes_per_s"] = rate(m["search.exhaustive.nodes"] * k, search_s)
        m["search.exhaustive.fanout_speedup"] = _median([
            p["fanout"]["workers1"]["wall_s"] / p["fanout"]["workers2"]["wall_s"]
            for p, _ in traced
        ])
    if workload == "reproduce-table" and traced:
        stats = [o.stats for _, c in traced for o in c if o.id == "criterion-9" and o.stats]
        if stats:
            m["search.anneal.proposals"] = stats[0]["proposals"]
            m["search.anneal.best_objective"] = stats[0]["best_objective"]
            m["search.anneal.proposals_per_s"] = rate(
                sum(s["proposals"] for s in stats), sum(s["anneal_s"] for s in stats))
    pairs = [(a, b) for a, b in zip(passes, passes[1:]) if "crash" not in a and "crash" not in b
             and not a["traced"] and b["traced"] and a["sweep"] == b["sweep"]]
    if pairs:
        # as read: traced passes take no kernel samples inside the pass
        m["trace.overhead_ratio"] = sum(b["wall_raw_s"] for _, b in pairs) / sum(
            a["wall_raw_s"] for a, _ in pairs)
    m["trace.unattributed_ratio"] = rate(summ["unattributed_s"], summ["request_s"])
    return m


# -- main -------------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def tally(checked) -> tuple[int, int]:
    """Requests attempted, and requests with a wrong or unverifiable answer."""
    outcomes = [o for c in checked for o in c]
    return len(outcomes), sum(1 for o in outcomes if o.errors)


def report(args, passes, runs, checked) -> dict:
    attempted, failed = tally(checked)
    failures = [(o.id, e) for c in checked for o in c for e in o.errors]
    e2e = end_to_end(passes, runs, checked)
    record = {
        "stamp": stamp(args.workload, args.seed),
        "passes": [
            {
                **{k: v for k, v in p.items() if k in (
                    "sweep", "traced", "setup_s", "setup_raw_s", "wall_s", "wall_raw_s",
                    "ref_samples_s", "peak_rss_mb", "crash", "fanout")},
                "requests": [o.id for o in c],
            }
            for p, c in zip(passes, checked)
        ],
        "setup_samples_s": [r["setup_s"] for r in runs],
        "end_to_end": e2e,
        "as_read": as_read(passes, runs),
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": [f"{i}: {e}" for i, e in failures],
    }
    st = record["stamp"]
    print(f"stamp: workload={args.workload} seed={args.seed} nproc={st['nproc']} "
          f"cpu={st['cpu']!r} python={st['python']} numpy={st['numpy']} "
          f"commit={st['commit']} source_sha256={st['source_sha256'][:16]}")
    print(f"instances (first pass): {'; '.join(st['instances'])}")
    plain = sum(1 for p in passes if "crash" not in p and not p["traced"])
    print(f"passes: {plain} untraced, {len(passes) - plain} traced or crashed; "
          f"{attempted} requests attempted, {failed} failed")
    for ident, err in failures[:20]:
        print(f"FAILED {ident}: {err}")
    e2e_units, layer_units = declared_metrics()
    for name, value in [*e2e.items(), ("failed_ratio", record["failed_ratio"])]:
        print(f"  {name:<14} {_fmt(value)} {e2e_units.get(name, 'ratio')}")
    for name, value in record["as_read"].items():
        print(f"  ({name} {_fmt(value)} s, as read)")
    if args.trace:
        layers = per_layer(args.workload, passes, checked)
        record["per_layer"] = layers
        record["spans"] = [p["spans"] for p in passes if p.get("traced") and "spans" in p]
        for name, value in layers.items():
            print(f"  {name:<42} {_fmt(value)} {layer_units[name]}")
        metrics, units = layers, layer_units
    else:
        metrics, units = e2e, e2e_units
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "planepart" / "__init__.py").is_file():
        print(f"error: no planepart sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    workdir = TMP / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        passes, runs = run_passes(args, workdir)
        checked = check_all(args.workload, args.seed, passes)
        result = report(args, passes, runs, checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
