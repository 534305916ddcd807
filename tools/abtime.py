"""In-process A/B timing of the engine, per query kind, against a parent revision.

Usage, from the root of a git checkout::

    python3 tools/abtime.py --parent HEAD~1 --workload design_opt --seed 3221 \\
        --queries 52 --pairs 4 --json ab.json

The queries are the benchmark's own: the first ``--queries`` of
``qkdbench/workloads.py``'s stream for ``--workload`` and ``--seed``, read
from this checkout (the parent's ``qkdbench`` is not used), so both sides
answer the same queries.  The parent's ``src`` is extracted with
``git archive`` into a temporary directory, so the repository's ``.git``
is only read; ``--parent-tree DIR`` takes a directory that holds ``src``
instead.  The change is this checkout's ``src``.

Each pair runs the two sides in fresh interpreters, one after the other,
alternating which goes first.  An interpreter first answers every query
once with counters installed: it counts the objective's evaluations
(``_evaluate_flat`` calls) and the scalar quantile's (``binom_ppf``) calls,
and hashes each kind's answers (the ``repr`` of every result and its
check's short answer).  This pass also warms the interpreter.  Then it
answers every query ``--repeats`` times with no counters installed, and
keeps each query's least wall time.  A kind's time in one interpreter is
the sum of those times over its queries.

The report gives, per query kind (``optimize/<regime>``,
``budget/<window>``, ``worstcase/f=<f>`` or ``sweep``), each side's median
and minimum over the pairs, and how many pairs the change won; its JSON,
with ``--json``, has the shape of the ``in_process`` block of the
``BENCH_<n>.json`` records.  Times are raw wall milliseconds on whatever
box runs it: compare them only within one run.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "qkdbench"


# --- the worker: one interpreter, one side ------------------------------

def _label(q) -> str:
    if q.kind == "optimize":
        return f"optimize/{q.spec.regime.value}"
    if q.kind == "budget":
        return f"budget/{q.channel.integration_time_s:g}s"
    if q.kind == "worstcase":
        return f"worstcase/f={q.f:g}"
    return q.kind


def _counted(modules: list, name: str, counts: dict, key: str) -> list:
    """Wrap ``name`` in each module that binds it, counting calls in
    ``counts[key]``; returns what to restore."""
    restore = []
    for mod in modules:
        fn = getattr(mod, name, None)
        if fn is None:
            continue

        def wrapped(*args, _fn=fn):
            counts[key] += 1
            return _fn(*args)

        restore.append((mod, name, fn))
        setattr(mod, name, wrapped)
    return restore


def worker(src: str, workload: str, seed: int, n_queries: int, repeats: int) -> dict:
    """Answer the queries from the engine under ``src``: per-query least times,
    per-kind counts and answer digests."""
    sys.path[:0] = [src, str(BENCH)]
    import fsqkd
    import workloads

    if Path(fsqkd.__file__).resolve().parent != (Path(src) / "fsqkd").resolve():
        raise RuntimeError(f"fsqkd imported from {fsqkd.__file__}, not {src}")
    optimize_mod, finitekey_mod, quantile_mod = (
        sys.modules[name] for name in ("fsqkd.optimize", "fsqkd.finitekey", "fsqkd._quantile"))
    queries = workloads.first_queries(workload, seed, n_queries)
    labels = [_label(q) for q in queries]
    counts = {label: {"evaluations": 0, "binom_ppf_calls": 0} for label in labels}
    digests = {label: hashlib.sha256() for label in labels}
    with tempfile.TemporaryDirectory() as tmp:
        ctx = workloads.Context(workdir=Path(tmp), check_rng=random.Random(seed))
        for i, (q, label) in enumerate(zip(queries, labels)):
            restore = (_counted([optimize_mod], "_evaluate_flat", counts[label], "evaluations")
                       + _counted([finitekey_mod, quantile_mod], "binom_ppf", counts[label],
                                  "binom_ppf_calls"))
            try:
                result = workloads.execute(q, workloads.prepare(q, ctx))
            finally:
                for mod, name, fn in reversed(restore):
                    setattr(mod, name, fn)
            ok, answer = workloads.check(q, result, ctx)
            if not ok:
                raise RuntimeError(f"query {i} ({label}) failed its check")
            digests[label].update(repr((result, answer)).encode() + b"\n")
        times = [float("inf")] * len(queries)
        for _ in range(repeats):
            for i, q in enumerate(queries):
                argv = workloads.prepare(q, ctx)
                t0 = time.perf_counter()
                workloads.execute(q, argv)
                times[i] = min(times[i], time.perf_counter() - t0)
    return {"labels": labels, "times_s": times, "counts": counts,
            "answers_sha256": {label: h.hexdigest() for label, h in digests.items()}}


# --- the A/B runner ---------------------------------------------------

def extract(parent: str, into: Path) -> Path:
    """The parent revision's ``src``, from ``git archive``, under ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", parent, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def run_side(src: Path, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
           "--workload", args.workload, "--seed", str(args.seed),
           "--queries", str(args.queries), "--repeats", str(args.repeats)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker on {src} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def per_kind(run: dict) -> dict[str, float]:
    """Milliseconds per kind of one interpreter: the sum of its least times."""
    out: dict[str, float] = {}
    for label, t in zip(run["labels"], run["times_s"]):
        out[label] = out.get(label, 0.0) + 1e3 * t
    return out


def summarize(runs: list[dict], args, parent_name: str) -> dict:
    kinds = list(dict.fromkeys(runs[0]["parent"]["labels"]))
    ms = {side: [per_kind(pair[side]) for pair in runs] for side in ("parent", "change")}
    first = {side: runs[0][side] for side in ("parent", "change")}
    block = {
        "what": (f"The first {args.queries} queries of {args.workload} seed {args.seed}, "
                 f"summed per kind; {len(runs)} pairs of fresh interpreters, alternating "
                 f"which side runs first; in each, one counted pass, then the least of "
                 f"{args.repeats} timed passes per query; raw wall ms. Parent "
                 f"{parent_name}, change the checkout's src."),
        "command": "python3 tools/abtime.py " + " ".join(args.argv),
        "queries": {kind: first["parent"]["labels"].count(kind) for kind in kinds},
    }
    for side in ("parent", "change"):
        block[f"{side}_ms"] = {k: round(statistics.median(r[k] for r in ms[side]), 3)
                               for k in kinds}
        block[f"{side}_min_ms"] = {k: round(min(r[k] for r in ms[side]), 3) for k in kinds}
    block["change_wins"] = {k: f"{sum(c[k] < p[k] for p, c in zip(ms['parent'], ms['change']))}"
                               f" of {len(runs)}" for k in kinds}
    block["counts"] = {side: first[side]["counts"] for side in ("parent", "change")}
    block["counts_repeat"] = all(pair[side]["counts"] == first[side]["counts"]
                                 for pair in runs for side in ("parent", "change"))
    block["answers_sha256"] = {side: first[side]["answers_sha256"]
                               for side in ("parent", "change")}
    block["results_equal"] = all(
        pair[side]["answers_sha256"] == first["parent"]["answers_sha256"]
        for pair in runs for side in ("parent", "change"))
    return block


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--parent-tree", help="a directory holding the parent's src, "
                                              "in place of --parent")
    parser.add_argument("--workload", default="design_opt")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--queries", type=int, default=13)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", help="write the in_process block here")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    if args.worker:
        print(json.dumps(worker(args.worker, args.workload, args.seed, args.queries,
                                args.repeats)))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        if args.parent_tree:
            parent_src, parent_name = Path(args.parent_tree).resolve() / "src", args.parent_tree
        else:
            parent_src, parent_name = extract(args.parent, Path(tmp)), args.parent
        sides = {"parent": parent_src, "change": ROOT / "src"}
        runs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs.append({side: run_side(sides[side], args) for side in order})
    block = summarize(runs, args, parent_name)
    for kind in block["queries"]:
        print(f"{kind:26s} parent {block['parent_ms'][kind]:10.3f} ms "
              f"(min {block['parent_min_ms'][kind]:.3f})  change "
              f"{block['change_ms'][kind]:10.3f} ms (min {block['change_min_ms'][kind]:.3f})"
              f"  change won {block['change_wins'][kind]}")
    print(f"results_equal {block['results_equal']}  counts_repeat {block['counts_repeat']}")
    if args.json:
        Path(args.json).write_text(json.dumps(block, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
