"""fsqkd benchmark: design queries end to end, and a traced per-layer split.

Usage, from the root of a checkout (no build step; the engine is imported
from ``src``)::

    python3 qkdbench/run.py --workload design_opt --seed 1 --seconds 30 --trace 0

    for w in design_opt worstcase_grid surface_cli; do
        python3 qkdbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Workloads (see ``workloads.py``): ``design_opt``, ``worstcase_grid`` and
``surface_cli``.  Load is a closed loop: one client in one process and one
thread sends each query only after the previous one returned.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall
time of fresh interpreters that import fsqkd and answer one small query of
the workload's kind), ``query_s_p50``, ``query_s_tail`` (latency at the
highest percentile with at least ten samples beyond it; both Harrell-Davis
quantile estimates) and ``queries_per_s`` (queries per second of time
spent inside queries).  Each of these times is scaled to a reference
machine speed by a calibration kernel timed just before and just after it
(see ``calibration_s``); the raw wall times are printed on a note line.
A run sends whole rounds of queries until they have taken ``--seconds``
at the reference speed, or until ``WALL_CAP`` times that in wall time.
The cold starts are timed pinned to one CPU.

``--trace 1`` runs a fixed, seeded query set twice, untraced and then with
the tracer installed, and reports the per-layer metrics: counts repeat
exactly, times are totals over the set, and ``trace.overhead_s`` is the
traced minus the untraced time.

Before measuring, every run answers the seed-0 reference queries and
compares them with ``answers.json`` (``answers_changed``).  Every query's
answer is checked; a query that raises or fails its check counts as
failed.  Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record-answers`` rewrites ``answers.json`` from the current engine.
"""
import os

# single-threaded numeric libraries, and no FSQKD_* overrides of the inputs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("FSQKD_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".qkdbench"
ANSWERS = BENCH / "answers.json"

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10
# at least five worst-case rounds, so the tail is not the fastest query
MIN_QUERIES = 15
PROBE_TIMEOUT_S = 120
# a run stops starting rounds after this many times --seconds of wall time,
# so that a host in a slow spell cannot stretch it without limit
WALL_CAP = 1.3


# --- statistics --------------------------------------------------------

def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  A run holds as few as 15 queries, whose latencies
    split between the machine's fast and slow spells; a single order
    statistic jumps between the two, this estimate does not."""
    from scipy.special import betainc

    n = len(xs)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted(xs)))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile that has at least
    ``TAIL_BEYOND`` samples beyond it."""
    p = (len(latencies) - TAIL_BEYOND) / (len(latencies) + 1)
    return quantile(latencies, p), 100.0 * p


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


# --- machine speed -----------------------------------------------------

# The benchmark shares a few cores of a host whose speed flips between a
# fast and a slow state, about 1.7x apart, every second or so, in
# proportions that drift over minutes; raw wall times of one run mostly
# measure the neighbours.  A fixed calibration kernel, which runs no engine
# code, is timed before and after every query and every cold start, and
# each time is scaled by REFERENCE_CAL_S over the geometric mean of those
# two kernel times.  This gives seconds at a reference machine speed.  Raw
# wall times are printed too.  The CPUs flip independently, so while the
# cold starts are timed, the benchmark and its cold starts are pinned to
# one CPU (``pinned``).
# The kernel's time at the reference speed: about its median on a 2-vCPU
# x86-64 VM whose host carries other load (7 ms in its fast spells).
REFERENCE_CAL_S = 0.0102
_CAL_BIG = np.linspace(0.5, 1.5, 3 ** 10)
_CAL_SMALL = np.linspace(0.5, 1.5, 3)


def calibration_s() -> float:
    """Wall time of the calibration kernel: interpreted scalar arithmetic,
    numpy calls on tiny arrays and passes over a 3^10 array, the three
    kinds of work the engine's queries are made of."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(8000):
        acc += math.log(i + 1.5) * 0.5
        table[i & 255] = acc
    for _ in range(600):
        acc += float(np.exp(-_CAL_SMALL).sum())
    for _ in range(3):
        x = np.log(_CAL_BIG) * 1.7 + np.exp(-_CAL_BIG)
        acc += float(np.minimum(x, np.where(x > 0.3, x * x, -x)).min())
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel went non-finite")
    return elapsed


@contextlib.contextmanager
def pinned():
    """Pin this process, and the processes it starts, to one of its CPUs, so
    that the kernel times the CPU the cold starts run on."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def scaled(raw_s: float, cal_before: float, cal_after: float) -> float:
    """``raw_s`` in seconds at the reference speed, from the kernel's times
    just before and just after it."""
    return raw_s * REFERENCE_CAL_S / math.sqrt(cal_before * cal_after)


# --- set-up ------------------------------------------------------------

def cold_start(workload: str, workdir: Path, importtime: bool) -> tuple[float, str]:
    """Wall time of one fresh interpreter running the set-up probe."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(BENCH / "setup_probe.py"), workload, str(workdir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return elapsed, proc.stderr


def environment() -> dict:
    import numpy
    import scipy

    import fsqkd

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "using_numba": fsqkd.using_numba(),
            "commit": _commit(), "source_sha256": _source_digest()}


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fsqkd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --- queries -----------------------------------------------------------

def run_one(q, ctx, tracer=None) -> tuple[float, bool, object]:
    """Send one query and check its answer: (latency, ok, answer)."""
    import workloads

    argv = workloads.prepare(q, ctx)
    if tracer is not None:
        tracer.install()
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workloads.execute(q, argv)
        else:
            result = tracer.query(workloads.execute, q, argv)
    except Exception as exc:  # a failed query is counted, the run goes on
        error = exc
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        traceback.print_exception(error)
        return latency, False, None
    try:
        ok, answer = workloads.check(q, result, ctx)
    except Exception:
        traceback.print_exc()
        return latency, False, None
    return latency, ok, answer


def reference_answers(workload: str, workdir: Path) -> tuple[list, int]:
    """Answers to the seed-0 reference queries, and how many failed."""
    import workloads

    ctx = workloads.Context(workdir=workdir, check_rng=random.Random(0))
    answers, failed = [], 0
    for q in workloads.first_queries(workload, 0, workloads.REFERENCE_COUNT[workload]):
        _, ok, answer = run_one(q, ctx)
        answers.append(answer)
        failed += not ok
    return answers, failed


def answers_changed(workload: str, answers: list) -> int:
    recorded = json.loads(ANSWERS.read_text()).get(workload)
    if recorded is None or len(recorded) != len(answers):
        return len(answers)
    return sum(a != b for a, b in zip(json.loads(json.dumps(answers)), recorded))


def closed_loop(workload: str, seed: int, seconds: float, ctx) -> tuple[list[float], list[float], int]:
    """Raw and speed-scaled latencies of whole query rounds, and failures."""
    import workloads

    stream = workloads.rounds(workload, seed)
    raw, latencies, failed = [], [], 0
    spent = 0.0
    calibration_s()  # warm-up
    cal = calibration_s()
    wall_deadline = time.perf_counter() + WALL_CAP * seconds
    # Whole rounds only, so every run has the same query mix, until the
    # queries have taken ``seconds`` at the reference speed: how many run
    # then depends on the engine and the seed, not on the host's load.
    while len(latencies) < MIN_QUERIES or (
            spent < seconds and time.perf_counter() < wall_deadline):
        for q in next(stream):
            latency, ok, _ = run_one(q, ctx)
            cal_after = calibration_s()
            raw.append(latency)
            latencies.append(scaled(latency, cal, cal_after))
            spent += latencies[-1]
            cal = cal_after
            failed += not ok
    return raw, latencies, failed


# --- runs --------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[str], int, int]:
    import workloads

    setup, setup_raw = [], []
    with pinned():
        calibration_s()  # warm-up
        cal = calibration_s()
        for _ in range(SETUP_RUNS):
            elapsed = cold_start(workload, workdir, False)[0]
            cal_after = calibration_s()
            setup_raw.append(elapsed)
            setup.append(scaled(elapsed, cal, cal_after))
            cal = cal_after
    ctx = workloads.Context(workdir=workdir, check_rng=random.Random(seed))
    raw, latencies, failed = closed_loop(workload, seed, seconds, ctx)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "query_s_p50": (quantile(latencies, 0.5), "s"),
        "query_s_tail": (tail_s, "s"),
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
    }
    raw_tail_s, _ = tail(raw)
    notes = ["times are seconds at the reference machine speed "
             f"(calibration kernel = {REFERENCE_CAL_S:g} s); raw wall times: "
             f"setup_s {statistics.median(setup_raw):.6g}, "
             f"query_s_p50 {quantile(raw, 0.5):.6g}, query_s_tail {raw_tail_s:.6g}, "
             f"queries_per_s {len(raw) / sum(raw):.6g}",
             f"setup_s is the median of {SETUP_RUNS} cold starts",
             f"query_s_tail is p{tail_pct:.1f} of {len(latencies)} queries, "
             f"{TAIL_BEYOND} samples beyond it"]
    return metrics, notes, len(latencies), failed


def trace(workload: str, seed: int, workdir: Path) -> tuple[dict, list[str], int, int]:
    import workloads
    from tracer import Tracer

    imports = [import_times(cold_start(workload, workdir, True)[1])
               for _ in range(IMPORTTIME_RUNS)]

    def import_s(module: str) -> float:
        return statistics.median(t.get(module, 0.0) for t in imports)

    queries = workloads.first_queries(workload, seed, workloads.TRACED_COUNT[workload])
    tracer = Tracer()
    plain_s = traced_s = 0.0
    failed = 0
    for tr in (None, tracer):
        ctx = workloads.Context(workdir=workdir, check_rng=random.Random(seed))
        for q in queries:
            latency, ok, _ = run_one(q, ctx, tr)
            failed += not ok
            if tr is None:
                plain_s += latency
            else:
                traced_s += latency

    s = tracer.stats

    def count(layer: str, key: str) -> int:
        return s[layer].counts.get(key, 0)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    evals = count("optimize.optimize", "evals")
    ppf_points = count("quantile.binom_ppf", "points")
    metrics = {
        "import.fsqkd_s": (import_s("fsqkd"), "s"),
        "import.scipy_special_s": (import_s("scipy.special"), "s"),
        "import.scipy_optimize_s": (import_s("scipy.optimize"), "s"),
        "query.count": (s["query"].calls, "count"),
        "query.busy_s": (s["query"].busy_s, "s"),
        "cli.main.busy_s": (s["cli.main"].busy_s, "s"),
        "cli.main.self_s": (s["cli.main"].self_s, "s"),
        "config.load.busy_s": (s["config.load"].busy_s, "s"),
        "scenarios.sweep.points": (count("scenarios.sweep", "points"), "count"),
        "scenarios.sweep.self_s": (s["scenarios.sweep"].self_s, "s"),
        "scenarios.max_loss.busy_s": (s["scenarios.max_loss"].busy_s, "s"),
        "scenarios.max_loss.probes": (count("scenarios.max_loss", "probes"), "count"),
        "optimize.optimize.calls": (s["optimize.optimize"].calls, "count"),
        "optimize.optimize.self_s": (s["optimize.optimize"].self_s, "s"),
        "optimize.minimize.self_s": (s["optimize.minimize"].self_s, "s"),
        "optimize.objective_evals": (evals, "count"),
        "optimize.us_per_eval": (per(s["optimize.optimize"].busy_s, evals, 1e6), "us"),
        "optimize.plateau_restart_share": (
            per(count("optimize.optimize", "plateau"),
                count("optimize.optimize", "restarts")), "share"),
        "finitekey.objective.calls": (s["finitekey.objective"].calls, "count"),
        "finitekey.objective.busy_s": (s["finitekey.objective"].busy_s, "s"),
        "finitekey.objective.self_s": (s["finitekey.objective"].self_s, "s"),
        "finitekey.key_length_for_channel.calls": (
            s["finitekey.key_length_for_channel"].calls, "count"),
        "finitekey.key_length_for_channel.self_s": (
            s["finitekey.key_length_for_channel"].self_s, "s"),
        "quantile.binom_ppf.calls": (s["quantile.binom_ppf"].calls, "count"),
        "quantile.binom_ppf.points": (ppf_points, "count"),
        "quantile.binom_ppf.self_s": (s["quantile.binom_ppf"].self_s, "s"),
        "quantile.binom_ppf.us_per_point": (
            per(s["quantile.binom_ppf"].self_s, ppf_points, 1e6), "us"),
        "kernels.counts_core.calls": (s["kernels.counts_core"].calls, "count"),
        "kernels.counts_core.self_s": (s["kernels.counts_core"].self_s, "s"),
        "kernels.bounds_ell_core.calls": (s["kernels.bounds_ell_core"].calls, "count"),
        "kernels.bounds_ell_core.self_s": (s["kernels.bounds_ell_core"].self_s, "s"),
        "kernels.grid_min_core.busy_s": (s["kernels.grid_min_core"].busy_s, "s"),
        "kernels.grid_counts_core.busy_s": (s["kernels.grid_counts_core"].busy_s, "s"),
        "channel.expected_block_counts.calls": (
            s["channel.expected_block_counts"].calls, "count"),
        "channel.expected_block_counts.self_s": (
            s["channel.expected_block_counts"].self_s, "s"),
        "uncertainty.worst_case.self_s": (s["uncertainty.worst_case"].self_s, "s"),
        "uncertainty.grid_points": (count("uncertainty.worst_case", "grid_points"), "count"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.absent": (len(tracer.absent), "count"),
    }
    spans_path = workdir.parent / f"trace-{workload}-{seed}.json"
    spans_path.write_text(json.dumps({
        "spans": tracer.spans,
        "layers": {name: {"calls": st.calls, "busy_s": st.busy_s,
                          "self_s": st.self_s, "counts": st.counts}
                   for name, st in s.items()}}))
    notes = [f"{len(queries)} queries traced; times are totals over them",
             f"absent layers: {', '.join(tracer.absent) or 'none'}",
             f"spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, notes, 2 * len(queries), failed


def record_answers() -> int:
    import workloads

    digest = {}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in workloads.WORKLOADS:
            answers, failed = reference_answers(name, Path(tmp))
            if failed:
                print(f"qkdbench: {failed} reference checks failed on {name}", file=sys.stderr)
                return 1
            digest[name] = answers
    ANSWERS.write_text(json.dumps(digest, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-answers", action="store_true",
                        help="rewrite answers.json from the current engine and exit")
    args = parser.parse_args(argv)

    if not (SRC / "fsqkd" / "__init__.py").is_file():
        print(f"qkdbench: no engine source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fsqkd
    if Path(fsqkd.__file__).resolve().parent != (SRC / "fsqkd").resolve():
        print(f"qkdbench: fsqkd imported from {fsqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    if args.record_answers:
        return record_answers()
    if args.workload not in workloads.WORKLOADS:
        print(f"qkdbench: --workload must be one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        ref_answers, ref_failed = reference_answers(args.workload, workdir)
        changed = answers_changed(args.workload, ref_answers)
        if args.trace:
            metrics, notes, attempted, failed = trace(args.workload, args.seed, workdir)
            metrics["answers_changed"] = (changed, "count")
        else:
            metrics, notes, attempted, failed = measure(
                args.workload, args.seed, args.seconds, workdir)
    attempted += len(ref_answers)
    failed += ref_failed

    print(f"qkdbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {unit}")
    print(f"  {'failed_share':42s} {failed / attempted:>14.6g} share "
          f"({failed} of {attempted} queries)")
    print(f"  # answers_changed: {changed} of {len(ref_answers)} seed-0 reference answers")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
