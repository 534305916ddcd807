"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest -q qkdbench``.
"""
import contextlib
import io
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import fsqkd  # noqa: E402
import fsqkd.finitekey  # noqa: E402
import fsqkd.optimize  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.first_queries(workload, 7, 8)
    assert a == workloads.first_queries(workload, 7, 8)
    assert a != workloads.first_queries(workload, 8, 8)


def _traced(queries, tmp_path):
    tracer = Tracer()
    ctx = workloads.Context(workdir=tmp_path, check_rng=random.Random(0))
    for q in queries:
        latency, ok, _ = run.run_one(q, ctx, tracer)
        assert ok and latency > 0.0
    return tracer


def _check_nesting(tracer):
    spans = tracer.spans
    assert spans and all(s is not None for s in spans)
    for span_id, parent, _name, t0, t1 in spans:
        assert t0 <= t1
        if parent is None:
            continue
        assert parent < span_id
        _, _, _, p0, p1 = spans[parent]
        assert p0 <= t0 and t1 <= p1
    for name, stat in tracer.stats.items():
        assert stat.depth == 0
        assert 0.0 <= stat.self_s <= stat.busy_s + 1e-9, name


def test_spans_nest_and_self_within_busy(tmp_path):
    queries = (workloads.first_queries("design_opt", 1, 1)
               + workloads.first_queries("surface_cli", 1, 1))
    tracer = _traced(queries, tmp_path)
    _check_nesting(tracer)
    s = tracer.stats
    assert s["query"].calls == 2
    assert s["optimize.optimize"].calls == 1
    assert s["optimize.minimize"].calls == queries[0].spec.restarts
    assert s["finitekey.objective"].calls == s["optimize.optimize"].counts["evals"]
    assert s["cli.main"].calls == s["config.load"].calls == 1
    assert s["scenarios.sweep"].counts["points"] == 512
    assert s["quantile.binom_ppf"].calls > 0
    names = {span[2] for span in tracer.spans}
    assert {"query", "optimize.optimize", "optimize.minimize", "cli.main",
            "config.load", "scenarios.sweep"} <= names


def test_small_grid_kernels_traced(tmp_path):
    params = fsqkd.ProtocolParams(pax=0.7, pbx=0.7, mu=(0.5, 0.15, 1e-9),
                                  p_mu=(0.7, 0.2, 0.1))
    channel = fsqkd.ChannelConditions(eta_loss_db=25.0, p_ec=1e-6, qber_i=0.01,
                                      integration_time_s=60.0)
    model = fsqkd.IntensityUncertaintyModel(f=0.05, nominal=params,
                                            grid_points_per_dim=2)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.query(fsqkd.worst_case_key_length, model, channel, workloads.SEC)
    finally:
        tracer.uninstall()
    _check_nesting(tracer)
    s = tracer.stats
    assert s["uncertainty.worst_case"].counts["grid_points"] == 2 ** 10
    assert s["kernels.grid_min_core"].calls == 1
    # the grid kernels reach the per-point kernels through module globals
    assert s["kernels.bounds_ell_core"].calls == 2 ** 10 + 1
    assert s["kernels.grid_min_core"].busy_s >= s["kernels.counts_core"].busy_s


def test_absent_names_tolerated_and_originals_restored():
    # the package attribute ``optimize`` is the function, not the module
    opt_module = sys.modules["fsqkd.optimize"]
    modules = (fsqkd, opt_module, fsqkd.finitekey)
    before = {mod: dict(vars(mod)) for mod in modules}
    targets = TARGETS + (
        ("gone.module", "fsqkd.no_such_module", "f", True, None),
        ("gone.attr", "fsqkd.uncertainty", "no_such_function", False, None),
        ("gone.method", "fsqkd.config", "RunConfig.no_such_method", False, None),
    )
    tracer = Tracer(targets)
    tracer.install()
    try:
        assert tracer.absent == ["gone.module", "gone.attr", "gone.method"]
        assert opt_module.optimize is not before[opt_module]["optimize"]
        assert fsqkd.optimize is opt_module.optimize
    finally:
        tracer.uninstall()
    for mod in modules:
        assert {k: v for k, v in vars(mod).items() if k in before[mod]} == before[mod]


def test_quantiles():
    xs = [float(i) for i in range(100)]
    assert run.quantile([2.5] * 15, 0.5) == pytest.approx(2.5)
    assert run.quantile(xs, 0.5) == pytest.approx(49.5)
    value, pct = run.tail(xs)
    assert pct == pytest.approx(100.0 * 90 / 101)
    assert 88.5 < value < 90.0  # about the 90th order statistic, 10 beyond it


def test_speed_scaling():
    ref = run.REFERENCE_CAL_S
    # a kernel twice as slow as the reference halves the scaled time
    assert run.scaled(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert run.scaled(4.0, ref, 4 * ref) == pytest.approx(2.0)
    assert run.scaled(4.0, ref, ref) == pytest.approx(4.0)
    assert run.calibration_s() > 0.0


def test_import_times_parse():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        340 |   scipy.special\n"
            "import time:        80 |     500000 | fsqkd\n")
    assert run.import_times(text) == {"scipy.special": 340e-6, "fsqkd": 0.5}


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_every_declared_metric(trace, section):
    result = _result(["--workload", "surface_cli", "--seed", "3",
                      "--seconds", "0.5", "--trace", str(trace)])
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
