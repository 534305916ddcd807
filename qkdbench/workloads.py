"""Seeded design-query workloads and their answer checks.

Each workload is an endless, deterministic stream of query rounds drawn
from ``random.Random(f"{workload}/{seed}")``, so the same seed gives the
same inputs.  The engine only ever sees the generated channel and protocol
points.  Every query has a check that holds whatever the model says (an
optimum re-evaluates to itself, a budget's reported loss meets its target,
a worst case never beats the nominal point, a CSV row equals a direct
evaluation), and a short answer used for the digest in ``answers.json``.

Engine entry points are looked up on the package at call time, so a
tracer that replaces module attributes sees every call.
"""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import fsqkd
import fsqkd.cli

WORKLOADS = ("design_opt", "worstcase_grid", "surface_cli")

REGIMES = ("full", "fixed_pbx", "fixed_pbx_and_mu")
# Optimize queries per regime and window in a design_opt round.  The cheap
# fixed_pbx_and_mu searches are the majority, so the median query falls
# inside their dense cluster rather than in the gap between it and the
# costlier searches, and stays steady from seed to seed.
REGIME_WEIGHT = {"full": 1, "fixed_pbx": 1, "fixed_pbx_and_mu": 4}
TAUS_S = (60.0, 1800.0)
WORSTCASE_F = (0.1, 0.05, 0.0)
SWEEP_SHAPE = (8, 4, 4, 4)  # eta, log10_pec, qber_i, tau points: 512 per query
BUDGET_BRACKET_DB = (10.0, 50.0, 0.5)  # eta_min, eta_max, resolution: 10 probes
SWEEP_ROWS_CHECKED = 4
SWEEP_P_AP, SWEEP_F_S = 0.001, 1e8

# Loss (dB) at which the FULL-regime optimum reaches zero key, at
# qber_i = 0.01, tabulated against log10(p_ec) for each window.  Measured
# once with ``max_loss`` at 0.5 dB resolution; it only places some points
# near the key cliff, where the optimizer's restarts stall most.
_CLIFF_DB = {
    60.0: ((-7.0, 31.2), (-6.0, 30.9), (-5.0, 30.0), (-4.0, 24.1)),
    1800.0: ((-7.0, 45.3), (-6.0, 43.4), (-5.0, 34.7), (-4.0, 25.6)),
}

SEC = fsqkd.SecurityParams()


@dataclass(frozen=True)
class Query:
    """One design question; ``kind`` selects the engine entry point."""

    kind: str  # "optimize", "budget", "worstcase" or "sweep"
    channel: fsqkd.ChannelConditions | None = None
    spec: fsqkd.OptimizationSpec | None = None
    params: fsqkd.ProtocolParams | None = None
    f: float = 0.0
    group: int = 0  # worst-case queries sharing a nominal point
    axes: tuple = ()


@dataclass
class Context:
    """Per-run state: the scratch directory and cross-query check state."""

    workdir: Path
    check_rng: random.Random
    worst_by_group: dict = field(default_factory=dict)


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _cliff_db(log10_pec: float, tau: float) -> float:
    table = _CLIFF_DB[tau]
    for (x0, y0), (x1, y1) in zip(table, table[1:]):
        if log10_pec <= x1:
            return y0 + (y1 - y0) * (log10_pec - x0) / (x1 - x0)
    return table[-1][1]


def _protocol(rng: random.Random) -> fsqkd.ProtocolParams:
    pax = rng.uniform(0.55, 0.9)
    p1 = rng.uniform(0.55, 0.85)
    p2 = (1.0 - p1) * rng.uniform(0.5, 0.85)
    return fsqkd.ProtocolParams(
        pax=pax, pbx=pax, mu=(rng.uniform(0.4, 0.7), rng.uniform(0.1, 0.25), 1e-9),
        p_mu=(p1, p2, 1.0 - p1 - p2))


def _opt_spec(u: list[float], regime: str) -> fsqkd.OptimizationSpec:
    """Spec of a regime; ``u`` holds three coordinates in [0, 1)."""
    if regime == "full":
        return fsqkd.OptimizationSpec(regime=regime)
    pbx = 0.5 + 0.4 * u[0]
    if regime == "fixed_pbx":
        return fsqkd.OptimizationSpec(regime=regime, pbx=pbx)
    mu = (0.4 + 0.3 * u[1], 0.1 + 0.15 * u[2], 1e-9)
    return fsqkd.OptimizationSpec(regime=regime, pbx=pbx, mu=mu)


def _kronecker(rng: random.Random, dims: int) -> Iterator[list[float]]:
    """Randomly shifted R_d low-discrepancy sequence in [0, 1)^dims.

    Any run of consecutive points covers the unit cube far more evenly
    than independent draws, so the query mix, and with it the median
    latency, varies little from seed to seed.
    """
    phi = 2.0
    for _ in range(32):  # phi^(dims+1) = phi + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(d + 1) for d in range(dims)]
    point = [rng.random() for _ in range(dims)]
    while True:
        yield point
        point = [(x + a) % 1.0 for x, a in zip(point, alpha)]


def _design_opt(rng: random.Random) -> Iterator[list[Query]]:
    # A round holds optimize queries for every regime and window, then one
    # FULL budget; budget windows alternate between rounds.  Each query
    # slot follows its own low-discrepancy sequence over every input it
    # draws (loss, p_ec, qber_i and the fixed parameters of its regime),
    # and one slot per round, in turn, sits within 1.5 dB of the key cliff
    # instead.
    cells = [(r, t) for r in REGIMES for _ in range(REGIME_WEIGHT[r]) for t in TAUS_S]
    sequences = [_kronecker(rng, 6) for _ in cells]
    budget_seq = _kronecker(rng, 2)
    for n in itertools.count():
        queries = []
        for i, ((regime, tau), seq) in enumerate(zip(cells, sequences)):
            u_loss, u_pec, u_qber, *u_spec = next(seq)
            lp = -7.0 + 3.0 * u_pec
            loss = 10.0 + 40.0 * u_loss
            if i == n % len(cells):
                loss = _cliff_db(lp, tau) + rng.uniform(-1.5, 1.5)
            channel = fsqkd.ChannelConditions(
                eta_loss_db=loss, p_ec=10.0 ** lp,
                qber_i=0.005 + 0.015 * u_qber, integration_time_s=tau)
            queries.append(Query("optimize", channel=channel, spec=_opt_spec(u_spec, regime)))
        u_pec, u_qber = next(budget_seq)
        channel = fsqkd.ChannelConditions(
            eta_loss_db=0.0, p_ec=10.0 ** (-7.0 + 3.0 * u_pec),
            qber_i=0.005 + 0.015 * u_qber,
            integration_time_s=TAUS_S[n % len(TAUS_S)])
        queries.append(Query("budget", channel=channel, spec=fsqkd.OptimizationSpec()))
        yield queries


def _worstcase_grid(rng: random.Random) -> Iterator[list[Query]]:
    # A round is one nominal point at every f, largest f first, so each
    # later answer at the same point may only stay equal or grow.
    for group in itertools.count():
        channel = fsqkd.ChannelConditions(
            eta_loss_db=rng.uniform(15.0, 35.0), p_ec=_log_uniform(rng, -7.0, -5.0),
            qber_i=rng.uniform(0.005, 0.02), integration_time_s=TAUS_S[group % len(TAUS_S)])
        params = _protocol(rng)
        yield [Query("worstcase", channel=channel, params=params, f=f, group=group)
               for f in WORSTCASE_F]


def _surface_cli(rng: random.Random) -> Iterator[list[Query]]:
    n_eta, n_pec, n_q, n_tau = SWEEP_SHAPE
    while True:
        axes = (sorted(rng.uniform(10.0, 40.0) for _ in range(n_eta)),
                sorted(rng.uniform(-7.0, -4.0) for _ in range(n_pec)),
                sorted(rng.uniform(0.005, 0.02) for _ in range(n_q)),
                sorted(_log_uniform(rng, 1.0, 3.6) for _ in range(n_tau)))
        yield [Query("sweep", params=_protocol(rng),
                     axes=tuple(tuple(a) for a in axes))]


_STREAMS = {"design_opt": _design_opt, "worstcase_grid": _worstcase_grid,
            "surface_cli": _surface_cli}

# Queries of seed 0 whose answers are pinned in answers.json.
REFERENCE_COUNT = {"design_opt": 13, "worstcase_grid": 1, "surface_cli": 1}

# Fixed query sets of a traced run, so that its counts repeat exactly.
TRACED_COUNT = {"design_opt": 13, "worstcase_grid": 3, "surface_cli": 10}


def rounds(workload: str, seed: int) -> Iterator[list[Query]]:
    """Endless deterministic stream of query rounds of a workload."""
    return _STREAMS[workload](random.Random(f"{workload}/{seed}"))


def first_queries(workload: str, seed: int, count: int) -> list[Query]:
    queries = itertools.chain.from_iterable(rounds(workload, seed))
    return list(itertools.islice(queries, count))


# --- execution ---------------------------------------------------------

def _sweep_config(q: Query) -> str:
    p = q.params
    lines = ["channel.p_ec = 1e-6", "channel.qber_i = 0.01",
             "channel.integration_time_s = 60",
             f"channel.p_ap = {SWEEP_P_AP!r}", f"channel.f_s = {SWEEP_F_S!r}",
             f"protocol.pax = {p.pax!r}", f"protocol.pbx = {p.pbx!r}",
             f"protocol.mu1 = {p.mu[0]!r}", f"protocol.mu2 = {p.mu[1]!r}",
             f"protocol.mu3 = {p.mu[2]!r}", f"protocol.p_mu1 = {p.p_mu[0]!r}",
             f"protocol.p_mu2 = {p.p_mu[1]!r}", f"protocol.p_mu3 = {p.p_mu[2]!r}"]
    for name, axis in zip(("eta_loss_db", "log10_pec", "qber_i", "tau_s"), q.axes):
        lines.append(f"sweep.{name} = " + ", ".join(repr(v) for v in axis))
    return "\n".join(lines) + "\n"


def prepare(q: Query, ctx: Context) -> list[str] | None:
    """Client-side work before a query is sent (untimed): CLI arguments."""
    if q.kind != "sweep":
        return None
    cfg, out = ctx.workdir / "sweep.cfg", ctx.workdir / "sweep.csv"
    cfg.write_text(_sweep_config(q))
    out.unlink(missing_ok=True)
    return ["sweep", "--config", str(cfg), "--format", "csv", "--out", str(out)]


def execute(q: Query, argv: list[str] | None) -> Any:
    """Send one query to the engine and return its raw result."""
    if q.kind == "optimize":
        return fsqkd.optimize(q.spec, q.channel, SEC)
    if q.kind == "budget":
        lo, hi, res = BUDGET_BRACKET_DB
        query = fsqkd.LossBudgetQuery(conditions=q.channel, eta_min_db=lo,
                                      eta_max_db=hi, resolution_db=res,
                                      opt_spec=q.spec)
        return fsqkd.max_loss(query, SEC)
    if q.kind == "worstcase":
        model = fsqkd.IntensityUncertaintyModel(f=q.f, nominal=q.params)
        return fsqkd.worst_case_key_length(model, q.channel, SEC)
    return fsqkd.cli.main(argv)


def _key_length(params, channel):
    return fsqkd.key_length_for_channel(params, channel, SEC,
                                        with_diagnostics=False)


def _check_sweep(q: Query, csv_text: str, ctx: Context) -> bool:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    n_points = 1
    for axis in q.axes:
        n_points *= len(axis)
    if len(rows) != n_points:
        return False
    for row in ctx.check_rng.sample(rows, SWEEP_ROWS_CHECKED):
        lp = float(row["log10_pec"])
        channel = fsqkd.ChannelConditions(
            eta_loss_db=float(row["eta_loss_db"]), p_ec=10.0 ** lp,
            qber_i=float(row["qber_i"]), integration_time_s=float(row["tau_s"]),
            p_ap=SWEEP_P_AP, f_s=SWEEP_F_S)
        r = _key_length(q.params, channel)
        if (int(row["ell"]), float(row["s_x0"]), float(row["s_x1"]),
                float(row["phi_x"]), float(row["lambda_ec"])) != (
                r.ell, r.s_x0, r.s_x1, r.phi_x, r.lambda_ec):
            return False
    return True


def check(q: Query, result: Any, ctx: Context) -> tuple[bool, Any]:
    """Model-independent answer check; returns (ok, answer for the digest)."""
    if q.kind == "optimize":
        ok = result.best_ell == _key_length(result.best_params, q.channel).ell
        return ok, result.best_ell
    if q.kind == "budget":
        target = max(result.target_bits, 1)
        if result.max_eta_db is None:
            ok = result.probes[0][1] < target
        else:
            ok = any(eta == result.max_eta_db and ell >= target
                     for eta, ell in result.probes)
        return ok, result.max_eta_db
    if q.kind == "worstcase":
        # the group's earlier queries had a larger f, so a smaller or equal key
        larger_f_ell = ctx.worst_by_group.get(q.group, 0)
        ok = (result.evaluations == 3 ** 10
              and larger_f_ell <= result.min_ell <= result.nominal_ell)
        ctx.worst_by_group[q.group] = result.min_ell
        return ok, [result.min_ell, result.argmin_index, result.nominal_ell]
    data = (ctx.workdir / "sweep.csv").read_bytes()
    ok = result == 0 and _check_sweep(q, data.decode(), ctx)
    return ok, hashlib.sha256(data).hexdigest()
