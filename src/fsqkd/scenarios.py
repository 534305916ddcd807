"""Batch analyses over environmental conditions.

Key-length sweeps over loss / background / misalignment / time grids,
bisection loss budgets, key-rate-versus-integration-time curves, and the
basis-bias sifting equivalence identity.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import _kernels as k
from .channel import (ChannelConditions, ParameterError, ProtocolParams, check_integer,
                      check_range)
from .finitekey import (KeyLengthResult, SecurityParams, _count_leakage, _record,
                        key_length_for_channel)
from .optimize import OptimizationSpec, OptimizationResult, optimize


def _check_one_policy(params: ProtocolParams | None,
                      opt_spec: OptimizationSpec | None) -> None:
    """Fixed parameters or per-point optimization: exactly one is given."""
    if (params is None) == (opt_spec is None):
        raise ParameterError("exactly one of params / opt_spec must be set")


@dataclass(frozen=True)
class SweepSpec:
    """Axis grid plus the parameter policy for each grid point.

    Exactly one of ``params`` (fixed protocol parameters) or ``opt_spec``
    (re-optimize at every point) must be given.  Rows are produced in
    row-major order over (eta_loss_db, log10_pec, qber_i, tau_s).
    """

    eta_loss_db: tuple[float, ...]
    log10_pec: tuple[float, ...]
    qber_i: tuple[float, ...]
    tau_s: tuple[float, ...]
    params: ProtocolParams | None = None
    opt_spec: OptimizationSpec | None = None

    def __post_init__(self) -> None:
        for name in ("eta_loss_db", "log10_pec", "qber_i", "tau_s"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) == 0:
                raise ParameterError(f"sweep axis {name} is empty")
            if any(not math.isfinite(v) for v in vals):
                raise ParameterError(f"sweep axis {name} has non-finite entries")
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise ParameterError(f"sweep axis {name} must be non-decreasing")
            object.__setattr__(self, name, vals)
        for lp in self.log10_pec:
            # p_ec is below 1: bound lp first, since 10**lp overflows above ~308
            if lp > 0.0:
                raise ParameterError(f"sweep axis log10_pec gives p_ec = 10**{lp}, above 1")
            check_range("p_ec", 10.0 ** lp)
        _check_one_policy(self.params, self.opt_spec)
        # each point's channel values, under the names ChannelConditions uses
        for name, axis, domain in (("eta_loss_db", self.eta_loss_db, None),
                                   ("qber_i", self.qber_i, None),
                                   ("integration_time_s", self.tau_s, "non-negative")):
            for v in axis:
                check_range(name, v, domain)

    @property
    def grid(self) -> list[tuple[float, float, float, float]]:
        return [(eta, lp, q, tau)
                for eta in self.eta_loss_db
                for lp in self.log10_pec
                for q in self.qber_i
                for tau in self.tau_s]


@dataclass(frozen=True)
class SweepRow:
    eta_loss_db: float
    log10_pec: float
    qber_i: float
    tau_s: float
    params: ProtocolParams
    result: KeyLengthResult


@dataclass(frozen=True)
class LossBudgetQuery:
    """Largest tolerable loss for a required key length.

    ``target_bits = 0`` asks for any positive key.  ``conditions`` carries
    every channel field except the loss, which is searched over
    ``[eta_min_db, eta_max_db]`` down to ``resolution_db``.
    """

    conditions: ChannelConditions
    target_bits: int = 0
    eta_min_db: float = 0.0
    eta_max_db: float = 60.0
    resolution_db: float = 0.1
    params: ProtocolParams | None = None
    opt_spec: OptimizationSpec | None = None

    def __post_init__(self) -> None:
        check_integer("target_bits", self.target_bits, "non-negative integer")
        check_range("eta_min_db", self.eta_min_db, "eta_loss_db")
        check_range("eta_max_db", self.eta_max_db, "eta_loss_db")
        if not self.eta_max_db > self.eta_min_db:
            raise ParameterError("eta_max_db must exceed eta_min_db")
        check_range("resolution_db", self.resolution_db, "positive")
        # below the float spacing of the bracket, bisection stops shrinking it
        if not self.resolution_db >= math.ulp(self.eta_max_db):
            raise ParameterError(
                f"resolution_db must be at least the float spacing at eta_max_db, "
                f"{math.ulp(self.eta_max_db):g}, got {self.resolution_db}")
        _check_one_policy(self.params, self.opt_spec)


@dataclass(frozen=True)
class LossBudgetResult:
    max_eta_db: float | None
    target_bits: int
    probes: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class SiftingEquivalence:
    """Symmetric basis bias reproducing a given asymmetric sifting ratio."""

    p_x: float
    k_ratio: float
    f_asymmetric: float
    f_symmetric: float


def _evaluate_point(channel: ChannelConditions, sec: SecurityParams,
                    params: ProtocolParams | None,
                    opt_spec: OptimizationSpec | None) -> tuple[ProtocolParams, KeyLengthResult]:
    if params is not None:
        return params, key_length_for_channel(params, channel, sec)
    res: OptimizationResult = optimize(opt_spec, channel, sec)
    return res.best_params, res.result


def _evaluate_grid(axes, base: ChannelConditions, sec: SecurityParams,
                   params: ProtocolParams | None, opt_spec: OptimizationSpec | None
                   ) -> list[tuple[ProtocolParams, KeyLengthResult]]:
    """``_evaluate_point`` on the row-major grid over ``axes`` of loss (dB), p_ec,
    qber_i and window (s), ``base`` giving the rest.  Fixed ``params`` run as one
    batch: scalar counts and leakage per point, then one ``bounds_ell_array``.
    Every window's pulse count is checked before any point is evaluated."""
    for tau in axes[3]:
        check_range("f_s * integration_time_s", base.f_s * tau, "non-negative")
    if params is None:
        return [_evaluate_point(replace(base, eta_loss_db=eta, p_ec=p_ec, qber_i=q,
                                        integration_time_s=tau), sec, None, opt_spec)
                for eta, p_ec, q, tau in itertools.product(*axes)]
    # H, V, D and A all send (mu1, mu2); the transmittance is taken once per loss
    fixed = (params.pax, params.pbx, *params.mu[:2] * 4, params.mu[2], *params.p_mu)
    points = itertools.product(map(k.db_to_transmittance, axes[0]), *axes[1:])
    counts = [k.counts_core(*fixed, t, p_ec, q, base.p_ap, base.f_s * tau)
              for t, p_ec, q, tau in points]
    leak = [_count_leakage(c, sec) for c in counts]
    cols = np.array(counts).reshape(-1, 12).T  # (12, 0) for no points
    out = k.bounds_ell_array(cols[0:3], cols[3:6], cols[6:9], cols[9:12], params.mu,
                             params.p_mu, sec.beta, sec.eps, sec.pa_bits,
                             np.array([lam for lam, _ in leak]))
    kernel_tuples = zip(*(field.tolist() for field in out))
    return [(params, _record(r, f_inv)) for r, (_, f_inv) in zip(kernel_tuples, leak)]


def sweep(spec: SweepSpec, base: ChannelConditions, sec: SecurityParams) -> list[SweepRow]:
    """Evaluate (and optionally re-optimize) the key length on the grid.

    Rows are returned in grid order; fixed parameters run as one batch.
    """
    axes = (spec.eta_loss_db, [10.0 ** lp for lp in spec.log10_pec], spec.qber_i, spec.tau_s)
    return [SweepRow(*point, *evaluated) for point, evaluated in
            zip(spec.grid, _evaluate_grid(axes, base, sec, spec.params, spec.opt_spec))]


def max_loss(query: LossBudgetQuery, sec: SecurityParams) -> LossBudgetResult:
    """Largest loss meeting the key-length target, by bisection.

    The achieved-key predicate is checked at both bracket ends first.  The
    answer is the largest probed loss that met the target; no loss is
    probed twice.
    """
    target = max(query.target_bits, 1)
    probes: list[tuple[float, int]] = []

    def ell_at(eta: float) -> int:
        cond = replace(query.conditions, eta_loss_db=eta)
        _, result = _evaluate_point(cond, sec, query.params, query.opt_spec)
        probes.append((eta, result.ell))
        return result.ell

    lo, hi = query.eta_min_db, query.eta_max_db
    ell_lo = ell_at(lo)
    if ell_lo < target:
        return LossBudgetResult(None, query.target_bits, tuple(probes))
    ell_hi = ell_at(hi)
    if ell_hi >= target:
        # budget extends beyond the bracket; report the bracket end
        return LossBudgetResult(hi, query.target_bits, tuple(probes))

    while hi - lo > query.resolution_db:
        mid = 0.5 * (lo + hi)
        if ell_at(mid) >= target:
            lo = mid
        else:
            hi = mid
    return LossBudgetResult(lo, query.target_bits, tuple(probes))


def skr_vs_time(times_s: Sequence[float], base: ChannelConditions,
                sec: SecurityParams,
                params: ProtocolParams | None = None,
                opt_spec: OptimizationSpec | None = None
                ) -> list[tuple[float, float, int]]:
    """Secret key rate in bits per minute against the integration time.

    Returns (tau_s, skr_bits_per_minute, ell) tuples in input order.
    """
    times = [float(t) for t in times_s]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ParameterError("times must be sorted ascending")
    _check_one_policy(params, opt_spec)
    for tau in times:
        check_range("integration_time_s", tau, "non-negative")
    axes = ((base.eta_loss_db,), (base.p_ec,), (base.qber_i,), times)
    return [(tau, r.ell * 60.0 / tau if tau > 0.0 else 0.0, r.ell)
            for tau, (_, r) in zip(times, _evaluate_grid(axes, base, sec, params, opt_spec))]


def sifting_equivalence(pax: float, pbx: float) -> SiftingEquivalence:
    """Symmetric bias with the same X:Z sifted ratio as an asymmetric pair.

    For any (pax, pbx) the symmetric choice ``p_x`` preserves the ratio
    ``k_ratio`` of X to Z sifted bits while retaining at least as large a
    total sifted fraction (``f_symmetric >= f_asymmetric``).
    """
    check_range("pax", pax, "basis probability")
    check_range("pbx", pbx, "basis probability")
    k_ratio = (pax * pbx) / ((1.0 - pax) * (1.0 - pbx))
    f_asym = pax * pbx + (1.0 - pax) * (1.0 - pbx)
    sqrt_k = math.sqrt(k_ratio)
    p_x = sqrt_k / (1.0 + sqrt_k)
    f_sym = (1.0 + k_ratio) / (1.0 + sqrt_k) ** 2
    return SiftingEquivalence(p_x=p_x, k_ratio=k_ratio,
                              f_asymmetric=f_asym, f_symmetric=f_sym)
