"""Batch analyses over environmental conditions.

Key-length sweeps over loss / background / misalignment / time grids,
bisection loss budgets, key-rate-versus-integration-time curves, and the
basis-bias sifting equivalence identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .channel import ChannelConditions, ParameterError, ProtocolParams, check_range
from .finitekey import KeyLengthResult, SecurityParams, key_length_for_channel
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
        check_range("target_bits", self.target_bits, "non-negative")
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
    monotone_bracket: bool


@dataclass(frozen=True)
class SiftingEquivalence:
    """Symmetric basis bias reproducing a given asymmetric sifting ratio."""

    p_x: float
    k_ratio: float
    f_asymmetric: float
    f_symmetric: float


def _evaluate_point(channel: ChannelConditions, sec: SecurityParams,
                    params: ProtocolParams | None,
                    opt_spec: OptimizationSpec | None,
                    ec_method: str, f_ec: float) -> tuple[ProtocolParams, KeyLengthResult]:
    if params is not None:
        return params, key_length_for_channel(params, channel, sec,
                                              ec_method=ec_method, f_ec=f_ec)
    res: OptimizationResult = optimize(opt_spec, channel, sec,
                                       ec_method=ec_method, f_ec=f_ec)
    return res.best_params, res.result


def sweep(spec: SweepSpec, base: ChannelConditions, sec: SecurityParams,
          ec_method: str = "binomial", f_ec: float = 1.16) -> list[SweepRow]:
    """Evaluate (and optionally re-optimize) the key length on the grid.

    Rows are returned in grid order.
    """
    rows = []
    for eta, lp, q, tau in spec.grid:
        cond = replace(base, eta_loss_db=eta, p_ec=10.0 ** lp, qber_i=q,
                       integration_time_s=tau)
        params, result = _evaluate_point(cond, sec, spec.params,
                                         spec.opt_spec, ec_method, f_ec)
        rows.append(SweepRow(eta, lp, q, tau, params, result))
    return rows


def max_loss(query: LossBudgetQuery, sec: SecurityParams,
             ec_method: str = "binomial", f_ec: float = 1.16) -> LossBudgetResult:
    """Largest loss meeting the key-length target, by bisection.

    The achieved-key predicate is validated at both bracket ends; if the
    bracket does not straddle the boundary monotonically the search falls
    back to a linear scan at the requested resolution.
    """
    target = max(query.target_bits, 1)
    probes: list[tuple[float, int]] = []

    def ell_at(eta: float) -> int:
        cond = replace(query.conditions, eta_loss_db=eta)
        _, result = _evaluate_point(cond, sec, query.params, query.opt_spec,
                                    ec_method, f_ec)
        probes.append((eta, result.ell))
        return result.ell

    lo, hi = query.eta_min_db, query.eta_max_db
    ell_lo = ell_at(lo)
    if ell_lo < target:
        return LossBudgetResult(None, query.target_bits, tuple(probes), True)
    ell_hi = ell_at(hi)
    if ell_hi >= target:
        # budget extends beyond the bracket; report the bracket end
        return LossBudgetResult(hi, query.target_bits, tuple(probes), True)

    while hi - lo > query.resolution_db:
        mid = 0.5 * (lo + hi)
        if ell_at(mid) >= target:
            lo = mid
        else:
            hi = mid

    # spot-check consistency of the bisection result; optimized key curves
    # can in principle be non-monotone through optimizer noise
    monotone = True
    if ell_at(lo) < target:
        monotone = False
        eta = query.eta_min_db
        best = None
        while eta <= query.eta_max_db + 1e-12:
            if ell_at(eta) >= target:
                best = eta
            eta += query.resolution_db
        return LossBudgetResult(best, query.target_bits, tuple(probes), monotone)
    return LossBudgetResult(lo, query.target_bits, tuple(probes), monotone)


def skr_vs_time(times_s: Sequence[float], base: ChannelConditions,
                sec: SecurityParams,
                params: ProtocolParams | None = None,
                opt_spec: OptimizationSpec | None = None,
                ec_method: str = "binomial", f_ec: float = 1.16
                ) -> list[tuple[float, float, int]]:
    """Secret key rate in bits per minute against the integration time.

    Returns (tau_s, skr_bits_per_minute, ell) tuples in input order.
    """
    times = [float(t) for t in times_s]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ParameterError("times must be sorted ascending")
    _check_one_policy(params, opt_spec)
    out = []
    for tau in times:
        cond = replace(base, integration_time_s=tau)
        _, result = _evaluate_point(cond, sec, params, opt_spec, ec_method, f_ec)
        skr = result.ell * 60.0 / tau if tau > 0.0 else 0.0
        out.append((tau, skr, result.ell))
    return out


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
