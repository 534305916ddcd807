"""Batch analyses over environmental conditions.

Key-length sweeps over loss / background / misalignment / time grids,
bisection loss budgets, key-rate-versus-integration-time curves, and the
basis-bias sifting equivalence identity.
"""
from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import _kernels as k
from .channel import (ChannelConditions, ParameterError, ProtocolParams, check_integer,
                      check_range)
from .finitekey import (_REASONS, KeyLengthResult, SecurityParams, _count_leakage_array,
                        key_length_for_channel)
from .optimize import OptimizationSpec, optimize


def _check_one_policy(params: ProtocolParams | None,
                      opt_spec: OptimizationSpec | None) -> None:
    """Fixed parameters or per-point optimization: exactly one is given."""
    if (params is None) == (opt_spec is None):
        raise ParameterError("exactly one of params / opt_spec must be set")


def _check_axis(values: Sequence[float], field: str | None, domain: str | None = None,
                sweep_axis: str | None = None) -> tuple[float, ...]:
    """``values``, a sequence of real numbers (text is refused), as floats,
    non-decreasing and each in the domain of the channel field ``field``
    (none for ``log10_pec``).  A sweep axis, named by ``sweep_axis``, must
    also be non-empty and finite; ``skr_vs_time``'s times may be empty, and
    their domain rejects a non-finite one."""
    label = "times" if sweep_axis is None else f"sweep axis {sweep_axis}"
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ParameterError(f"{label} must be a sequence of numbers, got {values!r}")
    vals = tuple(values)
    for v in vals:
        if not isinstance(v, numbers.Real):
            raise ParameterError(f"{label} must be a sequence of numbers, got {v!r}")
    vals = tuple(map(float, vals))
    if sweep_axis is not None and not vals:
        raise ParameterError(f"{label} is empty")
    if sweep_axis is not None and not all(map(math.isfinite, vals)):
        raise ParameterError(f"{label} has non-finite entries")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise ParameterError(f"{label} must be non-decreasing")
    for v in vals if field else ():
        check_range(field, v, domain)
    return vals


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
        # each point's channel values, under the names ChannelConditions uses
        for name, field, domain in (("eta_loss_db", "eta_loss_db", None),
                                    ("log10_pec", None, None), ("qber_i", "qber_i", None),
                                    ("tau_s", "integration_time_s", "non-negative")):
            object.__setattr__(self, name, _check_axis(getattr(self, name), field, domain, name))
        for lp in self.log10_pec:
            # p_ec is below 1: bound lp first, since 10**lp overflows above ~308
            if lp > 0.0:
                raise ParameterError(f"sweep axis log10_pec gives p_ec = 10**{lp}, above 1")
            check_range("p_ec", 10.0 ** lp)
        _check_one_policy(self.params, self.opt_spec)


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
    """The budget and every probe, as (loss in dB, key length) in probe order.

    With fixed parameters a probe's key length is the key at that loss.
    In an optimized budget, a probe that meets the target records the
    first key of at least the target that its search finds, not the
    optimum there; a probe that misses records the optimum found.
    """

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


_FIELDS = tuple(f.name for f in fields(KeyLengthResult))


def _columns(results) -> dict[str, list]:
    """The ``KeyLengthResult`` field columns of ``results``, in field order."""
    return {name: [getattr(r, name) for r in results] for name in _FIELDS}


def _grid_table(axes, base: ChannelConditions, sec: SecurityParams,
                params: ProtocolParams | None, opt_spec: OptimizationSpec | None
                ) -> tuple[ProtocolParams | list[ProtocolParams], dict[str, list]]:
    """The key length on the row-major grid over ``axes`` of loss (dB), p_ec,
    qber_i and window (s), ``base`` giving the rest, as one table: the params
    (the fixed ones, or each point's ``optimize`` answer) and ``_columns`` of
    the results.  Fixed ``params`` run as one batch: one ``counts_array``, one
    ``_count_leakage_array`` (each a scalar step's code) and one
    ``bounds_ell_array`` call over the whole grid, each field one ``.tolist()``.
    Every window's pulse count is checked before any point is evaluated."""
    for tau in axes[3]:
        check_range("f_s * integration_time_s", base.f_s * tau, "pulse count")
    if params is None:
        runs = [optimize(opt_spec, replace(base, eta_loss_db=eta, p_ec=p_ec, qber_i=q,
                                           integration_time_s=tau), sec)
                for eta, p_ec, q, tau in itertools.product(*axes)]
        return [r.best_params for r in runs], _columns([r.result for r in runs])
    # H, V, D and A all send (mu1, mu2); each axis has a dimension of its own,
    # and the transmittance is the scalar one of each loss
    fixed = (params.pax, params.pbx, *params.mu[:2] * 4, params.mu[2], *params.p_mu)
    p_d, p_ec, qber_i, tau = np.ix_([k.db_to_transmittance(eta) for eta in axes[0]], *axes[1:])
    counts = k.counts_array(*fixed, p_d, p_ec, qber_i, base.p_ap, base.f_s * tau)
    lam, f_inv = _count_leakage_array(counts, sec)
    out = k.bounds_ell_array(counts[0:3], counts[3:6], counts[6:9], counts[9:12], params.mu,
                             params.p_mu, sec.beta, sec.eps, sec.pa_bits, lam)
    shape = tuple(map(len, axes))
    ell, *values, reason, f_inv = (np.broadcast_to(v, shape).ravel().tolist()
                                   for v in (*out, f_inv))
    columns = (list(map(int, ell)), *values, list(map(_REASONS.get, reason)), f_inv)
    return params, dict(zip(_FIELDS, columns))


def _sweep_table(spec: SweepSpec, base: ChannelConditions, sec: SecurityParams):
    """``_grid_table`` on the grid of ``spec``."""
    axes = (spec.eta_loss_db, [10.0 ** lp for lp in spec.log10_pec], spec.qber_i, spec.tau_s)
    return _grid_table(axes, base, sec, spec.params, spec.opt_spec)


def sweep(spec: SweepSpec, base: ChannelConditions, sec: SecurityParams) -> list[SweepRow]:
    """Evaluate (and optionally re-optimize) the key length on the grid.

    Rows are returned in grid order; fixed parameters run as one batch.
    """
    params, columns = _sweep_table(spec, base, sec)
    if isinstance(params, ProtocolParams):
        params = itertools.repeat(params)
    points = itertools.product(spec.eta_loss_db, spec.log10_pec, spec.qber_i, spec.tau_s)
    return [SweepRow(*point, p, r) for point, p, r in
            zip(points, params, map(KeyLengthResult, *columns.values()))]


def max_loss(query: LossBudgetQuery, sec: SecurityParams) -> LossBudgetResult:
    """Largest loss meeting the key-length target, by bisection.

    The achieved-key predicate is checked at both bracket ends first.  The
    answer is the largest probed loss that met the target; no loss is
    probed twice.  With an ``opt_spec`` each probe runs ``optimize`` with
    ``stop_at`` set to the target, which ends the search at the first point
    that meets it.  A probe then meets the target whenever the full search
    would, and also in the two cases ``optimize`` names, where the point it
    stops at has that key.
    """
    target = max(query.target_bits, 1)
    probes: list[tuple[float, int]] = []

    def ell_at(eta: float) -> int:
        cond = replace(query.conditions, eta_loss_db=eta)
        ell = (optimize(query.opt_spec, cond, sec, stop_at=target).best_ell
               if query.params is None
               else key_length_for_channel(query.params, cond, sec).ell)
        probes.append((eta, ell))
        return ell

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
    times = _check_axis(times_s, "integration_time_s", "non-negative")
    _check_one_policy(params, opt_spec)
    axes = ((base.eta_loss_db,), (base.p_ec,), (base.qber_i,), times)
    ells = _grid_table(axes, base, sec, params, opt_spec)[1]["ell"]
    return [(tau, ell * 60.0 / tau if tau > 0.0 else 0.0, ell) for tau, ell in zip(times, ells)]


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
