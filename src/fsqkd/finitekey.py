"""Finite-key secure key length for the three-intensity decoy protocol.

The estimation chain follows the composable security analysis of Lim,
Curty, Walenta, Xu and Zbinden, Phys. Rev. A 89, 032332 (2014), with
two-sided multiplicative concentration corrections on every observed
count.  Key bits are drawn from the X basis; the publicly disclosed Z
basis drives the vacuum / single-photon yield estimates and the phase
error.  Reconciliation leakage uses the finite-size estimate of
Tomamichel, Martinez-Mateo, Fung and Lutkenhaus (binomial-quantile form)
by default, or a plain efficiency-factor estimate.

The per-bound failure exponent defaults to ``beta = ln(21 / eps_s)``,
matching the 21-way failure-budget split that also produces the
``6 log2(21/eps_s)`` privacy-amplification constant in the key formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

from . import _kernels as k
from ._quantile import binom_ppf
from .channel import (BlockCounts, ChannelConditions, ParameterError, ProtocolParams,
                      check_range, expected_block_counts)

EcMethod = Literal["binomial", "rate-factor"]

_REASONS = {
    k.REASON_ZERO_COUNTS: "zero-counts",
    k.REASON_NO_SINGLE_PHOTON: "no-single-photon-bound",
    k.REASON_NEGATIVE_KEY: "negative-key-expression",
}


class NoKeySignal(ArithmeticError):
    """Signals that an estimation step degenerated; callers map this to ell = 0."""


@dataclass(frozen=True)
class SecurityParams:
    """Composable security budget.

    ``beta`` is the exponent used in the concentration corrections; when
    not given it defaults to ``ln(21 / eps_s)`` (one 21st of the secrecy
    budget per bound application).  Tests of asymptotic behaviour may pass
    ``beta=0`` explicitly.
    """

    eps_s: float = 1e-9
    eps_c: float = 1e-15
    beta: float | None = None

    def __post_init__(self) -> None:
        check_range("eps_s", self.eps_s, "eps")
        check_range("eps_c", self.eps_c, "eps")
        if self.beta is None:
            object.__setattr__(self, "beta", math.log(21.0 / self.eps_s))
        else:
            check_range("beta", self.beta)

    @property
    def eps(self) -> float:
        return self.eps_s + self.eps_c


@dataclass(frozen=True)
class KeyLengthResult:
    """Secure key length plus every intermediate estimate for diagnostics."""

    ell: int
    raw: float
    s_x0: float
    s_x1: float
    phi_x: float
    lambda_ec: float
    qber_x: float
    reason: str | None
    diagnostics: dict = field(default_factory=dict)


def binary_entropy(x: float) -> float:
    """Binary entropy in bits; h(0) = h(1) = 0."""
    check_range("entropy argument", x)
    return k.binary_entropy(x)


def chernoff_delta(y: float, beta: float, side: str = "plus") -> float:
    """Two-sided concentration correction for an expected count y."""
    check_range("count", y, "non-negative")
    check_range("beta", beta)
    if side == "plus":
        return k.chernoff_delta_plus(y, beta)
    if side == "minus":
        return k.chernoff_delta_minus(y, beta)
    raise ParameterError(f"side must be 'plus' or 'minus', got {side!r}")


def decoy_tau(n: int, params: ProtocolParams) -> float:
    """Probability that a transmitted pulse carries n photons (n in {0, 1})."""
    if n not in (0, 1):
        raise ParameterError(f"n must be 0 or 1, got {n}")
    mu1, mu2, mu3 = params.mu
    p1, p2, p3 = params.p_mu
    return k.poisson_tau(n, mu1, mu2, mu3, p1, p2, p3)


def scaled_count_bounds(counts: BlockCounts, params: ProtocolParams,
                        sec: SecurityParams) -> dict[str, tuple[float, float, float]]:
    """Concentration-corrected, intensity-rescaled counts for all observables.

    Returns a dict with keys ``n_x_minus``, ``n_x_plus``, ``n_z_minus``,
    ``n_z_plus``, ``m_x_minus``, ``m_x_plus``, ``m_z_minus``, ``m_z_plus``,
    each a per-intensity triple.  Lower bounds are floored at zero.
    """
    mu1, mu2, mu3 = params.mu
    p1, p2, p3 = params.p_mu
    out: dict[str, tuple[float, float, float]] = {}
    for name, trip in (("n_x", counts.n_x), ("n_z", counts.n_z),
                       ("m_x", counts.m_x), ("m_z", counts.m_z)):
        lo1, lo2, lo3, hi1, hi2, hi3 = k.scaled_bounds_core(
            trip[0], trip[1], trip[2], mu1, mu2, mu3, p1, p2, p3, sec.beta)
        out[f"{name}_minus"] = (lo1, lo2, lo3)
        out[f"{name}_plus"] = (hi1, hi2, hi3)
    return out


def vacuum_bound(n_minus: tuple[float, float, float],
                 n_plus: tuple[float, float, float],
                 params: ProtocolParams,
                 total: float | None = None) -> float:
    """Lower bound on vacuum-origin events in one basis.

    ``total`` optionally caps the bound at the basis detection total.
    """
    _, mu2, mu3 = params.mu
    tau0 = decoy_tau(0, params)
    cap = math.inf if total is None else total
    return k.vacuum_bound_core(n_minus[2], n_plus[1], tau0, mu2, mu3, cap)


def single_photon_bound(n_minus: tuple[float, float, float],
                        n_plus: tuple[float, float, float],
                        s_0: float, params: ProtocolParams,
                        total: float | None = None) -> float:
    """Lower bound on single-photon events in one basis."""
    mu1, mu2, mu3 = params.mu
    tau0 = decoy_tau(0, params)
    tau1 = decoy_tau(1, params)
    cap = math.inf if total is None else total
    return k.single_photon_bound_core(n_minus[1], n_plus[2], n_plus[0], s_0,
                                      tau0, tau1, mu1, mu2, mu3, cap)


def phase_error(s_z1: float, v_z1: float, s_x1: float, sec: SecurityParams) -> float:
    """Phase error rate of the single-photon X-basis events, clamped to 0.5.

    Raises :class:`NoKeySignal` when either single-photon bound vanishes.
    """
    check_range("v_z1", v_z1, "non-negative")
    if s_z1 <= 0.0 or s_x1 <= 0.0:
        raise NoKeySignal("single-photon bound is zero; no key can be extracted")
    ratio = v_z1 / s_z1
    if ratio >= 0.5:
        return 0.5
    return min(0.5, ratio + k.fluct_gamma(sec.eps, ratio, s_z1, s_x1))


def _ec_mode(method: str, f_ec: float) -> int:
    """Kernel code of an EC leakage method.

    Unknown names, and an ``f_ec`` below the Shannon limit of 1 or not
    finite, raise ParameterError.
    """
    if method not in ("binomial", "rate-factor"):
        raise ParameterError(f"unknown EC leakage method {method!r}")
    check_range("f_ec", f_ec)
    return 0 if method == "binomial" else 1


def ec_leakage(n_x: float, qber_x: float, eps_c: float,
               method: EcMethod = "binomial", f_ec: float = 1.16) -> float:
    """Reconciliation leakage estimate in bits.

    ``binomial`` uses the finite-size estimate built on the inverse
    binomial CDF; ``rate-factor`` uses ``f_ec * n_x * h(qber_x)``.
    """
    ec_mode = _ec_mode(method, f_ec)
    check_range("n_x", n_x, "non-negative")
    check_range("qber_x", qber_x, "qber")
    if n_x == 0.0:
        return 0.0
    f_inv = _ec_quantile(n_x, qber_x, eps_c) if ec_mode == 0 else 0.0
    return k.ec_leakage_core(n_x, qber_x, eps_c, ec_mode, f_ec, f_inv)


def _ec_quantile(n_x: float, qber_x: float, eps_c: float) -> float:
    """Inverse binomial CDF term feeding the binomial leakage estimate."""
    if n_x <= 0.0 or qber_x <= 0.0:
        return 0.0
    return binom_ppf(eps_c, n_x, 1.0 - min(qber_x, 0.5))


def _key_chain(c: tuple, mu1: float, mu2: float, mu3: float,
               p1: float, p2: float, p3: float,
               beta: float, eps_s: float, eps_c: float,
               ec_mode: int, f_ec: float) -> tuple[tuple, float]:
    """Leakage quantile, then the estimation chain, for one count vector.

    ``c`` holds the 12 expected counts in ``counts_core`` order; the
    intensities and probabilities are the estimator's.  Returns the
    ``bounds_ell_core`` tuple and the quantile it was given (0 in
    rate-factor mode).
    """
    f_inv = 0.0
    if ec_mode == 0:
        n_x = c[0] + c[1] + c[2]
        if n_x > 0.0:
            f_inv = _ec_quantile(n_x, (c[6] + c[7] + c[8]) / n_x, eps_c)
    return k.bounds_ell_core(*c, mu1, mu2, mu3, p1, p2, p3,
                             beta, eps_s, eps_c, ec_mode, f_ec, f_inv), f_inv


def secure_key_length(counts: BlockCounts, params: ProtocolParams,
                      sec: SecurityParams,
                      ec_method: EcMethod = "binomial",
                      f_ec: float = 1.16,
                      with_diagnostics: bool = True) -> KeyLengthResult:
    """Composable secure key length for one block of expected counts.

    Every failure mode (no detections, degenerate single-photon estimate,
    negative key expression) maps to ``ell = 0`` with a reason string.
    """
    ec_mode = _ec_mode(ec_method, f_ec)
    out, f_inv = _key_chain(counts.n_x + counts.n_z + counts.m_x + counts.m_z,
                            *params.mu, *params.p_mu,
                            sec.beta, sec.eps_s, sec.eps_c, ec_mode, f_ec)
    (ell, raw, s_x0, s_x1, s_z0, s_z1, v_z1, phi_x, lam, qber_x_out, reason) = out

    diagnostics: dict = {}
    if with_diagnostics:
        diagnostics = dict(scaled_count_bounds(counts, params, sec))
        diagnostics.update(
            s_z0=s_z0, s_z1=s_z1, v_z1=v_z1,
            n_x_total=counts.n_x_total, n_z_total=counts.n_z_total,
            m_x_total=counts.m_x_total, m_z_total=counts.m_z_total,
            tau_0=decoy_tau(0, params), tau_1=decoy_tau(1, params),
            ec_quantile=f_inv, beta=sec.beta,
        )

    return KeyLengthResult(
        ell=int(ell), raw=raw, s_x0=s_x0, s_x1=s_x1, phi_x=phi_x,
        lambda_ec=lam, qber_x=qber_x_out,
        reason=_REASONS.get(reason), diagnostics=diagnostics)


def key_length_for_channel(params: ProtocolParams,
                           channel: ChannelConditions,
                           sec: SecurityParams,
                           ec_method: EcMethod = "binomial",
                           f_ec: float = 1.16,
                           with_diagnostics: bool = True) -> KeyLengthResult:
    """Expected-count evaluation of the secure key length for one window."""
    _ec_mode(ec_method, f_ec)  # reject bad EC inputs before counting
    counts = expected_block_counts(params, channel)
    return secure_key_length(counts, params, sec, ec_method=ec_method,
                             f_ec=f_ec, with_diagnostics=with_diagnostics)


def _evaluate_flat(pax: float, pbx: float,
                   mu1: float, mu2: float, mu3: float,
                   p1: float, p2: float, p3: float,
                   p_d: float, p_ec: float, qber_i: float, p_ap: float,
                   n_pulses: float, beta: float, eps_s: float, eps_c: float,
                   ec_mode: int, f_ec: float) -> tuple:
    """Hot-path evaluation on plain floats; returns the kernel result tuple.

    The same chain as :func:`key_length_for_channel`, without dataclass
    construction.
    """
    c = k.counts_core(pax, pbx, mu1, mu2, mu1, mu2, mu1, mu2, mu1, mu2,
                      mu3, p1, p2, p3, p_d, p_ec, qber_i, p_ap, n_pulses)
    return _key_chain(c, mu1, mu2, mu3, p1, p2, p3,
                      beta, eps_s, eps_c, ec_mode, f_ec)[0]
