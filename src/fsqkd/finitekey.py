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
from dataclasses import dataclass
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
    """Secure key length and the estimates it was computed from.

    Built from the one ``_kernels.bounds_ell_core`` evaluation behind the
    answer: the vacuum and single-photon lower bounds of both bases
    (``s_x0``, ``s_x1``, ``s_z0``, ``s_z1``), the single-photon Z-basis
    error upper bound ``v_z1``, the phase error ``phi_x``, the leakage
    ``lambda_ec`` and the observed ``qber_x``.  ``raw`` is the unfloored
    key expression and ``reason`` says why ``ell`` is 0 (None when it is
    positive).  ``ec_quantile`` is the inverse-binomial quantile that the
    binomial leakage used (0 in rate-factor mode or without errors).
    """

    ell: int
    raw: float
    s_x0: float
    s_x1: float
    s_z0: float
    s_z1: float
    v_z1: float
    phi_x: float
    lambda_ec: float
    qber_x: float
    reason: str | None
    ec_quantile: float


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
                      f_ec: float = 1.16) -> KeyLengthResult:
    """Composable secure key length for one block of expected counts.

    Every failure mode (no detections, degenerate single-photon estimate,
    negative key expression) maps to ``ell = 0`` with a reason string.
    """
    ec_mode = _ec_mode(ec_method, f_ec)
    out, f_inv = _key_chain(counts.n_x + counts.n_z + counts.m_x + counts.m_z,
                            *params.mu, *params.p_mu,
                            sec.beta, sec.eps_s, sec.eps_c, ec_mode, f_ec)
    ell, raw, s_x0, s_x1, s_z0, s_z1, v_z1, phi_x, lam, qber_x, reason = out
    return KeyLengthResult(
        ell=int(ell), raw=raw, s_x0=s_x0, s_x1=s_x1, s_z0=s_z0, s_z1=s_z1,
        v_z1=v_z1, phi_x=phi_x, lambda_ec=lam, qber_x=qber_x,
        reason=_REASONS.get(reason), ec_quantile=f_inv)


def key_length_for_channel(params: ProtocolParams,
                           channel: ChannelConditions,
                           sec: SecurityParams,
                           ec_method: EcMethod = "binomial",
                           f_ec: float = 1.16,
                           with_diagnostics: bool | None = None) -> KeyLengthResult:
    """Expected-count evaluation of the secure key length for one window.

    ``with_diagnostics`` is accepted and ignored, because the benchmark
    workloads in ``qkdbench/workloads.py`` still pass it; the returned
    record carries every estimate of the one evaluation.
    """
    _ec_mode(ec_method, f_ec)  # reject bad EC inputs before counting
    counts = expected_block_counts(params, channel)
    return secure_key_length(counts, params, sec, ec_method=ec_method, f_ec=f_ec)


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
