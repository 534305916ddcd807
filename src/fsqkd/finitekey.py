"""Finite-key secure key length for the three-intensity decoy protocol.

The estimation chain follows the composable security analysis of Lim,
Curty, Walenta, Xu and Zbinden, Phys. Rev. A 89, 032332 (2014), with
two-sided multiplicative concentration corrections on every observed
count.  Key bits are drawn from the X basis; the publicly disclosed Z
basis drives the vacuum / single-photon yield estimates and the phase
error.  Reconciliation leakage uses the finite-size estimate of
Tomamichel, Martinez-Mateo, Fung and Lutkenhaus (binomial-quantile form)
by default, or a plain efficiency-factor estimate; ``SecurityParams``
carries the choice, and ``_leakage`` alone turns X-basis counts into it.

The per-bound failure exponent defaults to ``beta = ln(21 / eps_s)``,
matching the 21-way failure-budget split that also produces the
``6 log2(21/eps_s)`` privacy-amplification constant in the key formula.
"""
from __future__ import annotations

import math
import types
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from . import _kernels as k
from ._kernels import per
from ._quantile import binom_ppf, binom_ppf_array
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
    """Composable security analysis: the ε budget, β and the leakage estimate.

    ``beta`` is the exponent used in the concentration corrections; when
    not given it defaults to ``ln(21 / eps_s)`` (one 21st of the secrecy
    budget per bound application).  Tests of asymptotic behaviour may pass
    ``beta=0`` explicitly.

    ``ec_method`` picks the reconciliation leakage estimate: ``binomial``,
    the finite-size form around the inverse binomial CDF, or
    ``rate-factor``, ``f_ec * n_x * h(qber_x)``.  ``f_ec`` is checked
    against the Shannon limit of 1 in both methods.
    """

    eps_s: float = 1e-9
    eps_c: float = 1e-15
    beta: float | None = None
    ec_method: EcMethod = "binomial"
    f_ec: float = 1.16

    def __post_init__(self) -> None:
        check_range("eps_s", self.eps_s, "eps")
        check_range("eps_c", self.eps_c, "eps")
        try:  # pa_bits, and fluct_gamma's (21 / eps) ** 2, as the kernels compute them
            if not math.isfinite(self.pa_bits + (21.0 / self.eps) ** 2):
                raise OverflowError
        except OverflowError:
            raise ParameterError(f"eps_s = {self.eps_s!r} and eps_c = {self.eps_c!r} are too "
                                 "small: 21/eps_s, 2/eps_c or (21/eps)**2 overflows") from None
        if self.ec_method not in ("binomial", "rate-factor"):
            raise ParameterError(f"unknown EC leakage method {self.ec_method!r}")
        check_range("f_ec", self.f_ec)
        if self.beta is None:
            object.__setattr__(self, "beta", math.log(21.0 / self.eps_s))
        else:
            check_range("beta", self.beta)

    @cached_property
    def eps(self) -> float:
        return self.eps_s + self.eps_c

    @cached_property
    def pa_bits(self) -> float:
        """The privacy-amplification constant of the key expression."""
        return k.privacy_amplification_bits(self.eps_s, self.eps_c)

    @cached_property
    def ec_bits(self) -> float:
        """log2(1 / eps_c), the correctness term of the binomial leakage."""
        return math.log(1.0 / self.eps_c) / k.LN2


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


def ec_leakage(n_x: float, qber_x: float, sec: SecurityParams) -> float:
    """Reconciliation leakage estimate in bits, by ``sec.ec_method``.

    ``binomial`` uses the finite-size estimate built on the inverse
    binomial CDF at ``sec.eps_c``; ``rate-factor`` uses
    ``sec.f_ec * n_x * h(qber_x)``.
    """
    check_range("n_x", n_x, "non-negative")
    check_range("qber_x", qber_x, "qber")
    return _leakage(n_x, qber_x, sec)[0]


def _leakage(n_x: float, qber_x: float, sec: SecurityParams) -> tuple[float, float]:
    """Leakage of X-basis counts, and the inverse-binomial quantile it used.

    The quantile is 0 in rate-factor mode and where there is nothing to
    reconcile: it is taken only where n_x > 0 and qber_x > 0, not on NaN.
    """
    if n_x <= 0.0:
        return 0.0, 0.0
    if sec.ec_method == "rate-factor":
        return sec.f_ec * n_x * k.binary_entropy(qber_x), 0.0
    if qber_x <= 0.0:
        return 0.0, 0.0
    q = 0.5 if qber_x > 0.5 else qber_x
    f_inv = binom_ppf(sec.eps_c, n_x, 1.0 - q) if n_x > 0.0 and qber_x > 0.0 else 0.0
    return k.finite_leakage_core(n_x, q, sec.ec_bits, f_inv), f_inv


def _count_leakage(c: tuple, sec: SecurityParams) -> tuple[float, float]:
    """``_leakage`` of the X-basis total and QBER of ``c``, the 12 expected
    counts in ``counts_core`` order; ``_count_leakage_array`` runs this code
    on ``_kernels.counts_array``'s arrays, with the array ``per``."""
    n_x = c[0] + c[1] + c[2]
    return _leakage(n_x, per(c[6] + c[7] + c[8], n_x), sec)


def _leakage_array(n_x, qber_x, sec: SecurityParams) -> tuple[np.ndarray, np.ndarray]:
    """``_leakage`` over broadcasting arrays: the leakage and its quantile
    at every point, each equal to the scalar function's."""
    n_x, qber_x = np.broadcast_arrays(n_x, qber_x)
    f_inv = np.zeros(n_x.shape)
    if sec.ec_method == "rate-factor":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = sec.f_ec * n_x * k._binary_entropy(qber_x)
        return np.where(n_x <= 0.0, 0.0, lam), f_inv
    q = np.minimum(qber_x, 0.5)
    live = (n_x > 0.0) & (qber_x > 0.0)
    f_inv[live] = binom_ppf_array(sec.eps_c, n_x[live], 1.0 - q[live])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = k._ARRAY["finite_leakage_core"](n_x, q, sec.ec_bits, f_inv)
    return np.where((n_x <= 0.0) | (qber_x <= 0.0), 0.0, lam), f_inv


_count_leakage_array = types.FunctionType(_count_leakage.__code__, dict(
    globals(), per=k._ARRAY["per"], _leakage=_leakage_array), "_count_leakage_array")


def _key_chain(c: tuple, mu1: float, mu2: float, mu3: float,
               p1: float, p2: float, p3: float,
               sec: SecurityParams) -> tuple[tuple, float]:
    """Leakage, then the estimation chain, for one count vector.

    ``c`` holds the 12 expected counts in ``counts_core`` order, cut here to
    the nine ``bounds_ell_core`` takes; the intensities and probabilities
    are the estimator's.  Returns the ``bounds_ell_core`` tuple and the
    leakage quantile (0 in rate-factor mode).
    """
    lam, f_inv = _count_leakage(c, sec)
    return k.bounds_ell_core(*c[:6], c[6] + c[7] + c[8], c[10], c[11], mu1, mu2, mu3,
                             p1, p2, p3, sec.beta, sec.eps, sec.pa_bits, lam), f_inv


def secure_key_length(counts: BlockCounts, params: ProtocolParams,
                      sec: SecurityParams) -> KeyLengthResult:
    """Composable secure key length for one block of expected counts.

    Every failure mode (no detections, degenerate single-photon estimate,
    negative key expression) maps to ``ell = 0`` with a reason string.
    """
    (ell, *fields, reason), f_inv = _key_chain(
        counts.n_x + counts.n_z + counts.m_x + counts.m_z, *params.mu, *params.p_mu, sec)
    return KeyLengthResult(int(ell), *fields, _REASONS.get(reason), f_inv)


def key_length_for_channel(params: ProtocolParams,
                           channel: ChannelConditions,
                           sec: SecurityParams,
                           with_diagnostics: bool | None = None) -> KeyLengthResult:
    """Expected-count evaluation of the secure key length for one window.

    ``with_diagnostics`` is accepted and ignored, because the benchmark
    workloads in ``qkdbench/workloads.py`` still pass it; the returned
    record carries every estimate of the one evaluation.
    """
    counts = expected_block_counts(params, channel)
    return secure_key_length(counts, params, sec)


def _search_terms(p_d: float, p_ec: float, qber_i: float, p_ap: float, n_pulses: float,
                  sec: SecurityParams, mu: tuple) -> tuple:
    """What a search holds fixed, bound once for ``_evaluate_flat``.

    ``mu`` is the intensity triple, with ``None`` for a searched ``mu1`` and
    ``mu2``.  Holds the intensities with their statistics (None for a
    searched pair), the link, and the chain's constants.
    """
    mu1, mu2, mu3 = mu
    link = (p_d, p_ec, p_ap, qber_i)
    x = None if mu1 is None else k.pair_statistics(mu1, mu2, mu1, mu2, *link)
    return (mu1, mu2, x, mu3, *k.detection_error_prob(mu3, *link), link, n_pulses, sec,
            (sec.beta, sec.eps, sec.pa_bits))


def _evaluate_flat(terms: tuple, pax: float, pbx: float, p1: float, p2: float, p3: float,
                   mu1: float | None = None, mu2: float | None = None) -> tuple:
    """Hot-path evaluation on plain floats; returns the ``bounds_ell_core`` tuple.

    The same chain as :func:`key_length_for_channel` for states that all
    send one intensity triple, without dataclass construction or a count
    vector.  ``terms`` is the search's ``_search_terms``, which holds mu3
    and its statistics.  A searched pair (mu1, mu2) is passed here and its
    statistics computed here; a fixed pair is omitted and read, with its
    statistics, from ``terms``.  Then ``pair_counts_core``, ``_leakage`` and
    ``bounds_ell_core`` run.
    """
    fixed1, fixed2, x, mu3, d3, e3, link, n_pulses, sec, (beta, eps, pa_bits) = terms
    if mu1 is None:
        mu1, mu2 = fixed1, fixed2
        d1, e1, d2, e2 = x
    else:
        d1, e1 = k.detection_error_prob(mu1, *link)
        d2, e2 = k.detection_error_prob(mu2, *link)
    n_x1, n_x2, n_x3, n_z1, n_z2, n_z3, m_x, m_z2, m_z3 = k.pair_counts_core(
        pax, pbx, d1, e1, d2, e2, d3, e3, p1, p2, p3, n_pulses)
    n_x = n_x1 + n_x2 + n_x3
    lam = _leakage(n_x, m_x / n_x if n_x > 0.0 else 0.0, sec)[0]
    return k.bounds_ell_core(n_x1, n_x2, n_x3, n_z1, n_z2, n_z3, m_x, m_z2, m_z3,
                             mu1, mu2, mu3, p1, p2, p3, beta, eps, pa_bits, lam)
