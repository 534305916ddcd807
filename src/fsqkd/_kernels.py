"""Numeric kernels for the decoy-state finite-key chain.

The scalar steps are straight-line float64 math on Python floats.  Both
bases run the same decoy analysis, so ``counts_core`` and
``bounds_ell_core`` call ``basis_counts_core`` and ``basis_bounds_core``
once per basis.  Each basis uses the mean of its two signal states'
detection/error statistics, while the decoy estimation step uses the
(possibly different) intensity pair assumed by the receiver.  With all
intensities equal this reduces exactly to the plain three-intensity
protocol chain.

One evaluation computes each quantity once, and only what the key uses:
``detection_error_prob`` once per intensity object (three calls when all
states share their pair), the taus and intensity weights in one
``intensity_terms`` call, and 12 concentration-corrected counts, one
``count_lower_core`` or ``count_upper_core`` call each: five per basis for
its vacuum and single-photon bounds, and two Z-basis error counts for
``v_z1``.  The caller passes in the privacy-amplification constant, which
depends only on the eps budget.

Each straight-line step has one body, run with a float or an array set of
operations.  It calls ``exp``, ``log``, ``sqrt``, ``floor0`` and ``clamp``
by module name, and its array twin (``counts_array`` for ``counts_core``)
runs the same code with the globals ``_ARRAY``, where these are
``_libm_exp``, ``_libm_log``, ``np.sqrt`` and ``np.where`` clamps,
``binary_entropy`` is ``_binary_entropy`` and each step's name is its
twin.  As an array cannot say whether two states send one intensity, a
step asks if they are one object; equal values in two objects are both
evaluated and averaged, which gives the same float, as 0.5 * (d + d) == d.
An ``if`` cannot branch per element, so the steps with control flow keep
array glue: ``_basis_counts`` masks ``basis_counts_core``'s zero-detection
return, ``ec_leakage_array`` that of ``ec_leakage_core``, and
``bounds_ell_core``'s twin runs in two stages, the decoy bounds
(``_chain_bounds``) at each basis' own shape and the key (``_chain_key``,
with ``_binary_entropy`` and ``_fluct_gamma``) where the bases meet.  These
evaluate every lane, with no gather or scatter: each branch is a mask, the
scalar ``if`` itself (so NaN lanes follow the scalar), built at the small
shapes and combined once.  A fixed-parameter sweep runs ``counts_array``,
``ec_leakage_array`` (its quantile from ``_quantile.binom_ppf_array``) and
``bounds_ell_array`` over its whole grid, each axis on a dimension of its
own; the worst-case grid runs the bounds once per query and the key per
block of at most g^8 points.  Every element is bit-identical to the
scalar chain: NumPy's ``exp`` and ``log`` differ from libm's in the last
bit on some inputs, so ``_libm_exp`` calls ``math.exp`` once per element
and ``_libm_log`` is scipy's ``xlogy(1, x)``, which calls glibc's ``log``
as ``math.log`` does.  The quantile twin follows the scalar search in
int64 below 2^53 trials and sends larger counts to ``binom_ppf``.
The estimator's mu1 and mu2 may be arrays on a leading axis ahead of the
counts', one pair per entry, with taus and weights from one
``intensity_terms`` twin call.

Reason codes returned by ``bounds_ell_core``:
    0  positive key
    1  no detections
    2  vacuum+single-photon estimate degenerate (s_1 = 0 in either basis)
    3  key expression non-positive
"""
from __future__ import annotations

import math
import types
from math import exp, log, sqrt

import numpy as np
from scipy.special import xlogy

LN2 = 0.6931471805599453

REASON_OK = 0.0
REASON_ZERO_COUNTS = 1.0
REASON_NO_SINGLE_PHOTON = 2.0
REASON_NEGATIVE_KEY = 3.0


def floor0(x):
    """``x`` floored at zero."""
    return 0.0 if x < 0.0 else x


def clamp(x, top):
    """``x`` capped at ``top``, then floored at zero."""
    x = top if x > top else x
    return 0.0 if x < 0.0 else x


def db_to_transmittance(eta_loss_db):
    """Linear system transmittance from total loss in dB."""
    return 10.0 ** (-eta_loss_db / 10.0)


def detection_error_prob(k, p_d, p_ec, p_ap, qber_i):
    """Per-pulse detection and error probabilities for mean photon number k."""
    t = exp(-p_d * k)
    d_k = (1.0 + p_ap) * (1.0 - (1.0 - 2.0 * p_ec) * t)
    return d_k, p_ec + 0.5 * p_ap * d_k + qber_i * (1.0 - t)


def binary_entropy(x):
    """Binary entropy in bits, with h(0) = h(1) = 0 by continuity."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * log(x) + (1.0 - x) * log(1.0 - x)) / LN2


def chernoff_delta_plus(y, beta):
    """Upper-tail concentration correction for an expected count y."""
    return beta + sqrt(2.0 * beta * y + beta * beta)


def chernoff_delta_minus(y, beta):
    """Lower-tail concentration correction for an expected count y."""
    return 0.5 * beta + sqrt(2.0 * beta * y + 0.25 * beta * beta)


def intensity_terms(mu1, mu2, mu3, p1, p2, p3):
    """(tau0, tau1, s1, s2, s3): the probabilities that a transmitted pulse
    holds 0 or 1 photons, and the weights exp(mu) / p of each intensity's counts."""
    w1 = p1 * exp(-mu1)
    w2 = p2 * exp(-mu2)
    w3 = p3 * exp(-mu3)
    return (w1 + w2 + w3, w1 * mu1 + w2 * mu2 + w3 * mu3,
            exp(mu1) / p1, exp(mu2) / p2, exp(mu3) / p3)


def fluct_gamma(a, b, c, d):
    """Statistical-fluctuation term added to the single-photon error ratio."""
    if b <= 0.0 or b >= 1.0 or c <= 0.0 or d <= 0.0:
        return 0.0
    t1 = (c + d) * (1.0 - b) * b / (c * d * LN2)
    arg = ((c + d) / (c * d * (1.0 - b) * b)) * (21.0 / a) ** 2
    if arg <= 1.0:
        return 0.0
    v = t1 * log(arg) / LN2
    if v <= 0.0:
        return 0.0
    return sqrt(v)


def pair_statistics(mu1_a, mu2_a, mu1_b, mu2_b, p_d, p_ec, p_ap, qber_i):
    """Mean detection and error probabilities (d1, e1, d2, e2) of a basis'
    two states (bit values are uniform).  An intensity both states send as
    one object is evaluated once; equal values in two objects are averaged,
    which gives the same float, as 0.5 * (d + d) == d exactly."""
    d1, e1 = detection_error_prob(mu1_a, p_d, p_ec, p_ap, qber_i)
    if mu1_b is not mu1_a:
        d, e = detection_error_prob(mu1_b, p_d, p_ec, p_ap, qber_i)
        d1, e1 = 0.5 * (d1 + d), 0.5 * (e1 + e)
    d2, e2 = detection_error_prob(mu2_a, p_d, p_ec, p_ap, qber_i)
    if mu2_b is not mu2_a:
        d, e = detection_error_prob(mu2_b, p_d, p_ec, p_ap, qber_i)
        d2, e2 = 0.5 * (d2 + d), 0.5 * (e2 + e)
    return d1, e1, d2, e2


def basis_counts_core(sift, d1, e1, d2, e2, d3, e3, p1, p2, p3):
    """Expected sifted (n1, n2, n3, m1, m2, m3) of one basis.

    ``sift`` is the basis' sift factor times the pulse count; ``d1..e2``
    are its ``pair_statistics`` and ``d3``, ``e3`` the third intensity's,
    which both bases share.
    """
    n1 = sift * p1 * d1
    n2 = sift * p2 * d2
    n3 = sift * p3 * d3
    sum_pd = p1 * d1 + p2 * d2 + p3 * d3
    sum_pe = p1 * e1 + p2 * e2 + p3 * e3
    if not sum_pd > 0.0:
        return n1, n2, n3, 0.0, 0.0, 0.0
    m_tot = (n1 + n2 + n3) * sum_pe / sum_pd
    return (n1, n2, n3,
            m_tot * p1 * d1 / sum_pd, m_tot * p2 * d2 / sum_pd, m_tot * p3 * d3 / sum_pd)


def counts_core(pax, pbx,
                mu1_h, mu2_h, mu1_v, mu2_v,
                mu1_d, mu2_d, mu1_a, mu2_a,
                mu3, p1, p2, p3,
                p_d, p_ec, qber_i, p_ap, n_pulses):
    """Expected sifted detection and error counts per basis and intensity.

    The X basis is sent in the H and V states, the Z basis in D and A (it
    reuses the X statistics when D, A are passed the very objects H, V
    are).  Returns
    (n_x1, n_x2, n_x3, n_z1, n_z2, n_z3, m_x1, m_x2, m_x3, m_z1, m_z2, m_z3).
    """
    d3, e3 = detection_error_prob(mu3, p_d, p_ec, p_ap, qber_i)
    x = pair_statistics(mu1_h, mu2_h, mu1_v, mu2_v, p_d, p_ec, p_ap, qber_i)
    z = x if mu1_d is mu1_h and mu2_d is mu2_h and mu1_a is mu1_v and mu2_a is mu2_v else (
        pair_statistics(mu1_d, mu2_d, mu1_a, mu2_a, p_d, p_ec, p_ap, qber_i))
    n_x1, n_x2, n_x3, m_x1, m_x2, m_x3 = basis_counts_core(
        pax * pbx * n_pulses, *x, d3, e3, p1, p2, p3)
    n_z1, n_z2, n_z3, m_z1, m_z2, m_z3 = basis_counts_core(
        (1.0 - pax) * (1.0 - pbx) * n_pulses, *z, d3, e3, p1, p2, p3)
    return (n_x1, n_x2, n_x3, n_z1, n_z2, n_z3,
            m_x1, m_x2, m_x3, m_z1, m_z2, m_z3)


def count_lower_core(c, s, beta):
    """Lower concentration bound on an expected count ``c``, times its
    intensity's weight ``s`` from ``intensity_terms``; floored at zero."""
    return floor0(s * (c - chernoff_delta_minus(c, beta)))


def count_upper_core(c, s, beta):
    """Upper concentration bound on an expected count ``c``, times its
    intensity's weight ``s`` from ``intensity_terms``."""
    return s * (c + chernoff_delta_plus(c, beta))


def vacuum_bound_core(lo3, hi2, tau0, mu2, mu3, total):
    """Lower bound on vacuum-origin events, capped by the basis total."""
    return clamp(tau0 * (mu2 * lo3 - mu3 * hi2) / (mu2 - mu3), total)


def single_photon_bound_core(lo2, hi3, hi1, s0, tau0, tau1, mu1, mu2, mu3, total):
    """Lower bound on single-photon events, capped so s0 + s1 <= total."""
    den = mu1 * (mu2 - mu3) - mu2 * mu2 + mu3 * mu3
    num = lo2 - hi3 - ((mu2 * mu2 - mu3 * mu3) / (mu1 * mu1)) * (hi1 - s0 / tau0)
    return clamp(tau1 * mu1 * num / den, total - s0)


def basis_bounds_core(c1, c2, c3, total, mu1, mu2, mu3, s1, s2, s3, beta, tau0, tau1):
    """Vacuum and single-photon lower bounds (s0, s1) of one basis from its
    counts ``c1..c3``, their sum ``total`` and the ``intensity_terms``."""
    s0 = vacuum_bound_core(count_lower_core(c3, s3, beta), count_upper_core(c2, s2, beta),
                           tau0, mu2, mu3, total)
    return s0, single_photon_bound_core(
        count_lower_core(c2, s2, beta), count_upper_core(c3, s3, beta),
        count_upper_core(c1, s1, beta), s0, tau0, tau1, mu1, mu2, mu3, total)


def ec_leakage_core(n_x, qber_x, eps_c, rate_factor, f_ec, f_inv):
    """Reconciliation leakage in bits.

    With ``rate_factor``: f_ec * n_X * h(Q).  Otherwise the finite-size
    estimate around the inverse binomial CDF value ``f_inv`` (precomputed
    by the caller).
    """
    if n_x <= 0.0:
        return 0.0
    if rate_factor:
        return f_ec * n_x * binary_entropy(qber_x)
    if qber_x <= 0.0:
        return 0.0
    return finite_leakage_core(n_x, 0.5 if qber_x > 0.5 else qber_x, eps_c, f_inv)


def finite_leakage_core(n_x, q, eps_c, f_inv):
    """``ec_leakage_core``'s finite-size estimate at n_x > 0 and 0 < q <= 0.5,
    floored at zero and capped at ``n_x``."""
    lr = log((1.0 - q) / q) / LN2
    return clamp(n_x * binary_entropy(q) + n_x * (1.0 - q) * lr - (f_inv - 1.0) * lr
                 - 0.5 * (log(n_x) / LN2) - (log(1.0 / eps_c) / LN2), n_x)


def privacy_amplification_bits(eps_s, eps_c):
    """Bits the key expression gives up for secrecy and correctness:
    6 log2(21 / eps_s) + log2(2 / eps_c)."""
    return 6.0 * (log(21.0 / eps_s) / LN2) + (log(2.0 / eps_c) / LN2)


def bounds_ell_core(n_x1, n_x2, n_x3, n_z1, n_z2, n_z3,
                    m_x1, m_x2, m_x3, m_z1, m_z2, m_z3,
                    mu1, mu2, mu3, p1, p2, p3,
                    beta, eps, pa_bits, lam):
    """Finite-key estimation chain from expected counts to key length.

    ``eps`` is eps_s + eps_c, ``pa_bits`` their ``privacy_amplification_bits``
    and ``lam`` the reconciliation leakage of the same X-basis counts, as
    ``ec_leakage_core`` returns it.  Returns (ell, raw, s_x0, s_x1, s_z0,
    s_z1, v_z1, phi_x, lam, qber_x, reason), with ``lam`` = 0 when there
    are no counts.  ``raw`` is the unfloored key expression (the
    optimization surrogate); ``ell`` is max(0, floor(raw)) or 0 on any
    failure reason.
    """
    n_x = n_x1 + n_x2 + n_x3
    n_z = n_z1 + n_z2 + n_z3
    m_x = m_x1 + m_x2 + m_x3

    if n_x <= 0.0 or n_z <= 0.0:
        return (0.0, -pa_bits, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0,
                REASON_ZERO_COUNTS)

    tau0, tau1, s1, s2, s3 = intensity_terms(mu1, mu2, mu3, p1, p2, p3)

    s_x0, s_x1 = basis_bounds_core(n_x1, n_x2, n_x3, n_x, mu1, mu2, mu3,
                                   s1, s2, s3, beta, tau0, tau1)
    s_z0, s_z1 = basis_bounds_core(n_z1, n_z2, n_z3, n_z, mu1, mu2, mu3,
                                   s1, s2, s3, beta, tau0, tau1)

    v_z1 = tau1 * (count_upper_core(m_z2, s2, beta)
                   - count_lower_core(m_z3, s3, beta)) / (mu2 - mu3)
    if v_z1 < 0.0:
        v_z1 = 0.0

    qber_x = m_x / n_x

    reason = REASON_OK
    if s_x1 <= 0.0 or s_z1 <= 0.0:
        phi_x = 0.5
        reason = REASON_NO_SINGLE_PHOTON
    else:
        ratio = v_z1 / s_z1
        if ratio >= 0.5:
            phi_x = 0.5
        else:
            phi_x = ratio + fluct_gamma(eps, ratio, s_z1, s_x1)
            if phi_x > 0.5:
                phi_x = 0.5

    raw = s_x0 + s_x1 * (1.0 - binary_entropy(phi_x)) - lam - pa_bits

    if reason == REASON_OK:
        ell = raw // 1.0
        if ell <= 0.0:
            ell = 0.0
            reason = REASON_NEGATIVE_KEY
    else:
        ell = 0.0

    return (ell, raw, s_x0, s_x1, s_z0, s_z1, v_z1, phi_x, lam, qber_x, reason)


# --- array twins ----------------------------------------------------------

def _libm_log(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.log`` of an array of positive values, through libm."""
    return xlogy(1.0, x)


def _libm_exp(x) -> np.ndarray | float:
    """Elementwise ``math.exp`` of an array; a float's is ``math.exp`` itself."""
    if isinstance(x, float):
        return math.exp(x)
    x = np.asarray(x, dtype=float)
    return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _basis_counts(sift, d1, e1, d2, e2, d3, e3, p1, p2, p3):
    """``basis_counts_core`` over arrays, its zero-detection return a mask."""
    n1 = sift * p1 * d1
    n2 = sift * p2 * d2
    n3 = sift * p3 * d3
    sum_pd = p1 * d1 + p2 * d2 + p3 * d3
    sum_pe = p1 * e1 + p2 * e2 + p3 * e3
    none = ~(sum_pd > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_tot = (n1 + n2 + n3) * sum_pe / sum_pd
        return (n1, n2, n3, *(np.where(none, 0.0, m_tot * p * d / sum_pd)
                              for p, d in ((p1, d1), (p2, d2), (p3, d3))))


def ec_leakage_array(n_x, qber_x, eps_c, rate_factor, f_ec, f_inv):
    """``ec_leakage_core`` over broadcasting arrays ``n_x``, ``qber_x`` and
    ``f_inv``, on every lane; the other arguments are the scalar kernel's."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if rate_factor:
            return np.where(n_x <= 0.0, 0.0, f_ec * n_x * _binary_entropy(qber_x))
        lam = _ARRAY["finite_leakage_core"](n_x, np.minimum(qber_x, 0.5), eps_c, f_inv)
    return np.where((n_x <= 0.0) | (qber_x <= 0.0), 0.0, lam)


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    """``binary_entropy`` over an array, evaluated on every lane."""
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(x * _libm_log(x) + (1.0 - x) * _libm_log(1.0 - x)) / LN2
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, h)


def _fluct_gamma(a: float, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``fluct_gamma`` over broadcasting arrays ``b``, ``c`` and ``d``, on every lane."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        total, product = c + d, c * d
        t1 = total * (1.0 - b) * b / (product * LN2)
        arg = (total / (product * (1.0 - b) * b)) * (21.0 / a) ** 2
        v = t1 * _libm_log(arg) / LN2
        gamma = np.sqrt(v)
    return np.where((b <= 0.0) | (b >= 1.0) | (c <= 0.0) | (d <= 0.0) | (arg <= 1.0)
                    | (v <= 0.0), 0.0, gamma)


def _clamp_array(x, top):
    """``clamp`` over arrays."""
    x = np.where(x > top, top, x)
    return np.where(x < 0.0, 0.0, x)


# An array twin runs its straight-line step's own code with these globals:
# the array operations, the masked ``_basis_counts`` and ``_binary_entropy``,
# and each step's twin.
_ARRAY = dict(globals(), exp=_libm_exp, log=_libm_log, sqrt=np.sqrt,
              floor0=lambda x: np.where(x < 0.0, 0.0, x), clamp=_clamp_array,
              basis_counts_core=_basis_counts, binary_entropy=_binary_entropy)
_ARRAY.update({step.__name__: types.FunctionType(step.__code__, _ARRAY, step.__name__)
               for step in (detection_error_prob, pair_statistics, counts_core,
                            chernoff_delta_plus, chernoff_delta_minus, count_lower_core,
                            count_upper_core, vacuum_bound_core, single_photon_bound_core,
                            basis_bounds_core, intensity_terms, finite_leakage_core)})
counts_array = _ARRAY["counts_core"]


def _basis_bounds(c, total, mu, scales, beta, tau0, tau1):
    """``basis_bounds_core`` over arrays, from per-intensity triples: (s0, s1)."""
    return _ARRAY["basis_bounds_core"](*c, total, *mu, *scales, beta, tau0, tau1)


def _chain_bounds(n_x, n_z, m_z, mu, p_mu, beta):
    """The bounds stage of ``bounds_ell_core``: ``(s_x0, s_x1, s_z0, s_z1, v_z1,
    v_z1 / s_z1)``, each at its basis' own shape times an estimator axis of ``mu``."""
    mu1, mu2, mu3 = mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau0, tau1, *scales = _ARRAY["intensity_terms"](mu1, mu2, mu3, *p_mu)
        s_x0, s_x1 = _basis_bounds(n_x, n_x[0] + n_x[1] + n_x[2], mu, scales, beta, tau0, tau1)
        s_z0, s_z1 = _basis_bounds(n_z, n_z[0] + n_z[1] + n_z[2], mu, scales, beta, tau0, tau1)
        v_z1 = tau1 * (_ARRAY["count_upper_core"](m_z[1], scales[1], beta)
                       - _ARRAY["count_lower_core"](m_z[2], scales[2], beta)) / (mu2 - mu3)
        v_z1 = np.where(v_z1 < 0.0, 0.0, v_z1)
        return s_x0, s_x1, s_z0, s_z1, v_z1, v_z1 / s_z1


def _chain_key(n_x, n_z, bounds, eps, pa_bits, lam):
    """The key stage of ``bounds_ell_core`` from the basis counts and the
    ``_chain_bounds`` record: ``(ell, raw, (phi_x, no_counts, dead, bounds))``,
    ``dead`` where a basis has no counts or no single photons."""
    s_x0, s_x1, _, s_z1, _, ratio = bounds
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n_x_tot, n_z_tot = n_x[0] + n_x[1] + n_x[2], n_z[0] + n_z[1] + n_z[2]
        x_dead = (n_x_tot <= 0.0) | (s_x1 <= 0.0)
        z_dead = (n_z_tot <= 0.0) | (s_z1 <= 0.0)
        phi_x = ratio + _fluct_gamma(eps, ratio, s_z1, s_x1)
        phi_x = np.where(x_dead | (z_dead | (ratio >= 0.5)) | (phi_x > 0.5), 0.5, phi_x)
        raw = s_x0 + s_x1 * (1.0 - _binary_entropy(phi_x)) - lam - pa_bits
        no_counts = (n_x_tot <= 0.0) | (n_z_tot <= 0.0)
        raw = np.where(no_counts, -pa_bits, raw)
        ell = np.where(np.isinf(raw), np.nan, np.floor(raw))  # as raw // 1.0
        dead = x_dead | z_dead
        ell = np.where(dead | (ell <= 0.0), 0.0, ell)
    return ell, raw, (phi_x, no_counts, dead, bounds)


def _ell_chain(n_x, n_z, m_z, mu, p_mu, beta, eps, pa_bits, lam):
    """``bounds_ell_array`` up to ``ell``: ``(ell, raw, parts)``, both stages."""
    bounds = _chain_bounds(n_x, n_z, m_z, mu, p_mu, beta)
    return _chain_key(n_x, n_z, bounds, eps, pa_bits, lam)


def bounds_ell_array(n_x, n_z, m_x, m_z, mu, p_mu, beta, eps, pa_bits, lam):
    """``bounds_ell_core`` over broadcasting count arrays: its whole
    11-field record, with its zero-count tuple where a basis has no counts,
    every element equal to the scalar kernel's.

    ``n_x``, ``n_z``, ``m_x`` and ``m_z`` are per-intensity count triples
    (arrays or scalars that broadcast together), ``mu`` and ``p_mu`` the
    estimator's intensities and probabilities, ``eps`` and ``pa_bits`` the
    ``SecurityParams`` ones, and ``lam`` the leakage of the same X-basis
    counts from ``finitekey._leakage``.  A basis' values keep its shape
    until the two meet in the phase-error term.
    """
    ell, raw, (phi_x, no_counts, dead, bounds) = _ell_chain(
        n_x, n_z, m_z, mu, p_mu, beta, eps, pa_bits, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        qber_x = (m_x[0] + m_x[1] + m_x[2]) / np.where(no_counts, 1.0, n_x[0] + n_x[1] + n_x[2])
    reason = np.select([no_counts, dead, ell <= 0.0], [
        REASON_ZERO_COUNTS, REASON_NO_SINGLE_PHOTON, REASON_NEGATIVE_KEY], REASON_OK)
    s_x0, s_x1, s_z0, s_z1, v_z1, lam, qber_x = (np.where(
        np.broadcast_to(no_counts, ell.shape), 0.0, v) for v in (*bounds[:5], lam, qber_x))
    return ell, raw, s_x0, s_x1, s_z0, s_z1, v_z1, phi_x, lam, qber_x, reason
