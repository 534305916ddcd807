"""Worst-case key length under bounded pulse-intensity uncertainty.

Each of the four signal states (H, V, D, A) may emit its two non-vacuum
intensities anywhere inside ``[mu_j (1 - f), mu_j (1 + f)]``, independently
per state, and the receiver-side estimation chain likewise only knows its
own candidate pair from the same intervals.  With the default three grid
points per dimension the search evaluates the key length on all 3^10
combinations of interval endpoints and midpoints and reports the minimum,
which is the length that privacy amplification must assume.

The grid is evaluated with NumPy, in this order:

1. detection and error probabilities once per candidate intensity, with
   the scalar kernels, averaged over the two states of a basis into
   (g, g) tables;
2. per-basis counts: the X-basis counts depend only on the H and V
   intensities and the Z-basis counts only on the D and A intensities, so
   each basis has g^4 count vectors and the g^8 true-intensity
   combinations are their outer product;
3. the reconciliation leakage, with its inverse-binomial quantile, once
   per X-basis combination, since it depends on the X-basis totals alone;
4. the estimation chain once per estimator pair over the g^8 axis, so
   memory is O(g^8) although all g^10 points are evaluated.

Every expression mirrors :mod:`fsqkd._kernels` operation for operation,
with logarithms taken through libm, so each grid point's key length is
bit-identical to the scalar chain.

The vacuum intensity is not varied: fluctuations of an (ideally) empty
pulse are already covered by the extraneous-count probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels as k
from ._kernels import LN2
from ._quantile import binom_ppf
from .channel import ChannelConditions, ParameterError, ProtocolParams, check_range
from .finitekey import SecurityParams, _ec_mode, _key_chain

GRID_DIMS = ("h_mu1", "h_mu2", "v_mu1", "v_mu2", "d_mu1", "d_mu2",
             "a_mu1", "a_mu2", "est_mu1", "est_mu2")


@dataclass(frozen=True)
class IntensityUncertaintyModel:
    """Fractional intensity uncertainty around a nominal parameter point."""

    f: float
    nominal: ProtocolParams
    grid_points_per_dim: int = 3

    def __post_init__(self) -> None:
        check_range("f", self.f)
        check_range("grid_points_per_dim", self.grid_points_per_dim, "positive integer")
        if self.grid_points_per_dim < 2 and self.f > 0.0:
            raise ParameterError("need at least 2 grid points per dimension for f > 0")

    def candidates(self, mu: float) -> np.ndarray:
        """Candidate values for one intensity: endpoints and interior points.

        For an odd point count the exact nominal value sits in the middle.
        """
        g = self.grid_points_per_dim
        if g == 1 or self.f == 0.0:
            return np.full(max(g, 1), mu, dtype=float)
        fracs = 2.0 * np.arange(g) / (g - 1) - 1.0
        return mu * (1.0 + self.f * fracs)


@dataclass(frozen=True)
class WorstCaseResult:
    min_ell: int
    nominal_ell: int
    argmin: dict[str, float]
    argmin_index: int
    evaluations: int


def key_length_for_intensities(state_mu: dict[str, float],
                               params: ProtocolParams,
                               channel: ChannelConditions,
                               sec: SecurityParams,
                               ec_method: str = "binomial",
                               f_ec: float = 1.16) -> int:
    """Key length with explicit per-state true and estimator-side intensities.

    ``state_mu`` maps each name in ``GRID_DIMS`` to an intensity value;
    omitted names default to the nominal values in ``params``.
    """
    mu1, mu2, mu3 = params.mu
    vals = {"h_mu1": mu1, "v_mu1": mu1, "d_mu1": mu1, "a_mu1": mu1,
            "h_mu2": mu2, "v_mu2": mu2, "d_mu2": mu2, "a_mu2": mu2,
            "est_mu1": mu1, "est_mu2": mu2}
    for name, v in state_mu.items():
        if name not in vals:
            raise ParameterError(f"unknown intensity dimension {name!r}")
        vals[name] = float(v)
    ec_mode = _ec_mode(ec_method, f_ec)
    p1, p2, p3 = params.p_mu
    c = k.counts_core(params.pax, params.pbx,
                      vals["h_mu1"], vals["h_mu2"], vals["v_mu1"], vals["v_mu2"],
                      vals["d_mu1"], vals["d_mu2"], vals["a_mu1"], vals["a_mu2"],
                      mu3, p1, p2, p3,
                      channel.transmittance, channel.p_ec, channel.qber_i,
                      channel.p_ap, channel.n_pulses)
    out, _ = _key_chain(c, vals["est_mu1"], vals["est_mu2"], mu3, p1, p2, p3,
                        sec.beta, sec.eps_s, sec.eps_c, ec_mode, f_ec)
    return int(out[0])


# --- array mirror of the scalar chain ---------------------------------

def _libm_log(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.log`` of a 1-d array.

    NumPy's vectorized log differs from libm in the last bit on some
    inputs; going through ``math`` keeps the array chain bit-identical to
    the scalar kernels.
    """
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    """``binary_entropy`` over an array."""
    out = np.zeros(x.shape)
    inside = ~((x <= 0.0) | (x >= 1.0))
    xs = x[inside]
    out[inside] = -(xs * _libm_log(xs) + (1.0 - xs) * _libm_log(1.0 - xs)) / LN2
    return out


def _fluct_gamma(a: float, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``fluct_gamma`` over 1-d arrays ``b``, ``c`` and ``d``."""
    out = np.zeros(b.shape)
    valid = np.flatnonzero(~((b <= 0.0) | (b >= 1.0) | (c <= 0.0) | (d <= 0.0)))
    b, c, d = b[valid], c[valid], d[valid]
    t1 = (c + d) * (1.0 - b) * b / (c * d * LN2)
    arg = ((c + d) / (c * d * (1.0 - b) * b)) * (21.0 / a) ** 2
    above = ~(arg <= 1.0)
    v = t1[above] * _libm_log(arg[above]) / LN2
    out[valid[above]] = np.where(v <= 0.0, 0.0, np.sqrt(v))
    return out


def _scaled_bounds(c, mu, p_mu, beta):
    """``scaled_bounds_core`` over count arrays: ((lo1, lo2, lo3), (hi1, hi2, hi3))."""
    lo, hi = [], []
    for c_k, mu_k, p_k in zip(c, mu, p_mu):
        s = math.exp(mu_k) / p_k
        low = s * (c_k - (0.5 * beta + np.sqrt(2.0 * beta * c_k + 0.25 * beta * beta)))
        lo.append(np.where(low < 0.0, 0.0, low))
        hi.append(s * (c_k + (beta + np.sqrt(2.0 * beta * c_k + beta * beta))))
    return lo, hi


def _vacuum_bound(lo3, hi2, tau0, mu2, mu3, total):
    """``vacuum_bound_core`` over arrays."""
    s0 = tau0 * (mu2 * lo3 - mu3 * hi2) / (mu2 - mu3)
    s0 = np.where(s0 < 0.0, 0.0, s0)
    return np.where(s0 > total, total, s0)


def _single_photon_bound(lo2, hi3, hi1, s0, tau0, tau1, mu1, mu2, mu3, total):
    """``single_photon_bound_core`` over arrays."""
    den = mu1 * (mu2 - mu3) - mu2 * mu2 + mu3 * mu3
    num = lo2 - hi3 - ((mu2 * mu2 - mu3 * mu3) / (mu1 * mu1)) * (hi1 - s0 / tau0)
    s1 = tau1 * mu1 * num / den
    s1 = np.where(s1 < 0.0, 0.0, s1)
    cap = total - s0
    cap = np.where(cap < 0.0, 0.0, cap)
    return np.where(s1 > cap, cap, s1)


def bounds_ell_array(n_x, n_z, m_z, mu, p_mu, beta, eps_s, eps_c, lam):
    """``_kernels.bounds_ell_core`` over broadcasting count arrays.

    ``n_x``, ``n_z`` and ``m_z`` are per-intensity triples of expected
    counts (arrays or scalars that broadcast together); ``mu`` and ``p_mu``
    are the estimator's intensities and their probabilities.  ``lam`` is
    the reconciliation leakage of the same X-basis counts as
    ``ec_leakage_core`` returns it; it depends on the X-basis totals only,
    so callers evaluate it where those are few.  Quantities of one basis
    stay at that basis' shape until the two meet in the phase-error term.

    Every element equals the scalar kernel's result exactly.  Returns
    ``(ell, raw)``: the key length and the unfloored key expression.
    """
    mu1, mu2, mu3 = mu
    p1, p2, p3 = p_mu
    const = 6.0 * (math.log(21.0 / eps_s) / LN2) + (math.log(2.0 / eps_c) / LN2)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_x_tot = n_x[0] + n_x[1] + n_x[2]
        n_z_tot = n_z[0] + n_z[1] + n_z[2]
        nx_lo, nx_hi = _scaled_bounds(n_x, mu, p_mu, beta)
        nz_lo, nz_hi = _scaled_bounds(n_z, mu, p_mu, beta)
        mz_lo, mz_hi = _scaled_bounds(m_z, mu, p_mu, beta)

        tau0 = k.poisson_tau(0, mu1, mu2, mu3, p1, p2, p3)
        tau1 = k.poisson_tau(1, mu1, mu2, mu3, p1, p2, p3)

        s_x0 = _vacuum_bound(nx_lo[2], nx_hi[1], tau0, mu2, mu3, n_x_tot)
        s_z0 = _vacuum_bound(nz_lo[2], nz_hi[1], tau0, mu2, mu3, n_z_tot)
        s_x1 = _single_photon_bound(nx_lo[1], nx_hi[2], nx_hi[0], s_x0,
                                    tau0, tau1, mu1, mu2, mu3, n_x_tot)
        s_z1 = _single_photon_bound(nz_lo[1], nz_hi[2], nz_hi[0], s_z0,
                                    tau0, tau1, mu1, mu2, mu3, n_z_tot)

        v_z1 = tau1 * (mz_hi[1] - mz_lo[2]) / (mu2 - mu3)
        v_z1 = np.where(v_z1 < 0.0, 0.0, v_z1)

        ratio, s_z1, s_x1_full = np.broadcast_arrays(v_z1 / s_z1, s_z1, s_x1)
        no_single_photon = (s_x1_full <= 0.0) | (s_z1 <= 0.0)
        # phi_x is capped at 0.5 off the live points
        live = ~(no_single_photon | (ratio >= 0.5))
        b = ratio[live]
        phi_x = b + _fluct_gamma(eps_s + eps_c, b, s_z1[live], s_x1_full[live])
        h_phi = np.full(ratio.shape, k.binary_entropy(0.5))
        h_phi[live] = _binary_entropy(np.where(phi_x > 0.5, 0.5, phi_x))

        raw = s_x0 + s_x1 * (1.0 - h_phi) - lam - const
        no_counts = (n_x_tot <= 0.0) | (n_z_tot <= 0.0)
        raw = np.where(no_counts, -const, raw)
        ell = raw // 1.0
        ell = np.where(no_counts | no_single_photon | (ell <= 0.0), 0.0, ell)
    return ell, raw


def _basis_counts(d1, d2, e1, e2, d3, e3, sift, p1, p2, p3):
    """The per-basis block of ``counts_core`` over arrays.

    ``d1``, ``d2`` (``e1``, ``e2``) are the detection (error) probabilities
    of the basis' two signal intensities, averaged over its two states;
    ``d3`` and ``e3`` are the vacuum's.  Returns ((n1, n2, n3), (m1, m2, m3)).
    """
    n1 = sift * p1 * d1
    n2 = sift * p2 * d2
    n3 = np.full(d1.shape, sift * p3 * d3)
    sum_pd = p1 * d1 + p2 * d2 + p3 * d3
    sum_pe = p1 * e1 + p2 * e2 + p3 * e3
    detected = sum_pd > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        m_tot = (n1 + n2 + n3) * sum_pe / sum_pd
        m = tuple(np.where(detected, m_tot * p_k * d_k / sum_pd, 0.0)
                  for p_k, d_k in ((p1, d1), (p2, d2), (p3, d3)))
    return (n1, n2, n3), m


def grid_key_lengths(model: IntensityUncertaintyModel,
                     channel: ChannelConditions,
                     sec: SecurityParams,
                     ec_method: str = "binomial",
                     f_ec: float = 1.16) -> Iterator[np.ndarray]:
    """Key lengths over the uncertainty grid, one estimator pair at a time.

    Yields, for each estimator pair in row-major order over
    ``(est_mu1, est_mu2)``, the key lengths at all g^8 true-intensity
    combinations in row-major order over ``GRID_DIMS[:8]``.  Stacking the
    g^2 arrays as columns gives the whole grid in row-major order over
    ``GRID_DIMS``.
    """
    ec_mode = _ec_mode(ec_method, f_ec)
    params = model.nominal
    mu3 = params.mu[2]
    p1, p2, p3 = params.p_mu
    g = model.grid_points_per_dim
    cand1 = model.candidates(params.mu[0])
    cand2 = model.candidates(params.mu[1])
    p_d, p_ec, qber_i, p_ap = (channel.transmittance, channel.p_ec,
                               channel.qber_i, channel.p_ap)

    def det(mu):
        return k.detection_prob(mu, p_d, p_ec, p_ap)

    def err(mu):
        return k.error_prob(mu, p_d, p_ec, p_ap, qber_i)

    def pair_average(prob, cands, axes):
        # a basis' two-state average of one intensity's probability, spread
        # over that basis' axes (state one mu1, mu2, state two mu1, mu2)
        values = np.array([prob(mu) for mu in cands])
        table = 0.5 * (values[:, None] + values[None, :])
        return np.broadcast_to(table[axes], (g,) * 4).reshape(-1)

    mu1_axes = (slice(None), None, slice(None), None)
    mu2_axes = (None, slice(None), None, slice(None))
    det1, err1 = (pair_average(prob, cand1, mu1_axes) for prob in (det, err))
    det2, err2 = (pair_average(prob, cand2, mu2_axes) for prob in (det, err))

    # both bases see the same g^4 probability vectors; only sifting differs
    n_pulses = channel.n_pulses
    sift_x = params.pax * params.pbx * n_pulses
    sift_z = (1.0 - params.pax) * (1.0 - params.pbx) * n_pulses
    vacuum = (det(mu3), err(mu3))
    n_x, m_x = _basis_counts(det1, det2, err1, err2, *vacuum, sift_x, p1, p2, p3)
    n_z, m_z = _basis_counts(det1, det2, err1, err2, *vacuum, sift_z, p1, p2, p3)

    n_x_tot = n_x[0] + n_x[1] + n_x[2]
    counted = n_x_tot > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        qber_x = np.where(counted, (m_x[0] + m_x[1] + m_x[2]) / n_x_tot, 0.0)
    f_inv = np.zeros(n_x_tot.shape)
    if ec_mode == 0:
        erred = counted & (qber_x > 0.0)
        if np.any(erred):
            f_inv[erred] = binom_ppf(sec.eps_c, n_x_tot[erred],
                                     1.0 - np.minimum(qber_x[erred], 0.5))
    lam = np.array([k.ec_leakage_core(n, q, sec.eps_c, ec_mode, f_ec, fi)
                    for n, q, fi in zip(n_x_tot.tolist(), qber_x.tolist(), f_inv.tolist())])

    # X-basis combinations down the rows, Z-basis ones across the columns:
    # raveled, the (g^4, g^4) result is row-major over GRID_DIMS[:8]
    n_x = tuple(a[:, None] for a in n_x)
    n_z = tuple(a[None, :] for a in n_z)
    m_z = tuple(a[None, :] for a in m_z)
    lam = lam[:, None]
    for est1 in cand1:
        for est2 in cand2:
            ell, _ = bounds_ell_array(n_x, n_z, m_z, (est1, est2, mu3), params.p_mu,
                                      sec.beta, sec.eps_s, sec.eps_c, lam)
            yield ell.ravel()


def worst_case_key_length(model: IntensityUncertaintyModel,
                          channel: ChannelConditions,
                          sec: SecurityParams,
                          ec_method: str = "binomial",
                          f_ec: float = 1.16) -> WorstCaseResult:
    """Minimum key length over the full intensity-uncertainty grid.

    The grid is ordered row-major over ``GRID_DIMS``; ties in the minimum
    keep the first point in that order.  All g^10 points are evaluated and
    counted.
    """
    g = model.grid_points_per_dim
    mins = []
    evaluations = 0
    for ell in grid_key_lengths(model, channel, sec, ec_method, f_ec):
        t = int(np.argmin(ell))
        mins.append((ell[t], t))
        evaluations += ell.size
    min_ell = min(m for m, _ in mins)
    argmin_idx = min(t * g * g + e for e, (m, t) in enumerate(mins) if m == min_ell)

    params = model.nominal
    cand1 = model.candidates(params.mu[0])
    cand2 = model.candidates(params.mu[1])
    digits = np.unravel_index(argmin_idx, (g,) * len(GRID_DIMS))
    argmin = {}
    for name, digit in zip(GRID_DIMS, digits):
        cands = cand1 if name.endswith("mu1") else cand2
        argmin[name] = float(cands[digit])

    nominal_ell = key_length_for_intensities({}, params, channel, sec,
                                             ec_method=ec_method, f_ec=f_ec)
    return WorstCaseResult(min_ell=int(min_ell), nominal_ell=nominal_ell,
                           argmin=argmin, argmin_index=argmin_idx,
                           evaluations=evaluations)
