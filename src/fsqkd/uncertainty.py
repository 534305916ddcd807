"""Worst-case key length under bounded pulse-intensity uncertainty.

Each of the four signal states (H, V, D, A) may emit its two non-vacuum
intensities anywhere inside ``[mu_j (1 - f), mu_j (1 + f)]``, independently
per state, and the receiver-side estimation chain likewise only knows its
own candidate pair from the same intervals.  With the default three grid
points per dimension the search evaluates the key length on all 3^10
combinations of interval endpoints and midpoints and reports the minimum,
which is the length that privacy amplification must assume.

Only the grid's distinct points are evaluated.  Each intensity axis is
keyed by its distinct candidate values, so at f = 0 the whole grid is
one point, the nominal one.  A basis' two states enter its counts only through the mean
of their statistics, ``0.5 * (a + b)`` per intensity, which is the same
float in either order, so a basis' counts depend only on the unordered
pair of its states' mu1 values and the unordered pair of their mu2
values: (g (g + 1) / 2)^2 = 36 combinations at g = 3, against g^4 = 81.
The distinct points are evaluated in this order:

1. expected counts, from ``_kernels.counts_core`` on Python floats, one
   call per pair combination.  The X-basis counts depend only on the H
   and V intensities and the Z-basis counts only on the D and A ones, so
   one call gives both bases' counts at that combination, and the
   distinct true-intensity points are the outer product of the two;
2. the reconciliation leakage, with its inverse-binomial quantile, from
   ``finitekey._count_leakage`` once per X-basis combination, since it
   depends on the X-basis totals alone;
3. the estimation chain, ``_ell_chain``, once per distinct estimator
   pair; this pair has no symmetry.  An estimator pair outside the decoy
   domain of ``channel.check_intensities`` counts as zero key at every
   point.

Each estimator pair's g^8 key lengths are then gathered from its distinct
results by index, one column at a time, so memory is O(g^8) and the
result covers all g^10 points, bit-identical to evaluating each of them.

Counts and leakage come from the scalar chain itself.  Only the
estimation chain has an array twin, because only it runs over the outer
product of both bases' combinations; it mirrors
``_kernels.bounds_ell_core`` function for function (one ``_basis_bounds``
per basis for ``basis_bounds_core``, and one array function for each
scalar step below it) and operation for operation, with logarithms taken
through libm, so every element is bit-identical to the scalar chain.
Its whole record, ``bounds_ell_array``, also runs fixed-parameter sweeps;
the grid takes ``ell`` alone, from ``_ell_chain``.

The vacuum intensity is not varied: fluctuations of an (ideally) empty
pulse are already covered by the extraneous-count probability.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels as k
from ._kernels import LN2
from .channel import (ChannelConditions, ParameterError, ProtocolParams, check_integer,
                      check_intensities, check_range)
from .finitekey import SecurityParams, _count_leakage, _key_chain

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
        check_integer("grid_points_per_dim", self.grid_points_per_dim, "positive integer")
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
                               sec: SecurityParams) -> int:
    """Key length with explicit per-state true and estimator-side intensities.

    ``state_mu`` maps each name in ``GRID_DIMS`` to a mean photon number,
    in the ``non-negative`` domain; omitted names default to the nominal
    values in ``params``.  An estimator pair outside the decoy domain
    gives 0 key.
    """
    mu1, mu2, mu3 = params.mu
    vals = {"h_mu1": mu1, "v_mu1": mu1, "d_mu1": mu1, "a_mu1": mu1,
            "h_mu2": mu2, "v_mu2": mu2, "d_mu2": mu2, "a_mu2": mu2,
            "est_mu1": mu1, "est_mu2": mu2}
    for name, v in state_mu.items():
        if name not in vals:
            raise ParameterError(f"unknown intensity dimension {name!r}")
        check_range(name, v, "non-negative")
        vals[name] = float(v)
    if not _decoy_domain(vals["est_mu1"], vals["est_mu2"], mu3):
        return 0
    p1, p2, p3 = params.p_mu
    c = k.counts_core(params.pax, params.pbx,
                      vals["h_mu1"], vals["h_mu2"], vals["v_mu1"], vals["v_mu2"],
                      vals["d_mu1"], vals["d_mu2"], vals["a_mu1"], vals["a_mu2"],
                      mu3, p1, p2, p3,
                      channel.transmittance, channel.p_ec, channel.qber_i,
                      channel.p_ap, channel.n_pulses)
    out, _ = _key_chain(c, vals["est_mu1"], vals["est_mu2"], mu3, p1, p2, p3, sec)
    return int(out[0])


def _decoy_domain(mu1: float, mu2: float, mu3: float) -> bool:
    """Whether an estimator pair meets ``channel.check_intensities``.

    The receiver cannot run the decoy analysis (Lim et al., PRA 89, 032332
    (2014)) with a pair outside that domain, so such a pair counts as zero
    key, the conservative choice.
    """
    try:
        check_intensities((mu1, mu2, mu3))
    except ParameterError:
        return False
    return True


# --- array mirror of the scalar estimation chain -----------------------

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


def _scaled_bounds(c, scales, beta):
    """``scaled_bounds_core`` over count arrays: ((lo1, lo2, lo3), (hi1, hi2, hi3))."""
    lo, hi = [], []
    for c_k, s in zip(c, scales):
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


def _basis_bounds(c, total, mu, scales, beta, tau0, tau1):
    """``basis_bounds_core`` over arrays: (s0, s1)."""
    mu1, mu2, mu3 = mu
    lo, hi = _scaled_bounds(c, scales, beta)
    s0 = _vacuum_bound(lo[2], hi[1], tau0, mu2, mu3, total)
    return s0, _single_photon_bound(lo[1], hi[2], hi[0], s0, tau0, tau1, mu1, mu2, mu3, total)


def _ell_chain(n_x, n_z, m_z, mu, p_mu, beta, eps, pa_bits, lam):
    """``bounds_ell_array`` up to ``ell``: ``(ell, raw, parts)``; the grid needs no more."""
    mu1, mu2, mu3 = mu
    with np.errstate(divide="ignore", invalid="ignore"):
        n_x_tot = n_x[0] + n_x[1] + n_x[2]
        n_z_tot = n_z[0] + n_z[1] + n_z[2]

        tau0, tau1, *scales = k.intensity_terms(*mu, *p_mu)

        s_x0, s_x1 = _basis_bounds(n_x, n_x_tot, mu, scales, beta, tau0, tau1)
        s_z0, s_z1 = _basis_bounds(n_z, n_z_tot, mu, scales, beta, tau0, tau1)
        mz_lo, mz_hi = _scaled_bounds(m_z, scales, beta)

        v_z1 = tau1 * (mz_hi[1] - mz_lo[2]) / (mu2 - mu3)
        v_z1 = np.where(v_z1 < 0.0, 0.0, v_z1)

        ratio, s_z1_full, s_x1_full = np.broadcast_arrays(v_z1 / s_z1, s_z1, s_x1)
        no_single_photon = (s_x1_full <= 0.0) | (s_z1_full <= 0.0)
        # phi_x is capped at 0.5 off the live points
        live = ~(no_single_photon | (ratio >= 0.5))
        b = ratio[live]
        phi_x = b + _fluct_gamma(eps, b, s_z1_full[live], s_x1_full[live])
        phi_x = np.where(phi_x > 0.5, 0.5, phi_x)
        h_phi = np.full(ratio.shape, k.binary_entropy(0.5))
        h_phi[live] = _binary_entropy(phi_x)

        raw = s_x0 + s_x1 * (1.0 - h_phi) - lam - pa_bits
        no_counts = (n_x_tot <= 0.0) | (n_z_tot <= 0.0)
        raw = np.where(no_counts, -pa_bits, raw)
        ell = raw // 1.0
        ell = np.where(no_counts | no_single_photon | (ell <= 0.0), 0.0, ell)
    return ell, raw, (no_counts, no_single_photon, live, phi_x, (s_x0, s_x1, s_z0, s_z1, v_z1))


def bounds_ell_array(n_x, n_z, m_x, m_z, mu, p_mu, beta, eps, pa_bits, lam):
    """``_kernels.bounds_ell_core`` over broadcasting count arrays: its whole
    11-field record, with its zero-count tuple where a basis has no counts,
    every element equal to the scalar kernel's.

    ``n_x``, ``n_z``, ``m_x`` and ``m_z`` are per-intensity count triples
    (arrays or scalars that broadcast together), ``mu`` and ``p_mu`` the
    estimator's intensities and probabilities, ``eps`` and ``pa_bits`` the
    ``SecurityParams`` ones, and ``lam`` the leakage of the same X-basis
    counts from ``finitekey._leakage``.  A basis' values keep its shape
    until the two meet in the phase-error term.
    """
    ell, raw, (no_counts, no_single_photon, live, phi_live, bounds) = _ell_chain(
        n_x, n_z, m_z, mu, p_mu, beta, eps, pa_bits, lam)
    phi_x = np.full(ell.shape, 0.5)
    phi_x[live] = phi_live
    qber_x = (m_x[0] + m_x[1] + m_x[2]) / np.where(no_counts, 1.0, n_x[0] + n_x[1] + n_x[2])
    reason = np.select([no_counts, no_single_photon, ell <= 0.0], [
        k.REASON_ZERO_COUNTS, k.REASON_NO_SINGLE_PHOTON, k.REASON_NEGATIVE_KEY], k.REASON_OK)
    s_x0, s_x1, s_z0, s_z1, v_z1, lam, qber_x = (
        np.where(no_counts, 0.0, v) for v in (*bounds, lam, qber_x))
    return ell, raw, s_x0, s_x1, s_z0, s_z1, v_z1, phi_x, lam, qber_x, reason


def grid_key_lengths(model: IntensityUncertaintyModel,
                     channel: ChannelConditions,
                     sec: SecurityParams) -> Iterator[np.ndarray]:
    """Key lengths over the uncertainty grid, one estimator pair at a time.

    Yields, for each estimator pair in row-major order over
    ``(est_mu1, est_mu2)``, the key lengths at all g^8 true-intensity
    combinations in row-major order over ``GRID_DIMS[:8]``.  Stacking the
    g^2 arrays as columns gives the whole grid in row-major order over
    ``GRID_DIMS``.  The chain runs once per distinct point (see the module
    docstring) and each array is gathered from it.  An estimator pair
    outside the decoy domain yields zeros without evaluating the chain.
    """
    params = model.nominal
    mu3 = params.mu[2]
    p1, p2, p3 = params.p_mu
    vals1, idx1 = _distinct(model.candidates(params.mu[0]).tolist())
    vals2, idx2 = _distinct(model.candidates(params.mu[1]).tolist())
    pairs1, pair_of1 = _pairs(vals1, idx1)
    pairs2, pair_of2 = _pairs(vals2, idx2)
    link = (channel.transmittance, channel.p_ec, channel.qber_i, channel.p_ap,
            channel.n_pulses)
    # row r = i * len(pairs2) + j holds the X-basis counts of every (H, V)
    # whose mu1 values form pair i and mu2 values pair j, and the Z-basis
    # counts of every such (D, A)
    rows = [k.counts_core(params.pax, params.pbx, a1, a2, b1, b2, a1, a2, b1, b2,
                          mu3, p1, p2, p3, *link)
            for (a1, b1), (a2, b2) in itertools.product(pairs1, pairs2)]
    lam = np.array([_count_leakage(c, sec)[0] for c in rows])[:, None]

    # the row of each state combination, row-major over (s_mu1, s_mu2, t_mu1,
    # t_mu2) for the basis' states s and t; X-basis rows down, Z-basis rows
    # across, so the gathered (g^4, g^4) block ravels row-major over GRID_DIMS[:8]
    row_of = (pair_of1[:, None, :, None] * len(pairs2) + pair_of2[None, :, None, :]).ravel()
    gather = (row_of[:, None] * len(rows) + row_of[None, :]).ravel()
    counts = np.array(rows)
    n_x = tuple(counts[:, j, None] for j in range(0, 3))
    n_z = tuple(counts[None, :, j] for j in range(3, 6))
    m_z = tuple(counts[None, :, j] for j in range(9, 12))
    # an estimator pair's key lengths are kept only until its last repeat
    uses = Counter(itertools.product(idx1, idx2))
    distinct_ell = {}
    for e1, e2 in itertools.product(idx1, idx2):
        if (e1, e2) not in distinct_ell:
            est1, est2 = vals1[e1], vals2[e2]
            ell = None
            if _decoy_domain(est1, est2, mu3):
                ell, _, _ = _ell_chain(n_x, n_z, m_z, (est1, est2, mu3), params.p_mu,
                                       sec.beta, sec.eps, sec.pa_bits, lam)
            distinct_ell[e1, e2] = ell
        uses[e1, e2] -= 1
        ell = distinct_ell[e1, e2] if uses[e1, e2] else distinct_ell.pop((e1, e2))
        yield np.zeros(gather.size) if ell is None else ell.ravel()[gather]


def _distinct(values: list[float]) -> tuple[list[float], list[int]]:
    """The distinct values in first-seen order, and the index of each value
    among them."""
    distinct = list(dict.fromkeys(values))
    return distinct, [distinct.index(v) for v in values]


def _pairs(distinct: list[float], idx: list[int]) -> tuple[list, np.ndarray]:
    """The unordered pairs of ``distinct`` values, and the ``(g, g)`` map
    from two states' candidate indices to the number of their pair.

    The two states of a basis enter its counts only through the mean of
    their statistics, ``0.5 * (a + b)``, which is the same float in either
    order, so one pair's counts serve both orders bit for bit.
    """
    n = len(distinct)
    number = {pair: i for i, pair in enumerate(
        (a, b) for a in range(n) for b in range(a, n))}
    pairs = [(distinct[a], distinct[b]) for a, b in number]
    return pairs, np.array([[number[min(a, b), max(a, b)] for b in idx] for a in idx])


def worst_case_key_length(model: IntensityUncertaintyModel,
                          channel: ChannelConditions,
                          sec: SecurityParams) -> WorstCaseResult:
    """Minimum key length over the full intensity-uncertainty grid.

    The grid is ordered row-major over ``GRID_DIMS``; ties in the minimum
    keep the first point in that order.  Each distinct point is evaluated
    once and its key length stands for every grid point equal to it, so
    the minimum and its first index are those of all g^10 points;
    ``evaluations`` counts the grid points covered, g^10.
    """
    g = model.grid_points_per_dim
    mins = []
    evaluations = 0
    for ell in grid_key_lengths(model, channel, sec):
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

    nominal_ell = key_length_for_intensities({}, params, channel, sec)
    return WorstCaseResult(min_ell=int(min_ell), nominal_ell=nominal_ell,
                           argmin=argmin, argmin_index=argmin_idx,
                           evaluations=evaluations)
