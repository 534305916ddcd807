"""Worst-case key length under bounded pulse-intensity uncertainty.

Each of the four signal states (H, V, D, A) may emit its two non-vacuum
intensities anywhere inside ``[mu_j (1 - f), mu_j (1 + f)]``, independently
per state, and the receiver-side estimation chain likewise only knows its
own candidate pair from the same intervals.  With the default three grid
points per dimension the search covers all 3^10 combinations of interval
endpoints and midpoints and reports the least key length, the length
that privacy amplification must assume; at f = 0 that is the nominal one.

A basis' counts depend on its two states only through the mean of their
statistics, so only on their ``(min, max)`` mu1 and mu2 pairs: R =
(g (g + 1) / 2)^2 rows, 36 at g = 3.  One ``_kernels.counts_array`` call
gives every row's counts for both bases, and one
``finitekey._count_leakage_array`` call (``_count_leakage``'s code) their
leakage.  The decoy bounds (``_kernels._chain_bounds``) run once over
every distinct estimator pair in the decoy domain of
``channel.check_intensities``; a pair outside it gives zero key.  A
point (X row, Z row, pair) stands for a product set of grid points, so
its first grid index is ``(first_x * g^4 + first_z) * g^2 + first_est``.

The key stage (``_kernels._chain_key``) runs on few of the g^2 R^2
points (11,664 at g = 3).  For one pair and X row, ``raw`` falls as the
phase error phi = ratio + gamma, ``ratio = v_z1 / s_z1``, grows to 0.5:

1. ``raw`` does not decrease as ``s_z1`` grows, as gamma falls.
2. It does not increase as the ratio grows where gamma's log argument is
   above e: gamma^2 is ``t x log(a / x)`` in ``x = ratio (1 - ratio)``,
   which grows with x where ``a / x > e``, and x grows with the ratio
   below 0.5.  As ``x < 1/4`` and ``a > (21 / eps)^2 / s_z1``, that holds
   for every ``s_z1 <= 4 (21 / eps)^2 / e``, about 6.5e20 at the default eps.
3. So Z row a is no better than row b if ``s_z1[a] <= s_z1[b]``,
   ``ratio[a] >= ratio[b]`` and ``s_z1[a]`` is at most that threshold; a
   row with ``s_z1 = 0`` gives 0 key.  Row a rules b out if it is also
   strictly worse in one value, or equal in both with a lower first index.
   A pair's Z front, the rows nothing rules out, holds a row no better
   than each row it drops, so the grid minimum M is that of one call over
   every X row against each pair's front.  Above the threshold a row rules
   nothing out; many kept rows split the call into calls of at most g^8.
4. As ``first_z < g^4`` and ``first_est < g^2``, the first index orders
   points as (first_x, first_z, first_est) does, and the X rows are in
   first-index order.  So the argmin lies on x*, the first X row whose
   values reach M, and a second call, x* against every Z row and pair,
   gives it as the least first index with ``ell == M``, M = 0 included:
   a pair outside the domain gives 0 on every X row.

Steps 1 to 3 hold for the exact expressions; the tests check the rounded
ones against the full grid.  The vacuum intensity is not varied: its
fluctuations are covered by the extraneous-count probability.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels as k
from .channel import (ChannelConditions, ParameterError, ProtocolParams, check_integer,
                      check_intensities, check_range)
from .finitekey import SecurityParams, _count_leakage_array, _key_chain

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
        check_integer("grid_points_per_dim", self.grid_points_per_dim, "grid points")
        if self.grid_points_per_dim < 2 and self.f > 0.0:
            raise ParameterError("need at least 2 grid points per dimension for f > 0")

    def candidates(self, mu: float) -> np.ndarray:
        """Candidate values for one intensity: endpoints and interior points.

        For an odd point count the exact nominal value sits in the middle.
        """
        g = self.grid_points_per_dim
        if self.f == 0.0:
            return np.full(g, mu, dtype=float)
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
    vals = dict(zip(GRID_DIMS, (mu1, mu2) * 5))  # GRID_DIMS alternates mu1 and mu2
    for name, v in state_mu.items():
        if name not in vals:
            raise ParameterError(f"unknown intensity dimension {name!r}")
        check_range(name, v, "non-negative")
        vals[name] = float(v)
    if not _decoy_domain(vals["est_mu1"], vals["est_mu2"], mu3):
        return 0
    c = k.counts_core(params.pax, params.pbx, *(vals[name] for name in GRID_DIMS[:8]),
                      mu3, *params.p_mu, channel.transmittance, channel.p_ec,
                      channel.qber_i, channel.p_ap, channel.n_pulses)
    out, _ = _key_chain(c, vals["est_mu1"], vals["est_mu2"], mu3, *params.p_mu, sec)
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


def _grid_minimum(model: IntensityUncertaintyModel, channel: ChannelConditions,
                  sec: SecurityParams) -> tuple[float, int]:
    """The grid's least key length and its first grid index, by steps 1 to 4."""
    params, g = model.nominal, model.grid_points_per_dim
    mu3 = params.mu[2]
    cand1, cand2 = (model.candidates(mu).tolist() for mu in params.mu[:2])
    # count rows and estimator pairs, each keyed to its first index row-major
    # over a basis' (s_mu1, s_mu2, t_mu1, t_mu2) or over GRID_DIMS[8:]
    row, est = {}, {}
    for i, (s1, s2, t1, t2) in enumerate(itertools.product(cand1, cand2, cand1, cand2)):
        row.setdefault((min(s1, t1), max(s1, t1), min(s2, t2), max(s2, t2)), i)
    for i, pair in enumerate(itertools.product(cand1, cand2)):
        est.setdefault(pair, i)
    # both bases send the row's pairs, so Z reuses the X statistics
    lo1, hi1, lo2, hi2 = np.array(list(row)).T
    counts = k.counts_array(params.pax, params.pbx, lo1, lo2, hi1, hi2, lo1, lo2, hi1, hi2,
                            mu3, *params.p_mu, channel.transmittance, channel.p_ec,
                            channel.qber_i, channel.p_ap, channel.n_pulses)
    lam = _count_leakage_array(counts, sec)[0][:, None]

    # X-basis rows down, Z-basis rows across, the pairs in the decoy domain ahead
    cols = np.array(np.broadcast_arrays(*counts))
    n_x, n_z, m_z = cols[0:3, :, None], cols[3:6, None, :], cols[9:12, None, :]
    inside = [j for j, pair in enumerate(est) if _decoy_domain(*pair, mu3)]
    est_mu1, est_mu2 = np.reshape(list(est), (-1, 2))[inside].T[..., None, None]
    s_x0, s_x1, _, s_z1, _, ratio = k._chain_bounds(n_x, n_z, m_z, (est_mu1, est_mu2, mu3),
                                                    params.p_mu, sec.beta)

    def key(x, p, z):
        """``ell`` at the X rows ``x`` (down) against the points (pair ``p``, Z row ``z``)."""
        bounds = (s_x0[p, x, 0].T, s_x1[p, x, 0].T, None, s_z1[p, 0, z], None, ratio[p, 0, z])
        return k._chain_key(n_x[:, x], n_z[:, 0, z], bounds, sec.eps, sec.pa_bits, lam[x])[0]

    # Z row a (down) against row b (across), per pair
    a_s, a_r, index = s_z1[:, 0, :, None], ratio[:, 0, :, None], np.arange(len(row))
    no_better = (a_s <= s_z1) & (a_r >= ratio) & (a_s <= 4.0 * (21.0 / sec.eps) ** 2 / np.e)
    rules_out = no_better & ((a_s < s_z1) | (a_r > ratio) | (index[:, None] < index))
    p, z = np.nonzero(~rules_out.any(axis=1))
    step = g ** 8 // len(row)
    ell = np.concatenate([np.zeros((len(row), len(est) - len(inside)))] + [
        key(slice(None), p[i:i + step], z[i:i + step]) for i in range(0, p.size, step)], axis=1)
    min_ell = ell.min()
    x = np.nonzero(ell == min_ell)[0][0]
    at_x = np.zeros((len(est), len(row)))
    p, z = np.indices((len(inside), len(row))).reshape(2, -1)
    at_x[inside] = key(slice(x, x + 1), p, z).reshape(-1, len(row))
    first_row = np.array(list(row.values())) * g * g
    first = np.add.outer(list(est.values()), first_row[x] * g ** 4 + first_row)
    return min_ell, int(first[at_x == min_ell].min())


def worst_case_key_length(model: IntensityUncertaintyModel,
                          channel: ChannelConditions,
                          sec: SecurityParams) -> WorstCaseResult:
    """Minimum key length over the full intensity-uncertainty grid, ordered
    row-major over ``GRID_DIMS``; ties keep the first point in that order.
    ``evaluations`` counts the g^10 grid points."""
    params, g = model.nominal, model.grid_points_per_dim
    nominal_ell = key_length_for_intensities({}, params, channel, sec)
    min_ell, argmin_idx = ((nominal_ell, 0) if model.f == 0.0
                           else _grid_minimum(model, channel, sec))
    cands = (model.candidates(params.mu[0]), model.candidates(params.mu[1])) * 5
    digits = np.unravel_index(argmin_idx, (g,) * len(GRID_DIMS))
    argmin = {name: float(c[d]) for name, c, d in zip(GRID_DIMS, cands, digits)}
    return WorstCaseResult(min_ell=int(min_ell), nominal_ell=nominal_ell,
                           argmin=argmin, argmin_index=argmin_idx,
                           evaluations=g ** len(GRID_DIMS))
