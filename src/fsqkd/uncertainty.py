"""Worst-case key length under bounded pulse-intensity uncertainty.

Each of the four signal states (H, V, D, A) may emit its two non-vacuum
intensities anywhere inside ``[mu_j (1 - f), mu_j (1 + f)]``, independently
per state, and the receiver-side estimation chain likewise only knows its
own candidate pair from the same intervals.  With the default three grid
points per dimension the search evaluates the key length on all 3^10
combinations of interval endpoints and midpoints and reports the minimum,
which is the length that privacy amplification must assume.

Only the grid's distinct points are evaluated, each keyed by value, so
at f = 0 the whole grid is one point, the nominal one.  A basis' two
states enter its counts only through the mean of their statistics,
``0.5 * (a + b)`` per intensity, which is the same float in either order,
so a basis' counts depend only on its states' ``(min, max)`` mu1 pair and
``(min, max)`` mu2 pair: (g (g + 1) / 2)^2 = 36 combinations at g = 3,
against g^4 = 81.  The distinct points are evaluated in this order:

1. expected counts, from ``_kernels.counts_core`` on Python floats, one
   call per pair combination.  The X-basis counts depend only on the H
   and V intensities and the Z-basis counts only on the D and A ones, so
   one call gives both bases' counts at that combination, and the
   distinct true-intensity points are the outer product of the two;
2. the reconciliation leakage, with its inverse-binomial quantile, from
   ``finitekey._count_leakage`` once per X-basis combination, since it
   depends on the X-basis totals alone;
3. the estimation chain, ``_kernels._ell_chain`` (the array twin of
   ``bounds_ell_core`` up to ``ell``), over the outer product of both
   bases' combinations, once per block of distinct estimator pairs; this
   pair has no symmetry.  A pair outside the decoy domain of
   ``channel.check_intensities`` is not evaluated: it counts as zero key.

A distinct point stands for the grid points that give its X-basis row,
Z-basis row and estimator pair, a product set, so its least grid index is
``(first_x * g^4 + first_z) * g^2 + first_est`` from the first index of
each; the least key length at the least such index is that of all g^10
points.  With rows count combinations the table holds g^2 rows^2 entries
at most (11,664 at g = 3) and a chain call, over a block of g^8 // rows^2
pairs or one, at most g^8; no g^8 array is kept.

The vacuum intensity is not varied: fluctuations of an (ideally) empty
pulse are already covered by the extraneous-count probability.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels as k
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
        check_integer("grid_points_per_dim", self.grid_points_per_dim, "grid points")
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


def _distinct_grid(model: IntensityUncertaintyModel,
                   channel: ChannelConditions,
                   sec: SecurityParams) -> tuple[np.ndarray, np.ndarray]:
    """Key lengths at the grid's distinct points, and each point's first grid index.

    Both arrays are indexed (estimator pair, X-basis row, Z-basis row), each
    distinct value in order of first appearance.  A pair outside the decoy
    domain gets zeros without evaluating the chain.
    """
    params = model.nominal
    g = model.grid_points_per_dim
    mu3 = params.mu[2]
    cand1 = model.candidates(params.mu[0]).tolist()
    cand2 = model.candidates(params.mu[1]).tolist()
    # one count row per distinct (min, max) mu1 and mu2 pair of a basis' two
    # states s and t, and one estimator pair per distinct value, each keyed to
    # its first index row-major over (s_mu1, s_mu2, t_mu1, t_mu2) or GRID_DIMS[8:]
    row, est = {}, {}
    for i, (s1, s2, t1, t2) in enumerate(itertools.product(cand1, cand2, cand1, cand2)):
        row.setdefault((min(s1, t1), max(s1, t1), min(s2, t2), max(s2, t2)), i)
    for i, pair in enumerate(itertools.product(cand1, cand2)):
        est.setdefault(pair, i)
    # each row holds the X-basis counts of its (H, V) and the Z-basis counts
    # of its (D, A)
    rows = [k.counts_core(params.pax, params.pbx, lo1, lo2, hi1, hi2, lo1, lo2, hi1, hi2,
                          mu3, *params.p_mu, channel.transmittance, channel.p_ec,
                          channel.qber_i, channel.p_ap, channel.n_pulses)
            for lo1, hi1, lo2, hi2 in row]
    lam = np.array([_count_leakage(c, sec)[0] for c in rows])[:, None]

    # X-basis rows down, Z-basis rows across
    cols = np.array(rows).T
    n_x, n_z, m_z = cols[0:3, :, None], cols[3:6, None, :], cols[9:12, None, :]
    # blocks of the pairs in the decoy domain, at most g^8 points each
    inside = [j for j, pair in enumerate(est) if _decoy_domain(*pair, mu3)]
    est_mu1, est_mu2 = np.reshape(list(est), (-1, 2))[inside].T[..., None, None]
    ell = np.zeros((len(est), len(row), len(row)))
    step = max(1, g ** 8 // len(row) ** 2)
    for i in range(0, len(inside), step):
        ell[inside[i:i + step]] = k._ell_chain(
            n_x, n_z, m_z, (est_mu1[i:i + step], est_mu2[i:i + step], mu3), params.p_mu,
            sec.beta, sec.eps, sec.pa_bits, lam)[0]
    first_row = np.array(list(row.values())) * g * g
    first = np.add.outer(list(est.values()), np.add.outer(first_row * g ** 4, first_row))
    return ell, first


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
    ell, first = _distinct_grid(model, channel, sec)
    min_ell = ell.min()
    argmin_idx = int(first[ell == min_ell].min())

    params = model.nominal
    cands = (model.candidates(params.mu[0]), model.candidates(params.mu[1])) * 5
    digits = np.unravel_index(argmin_idx, (g,) * len(GRID_DIMS))
    argmin = {name: float(c[d]) for name, c, d in zip(GRID_DIMS, cands, digits)}
    nominal_ell = key_length_for_intensities({}, params, channel, sec)
    return WorstCaseResult(min_ell=int(min_ell), nominal_ell=nominal_ell,
                           argmin=argmin, argmin_index=argmin_idx,
                           evaluations=g ** len(GRID_DIMS))
