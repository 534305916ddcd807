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
   bases' combinations, once per distinct estimator pair; this pair has
   no symmetry.  An estimator pair outside the decoy domain of
   ``channel.check_intensities`` counts as zero key at every point.

Each estimator pair's g^8 key lengths are then gathered from its distinct
results by index, one column at a time, so memory is O(g^8) and the
result covers all g^10 points, bit-identical to evaluating each of them.

The vacuum intensity is not varied: fluctuations of an (ideally) empty
pulse are already covered by the extraneous-count probability.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

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
    cand1 = model.candidates(params.mu[0]).tolist()
    cand2 = model.candidates(params.mu[1]).tolist()
    link = (channel.transmittance, channel.p_ec, channel.qber_i, channel.p_ap,
            channel.n_pulses)
    # one count row per distinct (min, max) mu1 pair and (min, max) mu2 pair
    # of a basis' two states, and the row of each state combination,
    # row-major over (s_mu1, s_mu2, t_mu1, t_mu2) for the basis' states s and t
    row = {}
    row_of = np.array([row.setdefault((min(s1, t1), max(s1, t1), min(s2, t2), max(s2, t2)),
                                      len(row))
                       for s1, s2, t1, t2 in itertools.product(cand1, cand2, cand1, cand2)])
    # each row holds the X-basis counts of its (H, V) and the Z-basis counts
    # of its (D, A)
    rows = [k.counts_core(params.pax, params.pbx, lo1, lo2, hi1, hi2, lo1, lo2, hi1, hi2,
                          mu3, p1, p2, p3, *link)
            for lo1, hi1, lo2, hi2 in row]
    lam = np.array([_count_leakage(c, sec)[0] for c in rows])[:, None]

    # X-basis rows down, Z-basis rows across, so the gathered (g^4, g^4)
    # block ravels row-major over GRID_DIMS[:8]
    gather = (row_of[:, None] * len(rows) + row_of[None, :]).ravel()
    counts = np.array(rows)
    n_x = tuple(counts[:, j, None] for j in range(0, 3))
    n_z = tuple(counts[None, :, j] for j in range(3, 6))
    m_z = tuple(counts[None, :, j] for j in range(9, 12))
    # estimator pairs are keyed by value too, and a pair's key lengths are
    # kept only until its last repeat
    estimators = list(itertools.product(cand1, cand2))
    uses = Counter(estimators)
    distinct_ell = {}
    for est in estimators:
        if est not in distinct_ell:
            distinct_ell[est] = k._ell_chain(
                n_x, n_z, m_z, (*est, mu3), params.p_mu, sec.beta, sec.eps, sec.pa_bits,
                lam)[0] if _decoy_domain(*est, mu3) else None
        uses[est] -= 1
        ell = distinct_ell[est] if uses[est] else distinct_ell.pop(est)
        yield np.zeros(gather.size) if ell is None else ell.ravel()[gather]


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
