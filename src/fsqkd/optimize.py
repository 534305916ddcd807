"""Protocol-parameter optimization of the secure key length.

Three regimes are supported, mirroring how much of the hardware is fixed
at production time:

* ``full``             -- symmetric basis bias (pbx tied to pax) plus free
                          intensity probabilities and intensities,
* ``fixed_pbx``        -- receiver bias fixed (passive beamsplitter), the
                          transmitter bias and source settings free,
* ``fixed_pbx_and_mu`` -- receiver bias and intensities fixed, only the
                          transmitter-side probabilities free.

The search runs a bounded Nelder-Mead simplex on smooth reparameterized
coordinates (logistic transforms for probabilities, an ordered ratio for
the intensity pair), multi-started from a deterministic Halton sequence.
The objective is the unfloored key expression, which keeps slope
information on the zero-key plateau; reported key lengths are the floored
values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .channel import (DOMAIN, ChannelConditions, ParameterError, ProtocolParams,
                      check_integer, check_intensities, check_range)
from .finitekey import KeyLengthResult, SecurityParams, _evaluate_flat, key_length_for_channel


class Regime(str, Enum):
    FULL = "full"
    FIXED_PBX = "fixed_pbx"
    FIXED_PBX_AND_MU = "fixed_pbx_and_mu"


@dataclass(frozen=True)
class OptimizationSpec:
    """Search configuration for one optimization run.

    Bounds keep probabilities inside ``prob_bounds`` and searched
    intensities inside ``intensity_bounds``; the intensity ordering
    constraints are built into the coordinate transform.  ``mu3`` stays
    fixed at its configured floor during the search, and must leave some
    start point a feasible intensity pair.  A ``pbx`` or ``mu`` that is
    given is checked in every regime.
    """

    regime: Regime = Regime.FULL
    pbx: float | None = None
    mu: tuple[float, float, float] | None = None
    mu3: float = 1e-9
    restarts: int = 8
    seed: int = 0
    tolerance: float = 1e-5
    max_evals_per_restart: int = 2000
    prob_bounds: tuple[float, float] = (0.001, 0.999)
    intensity_bounds: tuple[float, float] = (1e-4, 1.0)

    def __post_init__(self) -> None:
        regime = Regime(self.regime)
        object.__setattr__(self, "regime", regime)
        if self.pbx is not None:
            check_range("pbx", self.pbx, "basis probability")
        elif regime is not Regime.FULL:
            raise ParameterError(f"regime {regime.value} requires pbx")
        if self.mu is not None:
            check_intensities(self.mu)
        elif regime is Regime.FIXED_PBX_AND_MU:
            raise ParameterError("regime fixed_pbx_and_mu requires a fixed intensity triple")
        check_range("mu3", self.mu3, "intensity")
        check_integer("restarts", self.restarts, "positive integer")
        check_integer("seed", self.seed, "integer")
        check_integer("max_evals_per_restart", self.max_evals_per_restart, "positive integer")
        check_range("tolerance", self.tolerance, "positive")
        plo, phi = self.prob_bounds
        # the stick-breaking transform needs plo < 1 - 2 plo
        if not (0.0 < plo < phi < 1.0 and plo < 1.0 / 3.0):
            raise ParameterError(
                f"prob_bounds must satisfy 0 < lo < hi < 1 and lo < 1/3, got {self.prob_bounds}")
        mlo, mhi = self.intensity_bounds
        if not 0.0 < mlo < mhi <= DOMAIN["intensity"][2]:
            raise ParameterError(
                f"intensity_bounds must satisfy 0 < lo < hi <= {DOMAIN['intensity'][2]:g}, "
                f"got {self.intensity_bounds}")
        # mu1 must exceed mu3 + max(mu3, lo); a mu3 that leaves no such mu1
        # at any start point would leave the search nothing to decode
        if all(_decode(t, self) is None for t in _start_points(self)):
            raise ParameterError(
                f"mu3 = {self.mu3} leaves no feasible start point: mu1 must exceed "
                f"mu3 + max(mu3, lo) = {self.mu3 + max(self.mu3, mlo):g} "
                f"within intensity_bounds {self.intensity_bounds}")

    @property
    def ndim(self) -> int:
        return 3 if self.regime is Regime.FIXED_PBX_AND_MU else 5


@dataclass(frozen=True)
class OptimizationResult:
    """The best point found and its key length, evaluated once."""

    best_params: ProtocolParams
    result: KeyLengthResult
    evaluations: int
    restart_trace: tuple[dict, ...]

    @property
    def best_ell(self) -> int:
        return self.result.ell

    @property
    def best_raw(self) -> float:
        return self.result.raw


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    z = math.exp(t)
    return z / (1.0 + z)


def _interval(t: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * _sigmoid(t)


def _halton(index: int, base: int) -> float:
    f = 1.0
    r = 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


_HALTON_BASES = (2, 3, 5, 7, 11)


def _start_points(spec: OptimizationSpec) -> np.ndarray:
    """Deterministic low-discrepancy start points in transformed coordinates."""
    dim = spec.ndim
    offset = 17 + (spec.seed % (1 << 20)) * spec.restarts
    pts = np.empty((spec.restarts, dim))
    for r in range(spec.restarts):
        for d in range(dim):
            u = _halton(offset + r + 1, _HALTON_BASES[d])
            pts[r, d] = -4.0 + 8.0 * u
    return pts


def _decode(t: Sequence[float], spec: OptimizationSpec):
    """Transformed coordinates -> (pax, pbx, mu1, mu2, mu3, p1, p2, p3)."""
    plo, phi = spec.prob_bounds
    pax = _interval(t[0], plo, phi)
    if spec.regime is Regime.FULL:
        pbx = pax
    else:
        pbx = spec.pbx
    # stick-breaking keeps (p1, p2, p3) strictly inside the simplex
    p1 = _interval(t[1], plo, 1.0 - 2.0 * plo)
    p2 = _interval(t[2], plo, 1.0 - p1 - plo)
    p3 = 1.0 - p1 - p2
    if spec.regime is Regime.FIXED_PBX_AND_MU:
        mu1, mu2, mu3 = spec.mu
    else:
        mlo, mhi = spec.intensity_bounds
        mu3 = spec.mu3
        mu1 = _interval(t[3], mlo, mhi)
        r_lo = max(mu3 / mu1, mlo / mu1)
        r_hi = 1.0 - mu3 / mu1 - 1e-9
        if r_hi <= r_lo:
            return None
        mu2 = mu1 * _interval(t[4], r_lo, r_hi)
    return pax, pbx, mu1, mu2, mu3, p1, p2, p3


def minimize(fun, x0, **options):
    """``scipy.optimize.minimize``, imported on first use.

    ``scipy.optimize`` takes a large share of ``import fsqkd``, and only the
    optimizer needs it.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **options)


def optimize(spec: OptimizationSpec, channel: ChannelConditions,
             sec: SecurityParams) -> OptimizationResult:
    """Maximize the secure key length over the regime's free parameters.

    Deterministic for a fixed ``spec.seed``.  If every evaluated point
    yields zero key, the result carries ``best_ell = 0`` at the least
    infeasible point found (largest key expression).
    """
    p_d = channel.transmittance
    n_pulses = channel.n_pulses
    n_evals = 0

    def neg_raw(t: np.ndarray) -> float:
        nonlocal n_evals
        dec = _decode(t, spec)
        if dec is None:
            return 1e30
        pax, pbx, mu1, mu2, mu3, p1, p2, p3 = dec
        n_evals += 1
        out = _evaluate_flat(pax, pbx, mu1, mu2, mu3, p1, p2, p3,
                             p_d, channel.p_ec, channel.qber_i, channel.p_ap,
                             n_pulses, sec)
        return -out[1]

    trace = []
    best_fun = math.inf
    best_t = None
    for r, t0 in enumerate(_start_points(spec)):
        res = minimize(neg_raw, t0, method="Nelder-Mead",
                       options={"xatol": spec.tolerance, "fatol": math.inf,
                                "maxfev": spec.max_evals_per_restart,
                                "initial_simplex": None})
        cand_t = np.asarray(res.x, dtype=float)
        cand_fun = float(res.fun)
        trace.append({"restart": r, "start": tuple(float(v) for v in t0),
                      "raw": -cand_fun, "nfev": int(res.nfev)})
        better = cand_fun < best_fun
        if not better and cand_fun == best_fun and best_t is not None:
            better = tuple(cand_t) < tuple(best_t)  # deterministic tie-break
        if better:
            best_fun = cand_fun
            best_t = cand_t

    dec = _decode(best_t, spec)
    pax, pbx, mu1, mu2, mu3, p1, p2, p3 = dec
    best_params = ProtocolParams(pax=pax, pbx=pbx, mu=(mu1, mu2, mu3),
                                 p_mu=(p1, p2, p3))
    # authoritative evaluation through the standard path
    result = key_length_for_channel(best_params, channel, sec)
    return OptimizationResult(best_params=best_params, result=result,
                              evaluations=n_evals, restart_trace=tuple(trace))
