"""Protocol-parameter optimization of the secure key length.

Three regimes are supported, mirroring how much of the hardware is fixed
at production time:

* ``full``             -- symmetric basis bias (pbx tied to pax) plus free
                          intensity probabilities and intensities,
* ``fixed_pbx``        -- receiver bias fixed (passive beamsplitter), the
                          transmitter bias and source settings free,
* ``fixed_pbx_and_mu`` -- receiver bias and intensities fixed, only the
                          transmitter-side probabilities free.

The search runs a Nelder-Mead simplex (``minimize``, on Python floats) on
smooth reparameterized coordinates (logistic transforms for probabilities,
an ordered ratio for the intensity pair), multi-started from a
deterministic Halton sequence.  The objective is the unfloored key
expression.  Where the key expression is negative
(``negative-key-expression``) it keeps the slope towards positive key;
where a single-photon bound clamps to 0 (``no-single-photon-bound``) the
single-photon terms drop out and the search can stall on a flat plateau:
the value stop ends a restart there early, but does not help it off.
Reported key lengths are the floored values.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add
from typing import Iterator, Sequence

from .channel import (ChannelConditions, ParameterError, ProtocolParams, check_integer,
                      check_intensities, check_range)
from .finitekey import (KeyLengthResult, SecurityParams, _evaluate_flat, _search_terms,
                        key_length_for_channel)


class Regime(str, Enum):
    FULL = "full"
    FIXED_PBX = "fixed_pbx"
    FIXED_PBX_AND_MU = "fixed_pbx_and_mu"


# the search box: each searched probability lies in PROB_BOUNDS and each
# searched intensity in INTENSITY_BOUNDS, before the ordering constraints
PROB_BOUNDS = (0.001, 0.999)
INTENSITY_BOUNDS = (1e-4, 1.0)


@dataclass(frozen=True)
class OptimizationSpec:
    """Search configuration for one optimization run.

    The search keeps probabilities inside ``PROB_BOUNDS`` and searched
    intensities inside ``INTENSITY_BOUNDS``; the intensity ordering
    constraints are built into the coordinate transform.  ``pbx`` is given
    exactly when the regime fixes it (``fixed_pbx`` and
    ``fixed_pbx_and_mu``), and the intensity triple ``mu`` exactly when it
    is ``fixed_pbx_and_mu``.  ``mu3`` stays fixed at its configured floor
    during the search, and must leave some start point a feasible
    intensity pair.  Each restart ends at the first of the fixed stop rules
    ``_XATOL`` and ``_FATOL_BITS``, or after ``max_evals_per_restart``
    objective calls.
    """

    regime: Regime = Regime.FULL
    pbx: float | None = None
    mu: tuple[float, float, float] | None = None
    mu3: float = 1e-9
    restarts: int = 8
    seed: int = 0
    max_evals_per_restart: int = 2000

    def __post_init__(self) -> None:
        try:
            regime = Regime(self.regime)
        except ValueError:
            raise ParameterError(f"regime must be one of {', '.join(Regime)}, "
                                 f"got {self.regime!r}") from None
        object.__setattr__(self, "regime", regime)
        for value, reads, what in ((self.pbx, regime is not Regime.FULL, "pbx"),
                                   (self.mu, regime is Regime.FIXED_PBX_AND_MU,
                                    "a fixed intensity triple")):
            if (value is None) == reads:
                raise ParameterError(f"regime {regime.value} "
                                     f"{'requires' if reads else 'does not read'} {what}")
        if self.pbx is not None:
            check_range("pbx", self.pbx, "basis probability")
        if self.mu is not None:
            check_intensities(self.mu)
        check_range("mu3", self.mu3, "intensity")
        check_integer("restarts", self.restarts, "positive integer")
        check_integer("seed", self.seed, "integer")
        check_integer("max_evals_per_restart", self.max_evals_per_restart, "positive integer")
        # mu1 must exceed mu3 + max(mu3, lo); a mu3 that leaves no such mu1
        # at any start point would leave the search nothing to decode
        if not any(map(_decoder(self), _start_points(self))):
            lo, hi = INTENSITY_BOUNDS
            raise ParameterError(
                f"mu3 = {self.mu3} leaves no feasible start point: mu1 must exceed "
                f"mu3 + max(mu3, lo) = {self.mu3 + max(self.mu3, lo):g} "
                f"within the searched intensities ({lo:g}, {hi:g})")

    @property
    def ndim(self) -> int:
        return 3 if self.regime is Regime.FIXED_PBX_AND_MU else 5


@dataclass(frozen=True)
class OptimizationResult:
    """The best point found and its key length, evaluated once.

    ``restart_trace`` holds one dict per restart: its index, its start
    point, ``raw``, the key expression of the point it ended on, and
    ``nfev``, its objective calls.  A restart that ends outside the
    feasible intensity pairs stands for the feasible point it evaluated
    with the largest key expression; ``raw`` is None for a restart that
    evaluated none, and such a restart never gives the best point.
    """

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


def _interval(t: float, lo: float, hi: float) -> float:
    """``lo + (hi - lo)`` times the logistic function of ``t``, without overflow."""
    if t >= 0.0:
        return lo + (hi - lo) * (1.0 / (1.0 + math.exp(-t)))
    z = math.exp(t)
    return lo + (hi - lo) * (z / (1.0 + z))


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


def _start_points(spec: OptimizationSpec) -> Iterator[list[float]]:
    """Deterministic low-discrepancy start points in transformed coordinates."""
    offset = 17 + (spec.seed % (1 << 20)) * spec.restarts
    for r in range(spec.restarts):
        yield [-4.0 + 8.0 * _halton(offset + r + 1, _HALTON_BASES[d]) for d in range(spec.ndim)]


def _decoder(spec: OptimizationSpec):
    """Transformed coordinates -> (pax, pbx, p1, p2, p3), followed by the
    searched (mu1, mu2) where the regime searches them, or None for an
    infeasible intensity pair; the regime is read once."""
    plo, phi = PROB_BOUNDS
    mlo, mhi = INTENSITY_BOUNDS
    pbx_free = spec.regime is Regime.FULL
    mu_fixed = spec.regime is Regime.FIXED_PBX_AND_MU
    mu3 = spec.mu3

    def decode(t: Sequence[float]):
        pax = _interval(t[0], plo, phi)
        pbx = pax if pbx_free else spec.pbx
        # stick-breaking keeps (p1, p2, p3) strictly inside the simplex
        p1 = _interval(t[1], plo, 1.0 - 2.0 * plo)
        p2 = _interval(t[2], plo, 1.0 - p1 - plo)
        p3 = 1.0 - p1 - p2
        if mu_fixed:
            return pax, pbx, p1, p2, p3
        mu1 = _interval(t[3], mlo, mhi)
        r_lo = max(mu3 / mu1, mlo / mu1)
        r_hi = 1.0 - mu3 / mu1 - 1e-9
        if r_hi <= r_lo:
            return None
        return pax, pbx, p1, p2, p3, mu1, mu1 * _interval(t[4], r_lo, r_hi)
    return decode


# ``optimize``'s two stop rules: a restart ends once every vertex lies
# within _XATOL of the best in every coordinate (the vertex stop), or once
# the vertex values agree to within _FATOL_BITS bits of the key expression
# (the value stop)
_XATOL = 1e-5
_FATOL_BITS = 0.01


def _ordered(sim: list[list[float]], fsim: list[float]) -> tuple[list[list[float]], list[float]]:
    """The vertices and their values in value order, equal values in index
    order: each vertex inserted in turn after every value not above its own."""
    out_sim, out_f = [], []
    for x, fx in zip(sim, fsim):
        i = bisect_right(out_f, fx)
        out_f.insert(i, fx)
        out_sim.insert(i, x)
    return out_sim, out_f


def minimize(fun, x0: Sequence[float], xatol: float, maxfev: int,
             fatol: float = -math.inf) -> tuple[list[float], float, int]:
    """Nelder-Mead minimum of ``fun`` from ``x0``: (best vertex, its value, calls).

    The method of Nelder & Mead, Comput. J. 7, 308 (1965), with the
    arithmetic and control flow of scipy's ``_minimize_neldermead``
    (coefficients 1, 2, 1/2, 1/2; a 5% initial step, 0.00025 on a zero
    coordinate; the centroid summed vertex by vertex, left to right).  It
    stops when either spread is small: every vertex within ``xatol`` of the
    best in every coordinate (the vertex stop), or every value within
    ``fatol`` of the least (the value stop, off by default, and tested
    first); ``optimize`` passes ``_XATOL`` and ``_FATOL_BITS``.  scipy
    stops only when both are, so this is scipy's path at ``fatol = inf``,
    or at ``xatol = inf`` when ``xatol < 0``.  It also stops after
    ``maxfev`` calls of ``fun``, where the step in progress stops at the
    call it could not make.  The vertices stay in value order with equal
    values in vertex order (a stable sort): the start simplex and the
    simplex after a shrink are ordered by inserting each vertex in turn,
    and a reflection, expansion or contraction inserts only its new vertex,
    so no step re-sorts and the path depends on the arithmetic alone.
    ``fun`` must not modify the list it is given.
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    nfev = 0
    for k in range(n + 1):
        if nfev >= maxfev:
            break
        nfev += 1
        fsim[k] = fun(sim[k])
    sim, fsim = _ordered(sim, fsim)
    while True:
        best = sim[0]
        if nfev >= maxfev or fsim[-1] - fsim[0] <= fatol:
            return best, fsim[0], nfev
        for i in range(1, n + 1):
            for a, b in zip(sim[i], best):
                if not abs(a - b) <= xatol:
                    break
            else:
                continue
            break
        else:
            return best, fsim[0], nfev
        worst, fworst = sim.pop(), fsim.pop()
        xbar = [reduce(add, col) / n for col in zip(*sim)]
        # a step that the call limit cuts moves no vertex: the best stands
        if nfev >= maxfev:
            return best, fsim[0], nfev
        nfev += 1
        xr = [2.0 * a - b for a, b in zip(xbar, worst)]
        fxr = fun(xr)
        if fxr < fsim[0]:
            if nfev >= maxfev:
                return best, fsim[0], nfev
            nfev += 1
            xe = [3.0 * a - 2.0 * b for a, b in zip(xbar, worst)]
            fxe = fun(xe)
            x, fx = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-1]:
            x, fx = xr, fxr
        else:
            if nfev >= maxfev:
                return best, fsim[0], nfev
            nfev += 1
            if fxr < fworst:
                x = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]
                fx = fun(x)
                shrink = not fx <= fxr
            else:
                x = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]
                fx = fun(x)
                shrink = not fx < fworst
            if shrink:
                sim.append(worst)
                fsim.append(fworst)
                for j in range(1, n + 1):
                    sim[j] = [a + 0.5 * (b - a) for a, b in zip(best, sim[j])]
                    if nfev >= maxfev:
                        break
                    nfev += 1
                    fsim[j] = fun(sim[j])
                sim, fsim = _ordered(sim, fsim)
                continue
        i = bisect_right(fsim, fx)
        fsim.insert(i, fx)
        sim.insert(i, x)


class _Met(Exception):
    """An evaluation met ``optimize``'s ``stop_at``: (its point, its key expression)."""


def optimize(spec: OptimizationSpec, channel: ChannelConditions,
             sec: SecurityParams, *, stop_at: int | None = None) -> OptimizationResult:
    """Maximize the secure key length over the regime's free parameters.

    Deterministic for a fixed ``spec.seed``.  If every evaluated point
    yields zero key, the result carries ``best_ell = 0`` at the least
    infeasible point found (largest key expression).

    With ``stop_at``, the search ends at the first evaluated point whose
    floored key is at least ``stop_at`` and returns that point, not the
    optimum.  ``evaluations`` then counts the evaluations up to it, and
    ``restart_trace`` ends with the restart it interrupted, whose ``nfev``
    counts that restart's calls up to it.  The restarts are independent
    and a restart returns no worse than any point it evaluated, so the
    stopped search meets ``stop_at`` whenever the full one does.  It can
    also meet it where the full one does not, at a real point of that key:
    when the full search's best key expression comes with a reason other
    than ``ok`` and no key, or when a restart's call limit cut a step just
    after an improving call.  A ``stop_at`` that no evaluated point
    reaches changes nothing.
    """
    n_evals = n_calls = 0
    least = None  # a restart's least feasible value and its point
    stop = math.inf if stop_at is None else stop_at
    decode = _decoder(spec)
    terms = _search_terms(channel.transmittance, channel.p_ec, channel.qber_i, channel.p_ap,
                          channel.n_pulses, sec, spec.mu or (None, None, spec.mu3))

    def neg_raw(t: list[float]) -> float:
        nonlocal n_evals, n_calls, least
        n_calls += 1
        dec = decode(t)
        if dec is None:
            return 1e30
        n_evals += 1
        out = _evaluate_flat(terms, *dec)
        if out[0] >= stop:
            raise _Met(t, -out[1])
        value = -out[1]
        if least is None or value < least[0]:
            least = (value, t)
        return value

    trace = []
    best = None
    for r, t0 in enumerate(_start_points(spec)):
        calls_before, met, least = n_calls, False, None
        try:
            cand_t, cand_fun, nfev = minimize(neg_raw, t0, _XATOL, spec.max_evals_per_restart,
                                              _FATOL_BITS)
        except _Met as witness:
            (cand_t, cand_fun), nfev, met = witness.args, n_calls - calls_before, True
        # an infeasible pair's 1e30 beats a key expression below -1e30 bits,
        # so a restart can end outside the feasible pairs: it then stands
        # for its least feasible value, or for nothing if it had none
        if not met and decode(cand_t) is None:
            cand_fun, cand_t = least or (None, None)
        trace.append({"restart": r, "start": tuple(t0),
                      "raw": None if cand_t is None else -cand_fun, "nfev": nfev})
        # the least value wins, and the least point among equal values
        if cand_t is not None and (met or best is None or (cand_fun, cand_t) < best):
            best = (cand_fun, cand_t)
        if met:
            break

    pax, pbx, p1, p2, p3, *pair = decode(best[1])
    best_params = ProtocolParams(pax=pax, pbx=pbx, mu=(*pair, spec.mu3) if pair else tuple(spec.mu),
                                 p_mu=(p1, p2, p3))
    # authoritative evaluation through the standard path
    result = key_length_for_channel(best_params, channel, sec)
    return OptimizationResult(best_params=best_params, result=result,
                              evaluations=n_evals, restart_trace=tuple(trace))
