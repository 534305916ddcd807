"""Inverse binomial CDF with real-valued trial counts.

Expected counts in this model are real numbers, so the binomial CDF is
taken in its regularized incomplete beta form,
``P(X <= k) = I_{1-p}(n - k, k + 1)``, which extends smoothly to
non-integer ``n``.  The quantile is defined by that predicate alone:

    binom_ppf(q, n, p) = min(n, smallest integer k with P(X <= k) >= q),

where every ``k >= n`` meets the predicate.  For integer ``n`` this is
``scipy.stats.binom.ppf``.

It is computed with scalar ``betainc`` calls: a normal start with a
Cornish-Fisher skew term, a bracket grown by doubling steps, then
bisection down to two adjacent integers.

``binom_ppf_array`` is its twin over arrays, for fixed-parameter sweeps.
It runs that search for every element in lockstep, with k in int64 and
the ``scipy.special.betainc`` ufunc, which gives the same floats as the
scalar ``cython_special`` call, so every element equals ``binom_ppf``'s,
above 1e11 trials too, where the result depends on the search's path.
An element with 2^53 trials or more goes to ``binom_ppf``: there a float
k cannot hold every integer the scalar search's Python ints reach.

Precision: the predicate is evaluated in double precision.  Up to about
1e11 trials it is monotone in k and the result is the exact quantile.
Above that, rounding in ``betainc`` can make it flip more than once near
the crossing; the result is then still an integer where it fails one
step below and holds, but not necessarily the smallest such integer.
"""
from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np
from scipy.special import betainc
from scipy.special.cython_special import betainc as _betainc

# from here on a float trial count no longer holds every integer k near it
EXACT_TRIALS = 2.0 ** 53


@lru_cache(maxsize=64)
def _normal_quantile(q: float) -> float:
    """Standard normal quantile of q; outside (0, 1) any start will do."""
    return NormalDist().inv_cdf(q) if 0.0 < q < 1.0 else 0.0


def _meets(q: float, n: float, x: float, k: int) -> bool:
    """The quantile predicate P(X <= k) >= q, with x = 1 - p."""
    return k >= n or _betainc(n - k, k + 1.0, x) >= q


def binom_ppf(q: float, n: float, p: float) -> float:
    """Smallest integer k with P(X <= k) >= q, capped at n.

    Takes scalars, NumPy scalars included, and computes on Python floats.
    A trial count that is not positive and finite gives 0.
    """
    q, n, p = float(q), float(n), float(p)
    if not 0.0 < n < math.inf:
        return 0.0
    x = 1.0 - p
    z = _normal_quantile(q)
    # mean + sigma (z + skew (z^2 - 1) / 6), with skew = (1 - 2p) / sigma
    start = n * p + math.sqrt(n * p * x) * z + (1.0 - 2.0 * p) * (z * z - 1.0) / 6.0
    k = min(max(math.ceil(start - 0.5), 0), math.ceil(n))
    # grow a bracket lo < hi by doubling steps, where lo fails the predicate
    # (lo = -1 is below the support) and hi meets it, then bisect it
    step = 1
    if _meets(q, n, x, k):
        hi, lo = k, k - 1
        while lo >= 0 and _meets(q, n, x, lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)
    else:
        lo, hi = k, k + 1
        while not _meets(q, n, x, hi):
            lo, step = hi, 2 * step
            hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _meets(q, n, x, mid):
            hi = mid
        else:
            lo = mid
    return min(float(hi), n)


def _meets_array(q: float, n: np.ndarray, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``_meets`` over arrays, with int64 ``k``; ``betainc`` is nan or 1
    where ``k >= n`` and the predicate holds regardless."""
    return (k >= n) | (betainc(n - k, k + 1.0, x) >= q)


def binom_ppf_array(q: float, n, p) -> np.ndarray:
    """``binom_ppf`` over broadcasting arrays ``n`` and ``p``, every element
    equal to the scalar function's.

    Below 2^53 trials the elements run the scalar search in lockstep, the
    same start, doubling bracket and bisection, with k in int64, where it
    is exact; larger trial counts go to ``binom_ppf`` one by one.
    """
    q = float(q)
    n, p = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(p, dtype=float))
    out = np.zeros(n.shape)
    for i in np.flatnonzero((n >= EXACT_TRIALS) & (n < math.inf)):
        out.flat[i] = binom_ppf(q, n.flat[i], p.flat[i])
    idx = np.flatnonzero((n > 0.0) & (n < EXACT_TRIALS))
    n, p = n.ravel()[idx], p.ravel()[idx]
    x = 1.0 - p
    z = _normal_quantile(q)
    start = n * p + np.sqrt(n * p * x) * z + (1.0 - 2.0 * p) * (z * z - 1.0) / 6.0
    k = np.minimum(np.maximum(np.ceil(start - 0.5), 0.0), np.ceil(n)).astype(np.int64)
    # grow each bracket lo < hi by doubling steps: from (k - 1, k) down
    # while lo >= 0 meets the predicate, or from (k, k + 1) up while hi
    # fails it; every bracket still growing has taken as many steps
    down = _meets_array(q, n, x, k)
    lo = k - down
    hi = lo + 1
    step = 1
    live = np.flatnonzero(lo >= 0)
    while live.size:
        d = down[live]
        probe = np.where(d, lo[live], hi[live])
        grow = _meets_array(q, n[live], x[live], probe) == d
        live, d, probe = live[grow], d[grow], probe[grow]
        step *= 2
        lo[live] = np.where(d, probe - step, probe)
        hi[live] = lo[live] + step
        live = live[~d | (lo[live] >= 0)]
    lo = np.maximum(lo, -1)
    live = np.flatnonzero(hi - lo > 1)
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        meets = _meets_array(q, n[live], x[live], mid)
        hi[live] = np.where(meets, mid, hi[live])
        lo[live] = np.where(meets, lo[live], mid)
        live = live[hi[live] - lo[live] > 1]
    out.flat[idx] = np.minimum(hi.astype(float), n)
    return out
