"""Inverse binomial CDF with real-valued trial counts.

Expected counts in this model are real numbers, so the binomial CDF is
taken in its regularized incomplete beta form,
``P(X <= k) = I_{1-p}(n - k, k + 1)``, which extends smoothly to
non-integer ``n``.  The quantile is defined by that predicate alone:

    binom_ppf(q, n, p) = min(n, smallest integer k with P(X <= k) >= q),

where every ``k >= n`` meets the predicate.  For integer ``n`` this is
``scipy.stats.binom.ppf``.

It is computed with scalar ``betainc`` calls: a normal start with a
Cornish-Fisher skew term, then two probes, k and k - 1 or k + 1, which
mostly bracket the crossing and end the search; otherwise ``_search``
grows a bracket by doubling steps, then bisects it down to two adjacent
integers.  ``binom_ppf`` settles the start and the first two probes on
Python floats and ints, converting only inputs that are not floats; the
start's normal quantile comes from a bounded cache (``lru_cache``), as
each distinct NaN object would be a new key.

``binom_ppf_array`` is its twin over arrays, for fixed-parameter sweeps.
Each element below 2^53 trials takes the scalar start and first two
probes at once: k, then k - 1 if k meets the predicate, or k + 1 if not.
Where they bracket the crossing, the scalar search ends on that bracket
too and returns its upper end, capped at n: the ``betainc`` ufunc gives
the scalar ``cython_special`` call's floats, and a float k is exact
there.  Every other element runs ``binom_ppf``, so each one equals the
scalar result, above 1e11 trials too, where it depends on the path.

Precision: the predicate is evaluated in double precision.  Up to about
1e11 trials it is monotone in k and the result is the exact quantile.
Above that, rounding in ``betainc`` can make it flip more than once near
the crossing; the result is then still an integer where it fails one
step below and holds, but not necessarily the smallest such integer.
"""
from __future__ import annotations

import math
from functools import lru_cache
from math import ceil, inf, sqrt
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
    A trial count that is not positive and finite gives 0.  The search
    returns after its first two probes where they bracket the crossing,
    as ``binom_ppf_array`` does; ``_search`` runs the rest.
    """
    if type(q) is not float or type(n) is not float or type(p) is not float:
        q, n, p = float(q), float(n), float(p)
    if not 0.0 < n < inf:
        return 0.0
    x = 1.0 - p
    z = _normal_quantile(q)
    # mean + sigma (z + skew (z^2 - 1) / 6), with skew = (1 - 2p) / sigma
    start = n * p + sqrt(n * p * x) * z + (1.0 - 2.0 * p) * (z * z - 1.0) / 6.0
    k, top = ceil(start - 0.5), ceil(n)
    k = 0 if k < 0 else k if k <= top else top
    # the first two probes, k and k - 1 or k + 1, mostly bracket the crossing
    if _meets(q, n, x, k):
        if k == 0 or not _meets(q, n, x, k - 1):
            return n if n < k else float(k)
        return _search(q, n, x, k, True)
    if _meets(q, n, x, k + 1):
        return n if n < k + 1 else float(k + 1)
    return _search(q, n, x, k, False)


def _search(q: float, n: float, x: float, k: int, down: bool) -> float:
    """The rest of ``binom_ppf``'s search where its first two probes at k
    (which meets the predicate if ``down``) did not bracket the crossing:
    grow a bracket lo < hi by doubling steps, where lo fails the predicate
    (lo = -1 is below the support) and hi meets it, then bisect it."""
    if down:
        hi, step = k - 1, 2
        lo = hi - step
        while lo >= 0 and _meets(q, n, x, lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)
    else:
        lo, step = k + 1, 2
        hi = lo + step
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
    """``_meets`` over arrays; where ``k >= n`` it holds, and ``betainc`` is nan or 1."""
    return (k >= n) | (betainc(n - k, k + 1.0, x) >= q)


def binom_ppf_array(q: float, n, p) -> np.ndarray:
    """``binom_ppf`` over broadcasting arrays ``n`` and ``p``, every element
    equal to the scalar function's.

    Below 2^53 trials each element takes the scalar search's first two
    probes; an element they do not bracket, or with 2^53 trials or more,
    goes to ``binom_ppf``.
    """
    q = float(q)
    n, p = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(p, dtype=float))
    shape, n, p = n.shape, n.ravel(), p.ravel()
    out = np.zeros(n.size)
    rest = (n > 0.0) & (n < math.inf)
    idx = np.flatnonzero(rest & (n < EXACT_TRIALS))
    m, pm = n[idx], p[idx]
    x, z = 1.0 - pm, _normal_quantile(q)
    start = m * pm + np.sqrt(m * pm * x) * z + (1.0 - 2.0 * pm) * (z * z - 1.0) / 6.0
    k = np.minimum(np.maximum(np.ceil(start - 0.5), 0.0), np.ceil(m))
    # k meets the predicate and k - 1 fails it (-1 is below the support),
    # or k fails it and k + 1 meets it: the scalar search returns hi there
    down = _meets_array(q, m, x, k)
    hi = np.where(down, k, k + 1.0)
    probe = np.where(down, k - 1.0, hi)
    done = ((probe >= 0.0) & _meets_array(q, m, x, probe)) != down
    out[idx[done]] = np.minimum(hi[done], m[done])
    rest[idx[done]] = False
    for i in np.flatnonzero(rest):
        out[i] = binom_ppf(q, n[i], p[i])
    return out.reshape(shape)
