"""``binom_ppf`` against the body it had before its first two probes were
settled in line (kept here as the oracle, as ``test_optimize.TestOracle``
keeps the old ``minimize``): the same float for every input, from the same
scalar ``betainc`` calls in the same order."""
import math
import random

import numpy as np
import pytest

from fsqkd import _quantile
from fsqkd._quantile import EXACT_TRIALS, _normal_quantile, binom_ppf

EPS_C = 1e-15


def _meets(q, n, x, k):
    return k >= n or _quantile._betainc(n - k, k + 1.0, x) >= q


def reference_binom_ppf(q, n, p):
    """``binom_ppf`` as it was: every probe through ``_meets``, ``min``/``max``
    on the start, and ``float()`` of every input."""
    q, n, p = float(q), float(n), float(p)
    if not 0.0 < n < math.inf:
        return 0.0
    x = 1.0 - p
    z = _normal_quantile(q)
    start = n * p + math.sqrt(n * p * x) * z + (1.0 - 2.0 * p) * (z * z - 1.0) / 6.0
    k = min(max(math.ceil(start - 0.5), 0), math.ceil(n))
    if _meets(q, n, x, k):
        if k == 0 or not _meets(q, n, x, k - 1):
            return min(float(k), n)
        hi, step = k - 1, 2
        lo = hi - step
        while lo >= 0 and _meets(q, n, x, lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)
    else:
        if _meets(q, n, x, k + 1):
            return min(float(k + 1), n)
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


@pytest.fixture
def betainc_calls(monkeypatch):
    """Every scalar ``betainc`` call of either function, in order."""
    calls = []
    betainc = _quantile._betainc

    def counted(*args):
        calls.append(args)
        return betainc(*args)

    monkeypatch.setattr(_quantile, "_betainc", counted)
    return calls


def agree(calls, q, n, p):
    """Both functions give the same float from the same ``betainc`` calls."""
    calls.clear()
    want = reference_binom_ppf(q, n, p)
    want_calls = list(calls)
    calls.clear()
    got = binom_ppf(q, n, p)
    assert type(got) is float
    assert repr(got) == repr(want), (q, n, p)
    assert calls == want_calls, (q, n, p)
    return got, len(want_calls)


def test_random_inputs(betainc_calls):
    rng = random.Random("binom_ppf oracle")
    probes = []
    for i in range(20_000):
        q = rng.choice([EPS_C, 1e-10, 10.0 ** rng.uniform(-15.0, 0.0), rng.random()])
        n = 10.0 ** rng.uniform(-1.0, 13.0)
        if i % 3 == 0:
            n = float(round(n))
        p = rng.choice([rng.random(), 1.0 - 10.0 ** rng.uniform(-12.0, -0.3),
                        0.5 + 10.0 ** rng.uniform(-12.0, -0.5), 0.0, 1.0])
        probes.append(agree(betainc_calls, q, n, p)[1])
    # the sample takes both returns after two probes and the longer search
    assert probes.count(2) > 1000 and max(probes) > 4


@pytest.mark.parametrize("q, n, p", [
    (np.float64(EPS_C), np.float64(1234.5), np.float64(0.97)),
    (np.float32(1e-3), np.int64(1000), np.float32(0.9)),
    (np.float64(0.5), 250, 0.75),
    (EPS_C, np.int32(37), np.float64(0.98)),
    (0.01, True, 0.5),
    (np.float64(0.5), np.float64(10.5), np.float64(0.999)),  # capped at n: a float
])
def test_numpy_scalars_and_ints(betainc_calls, q, n, p):
    agree(betainc_calls, q, n, p)


@pytest.mark.parametrize("q, n, p", [
    (0.5, 10.0, 0.01),  # the start is k = 0 and it meets the predicate
    (EPS_C, 3.0, 0.3),
    (0.1, 0.5, 0.98),
])
def test_quantile_zero(betainc_calls, q, n, p):
    assert agree(betainc_calls, q, n, p)[0] == 0.0


@pytest.mark.parametrize("q, n, p", [
    (0.5, 0.5, 0.98),  # n < 1: k = 1 >= n
    (0.9, 0.25, 0.999),
    (0.999999, 10.0, 0.999),  # n at an integer
    (0.5, 10.5, 0.999),
    (EPS_C, 40.0, 1.0),
])
def test_quantile_at_or_above_n(betainc_calls, q, n, p):
    assert agree(betainc_calls, q, n, p)[0] == n


@pytest.mark.parametrize("n", [EXACT_TRIALS - 1.0, EXACT_TRIALS, 1e12])
@pytest.mark.parametrize("p", [0.98, 0.5 + 1e-3, 1.0 - 1e-6])
def test_large_trial_counts(betainc_calls, n, p):
    agree(betainc_calls, EPS_C, n, p)


@pytest.mark.parametrize("q", [0.0, 1.0, math.nan])
@pytest.mark.parametrize("n, p", [(1e6, 0.98), (37.5, 0.6), (0.5, 0.5)])
def test_quantile_levels_at_the_ends(betainc_calls, q, n, p):
    agree(betainc_calls, q, n, p)


@pytest.mark.parametrize("n", [0.0, -3.0, math.nan, math.inf])
def test_no_trials(betainc_calls, n):
    assert agree(betainc_calls, EPS_C, n, 0.98) == (0.0, 0)
