"""Inverse binomial CDF helper against brute force, scipy, its defining
predicate and an exact tail sum."""
import hashlib
import math
import random

import mpmath
import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import binom

from fsqkd import ChannelConditions, ProtocolParams, SecurityParams, SweepSpec, _quantile, sweep
from fsqkd._quantile import EXACT_TRIALS, binom_ppf, binom_ppf_array

EPS_C = 1e-15


def binom_cdf(k, n, p):
    """Binomial CDF P(X <= k) = I_{1-p}(n - k, k + 1) for real-valued n >= 0,
    elementwise: the predicate that defines binom_ppf, through the betainc ufunc."""
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    p = np.asarray(p, dtype=float)
    a = np.maximum(n - k, 1e-300)
    b = np.maximum(k + 1.0, 1e-300)
    x = np.clip(1.0 - p, 0.0, 1.0)
    with np.errstate(all="ignore"):
        core = betainc(a, b, x)
    out = np.where(k < 0.0, 0.0, np.where(k >= n, 1.0, core))
    if out.ndim == 0:
        return float(out)
    return out


def brute_ppf(q: float, n: int, p: float) -> float:
    """Smallest k with CDF(k) >= q by direct summation."""
    total = 0.0
    for k in range(n + 1):
        total += binom.pmf(k, n, p)
        if total >= q:
            return float(k)
    return float(n)


class TestBinomCdf:
    @pytest.mark.parametrize("n,p", [(10, 0.3), (50, 0.9), (200, 0.02)])
    def test_matches_scipy(self, n, p):
        for k in range(0, n + 1, max(n // 10, 1)):
            assert binom_cdf(float(k), float(n), p) == pytest.approx(
                binom.cdf(k, n, p), rel=1e-10, abs=1e-300)

    def test_limits(self):
        assert binom_cdf(-1.0, 10.0, 0.5) == 0.0
        assert binom_cdf(10.0, 10.0, 0.5) == 1.0


class TestBinomPpf:
    @pytest.mark.parametrize("q", [1e-15, 1e-9, 0.01, 0.5, 0.99])
    @pytest.mark.parametrize("n,p", [(40, 0.3), (300, 0.9), (1000, 0.98)])
    def test_matches_brute_force(self, q, n, p):
        assert binom_ppf(q, float(n), p) == brute_ppf(q, n, p)

    @pytest.mark.parametrize("n", [1e4, 1e6, 1e9])
    def test_matches_scipy_at_scale(self, n):
        got = binom_ppf(1e-15, n, 0.98)
        want = float(binom.ppf(1e-15, int(n), 0.98))
        assert got == want

    def test_vectorized(self):
        n = np.array([1e4, 1e6, 2.5e5])
        got = np.array([binom_ppf(1e-15, v, 0.98) for v in n])
        want = np.array([float(binom.ppf(1e-15, int(v), 0.98)) for v in n])
        np.testing.assert_array_equal(got, want)

    def test_real_valued_counts_stay_in_range(self):
        # expected counts are not integers; the quantile must stay in [0, n]
        n = 251187.94755083777
        got = binom_ppf(1e-15, n, 1.0 - 0.015337717636589641)
        assert 0.0 <= got <= n
        # one unit either side of the returned integer brackets the quantile
        assert binom_cdf(got, n, 1.0 - 0.015337717636589641) >= 1e-15
        assert binom_cdf(got - 1.0, n, 1.0 - 0.015337717636589641) < 1e-15

    def test_degenerate_success_probability(self):
        # p -> 1 pushes the quantile to the top of the support
        assert binom_ppf(1e-15, 100.0, 1.0) == 100.0


def sample(seed: int, count: int, log10_n: tuple[float, float]) -> list[tuple[float, float]]:
    """Seeded (n, p): n log-uniform, every other one an integer; p in [0.5, 1)."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        n = 10.0 ** rng.uniform(*log10_n)
        if i % 2:
            n = float(round(n))
        points.append((n, rng.uniform(0.5, 1.0)))
    return points


def crossing(q: float, n: float, p: float, k: float) -> None:
    """The predicate P(X <= j) >= q fails at j = k - 1 and holds at k.

    A result capped at a real-valued n stands for the integer ceil(n).
    """
    j = math.ceil(k)
    assert k == j or k == n
    assert binom_cdf(float(j), n, p) >= q
    if j >= 1:
        assert binom_cdf(float(j - 1), n, p) < q


def exact_cdf(k: int, n: int, p: float, dps: int = 40) -> mpmath.mpf:
    """P(X <= k) for integer n: the pmf at k from loggamma, summed down."""
    with mpmath.workdps(dps):
        P = mpmath.mpf(p)
        Q = 1 - P
        term = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                          - mpmath.loggamma(n - k + 1) + k * mpmath.log(P)
                          + (n - k) * mpmath.log(Q))
        total = term
        j = k
        while j > 0 and term >= total * mpmath.mpf(10) ** -dps:
            term = term * j * Q / ((n - j + 1) * P)
            total += term
            j -= 1
        return total


class TestDefinition:
    """binom_ppf is the smallest integer meeting I_{1-p}(n-k, k+1) >= q."""

    @pytest.mark.parametrize("q", [EPS_C, 1e-9, 1e-3, 0.5])
    def test_crossing_up_to_1e11(self, q):
        for n, p in sample(11, 300, (1.0, 11.0)):
            crossing(q, n, p, binom_ppf(q, n, p))

    def test_crossing_above_1e11(self):
        # rounding in betainc makes the predicate flip more than once near the
        # crossing here, so only the crossing itself is asserted, not minimality
        for n, p in sample(13, 100, (11.0, 13.0)):
            crossing(EPS_C, n, p, binom_ppf(EPS_C, n, p))

    def test_digest_against_bdtrik_inversion(self):
        # the earlier bdtrik inversion (ceil, then one step back) differed at
        # these sample points; it was low at each, where the predicate fails
        earlier = {99: 61822546359.0, 258: 85301222606.0, 301: 51926152272.0}
        points = sample(20140314, 400, (1.0, 11.0))
        got = [binom_ppf(EPS_C, n, p) for n, p in points]
        for i, value in earlier.items():
            n, p = points[i]
            assert binom_cdf(value, n, p) < EPS_C <= binom_cdf(got[i], n, p)
            got[i] = value
        digest = hashlib.sha256("".join(v.hex() for v in got).encode()).hexdigest()
        assert digest == "9366fdd565b67442e4d8d5cc01d8300a05307e1d4bb5b1ef01915e1ff2ca9b98"

    def test_exact_tail_sum_near_1p6e9(self):
        # the bdtrik inversion returned 1639389637, one low: its exact CDF is
        # 9.99989e-16 < eps_c
        n, p = 1643448479, 0.99754
        k = binom_ppf(EPS_C, float(n), p)
        assert k == 1639389638.0
        assert exact_cdf(int(k) - 1, n, p) < EPS_C <= exact_cdf(int(k), n, p)


class TestEdges:
    @pytest.mark.parametrize("q", [EPS_C, 1e-3, 0.5, 0.999])
    def test_p_rounding_to_one(self, q):
        p = 1.0 - 1e-17
        assert p == 1.0
        assert binom_ppf(q, 250.5, p) == 250.5

    @pytest.mark.parametrize("q,want", [(EPS_C, 0.0), (0.5, 0.5)])
    def test_n_below_one(self, q, want):
        # P(X <= 0) = I_{0.02}(0.5, 1) = 0.02 ** 0.5 ~ 0.14
        assert binom_ppf(q, 0.5, 0.98) == want

    @pytest.mark.parametrize("n", [0.0, -3.0, math.nan, math.inf])
    def test_no_trials(self, n):
        assert binom_ppf(EPS_C, n, 0.98) == 0.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.999999])
    def test_quantile_at_or_above_n_is_capped(self, q):
        # every k below 10.5 leaves P(X <= k) under q, so k = 11 >= n answers
        n = 10.5
        assert binom_cdf(10.0, n, 0.999) < q
        assert binom_ppf(q, n, 0.999) == n

    @pytest.mark.parametrize("q", [EPS_C, 1e-9, 1e-3, 0.5, 0.99])
    def test_monotone_in_q(self, q):
        n, p = 123456.75, 0.97
        k = binom_ppf(q, n, p)
        assert binom_ppf(q * 0.5, n, p) <= k <= binom_ppf(min(2.0 * q, 1.0), n, p)
        crossing(q, n, p, k)


def array_sample(rng: random.Random, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, p) pairs: n in (0, 1), log-uniform over 1-1e13, in 1e11-1e13,
    within 2 of 2^53, and 1e300, 0, inf, nan and negative counts; p near 0.5
    or near 1, and 0.5 and 1 themselves.  At n = 1e300, p is one of a few
    values near 1: at some others, such as 0.9475 or 0.500006, one scalar
    search there takes seconds."""
    def pair(u):
        p = rng.choice([0.5 + 10.0 ** rng.uniform(-12.0, -1.0),
                        1.0 - 10.0 ** rng.uniform(-12.0, -1.0), rng.choice([0.5, 1.0])])
        if u < 0.15:
            return rng.uniform(0.0, 1.0), p
        if u < 0.55:
            return 10.0 ** rng.uniform(0.0, 13.0), p
        if u < 0.9:
            return rng.uniform(1e11, 1e13), p
        if u < 0.99:
            return EXACT_TRIALS + rng.randint(-2, 2), p
        if u < 0.995:
            return 1e300, 1.0 - 10.0 ** rng.choice([-12, -10, -8, -6, -5, -4, -3, -2, -1.3])
        return rng.choice([0.0, math.inf, math.nan, -5.0]), p

    return tuple(np.array(v) for v in zip(*(pair(rng.random()) for _ in range(size))))


@pytest.mark.parametrize("q", [EPS_C, 1e-10, 1e-3])
def test_array_twin_equals_scalar(q):
    """binom_ppf_array takes the scalar search's first two probes and runs
    binom_ppf for the rest: each of 35,000 elements per q equals binom_ppf's,
    1e300 and 2^53 +- 2 included."""
    n, p = array_sample(random.Random(f"binom_ppf_array {q}"), 35_000)
    got = binom_ppf_array(q, n, p)
    want = [binom_ppf(q, a, b) for a, b in zip(n.tolist(), p.tolist())]
    assert got.tolist() == want
    assert np.sum(n == 1e300) > 10 and np.sum(np.abs(n - EXACT_TRIALS) <= 2.0) > 1000


def test_array_twin_broadcasts_and_keeps_shape():
    n = np.array([[0.0], [0.5], [1e12], [2.0 ** 53 + 2.0]])
    p = np.array([0.51, 0.999])
    got = binom_ppf_array(EPS_C, n, p)
    assert got.shape == (4, 2)
    assert got.tolist() == [[binom_ppf(EPS_C, a, b) for b in p.tolist()] for a in n.ravel().tolist()]
    assert binom_ppf_array(EPS_C, np.array([]), 0.9).shape == (0,)


def test_array_twin_runs_the_scalar_search_only_where_two_probes_miss(monkeypatch):
    """binom_ppf_array answers from the scalar search's start and its first
    two probes where they bracket the crossing, and calls binom_ppf for
    every other element and for every element of 2^53 trials or more."""
    calls = []

    def counted(*args):
        calls.append(args)
        return binom_ppf(*args)

    monkeypatch.setattr(_quantile, "binom_ppf", counted)
    # a fixed-parameter sweep of 8 x 4 x 4 x 4 points, the shape of the
    # CLI's key-length surfaces: every start is within a step of its answer
    rng = random.Random("surface")
    axes = (sorted(rng.uniform(10.0, 40.0) for _ in range(8)),
            sorted(rng.uniform(-7.0, -4.0) for _ in range(4)),
            sorted(rng.uniform(0.005, 0.02) for _ in range(4)),
            sorted(10.0 ** rng.uniform(1.0, 3.6) for _ in range(4)))
    params = ProtocolParams(pax=0.7, pbx=0.7, mu=(0.55, 0.17, 1e-9), p_mu=(0.7, 0.2, 0.1))
    base = ChannelConditions(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                             integration_time_s=60.0, p_ap=1e-3, f_s=1e8)
    rows = sweep(SweepSpec(*axes, params=params), base, SecurityParams())
    assert len(rows) == 512 and sum(row.result.ec_quantile > 0.0 for row in rows) > 400
    assert calls == []
    # at n = 50, p = 0.97 the start is 29, three steps below the answer
    assert binom_ppf_array(EPS_C, np.array([50.0]), 0.97).tolist() == [32.0]
    assert binom_ppf(EPS_C, 50.0, 0.97) == 32.0 and len(calls) >= 1
    calls.clear()
    n = np.array([EXACT_TRIALS, EXACT_TRIALS + 2.0, 1e300, 1e6])
    p = np.array([0.98, 0.5 + 1e-3, 1.0 - 1e-6, 0.98])
    got = binom_ppf_array(EPS_C, n, p)
    assert got.tolist() == [binom_ppf(EPS_C, a, b) for a, b in zip(n.tolist(), p.tolist())]
    assert [args[1] for args in calls] == n[:3].tolist()


def test_scalar_search_returns_after_two_probes_that_bracket(monkeypatch):
    """binom_ppf stops after its first two probes (one where the start is
    k = 0) exactly where binom_ppf_array settles an element without it."""
    probes, fallbacks = [], []
    meets, scalar = _quantile._meets, _quantile.binom_ppf
    monkeypatch.setattr(_quantile, "_meets", lambda *args: probes.append(args) or meets(*args))
    rng = random.Random("two probes")
    points = [(10.0 ** rng.uniform(0.0, 10.0), 1.0 - 10.0 ** rng.uniform(-4.0, -0.31))
              for _ in range(3000)]
    counts = []
    for n, p in points:
        probes.clear()
        binom_ppf(EPS_C, n, p)
        counts.append(len(probes))
    assert sum(c <= 2 for c in counts) > 2000 and max(counts) > 2
    monkeypatch.setattr(_quantile, "binom_ppf",
                        lambda *args: fallbacks.append(args[1]) or scalar(*args))
    n, p = (np.array(v) for v in zip(*points))
    assert binom_ppf_array(EPS_C, n, p).tolist() == [scalar(EPS_C, *pt) for pt in points]
    assert fallbacks == [pt[0] for pt, c in zip(points, counts) if c > 2]
