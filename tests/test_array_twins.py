"""The array twins of the scalar counts and leakage steps, element for
element: ``_kernels.counts_array`` against ``counts_core`` and
``finitekey._leakage_array`` against ``_leakage``, compared by ``repr``
so that every bit counts, -0.0 included.  The straight-line steps' twins
run the scalar steps' own code."""
import math
import random
import sys

import numpy as np
import pytest

from fsqkd import SecurityParams
from fsqkd import _kernels as k
from fsqkd.channel import DOMAIN
from fsqkd.finitekey import _count_leakage, _count_leakage_array, _leakage, _leakage_array


def _in(rng: random.Random, name: str, scale: str = "linear") -> float:
    """A value in ``DOMAIN[name]``, sometimes at its closed lower end."""
    left, lo, hi, _ = DOMAIN[name]
    if left == "[" and rng.random() < 0.1:
        return float(lo)
    if scale == "log":
        return 10.0 ** rng.uniform(-12.0, math.log10(hi))
    return rng.uniform(lo, hi) or hi / 2.0


def _point(rng: random.Random) -> list:
    """One ``counts_core`` argument list from across the validated domain:
    the eight state intensities, of which some states share values, a
    transmittance that may underflow to 0, and pulse counts up to 1e300."""
    mu = [_in(rng, "intensity", "log") for _ in range(4)]
    if rng.random() < 0.3:
        mu[2:] = mu[:2]  # V sends what H sends
    states = mu + (mu if rng.random() < 0.5 else [_in(rng, "intensity", "log") for _ in range(4)])
    p1 = rng.uniform(0.001, 0.998)
    p2 = rng.uniform(0.0005, 0.9995 - p1)
    return [_in(rng, "basis probability"), _in(rng, "basis probability"), *states,
            rng.choice([0.0, 1e-9, _in(rng, "intensity", "log")]), p1, p2, 1.0 - p1 - p2,
            rng.choice([0.0, 1.0, 10.0 ** -rng.uniform(0.0, 400.0)]), _in(rng, "p_ec", "log"),
            _in(rng, "qber_i"), _in(rng, "p_ap"),
            rng.choice([0.0, 10.0 ** rng.uniform(0.0, 300.0)])]


def _rows(out, shape) -> list:
    """The elements of the 12 count arrays as one tuple per point."""
    return [repr(row) for row in zip(*(np.broadcast_to(a, shape).ravel().tolist() for a in out))]


@pytest.mark.parametrize("seed", range(4))
def test_counts_array_equals_counts_core(seed):
    rng = random.Random(f"counts_array {seed}")
    points = [_point(rng) for _ in range(500)]
    cols = [np.array(col) for col in zip(*points)]
    got = k.counts_array(*cols)
    assert len(got) == 12
    assert _rows(got, (500,)) == [repr(k.counts_core(*p)) for p in points]


def test_counts_array_broadcasts_each_input_on_its_own_axis():
    # the shape a fixed-parameter sweep passes: one axis per channel value,
    # scalar protocol values, and H, V, D and A sending the same objects
    mu1, mu2 = 0.6, 0.15
    fixed = (0.6, 0.4, *(mu1, mu2) * 4, 1e-9, 0.7, 0.2, 0.1)
    p_d = [1.0, 1e-3, 1e-7, 0.0]
    p_ec = [0.0, 1e-6, 0.3]
    qber_i = [0.0, 0.02]
    n_pulses = [0.0, 1e9, 1e300]
    p_d_, p_ec_, qber_i_, n_pulses_ = np.ix_(p_d, p_ec, qber_i, n_pulses)
    got = k.counts_array(*fixed, p_d_, p_ec_, qber_i_, 0.01, n_pulses_)
    want = [repr(k.counts_core(*fixed, a, b, c, 0.01, d))
            for a in p_d for b in p_ec for c in qber_i for d in n_pulses]
    assert _rows(got, (4, 3, 2, 3)) == want


# the straight-line steps, each written once for floats and arrays
FOLDED = ("detection_error_prob", "pair_statistics", "sifted_counts_core", "counts_core",
          "chernoff_delta_plus", "chernoff_delta_minus", "count_lower_core", "count_upper_core",
          "vacuum_bound_core", "single_photon_bound_core", "basis_bounds_core",
          "intensity_terms", "chain_bounds_core", "finite_leakage_core")
# the array glue: the array operations, and the masks of the steps with control flow
GLUE = {"_libm_exp", "_libm_log", "_clamp_array", "<lambda>", "_basis_counts",
        "_binary_entropy", "_fluct_gamma", "binary_entropy", "_chain_bounds", "_chain_key",
        "bounds_ell_array"}


def test_array_steps_run_the_scalar_steps_code():
    assert k.counts_array.__code__ is k.counts_core.__code__
    for name in FOLDED:
        twin = k._ARRAY[name]
        assert twin is not getattr(k, name)
        assert twin.__code__ is getattr(k, name).__code__ and twin.__globals__ is k._ARRAY
    # a fixed sweep's whole array chain runs no step body of its own
    rng = random.Random("one body per step")
    points = [_point(rng) for _ in range(50)]
    points[0][-1] = 0.0  # no counts
    cols = [np.array(col) for col in zip(*points)]
    sec, run = SecurityParams(), set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == k.__file__:
            run.add(frame.f_code)

    sys.setprofile(profile)
    try:
        c = k.counts_array(*cols)
        n_x = c[0] + c[1] + c[2]
        qber_x = (c[6] + c[7] + c[8]) / np.where(n_x > 0.0, n_x, 1.0)
        # the leakage's quantile near 1e300 trials can take seconds: cap its count only
        lam, _ = _leakage_array(np.minimum(n_x, 1e20), qber_x, sec)
        k.bounds_ell_array(c[0:3], c[3:6], c[6:9], c[9:12], (0.6, 0.15, 1e-9),
                           (0.7, 0.2, 0.1), 40.0, 1e-9, 100.0, lam)
    finally:
        sys.setprofile(None)
    shared = {getattr(k, name).__code__ for name in FOLDED}
    assert shared <= run
    assert {code.co_name for code in run - shared} - {"<listcomp>", "<dictcomp>",
                                                       "<genexpr>"} <= GLUE


@pytest.mark.parametrize("states", ["HHHH", "HVHV", "HHDD", "HVDA"])
def test_states_equal_by_value_count_as_one_object(states):
    # each letter gives the (mu1, mu2) pair a state sends, in H, V, D, A order;
    # pairs of distinct float objects are averaged where shared ones are
    # evaluated once, and 0.5 * (d + d) == d exactly
    rng = random.Random(f"equal states {states}")
    points = [_point(rng) for _ in range(300)]
    pick = ["HVDA".index(s) for s in states]

    def args(p, fresh):
        mu = [fresh(p[2 + 2 * j + i]) for j in pick for i in (0, 1)]
        return p[:2] + mu + p[10:]

    for p in points:
        shared, distinct = args(p, lambda v: v), args(p, lambda v: float(repr(v)))
        assert len(set(map(id, distinct[2:10]))) == 8
        assert repr(k.counts_core(*distinct)) == repr(k.counts_core(*shared))
    cols = [np.array(col) for col in zip(*points)]
    shared, distinct = args(cols, lambda a: a), args(cols, np.copy)
    want = [repr(k.counts_core(*args(p, lambda v: v))) for p in points]
    assert _rows(k.counts_array(*shared), (300,)) == want
    assert _rows(k.counts_array(*distinct), (300,)) == want


@pytest.mark.parametrize("ec_method", ["binomial", "rate-factor"])
def test_leakage_array_equals_scalar_leakage(ec_method):
    rng = random.Random(f"leakage {ec_method}")
    sec = SecurityParams(ec_method=ec_method, f_ec=rng.choice([1.0, 1.16]))
    n_x = [rng.choice([0.0, rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(0.0, 13.0),
                       10.0 ** rng.uniform(13.0, 18.0)]) for _ in range(3000)]
    qber_x = [rng.choice([0.0, 0.5, 10.0 ** -rng.uniform(0.0, 8.0), rng.uniform(0.0, 0.5),
                          rng.uniform(0.5, 1.0)]) for _ in n_x]
    # NaN lanes beside a live value: no quantile is taken, as the scalar ``if`` takes none
    n_x[:40] = [math.nan, 1e6] * 20
    qber_x[:40] = [0.1, math.nan] * 20
    lam, f_inv = _leakage_array(np.array(n_x), np.array(qber_x), sec)
    want = [_leakage(a, b, sec) for a, b in zip(n_x, qber_x)]
    assert [repr(v) for v in zip(lam.tolist(), f_inv.tolist())] == list(map(repr, want))
    assert any(w[0] == 0.0 for w in want) and any(w[0] > 0.0 for w in want)
    assert [repr(w) for w in want[:40]] == [repr((math.nan, 0.0))] * 40


@pytest.mark.parametrize("ec_method", ["binomial", "rate-factor"])
def test_count_leakage_array_equals_scalar(ec_method):
    # counts from the whole domain, zero counts and zero errors included, up
    # to 1e20 pulses: near 1e300 trials one scalar quantile can take seconds
    rng = random.Random(f"count leakage {ec_method}")
    sec = SecurityParams(ec_method=ec_method)
    points = [_point(rng)[:-1] + [rng.choice([0.0, 10.0 ** rng.uniform(0.0, 20.0)])]
              for _ in range(400)]
    counts = [k.counts_core(*p) for p in points]
    lam, f_inv = _count_leakage_array(tuple(np.array(c) for c in zip(*counts)), sec)
    want = [_count_leakage(c, sec) for c in counts]
    assert [repr(v) for v in zip(lam.tolist(), f_inv.tolist())] == list(map(repr, want))
    assert any(sum(c[:3]) == 0.0 for c in counts) and any(sum(c[6:9]) == 0.0 for c in counts)
