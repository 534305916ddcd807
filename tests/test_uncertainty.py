"""Worst-case key length under bounded intensity uncertainty."""
import itertools
import math
import warnings

import numpy as np
import pytest

from fsqkd import (ChannelConditions, IntensityUncertaintyModel,
                   ParameterError, ProtocolParams, SecurityParams,
                   key_length_for_channel, key_length_for_intensities,
                   worst_case_key_length)
from fsqkd import _kernels as k
from fsqkd import cli
from fsqkd._quantile import binom_ppf
from fsqkd.finitekey import _count_leakage
from fsqkd.channel import check_intensities
from fsqkd._kernels import (_basis_bounds, _binary_entropy, _ell_chain, _fluct_gamma,
                            _libm_log, bounds_ell_array)
from fsqkd.scenarios import SweepSpec, sweep
from fsqkd.uncertainty import GRID_DIMS, _distinct_grid

# fixed-hardware point with a comfortable key margin
PARAMS = ProtocolParams(pax=0.7, pbx=0.5, mu=(0.5, 0.1, 0.0),
                        p_mu=(0.8, 0.13, 0.07))
CHANNEL = ChannelConditions(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                            integration_time_s=60.0)
SEC = SecurityParams()


class TestModel:
    def test_candidate_grid_default(self):
        model = IntensityUncertaintyModel(f=0.1, nominal=PARAMS)
        c = model.candidates(0.5)
        assert list(c) == pytest.approx([0.45, 0.5, 0.55], rel=1e-14)
        assert c[1] == 0.5  # exact nominal midpoint

    def test_candidate_grid_denser(self):
        model = IntensityUncertaintyModel(f=0.2, nominal=PARAMS,
                                          grid_points_per_dim=5)
        c = model.candidates(1.0)
        assert list(c) == pytest.approx([0.8, 0.9, 1.0, 1.1, 1.2], rel=1e-14)

    def test_validation(self):
        with pytest.raises(ParameterError):
            IntensityUncertaintyModel(f=0.6, nominal=PARAMS)
        with pytest.raises(ParameterError):
            IntensityUncertaintyModel(f=0.1, nominal=PARAMS, grid_points_per_dim=1)


class TestWorstCase:
    def test_f_zero_equals_nominal_exactly(self):
        model = IntensityUncertaintyModel(f=0.0, nominal=PARAMS)
        res = worst_case_key_length(model, CHANNEL, SEC)
        nominal = key_length_for_channel(PARAMS, CHANNEL, SEC).ell
        assert res.min_ell == nominal
        assert res.nominal_ell == nominal

    def test_exact_evaluation_count(self):
        model = IntensityUncertaintyModel(f=0.05, nominal=PARAMS)
        res = worst_case_key_length(model, CHANNEL, SEC)
        assert res.evaluations == 3 ** 10 == 59049

    def test_monotone_in_f(self):
        ells = []
        for f in (0.0, 0.05, 0.1):
            model = IntensityUncertaintyModel(f=f, nominal=PARAMS)
            ells.append(worst_case_key_length(model, CHANNEL, SEC).min_ell)
        assert ells[0] >= ells[1] >= ells[2]
        assert ells[0] == key_length_for_channel(PARAMS, CHANNEL, SEC).ell

    def test_min_never_exceeds_nominal(self):
        model = IntensityUncertaintyModel(f=0.08, nominal=PARAMS)
        res = worst_case_key_length(model, CHANNEL, SEC)
        assert res.min_ell <= res.nominal_ell

    def test_argmin_reevaluates_to_min(self):
        model = IntensityUncertaintyModel(f=0.05, nominal=PARAMS)
        res = worst_case_key_length(model, CHANNEL, SEC)
        again = key_length_for_intensities(res.argmin, PARAMS, CHANNEL, SEC)
        assert again == res.min_ell

    def test_argmin_on_endpoints(self):
        # the worst case sits at interval edges, not interior points
        model = IntensityUncertaintyModel(f=0.05, nominal=PARAMS)
        res = worst_case_key_length(model, CHANNEL, SEC)
        digits = np.unravel_index(res.argmin_index, (3,) * 10)
        assert all(d in (0, 2) for d in digits)

    def test_endpoint_minimum_against_denser_grid(self):
        """Brute-force a reduced 4-dimension slice on a 5-point grid: the
        minimum must not improve on interior points."""
        f = 0.05
        model5 = IntensityUncertaintyModel(f=f, nominal=PARAMS,
                                           grid_points_per_dim=5)
        c1 = model5.candidates(PARAMS.mu[0])
        c2 = model5.candidates(PARAMS.mu[1])
        vary = ("h_mu1", "v_mu1", "est_mu1", "est_mu2")
        best = None
        best_combo = None
        for combo in itertools.product(range(5), repeat=4):
            point = {
                "h_mu1": c1[combo[0]], "v_mu1": c1[combo[1]],
                "est_mu1": c1[combo[2]], "est_mu2": c2[combo[3]],
            }
            ell = key_length_for_intensities(point, PARAMS, CHANNEL, SEC)
            if best is None or ell < best:
                best, best_combo = ell, combo
        assert all(d in (0, 4) for d in best_combo), (
            f"interior-point minimum found at {dict(zip(vary, best_combo))}")

    def test_grid_index_decode_roundtrip(self):
        g = 3
        idx = 0
        for digits in itertools.product(range(g), repeat=10):
            if idx % 7919 == 0:  # sample the space
                assert np.unravel_index(idx, (g,) * 10) == digits
            idx += 1

    def test_dims_cover_all_states_and_estimator(self):
        assert GRID_DIMS == ("h_mu1", "h_mu2", "v_mu1", "v_mu2", "d_mu1",
                             "d_mu2", "a_mu1", "a_mu2", "est_mu1", "est_mu2")

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ParameterError):
            key_length_for_intensities({"q_mu1": 0.5}, PARAMS, CHANNEL, SEC)

    @pytest.mark.parametrize("value", [np.nan, -0.3, np.inf])
    @pytest.mark.parametrize("name", ["h_mu1", "a_mu2", "est_mu1"])
    def test_intensity_outside_domain_rejected(self, name, value):
        # a negative true intensity gave 124,747 bits and NaN a ValueError
        # inside the chain
        with pytest.raises(ParameterError, match=f"{name} must be in"):
            key_length_for_intensities({name: value}, PARAMS, CHANNEL, SEC)

    def test_rate_factor_leakage_mode(self):
        model = IntensityUncertaintyModel(f=0.05, nominal=PARAMS)
        sec = SecurityParams(ec_method="rate-factor")
        res = worst_case_key_length(model, CHANNEL, sec)
        assert res.evaluations == 3 ** 10
        nominal = key_length_for_channel(PARAMS, CHANNEL, sec).ell
        assert res.nominal_ell == nominal
        assert 0 < res.min_ell <= nominal
        again = key_length_for_intensities(res.argmin, PARAMS, CHANNEL, sec)
        assert again == res.min_ell

    def test_denser_grid_runs(self):
        model = IntensityUncertaintyModel(f=0.05, nominal=PARAMS,
                                          grid_points_per_dim=4)
        res = worst_case_key_length(model, CHANNEL, SEC)
        assert res.evaluations == 4 ** 10
        again = key_length_for_intensities(res.argmin, PARAMS, CHANNEL, SEC)
        assert again == res.min_ell

    def test_single_point_grid_is_nominal(self):
        model = IntensityUncertaintyModel(f=0.0, nominal=PARAMS,
                                          grid_points_per_dim=1)
        res = worst_case_key_length(model, CHANNEL, SEC)
        assert res.evaluations == 1
        assert res.argmin_index == 0
        assert res.min_ell == res.nominal_ell == key_length_for_channel(
            PARAMS, CHANNEL, SEC).ell


def scalar_grid(model, channel, sec):
    """Reference: the scalar counts -> quantile -> bounds chain at every grid
    point, row-major over GRID_DIMS.  Returns (ell, reason) arrays."""
    params, g = model.nominal, model.grid_points_per_dim
    cand1 = model.candidates(params.mu[0])
    cand2 = model.candidates(params.mu[1])
    mu3 = params.mu[2]
    p1, p2, p3 = params.p_mu
    rate_factor = sec.ec_method == "rate-factor"
    ell = np.empty(g ** 10)
    reason = np.empty(g ** 10)
    for t in range(g ** 8):
        h1, h2, v1, v2, d1, d2, a1, a2 = np.unravel_index(t, (g,) * 8)
        c = k.counts_core(params.pax, params.pbx,
                          cand1[h1], cand2[h2], cand1[v1], cand2[v2],
                          cand1[d1], cand2[d2], cand1[a1], cand2[a2],
                          mu3, p1, p2, p3, channel.transmittance, channel.p_ec,
                          channel.qber_i, channel.p_ap, channel.n_pulses)
        f_inv = 0.0
        n_x = c[0] + c[1] + c[2]
        q = (c[6] + c[7] + c[8]) / n_x if n_x > 0.0 else 0.0
        if not rate_factor and q > 0.0:
            f_inv = binom_ppf(sec.eps_c, n_x, 1.0 - min(q, 0.5))
        lam = k.ec_leakage_core(n_x, q, sec.eps_c, rate_factor, sec.f_ec, f_inv)
        for e1, e2 in itertools.product(range(g), repeat=2):
            out = k.bounds_ell_core(*c, cand1[e1], cand2[e2], mu3, p1, p2, p3,
                                    sec.beta, sec.eps, sec.pa_bits, lam)
            j = t * g * g + e1 * g + e2
            ell[j], reason[j] = out[0], out[10]
    return ell, reason


def loss_channel(eta_loss_db, integration_time_s=60.0):
    return ChannelConditions(eta_loss_db=eta_loss_db, p_ec=1e-6, qber_i=0.01,
                             integration_time_s=integration_time_s)


class TestArrayGridExactness:
    """Each distinct point of the array grid equals the scalar chain at its
    first grid index, bit for bit, and the grid holds no other value."""

    @staticmethod
    def check(model, channel, ec_method):
        sec = SecurityParams(ec_method=ec_method)
        ell, first = _distinct_grid(model, channel, sec)
        ref, reason = scalar_grid(model, channel, sec)
        assert np.array_equal(ell, ref[first])
        assert np.array_equal(np.unique(ell), np.unique(ref))
        res = worst_case_key_length(model, channel, sec)
        assert res.evaluations == ref.size
        assert res.min_ell == ref.min()
        assert res.argmin_index == int(np.argmin(ref))
        return ref, reason, res

    # at f = 1e-17 every candidate equals the nominal value
    @pytest.mark.parametrize("ec_method", ["binomial", "rate-factor"])
    @pytest.mark.parametrize("f", [0.0, 1e-17, 0.05, 0.1])
    def test_two_point_grid(self, f, ec_method):
        model = IntensityUncertaintyModel(f=f, nominal=PARAMS,
                                          grid_points_per_dim=2)
        _, _, res = self.check(model, CHANNEL, ec_method)
        assert res.min_ell > 0

    def test_three_point_grid(self):
        model = IntensityUncertaintyModel(f=0.1, nominal=PARAMS)
        self.check(model, CHANNEL, "binomial")

    def test_some_candidates_equal(self):
        # the upper two candidates round to one value, so estimator pairs
        # repeat out of order: (1, 0) is the 4th and the 7th pair
        model = IntensityUncertaintyModel(f=1e-16, nominal=PARAMS)
        for mu in PARAMS.mu[:2]:
            c = model.candidates(mu)
            assert c[0] < c[1] == c[2]
        self.check(model, CHANNEL, "rate-factor")

    def test_single_photon_clamp_ties_at_zero(self):
        # at 44 dB most points lose their single-photon bound and the rest
        # have a negative key expression: every point ties at ell = 0
        model = IntensityUncertaintyModel(f=0.1, nominal=PARAMS,
                                          grid_points_per_dim=2)
        ref, reason, res = self.check(model, loss_channel(44.0), "binomial")
        assert np.all(ref == 0.0)
        assert np.any(reason == k.REASON_NO_SINGLE_PHOTON)
        assert res.min_ell == 0 and res.argmin_index == 0

    def test_zero_ties_among_positive_points(self):
        # the first of several zero-key points wins the tie
        model = IntensityUncertaintyModel(f=0.1, nominal=PARAMS,
                                          grid_points_per_dim=2)
        ref, _, res = self.check(model, loss_channel(35.5), "binomial")
        assert np.sum(ref == 0.0) > 1 and np.any(ref > 0.0)
        assert res.min_ell == 0 and res.argmin_index > 0
        assert res.nominal_ell > 0

    def test_empty_window(self):
        model = IntensityUncertaintyModel(f=0.1, nominal=PARAMS,
                                          grid_points_per_dim=2)
        _, reason, res = self.check(model, loss_channel(30.0, 0.0), "binomial")
        assert np.all(reason == k.REASON_ZERO_COUNTS)
        assert res.min_ell == 0 and res.argmin_index == 0


@pytest.mark.parametrize("g,f,expected", [(2, 0.05, 9), (3, 0.05, 36), (3, 0.0, 1)],
                         ids=["2", "3", "f0-3"])
def test_grid_counts_come_from_the_scalar_kernel(monkeypatch, g, f, expected):
    """The grid takes its counts from ``counts_core``: one call per
    unordered pair of distinct mu1 values times unordered pair of distinct
    mu2 values, (g (g + 1) / 2)^2 in all, and one call when f = 0."""
    calls = []
    counts_core = k.counts_core

    def counting(*args):
        calls.append(args)
        return counts_core(*args)

    monkeypatch.setattr(k, "counts_core", counting)
    model = IntensityUncertaintyModel(f=f, nominal=PARAMS, grid_points_per_dim=g)
    _distinct_grid(model, CHANNEL, SEC)
    assert len(calls) == expected


def random_counts(rng, mu1, mu2, mu3, p1, p2, p3, consistent):
    """Twelve expected counts: from ``counts_core`` at a random channel, or,
    to reach every clamp of the chain, drawn independently."""
    if not consistent:
        return tuple((10.0 ** rng.uniform(-2, 8, 12)).tolist())
    return k.counts_core(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                         *(mu * rng.uniform(0.9, 1.1) for mu in (mu1, mu2) * 4),
                         mu3, p1, p2, p3, 10.0 ** -rng.uniform(1, 6),
                         10.0 ** -rng.uniform(3, 8), rng.uniform(0, 0.05),
                         1e-3, 10.0 ** rng.uniform(4, 12))


@pytest.mark.parametrize("consistent", [True, False])
def test_bounds_ell_array_matches_scalar_kernel(consistent):
    """Every element of the array chain's record equals ``bounds_ell_core``'s,
    all 11 fields, including at zero-count points, and each basis' bounds
    equal ``basis_bounds_core``, also where the key expression hides them."""
    rng = np.random.default_rng(20240817)
    for _ in range(8):
        mu1 = rng.uniform(0.3, 0.9)
        mu2 = mu1 * rng.uniform(0.1, 0.5)
        mu3 = float(rng.choice([0.0, 1e-9]))
        p1 = rng.uniform(0.3, 0.7)
        p2 = rng.uniform(0.1, 0.25)
        p3 = 1.0 - p1 - p2
        est = (mu1 * rng.uniform(0.9, 1.1), mu2 * rng.uniform(0.9, 1.1), mu3)
        counts, lam, want = [], [], []
        for i in range(200):
            c = random_counts(rng, mu1, mu2, mu3, p1, p2, p3, consistent)
            if i % 20 == 0:  # no X-basis counts, then no Z-basis counts
                c = (0.0,) * 3 + c[3:6] + (0.0,) * 3 + c[9:]
            elif i % 20 == 1:
                c = c[:3] + (0.0,) * 3 + c[6:9] + (0.0,) * 3
            sec = SecurityParams(ec_method=["binomial", "rate-factor"][rng.integers(2)])
            counts.append(c)
            lam.append(_count_leakage(c, sec)[0])
            want.append(k.bounds_ell_core(*c, *est, p1, p2, p3, SEC.beta,
                                          SEC.eps, SEC.pa_bits, lam[-1]))
        cols = np.array(counts).T
        got = bounds_ell_array(cols[0:3], cols[3:6], cols[6:9], cols[9:12], est,
                               (p1, p2, p3), SEC.beta, SEC.eps, SEC.pa_bits,
                               np.array(lam))
        assert len(got) == 11
        assert [repr(v) for v in zip(*(a.tolist() for a in got))] == list(map(repr, want))
        assert {w[10] for w in want} >= {k.REASON_ZERO_COUNTS, k.REASON_NO_SINGLE_PHOTON}

        tau0, tau1, *weights = k.intensity_terms(*est, p1, p2, p3)
        for basis in (cols[0:3], cols[3:6]):
            total = basis[0] + basis[1] + basis[2]
            got = _basis_bounds(basis, total, est, weights, SEC.beta, tau0, tau1)
            scalar = [k.basis_bounds_core(*c, t, *est, *weights, SEC.beta, tau0, tau1)
                      for c, t in zip(basis.T, total)]
            assert np.array_equal(np.array(got), np.array(scalar).T)


def test_array_logarithmic_terms_match_scalar_kernels():
    """NumPy's own log differs from libm in the last bit on some inputs;
    the array entropy and fluctuation terms must not."""
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(0.0, 1.0, 20000), [-0.1, 0.0, 0.5, 1.0]])
    assert np.array_equal(_binary_entropy(x),
                          [k.binary_entropy(v) for v in x])
    b = np.concatenate([rng.uniform(0.0, 0.5, 20000), [-0.1, 0.0, 1.0]])
    c = 10.0 ** rng.uniform(-1, 8, b.size)
    d = 10.0 ** rng.uniform(-1, 8, b.size)
    c[:3] = 0.0
    a = SEC.eps_s + SEC.eps_c
    assert np.array_equal(_fluct_gamma(a, b, c, d),
                          [k.fluct_gamma(a, *t) for t in zip(b, c, d)])


def test_array_terms_match_scalar_kernels_on_every_branch():
    """The array entropy and fluctuation terms evaluate every lane and pick
    each scalar branch by a mask: every branch, and NaN and inf inputs,
    give the scalar kernel's value."""
    inf, nan = math.inf, math.nan
    x = np.array([-inf, -0.1, 0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.5,
                  inf, nan])
    assert [repr(v) for v in _binary_entropy(x).tolist()] == [
        repr(k.binary_entropy(v)) for v in x.tolist()]
    a = SEC.eps_s + SEC.eps_c
    cases = {  # (b, c, d) reaching each return of fluct_gamma
        "b <= 0": [(0.0, 1e4, 1e5), (-0.1, 1e4, 1e5)],
        "b >= 1": [(1.0, 1e4, 1e5), (2.0, 1e4, 1e5)],
        "c, d <= 0": [(0.1, 0.0, 1e5), (0.1, 1e4, 0.0), (0.1, -1.0, 1e5)],
        "arg <= 1": [(0.4, 1e25, 1e25), (0.1, 1e200, 1e200)],  # c * d overflows to inf
        "v <= 0": [(1e-300, 1e100, 1e100)],  # t1 underflows to 0
        "NaN arg": [(0.1, 1e308, 1e308), (0.1, inf, 1e5)],  # c + d and c * d are inf
        "NaN b": [(nan, 1e4, 1e5)],
        "positive": [(0.01, 1e4, 1e5), (0.49, 3.0, 7.0), (1e-300, 1e10, 1e10)],
    }
    got = {}
    for branch, rows in cases.items():
        b, c, d = np.array(rows).T
        got[branch] = _fluct_gamma(a, b, c, d).tolist()
        assert list(map(repr, got[branch])) == [repr(k.fluct_gamma(a, *t)) for t in rows]
    assert not any(v for branch in ("b <= 0", "b >= 1", "c, d <= 0", "arg <= 1", "v <= 0")
                   for v in got[branch])
    assert all(math.isnan(v) for v in got["NaN arg"] + got["NaN b"])
    assert all(v > 0.0 for v in got["positive"])
    # each basis' values at its own shape, broadcast against the other's
    b, c = np.array([[0.0], [0.02], [0.6]]), np.array([[0.0], [1e4], [1e30]])
    d = np.array([[0.0, 1e3, 1e5, inf]])
    want = [[k.fluct_gamma(a, bi, ci, di) for di in d[0].tolist()]
            for bi, ci in zip(b[:, 0].tolist(), c[:, 0].tolist())]
    assert np.array_equal(_fluct_gamma(a, b, c, d), want, equal_nan=True)


def test_bounds_ell_array_matches_scalar_kernel_on_every_lane():
    """Counts up to the largest doubles, zero counts and infinite or NaN
    leakage reach every lane the key stage masks; each field of every
    element equals ``bounds_ell_core``'s."""
    rng = np.random.default_rng(25)
    mu, p_mu = (0.6, 0.15, 1e-9), (0.7, 0.2, 0.1)
    counts = 10.0 ** rng.uniform(-2, 308, (4000, 12))
    counts[rng.random(counts.shape) < 0.1] = 0.0
    counts[::50, 0:3] = [1e308, 1e308, 1.0]  # the X-basis total overflows
    rate_factor = SecurityParams(ec_method="rate-factor")
    lam = np.array([_count_leakage(c, rate_factor)[0] for c in counts.tolist()])
    lam[1::50], lam[2::50] = math.inf, math.nan
    want = [k.bounds_ell_core(*c, *mu, *p_mu, SEC.beta, SEC.eps, SEC.pa_bits, l)
            for c, l in zip(counts.tolist(), lam.tolist())]
    cols = counts.T
    got = bounds_ell_array(cols[0:3], cols[3:6], cols[6:9], cols[9:12], mu, p_mu,
                           SEC.beta, SEC.eps, SEC.pa_bits, lam)
    assert [repr(v) for v in zip(*(f.tolist() for f in got))] == list(map(repr, want))
    ell, raw, _, s_x1, _, s_z1, v_z1, phi_x, _, _, reason = np.array(want).T
    alive = (reason == k.REASON_OK) | (reason == k.REASON_NEGATIVE_KEY)
    single = reason == k.REASON_NO_SINGLE_PHOTON
    assert set(reason) == {k.REASON_OK, k.REASON_ZERO_COUNTS, k.REASON_NO_SINGLE_PHOTON,
                           k.REASON_NEGATIVE_KEY}
    assert np.any(single & (s_x1 == 0.0) & (s_z1 > 0.0))
    assert np.any(single & (s_z1 == 0.0) & (s_x1 > 0.0))
    assert np.any(alive & (phi_x == 0.5))  # v_z1 / s_z1 >= 0.5, or phi_x capped
    assert np.any(alive & (v_z1 == 0.0))  # b = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = v_z1 / s_z1
    assert np.any(alive & (ratio > 0.0) & (phi_x == ratio))  # gamma = 0 past b = 0
    assert np.any(np.isnan(raw)) and np.any(np.isnan(ell))


def test_array_log_is_libm_log():
    """The array log equals ``math.log`` element for element: subnormals up
    to the largest doubles, the neighbourhood of 1, and (0, 1)."""
    rng = np.random.default_rng(11)
    x = np.concatenate([10.0 ** rng.uniform(-323.3, 308.2, 600_000),
                        rng.uniform(0.999, 1.001, 300_000), rng.uniform(0.0, 1.0, 300_000),
                        [5e-324, 2.2250738585072014e-308, 1.0, 1.7e308]])
    assert x.min() > 0.0 and x.max() >= 1.7e308
    assert np.array_equal(_libm_log(x), [math.log(v) for v in x.tolist()])


@pytest.mark.parametrize("consistent", [True, False])
def test_batched_estimators_match_one_call_each(consistent):
    """``_ell_chain`` over an (E, 1, 1) estimator axis equals E calls with a
    scalar estimator each, bit for bit, and so does every field of
    ``bounds_ell_array``'s record, each with the estimator axis."""
    rng = np.random.default_rng(31)
    mu1, mu2, mu3 = 0.6, 0.15, 1e-9
    p_mu = (0.7, 0.2, 0.1)
    counts = np.array([random_counts(rng, mu1, mu2, mu3, *p_mu, consistent)
                       for _ in range(40)])
    n_x = tuple(counts[:, j, None] for j in range(0, 3))
    n_z = tuple(counts[None, :, j] for j in range(3, 6))
    m_x = tuple(counts[:, j, None] for j in range(6, 9))
    m_z = tuple(counts[None, :, j] for j in range(9, 12))
    lam = np.array([_count_leakage(c, SEC)[0] for c in counts.tolist()])[:, None]
    est = [(mu1 * rng.uniform(0.9, 1.1), mu2 * rng.uniform(0.9, 1.1)) for _ in range(7)]
    args = (p_mu, SEC.beta, SEC.eps, SEC.pa_bits, lam)
    est_mu1, est_mu2 = np.array(est).T[..., None, None]
    ell, raw, _ = _ell_chain(n_x, n_z, m_z, (est_mu1, est_mu2, mu3), *args)
    record = bounds_ell_array(n_x, n_z, m_x, m_z, (est_mu1, est_mu2, mu3), *args)
    assert ell.shape == raw.shape == (7, 40, 40)
    assert all(field.shape == (7, 40, 40) for field in record)
    for e, (a, b) in enumerate(est):
        one_ell, one_raw, _ = _ell_chain(n_x, n_z, m_z, (a, b, mu3), *args)
        assert np.array_equal(ell[e], one_ell) and np.array_equal(raw[e], one_raw)
        one = bounds_ell_array(n_x, n_z, m_x, m_z, (a, b, mu3), *args)
        assert all(np.array_equal(f[e], g) for f, g in zip(record, one))
    assert np.any(ell > 0.0) or not consistent


def test_domain_top_pulse_count_raises_no_warning(tmp_path, capsys):
    """At f_s = 1e8 and a 1e292 s window, 1e300 pulses, ``c * d`` of the
    fluctuation term overflows to inf; ``sweep()``, the ``sweep`` command
    and the worst-case grid stay silent, as ``key_length_for_channel``
    does, and agree with it.  Rate-factor mode keeps the slow binomial
    quantile at 1e300 trials (ROADMAP item 4) out of the test."""
    sec = SecurityParams(ec_method="rate-factor")
    channel = ChannelConditions(eta_loss_db=0.0, p_ec=1e-6, qber_i=0.01,
                                integration_time_s=1e292)
    path = tmp_path / "top.cfg"
    path.write_text("channel.eta_loss_db = 0\nchannel.p_ec = 1e-6\nchannel.qber_i = 0.01\n"
                    "channel.integration_time_s = 1e292\nec.method = rate-factor\n"
                    "protocol.pax = 0.7\nprotocol.pbx = 0.5\nprotocol.mu1 = 0.5\n"
                    "protocol.mu2 = 0.1\nprotocol.mu3 = 0.0\nprotocol.p_mu1 = 0.8\n"
                    "protocol.p_mu2 = 0.13\nsweep.eta_loss_db = 0\nsweep.log10_pec = -6\n"
                    "sweep.qber_i = 0.01\nsweep.tau_s = 1e292\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = key_length_for_channel(PARAMS, channel, sec).ell
        rows = sweep(SweepSpec((0.0,), (-6.0,), (0.01,), (1e292,), params=PARAMS), channel, sec)
        code = cli.main(["sweep", "--config", str(path), "--format", "json"])
        worst = worst_case_key_length(IntensityUncertaintyModel(f=0.1, nominal=PARAMS),
                                      channel, sec)
    assert code == 0 and str(want) in capsys.readouterr().out
    assert rows[0].result.ell == want == worst.nominal_ell
    assert 0 < worst.min_ell < want


# nominal point whose estimator pairs can leave the decoy domain under uncertainty
NEAR = ProtocolParams(pax=0.7, pbx=0.5, mu=(0.3, 0.2, 0.0), p_mu=(0.8, 0.13, 0.07))


class TestEstimatorOutsideDecoyDomain:
    """An estimator pair failing ``check_intensities`` counts as zero key."""

    def test_nominal_pair(self):
        assert key_length_for_intensities({}, NEAR, CHANNEL, SEC) == 192950

    @pytest.mark.parametrize("est", [(0.21, 0.26), (0.24, 0.24)],
                             ids=["mu2-above-mu1", "equal-pair"])
    def test_pair_outside_domain_gives_zero(self, est):
        # these gave 435,123 bits and a ZeroDivisionError
        state = {"est_mu1": est[0], "est_mu2": est[1]}
        assert key_length_for_intensities(state, NEAR, CHANNEL, SEC) == 0

    @pytest.mark.parametrize("f", [0.2, 0.3])
    def test_grid_pairs_outside_domain_yield_zeros(self, f):
        model = IntensityUncertaintyModel(f=f, nominal=NEAR)
        cand1, cand2 = model.candidates(0.3), model.candidates(0.2)
        ell, first = _distinct_grid(model, CHANNEL, SEC)
        # every candidate differs, so each of the g^2 pairs has its own slab,
        # whose first cell is at the lowest candidate of every true intensity
        assert len(ell) == 9
        outside = 0
        for slab, (est1, est2) in zip(ell, itertools.product(cand1, cand2)):
            try:
                check_intensities((est1, est2, 0.0))
            except ParameterError:
                outside += 1
                assert not np.any(slab)
            else:
                assert np.any(slab)
            state = {name: cand1[0] if name.endswith("mu1") else cand2[0]
                     for name in GRID_DIMS[:8]}
            state.update(est_mu1=est1, est_mu2=est2)
            assert slab[0, 0] == key_length_for_intensities(state, NEAR, CHANNEL, SEC)
        assert np.array_equal(first[:, 0, 0], np.arange(9))
        assert outside > 0
        res = worst_case_key_length(model, CHANNEL, SEC)
        assert res.min_ell == 0 and res.nominal_ell == 192950


@pytest.mark.parametrize("params,g,f,calls,pairs", [
    (PARAMS, 3, 0.05, 2, 9), (PARAMS, 3, 0.0, 1, 1), (PARAMS, 2, 0.05, 2, 4),
    (PARAMS, 4, 0.05, 3, 16), (NEAR, 3, 0.3, 2, 8)], ids=["3", "f0-3", "2", "4", "near-0.3"])
def test_chain_runs_over_blocks_of_estimator_pairs(monkeypatch, params, g, f, calls, pairs):
    """The grid runs the decoy bounds once, over each distinct pair in the
    decoy domain, and the key stage over blocks of those pairs, each call
    covering at most g^8 points; a pair outside the domain never reaches
    the chain."""
    sizes, seen = [], []
    chain_bounds, chain_key = k._chain_bounds, k._chain_key

    def bounds(n_x, n_z, m_z, mu, *args):
        seen.extend(zip(np.ravel(mu[0]).tolist(), np.ravel(mu[1]).tolist()))
        return chain_bounds(n_x, n_z, m_z, mu, *args)

    def key(*args):
        out = chain_key(*args)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(k, "_chain_bounds", bounds)
    monkeypatch.setattr(k, "_chain_key", key)
    model = IntensityUncertaintyModel(f=f, nominal=params, grid_points_per_dim=g)
    _distinct_grid(model, CHANNEL, SEC)
    assert len(sizes) == calls
    assert max(sizes) <= g ** 8
    inside = set()
    for est in itertools.product(model.candidates(params.mu[0]).tolist(),
                                 model.candidates(params.mu[1]).tolist()):
        try:
            check_intensities((*est, params.mu[2]))
        except ParameterError:
            continue
        inside.add(est)
    assert sorted(seen) == sorted(inside)
    assert len(inside) == pairs
