"""Worst-case key length under bounded intensity uncertainty."""
import itertools

import numpy as np
import pytest

from fsqkd import (ChannelConditions, IntensityUncertaintyModel,
                   ParameterError, ProtocolParams, SecurityParams,
                   key_length_for_channel, key_length_for_intensities,
                   worst_case_key_length)
from fsqkd import _kernels as k
from fsqkd._quantile import binom_ppf
from fsqkd.uncertainty import (GRID_DIMS, _binary_entropy, _fluct_gamma,
                               bounds_ell_array, grid_key_lengths)

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

    def test_rate_factor_leakage_mode(self):
        model = IntensityUncertaintyModel(f=0.05, nominal=PARAMS)
        res = worst_case_key_length(model, CHANNEL, SEC, ec_method="rate-factor")
        assert res.evaluations == 3 ** 10
        nominal = key_length_for_channel(PARAMS, CHANNEL, SEC,
                                         ec_method="rate-factor").ell
        assert res.nominal_ell == nominal
        assert 0 < res.min_ell <= nominal
        again = key_length_for_intensities(res.argmin, PARAMS, CHANNEL, SEC,
                                           ec_method="rate-factor")
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


def scalar_grid(model, channel, sec, ec_method):
    """Reference: the scalar counts -> quantile -> bounds chain at every grid
    point, row-major over GRID_DIMS.  Returns (ell, reason) arrays."""
    params, g = model.nominal, model.grid_points_per_dim
    cand1 = model.candidates(params.mu[0])
    cand2 = model.candidates(params.mu[1])
    mu3 = params.mu[2]
    p1, p2, p3 = params.p_mu
    ec_mode = 0 if ec_method == "binomial" else 1
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
        if ec_mode == 0 and n_x > 0.0:
            q = (c[6] + c[7] + c[8]) / n_x
            if q > 0.0:
                f_inv = binom_ppf(sec.eps_c, n_x, 1.0 - min(q, 0.5))
        for e1, e2 in itertools.product(range(g), repeat=2):
            out = k.bounds_ell_core(*c, cand1[e1], cand2[e2], mu3, p1, p2, p3,
                                    sec.beta, sec.eps_s, sec.eps_c, ec_mode,
                                    1.16, f_inv)
            j = t * g * g + e1 * g + e2
            ell[j], reason[j] = out[0], out[10]
    return ell, reason


def loss_channel(eta_loss_db, integration_time_s=60.0):
    return ChannelConditions(eta_loss_db=eta_loss_db, p_ec=1e-6, qber_i=0.01,
                             integration_time_s=integration_time_s)


class TestArrayGridExactness:
    """The array grid reproduces the scalar chain at every point, bit for bit."""

    @staticmethod
    def check(model, channel, ec_method):
        ell = np.stack(list(grid_key_lengths(model, channel, SEC, ec_method)),
                       axis=1).ravel()
        ref, reason = scalar_grid(model, channel, SEC, ec_method)
        assert np.array_equal(ell, ref)
        res = worst_case_key_length(model, channel, SEC, ec_method=ec_method)
        assert res.evaluations == ref.size
        assert res.min_ell == ref.min()
        assert res.argmin_index == int(np.argmin(ref))
        return ref, reason, res

    @pytest.mark.parametrize("ec_method", ["binomial", "rate-factor"])
    @pytest.mark.parametrize("f", [0.0, 0.05, 0.1])
    def test_two_point_grid(self, f, ec_method):
        model = IntensityUncertaintyModel(f=f, nominal=PARAMS,
                                          grid_points_per_dim=2)
        _, _, res = self.check(model, CHANNEL, ec_method)
        assert res.min_ell > 0

    def test_three_point_grid(self):
        model = IntensityUncertaintyModel(f=0.1, nominal=PARAMS)
        self.check(model, CHANNEL, "binomial")

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


def random_counts(rng, mu1, mu2, mu3, p1, p2, p3, consistent):
    """Twelve expected counts: from ``counts_core`` at a random channel, or,
    to reach every clamp of the chain, drawn independently."""
    if not consistent:
        return tuple(10.0 ** rng.uniform(-2, 8, 12))
    return k.counts_core(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                         *(mu * rng.uniform(0.9, 1.1) for mu in (mu1, mu2) * 4),
                         mu3, p1, p2, p3, 10.0 ** -rng.uniform(1, 6),
                         10.0 ** -rng.uniform(3, 8), rng.uniform(0, 0.05),
                         1e-3, 10.0 ** rng.uniform(4, 12))


@pytest.mark.parametrize("consistent", [True, False])
def test_bounds_ell_array_matches_scalar_kernel(consistent):
    """Every element of the array chain equals ``bounds_ell_core``, including
    the unfloored key expression."""
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
        for _ in range(200):
            c = random_counts(rng, mu1, mu2, mu3, p1, p2, p3, consistent)
            ec_mode = int(rng.integers(2))
            n_x = c[0] + c[1] + c[2]
            qber_x = (c[6] + c[7] + c[8]) / n_x
            f_inv = binom_ppf(SEC.eps_c, n_x, 1.0 - min(qber_x, 0.5))
            counts.append(c)
            lam.append(k.ec_leakage_core(n_x, qber_x, SEC.eps_c, ec_mode, 1.16,
                                         f_inv))
            want.append(k.bounds_ell_core(*c, *est, p1, p2, p3, SEC.beta,
                                          SEC.eps_s, SEC.eps_c, ec_mode, 1.16,
                                          f_inv))
        cols = np.array(counts).T
        ell, raw = bounds_ell_array(cols[0:3], cols[3:6], cols[9:12], est,
                                    (p1, p2, p3), SEC.beta, SEC.eps_s,
                                    SEC.eps_c, np.array(lam))
        want = np.array(want).T
        assert np.array_equal(ell, want[0])
        assert np.array_equal(raw, want[1])


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
