"""Finite-key estimation chain: corrections, decoy bounds, leakage, key length."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fsqkd import (ChannelConditions, IntensityUncertaintyModel, NoKeySignal,
                   OptimizationSpec, ParameterError, ProtocolParams,
                   SecurityParams, binary_entropy, chernoff_delta, decoy_tau,
                   ec_leakage, expected_block_counts, key_length_for_channel,
                   key_length_for_intensities, optimize, phase_error,
                   scaled_count_bounds, secure_key_length,
                   single_photon_bound, vacuum_bound, worst_case_key_length)
from fsqkd import _kernels
from fsqkd.channel import BlockCounts
from fsqkd.finitekey import _REASONS, _evaluate_flat

BETA_REF = math.log(1.0 / (1e-9 + 1e-15))


class TestBinaryEntropy:
    def test_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_reference_value(self):
        # frozen from an independent reference script
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            binary_entropy(-0.1)
        with pytest.raises(ParameterError):
            binary_entropy(1.1)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(1e-9, 1 - 1e-9))
    def test_matches_reference_formula(self, x):
        assert binary_entropy(x) == pytest.approx(oracles.h2(x), rel=1e-12)


class TestChernoffDelta:
    def test_zero_count_collapse(self):
        beta = 7.3
        assert chernoff_delta(0.0, beta, "plus") == pytest.approx(2 * beta, rel=1e-14)
        assert chernoff_delta(0.0, beta, "minus") == pytest.approx(beta, rel=1e-14)

    def test_reference_value(self):
        # frozen from an independent reference script
        assert chernoff_delta(1e6, BETA_REF, "plus") == pytest.approx(
            6458.654541854381, rel=1e-12)
        assert chernoff_delta(1e6, BETA_REF, "minus") == pytest.approx(
            6448.267894342469, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(y=st.floats(0, 1e12), beta=st.floats(1e-6, 100))
    def test_plus_exceeds_minus_exceeds_zero(self, y, beta):
        plus = chernoff_delta(y, beta, "plus")
        minus = chernoff_delta(y, beta, "minus")
        assert plus > minus > 0.0

    def test_bad_side(self):
        with pytest.raises(ParameterError):
            chernoff_delta(1.0, 1.0, "sideways")


class TestDecoyTau:
    def test_single_intensity(self):
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.2, 1e-9),
                                p_mu=(0.999998, 1e-6, 1e-6))
        # nearly all the weight on mu1: tau_0 ~ exp(-mu1)
        assert decoy_tau(0, params) == pytest.approx(math.exp(-0.5), rel=1e-5)

    def test_reference_values(self):
        # frozen from an independent reference script
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0),
                                p_mu=(1 / 3, 1 / 3, 1 / 3))
        assert decoy_tau(0, params) == pytest.approx(0.8371226925828643, rel=1e-12)
        assert decoy_tau(1, params) == pytest.approx(0.1312496905533042, rel=1e-12)

    def test_zero_intensity_contributes_nothing_to_tau1(self):
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0),
                                p_mu=(0.2, 0.2, 0.6))
        expected = 0.2 * math.exp(-0.5) * 0.5 + 0.2 * math.exp(-0.1) * 0.1
        assert decoy_tau(1, params) == pytest.approx(expected, rel=1e-12)

    def test_domain(self, reference_params):
        with pytest.raises(ParameterError):
            decoy_tau(2, reference_params)


class TestScaledCountBounds:
    def test_zero_counts_collapse(self, reference_params, security):
        counts = BlockCounts(n_x=(0.0,) * 3, n_z=(0.0,) * 3,
                             m_x=(0.0,) * 3, m_z=(0.0,) * 3)
        b = scaled_count_bounds(counts, reference_params, security)
        for i, (mu, p) in enumerate(zip(reference_params.mu, reference_params.p_mu)):
            assert b["n_x_minus"][i] == 0.0
            assert b["n_x_plus"][i] == pytest.approx(
                (math.exp(mu) / p) * 2 * security.beta, rel=1e-12)

    def test_beta_zero_recovers_raw_scaling(self, reference_params, reference_channel):
        sec0 = SecurityParams(beta=0.0)
        counts = expected_block_counts(reference_params, reference_channel)
        b = scaled_count_bounds(counts, reference_params, sec0)
        for i, (mu, p) in enumerate(zip(reference_params.mu, reference_params.p_mu)):
            expected = (math.exp(mu) / p) * counts.n_x[i]
            assert b["n_x_minus"][i] == pytest.approx(expected, rel=1e-12)
            assert b["n_x_plus"][i] == pytest.approx(expected, rel=1e-12)

    def test_reference_table(self, reference_params, reference_channel, security):
        # frozen from an independent reference script (beta = ln(21/eps_s))
        counts = expected_block_counts(reference_params, reference_channel)
        b = scaled_count_bounds(counts, reference_params, security)
        assert b["n_x_minus"][0] == pytest.approx(1225266.4696611103, rel=1e-12)
        assert b["n_x_minus"][1] == pytest.approx(164047.28960329018, rel=1e-12)
        assert b["n_x_minus"][2] == pytest.approx(2311.9726278324238, rel=1e-12)
        assert b["n_x_plus"][0] == pytest.approx(1259626.0856724377, rel=1e-12)
        assert b["n_x_plus"][1] == pytest.approx(174495.7883556714, rel=1e-12)
        assert b["n_x_plus"][2] == pytest.approx(3732.584744370343, rel=1e-12)
        assert b["m_z_minus"][2] == 0.0  # floored
        assert b["m_z_plus"][2] == pytest.approx(225.30939365663318, rel=1e-12)


class TestDecoyBounds:
    def test_all_zero_counts_floor(self, reference_params, security):
        zeros = (0.0, 0.0, 0.0)
        plus = (10.0, 10.0, 10.0)
        assert vacuum_bound(zeros, plus, reference_params) == 0.0
        assert single_photon_bound(zeros, plus, 0.0, reference_params) == 0.0

    def test_mu3_zero_vacuum_collapse(self):
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0),
                                p_mu=(1 / 3, 1 / 3, 1 / 3))
        n_minus = (100.0, 200.0, 300.0)
        n_plus = (150.0, 250.0, 350.0)
        tau0 = decoy_tau(0, params)
        assert vacuum_bound(n_minus, n_plus, params) == pytest.approx(
            tau0 * 300.0, rel=1e-12)

    def test_degenerate_intensities_rejected(self):
        with pytest.raises(ParameterError):
            ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.5, 0.0),
                           p_mu=(1 / 3, 1 / 3, 1 / 3))


class TestPhaseError:
    def test_zero_error_limit(self, security):
        assert phase_error(1e6, 0.0, 1e6, security) == 0.0

    def test_clamp(self, security):
        assert phase_error(100.0, 60.0, 100.0, security) == 0.5

    def test_no_key_signal(self, security):
        with pytest.raises(NoKeySignal):
            phase_error(0.0, 1.0, 10.0, security)
        with pytest.raises(NoKeySignal):
            phase_error(10.0, 1.0, 0.0, security)

    def test_reference_chain_value(self, reference_params, reference_channel, security):
        # frozen full-chain value from an independent reference script
        result = key_length_for_channel(reference_params, reference_channel, security)
        assert result.phi_x == pytest.approx(0.028788599396597538, rel=1e-9)


class TestEcLeakage:
    def test_nothing_to_reconcile(self):
        assert ec_leakage(0.0, 0.1, 1e-15) == 0.0
        assert ec_leakage(1e6, 0.0, 1e-15) == 0.0

    def test_rate_factor_mode(self):
        # frozen: 1.16e6 * h(0.02)
        got = ec_leakage(1e6, 0.02, 1e-15, method="rate-factor", f_ec=1.16)
        assert got == pytest.approx(164071.02934851198, rel=1e-12)

    def test_finite_size_mode_matches_scipy_oracle(self):
        # frozen from an independent reference script (scipy binom.ppf route)
        got = ec_leakage(1e6, 0.02, 1e-15, method="binomial")
        assert got == pytest.approx(147686.06699105405, rel=1e-12)
        assert got == pytest.approx(oracles.ec_leakage_finite(1e6, 0.02, 1e-15), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(n=st.floats(1e3, 1e8), q=st.floats(1e-4, 0.3))
    def test_finite_size_tracks_scipy_oracle(self, n, q):
        n = float(round(n))
        assert ec_leakage(n, q, 1e-15, method="binomial") == pytest.approx(
            oracles.ec_leakage_finite(n, q, 1e-15), rel=1e-9)

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            ec_leakage(1e6, 0.02, 1e-15, method="wishful")


class TestSecureKeyLength:
    def test_all_zero_counts_no_key(self, reference_params, security):
        counts = BlockCounts(n_x=(0.0,) * 3, n_z=(0.0,) * 3,
                             m_x=(0.0,) * 3, m_z=(0.0,) * 3)
        result = secure_key_length(counts, reference_params, security)
        assert result.ell == 0
        assert result.reason == "zero-counts"

    def test_reference_chain(self, reference_params, reference_channel, security):
        # frozen full-chain values from an independent reference script
        result = key_length_for_channel(reference_params, reference_channel, security)
        assert result.ell == 110275
        assert result.raw == pytest.approx(110275.77610744988, rel=1e-12)
        assert result.s_x0 == pytest.approx(1935.4033092284933, rel=1e-9)
        assert result.s_x1 == pytest.approx(180504.6510175041, rel=1e-9)
        assert result.lambda_ec == pytest.approx(37922.31676998466, rel=1e-9)
        assert result.qber_x == pytest.approx(0.015337717636589641, rel=1e-12)
        assert result.reason is None

    def test_result_invariants(self, reference_params, reference_channel, security):
        counts = expected_block_counts(reference_params, reference_channel)
        result = secure_key_length(counts, reference_params, security)
        assert result.s_x0 + result.s_x1 <= counts.n_x_total
        assert 0.0 <= result.phi_x <= 0.5
        assert result.ell >= 0

    def test_monotone_in_loss_and_background(self, reference_params, security):
        prev = None
        for eta in range(10, 52, 2):
            cond = ChannelConditions(eta_loss_db=float(eta), p_ec=1e-6,
                                     qber_i=0.01, integration_time_s=600.0)
            ell = key_length_for_channel(reference_params, cond, security,
                                         with_diagnostics=False).ell
            if prev is not None:
                assert ell <= prev
            prev = ell
        prev = None
        for log_pec in (-7.0, -6.0, -5.0, -4.0, -3.0):
            cond = ChannelConditions(eta_loss_db=25.0, p_ec=10.0 ** log_pec,
                                     qber_i=0.01, integration_time_s=600.0)
            ell = key_length_for_channel(reference_params, cond, security,
                                         with_diagnostics=False).ell
            if prev is not None:
                assert ell <= prev
            prev = ell

    def test_superlinear_scaling_in_time(self, reference_params, security):
        short = ChannelConditions(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                                  integration_time_s=120.0)
        ell_1 = key_length_for_channel(reference_params, short, security).ell
        assert ell_1 > 0
        double = ChannelConditions(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                                   integration_time_s=240.0)
        ell_2 = key_length_for_channel(reference_params, double, security).ell
        assert ell_2 >= 2 * ell_1

    def test_extreme_loss_signals_zero_counts(self):
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0),
                                p_mu=(1 / 3, 1 / 3, 1 / 3))
        cond = ChannelConditions(eta_loss_db=200.0, p_ec=0.0, qber_i=0.01,
                                 integration_time_s=60.0, p_ap=0.0)
        result = key_length_for_channel(params, cond, SecurityParams())
        assert result.ell == 0
        assert result.reason == "zero-counts"

    def test_diagnostics_carry_bound_tables(self, reference_params, reference_channel, security):
        result = key_length_for_channel(reference_params, reference_channel, security)
        for key in ("n_x_minus", "n_x_plus", "n_z_minus", "n_z_plus",
                    "m_x_minus", "m_x_plus", "m_z_minus", "m_z_plus"):
            assert len(result.diagnostics[key]) == 3
        assert result.diagnostics["s_z1"] == pytest.approx(180504.6510175041, rel=1e-9)
        assert result.diagnostics["v_z1"] == pytest.approx(4356.447301157014, rel=1e-9)


class TestAsymptoticOracle:
    """beta = 0 with a noiseless channel recovers the exact Poisson picture."""

    def test_single_photon_bound_matches_poisson_oracle(self):
        # the single-photon estimate is a lower bound whose asymptotic
        # tightness improves as mu2 shrinks; at mu2 = 0.01 it sits within
        # 1% of the true Poisson single-photon detection count
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.01, 1e-9),
                                p_mu=(1 / 3, 1 / 3, 1 / 3))
        cond = ChannelConditions(eta_loss_db=30.0, p_ec=0.0, qber_i=0.0,
                                 integration_time_s=60.0, p_ap=0.0)
        sec0 = SecurityParams(beta=0.0)
        result = key_length_for_channel(params, cond, sec0)
        oracle = oracles.poisson_single_photon_detections(
            0.5, 0.5, (0.5, 0.01, 1e-9), (1 / 3, 1 / 3, 1 / 3), 30.0, 1e8, 60.0)
        assert result.s_x1 == pytest.approx(oracle, rel=0.01)
        assert result.s_x1 <= oracle * (1 + 1e-9)  # it is a lower bound

    def test_single_photon_bound_tightness_factor(self):
        # at finite mu2 the asymptotic ratio to the true count approaches
        # (mu1*exp(mu2) - mu2*exp(mu1)) / (mu1 - mu2) exactly
        mu1, mu2 = 0.5, 0.1
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(mu1, mu2, 1e-9),
                                p_mu=(1 / 3, 1 / 3, 1 / 3))
        cond = ChannelConditions(eta_loss_db=30.0, p_ec=0.0, qber_i=0.0,
                                 integration_time_s=60.0, p_ap=0.0)
        sec0 = SecurityParams(beta=0.0)
        result = key_length_for_channel(params, cond, sec0)
        oracle = oracles.poisson_single_photon_detections(
            0.5, 0.5, (mu1, mu2, 1e-9), (1 / 3, 1 / 3, 1 / 3), 30.0, 1e8, 60.0)
        tightness = (mu1 * math.exp(mu2) - mu2 * math.exp(mu1)) / (mu1 - mu2)
        assert result.s_x1 / oracle == pytest.approx(tightness, rel=3e-3)

    def test_vacuum_bound_matches_poisson_oracle(self):
        # with beta = 0 the vacuum estimate equals the extraneous-click rate
        # of the vacuum component (exact Poisson-term bookkeeping)
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 1e-9),
                                p_mu=(1 / 3, 1 / 3, 1 / 3))
        cond = ChannelConditions(eta_loss_db=20.0, p_ec=1e-6, qber_i=0.0,
                                 integration_time_s=60.0, p_ap=0.0)
        sec0 = SecurityParams(beta=0.0)
        result = key_length_for_channel(params, cond, sec0)
        oracle = oracles.poisson_vacuum_detections(
            0.5, 0.5, (0.5, 0.1, 1e-9), (1 / 3, 1 / 3, 1 / 3), 20.0, 1e-6, 0.0,
            1e8, 60.0)
        assert result.s_x0 == pytest.approx(oracle, rel=0.01)


class TestSecurityParams:
    def test_defaults(self):
        sec = SecurityParams()
        assert sec.eps_s == 1e-9
        assert sec.eps_c == 1e-15
        assert sec.beta == pytest.approx(math.log(21.0 / 1e-9), rel=1e-14)
        assert sec.eps == pytest.approx(1e-9 + 1e-15, rel=1e-14)

    def test_explicit_beta(self):
        assert SecurityParams(beta=0.0).beta == 0.0
        assert SecurityParams(beta=BETA_REF).beta == BETA_REF

    def test_validation(self):
        with pytest.raises(ParameterError):
            SecurityParams(eps_s=0.0)
        with pytest.raises(ParameterError):
            SecurityParams(eps_c=2.0)
        with pytest.raises(ParameterError):
            SecurityParams(beta=-1.0)


class TestOneScalarChain:
    """The optimizer objective, the dataclass path and the per-state
    intensity path share one counts -> quantile -> bounds chain."""

    @pytest.mark.parametrize("ec_method", ["binomial", "rate-factor"])
    @pytest.mark.parametrize("eta, reason", [(30.0, None), (50.0, "no-single-photon-bound")])
    def test_callers_agree_bitwise(self, reference_params, security, ec_method, eta, reason):
        channel = ChannelConditions(eta_loss_db=eta, p_ec=1e-6, qber_i=0.01,
                                    integration_time_s=60.0)
        ref = key_length_for_channel(reference_params, channel, security,
                                     ec_method=ec_method, with_diagnostics=False)
        assert ref.reason == reason
        assert ref.lambda_ec > 0.0

        par = reference_params
        flat = _evaluate_flat(par.pax, par.pbx, *par.mu, *par.p_mu,
                              channel.transmittance, channel.p_ec, channel.qber_i,
                              channel.p_ap, channel.n_pulses, security.beta,
                              security.eps_s, security.eps_c,
                              {"binomial": 0, "rate-factor": 1}[ec_method], 1.16)
        ell, raw, s_x0, s_x1, _, _, _, phi_x, lam, qber_x, code = flat
        assert (int(ell), raw.hex(), s_x0.hex(), s_x1.hex(), phi_x.hex(),
                lam.hex(), qber_x.hex(), _REASONS.get(code)) == (
            ref.ell, ref.raw.hex(), ref.s_x0.hex(), ref.s_x1.hex(), ref.phi_x.hex(),
            ref.lambda_ec.hex(), ref.qber_x.hex(), ref.reason)

        assert key_length_for_intensities({}, par, channel, security,
                                          ec_method=ec_method) == ref.ell


def _entry_points(params, channel, sec):
    model = IntensityUncertaintyModel(f=0.1, nominal=params, grid_points_per_dim=2)
    counts = BlockCounts(n_x=(1e4,) * 3, n_z=(1e4,) * 3, m_x=(1e2,) * 3, m_z=(1e2,) * 3)
    return {
        "key_length_for_channel":
            lambda m, f=1.16: key_length_for_channel(params, channel, sec, ec_method=m, f_ec=f),
        "optimize":
            lambda m, f=1.16: optimize(OptimizationSpec(restarts=1), channel, sec,
                                       ec_method=m, f_ec=f),
        "worst_case_key_length":
            lambda m, f=1.16: worst_case_key_length(model, channel, sec, ec_method=m, f_ec=f),
        "key_length_for_intensities":
            lambda m, f=1.16: key_length_for_intensities({}, params, channel, sec,
                                                         ec_method=m, f_ec=f),
        "secure_key_length":
            lambda m, f=1.16: secure_key_length(counts, params, sec, ec_method=m, f_ec=f),
        "ec_leakage":
            lambda m, f=1.16: ec_leakage(1e6, 0.02, 1e-15, method=m, f_ec=f),
    }


_ENTRIES = ["key_length_for_channel", "optimize", "worst_case_key_length",
            "key_length_for_intensities"]


@pytest.mark.parametrize("method", ["Binomial", "bogus"])
@pytest.mark.parametrize("entry", _ENTRIES)
def test_unknown_ec_method_rejected_before_evaluation(
        monkeypatch, reference_params, reference_channel, security, entry, method):
    call = _entry_points(reference_params, reference_channel, security)[entry]

    def evaluated(*args):
        raise AssertionError("the model was evaluated before ec_method was checked")

    monkeypatch.setattr(_kernels, "detection_prob", evaluated)
    with pytest.raises(ParameterError, match="unknown EC leakage method"):
        call(method)


@pytest.mark.parametrize("method, f_ec", [("rate-factor", -1.0), ("rate-factor", 0.99),
                                          ("rate-factor", math.nan), ("rate-factor", math.inf),
                                          ("binomial", 0.5)])
@pytest.mark.parametrize("entry", _ENTRIES + ["secure_key_length", "ec_leakage"])
def test_f_ec_below_shannon_limit_rejected_before_evaluation(
        monkeypatch, reference_params, reference_channel, security, entry, method, f_ec):
    call = _entry_points(reference_params, reference_channel, security)[entry]

    def evaluated(*args):
        raise AssertionError("the model was evaluated before f_ec was checked")

    for name in ("detection_prob", "bounds_ell_core", "ec_leakage_core"):
        monkeypatch.setattr(_kernels, name, evaluated)
    with pytest.raises(ParameterError, match="f_ec must be in"):
        call(method, f_ec)
