"""Finite-key estimation chain: corrections, decoy bounds, leakage, key length."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fsqkd import (ChannelConditions, IntensityUncertaintyModel, OptimizationSpec,
                   ParameterError, ProtocolParams, SecurityParams, SweepSpec,
                   binary_entropy, chernoff_delta, ec_leakage, expected_block_counts,
                   key_length_for_channel, key_length_for_intensities, optimize,
                   secure_key_length, skr_vs_time, sweep, worst_case_key_length)
from fsqkd import _kernels
from fsqkd._quantile import binom_ppf
from fsqkd.channel import BlockCounts
from fsqkd.finitekey import _REASONS, _evaluate_flat

BETA_REF = math.log(1.0 / (1e-9 + 1e-15))


def tau(n, params):
    """Probability of an n-photon pulse, n in {0, 1}."""
    return _kernels.intensity_terms(*params.mu, *params.p_mu)[n]


def scaled(trip, params, beta):
    """Scaled (lower, upper) bounds of one per-intensity count triple."""
    weights = _kernels.intensity_terms(*params.mu, *params.p_mu)[2:]
    return (tuple(_kernels.count_lower_core(c, s, beta) for c, s in zip(trip, weights)),
            tuple(_kernels.count_upper_core(c, s, beta) for c, s in zip(trip, weights)))


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
        assert tau(0, params) == pytest.approx(math.exp(-0.5), rel=1e-5)

    def test_reference_values(self):
        # frozen from an independent reference script
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0),
                                p_mu=(1 / 3, 1 / 3, 1 / 3))
        assert tau(0, params) == pytest.approx(0.8371226925828643, rel=1e-12)
        assert tau(1, params) == pytest.approx(0.1312496905533042, rel=1e-12)

    def test_zero_intensity_contributes_nothing_to_tau1(self):
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0),
                                p_mu=(0.2, 0.2, 0.6))
        expected = 0.2 * math.exp(-0.5) * 0.5 + 0.2 * math.exp(-0.1) * 0.1
        assert tau(1, params) == pytest.approx(expected, rel=1e-12)


class TestScaledCountBounds:
    def test_zero_counts_collapse(self, reference_params, security):
        lo, hi = scaled((0.0,) * 3, reference_params, security.beta)
        for i, (mu, p) in enumerate(zip(reference_params.mu, reference_params.p_mu)):
            assert lo[i] == 0.0
            assert hi[i] == pytest.approx((math.exp(mu) / p) * 2 * security.beta, rel=1e-12)

    def test_beta_zero_recovers_raw_scaling(self, reference_params, reference_channel):
        counts = expected_block_counts(reference_params, reference_channel)
        lo, hi = scaled(counts.n_x, reference_params, 0.0)
        for i, (mu, p) in enumerate(zip(reference_params.mu, reference_params.p_mu)):
            expected = (math.exp(mu) / p) * counts.n_x[i]
            assert lo[i] == pytest.approx(expected, rel=1e-12)
            assert hi[i] == pytest.approx(expected, rel=1e-12)

    def test_reference_table(self, reference_params, reference_channel, security):
        # frozen from an independent reference script (beta = ln(21/eps_s))
        counts = expected_block_counts(reference_params, reference_channel)
        n_x_minus, n_x_plus = scaled(counts.n_x, reference_params, security.beta)
        m_z_minus, m_z_plus = scaled(counts.m_z, reference_params, security.beta)
        assert n_x_minus[0] == pytest.approx(1225266.4696611103, rel=1e-12)
        assert n_x_minus[1] == pytest.approx(164047.28960329018, rel=1e-12)
        assert n_x_minus[2] == pytest.approx(2311.9726278324238, rel=1e-12)
        assert n_x_plus[0] == pytest.approx(1259626.0856724377, rel=1e-12)
        assert n_x_plus[1] == pytest.approx(174495.7883556714, rel=1e-12)
        assert n_x_plus[2] == pytest.approx(3732.584744370343, rel=1e-12)
        assert m_z_minus[2] == 0.0  # floored
        assert m_z_plus[2] == pytest.approx(225.30939365663318, rel=1e-12)


class TestDecoyBounds:
    def test_all_zero_counts_floor(self, reference_params, security):
        zeros = (0.0, 0.0, 0.0)
        plus = (10.0, 10.0, 10.0)
        mu1, mu2, mu3 = reference_params.mu
        tau0, tau1 = tau(0, reference_params), tau(1, reference_params)
        assert _kernels.vacuum_bound_core(zeros[2], plus[1], tau0, mu2, mu3, math.inf) == 0.0
        assert _kernels.single_photon_bound_core(zeros[1], plus[2], plus[0], 0.0, tau0, tau1,
                                                 mu1, mu2, mu3, math.inf) == 0.0

    def test_mu3_zero_vacuum_collapse(self):
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0),
                                p_mu=(1 / 3, 1 / 3, 1 / 3))
        n_minus = (100.0, 200.0, 300.0)
        n_plus = (150.0, 250.0, 350.0)
        _, mu2, mu3 = params.mu
        tau0 = tau(0, params)
        assert _kernels.vacuum_bound_core(n_minus[2], n_plus[1], tau0, mu2, mu3,
                                          math.inf) == pytest.approx(tau0 * 300.0, rel=1e-12)

    def test_degenerate_intensities_rejected(self):
        with pytest.raises(ParameterError):
            ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.5, 0.0),
                           p_mu=(1 / 3, 1 / 3, 1 / 3))


HEALTHY = (1e6, 1.5e5, 3e3)
HEALTHY_ERRORS = (1e4, 2e3, 1.5e3)


class TestPhaseError:
    def test_zero_error_limit(self, reference_params):
        # no Z-basis errors and no concentration correction: v_z1 = 0
        counts = BlockCounts(n_x=HEALTHY, n_z=HEALTHY, m_x=HEALTHY_ERRORS, m_z=(0.0,) * 3)
        result = secure_key_length(counts, reference_params, SecurityParams(beta=0.0))
        assert result.v_z1 == 0.0
        assert result.phi_x == 0.0

    def test_clamp(self, reference_params, security):
        counts = BlockCounts(n_x=HEALTHY, n_z=HEALTHY, m_x=HEALTHY_ERRORS,
                             m_z=(6e5, 1e5, 1.5e3))
        result = secure_key_length(counts, reference_params, security)
        assert result.v_z1 / result.s_z1 >= 0.5
        assert result.phi_x == 0.5

    def test_no_single_photon_bound(self, reference_params, security):
        # either basis' single-photon bound vanishing leaves no key signal
        tiny = (1.0, 1.0, 1.0)
        for counts in (BlockCounts(n_x=HEALTHY, n_z=tiny, m_x=HEALTHY_ERRORS, m_z=(0.1,) * 3),
                       BlockCounts(n_x=tiny, n_z=HEALTHY, m_x=(0.1,) * 3, m_z=HEALTHY_ERRORS)):
            result = secure_key_length(counts, reference_params, security)
            assert min(result.s_x1, result.s_z1) == 0.0
            assert result.reason == "no-single-photon-bound"
            assert result.phi_x == 0.5
            assert result.ell == 0

    def test_reference_chain_value(self, reference_params, reference_channel, security):
        # frozen full-chain value from an independent reference script
        result = key_length_for_channel(reference_params, reference_channel, security)
        assert result.phi_x == pytest.approx(0.028788599396597538, rel=1e-9)


BINOMIAL = SecurityParams(eps_c=1e-15, ec_method="binomial")
RATE_FACTOR = SecurityParams(eps_c=1e-15, ec_method="rate-factor", f_ec=1.16)


class TestEcLeakage:
    def test_nothing_to_reconcile(self):
        assert ec_leakage(0.0, 0.1, BINOMIAL) == 0.0
        assert ec_leakage(1e6, 0.0, BINOMIAL) == 0.0

    def test_rate_factor_mode(self):
        # frozen: 1.16e6 * h(0.02)
        got = ec_leakage(1e6, 0.02, RATE_FACTOR)
        assert got == pytest.approx(164071.02934851198, rel=1e-12)

    def test_finite_size_mode_matches_scipy_oracle(self):
        # frozen from an independent reference script (scipy binom.ppf route)
        got = ec_leakage(1e6, 0.02, BINOMIAL)
        assert got == pytest.approx(147686.06699105405, rel=1e-12)
        assert got == pytest.approx(oracles.ec_leakage_finite(1e6, 0.02, 1e-15), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(n=st.floats(1e3, 1e8), q=st.floats(1e-4, 0.3))
    def test_finite_size_tracks_scipy_oracle(self, n, q):
        n = float(round(n))
        assert ec_leakage(n, q, BINOMIAL) == pytest.approx(
            oracles.ec_leakage_finite(n, q, 1e-15), rel=1e-9)


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
            ell = key_length_for_channel(reference_params, cond, security).ell
            if prev is not None:
                assert ell <= prev
            prev = ell
        prev = None
        for log_pec in (-7.0, -6.0, -5.0, -4.0, -3.0):
            cond = ChannelConditions(eta_loss_db=25.0, p_ec=10.0 ** log_pec,
                                     qber_i=0.01, integration_time_s=600.0)
            ell = key_length_for_channel(reference_params, cond, security).ell
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

    def test_record_carries_z_basis_bounds(self, reference_params, reference_channel,
                                           security):
        result = key_length_for_channel(reference_params, reference_channel, security)
        assert result.s_z1 == pytest.approx(180504.6510175041, rel=1e-9)
        assert result.v_z1 == pytest.approx(4356.447301157014, rel=1e-9)


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
        assert (sec.ec_method, sec.f_ec) == ("binomial", 1.16)

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
        sec = SecurityParams(ec_method=ec_method)
        ref = key_length_for_channel(reference_params, channel, sec)
        assert ref.reason == reason
        assert ref.lambda_ec > 0.0

        par = reference_params
        flat = _evaluate_flat(par.pax, par.pbx, *par.mu, *par.p_mu,
                              channel.transmittance, channel.p_ec, channel.qber_i,
                              channel.p_ap, channel.n_pulses, sec)
        ell, raw, s_x0, s_x1, _, _, _, phi_x, lam, qber_x, code = flat
        assert (int(ell), raw.hex(), s_x0.hex(), s_x1.hex(), phi_x.hex(),
                lam.hex(), qber_x.hex(), _REASONS.get(code)) == (
            ref.ell, ref.raw.hex(), ref.s_x0.hex(), ref.s_x1.hex(), ref.phi_x.hex(),
            ref.lambda_ec.hex(), ref.qber_x.hex(), ref.reason)

        assert key_length_for_intensities({}, par, channel, sec) == ref.ell

    @pytest.mark.parametrize("ec_method", ["binomial", "rate-factor"])
    def test_one_kernel_evaluation_per_query(self, monkeypatch, reference_params,
                                             reference_channel, ec_method):
        # the record comes from the one chain evaluation, with no second pass
        bounds_calls, delta_calls = [], []
        bounds = _kernels.bounds_ell_core

        def counted_bounds(*args):
            out = bounds(*args)
            bounds_calls.append((args, out))
            return out

        def counted(delta):
            def count(*args):
                delta_calls.append(args)
                return delta(*args)
            return count

        monkeypatch.setattr(_kernels, "bounds_ell_core", counted_bounds)
        # only the 12 concentration-corrected counts the key uses: five per
        # basis for its vacuum and single-photon bounds, two for v_z1
        for name in ("chernoff_delta_plus", "chernoff_delta_minus"):
            monkeypatch.setattr(_kernels, name, counted(getattr(_kernels, name)))
        sec = SecurityParams(ec_method=ec_method)
        result = key_length_for_channel(reference_params, reference_channel, sec)
        assert len(bounds_calls) == 1
        assert len(delta_calls) == 12

        args, out = bounds_calls[0]
        s_z0, s_z1, v_z1 = out[4:7]
        assert (result.s_z0.hex(), result.s_z1.hex(), result.v_z1.hex()) == (
            s_z0.hex(), s_z1.hex(), v_z1.hex())
        counts = expected_block_counts(reference_params, reference_channel)
        n_x, qber_x = counts.n_x_total, counts.m_x_total / counts.n_x_total
        quantile = 0.0
        if ec_method == "binomial":
            quantile = binom_ppf(sec.eps_c, n_x, 1.0 - qber_x)
            assert quantile > 0.0
        assert result.ec_quantile.hex() == quantile.hex()
        # the kernel is given the leakage that ec_leakage states
        assert args[-1].hex() == result.lambda_ec.hex() == ec_leakage(n_x, qber_x, sec).hex()


@pytest.mark.parametrize("method", ["Binomial", "bogus", "wishful"])
def test_unknown_ec_method_rejected_before_evaluation(method):
    # the leakage model is checked once, when the security analysis is
    # built, so no entry point can be reached with a bad method
    with pytest.raises(ParameterError, match="unknown EC leakage method"):
        SecurityParams(ec_method=method)


@pytest.mark.parametrize("method, f_ec", [("rate-factor", -1.0), ("rate-factor", 0.99),
                                          ("rate-factor", math.nan), ("rate-factor", math.inf),
                                          ("binomial", 0.5)])
def test_f_ec_below_shannon_limit_rejected_before_evaluation(method, f_ec):
    with pytest.raises(ParameterError, match="f_ec must be in"):
        SecurityParams(ec_method=method, f_ec=f_ec)


def _key_lengths(params, channel, sec):
    """The key length of the reference point through each public entry."""
    model = IntensityUncertaintyModel(f=0.1, nominal=params, grid_points_per_dim=2)
    counts = expected_block_counts(params, channel)
    spec = SweepSpec(eta_loss_db=(channel.eta_loss_db,), log10_pec=(math.log10(channel.p_ec),),
                     qber_i=(channel.qber_i,), tau_s=(channel.integration_time_s,),
                     params=params)
    tau = channel.integration_time_s
    return {
        "secure_key_length": lambda: secure_key_length(counts, params, sec).ell,
        "key_length_for_intensities": lambda: key_length_for_intensities({}, params, channel, sec),
        "worst_case_key_length": lambda: worst_case_key_length(model, channel, sec).nominal_ell,
        "sweep": lambda: sweep(spec, channel, sec)[0].result.ell,
        "skr_vs_time": lambda: skr_vs_time([tau], channel, sec, params=params)[0][2],
    }


_SECS = {"binomial": SecurityParams(),
         "rate-factor": SecurityParams(ec_method="rate-factor"),
         "rate-factor-1.5": SecurityParams(ec_method="rate-factor", f_ec=1.5)}


@pytest.mark.parametrize("sec", list(_SECS), ids=list(_SECS))
@pytest.mark.parametrize("entry", ["secure_key_length", "key_length_for_intensities",
                                   "worst_case_key_length", "sweep", "skr_vs_time"])
def test_every_entry_uses_the_leakage_of_sec(reference_params, reference_channel, entry, sec):
    # each leakage model gives the reference point its own key length, and
    # every entry reaches it through the one SecurityParams it is given
    sec = _SECS[sec]
    ref = key_length_for_channel(reference_params, reference_channel, sec)
    counts = expected_block_counts(reference_params, reference_channel)
    assert ref.lambda_ec == ec_leakage(counts.n_x_total,
                                       counts.m_x_total / counts.n_x_total, sec)
    others = {key_length_for_channel(reference_params, reference_channel, other).ell
              for other in _SECS.values() if other is not sec}
    assert ref.ell not in others
    assert _key_lengths(reference_params, reference_channel, sec)[entry]() == ref.ell


@pytest.mark.parametrize("sec", list(_SECS), ids=list(_SECS))
def test_optimize_uses_the_leakage_of_sec(reference_channel, sec):
    sec = _SECS[sec]
    res = optimize(OptimizationSpec(restarts=1), reference_channel, sec)
    # the objective and the final evaluation see the same leakage model
    assert res.restart_trace[0]["raw"] == res.result.raw
    counts = expected_block_counts(res.best_params, reference_channel)
    assert res.result.lambda_ec == ec_leakage(counts.n_x_total,
                                              counts.m_x_total / counts.n_x_total, sec)
