"""Channel model: transmittance, click statistics, expected block counts."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fsqkd import (BlockCounts, ChannelConditions, ParameterError,
                   ProtocolParams, detection_probability, error_probability,
                   expected_block_counts, transmittance_from_loss)


class TestTransmittance:
    def test_zero_loss_is_unity(self):
        assert transmittance_from_loss(0.0) == 1.0

    def test_exact_decade(self):
        assert transmittance_from_loss(30.0) == pytest.approx(1e-3, rel=1e-12)

    def test_fractional_db(self):
        # frozen from an independent reference script: 10**(-4.2)
        assert transmittance_from_loss(42.0) == pytest.approx(6.309573444801929e-05, rel=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, -0.001, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ParameterError):
            transmittance_from_loss(bad)


class TestDetectionProbability:
    def test_vacuum_pulse_clicks_only_on_extraneous(self):
        p_ap, p_ec = 1e-3, 1e-5
        assert detection_probability(0.0, 0.5, p_ec, p_ap) == pytest.approx(
            (1 + p_ap) * 2 * p_ec, rel=1e-12)

    def test_saturation_limit(self):
        assert detection_probability(1e6, 1.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        # frozen from an independent reference script
        assert detection_probability(0.5, 1e-3, 1e-6, 1e-3) == pytest.approx(
            5.023758951016755e-04, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(1e-6, 2.0), p_d=st.floats(1e-6, 1.0),
           p_ec=st.floats(0, 0.49, exclude_max=True), p_ap=st.floats(0, 0.9))
    def test_strictly_increasing_in_k_and_pd(self, k, p_d, p_ec, p_ap):
        base = detection_probability(k, p_d, p_ec, p_ap)
        assert detection_probability(k * 1.5, p_d, p_ec, p_ap) > base
        if p_d * 1.5 <= 1.0:
            assert detection_probability(k, p_d * 1.5, p_ec, p_ap) > base


class TestErrorProbability:
    def test_noiseless_channel(self):
        assert error_probability(0.7, 0.1, 0.0, 0.0, 0.0) == 0.0

    def test_vacuum_has_no_polarization_error(self):
        p_ec, p_ap = 1e-4, 1e-3
        d0 = detection_probability(0.0, 0.3, p_ec, p_ap)
        assert error_probability(0.0, 0.3, p_ec, p_ap, 0.05) == pytest.approx(
            p_ec + p_ap * d0 / 2, rel=1e-12)

    def test_reference_value(self):
        # frozen from an independent reference script
        assert error_probability(0.5, 1e-3, 1e-6, 1e-3, 0.01) == pytest.approx(
            6.249938155857928e-06, rel=1e-12)


class TestExpectedBlockCounts:
    def test_zero_window_all_zero(self, reference_params):
        cond = ChannelConditions(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                                 integration_time_s=0.0)
        counts = expected_block_counts(reference_params, cond)
        assert counts.n_x_total == 0.0
        assert counts.n_z_total == 0.0
        assert counts.m_x_total == 0.0

    def test_symmetric_sifting(self, reference_params, reference_channel):
        counts = expected_block_counts(reference_params, reference_channel)
        for a, b in zip(counts.n_x, counts.n_z):
            assert a == pytest.approx(b, rel=1e-14)

    def test_reference_table(self, reference_params, reference_channel):
        # frozen from an independent reference script
        counts = expected_block_counts(reference_params, reference_channel)
        assert counts.n_x[0] == pytest.approx(251187.94755083777, rel=1e-12)
        assert counts.n_x[1] == pytest.approx(51048.39748838118, rel=1e-12)
        assert counts.n_x[2] == pytest.approx(1001.0005004621457, rel=1e-12)
        assert counts.m_x[0] == pytest.approx(3852.6498132492384, rel=1e-12)
        assert counts.m_x[1] == pytest.approx(782.9659064771823, rel=1e-12)
        assert counts.m_x[2] == pytest.approx(15.35306303017331, rel=1e-12)

    def test_matches_spreadsheet_oracle_elsewhere(self):
        params = ProtocolParams(pax=0.8, pbx=0.3, mu=(0.65, 0.2, 1e-9),
                                p_mu=(0.6, 0.25, 0.15))
        cond = ChannelConditions(eta_loss_db=17.0, p_ec=3e-5, qber_i=0.02,
                                 integration_time_s=120.0, p_ap=2e-3, f_s=5e7)
        got = expected_block_counts(params, cond)
        n_x, n_z, m_x, m_z = oracles.block_counts(
            0.8, 0.3, (0.65, 0.2, 1e-9), (0.6, 0.25, 0.15), 17.0, 3e-5, 0.02,
            2e-3, 5e7, 120.0)
        for i in range(3):
            assert got.n_x[i] == pytest.approx(n_x[i], rel=1e-12)
            assert got.n_z[i] == pytest.approx(n_z[i], rel=1e-12)
            assert got.m_x[i] == pytest.approx(m_x[i], rel=1e-12)
            assert got.m_z[i] == pytest.approx(m_z[i], rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(pax=st.floats(0.01, 0.99), pbx=st.floats(0.01, 0.99),
           eta=st.floats(0.0, 60.0), pec=st.floats(0, 1e-3),
           qi=st.floats(0, 0.2), mu1=st.floats(0.3, 1.0),
           ratio=st.floats(0.05, 0.6), p1=st.floats(0.2, 0.7),
           p2=st.floats(0.1, 0.25))
    def test_errors_never_exceed_counts(self, pax, pbx, eta, pec, qi, mu1, ratio, p1, p2):
        params = ProtocolParams(pax=pax, pbx=pbx, mu=(mu1, mu1 * ratio, 1e-9),
                                p_mu=(p1, p2, 1.0 - p1 - p2))
        cond = ChannelConditions(eta_loss_db=eta, p_ec=pec, qber_i=qi,
                                 integration_time_s=10.0)
        counts = expected_block_counts(params, cond)
        for m, n in zip(counts.m_x + counts.m_z, counts.n_x + counts.n_z):
            assert m <= n * (1.0 + 1e-12)
            assert m >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(pax=st.floats(0.01, 0.99), pbx=st.floats(0.01, 0.99))
    def test_sifted_fraction_identity(self, pax, pbx):
        params = ProtocolParams(pax=pax, pbx=pbx, mu=(0.5, 0.1, 1e-9),
                                p_mu=(0.7, 0.2, 0.1))
        cond = ChannelConditions(eta_loss_db=20.0, p_ec=1e-5, qber_i=0.01,
                                 integration_time_s=5.0)
        counts = expected_block_counts(params, cond)
        p_d = cond.transmittance
        total_detections = cond.n_pulses * sum(
            p * oracles.click_prob(m, p_d, cond.p_ec, cond.p_ap)
            for m, p in zip(params.mu, params.p_mu))
        retained = pax * pbx + (1 - pax) * (1 - pbx)
        assert (counts.n_x_total + counts.n_z_total) / total_detections == pytest.approx(
            retained, rel=1e-12)

    def test_multi_slot_accumulation_matches_single_slot(self, reference_params):
        cond = ChannelConditions(eta_loss_db=25.0, p_ec=1e-5, qber_i=0.01,
                                 integration_time_s=60.0)
        single = expected_block_counts(reference_params, cond)
        slots = [(15.0, cond), (15.0, cond), (30.0, cond)]
        multi = expected_block_counts(reference_params, slots)
        for a, b in zip(single.n_x + single.n_z + single.m_x + single.m_z,
                        multi.n_x + multi.n_z + multi.m_x + multi.m_z):
            assert b == pytest.approx(a, rel=1e-12)

    def test_varying_slots_accumulate(self, reference_params):
        c1 = ChannelConditions(eta_loss_db=20.0, p_ec=1e-6, qber_i=0.01,
                               integration_time_s=0.0)
        c2 = ChannelConditions(eta_loss_db=40.0, p_ec=1e-5, qber_i=0.02,
                               integration_time_s=0.0)
        combined = expected_block_counts(reference_params, [(30.0, c1), (30.0, c2)])
        a = expected_block_counts(
            reference_params,
            ChannelConditions(eta_loss_db=20.0, p_ec=1e-6, qber_i=0.01,
                              integration_time_s=30.0))
        b = expected_block_counts(
            reference_params,
            ChannelConditions(eta_loss_db=40.0, p_ec=1e-5, qber_i=0.02,
                              integration_time_s=30.0))
        assert combined.n_x_total == pytest.approx(a.n_x_total + b.n_x_total, rel=1e-12)
        assert combined.m_z_total == pytest.approx(a.m_z_total + b.m_z_total, rel=1e-12)


class TestValidation:
    def test_intensity_ordering_enforced(self):
        with pytest.raises(ParameterError):
            ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.3, 0.3), p_mu=(1/3, 1/3, 1/3))
        with pytest.raises(ParameterError):
            # 0.3 + 0.15 exceeds 0.4: intensity-sum constraint violated
            ProtocolParams(pax=0.5, pbx=0.5, mu=(0.4, 0.3, 0.15), p_mu=(1/3, 1/3, 1/3))

    def test_probability_simplex_enforced(self):
        with pytest.raises(ParameterError):
            ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0), p_mu=(0.5, 0.5, 0.1))
        with pytest.raises(ParameterError):
            ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0), p_mu=(0.6, 0.4, 0.0))

    def test_channel_ranges(self):
        with pytest.raises(ParameterError):
            ChannelConditions(eta_loss_db=10.0, p_ec=0.5, qber_i=0.01,
                              integration_time_s=1.0)
        with pytest.raises(ParameterError):
            ChannelConditions(eta_loss_db=10.0, p_ec=1e-6, qber_i=0.01,
                              integration_time_s=-1.0)

    @pytest.mark.parametrize("field", ["integration_time_s", "f_s"])
    def test_window_and_rate_must_be_finite(self, field):
        kwargs = dict(eta_loss_db=10.0, p_ec=1e-6, qber_i=0.01,
                      integration_time_s=1.0)
        kwargs[field] = math.inf
        with pytest.raises(ParameterError, match=field):
            ChannelConditions(**kwargs)

    def test_block_counts_totals_are_sums(self):
        c = BlockCounts(n_x=(1.0, 2.0, 3.0), n_z=(4.0, 5.0, 6.0),
                        m_x=(0.1, 0.2, 0.3), m_z=(0.4, 0.5, 0.6))
        assert c.n_x_total == 6.0
        assert c.n_z_total == 15.0
        assert c.m_x_total == pytest.approx(0.6)
        assert c.m_z_total == pytest.approx(1.5)
