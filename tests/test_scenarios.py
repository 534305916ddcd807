"""Scenario analyses: sweeps, loss budgets, key rate vs time, sifting identity."""
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fsqkd import (ChannelConditions, LossBudgetQuery, OptimizationSpec,
                   ParameterError, ProtocolParams, Regime, SecurityParams,
                   key_length_for_channel, max_loss, sifting_equivalence,
                   skr_vs_time, sweep)
from fsqkd.scenarios import SweepSpec

PARAMS = ProtocolParams(pax=0.7, pbx=0.5, mu=(0.5, 0.1, 0.0),
                        p_mu=(0.8, 0.13, 0.07))
BASE = ChannelConditions(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                         integration_time_s=60.0)
SEC = SecurityParams()


class TestSweep:
    def test_single_point_equals_direct_evaluation(self):
        spec = SweepSpec(eta_loss_db=(30.0,), log10_pec=(-6.0,), qber_i=(0.01,),
                         tau_s=(60.0,), params=PARAMS)
        rows = sweep(spec, BASE, SEC)
        assert len(rows) == 1
        direct = key_length_for_channel(PARAMS, BASE, SEC).ell
        assert rows[0].result.ell == direct

    def test_grid_order_and_shape(self):
        spec = SweepSpec(eta_loss_db=(10.0, 20.0, 30.0), log10_pec=(-6.0, -5.0),
                         qber_i=(0.01,), tau_s=(60.0,), params=PARAMS)
        rows = sweep(spec, BASE, SEC)
        assert len(rows) == 6
        assert [(r.eta_loss_db, r.log10_pec) for r in rows] == [
            (10.0, -6.0), (10.0, -5.0), (20.0, -6.0), (20.0, -5.0),
            (30.0, -6.0), (30.0, -5.0)]

    def test_requires_exactly_one_policy(self):
        with pytest.raises(ParameterError):
            SweepSpec(eta_loss_db=(10.0,), log10_pec=(-6.0,), qber_i=(0.01,),
                      tau_s=(60.0,))
        with pytest.raises(ParameterError):
            SweepSpec(eta_loss_db=(10.0,), log10_pec=(-6.0,), qber_i=(0.01,),
                      tau_s=(60.0,), params=PARAMS,
                      opt_spec=OptimizationSpec(regime=Regime.FULL))

    def test_optimizing_sweep(self):
        spec = SweepSpec(eta_loss_db=(20.0, 30.0), log10_pec=(-6.0,),
                         qber_i=(0.01,), tau_s=(60.0,),
                         opt_spec=OptimizationSpec(
                             regime=Regime.FIXED_PBX_AND_MU, pbx=0.5,
                             mu=(0.5, 0.1, 0.0), restarts=2, seed=3,
                             max_evals_per_restart=600))
        rows = sweep(spec, BASE, SEC)
        assert len(rows) == 2
        assert rows[0].result.ell > rows[1].result.ell > 0
        # the per-point optimum beats the fixed reference settings
        fixed = key_length_for_channel(
            PARAMS, ChannelConditions(eta_loss_db=20.0, p_ec=1e-6,
                                      qber_i=0.01, integration_time_s=60.0),
            SEC).ell
        assert rows[0].result.ell >= fixed

    def test_empty_axis_rejected(self):
        with pytest.raises(ParameterError):
            SweepSpec(eta_loss_db=(), log10_pec=(-6.0,), qber_i=(0.01,),
                      tau_s=(60.0,), params=PARAMS)

    @pytest.mark.parametrize("lp", [400.0, 1.0, -0.25])
    def test_log10_pec_outside_p_ec_domain_rejected(self, lp):
        # 10**400 overflows; 10**1 and 10**-0.25 are outside [0, 0.5)
        with pytest.raises(ParameterError, match="p_ec"):
            SweepSpec(eta_loss_db=(30.0,), log10_pec=(-6.0, lp), qber_i=(0.01,),
                      tau_s=(60.0,), params=PARAMS)


class TestMaxLoss:
    def test_budget_for_fixed_params(self):
        query = LossBudgetQuery(conditions=BASE, eta_min_db=5.0,
                                eta_max_db=55.0, resolution_db=0.1,
                                params=PARAMS)
        res = max_loss(query, SEC)
        assert res.max_eta_db is not None
        # consistency with direct evaluation at the returned boundary
        at = key_length_for_channel(
            PARAMS, ChannelConditions(eta_loss_db=res.max_eta_db, p_ec=1e-6,
                                      qber_i=0.01, integration_time_s=60.0),
            SEC).ell
        beyond = key_length_for_channel(
            PARAMS, ChannelConditions(eta_loss_db=res.max_eta_db + 0.1,
                                      p_ec=1e-6, qber_i=0.01,
                                      integration_time_s=60.0), SEC).ell
        assert at >= 1
        assert beyond < 1

    def test_target_bits_budget_is_tighter(self):
        q0 = LossBudgetQuery(conditions=BASE, eta_min_db=5.0, eta_max_db=55.0,
                             resolution_db=0.2, params=PARAMS)
        q_target = LossBudgetQuery(conditions=BASE, eta_min_db=5.0,
                                   eta_max_db=55.0, resolution_db=0.2,
                                   target_bits=100000, params=PARAMS)
        any_key = max_loss(q0, SEC)
        with_target = max_loss(q_target, SEC)
        assert with_target.max_eta_db < any_key.max_eta_db

    def test_no_budget_when_floor_too_lossy(self):
        dark = ChannelConditions(eta_loss_db=0.0, p_ec=1e-3, qber_i=0.3,
                                 integration_time_s=1.0)
        query = LossBudgetQuery(conditions=dark, eta_min_db=70.0,
                                eta_max_db=90.0, params=PARAMS)
        res = max_loss(query, SEC)
        assert res.max_eta_db is None

    def test_bracket_end_inside_budget_returns_end(self):
        query = LossBudgetQuery(conditions=BASE, eta_min_db=1.0,
                                eta_max_db=5.0, params=PARAMS)
        res = max_loss(query, SEC)
        assert res.max_eta_db == 5.0

    @pytest.mark.parametrize("resolution", [1e-300, 0.6 * math.ulp(55.0)])
    def test_resolution_below_float_spacing_rejected(self, resolution):
        # bisection cannot split two adjacent floats, so it would never end;
        # 0.6 ulp still passes eta_max_db + resolution_db > eta_max_db
        with pytest.raises(ParameterError, match="float spacing"):
            LossBudgetQuery(conditions=BASE, eta_min_db=5.0, eta_max_db=55.0,
                            resolution_db=resolution, params=PARAMS)

    def test_finest_resolution_ends_on_adjacent_floats(self):
        # the key cliff near 43 dB lies where the bracket's float spacing is widest
        cond = replace(BASE, integration_time_s=1800.0)
        query = LossBudgetQuery(conditions=cond, eta_min_db=5.0, eta_max_db=55.0,
                                resolution_db=math.ulp(55.0), params=PARAMS)
        res = max_loss(query, SEC)
        assert 32.0 <= res.max_eta_db < 55.0
        assert res.monotone_bracket
        assert len(res.probes) < 64
        beyond = math.nextafter(res.max_eta_db, math.inf)
        assert key_length_for_channel(PARAMS, replace(cond, eta_loss_db=res.max_eta_db),
                                      SEC).ell >= 1
        assert key_length_for_channel(PARAMS, replace(cond, eta_loss_db=beyond), SEC).ell < 1


class TestSkrVsTime:
    def test_zero_key_gives_zero_rate(self):
        lossy = ChannelConditions(eta_loss_db=55.0, p_ec=1e-4, qber_i=0.01,
                                  integration_time_s=60.0)
        out = skr_vs_time([60.0], lossy, SEC, params=PARAMS)
        assert out[0][1] == 0.0

    def test_rate_units_bits_per_minute(self):
        out = skr_vs_time([120.0], BASE, SEC, params=PARAMS)
        tau, skr, ell = out[0]
        assert skr == pytest.approx(ell * 60.0 / 120.0)

    def test_zero_window_rate(self):
        out = skr_vs_time([0.0, 60.0], BASE, SEC, params=PARAMS)
        assert out[0][1] == 0.0 and out[0][2] == 0

    def test_times_must_be_sorted(self):
        with pytest.raises(ParameterError):
            skr_vs_time([120.0, 60.0], BASE, SEC, params=PARAMS)

    def test_rate_nondecreasing_with_time(self):
        times = [60.0, 120.0, 300.0, 600.0]
        out = skr_vs_time(times, BASE, SEC, params=PARAMS)
        rates = [r for _, r, _ in out]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestSiftingEquivalence:
    def test_symmetric_case(self):
        eq = sifting_equivalence(0.5, 0.5)
        assert eq.p_x == pytest.approx(0.5, rel=1e-14)
        assert eq.f_asymmetric == pytest.approx(0.5, rel=1e-14)
        assert eq.f_symmetric == pytest.approx(0.5, rel=1e-14)

    def test_hand_computed_case(self):
        eq = sifting_equivalence(0.9, 0.5)
        assert eq.k_ratio == pytest.approx(9.0, rel=1e-12)
        assert eq.p_x == pytest.approx(0.75, rel=1e-12)
        assert eq.f_asymmetric == pytest.approx(0.5, rel=1e-12)
        assert eq.f_symmetric == pytest.approx(0.625, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            sifting_equivalence(0.0, 0.5)
        with pytest.raises(ParameterError):
            sifting_equivalence(0.5, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(pax=st.floats(0.001, 0.999), pbx=st.floats(0.001, 0.999))
    def test_symmetric_choice_never_loses_bits(self, pax, pbx):
        eq = sifting_equivalence(pax, pbx)
        assert eq.f_symmetric >= eq.f_asymmetric - 1e-12
        # the symmetric bias preserves the X:Z ratio exactly
        px = eq.p_x
        ratio = px * px / ((1 - px) * (1 - px))
        assert ratio == pytest.approx(eq.k_ratio, rel=1e-9)
        p_o, k_o, fa_o, fs_o = oracles.sift_quantities(pax, pbx)
        assert eq.p_x == pytest.approx(p_o, rel=1e-12)
        assert eq.f_symmetric == pytest.approx(fs_o, rel=1e-12)

    def test_equality_iff_equal_biases(self):
        for p in (0.1, 0.3, 0.5, 0.9):
            eq = sifting_equivalence(p, p)
            assert eq.f_symmetric == pytest.approx(eq.f_asymmetric, abs=1e-12)
        eq = sifting_equivalence(0.4, 0.6)
        assert eq.f_symmetric > eq.f_asymmetric + 1e-6
