"""Scenario analyses: sweeps, loss budgets, key rate vs time, sifting identity."""
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fsqkd import (ChannelConditions, LossBudgetQuery, OptimizationSpec,
                   ParameterError, ProtocolParams, Regime, SecurityParams,
                   key_length_for_channel, max_loss, sifting_equivalence,
                   skr_vs_time, sweep)
from fsqkd import scenarios
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

    @pytest.mark.parametrize("axis, values, message", [
        ("eta_loss_db", (-1.0, 30.0), r"eta_loss_db must be in \[0, inf\), got -1\.0"),
        ("qber_i", (0.01, 0.7), r"qber_i must be in \[0, 0\.5\), got 0\.7"),
        ("tau_s", (-5.0,), r"integration_time_s must be in \[0, inf\), got -5\.0"),
        ("qber_i", (0.01, math.nan), r"^sweep axis qber_i has non-finite entries$"),
        ("eta_loss_db", (30.0, 20.0), r"^sweep axis eta_loss_db must be non-decreasing$"),
    ])
    def test_axis_outside_channel_domain_rejected_at_construction(self, axis, values, message):
        axes = dict(eta_loss_db=(30.0,), log10_pec=(-6.0,), qber_i=(0.01,), tau_s=(60.0,))
        for policy in (dict(params=PARAMS), dict(opt_spec=OptimizationSpec())):
            with pytest.raises(ParameterError, match=message):
                SweepSpec(**{**axes, axis: values}, **policy)

    @pytest.mark.parametrize("lp", [400.0, 1.0, -0.25])
    def test_log10_pec_outside_p_ec_domain_rejected(self, lp):
        # 10**400 overflows; 10**1 and 10**-0.25 are outside [0, 0.5)
        with pytest.raises(ParameterError, match="p_ec"):
            SweepSpec(eta_loss_db=(30.0,), log10_pec=(-6.0, lp), qber_i=(0.01,),
                      tau_s=(60.0,), params=PARAMS)


class TestFixedBatch:
    """Fixed-parameter sweeps and ``skr_vs_time`` run as one batch; every
    record equals the per-point ``key_length_for_channel`` bit for bit."""

    SECS = [SecurityParams(), SecurityParams(ec_method="rate-factor"),
            SecurityParams(beta=0.0), SecurityParams(ec_method="rate-factor", f_ec=1.3, beta=0.0)]

    @staticmethod
    def protocol(rng, mu3):
        mu1 = rng.uniform(0.2, 0.9)
        mu2 = mu1 * rng.uniform(0.1, 0.45)
        p1 = rng.uniform(0.3, 0.8)
        p2 = (1.0 - p1) * rng.uniform(0.2, 0.8)
        return ProtocolParams(pax=rng.uniform(0.1, 0.9), pbx=rng.uniform(0.1, 0.9),
                              mu=(mu1, mu2, mu3), p_mu=(p1, p2, 1.0 - p1 - p2))

    @pytest.mark.parametrize("sec", SECS, ids=["binomial", "rate-factor", "beta0", "rate-factor-beta0"])
    def test_records_equal_scalar_chain(self, sec):
        rng = random.Random(1207)
        base = replace(BASE, p_ap=0.02, f_s=5e8)
        for mu3 in (0.0, 1e-9, 0.01, 0.0):
            params = self.protocol(rng, mu3)
            axes = (sorted(rng.uniform(0.0, 55.0) for _ in range(3)),
                    sorted(rng.uniform(-8.0, -3.0) for _ in range(2)),
                    [0.0, rng.uniform(0.0, 0.05)],
                    [0.0, rng.uniform(1.0, 100.0), rng.uniform(100.0, 1e4)])
            rows = sweep(SweepSpec(*axes, params=params), base, sec)
            for row in rows:
                cond = replace(base, eta_loss_db=row.eta_loss_db, p_ec=10.0 ** row.log10_pec,
                               qber_i=row.qber_i, integration_time_s=row.tau_s)
                assert row.params is params
                assert repr(row.result) == repr(key_length_for_channel(params, cond, sec))
            reasons = {row.result.reason for row in rows}
            assert {"zero-counts", None} <= reasons
            cond = replace(base, eta_loss_db=axes[0][0], p_ec=10.0 ** axes[1][0])
            want = []
            for tau in axes[3]:
                ell = key_length_for_channel(params, replace(cond, integration_time_s=tau), sec).ell
                want.append((tau, ell * 60.0 / tau if tau > 0.0 else 0.0, ell))
            assert repr(skr_vs_time(axes[3], cond, sec, params=params)) == repr(want)


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

    @pytest.mark.parametrize("eta_max_db", [5.0, 4.0])
    def test_bracket_without_width_rejected(self, eta_max_db):
        with pytest.raises(ParameterError, match="^eta_max_db must exceed eta_min_db$"):
            LossBudgetQuery(conditions=BASE, eta_min_db=5.0, eta_max_db=eta_max_db,
                            params=PARAMS)

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
        # the answer is a probe that met the target, and no loss is probed twice
        assert (res.max_eta_db, key_length_for_channel(
            PARAMS, replace(cond, eta_loss_db=res.max_eta_db), SEC).ell) in res.probes
        assert len({eta for eta, _ in res.probes}) == len(res.probes)
        assert len(res.probes) < 64
        beyond = math.nextafter(res.max_eta_db, math.inf)
        assert key_length_for_channel(PARAMS, replace(cond, eta_loss_db=res.max_eta_db),
                                      SEC).ell >= 1
        assert key_length_for_channel(PARAMS, replace(cond, eta_loss_db=beyond), SEC).ell < 1


class TestOptimizedBudgetUnderReports:
    """An optimized budget reports less loss than the model tolerates
    (ROADMAP item 2): bisection takes each probe's optimized key at face
    value, and a cold optimization at 44.0625 dB finds no key."""

    CONDITIONS = ChannelConditions(eta_loss_db=44.0625, p_ec=1e-7, qber_i=0.01,
                                   integration_time_s=60.0)
    WITNESS = ProtocolParams(
        pax=0.535657081727324, pbx=0.535657081727324,
        mu=(0.6989045317053661, 0.19687151198798003, 1e-09),
        p_mu=(0.3415751808375967, 0.5451136171918562, 0.11331120197054712))

    def test_witness_has_key_at_44_dB(self):
        assert key_length_for_channel(self.WITNESS, self.CONDITIONS, SEC).ell == 344

    @pytest.mark.xfail(reason="the optimized budget stops at 31.25 dB (ROADMAP item 2)",
                       strict=True)
    def test_budget_reaches_the_witness(self):
        query = LossBudgetQuery(conditions=self.CONDITIONS, eta_min_db=10.0, eta_max_db=50.0,
                                resolution_db=0.5, opt_spec=OptimizationSpec())
        assert max_loss(query, SEC).max_eta_db >= 44.0625


class TestOptimizedBudgetStopsAtTheTarget:
    """Each probe of an optimized budget stops its search at the first point
    that meets the target; it must meet the target exactly when the full
    search does, so the budget is the one the full searches give (the
    pinned budgets are those of full searches at every probe)."""

    @pytest.mark.parametrize("opt_spec, target_bits, eta_min_db, tau_s, expected", [
        (OptimizationSpec(), 0, 10.0, 60.0, 30.0),
        (OptimizationSpec(regime=Regime.FIXED_PBX, pbx=0.6), 1, 10.0, 1800.0, 42.5),
        (OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.6, mu=(0.5, 0.15, 1e-9)),
         38_400, 10.0, 60.0, 35.0),
        (OptimizationSpec(seed=3), 38_400, 10.0, 1800.0, 42.5),
        (OptimizationSpec(regime=Regime.FIXED_PBX, pbx=0.8, seed=5), 1, 10.0, 60.0, 37.5),
        (OptimizationSpec(), 1, 36.0, 60.0, None),  # no key at the lower bracket end
    ], ids=["full-0", "fixed-pbx-1", "fixed-pbx-and-mu-38400", "full-38400",
            "fixed-pbx-seed-5", "no-key-at-lower-end"])
    def test_every_probe_meets_the_target_as_the_full_search_does(
            self, monkeypatch, opt_spec, target_bits, eta_min_db, tau_s, expected):
        outcomes = []
        optimize = scenarios.optimize

        def both(spec, cond, sec, *, stop_at):
            res = optimize(spec, cond, sec, stop_at=stop_at)
            full = optimize(spec, cond, sec)
            outcomes.append((res.best_ell >= stop_at, full.best_ell >= stop_at))
            return res

        monkeypatch.setattr(scenarios, "optimize", both)
        cond = replace(BASE, integration_time_s=tau_s)
        query = LossBudgetQuery(conditions=cond, target_bits=target_bits, eta_min_db=eta_min_db,
                                eta_max_db=50.0, resolution_db=2.0, opt_spec=opt_spec)
        res = max_loss(query, SEC)
        assert [stopped for stopped, _ in outcomes] == [full for _, full in outcomes]
        assert res.max_eta_db == expected


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

    @pytest.mark.parametrize("times", [[-5.0, 60.0], [60.0, math.inf], [math.nan]])
    def test_times_outside_channel_domain_rejected(self, times):
        for policy in (dict(params=PARAMS), dict(opt_spec=OptimizationSpec())):
            with pytest.raises(ParameterError, match=r"integration_time_s must be in \[0, inf\)"):
                skr_vs_time(times, BASE, SEC, **policy)

    def test_no_times(self):
        assert skr_vs_time([], BASE, SEC, params=PARAMS) == []

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
