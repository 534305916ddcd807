"""Acceptance suite: end-to-end reference behaviour of the engine.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Expected values are published reference numbers for this protocol
and channel model; tolerances are fixed here, not tuned.  Where a
reference number is itself an optimizer's found point near a positive-key
cliff, a more thorough search can legitimately exceed it; those tests
document the observed gap in their failure message.
"""
import math

import numpy as np
import pytest

import oracles
from fsqkd import (ChannelConditions, IntensityUncertaintyModel,
                   LossBudgetQuery, OptimizationSpec, ProtocolParams, Regime,
                   SecurityParams, binary_entropy, chernoff_delta,
                   detection_probability, ec_leakage, error_probability,
                   expected_block_counts, key_length_for_channel, max_loss,
                   optimize, secure_key_length, sifting_equivalence,
                   skr_vs_time, transmittance_from_loss, worst_case_key_length)
from fsqkd import _kernels
from fsqkd.channel import BlockCounts

SEC = SecurityParams()
THIRTY_MIN = 1800.0

FACTORY_MU = (0.5, 0.1, 0.0)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def channel(eta, pec, qber, tau=THIRTY_MIN):
    return ChannelConditions(eta_loss_db=eta, p_ec=pec, qber_i=qber,
                             integration_time_s=tau)


def best_ell(eta, pec, qber, regime, pbx=None, mu=None, tau=THIRTY_MIN,
             restarts=8, seed=1):
    spec = OptimizationSpec(regime=regime, pbx=pbx, mu=mu, restarts=restarts,
                            seed=seed)
    return optimize(spec, channel(eta, pec, qber, tau), SEC)


def positive_key_threshold(pec, qber, regime, pbx=None, mu=None,
                           eta_lo=5.0, eta_hi=58.0, resolution=0.25,
                           target_bits=0, restarts=8):
    query = LossBudgetQuery(
        conditions=channel(eta_lo, pec, qber), target_bits=target_bits,
        eta_min_db=eta_lo, eta_max_db=eta_hi, resolution_db=resolution,
        opt_spec=OptimizationSpec(regime=regime, pbx=pbx, mu=mu,
                                  restarts=restarts, seed=1))
    return max_loss(query, SEC).max_eta_db


# ---------------------------------------------------------------------------
# 1. Reference key lengths (tolerance +-5% on ell)
# ---------------------------------------------------------------------------

class TestReferenceKeyLengths:
    def test_1a_full_optimization_50db(self):
        res = best_ell(50.0, 1e-7, 0.005, Regime.FULL, restarts=16)
        ok = abs(res.best_ell - 34256) <= 0.05 * 34256
        report("1a ell(50dB, 1e-7, q=0.005, full)", ok,
               f"ell={res.best_ell} vs 34256 +-5% "
               f"(ratio {res.best_ell / 34256:.4f})")
        assert ok, (
            f"found ell={res.best_ell}, reference 34256 +-5%; the model-"
            f"faithful optimum exceeds the reference found-point at this "
            f"cliff configuration")

    def test_1b_fixed_receiver_bias_10db(self):
        res9 = best_ell(10.0, 1e-3, 0.01, Regime.FIXED_PBX, pbx=0.9)
        res3 = best_ell(10.0, 1e-3, 0.01, Regime.FIXED_PBX, pbx=0.3)
        ratio = res9.best_ell / res3.best_ell
        ok9 = abs(res9.best_ell - 2.42e9) <= 0.05 * 2.42e9
        ok3 = abs(res3.best_ell - 8.68e8) <= 0.05 * 8.68e8
        okr = abs(ratio - 2.8) <= 0.15
        report("1b ell(10dB, pbx=0.9)", ok9,
               f"ell={res9.best_ell:.4e} vs 2.42e9 +-5%")
        report("1b ell(10dB, pbx=0.3)", ok3,
               f"ell={res3.best_ell:.4e} vs 8.68e8 +-5%")
        report("1b ratio", okr, f"ratio={ratio:.3f} vs 2.8 +-0.15")
        assert ok9 and ok3 and okr

    def test_1c_fixed_hardware_point(self):
        res42 = best_ell(42.0, 1e-6, 0.01, Regime.FIXED_PBX_AND_MU,
                         pbx=0.5, mu=FACTORY_MU)
        ok42 = abs(res42.best_ell - 125800) <= 0.05 * 125800
        report("1c ell(42dB fixed hardware)", ok42,
               f"ell={res42.best_ell} vs 125800 +-5%")
        assert ok42

    def test_1c_dip_below_aes_budget_at_42p5(self):
        res = best_ell(42.5, 1e-6, 0.01, Regime.FIXED_PBX_AND_MU,
                       pbx=0.5, mu=FACTORY_MU, restarts=12)
        ok = res.best_ell < 38400
        report("1c ell(42.5dB) < 38400", ok, f"ell={res.best_ell}")
        assert ok, (
            f"found ell={res.best_ell} at 42.5 dB, reference dips below "
            f"38400 there; this model's optimum crosses 38400 nearer 43 dB")


# ---------------------------------------------------------------------------
# 2. Positive-key loss thresholds (tolerance +-1 dB)
# ---------------------------------------------------------------------------

class TestLossThresholds:
    @pytest.mark.parametrize("pbx,target", [(0.9, 47.0), (0.5, 50.0), (0.3, 50.0)])
    def test_fixed_receiver_threshold(self, pbx, target):
        got = positive_key_threshold(1e-7, 0.01, Regime.FIXED_PBX, pbx=pbx,
                                     eta_lo=40.0)
        ok = got is not None and abs(got - target) <= 1.0
        report(f"2 threshold pbx={pbx}", ok, f"{got} dB vs {target} +-1")
        assert ok, f"threshold {got} dB vs reference {target} +-1 dB"

    def test_high_background_threshold(self):
        got = positive_key_threshold(1e-3, 0.005, Regime.FULL,
                                     eta_lo=6.0, eta_hi=30.0)
        ok = got is not None and abs(got - 14.0) <= 1.0
        report("2 threshold pec=1e-3", ok, f"{got} dB vs 14 +-1")
        assert ok, f"threshold {got} dB vs reference 14 +-1 dB"

    @pytest.mark.parametrize("pec,target", [(1e-4, 22.0), (2.5e-5, 26.0)])
    def test_full_optimization_budgets(self, pec, target):
        got = positive_key_threshold(pec, 0.01, Regime.FULL,
                                     eta_lo=12.0, eta_hi=40.0)
        ok = got is not None and abs(got - target) <= 1.0
        report(f"2 budget pec={pec}", ok, f"{got} dB vs {target} +-1")
        assert ok, f"budget {got} dB vs reference {target} +-1 dB"


# ---------------------------------------------------------------------------
# 3. Intensity-uncertainty loss penalty
# ---------------------------------------------------------------------------

def worst_case_threshold(f, pec=1e-6, qber=0.01, eta_lo=34.0, eta_hi=48.0,
                         step=0.5):
    """Largest loss with positive worst-case key; nominal parameters are
    re-optimized (fixed receiver bias and intensities) at every probe."""
    last = None
    eta = eta_lo
    while eta <= eta_hi + 1e-9:
        res = best_ell(eta, pec, qber, Regime.FIXED_PBX_AND_MU, pbx=0.5,
                       mu=FACTORY_MU)
        if res.best_ell <= 0:
            break
        model = IntensityUncertaintyModel(f=f, nominal=res.best_params)
        wc = worst_case_key_length(model, channel(eta, pec, qber), SEC)
        if wc.min_ell > 0:
            last = eta
        else:
            break
        eta += step
    return last


class TestUncertaintyPenalty:
    def test_threshold_drop_about_4db(self):
        t0 = worst_case_threshold(0.0)
        t1 = worst_case_threshold(0.1)
        drop = t0 - t1
        ok = abs(drop - 4.0) <= 1.0
        report("3 threshold drop f=0.1", ok,
               f"f=0: {t0} dB, f=0.1: {t1} dB, drop {drop} vs 4 +-1")
        assert ok

    def test_min_ell_non_increasing_in_f(self):
        eta = 38.0
        res = best_ell(eta, 1e-6, 0.01, Regime.FIXED_PBX_AND_MU, pbx=0.5,
                       mu=FACTORY_MU)
        ells = []
        for f in (0.0, 0.05, 0.1):
            model = IntensityUncertaintyModel(f=f, nominal=res.best_params)
            wc = worst_case_key_length(model, channel(eta, 1e-6, 0.01), SEC)
            ells.append(wc.min_ell)
        ok = ells[0] >= ells[1] >= ells[2]
        report("3 min ell non-increasing in f", ok, f"{ells}")
        assert ok
        assert ells[0] == res.best_ell  # f=0 is exactly nominal


# ---------------------------------------------------------------------------
# 4. Property suites
# ---------------------------------------------------------------------------

class TestProtocolProperties:
    def test_sifting_identities_on_grid(self):
        grid = np.linspace(0.01, 0.99, 100)
        worst = 0.0
        for pax in grid:
            for pbx in grid:
                eq = sifting_equivalence(float(pax), float(pbx))
                assert eq.f_symmetric >= eq.f_asymmetric - 1e-12
                px = eq.p_x
                ratio = (px * px) / ((1.0 - px) * (1.0 - px))
                worst = max(worst, abs(ratio / eq.k_ratio - 1.0))
                if abs(pax - pbx) > 1e-9:
                    assert eq.f_symmetric > eq.f_asymmetric
                else:
                    assert eq.f_symmetric == pytest.approx(eq.f_asymmetric, abs=1e-12)
        ok = worst < 1e-8
        report("4 sifting grid 100x100", ok, f"max ratio error {worst:.2e}")
        assert ok

    def test_concentration_corrections(self):
        beta = SEC.beta
        assert chernoff_delta(0.0, beta, "plus") == pytest.approx(2 * beta, rel=1e-14)
        assert chernoff_delta(0.0, beta, "minus") == pytest.approx(beta, rel=1e-14)
        for y in (0.0, 1.0, 10.0, 1e4, 1e8, 1e12):
            plus = chernoff_delta(y, beta, "plus")
            minus = chernoff_delta(y, beta, "minus")
            assert plus > minus > 0.0
        report("4 concentration corrections", True,
               "delta+ > delta- > 0; collapse values exact")

    def test_monotonicity_and_caps(self):
        params = ProtocolParams(pax=0.7, pbx=0.5, mu=(0.5, 0.1, 1e-9),
                                p_mu=(0.8, 0.13, 0.07))
        prev = None
        for eta in range(10, 52, 2):
            counts = expected_block_counts(params, channel(float(eta), 1e-6, 0.01))
            res = secure_key_length(counts, params, SEC)
            assert res.s_x0 + res.s_x1 <= counts.n_x_total * (1 + 1e-12)
            if prev is not None:
                assert res.ell <= prev
            prev = res.ell
        prev = None
        for pec in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
            res = key_length_for_channel(params, channel(25.0, pec, 0.01), SEC)
            if prev is not None:
                assert res.ell <= prev
            prev = res.ell
        zero = secure_key_length(
            BlockCounts((0.0,) * 3, (0.0,) * 3, (0.0,) * 3, (0.0,) * 3),
            params, SEC)
        assert zero.ell == 0
        report("4 monotonicity / zero counts / caps", True,
               "ell non-increasing in loss and background; caps hold")

    def test_skr_curves_non_decreasing(self):
        times = [60.0, 300.0, 600.0, 1200.0, 1800.0]
        figures = [(32.0, 1e-6), (32.0, 1e-5), (34.0, 1e-5)]
        all_ok = True
        for eta, pec in figures:
            spec = OptimizationSpec(regime=Regime.FULL, restarts=8, seed=1)
            rows = skr_vs_time(times, channel(eta, pec, 0.005), SEC,
                               opt_spec=spec)
            rates = [r for _, r, _ in rows]
            # re-optimization noise at each point stays within the search
            # tolerance; the physical trend must still be non-decreasing
            mono = all(b >= a * (1 - 1e-3) for a, b in zip(rates, rates[1:]))
            all_ok = all_ok and mono
        report("4 SKR non-decreasing in time", all_ok,
               "all three reference configurations")
        assert all_ok

    def test_skr_zero_to_positive_transition(self):
        # deeper-loss curve: no key for short windows, key at 30 minutes
        spec = OptimizationSpec(regime=Regime.FULL, restarts=8, seed=1)
        rows = skr_vs_time([60.0, 1800.0], channel(34.0, 1e-5, 0.005), SEC,
                           opt_spec=spec)
        ok = rows[0][2] == 0 and rows[1][2] > 0
        report("4 SKR transition (34 dB, 1e-5)", ok,
               f"ell(60s)={rows[0][2]}, ell(1800s)={rows[1][2]}")
        assert ok

    def test_skr_transition_at_reference_curve(self):
        # reference curve quoted at (32 dB, 1e-5): zero key at 60 s, key at
        # 30 minutes; this model's optimum already clears zero at 60 s (the
        # crossing sits between 30 s and 60 s here)
        spec = OptimizationSpec(regime=Regime.FULL, restarts=8, seed=1)
        rows = skr_vs_time([60.0, 1800.0], channel(32.0, 1e-5, 0.005), SEC,
                           opt_spec=spec)
        ok = rows[0][2] == 0 and rows[1][2] > 0
        report("4 SKR transition (32 dB, 1e-5)", ok,
               f"ell(60s)={rows[0][2]}, ell(1800s)={rows[1][2]}")
        assert ok, (
            f"ell(60s)={rows[0][2]} (reference: 0), ell(1800s)={rows[1][2]}; "
            f"the zero-to-positive crossing of this model sits between 30 s "
            f"and 60 s at this configuration")


# ---------------------------------------------------------------------------
# 5. Oracle equivalence
# ---------------------------------------------------------------------------

class TestOracleEquivalence:
    def test_asymptotic_single_photon_oracle(self):
        mu = (0.5, 0.01, 1e-9)
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=mu, p_mu=(1/3, 1/3, 1/3))
        cond = ChannelConditions(eta_loss_db=30.0, p_ec=0.0, qber_i=0.0,
                                 integration_time_s=60.0, p_ap=0.0)
        res = key_length_for_channel(params, cond, SecurityParams(beta=0.0))
        oracle = oracles.poisson_single_photon_detections(
            0.5, 0.5, mu, (1/3, 1/3, 1/3), 30.0, 1e8, 60.0)
        ok = abs(res.s_x1 / oracle - 1.0) < 0.01
        report("5 asymptotic Poisson oracle", ok,
               f"s_x1/oracle = {res.s_x1 / oracle:.5f} (within 1%)")
        assert ok

    def test_frozen_reference_values(self):
        """Frozen values from the independent reference script, 6 s.f."""
        checks = [
            ("transmittance 42dB", transmittance_from_loss(42.0),
             6.309573444801929e-05),
            ("detection prob", detection_probability(0.5, 1e-3, 1e-6, 1e-3),
             5.023758951016755e-04),
            ("error prob", error_probability(0.5, 1e-3, 1e-6, 1e-3, 0.01),
             6.249938155857928e-06),
            ("entropy h(0.11)", binary_entropy(0.11), 0.499915958164528),
            ("delta+ at 1e6", chernoff_delta(1e6, math.log(1/(1e-9 + 1e-15)), "plus"),
             6458.654541854381),
            ("ec rate-factor",
             ec_leakage(1e6, 0.02, SecurityParams(eps_c=1e-15, ec_method="rate-factor")),
             164071.02934851198),
            ("ec finite-size",
             ec_leakage(1e6, 0.02, SecurityParams(eps_c=1e-15, ec_method="binomial")),
             147686.06699105405),
        ]
        params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 0.0),
                                p_mu=(1/3, 1/3, 1/3))
        checks.append(("tau_0", _kernels.intensity_terms(*params.mu, *params.p_mu)[0],
                       0.8371226925828643))
        checks.append(("tau_1", _kernels.intensity_terms(*params.mu, *params.p_mu)[1],
                       0.1312496905533042))

        ref_params = ProtocolParams(pax=0.5, pbx=0.5, mu=(0.5, 0.1, 1e-9),
                                    p_mu=(1/3, 1/3, 1/3))
        counts = expected_block_counts(ref_params, channel(30.0, 1e-6, 0.01, 60.0))
        checks.append(("n_x[mu1]", counts.n_x[0], 251187.94755083777))
        n_x_bounds = _kernels.scaled_bounds_core(
            *counts.n_x, *_kernels.intensity_terms(*ref_params.mu, *ref_params.p_mu)[2:], SEC.beta)
        checks.append(("n_x_minus[mu1]", n_x_bounds[0], 1225266.4696611103))
        checks.append(("n_x_plus[mu3]", n_x_bounds[5], 3732.584744370343))
        full = key_length_for_channel(ref_params, channel(30.0, 1e-6, 0.01, 60.0), SEC)
        checks.append(("chain s_x0", full.s_x0, 1935.4033092284933))
        checks.append(("chain s_x1", full.s_x1, 180504.6510175041))
        checks.append(("chain phi_x", full.phi_x, 0.028788599396597538))
        checks.append(("chain lambda_ec", full.lambda_ec, 37922.31676998466))

        worst = 0.0
        for name, got, want in checks:
            rel = abs(got / want - 1.0)
            worst = max(worst, rel)
            assert rel < 5e-7, f"{name}: {got!r} vs frozen {want!r}"
        assert full.ell == 110275
        report("5 frozen reference values", True,
               f"{len(checks)} frozen values match to 6 s.f. "
               f"(worst rel err {worst:.1e})")


# ---------------------------------------------------------------------------
# 6. Optimized transmitter bias trends
# ---------------------------------------------------------------------------

TABLES = {
    # receiver bias -> (extraneous rate, {loss dB: published optimal pax})
    0.3: (5e-5, {18: 0.97964, 20: 0.96525, 22: 0.95672, 24: 0.94319, 26: 0.91283}),
    0.5: (5e-5, {18: 0.95482, 20: 0.96045, 22: 0.95178, 24: 0.94165, 26: 0.89656}),
    0.7: (1e-6, {32: 0.92312, 34: 0.90846, 36: 0.87179, 38: 0.86605, 40: 0.80577}),
    0.9: (1e-6, {32: 0.91367, 34: 0.89787, 36: 0.86897, 38: 0.78494, 40: 0.72154}),
}


class TestBiasTables:
    @pytest.mark.parametrize("pbx", sorted(TABLES))
    def test_table_trend(self, pbx):
        pec, rows = TABLES[pbx]
        found_pax = []
        for eta, pax_ref in rows.items():
            res = best_ell(float(eta), pec, 0.01, Regime.FIXED_PBX, pbx=pbx)
            found_pax.append(res.best_pax if hasattr(res, "best_pax")
                             else res.best_params.pax)
            # the transmitter bias genuinely differs from the receiver's
            assert abs(res.best_params.pax - pbx) > 1e-3
            # the found optimum dominates pinning pax at the published value
            pinned = ProtocolParams(pax=pax_ref, pbx=pbx,
                                    mu=res.best_params.mu,
                                    p_mu=res.best_params.p_mu)
            pinned_ell = key_length_for_channel(
                pinned, channel(float(eta), pec, 0.01), SEC).ell
            assert res.best_ell >= pinned_ell * (1 - 1e-3), (
                f"eta={eta}: found {res.best_ell} < pinned {pinned_ell}")
        trend_ok = all(b <= a + 0.02 for a, b in zip(found_pax, found_pax[1:]))
        report(f"6 bias table pbx={pbx}", trend_ok,
               f"optimized pax {['%.4f' % p for p in found_pax]}")
        assert trend_ok
        if pbx == 0.9:
            # at the deepest tabulated losses the transmitter bias falls
            # below the receiver's fixed value
            assert found_pax[-1] < pbx
