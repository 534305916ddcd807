"""Parameter optimization: feasibility, determinism, regime nesting."""
from dataclasses import replace

import pytest

from fsqkd import (ChannelConditions, OptimizationSpec, ParameterError,
                   ProtocolParams, Regime, SecurityParams,
                   key_length_for_channel, optimize)

CHANNEL = ChannelConditions(eta_loss_db=25.0, p_ec=1e-5, qber_i=0.01,
                            integration_time_s=60.0)
SEC = SecurityParams()


class TestFeasible:
    def test_known_good_point(self):
        ProtocolParams(pax=0.9, pbx=0.5, mu=(0.5, 0.1, 0.0), p_mu=(0.7, 0.2, 0.1))

    def test_ordering_violation(self):
        with pytest.raises(ParameterError):
            ProtocolParams(0.9, 0.5, (0.5, 0.3, 0.3), (0.7, 0.2, 0.1))

    def test_sum_constraint_violation(self):
        with pytest.raises(ParameterError):
            ProtocolParams(0.9, 0.5, (0.4, 0.3, 0.15), (0.7, 0.2, 0.1))
        # boundary case: mu1 slightly above mu2 + mu3 is feasible
        ProtocolParams(0.9, 0.5, (0.4, 0.3, 0.05), (0.7, 0.2, 0.1))

    def test_simplex_violation(self):
        with pytest.raises(ParameterError):
            ProtocolParams(0.9, 0.5, (0.5, 0.1, 0.0), (0.7, 0.4, -0.1))


class TestSpecValidation:
    def test_fixed_pbx_requires_pbx(self):
        with pytest.raises(ParameterError):
            OptimizationSpec(regime=Regime.FIXED_PBX)

    def test_fixed_mu_requires_triple(self):
        with pytest.raises(ParameterError):
            OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5)
        with pytest.raises(ParameterError):
            OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5,
                             mu=(0.4, 0.3, 0.15))

    def test_regime_accepts_strings(self):
        spec = OptimizationSpec(regime="fixed_pbx", pbx=0.3)
        assert spec.regime is Regime.FIXED_PBX
        assert spec.ndim == 5
        assert OptimizationSpec(regime="fixed_pbx_and_mu", pbx=0.3,
                                mu=(0.5, 0.1, 0.0)).ndim == 3


class TestOptimize:
    def test_full_regime_ties_bases(self):
        spec = OptimizationSpec(regime=Regime.FULL, restarts=4, seed=3)
        res = optimize(spec, CHANNEL, SEC)
        assert res.best_params.pax == res.best_params.pbx
        assert res.best_ell > 0
        replace(res.best_params)  # re-runs ProtocolParams validation

    def test_reported_ell_reproduces_exactly(self):
        spec = OptimizationSpec(regime=Regime.FIXED_PBX, pbx=0.5, restarts=4, seed=7)
        res = optimize(spec, CHANNEL, SEC)
        again = key_length_for_channel(res.best_params, CHANNEL, SEC)
        assert again.ell == res.best_ell
        assert again.raw == res.best_raw

    def test_deterministic_for_fixed_seed(self):
        spec = OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5,
                                mu=(0.5, 0.1, 0.0), restarts=4, seed=11)
        a = optimize(spec, CHANNEL, SEC)
        b = optimize(spec, CHANNEL, SEC)
        assert a.best_params == b.best_params
        assert a.best_ell == b.best_ell
        assert a.evaluations == b.evaluations

    def test_regime_nesting(self):
        # same channel: fuller regimes can only do better (up to tolerance).
        # FULL ties pbx to pax, but the symmetric bias preserving any
        # asymmetric pair's sifted ratio retains at least as many bits, so
        # the ordering still holds.
        full = optimize(OptimizationSpec(regime=Regime.FULL, restarts=6, seed=1),
                        CHANNEL, SEC)
        fixed_pbx = optimize(
            OptimizationSpec(regime=Regime.FIXED_PBX, pbx=0.5, restarts=6, seed=1),
            CHANNEL, SEC)
        fixed_all = optimize(
            OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5,
                             mu=(0.5, 0.1, 0.0), restarts=6, seed=1),
            CHANNEL, SEC)
        assert full.best_ell >= fixed_pbx.best_ell * (1 - 1e-3)
        assert fixed_pbx.best_ell >= fixed_all.best_ell * (1 - 1e-3)
        assert fixed_all.best_ell > 0

    def test_hopeless_channel_returns_zero(self):
        dark = ChannelConditions(eta_loss_db=80.0, p_ec=1e-3, qber_i=0.01,
                                 integration_time_s=60.0)
        spec = OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5,
                                mu=(0.5, 0.1, 0.0), restarts=2, seed=1,
                                max_evals_per_restart=400)
        res = optimize(spec, dark, SEC)
        assert res.best_ell == 0
        replace(res.best_params)  # re-runs ProtocolParams validation

    def test_never_returns_infeasible_point(self):
        for seed in range(4):
            spec = OptimizationSpec(regime=Regime.FULL, restarts=2, seed=seed,
                                    max_evals_per_restart=300)
            res = optimize(spec, CHANNEL, SEC)
            replace(res.best_params)  # re-runs ProtocolParams validation
            mu1, mu2, mu3 = res.best_params.mu
            lo, hi = spec.prob_bounds
            assert lo <= res.best_params.pax <= hi
            assert spec.intensity_bounds[0] <= mu2 < mu1 <= spec.intensity_bounds[1]

    def test_one_feasible_start_is_enough(self):
        # at mu3 = 0.48 one of the 8 default start points decodes
        spec = OptimizationSpec(mu3=0.48, max_evals_per_restart=200)
        res = optimize(spec, CHANNEL, SEC)
        assert res.best_params.mu[2] == 0.48
        replace(res.best_params)  # re-runs ProtocolParams validation

    def test_trace_and_evaluations_recorded(self):
        spec = OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5,
                                mu=(0.5, 0.1, 0.0), restarts=3, seed=5)
        res = optimize(spec, CHANNEL, SEC)
        assert len(res.restart_trace) == 3
        assert res.evaluations >= sum(t["nfev"] for t in res.restart_trace)
