"""Parameter optimization: feasibility, determinism, regime nesting, and
the Nelder-Mead driver against scipy's."""
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fsqkd import (ChannelConditions, LossBudgetQuery, OptimizationSpec,
                   ParameterError, ProtocolParams, Regime, SecurityParams,
                   key_length_for_channel, max_loss, optimize, skr_vs_time)
from fsqkd import scenarios

fsqkd_optimize = sys.modules["fsqkd.optimize"]  # the package attribute is the function

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

    @pytest.mark.parametrize("mu_given", [False, True], ids=["no-mu", "mu"])
    @pytest.mark.parametrize("pbx_given", [False, True], ids=["no-pbx", "pbx"])
    @pytest.mark.parametrize("regime", list(Regime), ids=[r.value for r in Regime])
    def test_spec_takes_exactly_the_settings_its_regime_reads(self, regime, pbx_given,
                                                              mu_given):
        # full ties pbx to pax and searches the intensities; fixed_pbx reads
        # pbx; fixed_pbx_and_mu reads pbx and the intensity triple
        reads_pbx = regime is not Regime.FULL
        reads_mu = regime is Regime.FIXED_PBX_AND_MU
        kwargs = dict(regime=regime, pbx=0.6 if pbx_given else None,
                      mu=(0.5, 0.1, 0.0) if mu_given else None)
        if (pbx_given, mu_given) == (reads_pbx, reads_mu):
            assert OptimizationSpec(**kwargs).regime is regime
        else:
            with pytest.raises(ParameterError, match=f"^regime {regime.value} "
                                                     f"(requires|does not read) "):
                OptimizationSpec(**kwargs)

    def test_regime_accepts_strings(self):
        spec = OptimizationSpec(regime="fixed_pbx", pbx=0.3)
        assert spec.regime is Regime.FIXED_PBX
        assert spec.ndim == 5
        assert OptimizationSpec(regime="fixed_pbx_and_mu", pbx=0.3,
                                mu=(0.5, 0.1, 0.0)).ndim == 3

    def test_feasibility_check_stops_at_first_feasible_start(self, monkeypatch):
        # start points are made one at a time, so the check's cost does not
        # grow with restarts
        calls = []
        halton = fsqkd_optimize._halton

        def counted(index, base):
            calls.append((index, base))
            return halton(index, base)

        monkeypatch.setattr(fsqkd_optimize, "_halton", counted)
        spec = OptimizationSpec(restarts=100_000)
        assert 0 < len(calls) <= spec.ndim


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
            lo, hi = fsqkd_optimize.PROB_BOUNDS
            assert lo <= res.best_params.pax <= hi
            mu_lo, mu_hi = fsqkd_optimize.INTENSITY_BOUNDS
            assert mu_lo <= mu2 < mu1 <= mu_hi

    def test_one_feasible_start_is_enough(self):
        # at mu3 = 0.48 one of the 8 default start points decodes
        spec = OptimizationSpec(mu3=0.48, max_evals_per_restart=200)
        res = optimize(spec, CHANNEL, SEC)
        assert res.best_params.mu[2] == 0.48
        replace(res.best_params)  # re-runs ProtocolParams validation

    def test_trace_and_evaluations_recorded(self):
        # nfev counts every call; evaluations leaves out the calls at
        # infeasible intensity pairs
        spec = OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5,
                                mu=(0.5, 0.1, 0.0), restarts=3, seed=5)
        res = optimize(spec, CHANNEL, SEC)
        assert len(res.restart_trace) == 3
        assert res.evaluations <= sum(t["nfev"] for t in res.restart_trace)

    def test_evaluations_leave_out_infeasible_pairs(self):
        res = optimize(OptimizationSpec(), CHANNEL, SEC)
        assert len(res.restart_trace) == 8
        assert (res.evaluations, sum(t["nfev"] for t in res.restart_trace)) == (1209, 1245)

    @pytest.mark.parametrize("mu3", [0.3, 0.4, 0.45, 0.48])
    def test_restart_without_a_feasible_pair_records_no_key_expression(self, mu3):
        # a start simplex with no feasible intensity pair is constant at the
        # infeasible value: the value stop ends it after ndim + 1 calls
        spec = OptimizationSpec(mu3=mu3, max_evals_per_restart=200)
        res = optimize(spec, CHANNEL, SEC)
        decode = fsqkd_optimize._decoder(spec)
        raws = [t["raw"] for t in res.restart_trace]
        assert None in raws
        for t in res.restart_trace:
            if t["raw"] is None:
                assert decode(t["start"]) is None and t["nfev"] == spec.ndim + 1
        assert res.best_raw == max(raw for raw in raws if raw is not None)

    @pytest.mark.parametrize("f_ec", [1e40, 1e308])
    def test_key_expressions_below_the_infeasible_value(self, f_ec):
        # every feasible key expression lies below -1e30 bits (-inf at 1e308),
        # so a restart can end on an infeasible pair; the best restart is
        # still a feasible point, the one with the largest key expression
        spec = OptimizationSpec(mu3=0.45, max_evals_per_restart=200)
        channel = ChannelConditions(eta_loss_db=70.0, p_ec=1e-3, qber_i=0.05,
                                    integration_time_s=1.0)
        sec = SecurityParams(ec_method="rate-factor", f_ec=f_ec)
        res = optimize(spec, channel, sec)
        replace(res.best_params)  # re-runs ProtocolParams validation
        assert res.result == key_length_for_channel(res.best_params, channel, sec)
        raws = [t["raw"] for t in res.restart_trace if t["raw"] is not None]
        assert res.best_ell == 0 and res.best_raw == max(raws) < -1e30


def rosenbrock(x):
    return sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2
               for i in range(len(x) - 1))


def shifted_quadratic(x):
    return sum((i + 1) * (v - 0.3 * (i + 1)) ** 2 for i, v in enumerate(x))


def wavy(x):
    # from this start its 5-D search shrinks once, after call 72
    return sum(v * v + 0.5 * math.sin(7.0 * v + i) for i, v in enumerate(x))


def scipy_nelder_mead(fun, x0, xatol, maxfev, fatol=math.inf):
    from scipy.optimize import minimize as scipy_minimize
    res = scipy_minimize(fun, np.array(x0, dtype=float), method="Nelder-Mead",
                         options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev})
    return [float(v) for v in res.x], float(res.fun), int(res.nfev)


class TestNelderMead:
    @pytest.mark.parametrize("fun, x0, maxfevs", [
        (rosenbrock, [-1.2, 1.0, 0.5], [*range(1, 60), 150, 2000]),
        (rosenbrock, [-1.2, 1.0, 0.5, 0.0, 2.0], [*range(1, 60), 400, 2000]),
        (shifted_quadratic, [0.0, 1.0, -2.0, 0.7], [*range(1, 30), 2000]),
        (wavy, [1.0, -0.5, 2.0, 0.3, 0.0], [*range(70, 80), 2000]),  # cut inside the shrink
    ], ids=["rosenbrock-3d", "rosenbrock-5d", "shifted-quadratic-4d", "wavy-5d"])
    @pytest.mark.parametrize("xatol", [1e-5, 1e-3])
    def test_bit_identical_to_scipy(self, fun, x0, maxfevs, xatol):
        # without ties, the point, its value and the call count are scipy's
        for maxfev in maxfevs:
            x, f, nfev = fsqkd_optimize.minimize(fun, x0, xatol, maxfev)
            assert (x, f, nfev) == scipy_nelder_mead(fun, x0, xatol, maxfev), maxfev

    def test_constant_objective_keeps_vertex_order(self):
        # every step is a reflection, an inside contraction and a shrink
        # towards the first vertex, which stays first on every run
        x0 = [0.4, -1.0, 2.0]
        runs = [fsqkd_optimize.minimize(lambda x: -3.0, x0, 1e-6, 10**6) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        x, f, nfev = runs[0]
        assert (x, f) == (x0, -3.0)
        assert nfev > 4 and (nfev - 4) % 5 == 0
        # the call limit stops inside a shrink: 4 start calls, xr, xcc, one vertex
        assert fsqkd_optimize.minimize(lambda x: -3.0, x0, 1e-6, 7) == (x0, -3.0, 7)

    @pytest.mark.parametrize("fun", [lambda x: -3.0, lambda x: (x[0] - 0.25) ** 2],
                             ids=["constant", "first-coordinate-only"])
    def test_ties_follow_a_stable_sort(self, fun, monkeypatch):
        # with equal values in vertex order, scipy's own control flow gives
        # the same path; the first-coordinate objective ties every start
        # vertex but the second
        import scipy.optimize._optimize as scipy_impl

        class StableNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def argsort(a):
                return np.argsort(a, kind="stable")

        monkeypatch.setattr(scipy_impl, "np", StableNumpy())
        x0 = [0.7, 1.5, -0.2, 0.0]
        for maxfev in (3, 9, 40, 2000):
            first = fsqkd_optimize.minimize(fun, x0, 1e-5, maxfev)
            assert first == scipy_nelder_mead(fun, x0, 1e-5, maxfev)
            assert fsqkd_optimize.minimize(fun, x0, 1e-5, maxfev) == first

    @pytest.mark.parametrize("fun, x0, maxfevs", [
        (rosenbrock, [-1.2, 1.0, 0.5], [*range(1, 60), 300, 2000]),
        (shifted_quadratic, [0.0, 1.0, -2.0, 0.7], [*range(1, 30), 2000]),
        (wavy, [1.0, -0.5, 2.0, 0.3, 0.0], [*range(70, 80), 2000]),  # cut inside the shrink
    ], ids=["rosenbrock-3d", "shifted-quadratic-4d", "wavy-5d"])
    @pytest.mark.parametrize("fatol", [1e-6, 1e-3])
    def test_value_stop_is_scipys_fatol(self, fun, x0, maxfevs, fatol):
        # with the vertex test made impossible, the value stop alone is
        # scipy's with xatol = inf: after the sort, scipy's
        # max |fsim[0] - fsim[1:]| is fsim[-1] - fsim[0]
        for maxfev in maxfevs:
            x, f, nfev = fsqkd_optimize.minimize(fun, x0, -1.0, maxfev, fatol)
            assert (x, f, nfev) == scipy_nelder_mead(fun, x0, math.inf, maxfev, fatol), maxfev
        assert nfev < maxfevs[-1]  # the value stop ended the last run

    @pytest.mark.parametrize("fatol", [0.0, 1e-2])
    def test_value_stop_ends_a_constant_objective_at_once(self, fatol):
        # the start simplex's values already agree: n + 1 calls
        x0 = [0.4, -1.0, 2.0]
        assert fsqkd_optimize.minimize(lambda x: -3.0, x0, 1e-6, 10**6, fatol) == (x0, -3.0, 4)


class _CallLimit(Exception):
    """``maxfev`` calls made: the step in progress stops where it is."""


def reference_minimize(fun, x0, xatol, maxfev, fatol=-math.inf):
    """The Nelder-Mead driver before insertion ordering, verbatim: it
    re-sorts the whole simplex every iteration and counts calls through a
    closure.  ``fsqkd.optimize.minimize`` must give its (x, f, nfev)."""
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _CallLimit
        nfev += 1
        return fun(x)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _CallLimit:
        pass
    while True:
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]
        best, worst = sim[0], sim[-1]
        if (nfev >= maxfev or fsim[-1] - fsim[0] <= fatol
                or all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, best))):
            return best, fsim[0], nfev
        xbar = best
        for v in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, v)]
        xbar = [a / n for a in xbar]
        try:
            xr = [2.0 * a - b for a, b in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3.0 * a - 2.0 * b for a, b in zip(xbar, worst)]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = [a + 0.5 * (b - a) for a, b in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
        except _CallLimit:
            pass


def plateau(x):
    # ties: a quadratic floored to steps of 1/4
    return math.floor(4.0 * sum(v * v for v in x)) / 4.0


def walled(x):
    # ties at 1e30 outside a box, like optimize's infeasible intensity pairs
    return 1e30 if max(abs(v) for v in x) > 2.0 else rosenbrock(x)


def mixed_quadratic(x):
    return (x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2 + (x[2] + 1.0) ** 2


ORACLE_OBJECTIVES = (rosenbrock, shifted_quadratic, wavy, plateau, walled,
                     lambda x: -3.0, lambda x: (x[0] - 0.25) ** 2)
# from this start a centroid summed with compensation (math.fsum, or builtin
# sum from Python 3.12 on) leaves the left-to-right sum's path within 50 calls
MIXED_START = [1e16, 1.0, 0.0]


def _oracle_cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice([2, 3, 5]))
        fun = ORACLE_OBJECTIVES[int(rng.integers(len(ORACLE_OBJECTIVES)))]
        x0 = [float(rng.choice([0.0, 1.0, rng.uniform(-3.0, 3.0)])) for _ in range(n)]
        xatol = float(rng.choice([1e-5, 1e-3, 0.0, -1.0]))
        fatol = float(rng.choice([-math.inf, 0.0, 1e-6, 1e-2]))
        yield fun, x0, xatol, fatol


class TestOracle:
    """``minimize`` against the driver it replaced, on (x, f, nfev)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_cut_of_a_seeded_batch(self, seed):
        # each case runs to its own stop, then is cut after every call count
        # up to that stop (capped at 120): a cut lands inside every kind of
        # step the path takes, the shrink included
        for fun, x0, xatol, fatol in _oracle_cases(25, seed):
            full = reference_minimize(fun, x0, xatol, 3000, fatol)
            assert fsqkd_optimize.minimize(fun, x0, xatol, 3000, fatol) == full
            for maxfev in range(1, min(full[2], 120) + 1):
                assert (fsqkd_optimize.minimize(fun, x0, xatol, maxfev, fatol)
                        == reference_minimize(fun, x0, xatol, maxfev, fatol)), maxfev

    @pytest.mark.parametrize("maxfev", [20, 50, 200, 2000])
    def test_mixed_magnitudes_keep_the_left_to_right_centroid(self, maxfev, monkeypatch):
        expect = reference_minimize(mixed_quadratic, MIXED_START, 1e-5, maxfev)
        assert fsqkd_optimize.minimize(mixed_quadratic, MIXED_START, 1e-5, maxfev) == expect
        if maxfev >= 50:
            # the case can tell the two sums apart
            monkeypatch.setattr(fsqkd_optimize, "reduce", lambda op, col: math.fsum(col))
            assert fsqkd_optimize.minimize(mixed_quadratic, MIXED_START, 1e-5, maxfev) != expect

    @pytest.mark.parametrize("raise_at", [1, 4, 5, 9, 17, 60, 333])
    def test_an_objective_that_raises_stops_after_the_same_calls(self, raise_at):
        # as optimize's stop_at witness does, mid-step
        class Raised(Exception):
            pass

        def calls_until_raise(driver, fun, x0):
            calls = []

            def raising(x):
                calls.append(list(x))
                if len(calls) == raise_at:
                    raise Raised
                return fun(x)
            with pytest.raises(Raised):
                driver(raising, x0, -1.0, 10**6, -math.inf)
            return calls

        for fun, x0 in ((rosenbrock, [-1.2, 1.0, 0.5, 0.0, 2.0]), (plateau, [0.7, 1.5, -0.2]),
                        (lambda x: -3.0, [0.4, -1.0, 2.0])):
            assert (calls_until_raise(fsqkd_optimize.minimize, fun, x0)
                    == calls_until_raise(reference_minimize, fun, x0))


@pytest.fixture
def scenario_evaluations(monkeypatch):
    """The ``evaluations`` of each ``optimize`` that ``fsqkd.scenarios`` calls."""
    evaluations = []

    def counted(*args, **kwargs):
        res = optimize(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(scenarios, "optimize", counted)
    return evaluations


def _with_and_without_value_stop(monkeypatch, run):
    """``run()`` with ``optimize``'s value stop, then with it off."""
    on = run()
    with monkeypatch.context() as m:
        m.setattr(fsqkd_optimize, "_FATOL_BITS", -math.inf)
        off = run()
    return on, off


class TestValueStop:
    # the stop ends a restart early on the same path, so it can report less
    # key but never more, and never spends more evaluations
    @pytest.mark.parametrize("spec, eta_loss_db", [
        (OptimizationSpec(), 25.0),
        (OptimizationSpec(regime=Regime.FIXED_PBX, pbx=0.6), 25.0),
        (OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.6, mu=(0.5, 0.15, 1e-9)), 25.0),
        (OptimizationSpec(), 29.0),  # within 1.5 dB of the key cliff, at 30.0-30.5 dB
        (OptimizationSpec(), 34.0),  # zero key: every restart ends on the plateau
    ], ids=["full", "fixed-pbx", "fixed-pbx-and-mu", "full-near-cliff", "full-plateau"])
    def test_keeps_the_answer(self, spec, eta_loss_db, monkeypatch):
        channel = replace(CHANNEL, eta_loss_db=eta_loss_db)
        on, off = _with_and_without_value_stop(monkeypatch,
                                               lambda: optimize(spec, channel, SEC))
        assert on.best_ell == off.best_ell
        assert on.best_raw <= off.best_raw
        assert on.evaluations <= off.evaluations
        if eta_loss_db == 34.0:
            assert on.best_ell == 0 and on.evaluations < off.evaluations / 2

    def test_keeps_an_optimized_skr_vs_time(self, monkeypatch, scenario_evaluations):
        spec = OptimizationSpec(regime=Regime.FIXED_PBX, pbx=0.6)
        on, off = _with_and_without_value_stop(
            monkeypatch, lambda: skr_vs_time((30.0, 300.0, 1800.0), CHANNEL, SEC, opt_spec=spec))
        assert on == off
        on_evals, off_evals = scenario_evaluations[:3], scenario_evaluations[3:]
        assert all(e_on <= e_off for e_on, e_off in zip(on_evals, off_evals))

    def test_evaluations_of_one_optimize(self):
        res = optimize(OptimizationSpec(), CHANNEL, SEC)
        # 2,319 evaluations with the value stop off, for the same key
        assert (res.best_ell, res.evaluations) == (1_793_705, 1209)

    def test_evaluations_of_one_optimized_budget(self, scenario_evaluations):
        # the budget query of qkdbench's seed-0 design_opt round, whose answer
        # qkdbench/answers.json pins; 15,996 evaluations with the value stop
        # off, and 7,708 with it on when each probe ran the full search
        channel = ChannelConditions(eta_loss_db=0.0, p_ec=1.5788401242847264e-06,
                                    qber_i=0.01820242914753634, integration_time_s=60.0)
        query = LossBudgetQuery(conditions=channel, eta_min_db=10.0, eta_max_db=50.0,
                                resolution_db=0.5, opt_spec=OptimizationSpec())
        assert max_loss(query, SEC).max_eta_db == 30.3125
        assert (len(scenario_evaluations), sum(scenario_evaluations)) == (9, 2979)


STOP_SPECS = [
    OptimizationSpec(),
    OptimizationSpec(regime=Regime.FIXED_PBX, pbx=0.6),
    OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.6, mu=(0.5, 0.15, 1e-9)),
]
STOP_IDS = ["full", "fixed-pbx", "fixed-pbx-and-mu"]


class TestStopAt:
    @pytest.mark.parametrize("spec", STOP_SPECS, ids=STOP_IDS)
    def test_unreachable_target_changes_nothing(self, spec):
        assert optimize(spec, CHANNEL, SEC, stop_at=10**15) == optimize(spec, CHANNEL, SEC)

    @pytest.mark.parametrize("spec", STOP_SPECS, ids=STOP_IDS)
    @pytest.mark.parametrize("share", [1e-6, 0.5, 0.99])
    def test_reachable_target_stops_at_a_point_that_meets_it(self, spec, share):
        full = optimize(spec, CHANNEL, SEC)
        stop_at = max(1, int(share * full.best_ell))
        res = optimize(spec, CHANNEL, SEC, stop_at=stop_at)
        assert res.best_ell >= stop_at
        assert res.result == key_length_for_channel(res.best_params, CHANNEL, SEC)
        assert res.evaluations < full.evaluations
        assert len(res.restart_trace) <= len(full.restart_trace)
        # the restarts before the interrupted one ran as in the full search
        assert res.restart_trace[:-1] == full.restart_trace[:len(res.restart_trace) - 1]
        assert res.restart_trace[-1]["raw"] == res.best_raw

    # a loss and a target that each regime's search meets after its first restart
    @pytest.mark.parametrize("spec, eta_db, stop_at",
                             zip(STOP_SPECS, (29.0, 30.0, 32.0), (10**5, 10**5, 9000)),
                             ids=STOP_IDS)
    def test_counts_stop_at_the_witness(self, monkeypatch, spec, eta_db, stop_at):
        # evaluations counts the objective's evaluations up to the witness, and
        # the interrupted restart's nfev its calls (infeasible ones too) up to
        # it; every regime's evaluations pass through the module's
        # _evaluate_flat, once each
        evaluated, calls = [], []
        evaluate, minimize = fsqkd_optimize._evaluate_flat, fsqkd_optimize.minimize

        def counted_evaluate(*args):
            evaluated.append(1)
            return evaluate(*args)

        def counted_minimize(fun, *args):
            calls.append(0)

            def counted_fun(x):
                calls[-1] += 1
                return fun(x)
            return minimize(counted_fun, *args)

        monkeypatch.setattr(fsqkd_optimize, "_evaluate_flat", counted_evaluate)
        monkeypatch.setattr(fsqkd_optimize, "minimize", counted_minimize)
        channel = replace(CHANNEL, eta_loss_db=eta_db)
        res = optimize(spec, channel, SEC, stop_at=stop_at)
        assert len(res.restart_trace) > 1
        assert res.evaluations == len(evaluated)
        assert [t["nfev"] for t in res.restart_trace] == calls
        full = optimize(spec, channel, SEC)
        last = len(res.restart_trace) - 1
        assert res.restart_trace[last]["nfev"] < full.restart_trace[last]["nfev"]
