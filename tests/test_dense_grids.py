"""Model properties on dense, deterministic grids (ROADMAP item 16).

For fixed protocol parameters the key length never rises with the loss,
the extraneous-count probability p_ec or the intrinsic error qber_i, and
never falls with the window.  Each case draws random protocol points from
a fixed seed and evaluates one dense axis against three random values on
each other axis, through the batch path ``scenarios._grid_table``, which
is bit-identical to ``key_length_for_channel`` at every point.

Only rate-factor leakage is checked.  In binomial mode the leakage's
integer quantile saw-tooths in the X-basis count, so the key can step
against an axis by a few bits (ROADMAP item 4; the pinned cases are in
``test_model_properties.py``).
"""
import numpy as np
import pytest

from fsqkd import ChannelConditions, ParameterError, ProtocolParams, SecurityParams, scenarios
from fsqkd import OptimizationSpec, optimize
from fsqkd.finitekey import _evaluate_flat, _search_terms
from fsqkd.optimize import PROB_BOUNDS

SEC = SecurityParams(ec_method="rate-factor")
BASE = ChannelConditions(eta_loss_db=0.0, p_ec=0.0, qber_i=0.0, integration_time_s=1.0)
POINTS = 23  # protocol points per dense axis

# axis (in _grid_table order) -> its dense values, three random values from
# a generator, and whether the key may rise with it
AXES = {
    "eta_loss_db": (np.linspace(0.0, 50.0, 201), lambda rng: rng.uniform(0.0, 50.0, 3), False),
    "p_ec": (np.logspace(-8.0, -3.0, 41), lambda rng: 10.0 ** rng.uniform(-8.0, -3.0, 3), False),
    "qber_i": (np.linspace(0.0, 0.08, 33), lambda rng: rng.uniform(0.0, 0.08, 3), False),
    "integration_time_s": (np.logspace(-2.0, 4.0, 49),
                           lambda rng: 10.0 ** rng.uniform(-2.0, 4.0, 3), True),
}


def protocol(rng) -> ProtocolParams:
    """A random protocol point in the domain, drawn as ``protocols`` of
    ``test_model_properties.py`` draws one."""
    while True:
        mu1 = rng.uniform(0.1, 1.0)
        mu2 = mu1 * rng.uniform(0.05, 0.6)
        mu3 = float(rng.choice([0.0, 1e-9, 1e-3]))
        p1 = rng.uniform(0.2, 0.9)
        p2 = (1.0 - p1) * rng.uniform(0.1, 0.9)
        try:
            return ProtocolParams(pax=rng.uniform(0.05, 0.95), pbx=rng.uniform(0.05, 0.95),
                                  mu=(mu1, mu2, mu3), p_mu=(p1, p2, 1.0 - p1 - p2))
        except ParameterError:
            continue


@pytest.mark.parametrize("axis", list(AXES))
def test_rate_factor_key_is_monotone_on_dense_grids(axis):
    dense_at = list(AXES).index(axis)
    rises = AXES[axis][2]
    rng = np.random.default_rng(16 + dense_at)
    positive = 0
    for _ in range(POINTS):
        params = protocol(rng)
        axes = [dense if name == axis else np.sort(draw(rng))
                for name, (dense, draw, _) in AXES.items()]
        ell = np.reshape(scenarios._grid_table([a.tolist() for a in axes], BASE, SEC,
                                               params, None)[1]["ell"], tuple(map(len, axes)))
        step = np.diff(ell, axis=dense_at)
        assert (step >= 0).all() if rises else (step <= 0).all(), params
        positive += np.count_nonzero(ell)
    # the grids reach key, so a step against the axis would show
    assert positive > 0.1 * POINTS * 27 * len(AXES[axis][0])


# Acceptance case 1c: fixed_pbx_and_mu at pbx 0.5 and the factory intensities,
# p_ec 1e-6, qber_i 0.01, a 30 min window; the spec the acceptance test uses
WITNESS_MU = (0.5, 0.1, 0.0)
WITNESS_GRID = 32  # points per searched coordinate


@pytest.mark.parametrize("eta_db, restarts", [(42.0, 8), (42.5, 12)])
def test_optimizer_reaches_the_dense_grid_best(eta_db, restarts):
    """``optimize``'s ``best_ell`` is at least the best key of a dense grid of
    ``_evaluate_flat`` over the regime's three searched coordinates (pax, p1
    and p2 at the midpoints of 32 equal steps of the search box, p2 within
    what p1 leaves), in ``fixed_pbx_and_mu`` at acceptance case 1c."""
    sec = SecurityParams()
    channel = ChannelConditions(eta_loss_db=eta_db, p_ec=1e-6, qber_i=0.01,
                                integration_time_s=1800.0)
    spec = OptimizationSpec(regime="fixed_pbx_and_mu", pbx=0.5, mu=WITNESS_MU,
                            restarts=restarts, seed=1)
    terms = _search_terms(channel.transmittance, channel.p_ec, channel.qber_i, channel.p_ap,
                          channel.n_pulses, sec, WITNESS_MU)
    lo, hi = PROB_BOUNDS
    steps = [(i + 0.5) / WITNESS_GRID for i in range(WITNESS_GRID)]
    grid_best = 0.0
    for u in steps:
        pax = lo + (hi - lo) * u
        for v in steps:
            p1 = lo + (1.0 - 3.0 * lo) * v
            for w in steps:
                p2 = lo + (1.0 - p1 - 2.0 * lo) * w
                ell = _evaluate_flat(terms, pax, 0.5, p1, p2, 1.0 - p1 - p2)[0]
                if ell > grid_best:
                    grid_best = ell
    assert grid_best > 0.0
    assert optimize(spec, channel, sec).best_ell >= grid_best
