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
