"""Model-level properties of the key length for fixed protocol parameters,
in both leakage modes: more loss, background or intrinsic error never adds
key, a longer window never removes it, the vacuum and single-photon
bounds of a basis never exceed its count, a basis' counts do not depend
on which of its two states sends which intensity, and the worst case
under intensity uncertainty never beats the nominal point."""
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsqkd import _kernels as k
from fsqkd import (ChannelConditions, IntensityUncertaintyModel, ParameterError,
                   ProtocolParams, SecurityParams, expected_block_counts,
                   key_length_for_channel, worst_case_key_length)

EXAMPLES = 40
MODES = [SecurityParams(ec_method="binomial"), SecurityParams(ec_method="rate-factor")]


@st.composite
def protocols(draw):
    mu1 = draw(st.floats(0.1, 1.0))
    mu2 = mu1 * draw(st.floats(0.05, 0.6))
    mu3 = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    p1 = draw(st.floats(0.2, 0.9))
    p2 = (1.0 - p1) * draw(st.floats(0.1, 0.9))
    try:
        return ProtocolParams(pax=draw(st.floats(0.05, 0.95)), pbx=draw(st.floats(0.05, 0.95)),
                              mu=(mu1, mu2, mu3), p_mu=(p1, p2, 1.0 - p1 - p2))
    except ParameterError:
        assume(False)


# channel field -> (its value at u in [0, 1], whether ell may rise with it)
AXES = {
    "eta_loss_db": (lambda u: 50.0 * u, False),
    "p_ec": (lambda u: 10.0 ** (-8.0 + 5.0 * u), False),
    "qber_i": (lambda u: 0.05 * u, False),
    "integration_time_s": (lambda u: 1.0 + 3599.0 * u, True),
}
UNIT = st.floats(0.0, 1.0)


@st.composite
def channels(draw):
    return {axis: value(draw(UNIT)) for axis, (value, _) in AXES.items()}


@pytest.mark.parametrize("sec", MODES, ids=["binomial", "rate-factor"])
@pytest.mark.parametrize("axis", sorted(AXES))
@settings(max_examples=EXAMPLES, deadline=None)
@given(params=protocols(), base=channels(), u=UNIT)
def test_key_length_is_monotone(axis, sec, params, base, u):
    value, rises = AXES[axis]
    small, large = sorted((base[axis], value(u)))
    ell_small = key_length_for_channel(params, ChannelConditions(**{**base, axis: small}), sec).ell
    ell_large = key_length_for_channel(params, ChannelConditions(**{**base, axis: large}), sec).ell
    if rises:
        assert ell_large >= ell_small
    else:
        assert ell_large <= ell_small


# three known counterexamples to the binomial-mode property: the leakage's
# inverse-binomial quantile is an integer, so lambda_ec saw-tooths in the
# X-basis count, and a step of the quantile can move the key against the axis
SAWTOOTH = "binomial leakage saw-tooths with the quantile step (ROADMAP item 4)"


@pytest.mark.xfail(reason=SAWTOOTH, strict=True)
def test_longer_window_never_removes_key_sawtooth_case():
    params = ProtocolParams(pax=0.25, pbx=0.125, mu=(0.5, 0.25, 0.0),
                            p_mu=(0.25, 0.1875, 0.5625))
    ell = [key_length_for_channel(params, ChannelConditions(
               eta_loss_db=0.0, p_ec=1e-8, qber_i=0.0, integration_time_s=tau), MODES[0]).ell
           for tau in (1.0, 1.000003599)]
    # 312,861 bits, then 312,856
    assert ell[1] >= ell[0]


@pytest.mark.xfail(reason=SAWTOOTH, strict=True)
def test_more_background_never_adds_key_sawtooth_case():
    params = ProtocolParams(pax=0.5, pbx=0.875, mu=(0.25, 0.015625, 0.0),
                            p_mu=(0.4375, 0.05712890625, 0.50537109375))
    ell = [key_length_for_channel(params, ChannelConditions(
               eta_loss_db=0.0, p_ec=p_ec, qber_i=0.0, integration_time_s=2250.375),
               MODES[0]).ell
           for p_ec in (1e-8, 10.0 ** (-8.0 + 5e-5))]
    # 8,350,976,527 bits, then 8,350,976,535: the quantile steps from
    # 9,619,829,908 to 9,619,829,909 and lambda_ec falls by 8.7 bits
    assert ell[1] <= ell[0]


@pytest.mark.xfail(reason=SAWTOOTH, strict=True)
def test_more_background_never_adds_key_sawtooth_case_at_12p5_db():
    params = ProtocolParams(pax=0.65625, pbx=0.328125, mu=(0.5, 0.125, 0.0),
                            p_mu=(0.5, 0.375, 0.125))
    ell = [key_length_for_channel(params, ChannelConditions(
               eta_loss_db=12.5, p_ec=p_ec, qber_i=0.05, integration_time_s=1.0),
               MODES[0]).ell
           for p_ec in (1e-8, 2.053525026457146e-08)]
    # 21,813 bits, then 21,814: the quantile steps from 336,449 to 336,450
    # and lambda_ec falls by 2.3 bits
    assert ell[1] <= ell[0]


@pytest.mark.xfail(reason=SAWTOOTH, strict=True)
def test_more_loss_never_adds_key_sawtooth_case():
    params = ProtocolParams(pax=0.75, pbx=0.25, mu=(1.0, 0.5, 0.001),
                            p_mu=(0.25, 0.28125, 0.46875))
    ell = [key_length_for_channel(params, ChannelConditions(
               eta_loss_db=eta, p_ec=1e-8, qber_i=0.0, integration_time_s=1.0), MODES[0]).ell
           for eta in (0.0, 2.9802322387695312e-06)]
    # 2,783,244 bits, then 2,783,245: the quantile falls from 5,048,897 to
    # 5,048,895 and lambda_ec by 3.17 bits
    assert ell[1] <= ell[0]


@pytest.mark.parametrize("sec", MODES, ids=["binomial", "rate-factor"])
@settings(max_examples=EXAMPLES, deadline=None)
@given(params=protocols(), base=channels())
def test_bounds_within_basis_count(sec, params, base):
    channel = ChannelConditions(**base)
    result = key_length_for_channel(params, channel, sec)
    counts = expected_block_counts(params, channel)
    assert result.s_x0 + result.s_x1 <= counts.n_x_total
    assert result.s_z0 + result.s_z1 <= counts.n_z_total


# counts_core argument positions of the two states of a basis at one
# intensity; the worst-case grid evaluates one count row per unordered
# pair of values, which rests on this symmetry holding bit for bit
SWAPS = {"mu1 H-V": (2, 4), "mu2 H-V": (3, 5), "mu1 D-A": (6, 8), "mu2 D-A": (7, 9)}


@pytest.mark.parametrize("swap", sorted(SWAPS))
@settings(max_examples=EXAMPLES, deadline=None)
@given(params=protocols(), base=channels(),
       scale=st.lists(st.floats(0.5, 1.5), min_size=8, max_size=8))
def test_counts_symmetric_in_a_basis_states(swap, params, base, scale):
    channel = ChannelConditions(**base)
    mu1, mu2, mu3 = params.mu
    args = [params.pax, params.pbx,
            *(mu * s for mu, s in zip((mu1, mu2) * 4, scale)),
            mu3, *params.p_mu, channel.transmittance, channel.p_ec, channel.qber_i,
            channel.p_ap, channel.n_pulses]
    i, j = SWAPS[swap]
    swapped = list(args)
    swapped[i], swapped[j] = args[j], args[i]
    assert repr(k.counts_core(*swapped)) == repr(k.counts_core(*args))


# an odd grid holds the nominal intensities exactly, in the middle of each
# dimension; f = 0 collapses every candidate onto them
@pytest.mark.parametrize("sec", MODES, ids=["binomial", "rate-factor"])
@settings(max_examples=15, deadline=None)
@given(params=protocols(), base=channels(), f=st.floats(0.0, 0.3))
def test_worst_case_never_beats_nominal(sec, params, base, f):
    channel = ChannelConditions(**base)
    model = IntensityUncertaintyModel(f=f, nominal=params, grid_points_per_dim=3)
    res = worst_case_key_length(model, channel, sec)
    assert res.min_ell <= res.nominal_ell == key_length_for_channel(params, channel, sec).ell


@pytest.mark.parametrize("sec", MODES, ids=["binomial", "rate-factor"])
@settings(max_examples=15, deadline=None)
@given(params=protocols(), base=channels(), g=st.sampled_from([1, 2, 3]))
def test_worst_case_at_f_zero_is_nominal(sec, params, base, g):
    model = IntensityUncertaintyModel(f=0.0, nominal=params, grid_points_per_dim=g)
    res = worst_case_key_length(model, ChannelConditions(**base), sec)
    assert res.min_ell == res.nominal_ell
