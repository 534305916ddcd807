"""The input domain: every range is stated once and checked at the edge.

Out-of-range input raises ``ParameterError`` when the object is built or
the public entry is called, never inside a kernel.
"""
import itertools
import math
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from fsqkd import (ChannelConditions, IntensityUncertaintyModel, LossBudgetQuery,
                   OptimizationSpec, ParameterError, ProtocolParams, Regime,
                   SecurityParams, SweepSpec, expected_block_counts, key_length_for_channel,
                   key_length_for_intensities, scenarios, skr_vs_time, sweep,
                   worst_case_key_length)
from fsqkd import _kernels as k
from fsqkd.channel import DOMAIN
from fsqkd.optimize import _XATOL, INTENSITY_BOUNDS, PROB_BOUNDS, _decoder

CHANNEL_KW = dict(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                  integration_time_s=60.0, p_ap=1e-3, f_s=1e8)
PROTOCOL_KW = dict(pax=0.7, pbx=0.5, mu=(0.5, 0.1, 0.0), p_mu=(0.8, 0.13, 0.07))
SPEC_KW = dict(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5, mu=(0.5, 0.1, 0.0), mu3=1e-9)
CHANNEL = ChannelConditions(**CHANNEL_KW)
PARAMS = ProtocolParams(**PROTOCOL_KW)
SEC = SecurityParams()

# mu1 is the next float above mu2 + mu3, and the decoy denominator
# mu1*(mu2-mu3) - mu2^2 + mu3^2 rounds to zero
ROUNDED_TRIPLE = (0.3565561566629704, 0.2586275262140931, 0.09792863044887731)


def _builder(cls, base, field, index=None):
    def build(value):
        kw = dict(base)
        if index is None:
            kw[field] = value
        else:
            kw[field] = kw[field][:index] + (value,) + kw[field][index + 1:]
        return cls(**kw)
    return build


_FIELDS = [
    *[(ChannelConditions, CHANNEL_KW, f, None) for f in CHANNEL_KW],
    (ProtocolParams, PROTOCOL_KW, "pax", None),
    (ProtocolParams, PROTOCOL_KW, "pbx", None),
    *[(ProtocolParams, PROTOCOL_KW, f, i) for f in ("mu", "p_mu") for i in range(3)],
    *[(SecurityParams, dict(eps_s=1e-9, eps_c=1e-15, beta=20.0, ec_method="rate-factor",
                            f_ec=1.16), f, None)
      for f in ("eps_s", "eps_c", "beta", "f_ec")],
    *[(OptimizationSpec, SPEC_KW, f, None) for f in ("pbx", "mu3")],
    *[(OptimizationSpec, SPEC_KW, "mu", i) for i in range(3)],
    (IntensityUncertaintyModel, dict(f=0.1, nominal=PARAMS), "f", None),
    *[(LossBudgetQuery, dict(conditions=CHANNEL, params=PARAMS, eta_min_db=0.0,
                             eta_max_db=60.0, resolution_db=0.1), f, None)
      for f in ("eta_min_db", "eta_max_db", "resolution_db")],
]

FLOAT_FIELDS = {
    f"{cls.__name__}.{field}" + ("" if i is None else f"[{i}]"): _builder(cls, base, field, i)
    for cls, base, field, i in _FIELDS
}
FLOAT_FIELDS["slot duration"] = lambda v: expected_block_counts(PARAMS, [(v, CHANNEL)])

_BASE_VALUES = {name: (base[field] if i is None else base[field][i])
                for name, (_, base, field, i) in zip(FLOAT_FIELDS, _FIELDS)}
_BASE_VALUES.update({"slot duration": 60.0})

# the search box is the fixed PROB_BOUNDS and INTENSITY_BOUNDS and the
# simplex stop the fixed _XATOL, not settings: a spec refuses a box or a
# tolerance, whatever value it or one of its bounds takes
REMOVED_FIELDS = {f"OptimizationSpec.{name}[{i}]": (name, i, box)
                  for name, box in (("prob_bounds", PROB_BOUNDS),
                                    ("intensity_bounds", INTENSITY_BOUNDS))
                  for i in range(2)}
REMOVED_FIELDS["OptimizationSpec.tolerance"] = ("tolerance", None, None)


def _refused(field, value):
    name, i, box = REMOVED_FIELDS[field]
    if i is not None:
        value = box[:i] + (value,) + box[i + 1:]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        OptimizationSpec(**SPEC_KW, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted([*FLOAT_FIELDS, *REMOVED_FIELDS]))
def test_non_finite_rejected(field, value):
    if field in REMOVED_FIELDS:
        _refused(field, value)
        return
    FLOAT_FIELDS[field](_BASE_VALUES[field])  # the finite base value is accepted
    with pytest.raises(ParameterError):
        FLOAT_FIELDS[field](value)


@pytest.mark.parametrize("field,value", [
    (f, v) for f in sorted([*FLOAT_FIELDS, *REMOVED_FIELDS]) for v in ("30", None)
    if (f, v) != ("SecurityParams.beta", None)  # None is beta's default
])
def test_non_number_rejected(field, value):
    if field in REMOVED_FIELDS:
        _refused(field, value)
        return
    # a comparison that raises TypeError counts as out of range, and the
    # value is shown as it is: '30', not 30
    with pytest.raises(ParameterError) as err:
        FLOAT_FIELDS[field](value)
    # a None pbx is a missing one
    if (field, value) != ("OptimizationSpec.pbx", None):
        assert str(err.value).endswith(f"got {value!r}")


def test_number_message_unchanged():
    with pytest.raises(ParameterError, match=r"^eta_loss_db must be in \[0, inf\), got -1\.5$"):
        ChannelConditions(**{**CHANNEL_KW, "eta_loss_db": -1.5})


def test_non_number_intensity_rejected():
    with pytest.raises(ParameterError, match="h_mu1 must be in"):
        key_length_for_intensities({"h_mu1": "0.3"}, PARAMS, CHANNEL, SEC)


SWEEP_AXES = dict(eta_loss_db=(30.0,), log10_pec=(-6.0,), qber_i=(0.01,), tau_s=(60.0,))


@pytest.mark.parametrize("values, shown", [
    (("30",), "'30'"), ((30.0, "30"), "'30'"), (("x",), "'x'"), ((None,), "None"),
    (30.0, "30.0"), ("30", "'30'"), (b"30", "b'30'"),
], ids=["text", "text-after-number", "word", "none", "bare-number", "bare-text", "bytes"])
@pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
def test_non_number_sweep_axis_rejected(axis, values, shown):
    # an axis entry is a number, as every other field's value is: text is
    # refused, not converted, and the message names the axis
    for policy in (dict(params=PARAMS), dict(opt_spec=OptimizationSpec())):
        with pytest.raises(ParameterError, match=f"^sweep axis {axis} .*got {re.escape(shown)}$"):
            SweepSpec(**{**SWEEP_AXES, axis: values}, **policy)


@pytest.mark.parametrize("times, shown", [
    (["60"], "'60'"), ([30.0, "60"], "'60'"), (["x"], "'x'"), ([None], "None"),
    (60.0, "60.0"), ("60", "'60'"), (b"60", "b'60'"),
], ids=["text", "text-after-number", "word", "none", "bare-number", "bare-text", "bytes"])
def test_non_number_times_rejected(monkeypatch, times, shown):
    def evaluated(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(scenarios, "_grid_table", evaluated)
    for policy in (dict(params=PARAMS), dict(opt_spec=OptimizationSpec())):
        with pytest.raises(ParameterError, match=f"^times .*got {re.escape(shown)}$"):
            skr_vs_time(times, CHANNEL, SEC, **policy)


def test_numeric_axis_entries_accepted():
    # NumPy scalars and ints are numbers; each entry is stored as a float
    spec = SweepSpec(eta_loss_db=np.array([20, 30]), log10_pec=(np.float64(-6.0),),
                     qber_i=(0,), tau_s=[np.int64(60)], params=PARAMS)
    assert (spec.eta_loss_db, spec.log10_pec, spec.qber_i, spec.tau_s) == (
        (20.0, 30.0), (-6.0,), (0.0,), (60.0,))
    assert all(type(v) is float for v in spec.eta_loss_db + spec.tau_s)


def _sweep(**policy):
    spec = SweepSpec(eta_loss_db=(30.0,), log10_pec=(-6.0,), qber_i=(0.01,),
                     tau_s=(60.0, 1e301), **policy)
    return sweep(spec, CHANNEL, SEC)


@pytest.mark.parametrize("build", [
    lambda: ChannelConditions(**{**CHANNEL_KW, "f_s": 1e300, "integration_time_s": 1e10}),
    lambda: expected_block_counts(PARAMS, [(1e301, CHANNEL)]),
    # each slot's count is finite, their sum is not
    lambda: expected_block_counts(PARAMS, [(1.7e300, CHANNEL)] * 10),
    lambda: _sweep(params=PARAMS),
    lambda: _sweep(opt_spec=OptimizationSpec(restarts=1)),
    lambda: skr_vs_time([60.0, 1e301], CHANNEL, SEC, params=PARAMS),
    lambda: skr_vs_time([60.0, 1e301], CHANNEL, SEC, opt_spec=OptimizationSpec(restarts=1)),
    # a finite pulse count of 1.7e308 whose counts overflow: a detection
    # probability reaches 1 + p_ap
    lambda: key_length_for_channel(
        ProtocolParams(pax=0.998, pbx=0.998, mu=(10.0, 0.1, 0.0), p_mu=(0.998, 0.001, 0.001)),
        ChannelConditions(**{**CHANNEL_KW, "eta_loss_db": 0.0, "p_ap": 0.99,
                             "integration_time_s": 1.7e300}), SEC),
], ids=["channel", "slot", "slot-sum", "sweep-fixed", "sweep-optimized", "skr-fixed",
        "skr-optimized", "finite-overflowing-counts"])
def test_overflowing_pulse_count_rejected(monkeypatch, build):
    # f_s and the window are each finite, but their product is inf or so
    # large that the counts overflow; it is rejected before any point is
    # counted or optimized
    def evaluated(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(k, "counts_core", evaluated)
    monkeypatch.setattr(k, "counts_array", evaluated)
    monkeypatch.setattr(scenarios, "optimize", evaluated)
    with pytest.raises(ParameterError,
                       match=r"^f_s \* .* must be in \[0, 1e\+300\], got (inf|1\.7\d*e\+308)$"):
        build()


def test_pulse_count_upper_end_is_accepted():
    # the largest pulse count keeps every count and the key finite
    channel = ChannelConditions(**{**CHANNEL_KW, "integration_time_s": 1e292})
    assert channel.n_pulses == 1e300
    res = key_length_for_channel(PARAMS, channel, SEC)
    assert math.isfinite(res.raw) and res.ell > 0


@pytest.mark.parametrize("ec_method", ["binomial", "rate-factor"])
def test_beta_upper_end_is_accepted(ec_method):
    # at the largest pulse count and mu3 = 0 the top beta keeps the Chernoff
    # term 2 beta c + beta^2 finite; past it, mu3 * inf gave a NaN key
    top = DOMAIN["beta"][2]
    channel = ChannelConditions(**{**CHANNEL_KW, "integration_time_s": 1e292})
    res = key_length_for_channel(PARAMS, channel, SecurityParams(beta=top, ec_method=ec_method))
    assert channel.n_pulses == 1e300 and PARAMS.mu[2] == 0.0
    assert math.isfinite(res.raw) and res.ell > 0
    with pytest.raises(ParameterError,
                       match=r"^beta must be in \[0, 2e\+07\], got 20000000\.000000004$"):
        SecurityParams(beta=math.nextafter(top, math.inf), ec_method=ec_method)


def test_eps_lower_end_is_where_the_key_terms_overflow():
    # fluct_gamma's (21 / (eps_s + eps_c)) ** 2 raised OverflowError below
    # this sum, and 21 / eps_s or 2 / eps_c of pa_bits gave a NaN key
    low = 1.5662515535520437e-153
    for eps_s, eps_c in [(low, 1e-300), (1e-100, 1e-100)]:
        res = key_length_for_channel(PARAMS, CHANNEL, SecurityParams(eps_s=eps_s, eps_c=eps_c))
        assert math.isfinite(res.raw)
    assert key_length_for_channel(PARAMS, CHANNEL, SecurityParams(1e-100, 1e-100)).ell > 0
    for eps_s, eps_c in [(math.nextafter(low, 0.0), 1e-300), (1e-155, 1e-155),
                         (1e-320, 1e-320), (1e-320, 0.1), (0.1, 1e-320)]:
        with pytest.raises(ParameterError, match="too small"):
            SecurityParams(eps_s=eps_s, eps_c=eps_c)


def test_tiny_intensity_probability_rejected():
    # exp(mu2) / p2 = 1.5e307 overflowed the count bound of n_x2, and
    # mu3 * inf in the vacuum bound gave a NaN key
    with pytest.raises(ParameterError, match=r"^p_mu2 must be in \[1e-290, 1\), got 1e-305$"):
        ProtocolParams(pax=0.7, pbx=0.5, mu=(10.0, 5.0, 0.0), p_mu=(0.5, 1e-305, 0.5 - 1e-305))


@pytest.mark.parametrize("ec_method", ["binomial", "rate-factor"])
@pytest.mark.parametrize("mu", [(10.0, 5.0, 0.0), (10.0, 5.0, 4.9)])
@pytest.mark.parametrize("index", range(3))
def test_intensity_probability_floor_at_the_domain_tops(ec_method, mu, index):
    # at the top intensity, pulse count and beta, a probability at the floor
    # keeps every count bound and the key record finite
    low = DOMAIN["intensity probability"][1]
    p_mu = [0.5, 0.5, 0.5]
    p_mu[index], p_mu[(index + 1) % 3] = low, 0.5 - low
    params = ProtocolParams(pax=0.7, pbx=0.5, mu=mu, p_mu=tuple(p_mu))
    channel = ChannelConditions(**{**CHANNEL_KW, "integration_time_s": 1e292})
    sec = SecurityParams(beta=DOMAIN["beta"][2], ec_method=ec_method)
    assert max(mu) == DOMAIN["intensity"][2] and channel.n_pulses == DOMAIN["pulse count"][2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = key_length_for_channel(params, channel, sec)
    assert all(map(math.isfinite, (res.raw, res.s_x0, res.s_x1, res.phi_x, res.lambda_ec)))
    p_mu[index] = math.nextafter(low, 0.0)
    with pytest.raises(ParameterError, match=f"^p_mu{index + 1} must be in"):
        ProtocolParams(pax=0.7, pbx=0.5, mu=mu, p_mu=tuple(p_mu))


def test_prob_bounds_keep_every_decoded_probability_in_its_domain():
    # each corner of the search box decodes to a probability vector in the
    # domain, and every probability stays inside the box
    lo, hi = PROB_BOUNDS
    spec = OptimizationSpec()
    decode = _decoder(spec)
    for t in itertools.product((-800.0, 0.0, 800.0), repeat=3):
        pax, pbx, *p_mu, mu1, mu2 = decode([*t, 0.0, 0.0])
        ProtocolParams(pax=pax, pbx=pbx, mu=(mu1, mu2, spec.mu3), p_mu=tuple(p_mu))
        assert lo <= pax <= hi and all(lo * (1 - 1e-9) <= p <= hi for p in p_mu)


def test_grid_points_have_an_upper_end(monkeypatch):
    # the grid has g^10 points: g = 1000 looped over 10^12 state
    # combinations before anything failed
    def evaluated(*args):
        raise AssertionError("a point was evaluated")

    IntensityUncertaintyModel(f=0.1, nominal=PARAMS, grid_points_per_dim=6)
    monkeypatch.setattr(k, "counts_core", evaluated)
    with pytest.raises(ParameterError, match=r"^grid_points_per_dim must be in \[1, 6\], got 7$"):
        worst_case_key_length(
            IntensityUncertaintyModel(f=0.1, nominal=PARAMS, grid_points_per_dim=7), CHANNEL, SEC)


class TestIntensityDomain:
    def test_rounded_denominator_rejected(self):
        mu1, mu2, mu3 = ROUNDED_TRIPLE
        assert mu1 == math.nextafter(mu2 + mu3, math.inf)
        with pytest.raises(ParameterError, match="denominator"):
            ProtocolParams(pax=0.7, pbx=0.5, mu=ROUNDED_TRIPLE, p_mu=(0.8, 0.13, 0.07))
        with pytest.raises(ParameterError, match="denominator"):
            OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5, mu=ROUNDED_TRIPLE)

    def test_intensity_has_a_finite_upper_end(self):
        # math.exp(mu) overflows above about 709.78
        ProtocolParams(pax=0.7, pbx=0.5, mu=(10.0, 0.1, 0.0), p_mu=(0.8, 0.13, 0.07))
        for mu1 in (10.5, 800.0):
            with pytest.raises(ParameterError, match=r"mu1 must be in \[0, 10\]"):
                ProtocolParams(pax=0.7, pbx=0.5, mu=(mu1, 0.1, 0.0), p_mu=(0.8, 0.13, 0.07))

    def test_next_float_triples_never_divide_by_zero(self):
        # at the mu1 > mu2 + mu3 edge an accepted triple always evaluates
        rng = random.Random(5)
        rejected = 0
        for _ in range(400):
            mu2 = rng.uniform(0.01, 0.5)
            mu3 = rng.uniform(0.0, mu2)
            mu = (math.nextafter(mu2 + mu3, math.inf), mu2, mu3)
            try:
                params = ProtocolParams(pax=0.7, pbx=0.5, mu=mu, p_mu=(0.8, 0.13, 0.07))
            except ParameterError:
                rejected += 1
                continue
            key_length_for_channel(params, CHANNEL, SEC)
        assert 0 < rejected < 400


@pytest.mark.parametrize("field", ["mu", "p_mu"])
@pytest.mark.parametrize("value, shown", [
    ((0.5, 0.5), "(0.5, 0.5)"), ((0.5, 0.3, 0.1, 0.1), "(0.5, 0.3, 0.1, 0.1)"),
    ((), "()"), (0.5, "0.5"), (None, "None"), ("0.5", "'0.5'"), ("abc", "'abc'"),
], ids=["two", "four", "empty", "scalar", "none", "text", "three-characters"])
def test_intensity_triples_need_three_entries(field, value, shown):
    # a mu or p_mu that is not a sequence of exactly three is refused by
    # name, before any evaluation could fail to unpack it
    kwargs = dict(pax=0.7, pbx=0.5, mu=(0.5, 0.15, 1e-9), p_mu=(0.8, 0.13, 0.07))
    message = f"^{field} must be a sequence of three numbers, got {re.escape(shown)}$"
    with pytest.raises(ParameterError, match=message):
        ProtocolParams(**{**kwargs, field: value})
    if field == "mu" and value is not None:  # a spec's None mu is a missing one
        with pytest.raises(ParameterError, match=message):
            OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5, mu=value)
    # a list or an array of three is a sequence of three
    ProtocolParams(**{**kwargs, field: list(kwargs[field])})
    ProtocolParams(**{**kwargs, field: np.array(kwargs[field])})


@pytest.mark.parametrize("kwargs", [
    dict(restarts=0),
    dict(max_evals_per_restart=0),
    dict(tolerance=-1.0),
    dict(tolerance=0.0),
    dict(mu3=-0.1),
    dict(prob_bounds=(0.6, 0.4)),
    dict(prob_bounds=(0.0, 0.9)),
    dict(prob_bounds=(0.1, 1.0)),
    dict(prob_bounds=(1 / 3, 0.9)),
    dict(intensity_bounds=(0.0, 1.0)),
    dict(intensity_bounds=(0.5, 0.5)),
    dict(intensity_bounds=(1e-4, 10.5)),
    dict(mu3=0.49),
    dict(pbx=1.0),
    dict(mu=(0.4, 0.3, 0.15)),
    dict(restarts=2.5),
    dict(restarts=True),
    dict(max_evals_per_restart=50.5),
    dict(seed=1.5),
    dict(seed=False),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_optimization_spec_domain(kwargs):
    # values just inside each edge are accepted
    OptimizationSpec(restarts=1, max_evals_per_restart=1, mu3=0.0)
    if "tolerance" in kwargs:
        # a tolerance is refused; the fixed vertex stop is a positive one
        assert 0.0 < _XATOL < math.inf
        with pytest.raises(TypeError, match="unexpected keyword argument 'tolerance'"):
            OptimizationSpec(**kwargs)
        return
    if "prob_bounds" in kwargs or "intensity_bounds" in kwargs:
        # a box is refused; the fixed one keeps each edge these boxes break:
        # the decoder's p3 = 1 - p1 - p2 stays a probability while plo < 1/3
        plo, phi = PROB_BOUNDS
        mlo, mhi = INTENSITY_BOUNDS
        assert 1e-15 <= plo < phi < 1.0 and plo < 1.0 / 3.0
        assert 0.0 < mlo < mhi <= DOMAIN["intensity"][2]
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            OptimizationSpec(**kwargs)
        return
    # a pbx or mu is checked under a regime that reads it
    if "mu" in kwargs:
        kwargs = dict(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5, **kwargs)
    elif "pbx" in kwargs:
        kwargs = dict(regime=Regime.FIXED_PBX, **kwargs)
    with pytest.raises(ParameterError, match="must|denominator"):
        OptimizationSpec(**kwargs)


@pytest.mark.parametrize("build", [
    lambda v: IntensityUncertaintyModel(f=0.1, nominal=PARAMS, grid_points_per_dim=v),
    lambda v: LossBudgetQuery(conditions=CHANNEL, params=PARAMS, target_bits=v),
    lambda v: OptimizationSpec(seed=v),
], ids=["grid_points_per_dim", "target_bits", "seed"])
def test_integer_settings_take_integers_only(build):
    # a whole float or a bool is not an integer setting; a NumPy integer is
    build(3)
    build(np.int64(3))
    for value in (2.5, 3.0, True):
        with pytest.raises(ParameterError, match="must be an integer"):
            build(value)


def test_optimization_spec_needs_a_feasible_start():
    # mu1 must exceed mu3 + max(mu3, lo); from mu3 = 0.485 on, no start point
    # of the default seed gets there under the box's upper intensity of 1
    OptimizationSpec(mu3=0.48)
    with pytest.raises(ParameterError, match="no feasible start point"):
        OptimizationSpec(mu3=0.485)
    with pytest.raises(ParameterError, match="no feasible start point"):
        OptimizationSpec(regime=Regime.FIXED_PBX, pbx=0.5, mu3=0.6)


def test_readme_table_states_the_domain():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Input domain", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", section, re.M))
    assert rows == {name: f"{left}{lo:g}, {hi:g}{right}"
                    for name, (left, lo, hi, right) in DOMAIN.items()}
