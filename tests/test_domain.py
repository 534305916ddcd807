"""The input domain: every range is stated once and checked at the edge.

Out-of-range input raises ``ParameterError`` when the object is built or
the public entry is called, never inside a kernel.
"""
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from fsqkd import (ChannelConditions, IntensityUncertaintyModel, LossBudgetQuery,
                   OptimizationSpec, ParameterError, ProtocolParams, Regime,
                   SecurityParams, SweepSpec, expected_block_counts, key_length_for_channel,
                   key_length_for_intensities, scenarios, skr_vs_time, sweep)
from fsqkd import _kernels as k
from fsqkd.channel import DOMAIN

CHANNEL_KW = dict(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                  integration_time_s=60.0, p_ap=1e-3, f_s=1e8)
PROTOCOL_KW = dict(pax=0.7, pbx=0.5, mu=(0.5, 0.1, 0.0), p_mu=(0.8, 0.13, 0.07))
SPEC_KW = dict(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5, mu=(0.5, 0.1, 0.0), mu3=1e-9,
               tolerance=1e-5, prob_bounds=(0.001, 0.999), intensity_bounds=(1e-4, 1.0))
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
    *[(OptimizationSpec, SPEC_KW, f, None) for f in ("pbx", "mu3", "tolerance")],
    *[(OptimizationSpec, SPEC_KW, f, i)
      for f, n in (("mu", 3), ("prob_bounds", 2), ("intensity_bounds", 2)) for i in range(n)],
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(FLOAT_FIELDS))
def test_non_finite_rejected(field, value):
    FLOAT_FIELDS[field](_BASE_VALUES[field])  # the finite base value is accepted
    with pytest.raises(ParameterError):
        FLOAT_FIELDS[field](value)


@pytest.mark.parametrize("field,value", [
    (f, v) for f in sorted(FLOAT_FIELDS) for v in ("30", None)
    if (f, v) != ("SecurityParams.beta", None)  # None is beta's default
])
def test_non_number_rejected(field, value):
    # a comparison that raises TypeError counts as out of range, and the
    # value is shown as it is: '30', not 30
    with pytest.raises(ParameterError) as err:
        FLOAT_FIELDS[field](value)
    # the bounds pairs are checked, and reported, as pairs, each under its
    # own name; a None pbx is a missing one
    if "bounds" in field:
        pair = field.split(".")[1].split("[")[0]
        assert str(err.value).startswith(f"{pair} must satisfy")
    elif (field, value) != ("OptimizationSpec.pbx", None):
        assert str(err.value).endswith(f"got {value!r}")


def test_number_message_unchanged():
    with pytest.raises(ParameterError, match=r"^eta_loss_db must be in \[0, inf\), got -1\.5$"):
        ChannelConditions(**{**CHANNEL_KW, "eta_loss_db": -1.5})


def test_non_number_intensity_rejected():
    with pytest.raises(ParameterError, match="h_mu1 must be in"):
        key_length_for_intensities({"h_mu1": "0.3"}, PARAMS, CHANNEL, SEC)


def _sweep(**policy):
    spec = SweepSpec(eta_loss_db=(30.0,), log10_pec=(-6.0,), qber_i=(0.01,),
                     tau_s=(60.0, 1e301), **policy)
    return sweep(spec, CHANNEL, SEC)


@pytest.mark.parametrize("build", [
    lambda: ChannelConditions(**{**CHANNEL_KW, "f_s": 1e300, "integration_time_s": 1e10}),
    lambda: expected_block_counts(PARAMS, [(1e301, CHANNEL)]),
    lambda: _sweep(params=PARAMS),
    lambda: _sweep(opt_spec=OptimizationSpec(restarts=1)),
    lambda: skr_vs_time([60.0, 1e301], CHANNEL, SEC, params=PARAMS),
    lambda: skr_vs_time([60.0, 1e301], CHANNEL, SEC, opt_spec=OptimizationSpec(restarts=1)),
], ids=["channel", "slot", "sweep-fixed", "sweep-optimized", "skr-fixed", "skr-optimized"])
def test_overflowing_pulse_count_rejected(monkeypatch, build):
    # f_s and the window are each finite, but their product is inf; it is
    # rejected before any point is counted or optimized
    def evaluated(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(k, "counts_core", evaluated)
    monkeypatch.setattr(scenarios, "optimize", evaluated)
    with pytest.raises(ParameterError, match=r"^f_s \* .* must be in \[0, inf\), got inf$"):
        build()


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
    OptimizationSpec(restarts=1, max_evals_per_restart=1, tolerance=1e-12, mu3=0.0,
                     prob_bounds=(0.33, 0.34), intensity_bounds=(1e-9, 2.0))
    with pytest.raises(ParameterError):
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
    # of the default seed gets there under the default upper bound of 1
    OptimizationSpec(mu3=0.48, intensity_bounds=(1e-4, 10.0))
    OptimizationSpec(mu3=0.49, intensity_bounds=(1e-4, 2.0))
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
