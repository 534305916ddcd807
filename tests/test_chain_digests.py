"""Bit-identity of the scalar chain, the worst-case grid and the optimizer,
pinned by digests.

Each digest is the SHA-256 of the ``repr`` of every result of a seeded
sample, one result per line, recorded at commit e7d2311 (the worst-case
digest at 16c222c, the fixed-parameter sweep digest at 12cd620, the
optimizer digests at 4055a21).  A change to the chain's arithmetic that
moves any bit of any field fails here, so work may be reordered or shared
only where it gives the same floats; an optimizer digest also pins each
search's path, through its evaluation count and restart trace.  The
digests depend on the platform's libm and on scipy's ``betainc``; they
were recorded on x86-64 Linux (glibc) with Python 3.11 and scipy 1.17.1.
"""
import hashlib
import itertools
import random

import pytest

from fsqkd import (ChannelConditions, IntensityUncertaintyModel, OptimizationSpec,
                   ProtocolParams, SecurityParams, SweepSpec, optimize, skr_vs_time, sweep,
                   worst_case_key_length)
from fsqkd import _kernels as k
from fsqkd.channel import ParameterError, check_intensities
from fsqkd.finitekey import _evaluate_flat, _search_terms

EVALUATE_FLAT_DIGESTS = {
    ("binomial", 0.0):
        "3acc41e202d67655b1e46d2b62e7e105ac6b097529792220859ad50f6539426e",
    ("binomial", 1e-9):
        "07d09cbf208c19b4f9b74c8ef003e0b052f55b168854e606f96d3e9f98c51342",
    ("rate-factor", 0.0):
        "73048d0e7079aaf069ffdc9696cfea38339ab98b1c391a89e6da1a519ed83c63",
    ("rate-factor", 1e-9):
        "4449a6e8c5cfd3c4394ba9795ce0da058c978dc3b295495922df5e5535d32986",
}

COUNTS_DIGESTS = {
    "all-equal":
        "fd853adba14b9fe4688ae2974fafef19d5b4a6689bb0d21327bf8ed762dfd00a",
    "h-neq-v":
        "f2c6229c4922ab3be9f5bf22b00b24af5511717066995cc549122084cc373bbb",
    "d-neq-a":
        "0519a2ccdddd939921e9c187790031b2a9241a901eae4784537d56a2b36acd53",
    "da-equal-hv":
        "5a5cc6b27ca716d3520fcad8899d5f06051d6d5f6b989c901794b2447b583cb4",
}

WORST_CASE_DIGEST = "c0514053608f84bd9ae444fc2cd9fbf0bb9f9185dbb6f4436e645769f027f5bd"

FIXED_SWEEP_DIGEST = "4b04f29e649c100a0e80ef8919046d4c8ef1c36bf6a20229dbbc60778dca166f"


def _digest(rows) -> str:
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()


def _intensities(rng: random.Random, mu3: float) -> tuple[float, float]:
    """A (mu1, mu2) pair in the decoy domain of ``check_intensities``."""
    while True:
        mu1 = 10.0 ** rng.uniform(-3.0, 1.0)
        mu2 = mu1 * rng.uniform(0.001, 0.999)
        try:
            check_intensities((mu1, mu2, mu3))
        except ParameterError:
            continue
        return mu1, mu2


def _probabilities(rng: random.Random) -> tuple[float, float, float]:
    """A strictly positive (p1, p2, p3) from the simplex, corners included."""
    p1 = rng.uniform(0.001, 0.998)
    p2 = rng.uniform(0.0005, 0.9995 - p1)
    return p1, p2, 1.0 - p1 - p2


def _link(rng: random.Random) -> tuple[float, float, float, float, float]:
    """(p_d, p_ec, qber_i, p_ap, n_pulses): half from links that give key,
    half from the whole validated channel domain, with some empty windows."""
    if rng.random() < 0.5:
        return (10.0 ** (-rng.uniform(10.0, 40.0) / 10.0), 10.0 ** -rng.uniform(4.0, 8.0),
                rng.uniform(0.0, 0.05), 1e-3, 10.0 ** rng.uniform(9.0, 13.0))
    p_d = 10.0 ** (-rng.uniform(0.0, 70.0) / 10.0)
    p_ec = rng.choice([0.0, 10.0 ** -rng.uniform(1.0, 9.0), rng.uniform(0.0, 0.499)])
    qber_i = rng.choice([0.0, rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.499)])
    p_ap = rng.choice([0.0, 1e-3, rng.uniform(0.0, 0.999)])
    n_pulses = 0.0 if rng.random() < 0.02 else 10.0 ** rng.uniform(2.0, 13.0)
    return p_d, p_ec, qber_i, p_ap, n_pulses


def evaluate_flat_rows(ec_method: str, mu3: float, n: int = 2000) -> list:
    rng = random.Random(f"evaluate_flat {ec_method} {mu3!r}")
    sec = SecurityParams(ec_method=ec_method)
    rows = []
    for _ in range(n):
        mu1, mu2 = _intensities(rng, mu3)
        pax, pbx = rng.uniform(0.001, 0.999), rng.uniform(0.001, 0.999)
        p_mu = _probabilities(rng)
        terms = _search_terms(*_link(rng), sec, (None, None, mu3))
        rows.append(_evaluate_flat(terms, pax, pbx, *p_mu, mu1, mu2))
    return rows


def _states(rng: random.Random, case: str) -> tuple:
    """(mu1_h, mu2_h, mu1_v, mu2_v, mu1_d, mu2_d, mu1_a, mu2_a) of one case."""
    def pair():
        return 10.0 ** rng.uniform(-3.0, 1.0), 10.0 ** rng.uniform(-4.0, 0.5)

    h = pair()
    if case == "all-equal":
        return h * 4
    if case == "h-neq-v":  # V shares H's mu1 in some draws
        v = pair()
        return h + (v if rng.random() < 0.7 else (h[0], v[1])) + h + h
    if case == "d-neq-a":
        return h + h + h + pair()
    return (h + pair()) * 2  # da-equal-hv: H != V, and D, A carry H, V


def counts_rows(case: str, n: int = 2000) -> list:
    rng = random.Random(f"counts_core {case}")
    rows = []
    for _ in range(n):
        mu3 = rng.choice([0.0, 1e-9, 10.0 ** rng.uniform(-6.0, -1.0)])
        p_d, p_ec, qber_i, p_ap, n_pulses = _link(rng)
        rows.append(k.counts_core(rng.uniform(0.001, 0.999), rng.uniform(0.001, 0.999),
                                  *_states(rng, case), mu3, *_probabilities(rng),
                                  p_d, p_ec, qber_i, p_ap, n_pulses))
    return rows


@pytest.mark.parametrize("ec_method, mu3", list(EVALUATE_FLAT_DIGESTS))
def test_evaluate_flat_digest(ec_method, mu3):
    rows = evaluate_flat_rows(ec_method, mu3)
    # the sample reaches every reason code
    assert {row[10] for row in rows} == {k.REASON_OK, k.REASON_ZERO_COUNTS,
                                         k.REASON_NO_SINGLE_PHOTON, k.REASON_NEGATIVE_KEY}
    assert _digest(rows) == EVALUATE_FLAT_DIGESTS[ec_method, mu3]


@pytest.mark.parametrize("case", list(COUNTS_DIGESTS))
def test_counts_core_digest(case):
    assert _digest(counts_rows(case)) == COUNTS_DIGESTS[case]


def worst_case_rows(n: int = 240) -> tuple[list, int]:
    """``worst_case_key_length`` over g = 2, 3 and 4, every f in the list
    and both leakage modes, with the number of cases in which some
    estimator pair leaves the decoy domain."""
    rng = random.Random("worst_case_key_length")
    rows, outside = [], 0
    for i in range(n):
        g = (2, 3, 4)[i % 3]
        f = rng.choice([0.0, 1e-16, 0.01, 0.05, 0.1, 0.3])
        mu1 = rng.uniform(0.2, 0.9)
        mu2 = mu1 * rng.uniform(0.1, 0.75)
        mu3 = rng.choice([0.0, 1e-9, mu2 * 0.01])
        p1 = rng.uniform(0.5, 0.9)
        p2 = rng.uniform(0.03, 0.95 - p1)
        params = ProtocolParams(pax=rng.uniform(0.3, 0.9), pbx=rng.uniform(0.3, 0.9),
                                mu=(mu1, mu2, mu3), p_mu=(p1, p2, 1.0 - p1 - p2))
        channel = ChannelConditions(eta_loss_db=rng.uniform(15.0, 35.0),
                                    p_ec=10.0 ** -rng.uniform(4.0, 7.0),
                                    qber_i=rng.uniform(0.0, 0.03),
                                    integration_time_s=rng.choice([0.0, 10.0, 60.0, 600.0]))
        sec = SecurityParams(ec_method=rng.choice(["binomial", "rate-factor"]))
        model = IntensityUncertaintyModel(f=f, nominal=params, grid_points_per_dim=g)
        res = worst_case_key_length(model, channel, sec)
        rows.append((res.min_ell, res.nominal_ell, res.argmin_index,
                     tuple(res.argmin.items()), res.evaluations))
        try:
            for est in itertools.product(model.candidates(mu1), model.candidates(mu2)):
                check_intensities((*map(float, est), mu3))
        except ParameterError:
            outside += 1
    return rows, outside


def test_worst_case_digest():
    rows, outside = worst_case_rows()
    assert sum(row[0] > 0 for row in rows) >= 50
    assert outside >= 10
    assert _digest(rows) == WORST_CASE_DIGEST


def fixed_sweep_rows(n: int = 24) -> list:
    """Fixed-parameter ``sweep`` rows and ``skr_vs_time`` tuples in both
    leakage modes.  The axes reach p_ec = 0 (log10_pec = -400), qber_i = 0,
    empty windows, a loss whose transmittance underflows to 0 (3300 dB) and
    windows of up to 1e20 pulses, so X-basis counts pass 1e11 and 2^53."""
    rng = random.Random("fixed-parameter sweep")
    rows = [skr_vs_time([], ChannelConditions(30.0, 1e-6, 0.01, 1.0), SecurityParams(),
                        params=ProtocolParams(0.5, 0.5, (0.5, 0.1, 0.0), (0.5, 0.25, 0.25)))]
    for i in range(n):
        mu3 = rng.choice([0.0, 1e-9, 1e-3])
        params = ProtocolParams(pax=rng.uniform(0.001, 0.999), pbx=rng.uniform(0.001, 0.999),
                                mu=(*_intensities(rng, mu3), mu3),
                                p_mu=_probabilities(rng))
        axes = (sorted([rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0),
                        rng.choice([0.0, 3300.0, rng.uniform(60.0, 100.0)])]),
                sorted([rng.uniform(-9.0, -3.0), rng.choice([-400.0, rng.uniform(-9.0, -3.0)])]),
                [0.0, rng.uniform(0.0, 0.05)],
                [0.0, rng.uniform(1.0, 1e3), 10.0 ** rng.uniform(3.0, 5.0),
                 10.0 ** rng.uniform(8.0, 11.0)])
        base = ChannelConditions(eta_loss_db=0.0, p_ec=0.0, qber_i=0.0, integration_time_s=1.0,
                                 p_ap=rng.choice([0.0, 1e-3, 0.02]), f_s=rng.choice([1e8, 1e9]))
        sec = SecurityParams(ec_method=("binomial", "rate-factor")[i % 2])
        rows.extend(sweep(SweepSpec(*axes, params=params), base, sec))
        cond = ChannelConditions(axes[0][i % 3], 10.0 ** axes[1][0], axes[2][i % 2], 1.0,
                                 base.p_ap, base.f_s)
        rows.append(skr_vs_time(axes[3], cond, sec, params=params))
    return rows


def test_fixed_sweep_digest():
    rows = fixed_sweep_rows()
    results = [row.result for row in rows if not isinstance(row, list)]
    assert {r.reason for r in results} >= {None, "zero-counts", "negative-key-expression"}
    assert any(1e11 < r.ec_quantile < 2.0 ** 53 for r in results)
    assert any(r.ec_quantile > 2.0 ** 53 for r in results)
    assert _digest(rows) == FIXED_SWEEP_DIGEST


# each regime's specs at one mu3; the fixed intensities end in that mu3
def _regime_spec(regime: str, mu3: float) -> OptimizationSpec:
    if regime == "full":
        return OptimizationSpec(mu3=mu3)
    if regime == "fixed_pbx":
        return OptimizationSpec(regime=regime, pbx=0.6, mu3=mu3)
    return OptimizationSpec(regime=regime, pbx=0.6, mu=(0.5, 0.15, mu3), mu3=mu3)


# losses (dB) of the three channels: key, about 1 dB short of the regime's
# cliff (max_loss gives 30.0, 30.7 and 31.8-32.3 dB there), and the
# zero-key plateau
OPTIMIZE_LOSSES = {"full": (25.0, 29.0, 40.0), "fixed_pbx": (25.0, 29.75, 40.0),
                   "fixed_pbx_and_mu": (25.0, 31.0, 40.0)}

OPTIMIZE_DIGESTS = {
    ("full", "binomial", 0.0):
        "784d46f63ed19348616ee48e14d30c71d4dcdb167cd73fa4eb47a1224363e4fa",
    ("full", "binomial", 1e-09):
        "6d875485e3ed9013983c874a0bac450d950f3fe0c959cab89f221f3db0e4dbd4",
    ("full", "rate-factor", 0.0):
        "c245901ab5e390d483136b64ac8db1efedf67d07b3bc1d21270a59556ee04c0d",
    ("full", "rate-factor", 1e-09):
        "a9ffad55a256ccec3a8fa19ad06800a8f620c5bc558a942e23652c0033f30c17",
    ("fixed_pbx", "binomial", 0.0):
        "2b1f439d650adc8773d07cb72971d8f79e7e97846a24c3b6dd8e29cf5aa2ead3",
    ("fixed_pbx", "binomial", 1e-09):
        "7860254db932e8ba7a365c9e1b38f8c20861c572c59e43589932f243e99f6a2b",
    ("fixed_pbx", "rate-factor", 0.0):
        "91d7edcf0e90868a92bda3c6a49568b4deef909635086e1f5ed49a3ca567d3e2",
    ("fixed_pbx", "rate-factor", 1e-09):
        "93fb0ed6203e0fff72d8a2bfbcd69adaa941666c6490bba5e2a06be51e3c87fd",
    ("fixed_pbx_and_mu", "binomial", 0.0):
        "d25cc531b0be5985533b4a173b412bf1dd9d5c80f097119dbb7f9fc5f1a94e4a",
    ("fixed_pbx_and_mu", "binomial", 1e-09):
        "2b591f8d95d7330c9618da68a2ec2ba608d3c4c0cfa45c548d4d091e926b1af9",
    ("fixed_pbx_and_mu", "rate-factor", 0.0):
        "c998685fca2d9205265d80292642c4c390e7872d8bc991398eb7bc7c57b954d5",
    ("fixed_pbx_and_mu", "rate-factor", 1e-09):
        "1fcae9ac10a2e0785b028ec7ab8f797fbdd5ace2e74a358c30f15deace1f1b5a",
}

OPTIMIZE_EXTRAS_DIGEST = "8f4a3080438e61bf1bd0b72cc8b80f4b045a25a83cfc503ecf4e5f623eba3ec3"


def optimize_rows(regime: str, ec_method: str, mu3: float) -> list:
    """The whole ``OptimizationResult`` of each channel of ``OPTIMIZE_LOSSES``."""
    sec = SecurityParams(ec_method=ec_method)
    return [optimize(_regime_spec(regime, mu3),
                     ChannelConditions(eta_db, 1e-5, 0.01, 60.0), sec)
            for eta_db in OPTIMIZE_LOSSES[regime]]


@pytest.mark.parametrize("regime, ec_method, mu3", list(OPTIMIZE_DIGESTS))
def test_optimize_digest(regime, ec_method, mu3):
    rows = optimize_rows(regime, ec_method, mu3)
    assert [row.best_ell > 0 for row in rows] == [True, True, False]
    assert _digest(rows) == OPTIMIZE_DIGESTS[regime, ec_method, mu3]


def test_optimize_extras_digest():
    """A search stopped at a target, and an optimized ``skr_vs_time``."""
    channel = ChannelConditions(29.0, 1e-5, 0.01, 60.0)
    stopped = optimize(OptimizationSpec(), channel, SecurityParams(), stop_at=10**5)
    curve = skr_vs_time([0.0, 1.0, 60.0, 1800.0], channel, SecurityParams(),
                        opt_spec=_regime_spec("fixed_pbx", 1e-9))
    assert stopped.best_ell >= 10**5 and curve[0][2] == 0 < curve[-1][2]
    assert _digest([stopped, curve]) == OPTIMIZE_EXTRAS_DIGEST
