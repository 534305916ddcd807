"""The optimizer objective against the stepwise chain it short-cuts.

``finitekey._evaluate_flat`` takes the nine counts that the key uses from
``_kernels.pair_counts_core`` and runs ``_leakage`` and ``bounds_ell_core``
on them.  The stepwise chain builds the whole 12-count vector with
``counts_core``, runs ``_count_leakage`` on it and ``bounds_ell_core`` on
its nine.  The two must give the same record, bit for bit, at every point:
the chain digests hash only the objective's rows, so this keeps the two
compositions from drifting apart if a digest is re-recorded.
"""
import itertools
import random

import pytest

from fsqkd import ChannelConditions, OptimizationSpec, Regime, SecurityParams, optimize
from fsqkd import _kernels as k
from fsqkd.finitekey import _count_leakage, _evaluate_flat, _search_terms

POINTS = 2000


def _point(rng: random.Random, mu3: float) -> tuple:
    """(pax, pbx, (p1, p2, p3), (mu1, mu2), link, n_pulses): links that give
    key, links over the whole validated domain, and dark links (no
    extraneous counts and no transmittance, so no detections at all)."""
    mu1 = 10.0 ** rng.uniform(-3.0, 0.0)
    mu2 = mu1 * rng.uniform(0.001, 0.999)
    p1 = rng.uniform(0.001, 0.998)
    p2 = rng.uniform(0.0005, 0.9995 - p1)
    u = rng.random()
    if u < 0.5:
        link = (10.0 ** (-rng.uniform(10.0, 40.0) / 10.0), 10.0 ** -rng.uniform(4.0, 8.0),
                1e-3, rng.uniform(0.0, 0.05))
    elif u < 0.95:
        link = (10.0 ** (-rng.uniform(0.0, 70.0) / 10.0),
                rng.choice([0.0, 10.0 ** -rng.uniform(1.0, 9.0), rng.uniform(0.0, 0.499)]),
                rng.choice([0.0, 1e-3, rng.uniform(0.0, 0.999)]),
                rng.choice([0.0, rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.499)]))
    else:
        link = (0.0, 0.0, rng.choice([0.0, 1e-3]), rng.uniform(0.0, 0.05))
    n_pulses = 0.0 if rng.random() < 0.02 else 10.0 ** rng.uniform(2.0, 13.0)
    return (rng.uniform(0.001, 0.999), rng.uniform(0.001, 0.999), (p1, p2, 1.0 - p1 - p2),
            (mu1, mu2), link, n_pulses)


def _stepwise(pax, pbx, p_mu, mu, mu3, link, n_pulses, sec):
    """``bounds_ell_core`` of the whole count vector, with its leakage from
    ``_count_leakage``; also returns the vector and the basis' ``sum_pd``."""
    d3, e3 = k.detection_error_prob(mu3, *link)
    x = k.pair_statistics(*mu, *mu, *link)
    p_d, p_ec, p_ap, qber_i = link
    c = k.counts_core(pax, pbx, *mu * 4, mu3, *p_mu, p_d, p_ec, qber_i, p_ap, n_pulses)
    record = k.bounds_ell_core(*c[:6], c[6] + c[7] + c[8], c[10], c[11], *mu, mu3, *p_mu,
                               sec.beta, sec.eps, sec.pa_bits, _count_leakage(c, sec)[0])
    return record, c, x, (d3, e3), p_mu[0] * x[0] + p_mu[1] * x[2] + p_mu[2] * d3


@pytest.mark.parametrize("ec_method, mu3, searched",
                         list(itertools.product(["binomial", "rate-factor"], [0.0, 1e-9],
                                                [True, False])))
def test_objective_equals_the_stepwise_chain(ec_method, mu3, searched):
    rng = random.Random(f"objective oracle {ec_method} {mu3!r} {searched}")
    sec = SecurityParams(ec_method=ec_method)
    reasons, no_detections = set(), 0
    for _ in range(POINTS):
        pax, pbx, p_mu, mu, (p_d, p_ec, p_ap, qber_i), n_pulses = _point(rng, mu3)
        link = (p_d, p_ec, p_ap, qber_i)
        want, *_, sum_pd = _stepwise(pax, pbx, p_mu, mu, mu3, link, n_pulses, sec)
        if searched:
            terms = _search_terms(p_d, p_ec, qber_i, p_ap, n_pulses, sec, (None, None, mu3))
            got = _evaluate_flat(terms, pax, pbx, *p_mu, *mu)
        else:
            terms = _search_terms(p_d, p_ec, qber_i, p_ap, n_pulses, sec, (*mu, mu3))
            got = _evaluate_flat(terms, pax, pbx, *p_mu)
        assert repr(got) == repr(want), (pax, pbx, p_mu, mu, link, n_pulses)
        reasons.add(want[10])
        no_detections += sum_pd == 0.0
    assert reasons == {k.REASON_OK, k.REASON_ZERO_COUNTS, k.REASON_NO_SINGLE_PHOTON,
                       k.REASON_NEGATIVE_KEY}
    assert no_detections > 0


@pytest.mark.parametrize("ec_method", ["binomial", "rate-factor"])
@pytest.mark.parametrize("searched", [True, False], ids=["searched", "fixed"])
def test_objective_reaches_its_bounds_through_bounds_ell_core(monkeypatch, ec_method,
                                                              searched):
    """Each objective evaluation is one ``bounds_ell_core`` call, whose
    record it returns as it is, so the counts -> leakage -> bounds glue
    exists once; ``optimize`` adds one call for its final record."""
    calls = []
    bounds = k.bounds_ell_core

    def counted(*args):
        calls.append(bounds(*args))
        return calls[-1]

    monkeypatch.setattr(k, "bounds_ell_core", counted)
    rng = random.Random(f"one bounds call {ec_method} {searched}")
    sec = SecurityParams(ec_method=ec_method)
    for _ in range(200):
        pax, pbx, p_mu, mu, (p_d, p_ec, p_ap, qber_i), n_pulses = _point(rng, 1e-9)
        fixed = (None, None) if searched else mu
        terms = _search_terms(p_d, p_ec, qber_i, p_ap, n_pulses, sec, (*fixed, 1e-9))
        before = len(calls)
        got = _evaluate_flat(terms, pax, pbx, *p_mu, *(mu if searched else ()))
        assert len(calls) == before + 1 and got is calls[-1]

    calls.clear()
    channel = ChannelConditions(eta_loss_db=30.0, p_ec=1e-6, qber_i=0.01,
                                integration_time_s=60.0)
    spec = (OptimizationSpec(restarts=2) if searched else
            OptimizationSpec(regime=Regime.FIXED_PBX_AND_MU, pbx=0.5, mu=(0.5, 0.1, 1e-9),
                             restarts=2))
    res = optimize(spec, channel, sec)
    assert res.evaluations > 0 and len(calls) == res.evaluations + 1
    assert calls[-1][0] == res.result.ell


def test_pair_counts_equal_the_sifted_counts():
    """Each of ``pair_counts_core``'s nine floats is the one that
    ``counts_core`` gives with every state sending one intensity pair,
    and ``m_x`` is its three X-basis error counts summed left to right."""
    rng = random.Random("pair counts")
    no_detections = 0
    for _ in range(4 * POINTS):
        mu3 = rng.choice([0.0, 1e-9, 1e-7])
        pax, pbx, p_mu, mu, link, n_pulses = _point(rng, mu3)
        _, c, x, (d3, e3), sum_pd = _stepwise(pax, pbx, p_mu, mu, mu3, link, n_pulses,
                                              SecurityParams())
        got = k.pair_counts_core(pax, pbx, *x, d3, e3, *p_mu, n_pulses)
        assert repr(got) == repr((*c[:6], c[6] + c[7] + c[8], c[10], c[11]))
        no_detections += sum_pd == 0.0
    assert no_detections > 0

