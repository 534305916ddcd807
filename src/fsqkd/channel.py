"""Channel and protocol parameter model.

Detection statistics follow the standard threshold-detector yield model for
phase-randomized weak coherent pulses: a pulse of mean photon number k sent
through a channel of linear transmittance ``p_d`` produces a click with
probability ``(1 + p_ap) * (1 - (1 - 2*p_ec) * exp(-p_d * k))``, where
``p_ec`` covers dark counts and background light on a two-detector module
and ``p_ap`` is the after-pulse fraction.  Expected sifted block counts are
accumulated over one or more time slots of constant channel conditions.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _kernels as k


class ParameterError(ValueError):
    """Raised when a physical or protocol parameter is out of domain."""


#: The input domain, each range stated once: name -> interval.
#: Every comparison with NaN is false, so NaN fails every range, and an
#: open ``inf`` end rejects the infinities; ``check_integer`` checks the integer ones.
DOMAIN: dict[str, tuple[str, float, float, str]] = {
    "eta_loss_db": ("[", 0.0, math.inf, ")"),
    "p_ec": ("[", 0.0, 0.5, ")"),
    "qber_i": ("[", 0.0, 0.5, ")"),
    "p_ap": ("[", 0.0, 1.0, ")"),
    "transmittance": ("(", 0.0, 1.0, "]"),
    "basis probability": ("(", 0.0, 1.0, ")"),
    "intensity": ("[", 0.0, 10.0, "]"),  # mean photon numbers; exp(mu) overflows past ~709
    "intensity probability": ("(", 0.0, 1.0, ")"),
    "eps": ("(", 0.0, 1.0, ")"),
    "beta": ("[", 0.0, math.inf, ")"),
    "f_ec": ("[", 1.0, math.inf, ")"),
    "qber": ("[", 0.0, 0.5, "]"),
    "entropy argument": ("[", 0.0, 1.0, "]"),
    "f": ("[", 0.0, 0.5, ")"),
    "non-negative": ("[", 0.0, math.inf, ")"),
    "positive": ("(", 0.0, math.inf, ")"),
    "integer": ("(", -math.inf, math.inf, ")"),
    "non-negative integer": ("[", 0, math.inf, ")"),
    "positive integer": ("[", 1, math.inf, ")"),
}


def check_range(name: str, value: float, domain: str | None = None) -> None:
    """Raise ParameterError unless ``value`` lies in the range of ``domain``
    (default: the range named ``name``) in :data:`DOMAIN`."""
    left, lo, hi, right = DOMAIN[name if domain is None else domain]
    try:
        above = lo <= value if left == "[" else lo < value
        below = value <= hi if right == "]" else value < hi
    except TypeError:  # not a number: shown quoted, so '30' does not read as 30
        above = below = False
        value = repr(value)
    if not (above and below):
        raise ParameterError(f"{name} must be in {left}{lo:g}, {hi:g}{right}, got {value}")


def check_integer(name: str, value: int, domain: str) -> None:
    """``check_range`` for an integer ``domain``; a bool or any value that is
    not a ``numbers.Integral`` fails too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    check_range(name, value, domain)


def check_intensities(mu: tuple[float, float, float]) -> None:
    """The decoy-state intensity domain of Lim et al., PRA 89, 032332 (2014).

    mu1 > mu2 > mu3 >= 0 and mu1 > mu2 + mu3, all finite, and the decoy
    denominator of the single-photon bound, computed exactly as
    ``_kernels.single_photon_bound_core`` computes it, is positive.
    """
    mu1, mu2, mu3 = mu
    for i, v in enumerate(mu, start=1):
        check_range(f"mu{i}", v, "intensity")
    if not mu1 > mu2 > mu3:
        raise ParameterError(f"intensities must satisfy mu1 > mu2 > mu3 >= 0, got {mu}")
    if not mu1 > mu2 + mu3:
        raise ParameterError(f"intensities must satisfy mu1 > mu2 + mu3, got {mu}")
    if not mu1 * (mu2 - mu3) - mu2 * mu2 + mu3 * mu3 > 0.0:
        raise ParameterError(
            f"intensities give a decoy denominator mu1*(mu2-mu3) - mu2^2 + mu3^2 "
            f"that is not positive in floating point, got {mu}")


@dataclass(frozen=True)
class ChannelConditions:
    """Environment and fixed hardware constants for one transmission window.

    Args:
        eta_loss_db: total system loss in dB (channel + optics + detector).
        p_ec: extraneous-count probability per pulse, in [0, 0.5).
        qber_i: intrinsic quantum bit error rate, in [0, 0.5).
        integration_time_s: transmission window length in seconds.
        p_ap: after-pulse probability.
        f_s: source repetition rate in Hz.
    """

    eta_loss_db: float
    p_ec: float
    qber_i: float
    integration_time_s: float
    p_ap: float = 1e-3
    f_s: float = 1e8

    def __post_init__(self) -> None:
        check_range("eta_loss_db", self.eta_loss_db)
        check_range("p_ec", self.p_ec)
        check_range("qber_i", self.qber_i)
        check_range("p_ap", self.p_ap)
        check_range("integration_time_s", self.integration_time_s, "non-negative")
        check_range("f_s", self.f_s, "positive")
        # each factor can be finite while the pulse count overflows
        check_range("f_s * integration_time_s", self.n_pulses, "non-negative")

    @property
    def transmittance(self) -> float:
        return transmittance_from_loss(self.eta_loss_db)

    @property
    def n_pulses(self) -> float:
        return self.f_s * self.integration_time_s


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable protocol knobs of the three-intensity efficient protocol.

    ``mu`` must lie in the decoy domain of :func:`check_intensities`;
    ``p_mu`` must be a strictly positive probability vector.  ``mu3`` is
    normally a small floor value (default style 1e-9) or exactly zero.
    """

    pax: float
    pbx: float
    mu: tuple[float, float, float]
    p_mu: tuple[float, float, float]

    def __post_init__(self) -> None:
        check_range("pax", self.pax, "basis probability")
        check_range("pbx", self.pbx, "basis probability")
        check_intensities(self.mu)
        for i, p in enumerate(self.p_mu, start=1):
            check_range(f"p_mu{i}", p, "intensity probability")
        total = sum(self.p_mu)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"intensity probabilities must sum to 1, got sum {total!r}")


@dataclass(frozen=True)
class BlockCounts:
    """Expected sifted detection and error counts per basis and intensity."""

    n_x: tuple[float, float, float]
    n_z: tuple[float, float, float]
    m_x: tuple[float, float, float]
    m_z: tuple[float, float, float]

    @property
    def n_x_total(self) -> float:
        return self.n_x[0] + self.n_x[1] + self.n_x[2]

    @property
    def n_z_total(self) -> float:
        return self.n_z[0] + self.n_z[1] + self.n_z[2]

    @property
    def m_x_total(self) -> float:
        return self.m_x[0] + self.m_x[1] + self.m_x[2]

    @property
    def m_z_total(self) -> float:
        return self.m_z[0] + self.m_z[1] + self.m_z[2]


def transmittance_from_loss(eta_loss_db: float) -> float:
    """Linear transmittance 10^(-eta/10) of a total loss in dB."""
    check_range("eta_loss_db", eta_loss_db)
    return k.db_to_transmittance(eta_loss_db)


def _check_pulse(mean_photons: float, p_d: float, p_ec: float, p_ap: float) -> None:
    check_range("mean photon number", mean_photons, "non-negative")
    check_range("transmittance", p_d)
    check_range("p_ec", p_ec)
    check_range("p_ap", p_ap)


def detection_probability(mean_photons: float, p_d: float, p_ec: float, p_ap: float) -> float:
    """Per-pulse click probability for a pulse of the given mean photon number."""
    _check_pulse(mean_photons, p_d, p_ec, p_ap)
    return k.detection_error_prob(mean_photons, p_d, p_ec, p_ap, 0.0)[0]


def error_probability(mean_photons: float, p_d: float, p_ec: float, p_ap: float,
                      qber_i: float) -> float:
    """Per-pulse error probability for a pulse of the given mean photon number."""
    _check_pulse(mean_photons, p_d, p_ec, p_ap)
    check_range("qber_i", qber_i)
    return k.detection_error_prob(mean_photons, p_d, p_ec, p_ap, qber_i)[1]


Slots = Sequence[tuple[float, ChannelConditions]]


def expected_block_counts(params: ProtocolParams,
                          channel: ChannelConditions | Slots) -> BlockCounts:
    """Expected block counts over one window or a list of (dt, conditions) slots.

    A plain ``ChannelConditions`` is treated as a single slot spanning its
    own integration time.  A zero-length window yields all-zero counts.
    """
    if isinstance(channel, ChannelConditions):
        slots: Iterable[tuple[float, ChannelConditions]] = (
            (channel.integration_time_s, channel),)
    else:
        slots = channel

    mu1, mu2, mu3 = params.mu
    p1, p2, p3 = params.p_mu
    acc = [0.0] * 12
    for dt, cond in slots:
        check_range("slot duration", dt, "non-negative")
        n_pulses = cond.f_s * dt
        check_range("f_s * slot duration", n_pulses, "non-negative")
        out = k.counts_core(
            params.pax, params.pbx,
            mu1, mu2, mu1, mu2, mu1, mu2, mu1, mu2,
            mu3, p1, p2, p3,
            cond.transmittance, cond.p_ec, cond.qber_i, cond.p_ap,
            n_pulses)
        for i in range(12):
            acc[i] += out[i]
    return BlockCounts(
        n_x=(acc[0], acc[1], acc[2]),
        n_z=(acc[3], acc[4], acc[5]),
        m_x=(acc[6], acc[7], acc[8]),
        m_z=(acc[9], acc[10], acc[11]),
    )
