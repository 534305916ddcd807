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
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _kernels as k


class ParameterError(ValueError):
    """Raised when a physical or protocol parameter is out of domain."""


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
        if not (math.isfinite(self.eta_loss_db) and self.eta_loss_db >= 0.0):
            raise ParameterError(f"eta_loss_db must be finite and >= 0, got {self.eta_loss_db}")
        if not 0.0 <= self.p_ec < 0.5:
            raise ParameterError(f"p_ec must be in [0, 0.5), got {self.p_ec}")
        if not 0.0 <= self.qber_i < 0.5:
            raise ParameterError(f"qber_i must be in [0, 0.5), got {self.qber_i}")
        if not 0.0 <= self.p_ap < 1.0:
            raise ParameterError(f"p_ap must be in [0, 1), got {self.p_ap}")
        if not (math.isfinite(self.f_s) and self.f_s > 0.0):
            raise ParameterError(f"f_s must be finite and positive, got {self.f_s}")
        if not (math.isfinite(self.integration_time_s) and self.integration_time_s >= 0.0):
            raise ParameterError(
                f"integration_time_s must be finite and >= 0, got {self.integration_time_s}")

    @property
    def transmittance(self) -> float:
        return transmittance_from_loss(self.eta_loss_db)

    @property
    def n_pulses(self) -> float:
        return self.f_s * self.integration_time_s


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable protocol knobs of the three-intensity efficient protocol.

    ``mu`` must be strictly ordered (mu1 > mu2 > mu3 >= 0) with
    mu1 > mu2 + mu3; ``p_mu`` must be a strictly positive probability
    vector.  ``mu3`` is normally a small floor value (default style 1e-9)
    or exactly zero.
    """

    pax: float
    pbx: float
    mu: tuple[float, float, float]
    p_mu: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.pax < 1.0:
            raise ParameterError(f"pax must be in (0, 1), got {self.pax}")
        if not 0.0 < self.pbx < 1.0:
            raise ParameterError(f"pbx must be in (0, 1), got {self.pbx}")
        mu1, mu2, mu3 = self.mu
        if not (mu1 > mu2 > mu3 >= 0.0):
            raise ParameterError(f"intensities must satisfy mu1 > mu2 > mu3 >= 0, got {self.mu}")
        if not mu1 > mu2 + mu3:
            raise ParameterError(f"intensities must satisfy mu1 > mu2 + mu3, got {self.mu}")
        p1, p2, p3 = self.p_mu
        if min(p1, p2, p3) <= 0.0:
            raise ParameterError(f"intensity probabilities must be positive, got {self.p_mu}")
        if abs(p1 + p2 + p3 - 1.0) > 1e-9:
            raise ParameterError(f"intensity probabilities must sum to 1, got sum {p1 + p2 + p3!r}")


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
    if not (math.isfinite(eta_loss_db) and eta_loss_db >= 0.0):
        raise ParameterError(f"eta_loss_db must be finite and >= 0, got {eta_loss_db}")
    return k.db_to_transmittance(eta_loss_db)


def detection_probability(mean_photons: float, p_d: float, p_ec: float, p_ap: float) -> float:
    """Per-pulse click probability for a pulse of the given mean photon number."""
    if mean_photons < 0.0:
        raise ParameterError(f"mean photon number must be >= 0, got {mean_photons}")
    if not 0.0 < p_d <= 1.0:
        raise ParameterError(f"transmittance must be in (0, 1], got {p_d}")
    if not 0.0 <= p_ec < 0.5:
        raise ParameterError(f"p_ec must be in [0, 0.5), got {p_ec}")
    if not 0.0 <= p_ap < 1.0:
        raise ParameterError(f"p_ap must be in [0, 1), got {p_ap}")
    return k.detection_prob(mean_photons, p_d, p_ec, p_ap)


def error_probability(mean_photons: float, p_d: float, p_ec: float, p_ap: float,
                      qber_i: float, d_k: float | None = None) -> float:
    """Per-pulse error probability; ``d_k`` may supply a precomputed click rate."""
    if not 0.0 <= qber_i < 0.5:
        raise ParameterError(f"qber_i must be in [0, 0.5), got {qber_i}")
    if d_k is None:
        return k.error_prob(mean_photons, p_d, p_ec, p_ap, qber_i)
    detection_probability(mean_photons, p_d, p_ec, p_ap)  # domain checks
    return p_ec + 0.5 * p_ap * d_k + qber_i * (1.0 - math.exp(-p_d * mean_photons))


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
        if dt < 0.0:
            raise ParameterError(f"slot duration must be >= 0, got {dt}")
        out = k.counts_core(
            params.pax, params.pbx,
            mu1, mu2, mu1, mu2, mu1, mu2, mu1, mu2,
            mu3, p1, p2, p3,
            cond.transmittance, cond.p_ec, cond.qber_i, cond.p_ap,
            cond.f_s * dt)
        for i in range(12):
            acc[i] += out[i]
    return BlockCounts(
        n_x=(acc[0], acc[1], acc[2]),
        n_z=(acc[3], acc[4], acc[5]),
        m_x=(acc[6], acc[7], acc[8]),
        m_z=(acc[9], acc[10], acc[11]),
    )
