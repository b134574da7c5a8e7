"""Lossy channel and threshold detection: yields, gains, and error rates.

All quantities are per emitted pulse. The applied attenuation and the
baseline transmission compose multiplicatively:
eta = eta0 * 10^(-attenuation_db / 10).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import DomainError
from .photon_stats import PhotonNumberDistribution


@dataclass(frozen=True)
class ChannelModel:
    """Quantum channel: applied attenuation plus baseline transmission."""

    attenuation_db: float = 0.0
    fiber_alpha: float = 0.21
    eta0: float = 1.0

    def __post_init__(self):
        if self.attenuation_db < 0.0:
            raise DomainError(f"attenuation must be nonnegative, got {self.attenuation_db!r}")
        if not 0.0 < self.eta0 <= 1.0:
            raise DomainError(f"eta0 must be in (0, 1], got {self.eta0!r}")
        if self.fiber_alpha <= 0.0:
            raise DomainError(f"fiber attenuation must be positive, got {self.fiber_alpha!r}")

    @property
    def transmissivity(self) -> float:
        return self.eta0 * db_to_transmissivity(self.attenuation_db)

    @property
    def km(self) -> float:
        return db_to_km(self.attenuation_db, self.fiber_alpha)

    def with_attenuation(self, db: float) -> "ChannelModel":
        return dataclasses.replace(self, attenuation_db=db)


@dataclass(frozen=True)
class DetectorModel:
    """Receiver model: misalignment, dark counts, and key-distillation factors.

    e_d  probability for a photon to enter the wrong detection path
    y0   per-pulse dark-count click probability
    e0   error probability of a dark-count click (uncorrelated, so 1/2)
    f_ec error-correction inefficiency factor
    """

    e_d: float
    y0: float
    e0: float = 0.5
    f_ec: float = 1.2
    rep_rate_hz: float = 81.96e6

    def __post_init__(self):
        if not 0.0 <= self.e_d <= 0.5:
            raise DomainError(f"e_d must be in [0, 0.5], got {self.e_d!r}")
        if not 0.0 <= self.y0 < 1.0:
            raise DomainError(f"y0 must be in [0, 1), got {self.y0!r}")
        if not 0.0 <= self.e0 <= 1.0:
            raise DomainError(f"e0 must be in [0, 1], got {self.e0!r}")
        if self.f_ec < 1.0:
            raise DomainError(f"f_ec must be at least 1, got {self.f_ec!r}")
        if self.rep_rate_hz <= 0.0:
            raise DomainError(f"repetition rate must be positive, got {self.rep_rate_hz!r}")


def db_to_transmissivity(db: float) -> float:
    """Transmissivity 10^(-db/10) of an attenuation in decibels."""
    if db < 0.0:
        raise DomainError(f"attenuation must be nonnegative, got {db!r}")
    return 10.0 ** (-db / 10.0)


def db_to_km(db: float, alpha: float = 0.21) -> float:
    """Fiber length equivalent to an attenuation, for alpha dB/km."""
    if alpha <= 0.0:
        raise DomainError(f"fiber attenuation must be positive, got {alpha!r}")
    return db / alpha


def yield_k(k: int, eta: float, y0: float) -> float:
    """Probability of a click given k emitted photons.

    Either a dark count fires (y0) or at least one of the k photons
    survives the channel: Y_k = y0 + (1 - y0) (1 - (1 - eta)^k).
    """
    return y0 + (1.0 - y0) * (1.0 - (1.0 - eta) ** k)


def error_k(k: int, eta: float, det: DetectorModel) -> float:
    """QBER of k-photon emissions:
    e_k = (e0 Y0 + e_d (1 - (1 - eta)^k)) / Y_k.
    """
    y_k = yield_k(k, eta, det.y0)
    if y_k <= 0.0:
        raise DomainError("e_k is undefined when the yield Y_k is zero")
    arrive = 1.0 - (1.0 - eta) ** k
    return (det.e0 * det.y0 + det.e_d * arrive) / y_k


def totals(
    dist: PhotonNumberDistribution, eta: float, det: DetectorModel
) -> tuple[float, float]:
    """Total gain Q_tot = sum_k Q_k and gain-weighted QBER E_tot.

    Threshold detection sees only A = 1 - G(1 - eta), the probability that
    at least one photon arrives, so the sums over k close to
    Q_tot = y0 + (1 - y0) A and E_tot Q_tot = e0 y0 + e_d A.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"transmissivity must be in [0, 1], got {eta!r}")
    arrive = dist.arrival_probability(eta)
    q_tot = det.y0 + (1.0 - det.y0) * arrive
    if q_tot <= 0.0:
        raise DomainError("total gain is zero: no clicks to distill a key from")
    return q_tot, (det.e0 * det.y0 + det.e_d * arrive) / q_tot
