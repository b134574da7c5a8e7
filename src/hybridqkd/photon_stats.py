"""Photon-number distributions for quantum-dot, laser, and hybrid sources.

A distribution is a finite Fock part f convolved with Poisson(mu), the
incoherent mixture of quantum-dot and laser light, with generating function
G(x) = (sum_k f_k x^k) e^(mu (x - 1)). Threshold detection sees only
G(1 - eta), so totals, multiphoton probability, moments and loss are closed
forms without truncation. Only the pulse-level Monte Carlo needs the explicit
Fock vector ``probs``, built on demand with the Poisson tail cut at 1e-13.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

# How far a Fock part may sum from 1 before it is renormalized.
NORM_TOL = 1e-9
# Tail mass the explicit Fock vector cuts from the Poisson part, and the
# fewest photon numbers it keeps.
POISSON_TAIL = 1e-13
MIN_KMAX = 20
# Largest Poisson mean accepted: the optimizer's search range, and small
# enough that e^(-mu) stays far from underflow, so the Fock vector's
# recurrence reaches its tail.
MU_MAX = 5.0
# Below this g2 the two-photon quadratic is 0/0; limit branches apply.
G2_ZERO = 1e-12


@dataclass(frozen=True, eq=False)
class PhotonNumberDistribution:
    """Photon-number law: the Fock part ``f`` convolved with Poisson(``mu``).

    ``f`` holds probabilities f_k for k = 0..n (n >= 2), normalized to 1.
    """

    f: np.ndarray
    mu: float = 0.0

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float).copy()
        if f.ndim != 1 or f.size < 3:
            raise DomainError("a photon-number distribution needs k_max >= 2")
        if not np.all(np.isfinite(f)):
            raise DomainError("photon-number probabilities must be finite")
        if np.any(f < -1e-12):
            raise DomainError("photon-number probabilities must be nonnegative")
        f = np.clip(f, 0.0, None)
        total = f.sum()
        if not (1.0 - NORM_TOL <= total <= 1.0 + NORM_TOL):
            raise DomainError(
                f"photon-number probabilities sum to {total!r}, expected 1 "
                f"within {NORM_TOL:g}"
            )
        f /= total
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        if not 0.0 <= self.mu <= MU_MAX:
            raise DomainError(
                f"mean photon number must be in [0, {MU_MAX:g}], got {self.mu!r}"
            )
        object.__setattr__(self, "mu", float(self.mu))

    def arrival_probability(self, eta: float) -> float:
        """1 - G(1 - eta): the probability that some photon survives a channel
        of transmissivity eta. It is summed from nonnegative terms, with
        1 - x^k = eta (1 + x + ... + x^(k-1)), because at high loss G rounds to 1."""
        x = 1.0 - eta
        fock = powers = 0.0  # powers = 1 + x + ... + x^(k-1)
        for f_k in self.f.tolist()[1:]:
            powers = 1.0 + x * powers
            fock += f_k * powers
        fock *= eta
        return fock - (1.0 - fock) * math.expm1(-self.mu * eta)  # 1 - fock = f(1 - eta)

    @cached_property
    def probs(self) -> np.ndarray:
        """Explicit p_k, k = 0..k_max; the Poisson tail is cut below 1e-13."""
        if self.mu == 0.0:
            return self.f
        probs = np.convolve(self.f, _poisson_pmf(self.mu))
        probs /= probs.sum()
        probs.setflags(write=False)
        return probs


def single_photon_probability(dist: PhotonNumberDistribution) -> float:
    """Probability p1 = e^(-mu) (f1 + f0 mu) of emitting exactly one photon."""
    f0, f1 = dist.f[:2].tolist()
    return math.exp(-dist.mu) * (f1 + f0 * dist.mu)


def multiphoton_probability(dist: PhotonNumberDistribution) -> float:
    """Probability p_m = sum_{k>=2} p_k = 1 - e^(-mu) (f0 + f1 + f0 mu) of
    emitting more than one photon, for the Fock part f convolved with
    Poisson(mu), summed as sum_{k>=2} f_k + f1 (1 - e^(-mu)) + f0 P(N >= 2).
    """
    mu = dist.mu
    # P(N >= 2) for N ~ Poisson(mu) as e^(-mu) sum_{k>=2} mu^k / k!; the form
    # 1 - e^(-mu) (1 + mu) cancels to a relative error of 1e-16 / mu.
    term = tail = 0.5 * mu * mu
    k = 2
    while term > 1e-17 * tail:
        k += 1
        term *= mu / k
        tail += term
    f0, f1 = dist.f[:2].tolist()
    return float(dist.f[2:].sum()) - f1 * math.expm1(-mu) + f0 * tail * math.exp(-mu)


@dataclass(frozen=True)
class QdSourceParams:
    """Quantum-dot source: collected brightness and g2(0) at Alice's output."""

    brightness: float
    g2: float

    def __post_init__(self):
        if not 0.0 <= self.brightness <= 1.0:
            raise DomainError(f"brightness must be in [0, 1], got {self.brightness!r}")
        if not 0.0 <= self.g2 < 0.5:
            raise DomainError(
                f"g2 must be in [0, 0.5) for a single-photon source, got {self.g2!r}"
            )
        if 2.0 * self.g2 * self.brightness > 1.0:
            raise DomainError("2 * g2 * brightness > 1: two-photon root is complex")


def _poisson_pmf(mu: float) -> np.ndarray:
    """Poisson(mu) masses for k = 0..k_max: the smallest k_max >= MIN_KMAX
    whose tail mass is at most POISSON_TAIL."""
    pmf = [math.exp(-mu)]
    total = pmf[0]
    while len(pmf) <= MIN_KMAX or 1.0 - total > POISSON_TAIL:
        pmf.append(pmf[-1] * mu / len(pmf))
        total += pmf[-1]
    return np.array(pmf)


def poisson_distribution(mu: float) -> PhotonNumberDistribution:
    """Poisson statistics p_k = e^(-mu) mu^k / k!: the vacuum with Poisson mean mu."""
    return PhotonNumberDistribution(np.array([1.0, 0.0, 0.0]), mu)


def qd_distribution(params: QdSourceParams) -> PhotonNumberDistribution:
    """Truncated quantum-dot statistics [p0, p1, p2] from brightness and g2.

    p2 solves (brightness + p2)^2 g2 = 2 p2, keeping the root compatible
    with a single-photon source; p1 + p2 equals the brightness exactly. The
    root is real because QdSourceParams holds 2 g2 brightness <= 1.
    """
    b, g2 = params.brightness, params.g2
    p2 = 0.0 if g2 < G2_ZERO else (1.0 - g2 * b - math.sqrt(1.0 - 2.0 * g2 * b)) / g2
    return PhotonNumberDistribution(np.array([1.0 - b, b - p2, p2]))


def hybrid_distribution(qd: PhotonNumberDistribution, mu_laser: float) -> PhotonNumberDistribution:
    """Incoherent mixture of QD and laser light: QD statistics convolved with
    Poisson(mu_laser)."""
    if qd.f.size != 3 or qd.mu != 0.0:
        raise DomainError("hybrid mixing expects QD statistics truncated at two photons")
    return PhotonNumberDistribution(qd.f, mu_laser)


def _fock_moments(dist: PhotonNumberDistribution) -> tuple[float, float]:
    """Factorial moments E[k] and E[k(k - 1)] of the Fock part f."""
    ks = np.arange(dist.f.size)
    return float(ks @ dist.f), float((ks * (ks - 1.0)) @ dist.f)


def mean_photon_number(dist: PhotonNumberDistribution) -> float:
    """First moment sum_k k p_k: the Fock part's plus mu."""
    return _fock_moments(dist)[0] + dist.mu


def g2_of(dist: PhotonNumberDistribution) -> float:
    """Second-order correlation g2(0) = sum_k k(k-1) p_k / mean^2. With the Fock
    part's factorial moments m1_f and m2_f the sum is m2_f + 2 mu m1_f + mu^2;
    each term is divided by the mean on its own, so g2 stays finite where the
    squared mean underflows."""
    m1_f, m2_f = _fock_moments(dist)
    mean = m1_f + dist.mu
    if mean <= 0.0:
        raise DomainError("g2(0) is undefined for a zero-mean distribution")
    laser = dist.mu / mean
    return laser * (laser + 2.0 * m1_f / mean) + m2_f / mean / mean


def apply_loss(dist: PhotonNumberDistribution, eta: float) -> PhotonNumberDistribution:
    """Binomial thinning: each photon survives independently with probability eta.

    The Fock part is thinned exactly; a thinned Poisson(mu) is Poisson(eta mu).
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"transmissivity must be in [0, 1], got {eta!r}")
    if eta == 1.0:
        return dist
    ks = np.arange(dist.f.size)
    comb = np.array([[math.comb(k, j) for k in ks] for j in ks], dtype=float)  # 0 for j > k
    thin = comb * eta ** ks[:, None] * (1.0 - eta) ** np.maximum(ks - ks[:, None], 0)
    return PhotonNumberDistribution(thin @ dist.f, eta * dist.mu)


def brightness_after_loss(b0: float, g2: float, eta: float) -> float:
    """Click probability of a QD source after transmission eta: the arrival
    probability of its photon-number law.

    Losses do not simply scale the brightness: the two-photon component
    partially survives as a one-photon click, adding
    eta (1 - eta) p2 on top of eta * b0.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"transmissivity must be in [0, 1], got {eta!r}")
    return qd_distribution(QdSourceParams(b0, g2)).arrival_probability(eta)
