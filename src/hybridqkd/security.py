"""GLLP asymptotic secret-key-rate lower bound for BB84.

Worst case: every multiphoton emission is tagged and fully leaked, so the
single-photon estimate is Q_{k<2} = Q_tot - p_m with p_m the exact
multiphoton emission probability, and the conditional error rate is
e_{k<2} = E_tot Q_tot / Q_{k<2}. The bound is

    SKR >= 1/2 ( Q_{k<2} (1 - H2(e_{k<2})) - f_EC Q_tot H2(E_tot) )

with the 1/2 accounting for basis sifting. Each term is a closed form in the
laser mean photon number and in the dot's brightness, and so are the slopes
that the optimizer and the laser-beat search bisect on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelModel, DetectorModel, totals
from .errors import DomainError
from .photon_stats import (
    PhotonNumberDistribution,
    QdSourceParams,
    multiphoton_probability,
    qd_distribution,
    single_photon_probability,
)

# Explicit 0 log 0 branches; the upper cutoff keeps log2(1 - x) finite.
_H2_LO = 1e-300
_H2_HI = 1.0 - 1e-15


@dataclass(frozen=True)
class SkrReport:
    """Secret-key-rate bound together with the quantities entering it.

    ``skr_per_pulse`` keeps the raw (possibly negative) bound so optimizers
    see the objective's sign structure; ``clamped`` marks regimes where the
    bound is meaningless (no single-photon gain left, or conditional error
    at or above 1/2) and ``skr_per_second`` is zeroed accordingly.
    """

    q_tot: float
    e_tot: float
    p_m: float
    a_fraction: float
    skr_per_pulse: float
    skr_per_second: float
    clamped: bool


def binary_entropy(x: float) -> float:
    """Binary entropy H2(x) in bits, with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy needs x in [0, 1], got {x!r}")
    if x < _H2_LO or x > _H2_HI:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _bound_terms(
    q_tot: float, e_tot: float, p_m: float, f_ec: float
) -> tuple[float, float, bool]:
    """Shared core of the bound: returns (skr_per_pulse, A, clamped)."""
    if q_tot <= 0.0:
        raise DomainError("total gain must be positive to bound a key rate")
    q_low = q_tot - p_m
    e_low = e_tot * q_tot / q_low if q_low > 0.0 else 1.0
    e_clip = min(max(e_low, 0.0), 1.0)
    clamped = q_low <= 0.0 or e_clip >= 0.5 or e_clip != e_low
    skr = 0.5 * (
        q_low * (1.0 - binary_entropy(e_clip)) - f_ec * q_tot * binary_entropy(e_tot)
    )
    a_fraction = min(max(q_low / q_tot, 0.0), 1.0)
    return skr, a_fraction, clamped


def _entropy_slope(x: float, dx: float) -> float:
    """Change of H2(x) for a change dx of x, with dH2/dx = log2((1 - x) / x);
    x below the cutoff of ``binary_entropy``, an underflow, counts as at it."""
    return dx * math.log2((1.0 - x) / max(x, _H2_LO))


def _skr_rising(dist: PhotonNumberDistribution, eta: float, det: DetectorModel) -> bool:
    """Whether the clamped SKR still rises as the laser mean photon number grows.

    The arrival probability A has dA/dmu = eta (1 - A), so Q_tot has slope
    eta (1 - Q_tot). Convolution with Poisson(mu) gives dp_k/dmu =
    p_(k-1) - p_k, so the multiphoton probability has the telescoped slope
    dp_m/dmu = p1, the single-photon probability.
    """
    try:
        q_tot, e_tot = totals(dist, eta, det)
    except DomainError:  # no clicks yet: laser light brings the first
        return True
    d_q_tot = eta * (1.0 - q_tot)
    p_m, p1 = multiphoton_probability(dist), single_photon_probability(dist)
    return _bound_rising(q_tot, e_tot, p_m, d_q_tot, p1, det)


def _qd_skr_rising(qd: QdSourceParams, eta: float, det: DetectorModel) -> bool:
    """Whether the clamped SKR of the bare quantum dot still rises with its
    collected brightness b.

    With p1 + p2 = b, the arrival probability is A = b eta + p2 eta (1 - eta),
    and the root p2 of (b + p2)^2 g2 = 2 p2 has dp2/db = 1/s - 1 with
    s = sqrt(1 - 2 g2 b), written as 2 g2 b / (s (1 + s)) so it does not cancel.
    """
    dist = qd_distribution(qd)
    try:
        q_tot, e_tot = totals(dist, eta, det)
    except DomainError:  # no clicks yet: a brighter dot brings the first
        return True
    g2_b = qd.g2 * qd.brightness
    s = math.sqrt(1.0 - 2.0 * g2_b)
    d_p2 = 2.0 * g2_b / (s * (1.0 + s))
    d_q_tot = (1.0 - det.y0) * eta * (1.0 + (1.0 - eta) * d_p2)
    return _bound_rising(q_tot, e_tot, multiphoton_probability(dist), d_q_tot, d_p2, det)


def _bound_rising(
    q_tot: float, e_tot: float, p_m: float, d_q_tot: float, d_p_m: float, det: DetectorModel
) -> bool:
    """Whether the clamped SKR rises along a change of the source that moves
    Q_tot by d_q_tot and p_m by d_p_m. Errors E_tot Q_tot = e0 y0 + e_d A move
    with A alone. Where the bound is clamped or not positive, the key is nearer
    when the single-photon error rate e_low falls; elsewhere the predicate is
    the sign of the SKR's slope.
    """
    q_low = q_tot - p_m
    if q_low <= 0.0:
        return False
    skr, _, clamped = _bound_terms(q_tot, e_tot, p_m, det.f_ec)
    d_errors = det.e_d * d_q_tot / (1.0 - det.y0)
    d_q_low = d_q_tot - d_p_m
    e_low = e_tot * q_tot / q_low
    d_e_low = (d_errors - e_low * d_q_low) / q_low
    if clamped or skr <= 0.0:
        return d_e_low < 0.0
    d_e_tot = (d_errors - e_tot * d_q_tot) / q_tot
    slope = (
        d_q_low * (1.0 - binary_entropy(e_low)) - q_low * _entropy_slope(e_low, d_e_low)
        - det.f_ec * (d_q_tot * binary_entropy(e_tot) + q_tot * _entropy_slope(e_tot, d_e_tot))
    )
    return slope > 0.0


def gllp_skr(
    dist: PhotonNumberDistribution, channel: ChannelModel, det: DetectorModel
) -> SkrReport:
    """Bound the SKR of a source distribution over a channel and detector."""
    q_tot, e_tot = totals(dist, channel.transmissivity, det)
    p_m = multiphoton_probability(dist)
    skr, a_fraction, clamped = _bound_terms(q_tot, e_tot, p_m, det.f_ec)
    per_second = 0.0 if clamped else max(skr, 0.0) * det.rep_rate_hz
    return SkrReport(q_tot, e_tot, p_m, a_fraction, skr, per_second, clamped)


def gllp_skr_or_no_key(
    dist: PhotonNumberDistribution, channel: ChannelModel, det: DetectorModel
) -> SkrReport:
    """``gllp_skr``, except that a cell with zero total gain (no photon can
    arrive and no dark count fires) is a clamped report of no key, with
    Q_tot = E_tot = A = SKR = 0, instead of an error."""
    try:
        return gllp_skr(dist, channel, det)
    except DomainError:  # zero total gain: nothing to distill
        return SkrReport(0.0, 0.0, multiphoton_probability(dist), 0.0, 0.0, 0.0, True)


def skr_from_observables(
    p_click: float,
    error_rate: float,
    a_fraction: float,
    f_ec: float = 1.2,
    rep_rate_hz: float | None = None,
) -> SkrReport:
    """Bound the SKR from measured quantities, in the form

        SKR >= p_click/2 ( A (1 - H2(e/A)) - f_EC H2(e) )

    with A the single-photon component of the clicks. Entry point for
    users with experimental data instead of a source model; it is the
    source-model bound with Q_tot = p_click and p_m = (1 - A) p_click.
    """
    if p_click <= 0.0 or p_click > 1.0:
        raise DomainError(f"p_click must be in (0, 1], got {p_click!r}")
    if not 0.0 <= error_rate <= 1.0:
        raise DomainError(f"error rate must be in [0, 1], got {error_rate!r}")
    if not 0.0 <= a_fraction <= 1.0:
        raise DomainError(f"single-photon component must be in [0, 1], got {a_fraction!r}")
    p_m = (1.0 - a_fraction) * p_click
    skr, _, clamped = _bound_terms(p_click, error_rate, p_m, f_ec)
    per_second = 0.0
    if rep_rate_hz is not None and not clamped:
        per_second = max(skr, 0.0) * rep_rate_hz
    return SkrReport(p_click, error_rate, p_m, a_fraction, skr, per_second, clamped)
