"""SKR maximization over the laser admixture and advantage-regime boundaries.

Every term of the GLLP bound is a closed form in the laser mean photon number
mu, and so is its slope. The optimal admixture and the advantage thresholds
are roots, bisected down to adjacent floats. Evaluations run serially, so
every sweep and bisection is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelModel, DetectorModel, db_to_km
from .errors import DomainError
from .photon_stats import (
    MU_MAX,
    PhotonNumberDistribution,
    QdSourceParams,
    g2_of,
    hybrid_distribution,
    mean_photon_number,
    qd_distribution,
)
from .security import SkrReport, _qd_skr_rising, _skr_rising, gllp_skr

DB_MAX = 60.0


@dataclass(frozen=True)
class OptimizationResult:
    """Best laser admixture at one attenuation."""

    attenuation_db: float
    mu_laser_opt: float
    skr_opt: float
    mix_ratio: float
    purity_at_opt: float


@dataclass(frozen=True)
class ScanPoint:
    """One (attenuation, laser admixture) cell of a sweep."""

    attenuation_db: float
    km: float
    mu_laser: float
    mu_mixed: float
    mix_ratio: float
    g2_hybrid: float
    report: SkrReport


def _clamped_skr(
    dist: PhotonNumberDistribution, channel: ChannelModel, det: DetectorModel
) -> float:
    """SKR bound clamped to 0 where it is meaningless or where there are no clicks."""
    try:
        report = gllp_skr(dist, channel, det)
    except DomainError:  # zero total gain: nothing to distill
        return 0.0
    if report.clamped:
        return 0.0
    return max(report.skr_per_pulse, 0.0)


def optimize_mu_laser(
    qd: QdSourceParams,
    attenuation_db: float,
    channel: ChannelModel,
    det: DetectorModel,
) -> OptimizationResult:
    """Maximize the SKR over the laser mean photon number in [0, MU_MAX].

    The clamped SKR is unimodal in mu (tests/test_search_properties.py checks
    this), so its maximum is where it stops rising, found by bisection to
    adjacent floats. Ties (including the no-key regime where every admixture
    scores zero) resolve toward mu_laser = 0, preferring single-photon
    purity: mu > 0 is kept only when it strictly beats mu = 0.
    """
    ch = channel.with_attenuation(attenuation_db)
    base = qd_distribution(qd)
    eta = ch.transmissivity

    def rising(mu: float) -> bool:
        return _skr_rising(hybrid_distribution(base, mu), eta, det)

    mu_opt, skr_opt = 0.0, _clamped_skr(base, ch, det)
    if rising(0.0):
        mu = _last_true(rising, 0.0, MU_MAX)
        skr = _clamped_skr(hybrid_distribution(base, mu), ch, det)
        if skr > skr_opt:
            mu_opt, skr_opt = mu, skr

    mixed = hybrid_distribution(base, mu_opt)
    mu_qd = mean_photon_number(base)
    mu_mixed = mu_qd + mu_opt
    ratio = mu_opt / mu_mixed if mu_mixed > 0.0 else 0.0
    purity = 1.0 - g2_of(mixed) if mu_mixed > 0.0 else 1.0
    return OptimizationResult(attenuation_db, mu_opt, skr_opt, ratio, purity)


def qd_only_skr(qd: QdSourceParams, db: float, channel: ChannelModel, det: DetectorModel) -> float:
    """Clamped SKR of the bare quantum-dot source; 0 when it gives no clicks."""
    return _clamped_skr(qd_distribution(qd), channel.with_attenuation(db), det)


def _mixes(qd: QdSourceParams, db: float, channel: ChannelModel, det: DetectorModel) -> bool:
    """Whether mixing in laser light improves the SKR at this attenuation: the
    sign of the SKR slope at mu = 0 where the bare dot has a key (the clamped
    SKR is unimodal in mu), else whether some admixture makes a key."""
    base = qd_distribution(qd)
    ch = channel.with_attenuation(db)
    if _clamped_skr(base, ch, det) > 0.0:
        return _skr_rising(base, ch.transmissivity, det)
    return optimize_mu_laser(qd, db, channel, det).mu_laser_opt > 0.0


def _last_true(pred, lo: float, hi: float) -> float:
    """Bisect a predicate that holds at lo and fails at hi until the two are
    adjacent floats; returns hi, the first float known to fail."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _boundary(pred, lo: float, hi: float) -> float:
    """First float in [lo, hi] at which pred stops holding: lo when it fails
    already at lo, hi when it still holds at hi."""
    if not pred(lo):
        return lo
    if pred(hi):
        return hi
    return _last_true(pred, lo, hi)


def crossover_attenuation(
    qd: QdSourceParams, channel: ChannelModel, det: DetectorModel
) -> float | None:
    """Smallest attenuation above which pure single-photon statistics are
    optimal: the root in db of the SKR slope at mu = 0. None when mixing
    never helps (zero everywhere) or when laser light helps everywhere a key
    exists at all.
    """
    db = _boundary(lambda db: _mixes(qd, db, channel, det), 0.0, DB_MAX)
    # A genuine crossover needs a single-photon key at the boundary;
    # otherwise the admixture just died together with the key itself.
    if db in (0.0, DB_MAX) or qd_only_skr(qd, db, channel, det) <= 0.0:
        return None
    return db


def unconditional_advantage_brightness(
    g2: float, det: DetectorModel, channel: ChannelModel
) -> float:
    """Smallest collected brightness at which mixing in laser light no longer
    improves the SKR at any attenuation: the root in brightness of the SKR
    slope at mu = 0, at 0 dB.

    The decision is taken at 0 dB alone: the optimal admixture shrinks as
    loss grows, so mixing that helps at some attenuation also helps at every
    smaller one, and at 0 dB above all.
    """
    return _boundary(lambda b: _mixes(QdSourceParams(b, g2), 0.0, channel, det), 0.0, 1.0)


def laser_beat_brightness(
    g2: float, det: DetectorModel, channel: ChannelModel
) -> float:
    """Smallest collected brightness at which the bare quantum-dot SKR exceeds
    the best laser-only SKR at zero applied attenuation; 1 when none does.

    The bare-dot SKR is unimodal in brightness (tests/test_search_properties.py
    checks this): it rises up to B_peak, the root of its slope in brightness,
    and falls beyond. So the dot wins, if anywhere, on a window around B_peak,
    whose lower edge is bisected in [0, B_peak].
    """
    laser_best = optimize_mu_laser(QdSourceParams(0.0, 0.0), 0.0, channel, det).skr_opt
    eta = channel.with_attenuation(0.0).transmissivity
    b_peak = _boundary(lambda b: _qd_skr_rising(QdSourceParams(b, g2), eta, det), 0.0, 1.0)

    def qd_loses(b: float) -> bool:
        return qd_only_skr(QdSourceParams(b, g2), 0.0, channel, det) <= laser_best

    if b_peak < 1.0 and qd_loses(b_peak):  # at b_peak = 1 the bisection answers 1 itself
        return 1.0
    return _boundary(qd_loses, 0.0, b_peak)


def skr_scan(
    qd: QdSourceParams,
    mu_laser_list,
    db_grid,
    channel: ChannelModel,
    det: DetectorModel,
) -> list[ScanPoint]:
    """Evaluate the SKR bound on the Cartesian grid attenuation x admixture."""
    mu_laser_list = list(mu_laser_list)
    db_grid = list(db_grid)
    if not mu_laser_list or not db_grid:
        raise DomainError("scan grids must be nonempty")
    base = qd_distribution(qd)
    mu_qd = mean_photon_number(base)
    rows = []
    for db in db_grid:
        ch = channel.with_attenuation(db)
        km = db_to_km(db, channel.fiber_alpha)
        for mu in mu_laser_list:
            mixed = hybrid_distribution(base, mu)
            report = gllp_skr(mixed, ch, det)
            mu_mixed = mu_qd + mu
            ratio = mu / mu_mixed if mu_mixed > 0.0 else 0.0
            g2_mixed = g2_of(mixed) if mu_mixed > 0.0 else 0.0
            rows.append(ScanPoint(db, km, mu, mu_mixed, ratio, g2_mixed, report))
    return rows
