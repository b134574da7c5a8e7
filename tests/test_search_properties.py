"""Properties that the optimizer and the three advantage searches rely on.

``optimize_mu_laser`` bisects on the sign of the SKR slope in mu, which
finds the optimum only if the clamped SKR is unimodal in mu, and it breaks
ties toward mu = 0; its result must match a dense grid of admixtures. The
searches bisect predicates that must be monotone: "mixing helps" must fail
beyond the crossover attenuation, and beyond the unconditional brightness;
the bare-dot SKR that the laser-beat search compares against the best laser
must be unimodal in brightness, since the search bisects below its peak; it
does not fall as the brightness rises for sources as built, but not
everywhere. The unconditional search asks "mixing helps" at 0 dB only,
which is exact when mixing that helps at some loss also helps at less.
Where the bare dot has a key, "mixing helps" reads only the slope at mu = 0,
so it must agree with the optimizer's own answer.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridqkd import ChannelModel, DetectorModel, QdSourceParams, optimize
from hybridqkd.optimize import (
    _boundary,
    _clamped_skr,
    _mixes,
    crossover_attenuation,
    laser_beat_brightness,
    optimize_mu_laser,
    qd_only_skr,
    unconditional_advantage_brightness,
)
from hybridqkd.photon_stats import MU_MAX, hybrid_distribution, qd_distribution
from hybridqkd.security import SkrReport, _qd_skr_rising

brightnesses = st.floats(0.0, 1.0)
# qd_distribution computes p2 ~ g2 b^2 / 2 with an absolute rounding error
# of about 2e-16 / g2; below g2 = 1e-3 that can exceed b by more than the
# 1e-12 that distributions tolerate, and qd_distribution raises
# (test_small_g2_two_photon_weight in test_photon_stats.py).
g2s = st.one_of(st.just(0.0), st.floats(1e-3, 0.45))
# Slack for that rounding error in the bare-dot SKR: 2e-16 / 1e-3, rounded up.
P2_NOISE = 1e-12
setups = st.builds(
    lambda e_d, y0, eta0: (ChannelModel(eta0=eta0), DetectorModel(e_d=e_d, y0=y0)),
    st.floats(0.0, 0.1),
    st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)),
    st.floats(0.05, 1.0),
)
attenuations = st.floats(0.0, 40.0)
fractions = st.floats(0.0, 1.0)


def clamped_skr(qd, mu, ch, det):
    return _clamped_skr(hybrid_distribution(qd_distribution(qd), mu), ch, det)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(brightnesses, g2s, setups, attenuations)
def test_slope_at_zero_agrees_with_the_optimizer(b, g2, setup, db):
    # Where the bare dot has a key, "mixing helps" is the slope at mu = 0
    # alone; the optimizer must keep mu > 0 exactly there.
    ch, det = setup
    qd = QdSourceParams(b, g2)
    assert _mixes(qd, db, ch, det) == (optimize_mu_laser(qd, db, ch, det).mu_laser_opt > 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(brightnesses, g2s, setups, attenuations, fractions)
def test_mixing_that_helps_at_some_loss_helps_at_less(b, g2, setup, db, fraction):
    ch, det = setup
    qd = QdSourceParams(b, g2)
    assume(_mixes(qd, db, ch, det))
    assert _mixes(qd, fraction * db, ch, det)
    assert _mixes(qd, 0.0, ch, det)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(brightnesses, fractions, g2s, setups)
def test_mixing_at_0db_never_starts_as_brightness_rises(b, fraction, g2, setup):
    ch, det = setup
    dimmer = fraction * b
    if _mixes(QdSourceParams(b, g2), 0.0, ch, det):
        assert _mixes(QdSourceParams(dimmer, g2), 0.0, ch, det)


# Single-photon sources as built: g2 at most 0.05, at least half of the light
# collected, and e_d at most 0.05. Outside that the bare-dot SKR can peak
# below brightness 1, as the next two tests show.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(brightnesses, fractions, st.one_of(st.just(0.0), st.floats(1e-3, 0.05)),
       st.floats(0.0, 0.05), st.floats(0.0, 1e-4), st.floats(0.5, 1.0))
def test_qd_only_skr_at_0db_does_not_fall_with_brightness(b, fraction, g2, e_d, y0, eta0):
    ch, det = ChannelModel(eta0=eta0), DetectorModel(e_d=e_d, y0=y0)
    dimmer = qd_only_skr(QdSourceParams(fraction * b, g2), 0.0, ch, det)
    brighter = qd_only_skr(QdSourceParams(b, g2), 0.0, ch, det)
    assert brighter >= dimmer * (1.0 - 1e-12) - P2_NOISE


# A large g2 against eta0, where the two-photon part outgrows the gain, and
# an e_d close to where the key dies.
@pytest.mark.parametrize("g2, e_d, eta0", [(0.3, 0.0, 0.1), (0.031, 0.094, 1.0)])
def test_qd_only_skr_can_peak_below_full_brightness(g2, e_d, eta0):
    ch, det = ChannelModel(eta0=eta0), DetectorModel(e_d=e_d, y0=0.0)
    skr = [qd_only_skr(QdSourceParams(b, g2), 0.0, ch, det) for b in (0.5, 1.0)]
    assert skr[1] < skr[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g2s, setups, attenuations)
def test_qd_only_skr_is_unimodal_in_brightness(g2, setup, db):
    # It rises to its largest value on a grid and falls beyond it, and the
    # root of its slope in brightness is where it peaks.
    ch, det = setup
    grid = np.linspace(0.0, 1.0, 201)
    skr = np.array([qd_only_skr(QdSourceParams(b, g2), db, ch, det) for b in grid])
    top = int(np.argmax(skr))
    slack = 1e-12 * skr[top] + P2_NOISE
    assert np.all(np.diff(skr[: top + 1]) >= -slack)
    assert np.all(np.diff(skr[top:]) <= slack)
    eta = ch.with_attenuation(db).transmissivity
    b_peak = _boundary(lambda b: _qd_skr_rising(QdSourceParams(b, g2), eta, det), 0.0, 1.0)
    assert qd_only_skr(QdSourceParams(b_peak, g2), db, ch, det) >= skr[top] - slack


# Here the bare dot with g2 = 0.1 beats the best laser from brightness
# about 0.02 to 0.76, but not at 1.
WINDOW = (ChannelModel(eta0=0.1), DetectorModel(e_d=0.05, y0=1e-5))


def test_laser_beat_predicate_can_turn_back():
    ch, det = WINDOW
    laser = optimize_mu_laser(QdSourceParams(0.0, 0.0), 0.0, ch, det).skr_opt
    wins = [qd_only_skr(QdSourceParams(b, 0.1), 0.0, ch, det) > laser for b in (0.0, 0.5, 1.0)]
    assert wins == [False, True, False]


def test_laser_beat_brightness_finds_a_window_of_wins():
    ch, det = WINDOW
    beat = laser_beat_brightness(0.1, det, ch)
    assert beat <= 0.5
    laser = optimize_mu_laser(QdSourceParams(0.0, 0.0), 0.0, ch, det).skr_opt
    below = math.nextafter(beat, 0.0)
    assert qd_only_skr(QdSourceParams(below, 0.1), 0.0, ch, det) <= laser
    assert qd_only_skr(QdSourceParams(beat, 0.1), 0.0, ch, det) > laser


def test_laser_beat_brightness_is_one_without_a_key():
    # e_d = 0.2 leaves no key for either source; the bare-dot SKR peaks far
    # below brightness 1, and the search must not report that peak
    assert laser_beat_brightness(0.1, DetectorModel(e_d=0.2, y0=1e-5), ChannelModel()) == 1.0


# Admixtures from 1e-9 up: the optimum can lie far below the 1e-4 that
# the unimodality test starts at, as for the bare laser at high loss.
DENSE_MU = np.concatenate(([0.0], np.geomspace(1e-9, MU_MAX, 3000)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(brightnesses, g2s, setups, st.floats(0.0, 60.0))
def test_optimum_beats_a_dense_grid_and_ties_give_mu_zero(b, g2, setup, db):
    ch, det = setup
    qd = QdSourceParams(b, g2)
    result = optimize_mu_laser(qd, db, ch, det)
    ch = ch.with_attenuation(db)
    best = max(clamped_skr(qd, mu, ch, det) for mu in DENSE_MU)
    assert result.skr_opt >= (1.0 - 1e-12) * best
    if result.skr_opt == 0.0:
        assert result.mu_laser_opt == 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0))
def test_constant_objective_gives_mu_zero(value):
    report = SkrReport(1.0, 0.0, 0.0, 1.0, value, 0.0, False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "gllp_skr", lambda dist, ch, det: report)
        result = optimize_mu_laser(
            QdSourceParams(0.1, 0.01), 0.0, ChannelModel(), DetectorModel(e_d=0.0, y0=0.0)
        )
    assert result.mu_laser_opt == 0.0
    assert result.skr_opt == value


# Smallest nonzero admixture of the unimodality grid.
UNIMODAL_MU_MIN = 1e-4


@settings(max_examples=60, deadline=None, derandomize=True)
@given(brightnesses, g2s, setups, attenuations)
def test_clamped_skr_is_unimodal_in_mu(b, g2, setup, db):
    ch, det = setup
    qd = QdSourceParams(b, g2)
    ch = ch.with_attenuation(db)
    mus = np.concatenate(([0.0], np.geomspace(UNIMODAL_MU_MIN, MU_MAX, 400)))
    skr = np.array([clamped_skr(qd, mu, ch, det) for mu in mus])
    peak = int(np.argmax(skr))
    slack = 1e-12 * skr[peak]  # rounding on flat stretches
    assert np.all(np.diff(skr[: peak + 1]) >= -slack)
    assert np.all(np.diff(skr[peak:]) <= slack)


def _mixing_improves_somewhere(brightness, g2, channel, det):
    """The unconditional search's former predicate: mixing helps at one of
    four probe attenuations, not only at 0 dB."""
    qd = QdSourceParams(brightness, g2)
    return any(_mixes(qd, db, channel, det) for db in (0.0, 0.5, 1.0, 2.0))


def four_probe_unconditional_brightness(g2, det, channel):
    if not _mixing_improves_somewhere(0.0, g2, channel, det):
        return 0.0
    if _mixing_improves_somewhere(1.0, g2, channel, det):
        return 1.0
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _mixing_improves_somewhere(mid, g2, channel, det):
            lo = mid
        else:
            hi = mid
    return hi


@settings(max_examples=10, deadline=None, derandomize=True)
@given(g2s, setups)
def test_unconditional_brightness_matches_four_probe_search(g2, setup):
    ch, det = setup
    expected = four_probe_unconditional_brightness(g2, det, ch)
    assert unconditional_advantage_brightness(g2, det, ch) == expected


def _first_nonpositive(fn, lo, hi):
    """First float in [lo, hi] where fn, positive at lo, is not positive; hi
    when fn stays positive there. Bisected to adjacent floats."""
    if fn(hi) > 0.0:
        return hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _laser_optimum(eta):
    """mu* with eta e^(-eta mu) = mu e^(-mu), the optimal mu of the noiseless
    laser: Newton on log(mu) - (1 - eta) mu - log(eta), which is concave and
    not positive at mu = eta, so the steps rise to the root from below."""
    mu = eta
    for _ in range(100):
        step = (math.log(mu) - (1.0 - eta) * mu - math.log(eta)) / (1.0 / mu - (1.0 - eta))
        if step == 0.0:
            break
        mu -= step
    return mu


# Noiseless detection (e_d = y0 = 0), where the three thresholds are closed
# forms, as the README's "Advantage thresholds in the noiseless limit" says.
# The SKR is then (A - p_m) / 2, and at 0 dB (eta = eta0) its slope at
# mu = 0 is eta (1 - eta f1 - eta (2 - eta) f2) - f1.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(g2s, st.floats(0.05, 1.0), st.floats(0.01, 0.45))
def test_noiseless_thresholds_match_closed_forms(g2, eta0, b):
    ch, det = ChannelModel(eta0=eta0), DetectorModel(e_d=0.0, y0=0.0)

    def slope_at_zero(brightness):
        f1, f2 = qd_distribution(QdSourceParams(brightness, g2)).f[1:].tolist()
        return eta0 * (1.0 - eta0 * f1 - eta0 * (2.0 - eta0) * f2) - f1

    unconditional = _first_nonpositive(slope_at_zero, 0.0, 1.0)
    found = unconditional_advantage_brightness(g2, det, ch)
    assert found == pytest.approx(unconditional, abs=1e-12)

    # At g2 = 0 mixing helps above eta_x = (1 - sqrt(1 - 4 b^2)) / (2 b),
    # written here without the cancellation.
    eta_x = 2.0 * b / (1.0 + math.sqrt(1.0 - 4.0 * b * b))
    crossover = crossover_attenuation(QdSourceParams(b, 0.0), ch, det)
    if eta0 <= eta_x:
        assert crossover is None
    else:
        assert crossover == pytest.approx(10.0 * math.log10(eta0 / eta_x), abs=1e-9)

    # At g2 = 0 the bare dot's SKR is eta0 b / 2, so it beats the best laser
    # above (A - p_m) / eta0 at the laser optimum.
    mu = _laser_optimum(eta0)
    a, p_m = -math.expm1(-eta0 * mu), 1.0 - math.exp(-mu) * (1.0 + mu)
    assert laser_beat_brightness(0.0, det, ch) == pytest.approx((a - p_m) / eta0, abs=1e-12)
