"""Properties that the optimizer and the three advantage searches rely on.

``optimize_mu_laser`` bisects on the sign of the SKR slope in mu, which
finds the optimum only if the clamped SKR is unimodal in mu, and it breaks
ties toward mu = 0; its result must match a dense grid of admixtures. The
searches bisect predicates that must be monotone: "mixing helps" must fail
beyond the crossover attenuation, and beyond the unconditional brightness;
the bare-dot SKR that the laser-beat search compares against the best laser
must not fall as the brightness rises, which holds for sources as built but
not everywhere. The unconditional search asks "mixing helps" at 0 dB only,
which is exact when mixing that helps at some loss also helps at less.
Where the bare dot has a key, "mixing helps" reads only the slope at mu = 0,
so it must agree with the optimizer's own answer.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridqkd import ChannelModel, DetectorModel, QdSourceParams, optimize
from hybridqkd.optimize import (
    _clamped_skr,
    _mixes,
    laser_beat_brightness,
    optimize_mu_laser,
    qd_only_skr,
    unconditional_advantage_brightness,
)
from hybridqkd.photon_stats import MU_MAX, hybrid_distribution, qd_distribution
from hybridqkd.security import SkrReport

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


# Here the bare dot with g2 = 0.1 beats the best laser from brightness
# about 0.03 to 0.76, but not at 1.
WINDOW = (ChannelModel(eta0=0.1), DetectorModel(e_d=0.05, y0=1e-5))


def test_laser_beat_predicate_can_turn_back():
    ch, det = WINDOW
    laser = optimize_mu_laser(QdSourceParams(0.0, 0.0), 0.0, ch, det).skr_opt
    wins = [qd_only_skr(QdSourceParams(b, 0.1), 0.0, ch, det) > laser for b in (0.0, 0.5, 1.0)]
    assert wins == [False, True, False]


@pytest.mark.xfail(strict=True, reason="the search tests brightness 1 first and reports 1")
def test_laser_beat_brightness_finds_a_window_of_wins():
    ch, det = WINDOW
    assert laser_beat_brightness(0.1, det, ch) <= 0.5


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
