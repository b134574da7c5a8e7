"""The optimal laser admixture and the advantage thresholds against 40-digit roots.

The GLLP bound is written out again in mpmath, independently of the library;
its slope in mu is differentiated numerically at 40 digits. The optimal
admixture is the root of that slope, the crossover and the unconditional
brightness are roots of the slope at mu = 0, and the laser-beat brightness is
the root of the bare-dot SKR minus the best laser SKR.
"""
import math

import pytest

from hybridqkd import (
    ChannelModel,
    DetectorModel,
    QdSourceParams,
    crossover_attenuation,
    laser_beat_brightness,
    optimize_mu_laser,
    unconditional_advantage_brightness,
)

mp = pytest.importorskip("mpmath")

TABLE1 = dict(brightness=0.0409, g2=0.012, e_d=0.008, y0=196 / 81.96e6, eta0=0.9)


def skr(mu, brightness, g2, e_d, y0, eta, e0=0.5, f_ec=1.2):
    """Unclamped GLLP bound at 40 digits."""
    b, g2 = mp.mpf(brightness), mp.mpf(g2)
    p2 = g2 * b**2 / (1 - g2 * b + mp.sqrt(1 - 2 * g2 * b))
    f0, f1, f2 = 1 - b, b - p2, p2
    x = 1 - mp.mpf(eta)
    arrive = 1 - (f0 + f1 * x + f2 * x * x) * mp.exp(-mu * mp.mpf(eta))
    q_tot = y0 + (1 - mp.mpf(y0)) * arrive
    errors = e0 * mp.mpf(y0) + mp.mpf(e_d) * arrive
    q_low = q_tot - (1 - mp.exp(-mu) * (f0 + f1 + f0 * mu))

    def h2(t):
        return 0 if t == 0 else -t * mp.log(t, 2) - (1 - t) * mp.log(1 - t, 2)

    return (q_low * (1 - h2(errors / q_low)) - f_ec * q_tot * h2(errors / q_tot)) / 2


@pytest.mark.parametrize("db", [0.0, 2.0, 5.0, 10.0, 12.5])
def test_table1_optimum_is_the_root_of_the_slope(db):
    params = dict(TABLE1)
    eta0 = params.pop("eta0")
    eta = eta0 * 10.0 ** (-db / 10.0)
    result = optimize_mu_laser(
        QdSourceParams(params["brightness"], params["g2"]), db,
        ChannelModel(eta0=eta0), DetectorModel(e_d=params["e_d"], y0=params["y0"]),
    )
    mu = result.mu_laser_opt
    with mp.workdps(40):
        def slope(m):
            return mp.diff(lambda t: skr(t, eta=eta, **params), m)

        root = mp.findroot(slope, (0.5 * mu, 2.0 * mu), solver="anderson")
        assert slope(0.5 * mu) > 0 > slope(2.0 * mu)
        assert abs(mu - root) <= 1e-9 * root
        assert result.skr_opt == pytest.approx(float(skr(root, eta=eta, **params)), rel=1e-12)


def test_ideal_laser_optimum_is_one_photon_per_pulse():
    result = optimize_mu_laser(
        QdSourceParams(0.0, 0.0), 0.0, ChannelModel(), DetectorModel(e_d=0.0, y0=0.0)
    )
    assert result.mu_laser_opt == pytest.approx(1.0, abs=1e-12)
    assert result.skr_opt == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


def test_ideal_laser_optimum_at_60db_is_the_transmissivity():
    # With no errors the bound is (1 - e^(-mu eta) - p_m) / 2, whose slope
    # vanishes at mu e^(-mu (1 - eta)) = eta: mu = eta (1 + eta + ...).
    eta = 1e-6
    result = optimize_mu_laser(
        QdSourceParams(0.0, 0.0), 60.0, ChannelModel(), DetectorModel(e_d=0.0, y0=0.0)
    )
    with mp.workdps(40):
        z = mp.mpf(eta) * (1 - mp.mpf(eta))
        root = -mp.lambertw(-z).real / (1 - mp.mpf(eta))
        assert result.mu_laser_opt == pytest.approx(eta, rel=2e-6)
        assert result.mu_laser_opt == pytest.approx(float(root), rel=1e-12)
        assert result.skr_opt == pytest.approx(float(skr(root, 0.0, 0.0, 0.0, 0.0, eta)), rel=1e-9)


def mu_slope_at_0(brightness, g2, e_d, y0, eta):
    """dSKR/dmu at mu = 0; mixing in laser light helps where it is positive."""
    return mp.diff(lambda m: skr(m, brightness, g2, e_d, y0, eta), 0)


def table1_setup():
    params = dict(TABLE1)
    eta0 = params.pop("eta0")
    return params, eta0, ChannelModel(eta0=eta0), DetectorModel(e_d=params["e_d"], y0=params["y0"])


def test_table1_crossover_is_the_root_of_the_slope_at_zero():
    params, eta0, channel, det = table1_setup()
    crossing = crossover_attenuation(
        QdSourceParams(params["brightness"], params["g2"]), channel, det
    )
    with mp.workdps(40):
        def slope(db):
            return mu_slope_at_0(eta=eta0 * mp.mpf(10) ** (-db / 10), **params)

        assert slope(12.5) > 0 > slope(13.0)
        root = mp.findroot(slope, (12.5, 13.0), solver="anderson")
    assert float(root) == pytest.approx(12.77716729371164, rel=1e-13)
    assert crossing == pytest.approx(float(root), rel=1e-12)


def test_table1_unconditional_brightness_is_the_root_of_the_slope_at_zero():
    params, eta0, channel, det = table1_setup()
    threshold = unconditional_advantage_brightness(params["g2"], det, channel)
    g2, e_d, y0 = params["g2"], params["e_d"], params["y0"]
    with mp.workdps(40):
        def slope(b):
            return mu_slope_at_0(b, g2, e_d, y0, eta0)

        assert slope(0.45) > 0 > slope(0.47)
        root = mp.findroot(slope, (0.45, 0.47), solver="anderson")
    assert float(root) == pytest.approx(0.457565235741583, rel=1e-13)
    assert threshold == pytest.approx(float(root), rel=1e-12)


def test_table1_laser_beat_brightness_is_where_the_dot_meets_the_best_laser():
    params, eta0, channel, det = table1_setup()
    beat = laser_beat_brightness(params["g2"], det, channel)
    g2, e_d, y0 = params["g2"], params["e_d"], params["y0"]
    mu = optimize_mu_laser(QdSourceParams(0.0, 0.0), 0.0, channel, det).mu_laser_opt
    with mp.workdps(40):
        def laser(m):
            return skr(m, 0.0, 0.0, e_d, y0, eta0)

        mu_root = mp.findroot(lambda m: mp.diff(laser, m), (0.5 * mu, 2.0 * mu), solver="anderson")
        laser_best = laser(mu_root)

        def dot_minus_laser(b):
            return skr(0, b, g2, e_d, y0, eta0) - laser_best

        assert dot_minus_laser(0.3) < 0 < dot_minus_laser(0.35)
        root = mp.findroot(dot_minus_laser, (0.3, 0.35), solver="anderson")
    assert float(root) == pytest.approx(0.325958281834746, rel=1e-13)
    assert beat == pytest.approx(float(root), rel=1e-12)


def test_ideal_thresholds_are_exact():
    # With no errors a pure dot gives B/2 and the slope at mu = 0 is
    # (1 - B) - B, so mixing helps exactly below B = 1/2; the best laser
    # gives e^(-1)/2 at mu = 1.
    channel, det = ChannelModel(), DetectorModel(e_d=0.0, y0=0.0)
    assert unconditional_advantage_brightness(0.0, det, channel) == 0.5
    assert laser_beat_brightness(0.0, det, channel) == pytest.approx(math.exp(-1.0), abs=1e-12)
