from itertools import product

import numpy as np
import pytest

from hybridqkd import (
    ChannelModel,
    DetectorModel,
    DomainError,
    PhotonNumberDistribution,
    db_to_km,
    db_to_transmissivity,
    error_k,
    qd_distribution,
    QdSourceParams,
    totals,
    yield_k,
)


def detector(e_d=0.008, y0=2.39e-6, e0=0.5):
    return DetectorModel(e_d=e_d, y0=y0, e0=e0)


class TestConversions:
    @pytest.mark.parametrize("db,eta", [(0.0, 1.0), (10.0, 0.1), (30.0, 0.001)])
    def test_db_to_transmissivity(self, db, eta):
        assert db_to_transmissivity(db) == pytest.approx(eta, rel=1e-12)

    def test_negative_db_rejected(self):
        with pytest.raises(DomainError):
            db_to_transmissivity(-1.0)

    def test_db_to_km(self):
        assert db_to_km(0.0, 0.21) == 0.0
        assert db_to_km(21.0, 0.21) == pytest.approx(100.0, rel=1e-12)
        assert db_to_km(30.0, 0.21) == pytest.approx(142.857142857, rel=1e-9)

    def test_channel_composition(self):
        ch = ChannelModel(attenuation_db=10.0, eta0=0.5)
        assert ch.transmissivity == pytest.approx(0.05, rel=1e-12)
        assert ch.with_attenuation(20.0).transmissivity == pytest.approx(5e-3, rel=1e-12)

    def test_channel_validation(self):
        with pytest.raises(DomainError):
            ChannelModel(attenuation_db=-1.0)
        with pytest.raises(DomainError):
            ChannelModel(eta0=0.0)
        with pytest.raises(DomainError):
            ChannelModel(fiber_alpha=0.0)


class TestYield:
    def test_vacuum_gives_dark_counts(self):
        assert yield_k(0, 0.3, 1e-5) == 1e-5

    def test_single_photon_no_darks(self):
        assert yield_k(1, 0.3, 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_two_photons_half_loss(self):
        # oracle: enumerate the four loss outcomes of two photons
        eta = 0.5
        expected = sum(
            eta ** (a + b) * (1 - eta) ** (2 - a - b)
            for a, b in product((0, 1), repeat=2)
            if a or b
        )
        assert expected == 0.75
        assert yield_k(2, eta, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_k_and_eta(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            eta = rng.uniform(0.0, 1.0)
            y0 = rng.uniform(0.0, 0.01)
            ys = [yield_k(k, eta, y0) for k in range(12)]
            assert all(b >= a for a, b in zip(ys, ys[1:]))
            assert all(y0 <= y <= 1.0 for y in ys)
            assert yield_k(3, min(eta * 1.1, 1.0), y0) >= ys[3]


class TestGainAndError:
    def test_error_vacuum_is_e0(self):
        assert error_k(0, 0.5, detector(e0=0.5, y0=1e-4)) == pytest.approx(0.5, abs=1e-12)

    def test_error_without_darks_is_ed(self):
        det = detector(e_d=0.008, y0=0.0)
        for k in (1, 2, 5):
            assert error_k(k, 0.3, det) == pytest.approx(0.008, abs=1e-15)

    def test_error_substitution_oracle(self):
        # independent substitution with Y_1 computed by hand
        y0, eta, e0, e_d = 2.39e-6, 1e-3, 0.5, 0.008
        y1 = y0 + (1 - y0) * eta
        expected = (e0 * y0 + e_d * eta) / y1
        assert expected == pytest.approx(0.009173098218961425, abs=1e-15)
        assert error_k(1, eta, detector(y0=y0)) == pytest.approx(expected, abs=1e-15)

    def test_error_zero_yield_rejected(self):
        with pytest.raises(DomainError):
            error_k(0, 0.5, detector(y0=0.0))

    def test_error_bounds_physical_regime(self):
        # e0 = 1/2 with e_d below e0 (1 - y0): e_k stays within [e_d, e0].
        # Dark-error stacking breaks the upper bound only when e_d comes
        # within y0 * e0 of e0, outside any physical operating point.
        rng = np.random.default_rng(13)
        for _ in range(300):
            e_d = rng.uniform(0.0, 0.45)
            y0 = rng.uniform(1e-8, 1e-2)
            eta = rng.uniform(1e-6, 1.0)
            k = rng.integers(0, 10)
            e = error_k(k, eta, detector(e_d=e_d, y0=y0))
            assert min(e_d, 0.5) - 1e-12 <= e <= max(e_d, 0.5) + 1e-12


class TestTotals:
    def test_vacuum_with_darks(self):
        dist = PhotonNumberDistribution([1.0, 0.0, 0.0])
        q, e = totals(dist, 0.5, detector(y0=1e-4))
        assert q == pytest.approx(1e-4, rel=1e-9)
        assert e == pytest.approx(0.5, rel=1e-9)

    def test_single_photon_no_darks(self):
        dist = PhotonNumberDistribution([0.0, 1.0, 0.0])
        q, e = totals(dist, 0.3, detector(e_d=0.01, y0=0.0))
        assert q == pytest.approx(0.3, abs=1e-15)
        assert e == pytest.approx(0.01, abs=1e-15)

    def test_zero_gain_rejected(self):
        dist = PhotonNumberDistribution([1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            totals(dist, 0.5, detector(y0=0.0))

    def test_linearity_in_distribution(self):
        rng = np.random.default_rng(17)
        det = detector()
        for _ in range(50):
            lam = rng.uniform(0.0, 1.0)
            eta = rng.uniform(1e-4, 1.0)
            p1 = rng.dirichlet(np.ones(6))
            p2 = rng.dirichlet(np.ones(6))
            d1 = PhotonNumberDistribution(p1)
            d2 = PhotonNumberDistribution(p2)
            mix = PhotonNumberDistribution(lam * p1 + (1 - lam) * p2)
            q1, e1 = totals(d1, eta, det)
            q2, e2 = totals(d2, eta, det)
            qm, em = totals(mix, eta, det)
            assert qm == pytest.approx(lam * q1 + (1 - lam) * q2, rel=1e-12)
            assert qm * em == pytest.approx(
                lam * q1 * e1 + (1 - lam) * q2 * e2, rel=1e-9
            )

    def test_gain_decreases_with_attenuation(self):
        det = detector()
        dist = qd_distribution(QdSourceParams(0.0409, 0.012))
        gains = []
        for db in np.arange(0.0, 40.0, 2.0):
            ch = ChannelModel(attenuation_db=db, eta0=0.9)
            gains.append(totals(dist, ch.transmissivity, det)[0])
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_detector_validation(self):
        with pytest.raises(DomainError):
            DetectorModel(e_d=0.6, y0=0.0)
        with pytest.raises(DomainError):
            DetectorModel(e_d=0.01, y0=1.0)
        with pytest.raises(DomainError):
            DetectorModel(e_d=0.01, y0=0.0, f_ec=0.9)
        with pytest.raises(DomainError, match="e0 \\+ e_d must be at most 1"):
            DetectorModel(e_d=0.5, y0=0.0, e0=1.0)
        DetectorModel(e_d=0.5, y0=0.9, e0=0.5)  # e0 + e_d = 1 is allowed
