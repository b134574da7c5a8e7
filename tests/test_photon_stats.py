import math

import numpy as np
import pytest

from hybridqkd import (
    DomainError,
    PhotonNumberDistribution,
    QdSourceParams,
    apply_loss,
    brightness_after_loss,
    g2_of,
    hybrid_distribution,
    mean_photon_number,
    poisson_distribution,
    qd_distribution,
)
from hybridqkd.photon_stats import MIN_KMAX, MU_MAX, POISSON_TAIL


def random_qd_params(rng):
    g2 = rng.uniform(1e-6, 0.45)
    brightness = rng.uniform(1e-6, min(1.0, 1.0 / (2.0 * g2)))
    return QdSourceParams(brightness, g2)


def padded(a, n):
    return np.pad(a, (0, n - a.size))


class TestPoisson:
    def test_vacuum(self):
        dist = poisson_distribution(0.0)
        assert dist.probs[0] == 1.0
        assert dist.probs[1:].sum() == 0.0

    def test_mu_one_analytic(self):
        dist = poisson_distribution(1.0)
        assert dist.probs[1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_p2_at_half(self):
        # oracle: direct mass function, cross-checked against normalization
        dist = poisson_distribution(0.5)
        assert dist.probs[2] == pytest.approx(0.07581633246407918, abs=1e-12)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.01, 0.3, 1.0, 2.7, 5.0])
    def test_mean_matches_mu(self, mu):
        assert mean_photon_number(poisson_distribution(mu)) == pytest.approx(mu, abs=1e-8)

    def test_negative_mu_rejected(self):
        with pytest.raises(DomainError):
            poisson_distribution(-0.1)

    @pytest.mark.parametrize("mu", [0.3, 2.7, MU_MAX])
    def test_fock_vector_cuts_smallest_tail_below_limit(self, mu):
        k_max = int(np.flatnonzero(poisson_distribution(mu).probs)[-1])

        def tail(k):  # exact Poisson mass above k, as a sum of positive terms
            return sum(math.exp(-mu) * mu**j / math.factorial(j) for j in range(k + 1, k + 80))

        assert k_max >= MIN_KMAX
        assert tail(k_max) <= POISSON_TAIL
        assert k_max == MIN_KMAX or tail(k_max - 1) > POISSON_TAIL

    def test_mu_above_mu_max_rejected(self):
        assert poisson_distribution(MU_MAX).mu == MU_MAX
        qd = qd_distribution(QdSourceParams(0.1, 0.01))
        for mu in (math.nextafter(MU_MAX, math.inf), 1e6, math.nan):
            with pytest.raises(DomainError):
                poisson_distribution(mu)
            with pytest.raises(DomainError):
                hybrid_distribution(qd, mu)


class TestQdDistribution:
    def test_pure_single_photon_limit(self):
        dist = qd_distribution(QdSourceParams(0.3, 0.0))
        assert dist.probs[2] == 0.0
        assert dist.probs[1] == pytest.approx(0.3, abs=1e-15)

    def test_dark_source(self):
        dist = qd_distribution(QdSourceParams(0.0, 0.01))
        assert np.array_equal(dist.probs, [1.0, 0.0, 0.0])

    def test_table1_quadratic_roundtrip(self):
        # reinsert p2 into the defining quadratic (B + p2)^2 g2 = 2 p2
        b, g2 = 0.0409, 0.012
        dist = qd_distribution(QdSourceParams(b, g2))
        p2 = dist.probs[2]
        assert abs((b + p2) ** 2 * g2 - 2.0 * p2) < 1e-12
        assert dist.probs[1] + dist.probs[2] == pytest.approx(b, abs=1e-15)

    def test_g2_roundtrip_on_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            params = random_qd_params(rng)
            assert g2_of(qd_distribution(params)) == pytest.approx(params.g2, abs=1e-9)

    # (1 - g2 b - sqrt(1 - 2 g2 b)) / g2 loses p2 ~ g2 b^2 / 2 to rounding of
    # order 1e-16 / g2: below g2 ~ 1e-4 that error can exceed p2 and even b.
    @pytest.mark.xfail(strict=True, reason="p2 cancels catastrophically at small g2")
    @pytest.mark.parametrize("b, g2", [(2.8e-5, 1e-12), (0.1, 2e-12), (0.01, 1e-6)])
    def test_small_g2_two_photon_weight(self, b, g2):
        p2 = qd_distribution(QdSourceParams(b, g2)).probs[2]
        assert p2 == pytest.approx(g2 * b * b / 2.0, rel=1e-3, abs=0.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            QdSourceParams(1.2, 0.01)
        with pytest.raises(DomainError):
            QdSourceParams(0.5, 0.5)
        with pytest.raises(DomainError):
            QdSourceParams(-0.1, 0.01)


class TestHybrid:
    def test_zero_laser_is_identity(self):
        qd = qd_distribution(QdSourceParams(0.2, 0.02))
        mixed = hybrid_distribution(qd, 0.0)
        assert np.allclose(mixed.probs[:3], qd.probs, atol=1e-15)
        assert mixed.probs[3:].sum() == 0.0

    def test_vacuum_qd_is_poisson(self):
        vac = PhotonNumberDistribution(np.array([1.0, 0.0, 0.0]))
        mixed = hybrid_distribution(vac, 0.7)
        laser = poisson_distribution(0.7)
        n = max(mixed.probs.size, laser.probs.size)
        assert np.allclose(padded(mixed.probs, n), padded(laser.probs, n), atol=1e-12)

    def test_p2_closed_form_matches_convolution(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            params = random_qd_params(rng)
            mu = rng.uniform(0.0, 3.0)
            qd = qd_distribution(params)
            p0, p1, p2 = qd.probs
            closed = math.exp(-mu) * (p0 * mu**2 / 2.0 + p1 * mu + p2)
            assert hybrid_distribution(qd, mu).probs[2] == pytest.approx(closed, abs=1e-12)

    def test_general_pn_closed_form(self):
        qd = qd_distribution(QdSourceParams(0.35, 0.08))
        p0, p1, p2 = qd.probs
        mu = 1.3
        mixed = hybrid_distribution(qd, mu)
        for n in range(2, 15):
            closed = math.exp(-mu) * (
                p0 * mu**n / math.factorial(n)
                + p1 * mu ** (n - 1) / math.factorial(n - 1)
                + p2 * mu ** (n - 2) / math.factorial(n - 2)
            )
            assert mixed.probs[n] == pytest.approx(closed, abs=1e-12)

    def test_mean_additivity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            params = random_qd_params(rng)
            mu = rng.uniform(0.0, 5.0)
            qd = qd_distribution(params)
            mixed = hybrid_distribution(qd, mu)
            assert mean_photon_number(mixed) == pytest.approx(
                mean_photon_number(qd) + mu, abs=1e-9
            )

    def test_requires_truncated_qd(self):
        with pytest.raises(DomainError):
            hybrid_distribution(poisson_distribution(0.2), 0.1)
        qd = qd_distribution(QdSourceParams(0.1, 0.01))
        with pytest.raises(DomainError):
            hybrid_distribution(qd, -0.5)


class TestMoments:
    def test_mean_examples(self):
        assert mean_photon_number(PhotonNumberDistribution([1, 0, 0])) == 0.0
        assert mean_photon_number(PhotonNumberDistribution([0, 1, 0])) == 1.0
        assert mean_photon_number(poisson_distribution(0.3)) == pytest.approx(0.3, abs=1e-8)

    def test_g2_single_photon(self):
        assert g2_of(PhotonNumberDistribution([0, 1, 0])) == 0.0

    @pytest.mark.parametrize("mu", [0.05, 0.5, 2.0])
    def test_g2_poisson_is_one(self, mu):
        assert g2_of(poisson_distribution(mu)) == pytest.approx(1.0, abs=1e-6)

    def test_g2_undefined_for_vacuum(self):
        with pytest.raises(DomainError):
            g2_of(PhotonNumberDistribution([1, 0, 0]))

    def test_purity_decreases_with_laser_fraction(self):
        qd = qd_distribution(QdSourceParams(0.0409, 0.012))
        purities = [
            1.0 - g2_of(hybrid_distribution(qd, mu))
            for mu in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(a > b for a, b in zip(purities, purities[1:]))


class TestApplyLoss:
    def test_identity_and_vacuum(self):
        qd = qd_distribution(QdSourceParams(0.4, 0.1))
        assert np.array_equal(apply_loss(qd, 1.0).probs, qd.probs)
        assert apply_loss(qd, 0.0).probs[0] == 1.0

    def test_poisson_thinning_closure(self):
        thinned = apply_loss(poisson_distribution(0.8), 0.35)
        target = poisson_distribution(0.8 * 0.35)
        assert np.allclose(thinned.probs, target.probs, atol=1e-9)

    def test_mean_scales_exactly(self):
        qd = qd_distribution(QdSourceParams(0.3, 0.05))
        for eta in (0.1, 0.5, 0.9):
            assert mean_photon_number(apply_loss(qd, eta)) == pytest.approx(
                eta * mean_photon_number(qd), abs=1e-12
            )

    def test_eta_out_of_range(self):
        qd = qd_distribution(QdSourceParams(0.3, 0.05))
        with pytest.raises(DomainError):
            apply_loss(qd, -0.01)
        with pytest.raises(DomainError):
            apply_loss(qd, 1.01)

    def test_loss_commutes_with_convolution(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            params = random_qd_params(rng)
            mu = rng.uniform(0.0, 2.0)
            eta = rng.uniform(0.0, 1.0)
            qd = qd_distribution(params)
            lossy_mix = apply_loss(hybrid_distribution(qd, mu), eta)
            mix_of_lossy = hybrid_distribution(apply_loss(qd, eta), eta * mu)
            n = max(lossy_mix.probs.size, mix_of_lossy.probs.size)
            assert np.allclose(
                padded(lossy_mix.probs, n), padded(mix_of_lossy.probs, n), atol=1e-9
            )


class TestBrightnessAfterLoss:
    def test_no_loss_returns_b0(self):
        assert brightness_after_loss(0.37, 0.02, 1.0) == pytest.approx(0.37, abs=1e-15)

    def test_g2_zero_scales_linearly(self):
        assert brightness_after_loss(0.37, 0.0, 0.6) == pytest.approx(0.222, abs=1e-15)

    def test_matches_thinning_route_single_point(self):
        b0, g2, eta = 0.5, 0.02, 0.3
        thinned = apply_loss(qd_distribution(QdSourceParams(b0, g2)), eta)
        via_thinning = thinned.probs[1] + thinned.probs[2]
        assert brightness_after_loss(b0, g2, eta) == pytest.approx(via_thinning, abs=1e-10)

    def test_matches_thinning_route_grid(self):
        # 10 x 10 x 10 grid of (b0, g2, eta)
        for b0 in np.linspace(0.05, 0.95, 10):
            for g2 in np.linspace(1e-4, 0.45, 10):
                if 2.0 * g2 * b0 > 1.0:
                    continue
                for eta in np.linspace(0.0, 1.0, 10):
                    thinned = apply_loss(qd_distribution(QdSourceParams(b0, g2)), eta)
                    expected = thinned.probs[1] + thinned.probs[2]
                    assert brightness_after_loss(b0, g2, eta) == pytest.approx(
                        expected, abs=1e-10
                    )

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            brightness_after_loss(0.9, 0.6, 0.5)
        with pytest.raises(DomainError):  # g2 >= 1/2, though 2 g2 b0 <= 1
            brightness_after_loss(0.5, 0.6, 0.5)
        with pytest.raises(DomainError):
            brightness_after_loss(0.5, 0.02, 1.5)


class TestNormalization:
    def test_constructors_normalize(self):
        rng = np.random.default_rng(41)
        dists = [
            poisson_distribution(rng.uniform(0.0, 5.0)),
            qd_distribution(random_qd_params(rng)),
            hybrid_distribution(qd_distribution(random_qd_params(rng)), 0.8),
            apply_loss(poisson_distribution(1.2), 0.4),
        ]
        for dist in dists:
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(dist.probs >= 0.0)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(DomainError):
            PhotonNumberDistribution([0.2, 0.2, 0.2])
        with pytest.raises(DomainError):
            PhotonNumberDistribution([0.5, 0.6, -0.1])
        with pytest.raises(DomainError):
            PhotonNumberDistribution([0.5, 0.5])
