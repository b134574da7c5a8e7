import math

import mpmath
import numpy as np
import pytest

from hybridqkd import (
    ChannelModel,
    DetectorModel,
    DomainError,
    PhotonNumberDistribution,
    QdSourceParams,
    SimConfig,
    SimTally,
    apply_loss,
    empirical_skr,
    gllp_skr,
    hybrid_distribution,
    qd_distribution,
    simulate,
)
from hybridqkd.channel import totals
from hybridqkd.montecarlo import (
    BLOCK_SIZE, MAX_PULSES, _bernoulli_positions, _block_rng, _photon_hits,
)

TABLE1_DET = DetectorModel(e_d=0.008, y0=196 / 81.96e6)


def table1_hybrid(mu):
    return hybrid_distribution(qd_distribution(QdSourceParams(0.0409, 0.012)), mu)


def chisquare_p_value(observed, expected) -> float:
    """P(chi^2 with k - 1 degrees of freedom > Pearson's statistic) for k bins."""
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    df = observed.size - 1
    return float(mpmath.gammainc(df / 2, chi2 / 2, mpmath.inf, regularized=True))


class TestSimulate:
    def test_vacuum_without_darks_never_clicks(self):
        dist = PhotonNumberDistribution([1.0, 0.0, 0.0])
        det = DetectorModel(e_d=0.0, y0=0.0)
        tally = simulate(SimConfig(10_000, 3, dist, 0.5, det))
        assert tally.n_clicks == 0
        assert tally.q_tot_hat == 0.0

    def test_perfect_channel(self):
        dist = PhotonNumberDistribution([0.0, 1.0, 0.0])
        det = DetectorModel(e_d=0.0, y0=0.0)
        tally = simulate(SimConfig(20_000, 3, dist, 1.0, det))
        assert tally.n_clicks == tally.n_pulses
        assert tally.n_errors == 0
        assert 0 < tally.n_sifted < tally.n_pulses

    def test_count_ordering_invariant(self):
        tally = simulate(SimConfig(50_000, 5, table1_hybrid(0.2), 0.3, TABLE1_DET))
        assert tally.n_errors <= tally.n_sifted <= tally.n_clicks <= tally.n_pulses
        assert tally.q_tot_hat == tally.n_clicks / tally.n_pulses
        assert tally.e_tot_hat == tally.n_errors / tally.n_sifted

    def test_deterministic_for_fixed_seed(self):
        config = SimConfig(BLOCK_SIZE + 12_345, 99, table1_hybrid(0.1), 0.05, TABLE1_DET)
        assert simulate(config) == simulate(config)

    def test_seed_changes_tally(self):
        a = simulate(SimConfig(100_000, 1, table1_hybrid(0.1), 0.5, TABLE1_DET))
        b = simulate(SimConfig(100_000, 2, table1_hybrid(0.1), 0.5, TABLE1_DET))
        assert a != b

    @pytest.mark.parametrize("n", [BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1])
    def test_block_edges_lose_no_pulse(self, n):
        # a pure single-photon source (p0 = 0) over a lossless channel clicks every pulse
        dist = PhotonNumberDistribution([0.0, 1.0, 0.0])
        det = DetectorModel(e_d=0.0, y0=0.0)
        tally = simulate(SimConfig(n, 4, dist, 1.0, det))
        assert tally.n_clicks == n
        assert tally.n_errors == 0

    def test_coincident_dark_count_adds_no_click(self):
        # every pulse has a photon hit and about half also have a dark count; a
        # dark count counted apart from its photon would add a click. A click
        # with both errs with probability e_d + e0 = 1, so E_tot = e0 y0 = 1/2.
        dist = PhotonNumberDistribution([0.0, 1.0, 0.0])
        det = DetectorModel(e_d=0.0, y0=0.5, e0=1.0)
        tally = simulate(SimConfig(100_000, 5, dist, 1.0, det))
        assert tally.n_clicks == tally.n_pulses
        _, e_tot = totals(dist, 1.0, det)
        assert abs(tally.e_tot_hat - e_tot) <= 3.0 * tally.stderr_e

    def test_coincident_click_errs_with_e_d_plus_e0(self):
        # half the photon clicks coincide with a dark count and err with
        # e_d + e0 = 0.7, the others with e_d = 0.2: E_tot = e0 y0 + e_d = 0.45
        dist = PhotonNumberDistribution([0.0, 1.0, 0.0])
        det = DetectorModel(e_d=0.2, y0=0.5, e0=0.5)
        tally = simulate(SimConfig(100_000, 9, dist, 1.0, det))
        _, e_tot = totals(dist, 1.0, det)
        assert abs(tally.e_tot_hat - e_tot) <= 3.0 * tally.stderr_e

    def test_extra_block_leaves_earlier_blocks_unchanged(self):
        dist, det = table1_hybrid(0.269), DetectorModel(e_d=0.05, y0=1e-3)
        full = simulate(SimConfig(BLOCK_SIZE, 6, dist, 0.5, det))
        plus_one = simulate(SimConfig(BLOCK_SIZE + 1, 6, dist, 0.5, det))
        assert plus_one.n_clicks - full.n_clicks in (0, 1)
        assert plus_one.n_sifted - full.n_sifted in (0, 1)
        assert plus_one.n_errors - full.n_errors in (0, 1)

    @pytest.mark.parametrize("vacuum,eta", [(True, 0.5), (False, 0.0)])
    def test_only_dark_counts_click(self, vacuum, eta):
        # a vacuum source (p0 = 1), or any source behind an opaque channel
        dist = PhotonNumberDistribution([1.0, 0.0, 0.0]) if vacuum else table1_hybrid(0.2)
        det = DetectorModel(e_d=0.0, y0=0.01, e0=1.0)
        n = 200_000
        tally = simulate(SimConfig(n, 8, dist, eta, det))
        assert tally.n_errors == tally.n_sifted  # e0 = 1: every sifted dark click errs
        assert abs(tally.n_clicks - n * det.y0) < 4.0 * math.sqrt(n * det.y0 * (1.0 - det.y0))

    @pytest.mark.parametrize("eta", [1.0, 0.3])
    def test_without_dark_counts_only_photons_click(self, eta):
        dist = table1_hybrid(0.2)
        det = DetectorModel(e_d=0.0, y0=0.0)
        n = 200_000
        tally = simulate(SimConfig(n, 9, dist, eta, det))
        q = 1.0 - apply_loss(dist, eta).probs[0]
        assert tally.n_errors == 0  # e_d = 0 and no dark counts
        assert abs(tally.n_clicks - n * q) < 4.0 * math.sqrt(n * q * (1.0 - q))

    def test_validation(self):
        dist = table1_hybrid(0.0)
        with pytest.raises(DomainError):
            SimConfig(0, 1, dist, 0.5, TABLE1_DET)
        with pytest.raises(DomainError):
            SimConfig(MAX_PULSES + 1, 1, dist, 0.5, TABLE1_DET)
        with pytest.raises(DomainError):
            SimConfig(100, -1, dist, 0.5, TABLE1_DET)
        with pytest.raises(DomainError):
            SimConfig(100, 1, dist, 1.5, TABLE1_DET)


class TestOracleAgreement:
    @pytest.mark.parametrize("db,mu", [(2.0, 0.0), (10.0, 0.1)])
    def test_totals_within_three_sigma(self, db, mu):
        dist = table1_hybrid(mu)
        ch = ChannelModel(attenuation_db=db, eta0=0.9)
        analytic = gllp_skr(dist, ch, TABLE1_DET)
        tally = simulate(SimConfig(1_000_000, 424242, dist, ch.transmissivity, TABLE1_DET))
        assert abs(tally.q_tot_hat - analytic.q_tot) < 3.0 * tally.stderr_q
        assert abs(tally.e_tot_hat - analytic.e_tot) < 3.0 * tally.stderr_e

    def test_thinned_histogram_matches_apply_loss(self):
        # chi-square at 99 % confidence on the kernel's own draws: pulses where no
        # photon arrives against the binomial-thinning law, arrivals by photon number
        dist = table1_hybrid(0.3)
        eta = 0.6
        n = 1_000_000
        _, k, arrived = _photon_hits(_block_rng(7, 0), dist.probs, eta, n)
        ks = np.arange(dist.probs.size)
        expected = n * np.append(
            apply_loss(dist, eta).probs[0], (dist.probs * (1.0 - (1.0 - eta) ** ks))[1:]
        )
        assert expected.sum() == pytest.approx(n, rel=1e-12)
        observed = np.append(n - arrived.sum(), np.bincount(k[arrived], minlength=ks.size)[1:])
        keep = expected > 10.0  # pool sparse tail bins for a valid chi-square
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        p_value = chisquare_p_value(obs, exp * obs.sum() / exp.sum())
        assert p_value > 0.01

    def test_z_scores_over_seeds(self):
        # z under the analytic values over 200 short runs: mean near 0, spread near 1
        dist = table1_hybrid(0.1)
        det = DetectorModel(e_d=0.05, y0=1e-3)
        eta, n = 0.3, 50_000
        q, e = totals(dist, eta, det)
        z_q, z_e = [], []
        for seed in range(200):
            tally = simulate(SimConfig(n, 500 + seed, dist, eta, det))
            z_q.append((tally.q_tot_hat - q) / math.sqrt(q * (1.0 - q) / n))
            z_e.append((tally.e_tot_hat - e) / math.sqrt(e * (1.0 - e) / tally.n_sifted))
        for z in (z_q, z_e):
            assert abs(np.mean(z)) < 0.25
            assert 0.8 < np.std(z, ddof=1) < 1.2


class _ScriptedGaps:
    """Stands in for a Generator: each geometric call returns one repeated gap."""

    def __init__(self, gaps):
        self.gaps = list(gaps)

    def geometric(self, p, count):
        return np.full(count, self.gaps.pop(0), dtype=np.int64)


class TestBernoulliPositions:
    @pytest.mark.parametrize("p", [1e-4, 0.05, 0.3, 0.9])
    def test_count_and_uniformity(self, p):
        size, runs = 100_000, 20
        total = 0
        bins = np.zeros(10, dtype=np.int64)
        for seed in range(runs):
            pos = _bernoulli_positions(_block_rng(seed, 0), p, size)
            assert np.all(np.diff(pos) > 0)
            assert pos.size == 0 or (pos[0] >= 0 and pos[-1] < size)
            total += pos.size
            bins += np.bincount(pos * 10 // size, minlength=10)
        mean = runs * size * p
        assert abs(total - mean) < 4.0 * math.sqrt(mean * (1.0 - p))
        p_value = chisquare_p_value(bins, np.full(bins.size, bins.mean()))
        assert p_value > 0.01

    def test_degenerate_probabilities(self):
        assert _bernoulli_positions(_block_rng(1, 0), 0.0, 1000).size == 0
        np.testing.assert_array_equal(
            _bernoulli_positions(_block_rng(1, 0), 1.0, 1000), np.arange(1000)
        )

    def test_short_first_draw_continues_from_last_success(self):
        # the first draw of gaps all 1 ends inside the block, so a second draw follows
        pos = _bernoulli_positions(_ScriptedGaps([1, 3]), 0.5, 100)
        gaps = np.diff(pos)
        assert pos[0] == 0
        assert set(gaps) == {1, 3} and np.all(np.diff(gaps) >= 0)
        assert 100 - 3 <= pos[-1] < 100


class TestEmpiricalSkr:
    def test_perfect_channel_half_bit(self):
        dist = PhotonNumberDistribution([0.0, 1.0, 0.0])
        det = DetectorModel(e_d=0.0, y0=0.0)
        tally = simulate(SimConfig(10_000, 3, dist, 1.0, det))
        assert empirical_skr(tally, det, dist) == pytest.approx(0.5, abs=1e-12)

    def test_high_error_clamps_to_zero(self):
        tally = SimTally(1000, 600, 300, 160, 0.6, 160 / 300, 0.015, 0.028)
        assert empirical_skr(tally, TABLE1_DET, table1_hybrid(0.1)) == 0.0

    def test_zero_clicks_rejected(self):
        tally = SimTally(1000, 0, 0, 0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            empirical_skr(tally, TABLE1_DET, table1_hybrid(0.1))

    def test_matches_analytic_within_three_sigma(self):
        dist = table1_hybrid(0.1)
        ch = ChannelModel(attenuation_db=10.0, eta0=0.9)
        analytic = gllp_skr(dist, ch, TABLE1_DET)
        tally = simulate(SimConfig(2_000_000, 11, dist, ch.transmissivity, TABLE1_DET))
        skr_mc = empirical_skr(tally, TABLE1_DET, dist)
        # crude error propagation: the bound is roughly linear in q and e
        scale = abs(analytic.skr_per_pulse)
        assert abs(skr_mc - analytic.skr_per_pulse) < max(
            3.0 * (tally.stderr_q + tally.stderr_e * analytic.q_tot), 0.2 * scale
        )
