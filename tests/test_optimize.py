import math

import numpy as np
import pytest

from hybridqkd import (
    ChannelModel,
    DetectorModel,
    QdSourceParams,
    crossover_attenuation,
    gllp_skr,
    hybrid_distribution,
    laser_beat_brightness,
    optimize,
    optimize_mu_laser,
    qd_distribution,
    skr_scan,
    unconditional_advantage_brightness,
)
from hybridqkd.optimize import DB_MAX, OptimizationResult, _boundary, _last_true

TABLE1_QD = QdSourceParams(0.0409, 0.012)
TABLE1_CH = ChannelModel(fiber_alpha=0.21, eta0=0.9)
TABLE1_DET = DetectorModel(e_d=0.008, y0=196 / 81.96e6)

IDEAL_CH = ChannelModel()
IDEAL_DET = DetectorModel(e_d=0.0, y0=0.0)


def clamped_skr(qd, mu, db, channel, det):
    report = gllp_skr(
        hybrid_distribution(qd_distribution(qd), mu), channel.with_attenuation(db), det
    )
    if report.clamped:
        return 0.0
    return max(report.skr_per_pulse, 0.0)


class TestOptimizeMuLaser:
    def test_pure_laser_optimum(self):
        result = optimize_mu_laser(QdSourceParams(0.0, 0.0), 0.0, IDEAL_CH, IDEAL_DET)
        assert result.mu_laser_opt == pytest.approx(1.0, abs=1e-4)
        assert result.skr_opt == pytest.approx(0.5 * math.exp(-1.0), rel=1e-6)
        assert result.mix_ratio == 1.0
        assert result.purity_at_opt == pytest.approx(0.0, abs=1e-9)

    def test_no_key_region_prefers_pure_source(self):
        result = optimize_mu_laser(TABLE1_QD, 50.0, TABLE1_CH, TABLE1_DET)
        assert result.mu_laser_opt == 0.0
        assert result.skr_opt == 0.0

    def test_dominates_endpoints_on_grid(self):
        for db in np.arange(0.0, 42.0, 2.0):
            result = optimize_mu_laser(TABLE1_QD, db, TABLE1_CH, TABLE1_DET)
            at_zero = clamped_skr(TABLE1_QD, 0.0, db, TABLE1_CH, TABLE1_DET)
            at_one = clamped_skr(TABLE1_QD, 1.0, db, TABLE1_CH, TABLE1_DET)
            assert result.skr_opt >= at_zero - 1e-15
            assert result.skr_opt >= at_one - 1e-15

    def test_dim_source_tracks_laser_only_optimum(self):
        # at 4 % brightness the optimal admixture sits close to the pure
        # laser optimum at low attenuation
        mixed = optimize_mu_laser(TABLE1_QD, 0.0, TABLE1_CH, TABLE1_DET).mu_laser_opt
        laser = optimize_mu_laser(
            QdSourceParams(0.0, 0.0), 0.0, TABLE1_CH, TABLE1_DET
        ).mu_laser_opt
        assert mixed == pytest.approx(laser, rel=0.15)

    def test_mu_opt_nonincreasing_in_attenuation(self):
        mus = [
            optimize_mu_laser(TABLE1_QD, db, TABLE1_CH, TABLE1_DET).mu_laser_opt
            for db in np.arange(0.0, 30.5, 1.5)
        ]
        assert all(b <= a + 1e-3 for a, b in zip(mus, mus[1:]))

    def test_mu_opt_nonincreasing_in_brightness(self):
        mus = [
            optimize_mu_laser(
                QdSourceParams(b, 0.012), 2.0, TABLE1_CH, TABLE1_DET
            ).mu_laser_opt
            for b in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)
        ]
        assert all(b <= a + 1e-3 for a, b in zip(mus, mus[1:]))


class TestCrossover:
    def test_table1_crossover_near_12db(self):
        crossing = crossover_attenuation(TABLE1_QD, TABLE1_CH, TABLE1_DET)
        assert crossing is not None
        assert crossing == pytest.approx(12.0, abs=2.0)

    def test_bright_source_never_mixes(self):
        qd = QdSourceParams(0.5, 0.012)
        assert crossover_attenuation(qd, TABLE1_CH, TABLE1_DET) is None
        for db in (0.0, 5.0, 15.0):
            result = optimize_mu_laser(qd, db, TABLE1_CH, TABLE1_DET)
            assert result.mu_laser_opt == 0.0

    def test_dark_source_has_no_crossover(self):
        assert crossover_attenuation(QdSourceParams(0.0, 0.0), TABLE1_CH, TABLE1_DET) is None
        assert crossover_attenuation(QdSourceParams(0.0, 0.0), IDEAL_CH, IDEAL_DET) is None


class TestThresholds:
    def test_ideal_unconditional_is_half(self):
        threshold = unconditional_advantage_brightness(0.0, IDEAL_DET, IDEAL_CH)
        assert threshold == pytest.approx(0.5, abs=1e-3)

    def test_ideal_laser_beat_is_inverse_e(self):
        threshold = laser_beat_brightness(0.0, IDEAL_DET, IDEAL_CH)
        assert threshold == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_threshold_ordering(self):
        uncond = unconditional_advantage_brightness(0.0, IDEAL_DET, IDEAL_CH)
        beat = laser_beat_brightness(0.0, IDEAL_DET, IDEAL_CH)
        assert uncond > beat


class TestSkrScan:
    def test_single_point_matches_direct_call(self):
        points = skr_scan(TABLE1_QD, [0.05], [7.0], TABLE1_CH, TABLE1_DET)
        assert len(points) == 1
        direct = gllp_skr(
            hybrid_distribution(qd_distribution(TABLE1_QD), 0.05),
            TABLE1_CH.with_attenuation(7.0),
            TABLE1_DET,
        )
        assert points[0].report == direct
        assert points[0].km == pytest.approx(7.0 / 0.21, rel=1e-12)

    def test_zero_mu_row_is_qd_only(self):
        points = skr_scan(TABLE1_QD, [0.0], np.arange(0.0, 31.0, 1.0), TABLE1_CH, TABLE1_DET)
        qd = qd_distribution(TABLE1_QD)
        for point in points:
            assert point.mix_ratio == 0.0
            direct = gllp_skr(qd, TABLE1_CH.with_attenuation(point.attenuation_db), TABLE1_DET)
            assert point.report.skr_per_pulse == pytest.approx(
                direct.skr_per_pulse, rel=1e-12
            )

    def test_heavy_mixing_trades_rate_for_distance(self):
        # strongest mixed configuration: higher SKR at zero loss, dies earlier
        mu_heavy = 0.868 / (1.0 - 0.868) * 0.04091
        points = skr_scan(
            TABLE1_QD, [0.0, mu_heavy], np.arange(0.0, 40.5, 0.5), TABLE1_CH, TABLE1_DET
        )
        qd_only = {p.attenuation_db: p for p in points if p.mu_laser == 0.0}
        mixed = {p.attenuation_db: p for p in points if p.mu_laser > 0.0}
        assert mixed[0.0].report.skr_per_pulse > qd_only[0.0].report.skr_per_pulse

        def last_positive(rows):
            return max(
                (db for db, p in rows.items() if not p.report.clamped and p.report.skr_per_pulse > 0),
                default=None,
            )

        assert last_positive(mixed) < last_positive(qd_only)

    def test_ratio_labels(self):
        mu = 0.3
        points = skr_scan(TABLE1_QD, [mu], [0.0], TABLE1_CH, TABLE1_DET)
        mu_qd = 0.0409 + qd_distribution(TABLE1_QD).probs[2]
        assert points[0].mu_mixed == pytest.approx(mu_qd + mu, abs=1e-12)
        assert points[0].mix_ratio == pytest.approx(mu / (mu_qd + mu), abs=1e-12)


def reference_bisection(pred, lo, hi):
    """The loop each search used to carry inline, run down to adjacent floats."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return hi


class Recorder:
    """Step predicate x <= step that logs every argument it is asked about."""

    def __init__(self, step):
        self.step = step
        self.calls = []

    def __call__(self, x):
        self.calls.append(x)
        return x <= self.step


class TestBisectionHelpers:
    @pytest.mark.parametrize("step", [0.0, 1e-9, 0.123456, 0.5, 0.99995, 0.9999999])
    def test_last_true_lands_just_past_the_step(self, step):
        result = _last_true(lambda x: x <= step, 0.0, 1.0)
        assert result == math.nextafter(step, math.inf)

    def test_last_true_edges(self):
        assert _last_true(lambda x: False, 2.0, 3.0) == math.nextafter(2.0, math.inf)
        assert _last_true(lambda x: True, 2.0, 3.0) == 3.0

    def test_boundary_edges(self):
        assert _boundary(lambda b: False, 0.0, 1.0) == 0.0
        assert _boundary(lambda b: True, 0.0, 1.0) == 1.0
        assert _boundary(lambda db: False, 0.0, DB_MAX) == 0.0
        assert _boundary(lambda db: True, 0.0, DB_MAX) == DB_MAX

    @pytest.mark.parametrize("step", [0.3, 0.457, 0.9])
    def test_boundary_resolution(self, step):
        result = _boundary(lambda b: b <= step, 0.0, 1.0)
        assert result == math.nextafter(step, math.inf)

    @pytest.mark.parametrize("step", [-1.0, 0.2, 0.61803, 2.0])
    def test_unconditional_asks_the_former_questions(self, monkeypatch, step):
        seen = Recorder(step)
        monkeypatch.setattr(
            optimize, "_mixes", lambda qd, db, ch, det: db == 0.0 and seen(qd.brightness)
        )
        result = unconditional_advantage_brightness(0.01, IDEAL_DET, IDEAL_CH)
        ref = Recorder(step)
        if not ref(0.0):
            expected = 0.0
        elif ref(1.0):
            expected = 1.0
        else:
            expected = reference_bisection(ref, 0.0, 1.0)
        assert result == expected
        assert seen.calls == ref.calls

    @pytest.mark.parametrize("step", [-1.0, 0.2, 0.61803, 2.0])
    def test_laser_beat_asks_the_former_questions(self, monkeypatch, step):
        seen = []

        def qd_only(qd, db, ch, det):
            seen.append(qd.brightness)
            return qd.brightness

        monkeypatch.setattr(
            optimize, "optimize_mu_laser",
            lambda qd, db, ch, det: OptimizationResult(db, 0.0, step, 0.0, 1.0),
        )
        monkeypatch.setattr(optimize, "qd_only_skr", qd_only)
        result = laser_beat_brightness(0.01, IDEAL_DET, IDEAL_CH)
        asked = []

        def qd_wins(b):
            asked.append(b)
            return b > step

        if qd_wins(0.0):
            expected = 0.0
        elif not qd_wins(1.0):
            expected = 1.0
        else:
            lo, hi = 0.0, 1.0
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if qd_wins(mid):
                    hi = mid
                else:
                    lo = mid
            expected = hi
        assert result == expected
        assert seen == asked

    @pytest.mark.parametrize("step", [-1.0, 12.7, 33.3, 70.0])
    def test_crossover_asks_the_former_questions(self, monkeypatch, step):
        seen = Recorder(step)
        monkeypatch.setattr(optimize, "_mixes", lambda qd, db, ch, det: seen(db))
        monkeypatch.setattr(optimize, "qd_only_skr", lambda qd, db, ch, det: 1.0)
        result = crossover_attenuation(TABLE1_QD, TABLE1_CH, TABLE1_DET)
        ref = Recorder(step)
        if not ref(0.0) or ref(DB_MAX):
            expected = None
        else:
            expected = reference_bisection(ref, 0.0, DB_MAX)
        assert result == expected
        assert seen.calls == ref.calls
