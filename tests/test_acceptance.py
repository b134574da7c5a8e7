"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. Every
tolerance is pinned here; the Monte Carlo criterion retries a failing cell
once with an offset seed (3-sigma gates on 15 cells false-fail a couple of
percent of the time) and fails hard on a second miss.
"""
import math
import time

import numpy as np
import pytest

from hybridqkd import (
    ClickObservables,
    QdSourceParams,
    apply_loss,
    brightness_after_loss,
    compose_click_probability,
    crossover_attenuation,
    g2_of,
    gllp_skr,
    hybrid_distribution,
    infer_mu_laser,
    laser_beat_brightness,
    mean_photon_number,
    qd_distribution,
    unconditional_advantage_brightness,
)
from hybridqkd.cli import MONTECARLO_COLUMNS, SUPP_BRIGHTNESS, _format_value, montecarlo_rows
from hybridqkd.config import load_config


@pytest.fixture(scope="module")
def table1():
    cfg = load_config("table1")
    assert cfg.source.brightness == 0.0409
    assert cfg.source.g2 == 0.012
    assert cfg.detector.e_d == 0.008
    assert cfg.detector.f_ec == 1.2
    assert cfg.detector.y0 == pytest.approx(196 / 81.96e6, rel=1e-12)
    return cfg


@pytest.fixture(scope="module")
def ideal():
    cfg = load_config("ideal")
    assert cfg.source.g2 == 0.0
    assert cfg.detector.e_d == 0.0
    assert cfg.detector.y0 == 0.0
    return cfg


def report(number: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def qd_only_skr(cfg, db: float) -> float:
    dist = qd_distribution(cfg.source)
    return gllp_skr(dist, cfg.channel.with_attenuation(db), cfg.detector).skr_per_pulse


def test_criterion_1_long_distance_point(table1):
    start = time.perf_counter()
    skr = qd_only_skr(table1, 30.0)
    elapsed = time.perf_counter() - start
    ok = 2.5e-6 <= skr <= 1e-5 and elapsed < 1.0
    report(1, ok, f"QD-only SKR at 30 dB = {skr:.3e} bits/pulse "
                  f"(window [2.5e-6, 1e-5]), {elapsed:.2f}s")


def test_criterion_2_crossover(table1):
    start = time.perf_counter()
    crossing = crossover_attenuation(table1.source, table1.channel, table1.detector)
    elapsed = time.perf_counter() - start
    ok = crossing is not None and abs(crossing - 12.0) <= 2.0 and elapsed < 10.0
    report(2, ok, f"crossover attenuation = {crossing} dB (target 12 +- 2), {elapsed:.2f}s")


def test_criterion_3_unconditional_threshold(table1):
    # eta0 = 0.9 in the bundled profile; the threshold moves by roughly
    # -0.006 per -0.1 of eta0 (0.4634 at eta0 = 1.0), so the Y0/eta0
    # split assumption is what places it inside the +-0.005 window.
    start = time.perf_counter()
    threshold = unconditional_advantage_brightness(
        table1.source.g2, table1.detector, table1.channel
    )
    elapsed = time.perf_counter() - start
    ok = abs(threshold - 0.4557) <= 0.005 and elapsed < 60.0
    report(3, ok, f"unconditional advantage brightness = {threshold:.4f} "
                  f"(target 0.4557 +- 0.005), {elapsed:.2f}s")


def test_criterion_4_ideal_thresholds(ideal):
    start = time.perf_counter()
    beat = laser_beat_brightness(0.0, ideal.detector, ideal.channel)
    uncond = unconditional_advantage_brightness(0.0, ideal.detector, ideal.channel)
    elapsed = time.perf_counter() - start
    ok = (
        abs(beat - math.exp(-1.0)) <= 1e-3
        and abs(uncond - 0.5) <= 1e-3
        and elapsed < 60.0
    )
    report(4, ok, f"ideal thresholds: laser-beat = {beat:.5f} (e^-1 = {math.exp(-1):.5f} "
                  f"+- 1e-3), unconditional = {uncond:.5f} (0.5 +- 1e-3), {elapsed:.2f}s")


def test_criterion_5_positive_key_range(table1):
    start = time.perf_counter()
    low = [qd_only_skr(table1, db) for db in np.arange(0.0, 28.01, 0.5)]
    high = [qd_only_skr(table1, db) for db in np.arange(32.0, 45.01, 0.5)]
    elapsed = time.perf_counter() - start
    ok = all(s > 0 for s in low) and all(s <= 0 for s in high) and elapsed < 1.0
    report(5, ok, f"QD-only SKR positive on [0, 28] dB (min {min(low):.2e}) and "
                  f"nonpositive on [32, 45] dB (max {max(high):.2e}), {elapsed:.2f}s")


def test_criterion_6_hybrid_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_p2 = worst_mean = worst_g2 = 0.0
    for _ in range(150):
        g2 = rng.uniform(1e-6, 0.45)
        b = rng.uniform(1e-6, min(1.0, 1.0 / (2 * g2)))
        mu = rng.uniform(0.0, 3.0)
        qd = qd_distribution(QdSourceParams(b, g2))
        mixed = hybrid_distribution(qd, mu)
        p0, p1, p2 = qd.probs
        closed = math.exp(-mu) * (p0 * mu**2 / 2 + p1 * mu + p2)
        worst_p2 = max(worst_p2, abs(mixed.probs[2] - closed))
        worst_mean = max(
            worst_mean, abs(mean_photon_number(mixed) - (mean_photon_number(qd) + mu))
        )
        worst_g2 = max(worst_g2, abs(g2_of(qd) - g2))
    elapsed = time.perf_counter() - start
    ok = worst_p2 < 1e-12 and worst_mean < 1e-9 and worst_g2 < 1e-9 and elapsed < 5.0
    report(6, ok, f"hybrid identities over 150 draws: |p2 closed-convolution| <= "
                  f"{worst_p2:.1e} (1e-12), mean additivity <= {worst_mean:.1e} (1e-9), "
                  f"g2 round trip <= {worst_g2:.1e} (1e-9), {elapsed:.2f}s")


def test_criterion_7_brightness_under_loss():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for b0 in np.linspace(0.05, 0.95, 10):
        for g2 in np.linspace(1e-4, 0.45, 10):
            if 2.0 * g2 * b0 > 1.0:
                continue
            for eta in np.linspace(0.0, 1.0, 10):
                thinned = apply_loss(qd_distribution(QdSourceParams(b0, g2)), eta)
                via_thinning = thinned.probs[1] + thinned.probs[2]
                worst = max(worst, abs(brightness_after_loss(b0, g2, eta) - via_thinning))
                count += 1
    exact_limits = (
        brightness_after_loss(0.37, 0.02, 1.0) == pytest.approx(0.37, abs=1e-15)
        and brightness_after_loss(0.37, 0.0, 0.6) == pytest.approx(0.6 * 0.37, abs=1e-15)
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and exact_limits and count >= 900 and elapsed < 5.0
    report(7, ok, f"brightness-under-loss closed form vs thinning: max diff "
                  f"{worst:.1e} over {count} grid points (1e-10), limits exact, {elapsed:.2f}s")


def test_criterion_8_montecarlo_oracle(table1, tmp_path):
    import dataclasses

    start = time.perf_counter()
    cfg = dataclasses.replace(
        table1,
        db_grid=[0.0, 5.0, 10.0, 15.0, 20.0],
        mu_list=[0.0, 0.05, 0.269],
        n_pulses=10_000_000,
        seed=20260810,
    )
    failed = []
    rows = montecarlo_rows(cfg)
    for index, row in enumerate(rows):
        if not row[-1]:
            failed.append(index)
    retried = []
    if failed:
        # documented retry-once policy for 3-sigma false failures
        for index in failed:
            retry_cfg = dataclasses.replace(cfg, seed=cfg.seed + 10_000_019)
            retry_row = montecarlo_rows(retry_cfg)[index]
            if not retry_row[-1]:
                retried.append(index)
    # fixed seed reproduces byte-identical CSV
    def csv_bytes():
        lines = [",".join(MONTECARLO_COLUMNS)]
        lines += [",".join(_format_value(v) for v in row) for row in montecarlo_rows(cfg)]
        return ("\n".join(lines) + "\n").encode()

    identical = csv_bytes() == csv_bytes()
    elapsed = time.perf_counter() - start
    ok = not retried and identical and elapsed < 300.0
    report(8, ok, f"Monte Carlo 3-sigma agreement on 15 cells at 1e7 pulses "
                  f"(first-pass misses: {len(failed)}, after retry: {len(retried)}), "
                  f"byte-identical CSV: {identical}, {elapsed:.1f}s")


def test_criterion_9_nonmonotone_distance(table1):
    start = time.perf_counter()
    db_grid = np.arange(0.0, 60.01, 0.25)
    best = {}
    for brightness in SUPP_BRIGHTNESS:
        dist = qd_distribution(QdSourceParams(brightness, 0.01))
        positive = [
            db for db in db_grid
            if gllp_skr(dist, table1.channel.with_attenuation(db), table1.detector).skr_per_pulse > 0
        ]
        best[brightness] = max(positive) if positive else -1.0
    winner = max(best, key=best.get)
    elapsed = time.perf_counter() - start
    ok = winner < 1.0 and best[winner] > best[1.0] and elapsed < 30.0
    report(9, ok, f"longest positive-SKR attenuation at brightness {winner:.0%} "
                  f"({best[winner]:.2f} dB) vs {best[1.0]:.2f} dB at 100%, {elapsed:.2f}s")


def test_criterion_10_estimation_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(1000):
        g2 = rng.uniform(1e-6, 0.45)
        b = rng.uniform(0.0, min(1.0, 1.0 / (2 * g2)))
        mu = rng.uniform(0.0, 2.0)
        eta0 = rng.uniform(0.05, 1.0)
        p_dc = rng.uniform(0.0, 0.01)
        p0, p1, p2 = qd_distribution(QdSourceParams(b, g2)).probs
        p_qd = 1.0 - p0 - p1 * (1.0 - eta0) - p2 * (1.0 - eta0) ** 2
        p_laser = 1.0 - math.exp(-eta0 * mu)
        p_click = compose_click_probability(p_dc, p_qd, p_laser)
        recovered = infer_mu_laser(ClickObservables(p_click, p_dc, p_qd, eta0))
        worst = max(worst, abs(recovered - mu))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(10, ok, f"compose -> infer recovers mu_laser over 1000 draws, "
                   f"max error {worst:.1e} (1e-9), {elapsed:.2f}s")
