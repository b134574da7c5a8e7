"""Output checks for the benchmark workloads, run outside the timed span.

The scan oracle is an independent closed form of the model for the
``table1`` profile. The hybrid source convolves the quantum-dot
distribution (p0, p1, p2) with Poisson(mu), and threshold detection only
sees the probability that no photon arrives,
G = (p0 + p1 (1 - eta) + p2 (1 - eta)^2) e^(-mu eta):

    Q_tot         = 1 - (1 - y0) G
    E_tot Q_tot   = e0 y0 + e_d (1 - G)
    p_m           = 1 - e^(-mu) (p0 + p1 + p0 mu)

followed by the GLLP bound. The program truncates the Poisson tail at
1e-13 and prints 9 significant digits, so values must agree to a relative
1e-8 (``REL_TOL``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# table1 profile, copied from its published parameters.
BRIGHTNESS = 0.0409
G2 = 0.012
E_D = 0.008
REP_RATE_HZ = 81.96e6
Y0 = 196 / REP_RATE_HZ
E0 = 0.5
F_EC = 1.2
ETA0 = 0.9
ALPHA = 0.21

REL_TOL = 1e-8
# Threshold grid rows against the reference captured from the original
# per-cell engine: SKR to 1e-6 relative, the argmax in mu (and the mixing
# ratio derived from it) to 1e-3 absolute, a refinement-independent margin
# around the optimizer's 1e-4 resolution.
SKR_OPT_REL_TOL = 1e-6
MU_OPT_ABS_TOL = 1e-3
# Acceptance windows of the advantage thresholds.
CROSSOVER_DB = (10.0, 14.0)
UNCONDITIONAL_BRIGHTNESS = (0.4507, 0.4607)
LASER_BEAT_ABS_TOL = 1e-3
# Monte Carlo totals against the analytic values, in standard errors.
MAX_ABS_Z = 5.0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SCAN_COLUMNS = [
    "db", "km", "mu_laser", "mu_mixed", "ratio", "g2_hybrid",
    "q_tot", "e_tot", "a_fraction", "skr_per_pulse", "skr_per_second", "clamped",
]
THRESHOLD_COLUMNS = ["brightness", "db", "km", "mu_laser_opt", "ratio_opt", "skr_opt"]
MONTECARLO_COLUMNS = [
    "db", "mu_laser", "q_tot_analytic", "q_tot_hat", "stderr_q",
    "e_tot_analytic", "e_tot_hat", "stderr_e", "skr_analytic", "skr_empirical", "pass",
]


@dataclass
class CheckResult:
    """Units checked, units failed, and why."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def add(self, attempted: int, failed: int, note: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)

    def merge(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)


def grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive range built the way profiles spell ``start:stop:step``."""
    count = int((stop - start) / step + 1e-9) + 1
    return np.array([start + i * step for i in range(count)])


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    inside = (x >= 1e-300) & (x <= 1.0 - 1e-15)
    xs = np.where(inside, x, 0.5)
    return np.where(inside, -xs * np.log2(xs) - (1.0 - xs) * np.log2(1.0 - xs), 0.0)


def table1_oracle(db: np.ndarray, mu: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form scan columns for table1 at broadcast (db, mu)."""
    db, mu = np.broadcast_arrays(np.asarray(db, float), np.asarray(mu, float))
    p2 = (1.0 - G2 * BRIGHTNESS - math.sqrt(1.0 - 2.0 * G2 * BRIGHTNESS)) / G2
    p1 = BRIGHTNESS - p2
    p0 = 1.0 - BRIGHTNESS
    mu_qd = p1 + 2.0 * p2
    eta = ETA0 * 10.0 ** (-db / 10.0)
    lost = 1.0 - eta
    none_arrive = (p0 + p1 * lost + p2 * lost * lost) * np.exp(-mu * eta)
    q_tot = 1.0 - (1.0 - Y0) * none_arrive
    e_tot = (E0 * Y0 + E_D * (1.0 - none_arrive)) / q_tot
    p_m = 1.0 - np.exp(-mu) * (p0 + p1 + p0 * mu)
    q_low = q_tot - p_m
    with np.errstate(divide="ignore", invalid="ignore"):
        e_low = np.where(q_low > 0.0, e_tot * q_tot / q_low, 1.0)
    e_clip = np.clip(e_low, 0.0, 1.0)
    clamped = (q_low <= 0.0) | (e_clip >= 0.5) | (e_clip != e_low)
    skr = 0.5 * (q_low * (1.0 - _binary_entropy(e_clip)) - F_EC * q_tot * _binary_entropy(e_tot))
    mu_mixed = mu_qd + mu
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mu_mixed > 0.0, mu / mu_mixed, 0.0)
        g2 = np.where(
            mu_mixed > 0.0, (2.0 * p2 + 2.0 * mu_qd * mu + mu * mu) / (mu_mixed * mu_mixed), 0.0
        )
    return {
        "db": db,
        "km": db / ALPHA,
        "mu_laser": mu,
        "mu_mixed": mu_mixed,
        "ratio": ratio,
        "g2_hybrid": g2,
        "q_tot": q_tot,
        "e_tot": e_tot,
        "a_fraction": np.clip(q_low / q_tot, 0.0, 1.0),
        "skr_per_pulse": skr,
        "skr_per_second": np.where(clamped, 0.0, np.maximum(skr, 0.0) * REP_RATE_HZ),
        "clamped": clamped,
    }


def _read_csv(text: str, columns: list[str]) -> dict[str, list[str]] | None:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != columns:
        return None
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(columns) for row in rows):
        return None
    return {name: [row[i] for row in rows] for i, name in enumerate(columns)}


def _floats(values: list[str]) -> np.ndarray:
    return np.array([float(v) for v in values])


def _bools(values: list[str]) -> np.ndarray:
    return np.array([v == "true" for v in values])


def _close(got: np.ndarray, want: np.ndarray, rel: float, atol) -> np.ndarray:
    return np.abs(got - want) <= rel * np.abs(want) + atol


def _bad_rows(table: dict[str, list[str]], want: dict[str, np.ndarray], columns) -> np.ndarray:
    """Boolean mask of rows where any listed column misses the oracle."""
    q_scale = want["q_tot"]
    atol = {
        "skr_per_pulse": 1e-12 * q_scale,
        "skr_per_second": 1e-12 * q_scale * REP_RATE_HZ,
        "skr_analytic": 1e-12 * q_scale,
    }
    bad = np.zeros(len(q_scale), dtype=bool)
    for name, key in columns:
        if name == "clamped":
            bad |= _bools(table[name]) != want[key]
        else:
            bad |= ~_close(_floats(table[name]), want[key], REL_TOL, atol.get(name, 1e-12))
    return bad


def check_scan(csv_text: str, db: np.ndarray, mu: np.ndarray) -> CheckResult:
    """Every scan cell against the closed-form oracle (one unit per cell)."""
    result = CheckResult()
    cells = db.size * mu.size
    table = _read_csv(csv_text, SCAN_COLUMNS)
    if table is None or len(table["db"]) != cells:
        result.add(cells, cells, "scan output has the wrong header, shape or row count")
        return result
    want = table1_oracle(np.repeat(db, mu.size), np.tile(mu, db.size))
    bad = _bad_rows(table, want, [(name, name) for name in SCAN_COLUMNS])
    result.add(cells, int(bad.sum()), f"{int(bad.sum())} scan cells differ from the oracle")
    return result


def _report_values(stdout_text: str) -> dict[str, float]:
    values = {}
    for line in stdout_text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                values[key.strip()] = float(value)
            except ValueError:  # "none": no crossover
                values[key.strip()] = math.nan
    return values


def check_threshold(csv_text: str, stdout_text: str) -> CheckResult:
    """Advantage thresholds in their windows, grid rows against the reference."""
    result = CheckResult()
    ref_report = _report_values((REFERENCE_DIR / "threshold_table1_report.txt").read_text())
    report = _report_values(stdout_text)
    crossover = report.get("crossover_db", math.nan)
    result.add(1, int(not CROSSOVER_DB[0] <= crossover <= CROSSOVER_DB[1]),
               f"crossover_db = {crossover} outside {CROSSOVER_DB}")
    uncond = report.get("unconditional_advantage_brightness", math.nan)
    result.add(1, int(not UNCONDITIONAL_BRIGHTNESS[0] <= uncond <= UNCONDITIONAL_BRIGHTNESS[1]),
               f"unconditional_advantage_brightness = {uncond} outside {UNCONDITIONAL_BRIGHTNESS}")
    beat = report.get("laser_beat_brightness", math.nan)
    ref_beat = ref_report["laser_beat_brightness"]
    result.add(1, int(not abs(beat - ref_beat) <= LASER_BEAT_ABS_TOL),
               f"laser_beat_brightness = {beat}, reference {ref_beat}")

    ref = _read_csv((REFERENCE_DIR / "threshold_table1.csv").read_text(), THRESHOLD_COLUMNS)
    rows = len(ref["db"])
    table = _read_csv(csv_text, THRESHOLD_COLUMNS)
    if table is None or len(table["db"]) != rows:
        result.add(rows, rows, "threshold grid has the wrong header, shape or row count")
        return result
    got = {name: _floats(table[name]) for name in THRESHOLD_COLUMNS}
    want = {name: _floats(ref[name]) for name in THRESHOLD_COLUMNS}
    ok = np.ones(rows, dtype=bool)
    for name in ("brightness", "db", "km"):
        ok &= _close(got[name], want[name], REL_TOL, 1e-12)
    for name in ("mu_laser_opt", "ratio_opt"):
        ok &= _close(got[name], want[name], 0.0, MU_OPT_ABS_TOL)
    ok &= _close(got["skr_opt"], want["skr_opt"], SKR_OPT_REL_TOL, 1e-15)
    bad = int((~ok).sum())
    result.add(rows, bad, f"{bad} threshold grid rows differ from the reference")
    return result


def check_montecarlo(csv_text: str, db: np.ndarray, mu: np.ndarray, n_pulses: int) -> CheckResult:
    """Analytic columns against the oracle and |z| <= 5 for both totals, per cell.

    z uses the standard error under the analytic values (n_pulses pulses,
    about n_pulses Q_tot / 2 sifted clicks), not the CSV's plug-in error,
    which collapses when a cell records only one or two errors.
    """
    result = CheckResult()
    cells = db.size * mu.size
    table = _read_csv(csv_text, MONTECARLO_COLUMNS)
    if table is None or len(table["db"]) != cells:
        result.add(cells, cells, "montecarlo output has the wrong header, shape or row count")
        return result
    want = table1_oracle(np.repeat(db, mu.size), np.tile(mu, db.size))
    want["skr_analytic"] = want["skr_per_pulse"]
    bad = _bad_rows(
        table, want,
        [("db", "db"), ("mu_laser", "mu_laser"), ("q_tot_analytic", "q_tot"),
         ("e_tot_analytic", "e_tot"), ("skr_analytic", "skr_analytic")],
    )
    q, e = want["q_tot"], want["e_tot"]
    z_q = np.abs(_floats(table["q_tot_hat"]) - q) / np.sqrt(q * (1.0 - q) / n_pulses)
    z_e = np.abs(_floats(table["e_tot_hat"]) - e) / np.sqrt(e * (1.0 - e) / (0.5 * n_pulses * q))
    bad |= ~(z_q <= MAX_ABS_Z) | ~(z_e <= MAX_ABS_Z)
    result.add(cells, int(bad.sum()), f"{int(bad.sum())} Monte Carlo cells fail the oracle or |z| <= {MAX_ABS_Z}")
    result.metrics = {"max_abs_z_q": float(np.max(z_q)), "max_abs_z_e": float(np.max(z_e))}
    return result


def montecarlo_row(csv_text: str, index: int) -> list[str]:
    """Fields of data row ``index``; empty when the output is too short."""
    lines = csv_text.splitlines()
    return lines[1 + index].split(",") if 1 + index < len(lines) else []
