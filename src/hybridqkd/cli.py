"""Command-line front end: sweeps, optimization, thresholds, Monte Carlo.

Every command reads a profile (bundled name or path), applies any
``--section.key=value`` overrides, and emits CSV with a fixed column order.
Exit codes: 0 success, 2 configuration error or a file that cannot be read
or written (missing, a directory, not UTF-8, a CSV without header), 3 domain
error from the engine, 141 (128 + SIGPIPE, as the shell reports a writer
killed by a closed pipe) when the reader of stdout stops early, as ``| head``
does; it prints nothing.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from .channel import db_to_km
from .config import RunConfig, load_config, ratio_to_mu, read_text
from .errors import ConfigError, DomainError
from .montecarlo import SimConfig, empirical_skr, simulate
from .optimize import (
    crossover_attenuation,
    laser_beat_brightness,
    optimize_mu_laser,
    qd_only_skr,
    skr_scan,
    unconditional_advantage_brightness,
)
from .photon_stats import QdSourceParams, hybrid_distribution, mean_photon_number, qd_distribution
from .security import gllp_skr

SCAN_COLUMNS = [
    "db", "km", "mu_laser", "mu_mixed", "ratio", "g2_hybrid",
    "q_tot", "e_tot", "a_fraction", "skr_per_pulse", "skr_per_second", "clamped",
]
OPTIMIZE_COLUMNS = [
    "db", "km", "mu_laser_opt", "ratio_opt", "purity_opt",
    "skr_opt", "skr_qd_only", "skr_laser_only_opt", "crossover",
]
THRESHOLD_COLUMNS = ["brightness", "db", "km", "mu_laser_opt", "ratio_opt", "skr_opt"]
MONTECARLO_COLUMNS = [
    "db", "mu_laser", "q_tot_analytic", "q_tot_hat", "stderr_q",
    "e_tot_analytic", "e_tot_hat", "stderr_e", "skr_analytic", "skr_empirical", "pass",
]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) < 1e-3:
            return f"{value:.9e}"
        return f"{value:.9g}"
    return str(value)


def _write_csv(columns: list[str], rows: list[tuple], out: str | None):
    lines = [",".join(columns)]
    lines.extend(",".join(_format_value(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _scan_row(p) -> tuple:
    """One SCAN_COLUMNS row."""
    r = p.report
    return (
        p.attenuation_db, p.km, p.mu_laser, p.mu_mixed, p.mix_ratio, p.g2_hybrid,
        r.q_tot, r.e_tot, r.a_fraction, r.skr_per_pulse, r.skr_per_second, r.clamped,
    )


def cmd_scan(cfg: RunConfig, args) -> int:
    if not cfg.mu_list:
        raise ConfigError("scan needs a nonempty 'mu' list in [laser]")
    points = skr_scan(cfg.source, cfg.mu_list, cfg.db_grid, cfg.channel, cfg.detector)
    _write_csv(SCAN_COLUMNS, [_scan_row(p) for p in points], args.out or cfg.output)
    return 0


def _optimize_rows(cfg: RunConfig, db_grid) -> list[tuple]:
    laser_only = QdSourceParams(0.0, 0.0)
    rows = []
    for db in db_grid:
        best = optimize_mu_laser(cfg.source, db, cfg.channel, cfg.detector)
        qd_only = qd_only_skr(cfg.source, db, cfg.channel, cfg.detector)
        laser_best = optimize_mu_laser(laser_only, db, cfg.channel, cfg.detector)
        rows.append(
            (
                db, db_to_km(db, cfg.channel.fiber_alpha), best.mu_laser_opt, best.mix_ratio,
                best.purity_at_opt, best.skr_opt, qd_only, laser_best.skr_opt,
                best.mu_laser_opt == 0.0,
            )
        )
    return rows


def cmd_optimize(cfg: RunConfig, args) -> int:
    _write_csv(OPTIMIZE_COLUMNS, _optimize_rows(cfg, cfg.db_grid), args.out or cfg.output)
    return 0


def _optimum_rows(cfg: RunConfig, cases, db_grid) -> list[tuple]:
    """(label, db, km, mu_laser_opt, ratio_opt, skr_opt) for every
    (label, source, detector) case and attenuation, in that order."""
    rows = []
    for label, qd, det in cases:
        for db in db_grid:
            best = optimize_mu_laser(qd, db, cfg.channel, det)
            rows.append(
                (
                    label, db, db_to_km(db, cfg.channel.fiber_alpha),
                    best.mu_laser_opt, best.mix_ratio, best.skr_opt,
                )
            )
    return rows


def threshold_grid_rows(cfg: RunConfig, brightnesses, db_grid) -> list[tuple]:
    """Optimal admixture per brightness and attenuation; brightness 0 is laser-only."""
    cases = ((b, QdSourceParams(b, cfg.source.g2), cfg.detector) for b in brightnesses)
    return _optimum_rows(cfg, cases, db_grid)


def cmd_threshold(cfg: RunConfig, args) -> int:
    crossover_db = crossover_attenuation(cfg.source, cfg.channel, cfg.detector)
    unconditional = unconditional_advantage_brightness(cfg.source.g2, cfg.detector, cfg.channel)
    laser_beat = laser_beat_brightness(cfg.source.g2, cfg.detector, cfg.channel)
    crossover = "none" if crossover_db is None else _format_value(crossover_db)
    print(f"crossover_db = {crossover}")
    print(f"unconditional_advantage_brightness = {_format_value(unconditional)}")
    print(f"laser_beat_brightness = {_format_value(laser_beat)}")
    rows = threshold_grid_rows(cfg, cfg.threshold_brightness, cfg.threshold_db)
    out = args.out or cfg.output
    if out is None:
        print()
    _write_csv(THRESHOLD_COLUMNS, rows, out)
    return 0


def _within_three_sigma(tally, analytic) -> bool:
    """Both simulated totals lie within 3 sigma of the analytic values.

    Sigma is the binomial standard error under the analytic values, not the
    plug-in one in the CSV: a cell that records only one or two errors has a
    plug-in error near zero, which would flag a sound run. With no sifted
    click the error rate is unobserved and only the gain is tested.
    """
    q, e = analytic.q_tot, analytic.e_tot
    ok_q = abs(tally.q_tot_hat - q) <= 3.0 * math.sqrt(q * (1.0 - q) / tally.n_pulses)
    if tally.n_sifted == 0:
        return ok_q
    return ok_q and abs(tally.e_tot_hat - e) <= 3.0 * math.sqrt(e * (1.0 - e) / tally.n_sifted)


def montecarlo_rows(cfg: RunConfig) -> list[tuple]:
    qd_dist = qd_distribution(cfg.source)
    rows = []
    cell = 0
    for db in cfg.db_grid:
        ch = cfg.channel.with_attenuation(db)
        for mu in cfg.mu_list:
            dist = hybrid_distribution(qd_dist, mu)
            analytic = gllp_skr(dist, ch, cfg.detector)
            tally = simulate(
                SimConfig(cfg.n_pulses, cfg.seed + cell, dist, ch.transmissivity, cfg.detector)
            )
            skr_mc = empirical_skr(tally, cfg.detector, dist) if tally.n_clicks else 0.0
            rows.append(
                (
                    db, mu, analytic.q_tot, tally.q_tot_hat, tally.stderr_q,
                    analytic.e_tot, tally.e_tot_hat, tally.stderr_e,
                    analytic.skr_per_pulse, skr_mc, _within_three_sigma(tally, analytic),
                )
            )
            cell += 1
    return rows


def cmd_montecarlo(cfg: RunConfig, args) -> int:
    if not cfg.mu_list:
        raise ConfigError("montecarlo needs a nonempty 'mu' list in [laser]")
    _write_csv(MONTECARLO_COLUMNS, montecarlo_rows(cfg), args.out or cfg.output)
    return 0


def figure_tables(cfg: RunConfig) -> list[tuple[str, list[str], list[tuple]]]:
    """(file name, columns, rows) of each reproduced figure."""
    # Distance scalings for fixed mixing ratios. Given ratios passed this
    # check at load, so a rejected one is a default.
    mu_qd = mean_photon_number(qd_distribution(cfg.source))
    try:
        mu_values = [ratio_to_mu(r, mu_qd) for r in cfg.figure_ratios]
    except DomainError as exc:
        raise ConfigError(f"default [figures] ratios: {exc}") from None
    points = skr_scan(cfg.source, mu_values, cfg.db_grid, cfg.channel, cfg.detector)
    labels = cfg.figure_ratios * len(cfg.db_grid)
    fig2 = [(label,) + _scan_row(p) for label, p in zip(labels, points)]

    # Optimized distance scaling for a range of misalignment error rates.
    error_cases = (
        (e_d, cfg.source, dataclasses.replace(cfg.detector, e_d=e_d))
        for e_d in cfg.figure_error_rates
    )

    # Single-photon-only distance scaling for a range of brightnesses.
    brightness_rows = []
    for brightness in cfg.figure_brightness:
        qd = QdSourceParams(brightness, cfg.figure_sweep_g2)
        dist = qd_distribution(qd)
        for db in cfg.db_grid:
            ch = cfg.channel.with_attenuation(db)
            try:
                report = gllp_skr(dist, ch, cfg.detector)
                skr, clamped = report.skr_per_pulse, report.clamped
            except DomainError:
                skr, clamped = 0.0, True
            brightness_rows.append((brightness, db, ch.km, skr, clamped))

    # Optimal laser mean photon number for several brightnesses (0 = laser
    # only), without the ratio column.
    mu_rows = threshold_grid_rows(cfg, cfg.figure_mu_brightness, cfg.db_grid)
    return [
        ("fig2_skr_vs_attenuation.csv", ["ratio_label"] + SCAN_COLUMNS, fig2),
        # Optimized admixture, purity, and SKR against attenuation.
        ("fig3_optimized_scaling.csv", OPTIMIZE_COLUMNS, _optimize_rows(cfg, cfg.db_grid)),
        # Optimal ratio over the brightness x attenuation plane.
        (
            "fig4a_optimal_ratio_grid.csv", THRESHOLD_COLUMNS,
            threshold_grid_rows(cfg, cfg.threshold_brightness, cfg.threshold_db),
        ),
        (
            "supp_error_rate_sweep.csv", ["e_d"] + THRESHOLD_COLUMNS[1:],
            _optimum_rows(cfg, error_cases, cfg.db_grid),
        ),
        (
            "supp_brightness_sweep.csv", ["brightness", "db", "km", "skr_per_pulse", "clamped"],
            brightness_rows,
        ),
        (
            "supp_optimal_mu.csv", THRESHOLD_COLUMNS[:4] + THRESHOLD_COLUMNS[5:],
            [row[:4] + row[5:] for row in mu_rows],
        ),
    ]


def cmd_figures(cfg: RunConfig, args) -> int:
    tables = figure_tables(cfg)
    outdir = Path(args.outdir or cfg.output or "figures")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, columns, rows in tables:
        _write_csv(columns, rows, str(outdir / name))
        print(outdir / name)
    return 0


def cmd_plotscript(args) -> int:
    csv_path = Path(args.csv)
    lines = read_text(csv_path).splitlines()
    if not lines:
        raise ConfigError(f"CSV file has no header line: {args.csv}")
    header = lines[0].split(",")
    for name in (args.x, args.y):
        if name not in header:
            raise ConfigError(f"column '{name}' not in {args.csv} (has: {', '.join(header)})")
    x_col = header.index(args.x) + 1
    y_col = header.index(args.y) + 1
    script = "\n".join(
        [
            "set datafile separator ','",
            "set key autotitle columnhead",
            f"set xlabel '{args.x}'",
            f"set ylabel '{args.y}'",
            "set logscale y" if args.logy else "unset logscale y",
            f"plot '{csv_path.name}' using {x_col}:{y_col} with lines",
            "pause -1",
        ]
    ) + "\n"
    out = csv_path.with_suffix(csv_path.suffix + ".gp")
    out.write_text(script, encoding="utf-8")
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridqkd",
        description="BB84 secret-key rates for hybrid quantum-dot / laser statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-c", "--config", default="table1",
                       help="profile name or path (default: table1)")
        p.add_argument("-o", "--out", default=None, help="CSV output path (default: stdout)")

    add_common(sub.add_parser("scan", help="SKR over the attenuation x admixture grid"))
    add_common(sub.add_parser("optimize", help="optimal laser admixture per attenuation"))
    add_common(sub.add_parser("threshold", help="advantage thresholds and ratio grid"))
    add_common(sub.add_parser("montecarlo", help="pulse-level simulation vs analytics"))
    figures = sub.add_parser("figures", help="write one CSV per reproduced figure")
    figures.add_argument("-c", "--config", default="table1")
    figures.add_argument("--outdir", default=None, help="output directory (default: figures)")
    plot = sub.add_parser("plotscript", help="emit a gnuplot script for a CSV")
    plot.add_argument("csv")
    plot.add_argument("--x", default="db")
    plot.add_argument("--y", default="skr_per_pulse")
    plot.add_argument("--logy", action="store_true", default=True)
    plot.add_argument("--no-logy", dest="logy", action="store_false")
    return parser


def _parse_override_tokens(tokens: list[str]) -> dict[tuple[str, str], str]:
    overrides: dict[tuple[str, str], str] = {}
    for token in tokens:
        if not token.startswith("--") or "=" not in token or "." not in token.split("=", 1)[0]:
            raise ConfigError(
                f"unrecognized argument {token!r} (overrides look like --section.key=value)"
            )
        target, value = token[2:].split("=", 1)
        section, key = target.split(".", 1)
        overrides[(section, key)] = value
    return overrides


_COMMANDS = {
    "scan": cmd_scan,
    "optimize": cmd_optimize,
    "threshold": cmd_threshold,
    "montecarlo": cmd_montecarlo,
    "figures": cmd_figures,
}


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if args.command == "plotscript":
            if extras:
                raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
            code = cmd_plotscript(args)
        else:
            cfg = load_config(args.config, _parse_override_tokens(extras))
            code = _COMMANDS[args.command](cfg, args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Point stdout at devnull so that the final flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
