import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hybridqkd.cli import main

DATA = Path(__file__).parent / "data"
TINY = str(DATA / "tiny.profile")
SRC = Path(__file__).parent.parent / "src"


def test_cli_import_leaves_scipy_out():
    code = "import sys, hybridqkd.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0


@pytest.mark.parametrize("command", [
    ["threshold", "-c", "ideal", "--threshold.brightness=0", "--channel.db=0"],
    ["figures", "-c", TINY, "--channel.db=0", "--threshold.brightness=0"],
])
def test_closed_stdout_pipe_exits_quietly(command, tmp_path):
    # The reader closes the pipe before the command writes, as `| head` does
    # once it has its lines.
    if command[0] == "figures":
        command = command + ["--outdir", str(tmp_path)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hybridqkd.cli", *command],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": str(SRC)},
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


@pytest.mark.parametrize("case", [
    "unwritable_out", "profile_is_directory", "outdir_is_file", "empty_csv", "profile_not_utf8",
    "csv_not_utf8",
])
def test_unusable_file_is_error_not_traceback(case, tmp_path, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    bad_profile = tmp_path / "latin1.profile"
    bad_profile.write_bytes(Path(TINY).read_bytes() + "# \xb5\n".encode("latin-1"))
    bad_csv = tmp_path / "latin1.csv"
    bad_csv.write_bytes("db,skr_per_pulse \xb5\n0,1\n".encode("latin-1"))
    missing_out = tmp_path / "missing" / "x.csv"
    argv, path = {
        "unwritable_out": (["scan", "-c", TINY, "-o", str(missing_out)], missing_out),
        "profile_is_directory": (["scan", "-c", str(tmp_path)], tmp_path),
        "outdir_is_file": (["figures", "-c", TINY, "--outdir", str(a_file)], a_file),
        "empty_csv": (["plotscript", str(a_file)], a_file),
        "profile_not_utf8": (["scan", "-c", str(bad_profile)], bad_profile),
        "csv_not_utf8": (["plotscript", str(bad_csv)], bad_csv),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err


class TestScan:
    def test_golden_file(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "-c", TINY, "-o", str(out)]) == 0
        golden = (DATA / "scan_golden.csv").read_bytes()
        assert out.read_bytes() == golden

    def test_km_conversion_in_rows(self, tmp_path, capsys):
        assert main(["scan", "-c", TINY]) == 0
        rows = capsys.readouterr().out.splitlines()
        km_index = rows[0].split(",").index("km")
        by_db = {line.split(",")[0]: line.split(",")[km_index] for line in rows[1:]}
        assert by_db["21"] == "100"

    def test_empty_mu_list_is_config_error(self, tmp_path):
        profile = tmp_path / "bad.profile"
        text = Path(TINY).read_text().replace("mu = 0, 0.1\n", "")
        profile.write_text(text)
        assert main(["scan", "-c", str(profile)]) == 2

    def test_engine_domain_error_exits_3(self):
        code = main(
            [
                "scan", "-c", TINY,
                "--source.brightness=0", "--source.g2=0", "--detector.y0=0",
            ]
        )
        assert code == 3


class TestConfigHandling:
    def test_unknown_key_reports_line_number(self, tmp_path, capsys):
        profile = tmp_path / "bad.profile"
        profile.write_text("[source]\nbrightness = 0.1\nwavelength = 925\ng2 = 0\n")
        assert main(["scan", "-c", str(profile)]) == 2
        assert ":3:" in capsys.readouterr().err

    def test_both_y0_and_dark_rate_rejected(self, tmp_path):
        profile = tmp_path / "bad.profile"
        profile.write_text(Path(TINY).read_text().replace(
            "y0 = 1e-6", "y0 = 1e-6\ndark_rate_hz = 100"
        ))
        assert main(["scan", "-c", str(profile)]) == 2

    def test_both_db_and_km_rejected(self, tmp_path, capsys):
        profile = tmp_path / "bad.profile"
        profile.write_text(Path(TINY).read_text().replace("db = 0, 10, 21", "db = 0\nkm = 5"))
        assert main(["scan", "-c", str(profile)]) == 2
        err = capsys.readouterr().err
        assert f"{profile}:11: exactly one of 'db' or 'km' must be given in [channel]" in err

    def test_neither_db_nor_km_rejected(self, tmp_path, capsys):
        # with no entry there is no line to name, so only the file is reported
        profile = tmp_path / "bad.profile"
        profile.write_text(Path(TINY).read_text().replace("db = 0, 10, 21\n", ""))
        assert main(["scan", "-c", str(profile)]) == 2
        err = capsys.readouterr().err
        assert f"{profile}: exactly one of 'db' or 'km' must be given in [channel]" in err

    def test_override_tokens(self, tmp_path, capsys):
        assert main(["scan", "-c", TINY, "--channel.db=3", "--laser.mu=0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("3,")

    @pytest.mark.parametrize(
        "override",
        [
            "--run.n_pulses=1e30",
            "--run.n_pulses=inf",
            "--laser.mu=nan",
            "--channel.db=nan",
            "--channel.db=1e400",
            "--channel.db=0:1e300:1e-300",
            "--channel.db=0:60:1e-6",
        ],
    )
    def test_non_finite_and_runaway_numbers_rejected(self, override, capsys):
        assert main(["scan", "-c", TINY, override]) == 2
        target = override.split("=", 1)[0]
        assert capsys.readouterr().err.startswith(f"error: {target}: ")

    def test_laser_mu_bounded_by_mu_max(self, tmp_path, capsys):
        start = time.perf_counter()
        assert main(["montecarlo", "-c", TINY, "--laser.mu=1e6", "--channel.db=0"]) == 2
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().err.startswith("error: --laser.mu: ")
        profile = tmp_path / "bright.profile"
        profile.write_text(Path(TINY).read_text().replace("mu = 0, 0.1", "mu = 0, 5.5"))
        assert main(["scan", "-c", str(profile)]) == 2
        assert f"{profile}:8: " in capsys.readouterr().err
        assert main(["scan", "-c", TINY, "--laser.mu=5", "--channel.db=0"]) == 0

    @pytest.mark.parametrize("where", ["override", "profile"])
    @pytest.mark.parametrize("section,key,value,edits", [
        # y0 derived from the dark rate divides by the repetition rate
        ("detector", "rep_rate_hz", "0", {"y0 = 1e-6": "dark_rate_hz = 1"}),
        ("source", "brightness", "2", {}),
        # read after e_d, so the sum e0 + e_d is checked at the e0 entry
        ("detector", "e0", "1", {"e_d = 0.01": "e_d = 0.5"}),
        ("threshold", "brightness", "2", {}),
        ("figures", "error_rates", "0.7", {}),
        ("figures", "ratios", "1", {}),
        # a dark source has no laser mu that gives a ratio other than 0
        ("figures", "ratios", "0.5", {"brightness = 0.04": "brightness = 0"}),
        ("figures", "ratios", "-0.5", {"brightness = 0.04": "brightness = 0"}),
        # km * alpha overflows to an infinite attenuation
        ("channel", "km", "1e300", {"db = 0, 10, 21": "km = 1", "alpha = 0.21": "alpha = 1e10"}),
    ])
    def test_bad_value_named_at_its_entry_before_output(
        self, section, key, value, edits, where, tmp_path, capsys
    ):
        text = Path(TINY).read_text()
        for old, new in edits.items():
            text = text.replace(old, new)
        profile = tmp_path / "probe.profile"
        if where == "override":
            profile.write_text(text)
            extra, located = [f"--{section}.{key}={value}"], f"--{section}.{key}"
        else:
            # a later [section] entry replaces the earlier one
            profile.write_text(text + f"[{section}]\n{key} = {value}\n")
            extra, located = [], f"{profile}:{len(text.splitlines()) + 2}"
        outdir = tmp_path / "figs"
        assert main(["figures", "-c", str(profile), "--outdir", str(outdir), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {located}: ")
        assert "Traceback" not in err
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_omitted_keys_take_the_model_defaults(self, tmp_path):
        from hybridqkd import ChannelModel, DetectorModel
        from hybridqkd.config import load_config

        profile = tmp_path / "bare.profile"
        profile.write_text("".join(
            line for line in Path(TINY).read_text().splitlines(keepends=True)
            if line.split("=")[0].strip() not in {"alpha", "eta0", "e0", "f_ec", "rep_rate_hz"}
        ))
        cfg = load_config(str(profile))
        assert cfg.channel == ChannelModel()
        assert cfg.detector == DetectorModel(e_d=0.01, y0=1e-6)

    @pytest.mark.parametrize(
        "override", ["--run.output=", "--detector.dark_rate_hz=", "--channel.db= "]
    )
    def test_empty_override_value_rejected(self, override, capsys):
        # as an empty value in a profile is: "file:line: empty value for 'key'"
        assert main(["scan", "-c", TINY, override]) == 2
        target = override.split("=", 1)[0]
        key = target.split(".", 1)[1]
        assert capsys.readouterr().err == f"error: {target}: empty value for '{key}'\n"

    @pytest.mark.parametrize("section,key", [
        ("laser", "optimize"),
        # fixed sweeps that every accepted profile can run
        ("threshold", "db"),
        ("figures", "brightness"),
        ("figures", "mu_brightness"),
        ("figures", "sweep_g2"),
    ])
    def test_removed_laser_optimize_key_is_unknown(self, section, key, tmp_path, capsys):
        assert main(["scan", "-c", TINY, f"--{section}.{key}=1"]) == 2
        assert f"unknown override --{section}.{key}" in capsys.readouterr().err
        text = Path(TINY).read_text()
        profile = tmp_path / "removed.profile"
        profile.write_text(text + f"[{section}]\n{key} = 1\n")
        assert main(["scan", "-c", str(profile)]) == 2
        assert capsys.readouterr().err == (
            f"error: {profile}:{len(text.splitlines()) + 2}: "
            f"unknown key '{key}' in section [{section}]\n"
        )

    def test_malformed_override_rejected(self, capsys):
        assert main(["scan", "-c", TINY, "--bogus"]) == 2

    def test_unknown_profile_name(self):
        assert main(["scan", "-c", "no_such_profile"]) == 2

    def test_profile_dir_env(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mine.profile").write_text(Path(TINY).read_text())
        monkeypatch.setenv("HYBRIDQKD_PROFILE_DIR", str(tmp_path))
        assert main(["scan", "-c", "mine"]) == 0

    def test_bundled_profiles_load(self, capsys):
        assert main(["scan", "-c", "table1", "--channel.db=0", "--laser.mu=0"]) == 0
        assert main(["scan", "-c", "ideal", "--channel.db=0", "--laser.mu=0"]) == 0

    def test_readme_profile_grammar_lists_the_known_keys(self):
        from hybridqkd.config import _KNOWN_KEYS

        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        listed = {}
        # one [section] line each, with its indented continuation lines
        for entry in re.split(r"^(?=\[)", block, flags=re.M)[1:]:
            section, keys = entry[1:].split("]", 1)
            keys = re.sub(r"\([^)]*\)", "", keys).replace("exactly one of", "")
            listed[section] = {key.strip() for key in re.split(r"[,|]", keys)}
        assert listed == _KNOWN_KEYS

    def test_table1_qd_curve_dies_near_30db(self, capsys):
        assert main(["scan", "-c", "table1", "--laser.mu=0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        header = rows[0].split(",")
        skr_index = header.index("skr_per_pulse")
        positive = [
            float(row.split(",")[0])
            for row in rows[1:]
            if float(row.split(",")[skr_index]) > 0.0
        ]
        assert 28.0 <= max(positive) <= 32.0


class TestOptimizeCommand:
    def test_golden_file(self, tmp_path):
        out = tmp_path / "optimize.csv"
        assert main(["optimize", "-c", TINY, "-o", str(out)]) == 0
        assert out.read_bytes() == (DATA / "optimize_golden.csv").read_bytes()

    def test_single_point_matches_api(self, tmp_path, capsys):
        from hybridqkd import ChannelModel, DetectorModel, QdSourceParams, optimize_mu_laser

        assert main(["optimize", "-c", TINY, "--channel.db=5"]) == 0
        rows = capsys.readouterr().out.splitlines()
        header = rows[0].split(",")
        values = rows[1].split(",")
        direct = optimize_mu_laser(
            QdSourceParams(0.04, 0.01),
            5.0,
            ChannelModel(fiber_alpha=0.21, eta0=1.0),
            DetectorModel(e_d=0.01, y0=1e-6, e0=0.5, f_ec=1.2, rep_rate_hz=1e6),
        )
        assert float(values[header.index("mu_laser_opt")]) == pytest.approx(
            direct.mu_laser_opt, abs=1e-9
        )
        assert float(values[header.index("skr_opt")]) == pytest.approx(
            direct.skr_opt, rel=1e-6
        )
        assert values[header.index("crossover")] == (
            "true" if direct.mu_laser_opt == 0.0 else "false"
        )


class TestMonteCarloCommand:
    def test_golden_file(self, tmp_path):
        # three blocks per cell, the last one partial, and a long k tail at mu = 5
        out = tmp_path / "montecarlo.csv"
        argv = ["montecarlo", "-c", "table1", "--channel.db=0,20", "--laser.mu=0,0.269,5",
                "--run.n_pulses=2500000", "--run.seed=20260810", "-o", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (DATA / "montecarlo_golden.csv").read_bytes()

    def test_click_with_photon_and_dark_count_errs_with_e_d_plus_e0(self, capsys):
        # y0 = 0.1 beside a brightness-1/2 dot and e_d = 0: a tenth of the
        # photon clicks coincide with a dark count and err with e_d + e0 = 1/2,
        # so E_tot = e0 y0 / Q_tot = 0.05 / 0.55 = 0.0909
        argv = ["montecarlo", "-c", "ideal", "--detector.y0=0.1", "--channel.db=0",
                "--laser.mu=0", "--run.n_pulses=1000000"]
        assert main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["pass"] == "true"
        assert float(cells["e_tot_hat"]) == pytest.approx(0.0909, abs=0.002)

    def test_repeated_seed_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["montecarlo", "-c", TINY, "--run.n_pulses=20000", "--channel.db=0,5"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("n_errors,expected", [(1, "true"), (40, "false")])
    def test_pass_uses_standard_error_under_analytic_values(
        self, n_errors, expected, monkeypatch, capsys
    ):
        # About 9 errors expected. One recorded error has a plug-in standard error
        # near 1/n_sifted, which puts the cell 8 sigma out; under the analytic
        # E it is 2.7 sigma out. 40 errors fail either way.
        from hybridqkd import SimTally, cli

        cfg = cli.load_config(TINY, {("channel", "db"): "0", ("laser", "mu"): "0"})
        dist = cli.qd_distribution(cfg.source)
        analytic = cli.gllp_skr(dist, cfg.channel.with_attenuation(0.0), cfg.detector)
        n = round(18.0 / (analytic.q_tot * analytic.e_tot))
        n_clicks = round(analytic.q_tot * n)
        n_sifted = n_clicks // 2
        q_hat, e_hat = n_clicks / n, n_errors / n_sifted
        tally = SimTally(
            n, n_clicks, n_sifted, n_errors, q_hat, e_hat,
            math.sqrt(q_hat * (1.0 - q_hat) / n), math.sqrt(e_hat * (1.0 - e_hat) / n_sifted),
        )
        monkeypatch.setattr(cli, "simulate", lambda config: tally)
        assert main(["montecarlo", "-c", TINY, "--channel.db=0", "--laser.mu=0"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith("," + expected)

    def test_zero_pulses_rejected(self):
        assert main(["montecarlo", "-c", TINY, "--run.n_pulses=0"]) == 2

    def test_schema(self, capsys):
        assert main(["montecarlo", "-c", TINY, "--run.n_pulses=10000", "--channel.db=0"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == (
            "db,mu_laser,q_tot_analytic,q_tot_hat,stderr_q,"
            "e_tot_analytic,e_tot_hat,stderr_e,skr_analytic,skr_empirical,pass"
        )


class TestThresholdCommand:
    def test_golden_report_and_grid(self, capsys):
        assert main(["threshold", "-c", TINY]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (DATA / "threshold_golden.txt").read_bytes()

    def test_ideal_profile_thresholds(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "threshold", "-c", "ideal", "-o", str(out),
                "--threshold.brightness=0,0.5", "--channel.db=0,10",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        lines = dict(
            line.split(" = ") for line in text.strip().splitlines() if " = " in line
        )
        assert float(lines["unconditional_advantage_brightness"]) == pytest.approx(
            0.5, abs=1e-3
        )
        assert float(lines["laser_beat_brightness"]) == pytest.approx(0.36788, abs=1e-3)
        grid = out.read_text().splitlines()
        assert grid[0] == "brightness,db,km,mu_laser_opt,ratio_opt,skr_opt"
        # brightness-zero rows are the laser-only optimal-mu column
        first = grid[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == pytest.approx(1.0, abs=1e-3)


class TestFiguresCommand:
    def test_golden_files(self, tmp_path, capsys):
        figdir = tmp_path / "figs"
        assert main(["figures", "-c", TINY, "--outdir", str(figdir)]) == 0
        golden = DATA / "figures_golden"
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in figdir.iterdir()) == names
        for name in names:
            assert (figdir / name).read_bytes() == (golden / name).read_bytes(), name

    def test_writes_all_figures(self, tmp_path):
        code = main(
            [
                "figures", "-c", TINY, "--outdir", str(tmp_path / "figs"),
                "--channel.db=0,5",
                "--figures.ratios=0,0.5",
                "--figures.error_rates=0.01",
                "--threshold.brightness=0,0.5",
            ]
        )
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "figs").glob("*.csv"))
        assert names == [
            "fig2_skr_vs_attenuation.csv",
            "fig3_optimized_scaling.csv",
            "fig4a_optimal_ratio_grid.csv",
            "supp_brightness_sweep.csv",
            "supp_error_rate_sweep.csv",
            "supp_optimal_mu.csv",
        ]
        fig2 = (tmp_path / "figs" / "fig2_skr_vs_attenuation.csv").read_text().splitlines()
        assert fig2[0].startswith("ratio_label,db,km,mu_laser")

    @pytest.mark.parametrize("argv,key,value", [
        # the default ratio 0.868 needs mu = 6.6 mu_qd, above MU_MAX on this source
        (["-c", "table1", "--source.brightness=0.9"], "ratios", "0.868"),
        # the default error rate 0.05 gives e0 + e_d = 1.02
        (["-c", "ideal", "--detector.e0=0.97", "--channel.db=0"], "error_rates", "1.02"),
    ])
    def test_default_ratio_out_of_range_writes_nothing(self, argv, key, value, tmp_path, capsys):
        outdir = tmp_path / "figs"
        assert main(["figures", *argv, "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: default [figures] {key}: ")
        assert value in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_fig2_ratio_matches_its_label(self, tmp_path):
        figdir = tmp_path / "figs"
        assert main(["figures", "-c", "table1", "--outdir", str(figdir)]) == 0
        rows = (figdir / "fig2_skr_vs_attenuation.csv").read_text().splitlines()
        ratio = rows[0].split(",").index("ratio")
        for row in rows[1:]:
            values = row.split(",")
            assert float(values[ratio]) == pytest.approx(float(values[0]), rel=1e-9, abs=0.0)

    def test_zero_ratio_on_a_dark_source(self, tmp_path):
        figdir = tmp_path / "figs"
        argv = [
            "figures", "-c", TINY, "--outdir", str(figdir),
            "--source.brightness=0", "--figures.ratios=0",
        ]
        assert main(argv) == 0
        assert len(list(figdir.iterdir())) == 6

    def test_fig2_zero_ratio_matches_scan(self, tmp_path, capsys):
        figdir = tmp_path / "figs"
        assert main(
            [
                "figures", "-c", TINY, "--outdir", str(figdir),
                "--figures.ratios=0", "--threshold.brightness=0",
                "--figures.error_rates=0.01",
            ]
        ) == 0
        capsys.readouterr()  # drop the printed file list
        assert main(["scan", "-c", TINY, "--laser.mu=0"]) == 0
        scan_rows = capsys.readouterr().out.splitlines()[1:]
        fig_rows = (figdir / "fig2_skr_vs_attenuation.csv").read_text().splitlines()[1:]
        stripped = [row.split(",", 1)[1] for row in fig_rows]
        assert stripped == scan_rows


class TestPlotScript:
    def test_emits_gnuplot_text(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "-c", TINY, "-o", str(out)]) == 0
        assert main(["plotscript", str(out), "--y", "skr_per_pulse"]) == 0
        script = (tmp_path / "scan.csv.gp").read_text()
        assert "set datafile separator ','" in script
        assert "plot 'scan.csv' using 1:10 with lines" in script

    def test_unknown_column_rejected(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "-c", TINY, "-o", str(out)]) == 0
        assert main(["plotscript", str(out), "--y", "nope"]) == 2

    def test_missing_file_rejected(self):
        assert main(["plotscript", "/no/such/file.csv"]) == 2
