"""Run configuration: sectioned key=value profiles plus command-line overrides.

Grammar (one entry per line, '#' starts a comment anywhere):

    [section]
    key = value

Values are numbers, comma-separated number lists, or inclusive ranges
written start:stop:step. Each value is checked once, as it is read, by the
engine object or function that later uses it; a value it rejects is a
ConfigError at the entry that set it. Profiles are looked up as explicit
paths first, then as <name>.profile under $HYBRIDQKD_PROFILE_DIR, then among
the bundled profiles (table1, ideal).
"""
from __future__ import annotations

import dataclasses
import importlib.resources
import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .channel import ChannelModel, DetectorModel, db_to_transmissivity
from .errors import ConfigError, DomainError
from .montecarlo import SimConfig
from .photon_stats import (
    MU_MAX, QdSourceParams, mean_photon_number, poisson_distribution, qd_distribution,
)

PROFILE_DIR_ENV = "HYBRIDQKD_PROFILE_DIR"

# Most points a start:stop:step range may expand to. Dense sweeps use about
# a thousand; a million already takes minutes of SKR evaluations, and the
# count is checked before the list is built.
MAX_GRID_POINTS = 10**6

_KNOWN_KEYS = {
    "source": {"brightness", "g2"},
    "laser": {"mu"},
    "channel": {"db", "km", "alpha", "eta0"},
    "detector": {"e_d", "y0", "dark_rate_hz", "e0", "f_ec", "rep_rate_hz"},
    "run": {"n_pulses", "seed", "output"},
    "threshold": {"brightness", "db"},
    "figures": {"ratios", "error_rates", "brightness", "mu_brightness", "sweep_g2"},
}

_DEFAULT_FIGURE_RATIOS = [0.0, 0.2, 0.4, 0.6, 0.868]
_DEFAULT_ERROR_RATES = [0.0001, 0.005, 0.01, 0.02, 0.05]
_DEFAULT_FIGURE_BRIGHTNESS = [
    0.01, 0.02, 0.04, 0.07, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
]
_DEFAULT_MU_BRIGHTNESS = [0.0, 0.0409, 0.1, 0.2, 0.3, 0.45]


@dataclass
class RunConfig:
    """Typed, validated run parameters shared by all CLI commands."""

    source: QdSourceParams
    mu_list: list[float]
    db_grid: list[float]
    channel: ChannelModel
    detector: DetectorModel
    n_pulses: int
    seed: int
    output: str | None
    threshold_brightness: list[float]
    threshold_db: list[float]
    figure_ratios: list[float]
    figure_error_rates: list[float]
    figure_brightness: list[float]
    figure_mu_brightness: list[float]
    figure_sweep_g2: float


def ratio_to_mu(ratio: float, mu_qd: float) -> float:
    """The laser mean photon number mu in [0, MU_MAX] with mu / (mu_qd + mu)
    = ratio beside a source of mean photon number mu_qd. DomainError where
    there is none: a ratio outside [0, 1), a ratio above 0 beside a dark
    source (mu_qd = 0), or one that needs mu above MU_MAX."""
    mu = ratio * mu_qd / (1.0 - ratio) if 0.0 <= ratio < 1.0 else math.inf
    if mu > MU_MAX or (ratio > 0.0 and mu_qd == 0.0):
        raise DomainError(
            f"no laser mean photon number in [0, {MU_MAX:g}] gives mixing ratio {ratio!r}"
            f" beside a source of mean photon number {mu_qd:.6g}"
        )
    return mu


@dataclass
class _Entry:
    raw: str
    lineno: int | None
    origin: str  # the profile, or the --section.key override that set the value

    def error(self, message: str) -> ConfigError:
        """A ConfigError located at this entry."""
        return ConfigError(message, self.lineno, self.origin)

    def number(self, token: str | None = None) -> float:
        """The value, or one token of it, as a finite float."""
        token = self.raw if token is None else token
        try:
            value = float(token)
        except ValueError:
            raise self.error(f"not a number: {token!r}") from None
        if not math.isfinite(value):  # nan, inf, and overflow such as 1e400
            raise self.error(f"not a finite number: {token!r}")
        return value

    def integer(self) -> int:
        value = self.number()
        if value != int(value):
            raise self.error(f"not an integer: {self.raw!r}")
        return int(value)

    def numbers(self) -> list[float]:
        """A comma-separated list, or an inclusive start:stop:step range."""
        if ":" not in self.raw:
            return [self.number(tok.strip()) for tok in self.raw.split(",")]
        parts = self.raw.split(":")
        if len(parts) != 3:
            raise self.error(f"range must be start:stop:step, got {self.raw!r}")
        start, stop, step = (self.number(p) for p in parts)
        if step <= 0.0:
            raise self.error("range step must be positive")
        if stop < start:
            raise self.error("range stop must not be below start")
        points = (stop - start) / step + 1e-9  # inf when the quotient overflows
        if points >= MAX_GRID_POINTS:
            raise self.error(f"range has more than {MAX_GRID_POINTS:.0e} points")
        return [start + i * step for i in range(int(points) + 1)]

    def check(self, build, *args, **kwargs):
        """build(*args, **kwargs), with a DomainError from the engine's own
        check re-raised as a ConfigError at this entry."""
        try:
            return build(*args, **kwargs)
        except DomainError as exc:
            raise self.error(str(exc)) from exc

    def check_each(self, values: list[float], build) -> list[float]:
        """values, each checked by build(value)."""
        for value in values:
            self.check(build, value)
        return values


class _Profile:
    """A profile's entries, overrides applied, read with located errors."""

    def __init__(self, text: str, origin: str):
        self.origin = origin
        self.entries: dict[tuple[str, str], _Entry] = {}
        section = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _KNOWN_KEYS:
                    raise ConfigError(f"unknown section [{section}]", lineno, origin)
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value' or '[section]'", lineno, origin)
            if section is None:
                raise ConfigError("entry before any [section] header", lineno, origin)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]", lineno, origin)
            if not value:
                raise ConfigError(f"empty value for '{key}'", lineno, origin)
            self.entries[section, key] = _Entry(value, lineno, origin)

    def override(self, section: str, key: str, value: str):
        if section not in _KNOWN_KEYS or key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"unknown override --{section}.{key}")
        if not value.strip():
            raise ConfigError(f"empty value for '{key}'", origin=f"--{section}.{key}")
        self.entries[section, key] = _Entry(value, None, f"--{section}.{key}")

    def entry(self, section: str, key: str, required: bool = False) -> _Entry | None:
        entry = self.entries.get((section, key))
        if entry is None and required:
            raise ConfigError(f"missing required key '{key}' in [{section}]", origin=self.origin)
        return entry

    def replace(
        self, obj, section: str, key: str, name: str | None = None, required: bool = False
    ):
        """obj with field ``name`` (default: key) set to the value of key,
        when given, and checked by obj's own constructor."""
        entry = self.entry(section, key, required)
        if entry is None:
            return obj
        return entry.check(dataclasses.replace, obj, **{name or key: entry.number()})

    def numbers(self, section: str, key: str, default: list[float], build) -> list[float]:
        """The list given for key, each value checked by build, or default."""
        entry = self.entry(section, key)
        return list(default) if entry is None else entry.check_each(entry.numbers(), build)

    def one_of(self, section: str, first: str, second: str) -> tuple[str, _Entry]:
        """The key and entry of whichever of two exclusive keys is given."""
        a, b = self.entry(section, first), self.entry(section, second)
        if (a is None) == (b is None):
            message = f"exactly one of '{first}' or '{second}' must be given in [{section}]"
            raise a.error(message) if a else ConfigError(message, origin=self.origin)
        return (first, a) if a is not None else (second, b)


def build_run_config(profile: _Profile) -> RunConfig:
    source = QdSourceParams(0.0, 0.0)
    for key in ("brightness", "g2"):
        source = profile.replace(source, "source", key, required=True)
    mu_list = profile.numbers("laser", "mu", [], poisson_distribution)

    channel = profile.replace(ChannelModel(), "channel", "alpha", "fiber_alpha")
    channel = profile.replace(channel, "channel", "eta0")
    grid_key, grid_entry = profile.one_of("channel", "db", "km")
    db_grid = grid_entry.numbers()
    if grid_key == "km":
        db_grid = [km * channel.fiber_alpha for km in db_grid]
        if not all(map(math.isfinite, db_grid)):
            raise grid_entry.error(f"km * alpha overflows at alpha = {channel.fiber_alpha!r}")
    grid_entry.check_each(db_grid, db_to_transmissivity)

    detector = DetectorModel(e_d=0.0, y0=0.0)  # both are required below
    for key in ("e_d", "e0", "f_ec", "rep_rate_hz"):
        detector = profile.replace(detector, "detector", key, required=key == "e_d")
    y0_key, y0_entry = profile.one_of("detector", "y0", "dark_rate_hz")
    y0 = y0_entry.number()
    if y0_key == "dark_rate_hz":
        y0 /= detector.rep_rate_hz  # positive: DetectorModel checked it
    detector = y0_entry.check(dataclasses.replace, detector, y0=y0)

    sim = SimConfig(1_000_000, 1, poisson_distribution(0.0), 1.0, detector)
    for key in ("n_pulses", "seed"):
        if entry := profile.entry("run", key):
            sim = entry.check(dataclasses.replace, sim, **{key: entry.integer()})
    output = profile.entry("run", "output")

    sweep_g2 = profile.replace(QdSourceParams(0.0, 0.01), "figures", "sweep_g2", "g2").g2
    with_source_g2 = partial(QdSourceParams, g2=source.g2)
    mu_qd = mean_photon_number(qd_distribution(source))
    return RunConfig(
        source=source,
        mu_list=mu_list,
        db_grid=db_grid,
        channel=channel,
        detector=detector,
        n_pulses=sim.n_pulses,
        seed=sim.seed,
        output=output.raw if output else None,
        threshold_brightness=profile.numbers(
            "threshold", "brightness", [i * 0.05 for i in range(21)], with_source_g2
        ),
        threshold_db=profile.numbers("threshold", "db", db_grid, db_to_transmissivity),
        figure_ratios=profile.numbers(
            "figures", "ratios", _DEFAULT_FIGURE_RATIOS, partial(ratio_to_mu, mu_qd=mu_qd)
        ),
        figure_error_rates=profile.numbers(
            "figures", "error_rates", _DEFAULT_ERROR_RATES,
            lambda e_d: dataclasses.replace(detector, e_d=e_d),
        ),
        figure_brightness=profile.numbers(
            "figures", "brightness", _DEFAULT_FIGURE_BRIGHTNESS,
            partial(QdSourceParams, g2=sweep_g2),
        ),
        figure_mu_brightness=profile.numbers(
            "figures", "mu_brightness", _DEFAULT_MU_BRIGHTNESS, with_source_g2
        ),
        figure_sweep_g2=sweep_g2,
    )


def read_text(path: Path) -> str:
    """A file's UTF-8 text; a file that is not UTF-8 is a ConfigError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8: {exc.reason} at byte {exc.start}", origin=str(path)) from None


def find_profile(name_or_path: str) -> tuple[str, str]:
    """Resolve a profile to (text, origin)."""
    path = Path(name_or_path)
    if path.suffix == ".profile" or path.exists():
        if not path.exists():
            raise ConfigError(f"profile file not found: {name_or_path}")
        return read_text(path), str(path)
    env_dir = os.environ.get(PROFILE_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / f"{name_or_path}.profile"
        if candidate.exists():
            return read_text(candidate), str(candidate)
    bundled = importlib.resources.files("hybridqkd").joinpath(
        "profiles", f"{name_or_path}.profile"
    )
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8"), f"{name_or_path}.profile (bundled)"
    raise ConfigError(f"unknown profile: {name_or_path}")


def load_config(
    name_or_path: str, overrides: dict[tuple[str, str], str] | None = None
) -> RunConfig:
    profile = _Profile(*find_profile(name_or_path))
    for (section, key), value in (overrides or {}).items():
        profile.override(section, key, value)
    return build_run_config(profile)
