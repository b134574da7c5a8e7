"""Run configuration: sectioned key=value profiles plus command-line overrides.

Grammar (one entry per line, '#' starts a comment anywhere):

    [section]
    key = value

Values are numbers, booleans, comma-separated number lists, or inclusive
ranges written start:stop:step. Profiles are looked up as explicit paths
first, then as <name>.profile under $HYBRIDQKD_PROFILE_DIR, then among the
bundled profiles (table1, ideal).
"""
from __future__ import annotations

import importlib.resources
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .channel import ChannelModel, DetectorModel
from .errors import ConfigError, DomainError
from .photon_stats import MU_MAX, QdSourceParams

PROFILE_DIR_ENV = "HYBRIDQKD_PROFILE_DIR"

# Largest accepted run.n_pulses. At tens of Mpulses/s on one core this is
# hours of simulation; anything larger is a typo, not a run.
MAX_PULSES = 10**12
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
class _Entry:
    raw: str
    lineno: int | None
    origin: str  # the profile, or the --section.key override that set the value


@dataclass
class RawConfig:
    origin: str
    entries: dict[str, dict[str, _Entry]] = field(default_factory=dict)

    def set(self, section: str, key: str, raw: str, lineno: int | None, origin: str):
        self.entries.setdefault(section, {})[key] = _Entry(raw, lineno, origin)

    def get(self, section: str, key: str) -> _Entry | None:
        return self.entries.get(section, {}).get(key)


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


def parse_profile_text(text: str, origin: str) -> RawConfig:
    raw = RawConfig(origin)
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
        raw.set(section, key, value, lineno, origin)
    return raw


def apply_overrides(raw: RawConfig, overrides: dict[tuple[str, str], str]):
    for (section, key), value in overrides.items():
        if section not in _KNOWN_KEYS or key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"unknown override --{section}.{key}")
        if not value.strip():
            raise ConfigError(f"empty value for '{key}'", origin=f"--{section}.{key}")
        raw.set(section, key, value, None, f"--{section}.{key}")


def _parse_number(token: str, entry: _Entry) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"not a number: {token!r}", entry.lineno, entry.origin) from None
    if not math.isfinite(value):  # nan, inf, and overflow such as 1e400
        raise ConfigError(f"not a finite number: {token!r}", entry.lineno, entry.origin)
    return value


def _parse_list(entry: _Entry) -> list[float]:
    value = entry.raw
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"range must be start:stop:step, got {value!r}", entry.lineno, entry.origin
            )
        start, stop, step = (_parse_number(p, entry) for p in parts)
        if step <= 0.0:
            raise ConfigError("range step must be positive", entry.lineno, entry.origin)
        if stop < start:
            raise ConfigError("range stop must not be below start", entry.lineno, entry.origin)
        points = (stop - start) / step + 1e-9  # inf when the quotient overflows
        if points >= MAX_GRID_POINTS:
            raise ConfigError(
                f"range has more than {MAX_GRID_POINTS:.0e} points", entry.lineno, entry.origin
            )
        return [start + i * step for i in range(int(points) + 1)]
    return [_parse_number(tok.strip(), entry) for tok in value.split(",")]


class _Reader:
    """Typed access to a RawConfig with line-numbered error reporting."""

    def __init__(self, raw: RawConfig):
        self.raw = raw
        self.origin = raw.origin

    def entry(self, section: str, key: str) -> _Entry | None:
        return self.raw.get(section, key)

    def number(self, section: str, key: str, default: float | None = None) -> float:
        entry = self.entry(section, key)
        if entry is None:
            if default is None:
                raise ConfigError(f"missing required key '{key}' in [{section}]", origin=self.origin)
            return default
        return _parse_number(entry.raw, entry)

    def integer(self, section: str, key: str, default: int) -> int:
        value = self.number(section, key, float(default))
        if value != int(value):
            entry = self.entry(section, key)
            raise ConfigError(f"'{key}' must be an integer", entry.lineno, entry.origin)
        return int(value)

    def numbers(self, section: str, key: str, default: list[float] | None = None) -> list[float]:
        entry = self.entry(section, key)
        if entry is None:
            if default is None:
                raise ConfigError(f"missing required key '{key}' in [{section}]", origin=self.origin)
            return list(default)
        return _parse_list(entry)

    def one_of(self, section: str, first: str, second: str) -> tuple[str, _Entry]:
        """The key and entry of whichever of two exclusive keys is given."""
        a, b = self.entry(section, first), self.entry(section, second)
        if (a is None) == (b is None):
            lineno = (a or b).lineno if (a or b) else None
            raise ConfigError(
                f"exactly one of '{first}' or '{second}' must be given in [{section}]",
                lineno,
                self.origin,
            )
        return (first, a) if a is not None else (second, b)

    def string(self, section: str, key: str) -> str | None:
        entry = self.entry(section, key)
        return entry.raw if entry is not None else None

    def build(self, factory, section: str, **kwargs):
        try:
            return factory(**kwargs)
        except DomainError as exc:
            raise ConfigError(f"[{section}] {exc}", origin=self.origin) from exc


def build_run_config(raw: RawConfig) -> RunConfig:
    reader = _Reader(raw)

    brightness = reader.number("source", "brightness")
    g2 = reader.number("source", "g2")
    source = reader.build(QdSourceParams, "source", brightness=brightness, g2=g2)

    mu_list = reader.numbers("laser", "mu", default=[])
    if any(not 0.0 <= mu <= MU_MAX for mu in mu_list):
        entry = reader.entry("laser", "mu")
        raise ConfigError(
            f"laser mean photon numbers must be in [0, {MU_MAX:g}]", entry.lineno, entry.origin
        )

    alpha = reader.number("channel", "alpha", 0.21)
    eta0 = reader.number("channel", "eta0", 1.0)
    grid_key, grid_entry = reader.one_of("channel", "db", "km")
    db_grid = _parse_list(grid_entry)
    if grid_key == "km":
        db_grid = [km * alpha for km in db_grid]
    if any(db < 0.0 for db in db_grid):
        raise ConfigError(
            "attenuations must be nonnegative", grid_entry.lineno, grid_entry.origin
        )
    channel = reader.build(ChannelModel, "channel", fiber_alpha=alpha, eta0=eta0)

    rep_rate = reader.number("detector", "rep_rate_hz", 81.96e6)
    y0_key, y0_entry = reader.one_of("detector", "y0", "dark_rate_hz")
    y0 = _parse_number(y0_entry.raw, y0_entry)
    if y0_key == "dark_rate_hz":
        y0 /= rep_rate
    detector = reader.build(
        DetectorModel,
        "detector",
        e_d=reader.number("detector", "e_d"),
        y0=y0,
        e0=reader.number("detector", "e0", 0.5),
        f_ec=reader.number("detector", "f_ec", 1.2),
        rep_rate_hz=rep_rate,
    )

    n_pulses = reader.integer("run", "n_pulses", 1_000_000)
    if not 1 <= n_pulses <= MAX_PULSES:
        entry = reader.entry("run", "n_pulses")
        raise ConfigError(
            f"n_pulses must be between 1 and {MAX_PULSES:.0e}", entry.lineno, entry.origin
        )
    seed = reader.integer("run", "seed", 1)
    if seed < 0:
        entry = reader.entry("run", "seed")
        raise ConfigError("seed must be nonnegative", entry.lineno, entry.origin)

    threshold_brightness = reader.numbers(
        "threshold", "brightness", default=[i * 0.05 for i in range(21)]
    )
    threshold_db = reader.numbers("threshold", "db", default=db_grid)

    return RunConfig(
        source=source,
        mu_list=mu_list,
        db_grid=db_grid,
        channel=channel,
        detector=detector,
        n_pulses=n_pulses,
        seed=seed,
        output=reader.string("run", "output"),
        threshold_brightness=threshold_brightness,
        threshold_db=threshold_db,
        figure_ratios=reader.numbers("figures", "ratios", _DEFAULT_FIGURE_RATIOS),
        figure_error_rates=reader.numbers("figures", "error_rates", _DEFAULT_ERROR_RATES),
        figure_brightness=reader.numbers("figures", "brightness", _DEFAULT_FIGURE_BRIGHTNESS),
        figure_mu_brightness=reader.numbers("figures", "mu_brightness", _DEFAULT_MU_BRIGHTNESS),
        figure_sweep_g2=reader.number("figures", "sweep_g2", 0.01),
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
    text, origin = find_profile(name_or_path)
    raw = parse_profile_text(text, origin)
    if overrides:
        apply_overrides(raw, overrides)
    return build_run_config(raw)
