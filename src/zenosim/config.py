"""Scenario configuration: a flat key = value document with sections.

Frequencies accept kHz / MHz / Hz suffixes and are stored as angular
frequencies (the suffix multiplies by 2 pi as well as the SI prefix);
durations accept us / ms / s; decay rates use 1/s (or quanta/s) with no
2 pi.  Bare numbers are taken in base units (rad/s, seconds).  Every number
must be finite: nan, inf and values that overflow in their unit are
rejected.  Unknown keys are rejected so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SCENARIOS = (
    "two_ion_single",
    "two_ion_composite",
    "three_ion_w",
    "dressed_scan",
    "tomography_demo",
    "sweep",
)

_FREQUENCY_UNITS = {"hz": 2 * np.pi, "khz": 2 * np.pi * 1e3, "mhz": 2 * np.pi * 1e6}
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}
_RATE_UNITS = {"1/s": 1.0, "quanta/s": 1.0}


def parse_quantity(text: str, line: int | None = None) -> float:
    """A finite number with an optional unit suffix, resolved to base units.

    nan, inf and a value that overflows in its unit raise ConfigError.
    """
    parts = text.strip().split()
    if len(parts) not in (1, 2):
        raise ConfigError(f"cannot parse quantity {text!r}", line)
    try:
        value = float(parts[0])
    except ValueError:
        raise ConfigError(f"cannot parse number {parts[0]!r}", line) from None
    if len(parts) == 2:
        unit = parts[1].lower()
        for table in (_FREQUENCY_UNITS, _TIME_UNITS, _RATE_UNITS):
            if unit in table:
                value *= table[unit]
                break
        else:
            raise ConfigError(f"unknown unit {parts[1]!r}", line)
    if not math.isfinite(value):
        raise ConfigError(f"quantity {text.strip()!r} is not finite", line)
    return value


def _parse_bool(text: str, line: int | None = None) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}", line)


def _parse_int(text: str, line: int | None = None) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"cannot parse integer {text!r}", line) from None


def _parse_list(text: str, line: int | None = None) -> tuple[float, ...]:
    return tuple(parse_quantity(p, line) for p in text.split(","))


def _parse_str(text: str, line: int | None = None) -> str:
    return text.strip()


# key -> parser, per section ("" is the top level)
_SCHEMA = {
    "": {
        "scenario": _parse_str,
        "seed": _parse_int,
        "out": _parse_str,
        "n_fock": _parse_int,
    },
    "drive": {
        "omega_s": parse_quantity,
        "omega_d": parse_quantity,
        "delta": parse_quantity,
        "m": _parse_int,
        "t1": parse_quantity,
        "t2": parse_quantity,
        "duration": parse_quantity,
        "fine_tune": _parse_bool,
    },
    "noise": {
        "preset": _parse_str,
        "gamma_du": parse_quantity,
        "gamma_ud": parse_quantity,
        "gamma_ou": parse_quantity,
        "gamma_od": parse_quantity,
        "gamma_heat": parse_quantity,
        "n_bar": parse_quantity,
        "stark": _parse_list,
    },
    "tomography": {
        "enabled": _parse_bool,
        "shots_data": _parse_int,
        "shots_analysis": _parse_int,
        "shots_reference": _parse_int,
        "n_bins": _parse_int,
        "resamples": _parse_int,
        "bright_mean": parse_quantity,
        "dark_mean": parse_quantity,
        "pump_prob": parse_quantity,
        "epsilon_points": _parse_int,
        "write_histograms": _parse_bool,
    },
    "scan": {
        "start": parse_quantity,
        "stop": parse_quantity,
        "points": _parse_int,
    },
    "sweep": {
        "scheme": _parse_str,
        "axis": _parse_str,
        "start": parse_quantity,
        "stop": parse_quantity,
        "points": _parse_int,
        "axis2": _parse_str,
        "start2": parse_quantity,
        "stop2": parse_quantity,
        "points2": _parse_int,
    },
}

SWEEP_AXES = ("omega_ratio", "t1", "n_bar", "gamma")


@dataclass
class ScenarioConfig:
    scenario: str
    seed: int = 0
    out: str | None = None
    n_fock: int | None = None
    drive: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    tomography: dict = field(default_factory=dict)
    scan: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    def copy(self) -> "ScenarioConfig":
        return dataclasses.replace(
            self,
            drive=dict(self.drive),
            noise=dict(self.noise),
            tomography=dict(self.tomography),
            scan=dict(self.scan),
            sweep=dict(self.sweep),
        )


def parse_config_text(text: str) -> ScenarioConfig:
    sections: dict[str, dict] = {name: {} for name in _SCHEMA}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno, line.index("[") + 1)
            section = stripped[1:-1].strip()
            if section not in _SCHEMA or section == "":
                raise ConfigError(f"unknown section [{section}]", lineno, line.index("[") + 1)
            continue
        if "=" not in stripped:
            raise ConfigError("expected key = value", lineno, 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        column = raw.index(key) + 1 if key and key in raw else 1
        schema = _SCHEMA[section]
        if key not in schema:
            where = f"[{section}]" if section else "top level"
            raise ConfigError(f"unknown key {key!r} in {where}", lineno, column)
        parsed = schema[key](value.strip(), lineno)
        sections[section][key] = parsed
    top = sections[""]
    if "scenario" not in top:
        raise ConfigError("missing required key 'scenario'")
    if top["scenario"] not in SCENARIOS:
        raise ConfigError(f"unknown scenario {top['scenario']!r}; choose from {SCENARIOS}")
    return ScenarioConfig(
        scenario=top["scenario"],
        seed=top.get("seed", 0),
        out=top.get("out"),
        n_fock=top.get("n_fock"),
        drive=sections["drive"],
        noise=sections["noise"],
        tomography=sections["tomography"],
        scan=sections["scan"],
        sweep=sections["sweep"],
    )


def parse_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text)


def apply_override(config: ScenarioConfig, override: str) -> ScenarioConfig:
    """Apply one 'key=value' or 'section.key=value' command-line override."""
    if "=" not in override:
        raise ConfigError(f"override {override!r} is not of the form key=value")
    key, _, value = override.partition("=")
    key = key.strip()
    section, _, subkey = key.partition(".")
    out = config.copy()
    if not subkey:
        if key not in _SCHEMA[""]:
            raise ConfigError(f"unknown top-level key {key!r} in override")
        parsed = _SCHEMA[""][key](value)
        if key == "scenario" and parsed not in SCENARIOS:
            raise ConfigError(f"unknown scenario {parsed!r}")
        setattr(out, key, parsed)
        return out
    if section not in _SCHEMA or section == "":
        raise ConfigError(f"unknown section {section!r} in override")
    if subkey not in _SCHEMA[section]:
        raise ConfigError(f"unknown key {subkey!r} in section [{section}]")
    getattr(out, section)[subkey] = _SCHEMA[section][subkey](value)
    return out


# ---------------------------------------------------------------------------
# built-in presets pinning the published operating points


def _preset_fig2() -> ScenarioConfig:
    return ScenarioConfig(
        scenario="two_ion_single",
        drive={
            "omega_s": 2 * np.pi * 17.6e3,
            "omega_d": 2 * np.pi * 1.52e3,
            "delta": 2 * np.pi * 27.1e3,
            "m": 2,
            "duration": 250e-6,
        },
        noise={"preset": "two_ion_single", "n_bar": 0.006},
    )


def _preset_fig3() -> ScenarioConfig:
    return ScenarioConfig(
        scenario="two_ion_composite",
        drive={
            "omega_s": 2 * np.pi * 17.3e3,
            "omega_d": 2 * np.pi * 2.55e3,
            "delta": 2 * np.pi * 26.8e3,
            "m": 1,
            "t1": 25.4e-6,
            "t2": 47.3e-6,
        },
        noise={"preset": "two_ion_composite", "n_bar": 0.005},
    )


def _preset_fig_s4() -> ScenarioConfig:
    return ScenarioConfig(
        scenario="dressed_scan",
        drive={"omega_s": 1.0},
        scan={"start": -4.0, "stop": 4.0, "points": 401},
    )


def _preset_fig_s6a() -> ScenarioConfig:
    return ScenarioConfig(
        scenario="sweep",
        drive={"omega_s": 2 * np.pi * 17.6e3},
        sweep={"scheme": "single", "axis": "omega_ratio", "start": 4.0, "stop": 16.0, "points": 61},
    )


def _preset_three_ion() -> ScenarioConfig:
    return ScenarioConfig(
        scenario="three_ion_w",
        drive={"omega_s": 2 * np.pi * 19.0e3, "omega_d": 2 * np.pi * 1.24e3, "delta": 0.0},
        noise={"preset": "three_ion"},
    )


PRESETS = {
    "fig2": _preset_fig2,
    "fig3": _preset_fig3,
    "fig_s4": _preset_fig_s4,
    "fig_s6a": _preset_fig_s6a,
    "three_ion": _preset_three_ion,
}


def load_preset(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]()
