"""Experiment configuration: INI-style file with one flat section per module.

Every key has an embedded default, so an empty (or absent) config runs the
rx_power_sweep scenario at the built-in defaults. Values are parsed by field
type; unknown keys and malformed values raise ConfigurationError naming the key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Tuple, get_type_hints

from .cc2420 import Cc2420Config
from .channel import ChannelConfig
from .codec import Alphabet
from .errors import ConfigurationError, _check_count
from .receiver import ReceiverConfig

# Scenarios, with their default trials (see README): decisions, bits, frames, ...
DEFAULT_TRIALS = {
    "calibrate": 1_000_000,
    "cof_sweep": 100_000,
    "rx_power_sweep": 10_000,
    "edge_delay_table": 25,
    "cc2420_histogram": 10_000,
    "wakeup_end_to_end": 200,
}
SCENARIOS = tuple(DEFAULT_TRIALS)


@dataclass
class ExperimentConfig:
    scenario: str = "rx_power_sweep"
    rng_seed: int = 12345
    n_trials: Optional[int] = None
    output_dir: Path = Path("results")

    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    cc2420: Cc2420Config = field(default_factory=Cc2420Config)
    alphabet: Alphabet = field(default_factory=lambda: Alphabet(symbols=(720.0, 800.0, 1000.0)))

    cw: int = 1

    rx_powers_dbm: Tuple[float, ...] = (-98.0, -96.0, -94.0, -92.0, -91.0, -90.0)
    cofs_hz: Tuple[float, ...] = (0.0, 159e3, 48.2e3)
    lengths_us: Tuple[float, ...] = (720.0, 800.0, 1000.0)
    target_p10: float = 1e-3
    target_p01: float = 1e-3

    edge_cofs_hz: Tuple[float, ...] = (15.9e3, 48.2e3, 159e3, 482e3, 1590e3)
    edge_rx_power_dbm: float = -10.2
    edge_reference_cof_hz: float = 159e3

    cc2420_rx_powers_dbm: Tuple[float, ...] = (-61.56, -67.56, -71.56, -73.56, -77.0)
    cc2420_length_us: float = 1000.0

    wakeup_rx_power_dbm: float = -88.0
    wakeup_id_width: int = 16
    wakeup_alphabet_size: int = 4

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.n_trials is None:
            self.n_trials = DEFAULT_TRIALS[self.scenario]
        for key in ("n_trials", "cw", "wakeup_id_width", "wakeup_alphabet_size"):
            _check_count(key, getattr(self, key))
        self.output_dir = Path(self.output_dir)


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"key {key!r}: cannot parse {raw!r} as a number") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"key {key!r}: {raw!r} is not a finite number")
    return value


def _parse_int(raw: str, key: str) -> int:
    """Integer value; integral spellings such as 1e5 are accepted, 1.7 is not."""
    try:
        return int(raw)
    except ValueError:
        value = _parse_float(raw, key)
    if not value.is_integer():
        raise ConfigurationError(f"key {key!r}: {raw!r} is not an integer")
    return int(value)


def _parse_floats(raw: str, key: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in raw.replace(";", ",").split(",") if p.strip()]
    if not parts:
        raise ConfigurationError(f"key {key!r}: empty list")
    return tuple(_parse_float(p, key) for p in parts)


def _parse_optional_float(raw: str, key: str) -> Optional[float]:
    return None if raw.lower() in ("", "none", "off", "auto") else _parse_float(raw, key)


# Parser per field type; in a file, trials must be a number.
_PARSERS = {float: _parse_float, Optional[float]: _parse_optional_float,
            int: _parse_int, Optional[int]: _parse_int, Tuple[float, ...]: _parse_floats,
            str: lambda raw, key: raw, Path: lambda raw, key: Path(raw)}


# INI section -> (the nested ExperimentConfig field it fills, or None, and the keys
# that are renamed or set top-level fields); other nested fields keep their names.
_SECTIONS = {
    "run": (None, {"scenario": "scenario", "seed": "rng_seed", "trials": "n_trials",
                   "out": "output_dir"}),
    "channel": ("channel", {}),
    "receiver": ("receiver", {}),
    "phy": (None, {"cw": "cw"}),
    "alphabet": ("alphabet", {"symbols_us": "symbols"}),
    "sweep": (None, {name: name for name in ("rx_powers_dbm", "cofs_hz", "lengths_us",
                                             "target_p10", "target_p01")}),
    "edge_delay": (None, {"cofs_hz": "edge_cofs_hz", "rx_power_dbm": "edge_rx_power_dbm",
                          "reference_cof_hz": "edge_reference_cof_hz"}),
    "cc2420": ("cc2420", {"rx_powers_dbm": "cc2420_rx_powers_dbm",
                          "length_us": "cc2420_length_us"}),
    "wakeup": (None, {"rx_power_dbm": "wakeup_rx_power_dbm", "id_width": "wakeup_id_width",
                      "alphabet_size": "wakeup_alphabet_size"}),
}


def load_config(path=None, scenario=None, rng_seed=None, n_trials=None,
                output_dir=None) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI file (or pure defaults).

    The keyword arguments override the corresponding file values; they exist
    for the CLI flags.
    """
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            parser.read_string(Path(path).read_text())
        except configparser.Error as exc:
            raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
    top = get_type_hints(ExperimentConfig)
    kwargs = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        nested, renamed = _SECTIONS[section]
        inner = get_type_hints(top[nested]) if nested else {}
        keys = {name: name for name in inner if name not in renamed.values()} | renamed
        values = {}
        for key, raw in parser[section].items():
            if key not in keys:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
            name = keys[key]
            types, out = (inner, values) if name in inner else (top, kwargs)
            out[name] = _PARSERS[types[name]](raw, f"{section}.{key}")
        if nested is not None:
            kwargs[nested] = replace(getattr(ExperimentConfig(), nested), **values)

    overrides = dict(scenario=scenario, rng_seed=rng_seed, n_trials=n_trials, output_dir=output_dir)
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**kwargs)
