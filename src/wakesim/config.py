"""Experiment configuration: INI-style file with one flat section per module.

Every key has an embedded default, so an empty (or absent) config runs the
rx_power_sweep scenario at the built-in defaults. Unknown keys and
malformed values raise ConfigurationError naming the offending key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from .cc2420 import Cc2420Config
from .channel import ChannelConfig
from .codec import Alphabet
from .errors import ConfigurationError
from .receiver import ReceiverConfig

SCENARIOS = ("calibrate", "cof_sweep", "rx_power_sweep", "edge_delay_table",
             "cc2420_histogram", "wakeup_end_to_end")

# trials semantics per scenario (see README): decisions, bits, frames, ...
DEFAULT_TRIALS = {
    "calibrate": 1_000_000,
    "cof_sweep": 100_000,
    "rx_power_sweep": 10_000,
    "edge_delay_table": 25,
    "cc2420_histogram": 10_000,
    "wakeup_end_to_end": 200,
}


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

    waveform_model: str = "dsss_constant"
    internal_rate_hz: float = 20e6
    cw: int = 1

    rx_powers_dbm: Tuple[float, ...] = (-98.0, -96.0, -94.0, -92.0, -91.0, -90.0)
    cofs_hz: Tuple[float, ...] = (0.0, 159e3, 48.2e3)
    lengths_us: Tuple[float, ...] = (720.0, 800.0, 1000.0)
    target_p10: float = 1e-3
    target_p01: float = 1e-3

    edge_cofs_hz: Tuple[float, ...] = (15.9e3, 48.2e3, 159e3, 482e3, 1590e3)
    edge_rx_power_dbm: float = -10.2
    edge_threshold_policy: str = "fixed_reference"
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
        if self.n_trials < 1:
            raise ConfigurationError("trials must be >= 1")
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


def _take(section, parsers, section_name):
    """Pull known keys out of a config section, erroring on unknown ones."""
    out = {}
    for key in section:
        if key not in parsers:
            raise ConfigurationError(f"unknown key {key!r} in section [{section_name}]")
        out[key] = parsers[key](section[key], f"{section_name}.{key}")
    return out


def load_config(path=None, scenario=None, rng_seed=None, n_trials=None,
                output_dir=None) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI file (or pure defaults).

    The keyword arguments override the corresponding file values; they exist
    for the CLI flags.
    """
    parser = configparser.ConfigParser()
    if path is not None:
        text = Path(path).read_text()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
    known_sections = {"run", "channel", "receiver", "phy", "alphabet", "sweep",
                      "edge_delay", "cc2420", "wakeup"}
    for name in parser.sections():
        if name not in known_sections:
            raise ConfigurationError(f"unknown config section [{name}]")

    kwargs = {}

    if parser.has_section("run"):
        vals = _take(parser["run"], {
            "scenario": lambda r, k: r.strip(),
            "seed": _parse_int,
            "trials": _parse_int,
            "out": lambda r, k: r.strip(),
        }, "run")
        if "scenario" in vals:
            kwargs["scenario"] = vals["scenario"]
        if "seed" in vals:
            kwargs["rng_seed"] = vals["seed"]
        if "trials" in vals:
            kwargs["n_trials"] = vals["trials"]
        if "out" in vals:
            kwargs["output_dir"] = Path(vals["out"])

    if parser.has_section("channel"):
        vals = _take(parser["channel"], {
            "attenuation_db": _parse_float,
            "noise_figure_db": lambda r, k: None if r.strip().lower() in ("none", "off")
            else _parse_float(r, k),
            "bandwidth_hz": _parse_float,
            "temperature_k": _parse_float,
        }, "channel")
        kwargs["channel"] = ChannelConfig(**vals)

    if parser.has_section("receiver"):
        vals = _take(parser["receiver"], {
            "lna_gain_db": _parse_float,
            "detector_model": lambda r, k: r.strip(),
            "log_slope_v_per_db": _parse_float,
            "log_intercept_v": _parse_float,
            "log_floor_dbm": _parse_float,
            "square_law_k": _parse_float,
            "cof_hz": _parse_float,
            "threshold_v": lambda r, k: None if r.strip().lower() in ("", "none", "auto")
            else _parse_float(r, k),
            "d_sample_us": _parse_float,
            "video_noise_sigma_v": _parse_float,
            "video_noise_tau_us": _parse_float,
        }, "receiver")
        kwargs["receiver"] = ReceiverConfig(**vals)

    if parser.has_section("phy"):
        vals = _take(parser["phy"], {
            "waveform_model": lambda r, k: r.strip(),
            "internal_rate_hz": _parse_float,
            "cw": _parse_int,
        }, "phy")
        kwargs.update(vals)

    if parser.has_section("alphabet"):
        vals = _take(parser["alphabet"], {
            "symbols_us": _parse_floats,
            "margin_us": _parse_float,
        }, "alphabet")
        kwargs["alphabet"] = Alphabet(symbols=vals.get("symbols_us", (720.0, 800.0, 1000.0)),
                                      margin_us=vals.get("margin_us", 30.0))

    if parser.has_section("sweep"):
        vals = _take(parser["sweep"], {
            "rx_powers_dbm": _parse_floats,
            "cofs_hz": _parse_floats,
            "lengths_us": _parse_floats,
            "target_p10": _parse_float,
            "target_p01": _parse_float,
        }, "sweep")
        kwargs.update(vals)

    if parser.has_section("edge_delay"):
        vals = _take(parser["edge_delay"], {
            "cofs_hz": _parse_floats,
            "rx_power_dbm": _parse_float,
            "threshold_policy": lambda r, k: r.strip(),
            "reference_cof_hz": _parse_float,
        }, "edge_delay")
        remap = {"cofs_hz": "edge_cofs_hz", "rx_power_dbm": "edge_rx_power_dbm",
                 "threshold_policy": "edge_threshold_policy",
                 "reference_cof_hz": "edge_reference_cof_hz"}
        kwargs.update({remap[k]: v for k, v in vals.items()})

    if parser.has_section("cc2420"):
        vals = _take(parser["cc2420"], {
            "capture_fraction_db": _parse_float,
            "ma_window_us": _parse_float,
            "cca_threshold_dbm": _parse_float,
            "granularity_us": _parse_float,
            "rx_powers_dbm": _parse_floats,
            "length_us": _parse_float,
        }, "cc2420")
        chip_keys = {k: vals.pop(k) for k in list(vals)
                     if k in ("capture_fraction_db", "ma_window_us",
                              "cca_threshold_dbm", "granularity_us")}
        kwargs["cc2420"] = Cc2420Config(**chip_keys)
        if "rx_powers_dbm" in vals:
            kwargs["cc2420_rx_powers_dbm"] = vals["rx_powers_dbm"]
        if "length_us" in vals:
            kwargs["cc2420_length_us"] = vals["length_us"]

    if parser.has_section("wakeup"):
        vals = _take(parser["wakeup"], {
            "rx_power_dbm": _parse_float,
            "id_width": _parse_int,
            "alphabet_size": _parse_int,
        }, "wakeup")
        remap = {"rx_power_dbm": "wakeup_rx_power_dbm", "id_width": "wakeup_id_width",
                 "alphabet_size": "wakeup_alphabet_size"}
        kwargs.update({remap[k]: v for k, v in vals.items()})

    if scenario is not None:
        kwargs["scenario"] = scenario
    if rng_seed is not None:
        kwargs["rng_seed"] = rng_seed
    if n_trials is not None:
        kwargs["n_trials"] = n_trials
    if output_dir is not None:
        kwargs["output_dir"] = Path(output_dir)
    return ExperimentConfig(**kwargs)
