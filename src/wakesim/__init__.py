"""Link-level simulator for WiFi wake-up signaling via 802.11b frame lengths."""

from .channel import ChannelConfig, add_noise
from .cc2420 import Cc2420Config, cca_output_count, count_distribution, modal_count
from .codec import (Alphabet, DecodeFailure, DecodeFailureReason, WakeupId,
                    build_alphabet, decode_id, encode_id,
                    wakeup_success_probability)
from .config import ExperimentConfig, load_config
from .errors import CalibrationError, ConfigurationError, UnboundedDelayError
from .framing import (DetectedFrame, EdgeDelays, EdgeDelayStats,
                      check_difs_separability, extract_runs, match_symbol,
                      measure_edge_delays)
from .harness import (EdgeDelayRow, ErrorStats, calibrate_threshold,
                      cc2420_min_power_for_identification, edge_delay_table,
                      estimate_p01, frame_error_sweep, measure_p10,
                      min_power_for_frame_error, required_power_for_p01,
                      wilson_interval)
from .montecarlo import frame_error_batch, frame_error_trials
from .phy import (EnvelopeTrace, FrameSpec, TxSchedule, build_tx_schedule,
                  frame_duration, payload_for_duration, synthesize_envelope)
from .receiver import (BitStream, ReceiverConfig, VoltageTrace,
                       detector_response, receive, sample_and_threshold)
from .scenarios import ScenarioResult, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BitStream", "CalibrationError", "Cc2420Config",
    "ChannelConfig", "ConfigurationError", "DecodeFailure",
    "DecodeFailureReason", "DetectedFrame", "EdgeDelayRow", "EdgeDelays",
    "EdgeDelayStats", "EnvelopeTrace", "ErrorStats", "ExperimentConfig",
    "FrameSpec", "ReceiverConfig", "ScenarioResult", "TxSchedule",
    "UnboundedDelayError", "VoltageTrace", "WakeupId", "add_noise",
    "build_alphabet", "build_tx_schedule",
    "calibrate_threshold", "cc2420_min_power_for_identification",
    "cca_output_count", "check_difs_separability", "count_distribution",
    "decode_id", "detector_response", "edge_delay_table", "encode_id",
    "estimate_p01", "extract_runs", "frame_duration", "frame_error_batch",
    "frame_error_sweep", "frame_error_trials", "load_config", "match_symbol",
    "measure_edge_delays", "measure_p10", "min_power_for_frame_error",
    "modal_count", "payload_for_duration", "receive",
    "required_power_for_p01", "run_scenario", "sample_and_threshold",
    "synthesize_envelope", "wakeup_success_probability", "wilson_interval",
]
