"""Wake-up ID codec: bit sequences to frame-duration sequences and back.

IDs are grouped big-endian into symbols of floor(log2(alphabet size)) bits;
each symbol selects one admissible frame duration. Decoding is plain
run-length matching with no error correction: a wrong frame count or an
unmatched run is a decode failure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from .errors import ConfigurationError
from .framing import DetectedFrame, _symbol_index
from .phy import FrameSpec, payload_for_duration

DEFAULT_MARGIN_US = 30.0
DEFAULT_ID_WIDTH = 16


@dataclass(frozen=True)
class Alphabet:
    """Admissible frame durations with disjoint +/-margin detection windows."""

    symbols: Tuple[float, ...]  # strictly increasing durations in us
    margin_us: float = DEFAULT_MARGIN_US

    def __post_init__(self):
        symbols = tuple(float(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ConfigurationError("alphabet must contain at least one symbol")
        if any(b <= a for a, b in zip(symbols, symbols[1:])):
            raise ConfigurationError("symbols must be strictly increasing")
        if self.min_spacing_us is not None and self.min_spacing_us <= 2 * self.margin_us:
            raise ConfigurationError(
                f"adjacent symbol spacing {self.min_spacing_us} us must exceed "
                f"twice the {self.margin_us} us margin")
        for sym in symbols:
            payload_for_duration(sym)  # must be realizable at 1 Mbps

    @property
    def min_spacing_us(self):
        if len(self.symbols) < 2:
            return None
        return min(b - a for a, b in zip(self.symbols, self.symbols[1:]))

    @property
    def payloads(self) -> tuple:
        return tuple(payload_for_duration(s) for s in self.symbols)

    def __len__(self):
        return len(self.symbols)


@dataclass(frozen=True)
class WakeupId:
    """Fixed-width wake-up identifier."""

    value: int
    width: int = DEFAULT_ID_WIDTH

    def __post_init__(self):
        if self.width < 1:
            raise ConfigurationError("width must be >= 1")
        if not (0 <= self.value < (1 << self.width)):
            raise ConfigurationError(
                f"value {self.value} does not fit in {self.width} bits")

    @property
    def bits(self) -> tuple:
        return tuple((self.value >> (self.width - 1 - i)) & 1
                     for i in range(self.width))


class DecodeFailureReason(enum.Enum):
    WRONG_COUNT = "wrong_count"
    ERASURE = "erasure"


@dataclass(frozen=True)
class DecodeFailure:
    reason: DecodeFailureReason

    def __bool__(self):
        return False


DecodeResult = Union[WakeupId, DecodeFailure]


def build_alphabet(n_symbols: int, base_duration_us: float = 720.0,
                   spacing_us: float = 80.0,
                   margin_us: float = DEFAULT_MARGIN_US) -> Alphabet:
    """Evenly spaced alphabet: base + k * spacing for k = 0..n-1."""
    if n_symbols < 1:
        raise ConfigurationError("n_symbols must be >= 1")
    if spacing_us % 8 != 0:
        raise ConfigurationError("spacing_us must be a multiple of 8 us at 1 Mbps")
    symbols = tuple(base_duration_us + k * spacing_us for k in range(n_symbols))
    return Alphabet(symbols=symbols, margin_us=margin_us)


def bits_per_symbol(alphabet: Alphabet) -> int:
    if len(alphabet) < 2:
        raise ConfigurationError("encoding requires an alphabet of at least 2 symbols")
    return int(math.floor(math.log2(len(alphabet))))


def encode_id(wid: WakeupId, alphabet: Alphabet) -> List[FrameSpec]:
    """Map an ID to the frame sequence that conveys it.

    Bits are consumed big-endian in groups of bits_per_symbol; a short final
    group is zero-padded on the right.
    """
    bps = bits_per_symbol(alphabet)
    n_frames = math.ceil(wid.width / bps)
    bits = list(wid.bits) + [0] * (n_frames * bps - wid.width)
    frames = []
    for k in range(n_frames):
        group = bits[k * bps:(k + 1) * bps]
        index = 0
        for b in group:
            index = (index << 1) | b
        frames.append(FrameSpec(payload_bytes=alphabet.payloads[index]))
    return frames


def decode_id(frames: Sequence[DetectedFrame], alphabet: Alphabet,
              expected_width: int = DEFAULT_ID_WIDTH) -> DecodeResult:
    """Inverse of encode_id over detected runs, matched by duration; no error correction."""
    bps = bits_per_symbol(alphabet)
    n_expected = math.ceil(expected_width / bps)
    if len(frames) != n_expected:
        return DecodeFailure(DecodeFailureReason.WRONG_COUNT)
    bits: List[int] = []
    for frame in frames:
        index = _symbol_index(frame.estimated_duration_us, alphabet)
        if index is None:
            return DecodeFailure(DecodeFailureReason.ERASURE)
        if index >= (1 << bps):
            # symbol outside the power-of-two code range cannot carry bits
            return DecodeFailure(DecodeFailureReason.ERASURE)
        bits.extend((index >> (bps - 1 - j)) & 1 for j in range(bps))
    value = 0
    for b in bits[:expected_width]:
        value = (value << 1) | b
    return WakeupId(value=value, width=expected_width)


def wakeup_success_probability(per_symbol_error: Sequence[float]) -> float:
    """Probability that every symbol decodes, under independence."""
    prod = 1.0
    for p in per_symbol_error:
        if not (0.0 <= p <= 1.0):
            raise ConfigurationError(f"probability {p} outside [0, 1]")
        prod *= (1.0 - p)
    return prod
