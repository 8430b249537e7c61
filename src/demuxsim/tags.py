"""Time-tag streams and their on-disk formats.

Records are (channel, timestamp) pairs.  Timestamps are integer picoseconds
from run start and, at this layer, exact multiples of the pump pulse period.
The binary format is columnar and little-endian: all channels as u32 followed
by all timestamps as u64, with run metadata in a JSON sidecar next to the data
file.  CSV export uses the header ``channel,timestamp_ps``.  Both round-trip
bit-exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "StreamMeta",
    "TimeTagStream",
    "sidecar_path",
    "write_stream",
    "read_stream",
    "write_csv",
    "read_csv",
]

FORMAT_NAME = "ttag-columnar"
FORMAT_VERSION = 1
RECORD_BYTES = 4 + 8  # u32 channel + u64 picoseconds


@dataclass(frozen=True)
class StreamMeta:
    """Run metadata carried with a stream.

    config_digest identifies the device configuration (emitter, couplers,
    network, losses, detector) that produced the stream; analysis against a
    different configuration is refused.  Schedule and acquisition parameters
    are per-run and recorded here explicitly.
    """

    config_digest: str
    pump_rate_hz: float
    pulse_period_ps: int
    pulse_count: int
    n_channels: int
    schedule_period: int
    schedule_targets: tuple[int, ...]
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        """Refuse any value no simulated run can produce, naming its field."""
        rate = self.pump_rate_hz
        if not (_is_int(rate) or isinstance(rate, float)) or not 0 < rate <= sys.float_info.max:
            raise DataError(f"pump_rate_hz must be finite and > 0, got {rate!r}")
        for key, minimum in (
            ("n_channels", 1), ("schedule_period", 1), ("pulse_period_ps", 1), ("pulse_count", 0)
        ):
            value = getattr(self, key)
            if not _is_int(value) or value < minimum:
                raise DataError(f"{key} must be an integer >= {minimum}, got {value!r}")
        targets = self.schedule_targets
        if not isinstance(targets, (list, tuple)) or len(targets) != self.schedule_period:
            raise DataError(
                f"schedule_targets must list schedule_period={self.schedule_period} outputs, "
                f"got {targets!r}"
            )
        if not all(_is_int(t) and 1 <= t <= self.n_channels for t in targets):
            raise DataError(
                f"schedule_targets must be integers in 1..{self.n_channels}, got {targets!r}"
            )
        if max(self.pulse_count, 1) * self.pulse_period_ps >= 2**63:  # pulse_indices are int64
            raise DataError(
                f"pulse_count*pulse_period_ps must fit in int64, got "
                f"{self.pulse_count}*{self.pulse_period_ps}"
            )
        object.__setattr__(self, "pump_rate_hz", float(rate))
        object.__setattr__(self, "schedule_targets", tuple(targets))

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "format_version": self.format_version,
            "config_digest": self.config_digest,
            "pump_rate_hz": self.pump_rate_hz,
            "pulse_period_ps": self.pulse_period_ps,
            "pulse_count": self.pulse_count,
            "n_channels": self.n_channels,
            "schedule_period": self.schedule_period,
            "schedule_targets": list(self.schedule_targets),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StreamMeta":
        """Parse a sidecar; the constructor refuses impossible values."""
        if doc.get("format") != FORMAT_NAME:
            raise DataError(f"not a {FORMAT_NAME} sidecar: format={doc.get('format')!r}")
        if doc.get("format_version") != FORMAT_VERSION:
            raise DataError(f"unsupported format_version {doc.get('format_version')!r}")
        try:
            return cls(
                config_digest=doc["config_digest"],
                pump_rate_hz=doc["pump_rate_hz"],
                pulse_period_ps=doc["pulse_period_ps"],
                pulse_count=doc["pulse_count"],
                n_channels=doc["n_channels"],
                schedule_period=doc["schedule_period"],
                schedule_targets=doc["schedule_targets"],
            )
        except KeyError as exc:
            raise DataError(f"sidecar is missing {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class TimeTagStream:
    """Detection events sorted by timestamp, ties broken by channel."""

    def __init__(self, channels: np.ndarray, timestamps_ps: np.ndarray, meta: StreamMeta):
        channels = np.asarray(channels, dtype=np.uint32)
        timestamps_ps = np.asarray(timestamps_ps, dtype=np.uint64)
        if channels.shape != timestamps_ps.shape or channels.ndim != 1:
            raise DataError("channels and timestamps must be 1-d arrays of equal length")
        later, earlier = timestamps_ps[1:], timestamps_ps[:-1]
        tied = later == earlier
        tied &= channels[1:] <= channels[:-1]
        if np.any(later < earlier) or np.any(tied):
            raise DataError("records must be sorted by timestamp, ties by channel")
        if len(channels) and (channels.min() < 1 or channels.max() > meta.n_channels):
            raise DataError(
                f"record channels span {channels.min()}..{channels.max()}, "
                f"outside 1..{meta.n_channels}"
            )
        self.channels = channels
        self.timestamps_ps = timestamps_ps
        self.meta = meta

    def __len__(self) -> int:
        return len(self.channels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeTagStream):
            return NotImplemented
        return (
            self.meta == other.meta
            and np.array_equal(self.channels, other.channels)
            and np.array_equal(self.timestamps_ps, other.timestamps_ps)
        )

    @property
    def acquisition_s(self) -> float:
        """Total acquisition time implied by the pulse count."""
        return self.meta.pulse_count / self.meta.pump_rate_hz

    @property
    def pulse_indices(self) -> np.ndarray:
        # a view: the values astype(np.int64) gives, without a copy of every record
        return (self.timestamps_ps // np.uint64(self.meta.pulse_period_ps)).view(np.int64)

    def singles_counts(self) -> np.ndarray:
        """Per-channel record counts, index 0 = channel 1."""
        counts = np.bincount(self.channels, minlength=self.meta.n_channels + 1)
        return counts[1:].astype(np.int64)

    def singles_rates_hz(self) -> np.ndarray:
        if self.meta.pulse_count == 0:
            raise DataError("a stream with pulse_count 0 has no acquisition time, so no rates")
        return self.singles_counts() / self.acquisition_s


def sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def write_stream(stream: TimeTagStream, path) -> None:
    """Write the columnar binary file and its JSON sidecar."""
    path = Path(path)
    with path.open("wb") as fh:  # the columns' own buffers, no byte copies
        fh.write(np.ascontiguousarray(stream.channels, dtype="<u4"))
        fh.write(np.ascontiguousarray(stream.timestamps_ps, dtype="<u8"))
    doc = stream.meta.to_dict()
    doc["n_records"] = len(stream)
    sidecar_path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_stream(path) -> TimeTagStream:
    path = Path(path)
    side = sidecar_path(path)
    if not side.exists():
        raise DataError(f"missing sidecar {side}")
    try:
        doc = json.loads(side.read_text())
        n = int(doc["n_records"])
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"malformed sidecar {side}: {exc!r}") from None
    meta = StreamMeta.from_dict(doc)
    size = path.stat().st_size
    if size != n * RECORD_BYTES:
        raise DataError(f"{path}: expected {n * RECORD_BYTES} bytes for {n} records, got {size}")
    channels = np.fromfile(path, dtype="<u4", count=n)
    timestamps = np.fromfile(path, dtype="<u8", count=n, offset=4 * n)
    return TimeTagStream(channels, timestamps, meta)


def write_csv(stream: TimeTagStream, path) -> None:
    path = Path(path)
    with path.open("w") as fh:
        fh.write("channel,timestamp_ps\n")
        for start in range(0, len(stream), _CSV_CHUNK_RECORDS):
            rows = slice(start, start + _CSV_CHUNK_RECORDS)
            fields = np.column_stack([stream.channels[rows], stream.timestamps_ps[rows]])
            fh.write(("%d,%d\n" * len(fields)) % tuple(fields.ravel().tolist()))


# records per write_csv chunk: one %-format over a chunk's Python ints is
# several times faster than a format call per record, and a chunk bounds the
# text held at once
_CSV_CHUNK_RECORDS = 1 << 16


def read_csv(path, meta: StreamMeta) -> TimeTagStream:
    """Load a CSV export; metadata must be supplied (CSV has no sidecar).

    Fields must be integers and timestamps must sit on the pulse grid, since
    analysis maps each record to a pulse index by exact division.
    """
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if header != "channel,timestamp_ps":
            raise DataError(f"unexpected CSV header {header!r}")
        rows = [line.split(",") for line in fh if line.strip()]
    malformed = f"{path}: rows must be two integers channel,timestamp_ps"
    if any(len(r) != 2 for r in rows):
        raise DataError(malformed)
    try:
        table = np.array([int(f) for r in rows for f in r], dtype=np.int64)
    except (ValueError, OverflowError):
        raise DataError(malformed) from None
    channels, timestamps = table.reshape(-1, 2).T
    if np.any(channels < 1) or np.any(channels > meta.n_channels):  # before u32 wraps them
        raise DataError(f"{path}: channels must lie in 1..{meta.n_channels}")
    if np.any(timestamps < 0) or np.any(timestamps % meta.pulse_period_ps):
        raise DataError(f"{path}: timestamps must be multiples of {meta.pulse_period_ps} ps >= 0")
    return TimeTagStream(channels, timestamps, meta)

