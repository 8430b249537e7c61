"""Time-tag streams and their on-disk formats.

Records are (channel, timestamp) pairs.  Timestamps are integer picoseconds
from run start and, at this layer, exact multiples of the pump pulse period.
The binary format is columnar and little-endian: all channels as u32 followed
by all timestamps as u64, with run metadata in a JSON sidecar next to the data
file; it round-trips bit-exactly.  CSV is export only, with the header
``channel,timestamp_ps``.  Every pass over a stream, in memory or in a file,
reads it in chunks of _CHUNK_RECORDS records.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataError, check_integer, check_positive

__all__ = [
    "StreamMeta",
    "TimeTagStream",
    "sidecar_path",
    "write_stream",
    "read_stream",
    "write_csv",
]

FORMAT_NAME = "ttag-columnar"
FORMAT_VERSION = 2
RECORD_BYTES = 4 + 8  # u32 channel + u64 picoseconds


@dataclass(frozen=True)
class StreamMeta:
    """Run metadata carried with a stream.

    config_digest identifies the device configuration (emitter, couplers,
    network, losses, detector) that produced the stream; analysis against a
    different configuration is refused.  Acquisition parameters are per-run
    and recorded here explicitly; schedule_targets[k] is the output that bin k
    of the cyclic drive routes to, so the schedule period is its length.
    """

    config_digest: str
    pump_rate_hz: float
    pulse_period_ps: int
    pulse_count: int
    n_channels: int
    schedule_targets: tuple[int, ...]

    def __post_init__(self) -> None:
        """Refuse any value no simulated run can produce, naming its field; store Python numbers."""
        rate = float(check_positive("pump_rate_hz", self.pump_rate_hz, DataError))
        object.__setattr__(self, "pump_rate_hz", rate)
        for key, minimum in (("n_channels", 1), ("pulse_period_ps", 1), ("pulse_count", 0)):
            value = check_integer(key, getattr(self, key), minimum, DataError)
            object.__setattr__(self, key, value)
        targets = self.schedule_targets
        if not isinstance(targets, (list, tuple)) or not targets:
            raise DataError(f"schedule_targets must list at least one output, got {targets!r}")
        targets = tuple(check_integer("schedule_targets", t, 1, DataError) for t in targets)
        if max(targets) > self.n_channels:
            raise DataError(f"schedule_targets must be in 1..{self.n_channels}, got {targets!r}")
        if max(self.pulse_count, 1) * self.pulse_period_ps >= 2**63:  # pulse indices are int64
            raise DataError(
                f"pulse_count*pulse_period_ps must fit in int64, got "
                f"{self.pulse_count}*{self.pulse_period_ps}"
            )
        object.__setattr__(self, "schedule_targets", targets)

    def to_dict(self) -> dict:
        return {"format": FORMAT_NAME, "format_version": FORMAT_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "StreamMeta":
        """Parse a sidecar; it refuses unknown keys, the constructor impossible values."""
        if doc.get("format") != FORMAT_NAME:
            raise DataError(f"not a {FORMAT_NAME} sidecar: format={doc.get('format')!r}")
        version = doc.get("format_version")
        if check_integer("format_version", version, 1, DataError) != FORMAT_VERSION:
            raise DataError(f"unsupported format_version {version!r}")
        names = [field.name for field in fields(cls)]
        unknown = set(doc) - {"format", "format_version", "n_records", *names}
        if unknown:
            raise DataError(f"unknown sidecar key(s) {sorted(unknown)!r}")
        try:
            return cls(**{name: doc[name] for name in names})
        except KeyError as exc:
            raise DataError(f"sidecar is missing {exc}") from None


class TimeTagStream:
    """Detection events sorted by timestamp, ties broken by channel.

    The records are (channels, timestamps_ps) column parts, held in memory or
    in a data file and read through chunks() alone.
    """

    def __init__(self, channels: np.ndarray, timestamps_ps: np.ndarray, meta: StreamMeta):
        channels = np.asarray(channels, dtype=np.uint32)
        timestamps_ps = np.asarray(timestamps_ps, dtype=np.uint64)
        if channels.shape != timestamps_ps.shape or channels.ndim != 1:
            raise DataError("channels and timestamps must be 1-d arrays of equal length")
        self._hold([(channels, timestamps_ps)], meta)

    @classmethod
    def _of_parts(cls, parts, meta: StreamMeta) -> "TimeTagStream":
        """A stream of parts, column pairs in record order that each pass iterates again."""
        stream = cls.__new__(cls)
        stream._hold(parts, meta)
        return stream

    def _hold(self, parts, meta: StreamMeta) -> None:
        """Keep parts after one pass that checks order and channels, carried across chunks."""
        self._parts, self.meta, self._len = parts, meta, 0
        last = (-1, 0)  # (timestamp, channel) of the last record so far, before any record
        for channels, stamps in self.chunks():
            later, earlier = stamps[1:], stamps[:-1]
            tied = later == earlier
            tied &= channels[1:] <= channels[:-1]
            head = (int(stamps[0]), int(channels[0]))
            if np.any(later < earlier) or np.any(tied) or head <= last:
                raise DataError("records must be sorted by timestamp, ties by channel")
            low, high = channels.min(), channels.max()
            if low < 1 or high > meta.n_channels:
                raise DataError(
                    f"record channels span {low}..{high}, outside 1..{meta.n_channels}"
                )
            last = (int(stamps[-1]), int(channels[-1]))
            self._len += len(channels)

    def chunks(self):
        """Yield (channels u32, timestamps_ps u64) in order, 1 to _CHUNK_RECORDS records each."""
        for channels, stamps in self._parts:
            for start in range(0, len(channels), _CHUNK_RECORDS):
                rows = slice(start, start + _CHUNK_RECORDS)
                yield channels[rows], stamps[rows]

    def __len__(self) -> int:
        return self._len

    @property
    def acquisition_s(self) -> float:
        """Total acquisition time implied by the pulse count; a run of 0 pulses has none."""
        if self.meta.pulse_count == 0:
            raise DataError("a stream with pulse_count 0 has no acquisition time, so no rates")
        return self.meta.pulse_count / self.meta.pump_rate_hz

    def singles_counts(self) -> np.ndarray:
        """Per-channel record counts, index 0 = channel 1; a record past the run is refused."""
        n = self.meta.n_channels + 1
        counts = np.zeros(n, np.int64)
        for channels, stamps in self.chunks():
            _check_in_run(self.meta, stamps[-1])
            counts += np.bincount(channels, minlength=n)
        return counts[1:]

    def singles_rates_hz(self) -> np.ndarray:
        return self.singles_counts() / self.acquisition_s


def _check_in_run(meta: StreamMeta, last_stamp) -> None:
    """Refuse a chunk of sorted records whose last record lies at pulse pulse_count or later."""
    pulse = int(last_stamp) // meta.pulse_period_ps
    if pulse >= meta.pulse_count:
        raise DataError(f"record pulse {pulse} is not below pulse_count {meta.pulse_count}")


# records per chunk of every pass over a stream: a chunk's int64 column is
# 128 KiB, so its temporaries stay in cache and reuse their pages from chunk to
# chunk; loop overhead is small, and write_csv formats one chunk's text at once.
# Of 2^12 to 2^16, 2^14 analysed the 4-channel benchmark stream fastest (0.27 s
# against 0.30 s at 2^16 and 0.37 s at 2^12), and its two analyze passes took
# about 540 fresh page faults, against 25k at 2^16
_CHUNK_RECORDS = 1 << 14


@dataclass(frozen=True)
class _DataFile:
    """The records of a data file, read a chunk at a time on each pass.

    Each pass refuses a file whose size or modification time is not the one
    read_stream recorded; a rewrite within one mtime tick still goes unseen.
    """

    path: Path
    n_records: int
    mtime_ns: int

    def __iter__(self):
        n, path = self.n_records, self.path
        with path.open("rb") as channels, path.open("rb") as stamps:
            status = os.fstat(channels.fileno())
            if status.st_size != n * RECORD_BYTES:
                raise DataError(
                    f"{path}: expected {n * RECORD_BYTES} bytes for {n} records, "
                    f"got {status.st_size}"
                )
            if status.st_mtime_ns != self.mtime_ns:
                raise DataError(f"{path} was modified after it was read")
            stamps.seek(4 * n)
            for start in range(0, n, _CHUNK_RECORDS):
                count = min(_CHUNK_RECORDS, n - start)
                raw = channels.read(4 * count), stamps.read(8 * count)
                if len(raw[0]) != 4 * count or len(raw[1]) != 8 * count:
                    raise DataError(f"{path} shrank while it was read")
                yield np.frombuffer(raw[0], "<u4"), np.frombuffer(raw[1], "<u8")


def sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def write_stream(stream: TimeTagStream, path) -> None:
    """Write the columnar binary file in one pass over the chunks, and its JSON sidecar.

    Two handles on the file write the two columns, the second from 4 bytes per record on.
    """
    path = Path(path)
    with path.open("wb") as channels_out, path.open("r+b") as stamps_out:
        stamps_out.seek(4 * len(stream))
        for channels, stamps in stream.chunks():
            channels_out.write(np.ascontiguousarray(channels, dtype="<u4"))
            stamps_out.write(np.ascontiguousarray(stamps, dtype="<u8"))
    doc = stream.meta.to_dict()
    doc["n_records"] = len(stream)
    sidecar_path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_stream(path) -> TimeTagStream:
    """A stream of the data file at path, checked in one pass; each pass reads it again."""
    path = Path(path)
    side = sidecar_path(path)
    if not side.exists():
        raise DataError(f"missing sidecar {side}")
    try:
        doc = json.loads(side.read_text())
        n = doc["n_records"]
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"malformed sidecar {side}: {exc!r}") from None
    n = check_integer("n_records", n, 0, DataError)
    meta = StreamMeta.from_dict(doc)
    return TimeTagStream._of_parts(_DataFile(path, n, path.stat().st_mtime_ns), meta)


def write_csv(stream: TimeTagStream, path) -> None:
    path = Path(path)
    with path.open("w") as fh:
        fh.write("channel,timestamp_ps\n")
        for channels, stamps in stream.chunks():
            fields = np.column_stack([channels, stamps])
            fh.write(("%d,%d\n" * len(fields)) % tuple(fields.ravel().tolist()))
