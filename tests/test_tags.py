"""Time-tag stream container and the binary/CSV round trips."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from demuxsim import tags
from demuxsim import (
    DataError,
    StreamMeta,
    TimeTagStream,
    read_csv,
    read_stream,
    sidecar_path,
    write_csv,
    write_stream,
)

PERIOD_PS = 12500  # 80 MHz


def make_meta(pulse_count=1000, n_channels=4, targets=(1, 2, 3, 4)) -> StreamMeta:
    return StreamMeta(
        config_digest="d" * 64,
        pump_rate_hz=8.0e7,
        pulse_period_ps=PERIOD_PS,
        pulse_count=pulse_count,
        n_channels=n_channels,
        schedule_period=len(targets),
        schedule_targets=tuple(targets),
    )


def make_stream(events, **meta_kwargs) -> TimeTagStream:
    """events: (channel, pulse_index) pairs already in record order."""
    channels = np.array([ch for ch, _ in events], dtype=np.uint32)
    stamps = np.array([p * PERIOD_PS for _, p in events], dtype=np.uint64)
    return TimeTagStream(channels, stamps, make_meta(**meta_kwargs))


sorted_events = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=999)),
    max_size=200,
    unique=True,
).map(lambda evs: sorted((p, ch) for ch, p in evs))


@given(sorted_events)
def test_binary_round_trip(tmp_path_factory, events):
    stream = make_stream([(ch, p) for p, ch in events])
    path = tmp_path_factory.mktemp("rt") / "run.tags"
    write_stream(stream, path)
    again = read_stream(path)
    assert again == stream


@given(sorted_events)
def test_csv_round_trip(tmp_path_factory, events):
    stream = make_stream([(ch, p) for p, ch in events])
    path = tmp_path_factory.mktemp("rt") / "run.csv"
    write_csv(stream, path)
    again = read_csv(path, stream.meta)
    assert again == stream


def per_record_csv(stream) -> bytes:
    """The CSV as the old writer made it, one f-string per record."""
    rows = [f"{int(ch)},{int(ts)}\n" for ch, ts in zip(stream.channels, stream.timestamps_ps)]
    return ("channel,timestamp_ps\n" + "".join(rows)).encode()


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
@pytest.mark.parametrize("records", [0, 1, 7, (1 << 16) + 5])
def test_write_csv_bytes_match_per_record_writer(tmp_path, monkeypatch, chunk, records):
    monkeypatch.setattr(tags, "_CSV_CHUNK_RECORDS", chunk)
    rng = np.random.default_rng(records)
    # widest fields: channel 2**32 - 1 and timestamps up to the last u64 pulse
    pulses = np.sort(rng.integers(0, (2**64 - 1) // PERIOD_PS, size=records, dtype=np.uint64))
    pulses[-1:] = (2**64 - 1) // PERIOD_PS
    channels = rng.integers(1, 2**32, size=records, dtype=np.uint32)
    channels[:1] = 2**32 - 1
    meta = make_meta(pulse_count=2**63 // PERIOD_PS, n_channels=2**32 - 1)
    stream = TimeTagStream(channels, pulses * np.uint64(PERIOD_PS), meta)
    path = tmp_path / "run.csv"
    write_csv(stream, path)
    assert path.read_bytes() == per_record_csv(stream)


def test_binary_layout_is_columnar_little_endian(tmp_path):
    stream = make_stream([(3, 0), (1, 2), (4, 2)])
    path = tmp_path / "run.tags"
    write_stream(stream, path)
    raw = path.read_bytes()
    assert len(raw) == 3 * 12
    assert raw[:12] == np.array([3, 1, 4], dtype="<u4").tobytes()
    assert raw[12:] == np.array(
        [0, 2 * PERIOD_PS, 2 * PERIOD_PS], dtype="<u8"
    ).tobytes()
    doc = json.loads(sidecar_path(path).read_text())
    assert doc["format"] == "ttag-columnar"
    assert doc["n_records"] == 3
    assert doc["pulse_period_ps"] == PERIOD_PS


def test_sort_validation():
    with pytest.raises(DataError):  # timestamps out of order
        make_stream([(1, 5), (1, 3)])
    with pytest.raises(DataError):  # tie with non-increasing channel
        make_stream([(2, 5), (2, 5)])
    with pytest.raises(DataError):
        make_stream([(3, 5), (2, 5)])
    # ties with increasing channel are fine
    assert len(make_stream([(2, 5), (3, 5)])) == 2


@pytest.mark.parametrize("channel", [0, 5, 2**32 - 1])
def test_out_of_range_channel_is_rejected(channel):
    # channel 0 used to be counted as channel n, channels above n raised IndexError
    with pytest.raises(DataError, match="channel"):
        make_stream([(1, 0), (channel, 3)])


def test_shape_validation():
    meta = make_meta()
    with pytest.raises(DataError):
        TimeTagStream(np.zeros((2, 2), np.uint32), np.zeros((2, 2), np.uint64), meta)
    with pytest.raises(DataError):
        TimeTagStream(np.zeros(3, np.uint32), np.zeros(2, np.uint64), meta)


def test_derived_quantities():
    stream = make_stream([(1, 0), (2, 1), (1, 5), (4, 7)], pulse_count=800)
    assert stream.acquisition_s == pytest.approx(1e-5)
    np.testing.assert_array_equal(stream.pulse_indices, [0, 1, 5, 7])
    np.testing.assert_array_equal(stream.singles_counts(), [2, 1, 0, 1])
    np.testing.assert_allclose(
        stream.singles_rates_hz(), [2e5, 1e5, 0.0, 1e5]
    )


def test_singles_rates_of_a_zero_pulse_stream_are_refused():
    # they used to be NaN, with a RuntimeWarning from the division by 0 s
    stream = make_stream([], pulse_count=0)
    np.testing.assert_array_equal(stream.singles_counts(), [0, 0, 0, 0])
    with pytest.raises(DataError, match="pulse_count 0"):
        stream.singles_rates_hz()


def test_strided_columns_round_trip(tmp_path):
    table = np.array([[1, 0], [3, PERIOD_PS], [2, 5 * PERIOD_PS]], dtype=np.uint64)
    stream = TimeTagStream(table[:, 0], table[:, 1], make_meta())  # non-contiguous views
    path = tmp_path / "strided.tags"
    write_stream(stream, path)
    assert read_stream(path) == stream


def test_empty_stream(tmp_path):
    stream = make_stream([])
    assert len(stream) == 0
    np.testing.assert_array_equal(stream.singles_counts(), [0, 0, 0, 0])
    path = tmp_path / "empty.tags"
    write_stream(stream, path)
    assert read_stream(path) == stream


def test_read_stream_error_paths(tmp_path):
    stream = make_stream([(1, 0), (2, 3)])
    path = tmp_path / "run.tags"
    write_stream(stream, path)

    # truncated payload
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(DataError):
        read_stream(path)

    # missing sidecar
    other = tmp_path / "other.tags"
    other.write_bytes(b"")
    with pytest.raises(DataError):
        read_stream(other)


def test_sidecar_validation(tmp_path):
    stream = make_stream([(1, 0)])
    path = tmp_path / "run.tags"
    write_stream(stream, path)
    side = sidecar_path(path)

    doc = json.loads(side.read_text())
    doc["format"] = "something-else"
    side.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        read_stream(path)

    doc["format"] = "ttag-columnar"
    doc["format_version"] = 99
    side.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        read_stream(path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: len(text) // 2],  # invalid JSON
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "n_records"}),
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "pulse_count"}),
        lambda text: json.dumps({**json.loads(text), "pulse_period_ps": "fast"}),
        lambda text: json.dumps({**json.loads(text), "schedule_targets": None}),
        lambda text: json.dumps([json.loads(text)]),
    ],
    ids=["invalid-json", "no-n-records", "no-pulse-count", "non-numeric", "null-targets", "not-object"],
)
def test_malformed_sidecar_is_data_error(tmp_path, corrupt):
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, 0), (2, 3)]), path)
    side = sidecar_path(path)
    side.write_text(corrupt(side.read_text()))
    with pytest.raises(DataError):
        read_stream(path)


IMPOSSIBLE_SIDECAR_VALUES = [
    ("pump_rate_hz", 0),  # analyze --which nfold divided by zero
    ("pump_rate_hz", -8.0e7),  # negative rates came out as rate_hz=-0
    ("pump_rate_hz", float("nan")),
    ("pump_rate_hz", float("inf")),
    ("pump_rate_hz", 10**400),  # finite as an integer, not as a float
    ("pump_rate_hz", "8e7"),
    ("pulse_period_ps", 0),
    ("pulse_period_ps", -12500),
    ("pulse_period_ps", 12500.9),  # used to be truncated to 12500
    ("pulse_period_ps", 2**70),  # pulse_indices raised OverflowError
    ("pulse_period_ps", 2**63 // 1000 + 1),  # 1000 pulses overrun int64
    ("pulse_count", -1),
    ("pulse_count", 2**63 // PERIOD_PS + 1),
    ("pulse_count", 1.5),
    ("n_channels", 0),
    ("n_channels", 4.5),
    ("schedule_period", 3),  # 4 targets; nfold_1_2_3.json was written
    ("schedule_period", 5),
    ("schedule_targets", [1, 2, 3, 5]),
    ("schedule_targets", [0, 1, 2, 3]),
    ("schedule_targets", [1, 2, 3, 4.5]),
    ("schedule_targets", [1, 2, 3, True]),
    ("schedule_targets", [1, 2, 3, "4"]),
    ("schedule_targets", "1234"),
]


@pytest.mark.parametrize(
    "field, value",
    IMPOSSIBLE_SIDECAR_VALUES,
    ids=[f"{field}={value!r}" for field, value in IMPOSSIBLE_SIDECAR_VALUES],
)
def test_sidecar_impossible_values_are_data_errors(tmp_path, field, value):
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, 0), (2, 3)]), path)
    side = sidecar_path(path)
    doc = json.loads(side.read_text())
    doc[field] = value
    side.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=field):
        read_stream(path)


@pytest.mark.parametrize(
    "field, value",
    IMPOSSIBLE_SIDECAR_VALUES,
    ids=[f"{field}={value!r}" for field, value in IMPOSSIBLE_SIDECAR_VALUES],
)
def test_stream_meta_impossible_values_are_data_errors(field, value):
    # a direct construction used to bypass the sidecar checks: a negative pump
    # rate gave negative n-fold rates and sigmas
    fields = {**dataclasses.asdict(make_meta()), field: value}
    with pytest.raises(DataError, match=field):
        StreamMeta(**fields)


def test_sidecar_needs_a_scheduled_bin(tmp_path):
    path = tmp_path / "run.tags"
    write_stream(make_stream([]), path)
    side = sidecar_path(path)
    doc = json.loads(side.read_text())
    doc.update(schedule_period=0, schedule_targets=[])
    side.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="schedule"):
        read_stream(path)


def test_sidecar_run_must_fit_int64_pulse_indices(tmp_path):
    path = tmp_path / "run.tags"
    write_stream(make_stream([], pulse_count=0), path)
    side = sidecar_path(path)
    doc = json.loads(side.read_text())
    doc["pulse_period_ps"] = 2**63  # too long a period even for no pulses
    side.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="pulse_period_ps"):
        read_stream(path)
    doc.update(pulse_count=1, pulse_period_ps=2**63 - 1)  # the longest run that fits
    side.write_text(json.dumps(doc))
    assert read_stream(path).meta.pulse_period_ps == 2**63 - 1


def test_sidecar_accepts_partial_and_permuted_schedules(tmp_path):
    for targets in ((1,), (3, 1), (4, 2, 3, 1, 2)):
        path = tmp_path / "run.tags"
        stream = make_stream([(1, 0)], pulse_count=0, targets=targets)
        write_stream(stream, path)
        assert read_stream(path) == stream


@pytest.mark.parametrize(
    "row",
    [
        "1,12501",  # off the pulse grid
        "1,6250",
        "1,-12500",
        "1.5,0",  # non-integer fields
        "1,1.25e4",
        "1,12500.0",
        "one,0",
        "1",
        "1,0,7",
        "4294967297,0",  # channel 1 after a u32 cast
    ],
)
def test_csv_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "run.csv"
    path.write_text(f"channel,timestamp_ps\n1,0\n{row}\n2,25000\n")
    with pytest.raises(DataError):
        read_csv(path, make_meta())


def test_csv_header_checked(tmp_path):
    path = tmp_path / "run.csv"
    path.write_text("chan,ts\n1,0\n")
    with pytest.raises(DataError):
        read_csv(path, make_meta())
