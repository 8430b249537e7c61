"""Time-tag stream container, the binary round trip and the CSV export."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from demuxsim import tags
from demuxsim.tags import RECORD_BYTES
from demuxsim import (
    DataError,
    StreamMeta,
    TimeTagStream,
    count_nfold,
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


@pytest.mark.filterwarnings("ignore:loadtxt:UserWarning")  # a header-only file has no data
@given(sorted_events)
def test_csv_round_trip(tmp_path_factory, events):
    stream = make_stream([(ch, p) for p, ch in events])
    path = tmp_path_factory.mktemp("rt") / "run.csv"
    write_csv(stream, path)
    # one record reads as shape (2,) and none as shape (0,), so reshape to rows
    again = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.uint64).reshape(-1, 2)
    assert np.array_equal(again[:, 0], stream.channels)
    assert np.array_equal(again[:, 1], stream.timestamps_ps)


def per_record_csv(stream) -> bytes:
    """The CSV as the old writer made it, one f-string per record."""
    rows = [f"{int(ch)},{int(ts)}\n" for ch, ts in zip(stream.channels, stream.timestamps_ps)]
    return ("channel,timestamp_ps\n" + "".join(rows)).encode()


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
@pytest.mark.parametrize("records", [0, 1, 7, (1 << 16) + 5])
def test_write_csv_bytes_match_per_record_writer(tmp_path, monkeypatch, chunk, records):
    monkeypatch.setattr(tags, "_CHUNK_RECORDS", chunk)
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


@pytest.mark.parametrize(
    "events",
    [[(1, 3), (2, 4), (1, 2), (3, 5)], [(1, 3), (2, 4), (2, 4), (3, 5)], [(1, 3), (3, 4), (2, 4)]],
    ids=["out-of-order", "repeated", "mis-tied"],
)
def test_sort_validation_across_part_edges(events):
    # every part is sorted; only the pair on either side of the cut is not
    channels = np.array([ch for ch, _ in events], dtype=np.uint32)
    stamps = np.array([p * PERIOD_PS for _, p in events], dtype=np.uint64)
    parts = [(channels[:2], stamps[:2]), (channels[:0], stamps[:0]), (channels[2:], stamps[2:])]
    with pytest.raises(DataError, match="sorted"):
        TimeTagStream._of_parts(parts, make_meta())


def write_raw(path, channels, stamps):
    """A data file and sidecar of the given columns, unchecked."""
    write_stream(make_stream([]), path)
    side = sidecar_path(path)
    side.write_text(side.read_text().replace('"n_records": 0', f'"n_records": {len(channels)}'))
    path.write_bytes(
        np.asarray(channels, "<u4").tobytes() + np.asarray(stamps, "<u8").tobytes()
    )


@pytest.mark.parametrize(
    "pulses, channels",
    [([0, 2, 1, 5, 6], [1, 1, 1, 1, 1]), ([0, 2, 2, 5, 6], [1, 3, 2, 1, 1])],
    ids=["out-of-order", "mis-tied"],
)
def test_sort_validation_across_file_chunk_edges(tmp_path, monkeypatch, pulses, channels):
    monkeypatch.setattr(tags, "_CHUNK_RECORDS", 2)
    # records 1 and 2 meet at the first chunk edge, each chunk sorted on its own
    path = tmp_path / "run.tags"
    write_raw(path, channels, np.array(pulses, dtype=np.uint64) * PERIOD_PS)
    with pytest.raises(DataError, match="sorted"):
        read_stream(path)


@pytest.mark.parametrize("channel", [0, 5])
def test_channel_range_checked_in_the_last_file_chunk(tmp_path, monkeypatch, channel):
    monkeypatch.setattr(tags, "_CHUNK_RECORDS", 2)
    path = tmp_path / "run.tags"
    write_raw(path, [1, 2, 3, 4, channel], np.arange(5, dtype=np.uint64) * PERIOD_PS)
    with pytest.raises(DataError, match="outside 1..4"):
        read_stream(path)


@pytest.mark.parametrize("change", ["grow", "shrink"])
def test_data_file_size_change_after_read_is_refused(tmp_path, change):
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, 0), (2, 3), (3, 5)]), path)
    stream = read_stream(path)
    raw = path.read_bytes()
    path.write_bytes(raw + raw[:RECORD_BYTES] if change == "grow" else raw[:-RECORD_BYTES])
    with pytest.raises(DataError, match="expected 36 bytes"):
        stream.singles_counts()


def test_data_file_rewritten_after_read_is_refused(tmp_path):
    # the same records reversed, same size: the stream read before used to
    # count them unvalidated, 0 two-folds on (1, 2) where there are 2
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, 0), (2, 1), (1, 4), (2, 5)]), path)
    stream = read_stream(path)
    assert count_nfold(stream, (1, 2)).count == 2
    mtime_ns = path.stat().st_mtime_ns
    channels, stamps = stream.channels, stream.timestamps_ps
    path.write_bytes(channels[::-1].tobytes() + stamps[::-1].tobytes())
    os.utime(path, ns=(mtime_ns + 10**9, mtime_ns + 10**9))
    with pytest.raises(DataError, match="modified after it was read"):
        count_nfold(stream, (1, 2))


def test_data_file_shrinking_during_a_pass_is_refused(tmp_path, monkeypatch):
    # chunks of 16 and 32 KB, larger than the read buffer, so each read meets the file
    monkeypatch.setattr(tags, "_CHUNK_RECORDS", 1 << 12)
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, p) for p in range(3 << 12)], pulse_count=3 << 12), path)
    chunks = read_stream(path).chunks()
    next(chunks)
    path.write_bytes(path.read_bytes()[: RECORD_BYTES << 12])
    with pytest.raises(DataError, match="shrank"):
        next(chunks)


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


def test_acquisition_time_of_a_zero_pulse_stream_is_refused():
    # it used to be 0.0 s, which every rate then divides by
    with pytest.raises(DataError, match="pulse_count 0 has no acquisition time"):
        make_stream([], pulse_count=0).acquisition_s


@pytest.mark.parametrize(
    "events, pulse_count, last",
    [
        ([(1, 0), (2, 5000)], 1000, 5000),
        ([(1, 0), (2, 1000)], 1000, 1000),  # pulse_count itself is past the run
        (
            [(1, p) for p in range(tags._CHUNK_RECORDS + 1)],
            tags._CHUNK_RECORDS,
            tags._CHUNK_RECORDS,
        ),
    ],
    ids=["far-past", "at-pulse-count", "in-a-later-chunk"],
)
def test_singles_refuse_a_record_past_the_run(events, pulse_count, last):
    # the rates used to come out over too short a run: [80000, 80000, 0, 0] for the first
    stream = make_stream(events, pulse_count=pulse_count)
    message = f"record pulse {last} is not below pulse_count {pulse_count}"
    with pytest.raises(DataError, match=message):
        stream.singles_counts()
    with pytest.raises(DataError, match=message):
        stream.singles_rates_hz()


def test_singles_count_the_last_pulse_of_the_run():
    stream = make_stream([(1, 0), (3, 999)], pulse_count=1000)
    np.testing.assert_array_equal(stream.singles_counts(), [1, 0, 1, 0])


def test_a_stream_is_unequal_to_anything_else():
    stream = make_stream([(1, 0)])
    assert stream.__eq__((stream.channels, stream.timestamps_ps)) is NotImplemented
    assert stream != "stream" and stream != 1


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


def test_sidecar_is_the_format_and_every_meta_field(tmp_path):
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, 0)]), path)
    doc = json.loads(sidecar_path(path).read_text())
    names = [field.name for field in dataclasses.fields(StreamMeta)]
    assert set(doc) == {"format", "format_version", "n_records", *names}
    for name in names:
        partial = {key: value for key, value in doc.items() if key != name}
        sidecar_path(path).write_text(json.dumps(partial))
        with pytest.raises(DataError, match=f"sidecar is missing '{name}'"):
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


@pytest.mark.parametrize("n_records", ["4", 4.0, 4.9])
def test_sidecar_n_records_must_be_an_integer(tmp_path, n_records):
    # int() used to take each of these as 4 records
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, 0), (2, 3), (3, 5), (4, 6)]), path)
    side = sidecar_path(path)
    side.write_text(json.dumps({**json.loads(side.read_text()), "n_records": n_records}))
    with pytest.raises(DataError, match="n_records must be an integer >= 0"):
        read_stream(path)


@pytest.mark.parametrize("version", [True, 1.0, 2.0])
def test_sidecar_format_version_must_be_an_integer(tmp_path, version):
    # each compares equal to a version, so a != test alone takes it for that version
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, 0)]), path)
    side = sidecar_path(path)
    side.write_text(json.dumps({**json.loads(side.read_text()), "format_version": version}))
    with pytest.raises(DataError, match="format_version"):
        read_stream(path)


def test_version_1_sidecar_refused(tmp_path):
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, 0)]), path)
    side = sidecar_path(path)
    doc = json.loads(side.read_text())
    doc.update(format_version=1, schedule_period=len(doc["schedule_targets"]))
    side.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="unsupported format_version 1"):
        read_stream(path)


def test_sidecar_unknown_keys_refused(tmp_path):
    # these used to read without error, and the keys vanished
    path = tmp_path / "run.tags"
    write_stream(make_stream([(1, 0)]), path)
    side = sidecar_path(path)
    side.write_text(json.dumps({**json.loads(side.read_text()), "schedule_period": 3, "seed": 5}))
    with pytest.raises(DataError, match=r"unknown sidecar key\(s\) \['schedule_period', 'seed'\]"):
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


def test_stream_meta_stores_numpy_counts_as_python_ints():
    # numpy integers used to be refused; stored as given they would not serialise
    numpy_counts = {
        "pulse_count": np.int64(1000),
        "n_channels": np.int32(4),
        "schedule_targets": [np.int64(t) for t in (1, 2, 3, 4)],
    }
    meta = StreamMeta(**{**dataclasses.asdict(make_meta()), **numpy_counts})
    assert json.dumps(meta.to_dict()) == json.dumps(make_meta().to_dict())


def test_sidecar_needs_a_scheduled_bin(tmp_path):
    path = tmp_path / "run.tags"
    write_stream(make_stream([]), path)
    side = sidecar_path(path)
    doc = json.loads(side.read_text())
    doc["schedule_targets"] = []
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
