"""Histogramming, coincidence counting, and parameter estimation."""

import dataclasses
import math
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import curve_fit
from scipy.special import xlogy

from demuxsim import (
    ConfigError,
    DataError,
    DomainError,
    EstimationError,
    FitResult,
    NFoldCounts,
    StreamMeta,
    TimeTagStream,
    balanced_network,
    count_nfold,
    estimate_splitting_ratios,
    eta_dm_from_ratios,
    eta_sd_from_singles,
    fit_saturation,
    fit_switching_efficiency,
    g2_ratio,
    histogram,
    pair_histograms,
    routing_by_bin,
    s_active,
    saturation_model,
    schedule_for_cycle,
    switching_efficiency,
)
from demuxsim import analysis, fitting, tags
from demuxsim.analysis import CoincidenceHistogram

from conftest import (
    ETA_DM_TABLE,
    TABLE_RATIOS,
    drive_states,
    fractions_with_ends,
    path_walk,
    small_trees,
)

PERIOD_PS = 12500


def make_stream(events, targets=None, pulse_count=1000, n_channels=4) -> TimeTagStream:
    """events: (channel, pulse_index) pairs, any order, no duplicates.

    The schedule defaults to the outputs 1..4 that the stream has.
    """
    if targets is None:
        targets = tuple(range(1, min(n_channels, 4) + 1))
    events = sorted((p, ch) for ch, p in events)
    meta = StreamMeta(
        config_digest="t" * 64,
        pump_rate_hz=8.0e7,
        pulse_period_ps=PERIOD_PS,
        pulse_count=pulse_count,
        n_channels=n_channels,
        schedule_targets=tuple(targets),
    )
    channels = np.array([ch for _, ch in events], dtype=np.uint32)
    stamps = np.array([p * PERIOD_PS for p, _ in events], dtype=np.uint64)
    return TimeTagStream(channels, stamps, meta)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

event_sets = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=120)),
    max_size=150,
    unique=True,
)


def pairwise_oracle(events, a, b, max_delay):
    """Histogram of t_b - t_a by walking every record pair directly."""
    expected = np.zeros(2 * max_delay + 1, dtype=int)
    for pa in [p for ch, p in events if ch == a]:
        for pb in [p for ch, p in events if ch == b]:
            if abs(pb - pa) <= max_delay:
                expected[pb - pa + max_delay] += 1
    return expected


@settings(max_examples=80)
@given(event_sets, st.integers(min_value=0, max_value=10))
def test_histogram_matches_pairwise_enumeration(events, max_delay):
    stream = make_stream(events)
    hist = histogram(stream, 1, 2, max_delay_bins=max_delay)
    np.testing.assert_array_equal(hist.counts, pairwise_oracle(events, 1, 2, max_delay))
    np.testing.assert_array_equal(hist.delays, np.arange(-max_delay, max_delay + 1))


@st.composite
def wide_streams(draw):
    """Streams of 2..12 channels, so channel masks span one or two bytes.

    Pulses spread over up to 400 slots, so most gaps exceed the delay range,
    and with few events some channels stay empty.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    events = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(0, draw(st.sampled_from([30, 400])))),
            max_size=80,
            unique=True,
        )
    )
    return n, events


@settings(max_examples=80, deadline=None)
@given(wide_streams(), st.integers(min_value=0, max_value=10))
def test_pair_histograms_match_pairwise_enumeration(wide, max_delay):
    n, events = wide
    stream = make_stream(events, n_channels=n)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    hists = pair_histograms(stream, pairs, max_delay)
    assert [(h.channel_a, h.channel_b) for h in hists] == pairs
    by_pair = {}
    for (a, b), hist in zip(pairs, hists):
        np.testing.assert_array_equal(hist.counts, pairwise_oracle(events, a, b, max_delay))
        np.testing.assert_array_equal(hist.delays, np.arange(-max_delay, max_delay + 1))
        by_pair[a, b] = hist.counts
    for a, b in pairs:  # mirror symmetry
        np.testing.assert_array_equal(by_pair[a, b], by_pair[b, a][::-1])


def test_pair_histograms_memory_follows_records_not_pulses():
    rng = np.random.default_rng(8)
    # 990 isolated records 100 pulses apart or more over 1e11 pulses, and one
    # dense run of 10 consecutive pulses between two of them
    sparse = rng.choice(10**9, size=990, replace=False) * 100
    run = [(int(ch), 5 * 10**10 + 30 + k) for k, ch in enumerate(rng.integers(1, 5, size=10))]
    events = list(zip(rng.integers(1, 5, size=990).tolist(), sparse.tolist())) + run
    stream = make_stream(events, pulse_count=10**11)
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    tracemalloc.start()
    try:
        hists = pair_histograms(stream, pairs, 12)
        nfold = count_nfold(stream, (1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    for hist in hists:
        expected = pairwise_oracle(run, hist.channel_a, hist.channel_b, 12)
        np.testing.assert_array_equal(hist.counts, expected)
    ones = {p for ch, p in run if ch == 1}
    assert nfold.count == len(ones & {p - 1 for ch, p in run if ch == 2})


@given(event_sets)
def test_histogram_mirror_symmetry(events):
    stream = make_stream(events)
    fwd = histogram(stream, 1, 3, max_delay_bins=8)
    rev = histogram(stream, 3, 1, max_delay_bins=8)
    np.testing.assert_array_equal(fwd.counts, rev.counts[::-1])
    assert fwd.total() == rev.total()


def test_histogram_validation():
    stream = make_stream([(1, 0), (2, 1)])
    with pytest.raises(DomainError):
        histogram(stream, 2, 2, max_delay_bins=4)
    with pytest.raises(DomainError):
        histogram(stream, 1, 2, max_delay_bins=-1)
    assert histogram(stream, 1, 2, max_delay_bins=4).bin_width_s == 1.25e-8
    for a, b in ((0, 2), (1, 5)):  # outside the stream's channels 1..4
        with pytest.raises(DomainError):
            pair_histograms(stream, [(1, 2), (a, b)], max_delay_bins=4)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
def test_channels_and_delay_ranges_must_be_integers(bad):
    # (1.5, 2) used to give a histogram labelled channel 1, (1.7, 2) and (True, 2)
    # counted channels (1, 2), and max_delay_bins=True was read as 1
    stream = make_stream([(1, 0), (2, 1)])
    message = f"must be an integer >= [01], got {re.escape(repr(bad))}"
    with pytest.raises(DomainError, match=message):
        pair_histograms(stream, [(bad, 2)], 2)
    with pytest.raises(DomainError, match=message):
        pair_histograms(stream, [(1, 2)], bad)
    with pytest.raises(DomainError, match=message):
        count_nfold(stream, (bad, 2))
    with pytest.raises(DomainError, match=message):
        count_nfold(stream, (2, bad))


def test_numpy_integer_channels_and_delay_ranges_are_accepted():
    stream = make_stream([(1, 0), (2, 1)])
    (hist,) = pair_histograms(stream, [(np.int64(1), np.uint8(2))], np.int32(2))
    assert (hist.channel_a, hist.channel_b) == (1, 2) and type(hist.channel_a) is int
    np.testing.assert_array_equal(hist.counts, [0, 0, 0, 1, 0])
    nfold = count_nfold(stream, np.array([1, 2]))
    assert nfold.count == 1 and nfold.channels == (1, 2)


def test_g2_ratio_from_synthetic_histogram():
    delays = np.arange(-12, 13)
    counts = np.full(delays.size, 700, dtype=np.int64)
    counts[12] = 29  # zero-delay bin
    for d in (-12, -8, -4, 4, 8, 12):
        counts[d + 12] = 1000
    hist = CoincidenceHistogram(1, 2, 1.25e-8, delays, counts)
    value, sigma = g2_ratio(hist, period_bins=4, n_peaks=3)
    assert value == pytest.approx(0.029, rel=1e-12)
    assert sigma == pytest.approx(0.029 * math.sqrt(1 / 29 + 1 / 6000), rel=1e-9)


def test_g2_ratio_uses_available_peaks():
    delays = np.arange(-5, 6)
    counts = np.zeros(11, dtype=np.int64)
    counts[5] = 10  # zero delay
    counts[5 + 4] = 100
    counts[5 - 4] = 300
    hist = CoincidenceHistogram(1, 2, 1.25e-8, delays, counts)
    value, _ = g2_ratio(hist, period_bins=4, n_peaks=3)
    assert value == pytest.approx(10 / 200)


def test_g2_ratio_of_an_empty_zero_bin_has_one_counts_error():
    # the error used to be 0 as well: value times a relative error
    delays = np.arange(-8, 9)
    counts = np.zeros(delays.size, dtype=np.int64)
    for d in (-8, -4, 4, 8):
        counts[d + 8] = 100
    hist = CoincidenceHistogram(1, 2, 1.25e-8, delays, counts)
    assert g2_ratio(hist, period_bins=4, n_peaks=3) == (0.0, pytest.approx(1 / 100))


def test_g2_ratio_validation():
    delays = np.arange(-2, 3)
    hist = CoincidenceHistogram(1, 2, 1.25e-8, delays, np.ones(5, dtype=np.int64))
    with pytest.raises(DomainError):
        g2_ratio(hist, period_bins=0)
    with pytest.raises(DataError):  # no cycle peak inside +-2
        g2_ratio(hist, period_bins=4)
    off_zero = CoincidenceHistogram(
        1, 2, 1.25e-8, np.arange(1, 6), np.ones(5, dtype=np.int64)
    )
    with pytest.raises(DataError):
        g2_ratio(off_zero, period_bins=2)
    empty = CoincidenceHistogram(
        1, 2, 1.25e-8, np.arange(-4, 5), np.zeros(9, dtype=np.int64)
    )
    with pytest.raises(DataError):
        g2_ratio(empty, period_bins=4)


def test_g2_ratio_periods_and_peaks_must_be_integers():
    # period_bins=2.5 used to return (1.0, 1.22) from the +-5 bins alone, and
    # n_peaks=1.5 raised a bare TypeError
    hist = CoincidenceHistogram(1, 2, 1.25e-8, np.arange(-12, 13), np.ones(25, dtype=np.int64))
    with pytest.raises(DomainError, match="period_bins must be an integer >= 1, got 2.5"):
        g2_ratio(hist, 2.5)
    with pytest.raises(DomainError, match="n_peaks must be an integer >= 1, got 1.5"):
        g2_ratio(hist, 4, n_peaks=1.5)
    assert g2_ratio(hist, np.int64(4), n_peaks=np.int64(3)) == g2_ratio(hist, 4)


# ---------------------------------------------------------------------------
# n-fold counting
# ---------------------------------------------------------------------------

def test_count_nfold_aligns_by_schedule_delay():
    # channel k is scheduled in bin k-1, so records must sit k-1 pulses apart
    events = [
        (1, 10), (2, 11),            # full pair at slot 10
        (1, 20), (2, 20),            # not aligned: ch2 would need pulse 21
        (1, 40), (2, 41), (4, 43),   # triple at slot 40
        (4, 13),                     # completes (1,2,4) at slot 10
    ]
    stream = make_stream(events)
    pair = count_nfold(stream, (1, 2))
    assert pair.count == 2
    assert pair.n == 2
    assert pair.window_s == pytest.approx(2 * 12.5e-9)
    triple = count_nfold(stream, (1, 2, 4))
    assert triple.count == 2
    assert count_nfold(stream, (2, 4)).count == 2
    assert count_nfold(stream, (1, 3)).count == 0


def test_count_nfold_rate_and_sigma():
    stream = make_stream([(1, 0), (2, 1), (1, 4), (2, 5)], pulse_count=8_000_000)
    result = count_nfold(stream, (1, 2))
    acq = 8_000_000 / 8.0e7
    assert result.count == 2
    assert result.rate_hz == pytest.approx(2 / acq)
    assert result.sigma_hz == pytest.approx(math.sqrt(2) / acq)


def test_zero_count_sigma_is_one_counts():
    # a zero count used to report sigma_hz 0, a rate known exactly
    result = count_nfold(make_stream([(1, 0), (2, 5)], pulse_count=8_000_000), (1, 2))
    assert result.count == 0
    assert result.sigma_hz == 1 / result.acquisition_s == 1 / 0.1


def test_count_nfold_respects_permuted_schedule():
    # targets (3, 1, 4, 2): channel 3 leads, channel 1 follows one bin later
    events = [(3, 8), (1, 9), (3, 16), (1, 16)]
    stream = make_stream(events, targets=(3, 1, 4, 2))
    assert count_nfold(stream, (3, 1)).count == 1
    assert count_nfold(stream, (1, 3)).count == 1


@st.composite
def scheduled_events(draw):
    """A permuted cyclic schedule, events on its channels, and a channel subset."""
    n = draw(st.integers(min_value=2, max_value=12))
    targets = tuple(draw(st.permutations(range(1, n + 1))))
    events = draw(
        st.lists(st.tuples(st.integers(1, n), st.integers(0, 60)), max_size=120, unique=True)
    )
    channels = draw(st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True))
    return targets, events, tuple(channels)


@settings(max_examples=80, deadline=None)
@given(scheduled_events())
def test_count_nfold_matches_set_intersection(case):
    targets, events, channels = case
    stream = make_stream(events, targets=targets, n_channels=len(targets))
    slots = [
        {p - targets.index(ch) for c, p in events if c == ch} for ch in channels
    ]
    assert count_nfold(stream, channels).count == len(set.intersection(*slots))


# ---------------------------------------------------------------------------
# chunk boundaries
# ---------------------------------------------------------------------------

CHUNK_SIZES = [1, 2, 3, 7]

# channels 9..12 and 5, 6, 8 never fire; the run of pulses 3..6 makes every
# delay up to 6 reach records of later chunks, pulses 3 and 4 hold three
# records each, so every chunk size splits one of them (checked below), and
# the (1, 2) pairs from pulse 40 on put n-fold events on every chunk edge
EDGE_EVENTS = [
    (1, 0), (2, 1),
    (1, 3), (2, 3), (3, 3),
    (2, 4), (4, 4), (7, 4),
    (1, 5), (3, 6), (2, 30), (1, 31), (3, 33),
] + [(ch, p + ch - 1) for p in range(40, 56, 2) for ch in (1, 2)]


def edge_stream():
    return make_stream(EDGE_EVENTS, targets=tuple(range(1, 13)), n_channels=12)


@contextmanager
def chunked(chunk):
    """A context in which the analysis loops walk chunks of chunk records."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tags, "_CHUNK_RECORDS", chunk)
        yield


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_edge_events_split_a_pulse_at_a_chunk_edge(chunk):
    pulses = sorted(p for _, p in EDGE_EVENTS)
    assert any(pulses[k - 1] == pulses[k] for k in range(chunk, len(pulses), chunk))


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_pair_histograms_across_chunk_edges(chunk):
    stream = edge_stream()
    pairs = [(a, b) for a in range(1, 13) for b in range(1, 13) if a != b]
    with chunked(chunk):
        hists = pair_histograms(stream, pairs, 6)
    for (a, b), hist in zip(pairs, hists):
        np.testing.assert_array_equal(hist.counts, pairwise_oracle(EDGE_EVENTS, a, b, 6))


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_count_nfold_across_chunk_edges(chunk):
    stream = edge_stream()
    with chunked(chunk):
        for channels in [(1, 2), (2, 1), (1, 2, 3), (2, 3), (1, 4, 7), (3, 4), (1, 5), (9, 10)]:
            slots = [{p - (ch - 1) for c, p in EDGE_EVENTS if c == ch} for ch in channels]
            assert count_nfold(stream, channels).count == len(set.intersection(*slots))
        assert count_nfold(stream, (1, 2)).count == 10  # pulses 0, 3 and 40, 42, ..., 54


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_empty_stream_across_chunk_sizes(chunk):
    stream = make_stream([], n_channels=12, targets=tuple(range(1, 13)))
    with chunked(chunk):
        (hist,) = pair_histograms(stream, [(1, 12)], 3)
        assert count_nfold(stream, (1, 12)).count == 0
    np.testing.assert_array_equal(hist.counts, np.zeros(7, dtype=np.int64))


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@settings(max_examples=25, deadline=None)
@given(wide=wide_streams(), max_delay=st.integers(min_value=0, max_value=10))
def test_chunked_pair_histograms_match_pairwise_enumeration(chunk, wide, max_delay):
    n, events = wide
    stream = make_stream(events, n_channels=n)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    with chunked(chunk):
        hists = pair_histograms(stream, pairs, max_delay)
    for (a, b), hist in zip(pairs, hists):
        np.testing.assert_array_equal(hist.counts, pairwise_oracle(events, a, b, max_delay))


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@settings(max_examples=25, deadline=None)
@given(case=scheduled_events())
def test_chunked_count_nfold_matches_set_intersection(chunk, case):
    targets, events, channels = case
    stream = make_stream(events, targets=targets, n_channels=len(targets))
    slots = [{p - targets.index(ch) for c, p in events if c == ch} for ch in channels]
    with chunked(chunk):
        assert count_nfold(stream, channels).count == len(set.intersection(*slots))


# ---------------------------------------------------------------------------
# bitset and record kernels
# ---------------------------------------------------------------------------

@contextmanager
def kernel(name):
    """A context in which pair_histograms uses the named kernel on any stream."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_GATHER_COST", math.inf if name == "dense" else 0.0)
        yield


@contextmanager
def blocks(words):
    """A context in which the bitset loops walk blocks of words words."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_BLOCK_WORDS", words)
        yield


KERNELS = ["dense", "sparse"]
BLOCK_SIZES = [1, 2, 3]
WORD_EDGE_DELAYS = [0, 63, 64, 65, 130]

# records on both sides of the first three word edges (slots 63/64, 127/128,
# 191/192); pulse 0 anchors slot 0, and no gap exceeds 131 pulses, so every
# pulse is its own slot for every delay in WORD_EDGE_DELAYS
WORD_EDGE_EVENTS = [(1, 0), (3, 1)] + [
    (ch, p) for p in (62, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256)
    for ch in (1, 2, 3) if (p + ch) % 3
]


@pytest.mark.parametrize("words", BLOCK_SIZES)
@pytest.mark.parametrize("max_delay", WORD_EDGE_DELAYS)
@pytest.mark.parametrize("name", KERNELS)
def test_pair_histograms_at_word_edges(name, max_delay, words):
    stream = make_stream(WORD_EDGE_EVENTS, pulse_count=400)
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    with kernel(name), blocks(words):
        hists = pair_histograms(stream, pairs, max_delay)
    for (a, b), hist in zip(pairs, hists):
        expected = pairwise_oracle(WORD_EDGE_EVENTS, a, b, max_delay)
        np.testing.assert_array_equal(hist.counts, expected)


@pytest.mark.parametrize("words", BLOCK_SIZES)
@pytest.mark.parametrize("offset", [0, 63, 64, 65])
def test_count_nfold_shifts_across_word_edges(offset, words):
    # 70 outputs, so schedule delays reach past one 64-slot word
    targets = tuple(range(1, 71))
    events = WORD_EDGE_EVENTS + [(70, p + 69) for p in (0, 63, 64, 128, 192, 256)]
    events += [(offset + 1, p + offset) for p in (1, 64, 65, 127, 192, 193)]
    events = sorted(set(events))
    stream = make_stream(events, targets=targets, pulse_count=400, n_channels=70)
    with blocks(words):
        for channels in [(1, 70), (1, 2, 70), (offset + 1, 70), (3, 1, 70)]:
            slots = [{p - (ch - 1) for c, p in events if c == ch} for ch in channels]
            assert count_nfold(stream, channels).count == len(set.intersection(*slots))
        assert count_nfold(stream, (offset + 1, 70)).count >= 2  # slots 64 and 192


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("words", BLOCK_SIZES)
@settings(max_examples=20, deadline=None)
@given(
    wide=wide_streams(),
    max_delay=st.sampled_from(WORD_EDGE_DELAYS + [1, 7]),
    chunk=st.sampled_from(CHUNK_SIZES),
)
def test_kernels_match_pairwise_enumeration(name, words, wide, max_delay, chunk):
    n, events = wide
    stream = make_stream(events, n_channels=n)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    with kernel(name), blocks(words), chunked(chunk):
        hists = pair_histograms(stream, pairs, max_delay)
        (one,) = pair_histograms(stream, pairs[-1:], max_delay)
    for (a, b), hist in zip(pairs, hists):
        np.testing.assert_array_equal(hist.counts, pairwise_oracle(events, a, b, max_delay))
    np.testing.assert_array_equal(one.counts, hists[-1].counts)


@st.composite
def split_records(draw):
    """Sorted records, cuts that split them into parts, and a chunk size.

    A repeated cut leaves an empty part, and when two records share a pulse
    one cut falls between them.
    """
    events = sorted(draw(st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 4)), unique=True, max_size=60
    )))
    cuts = draw(st.lists(st.integers(0, len(events)), min_size=1, max_size=8))
    ties = [k for k in range(1, len(events)) if events[k - 1][0] == events[k][0]]
    if ties:
        cuts.append(draw(st.sampled_from(ties)))
    chunk = draw(st.sampled_from(CHUNK_SIZES + [1 << 16]))
    return events, sorted(cuts + cuts[:1]), chunk


@settings(max_examples=40, deadline=None)
@given(case=split_records())
def test_parts_file_and_whole_array_streams_agree(tmp_path_factory, case):
    events, cuts, chunk = case
    whole = make_stream([(ch, p) for p, ch in events])
    channels, stamps = whole.channels, whole.timestamps_ps
    edges = [0, *cuts, len(events)]
    parts = TimeTagStream._of_parts(
        [(channels[a:b], stamps[a:b]) for a, b in zip(edges[:-1], edges[1:])], whole.meta
    )
    folder = tmp_path_factory.mktemp("streams")
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    with chunked(chunk):
        tags.write_stream(parts, folder / "parts.tags")
        in_file = tags.read_stream(folder / "parts.tags")
        streams = [whole, parts, in_file]
        for i, stream in enumerate(streams):
            tags.write_stream(stream, folder / f"{i}.tags")
        results = []
        for stream in streams:
            hists = []
            for name in KERNELS:
                with kernel(name):
                    hists.append([h.counts.tolist() for h in pair_histograms(stream, pairs, 5)])
            nfold = [count_nfold(stream, c).count for c in [(1, 2), (3, 1), (1, 2, 3, 4)]]
            results.append((hists, nfold, stream.singles_counts().tolist()))
    assert len(in_file) == len(parts) == len(events)
    assert results[0][0][0] == results[0][0][1]
    assert results[1] == results[0] and results[2] == results[0]
    raw = (folder / "parts.tags").read_bytes()
    assert raw == channels.astype("<u4").tobytes() + stamps.astype("<u8").tobytes()
    for i in range(len(streams)):
        assert (folder / f"{i}.tags").read_bytes() == raw


@pytest.mark.parametrize("words", BLOCK_SIZES)
@settings(max_examples=30, deadline=None)
@given(case=scheduled_events(), chunk=st.sampled_from(CHUNK_SIZES))
def test_blocked_count_nfold_matches_set_intersection(words, case, chunk):
    targets, events, channels = case
    stream = make_stream(events, targets=targets, n_channels=len(targets))
    slots = [{p - targets.index(ch) for c, p in events if c == ch} for ch in channels]
    with blocks(words), chunked(chunk):
        assert count_nfold(stream, channels).count == len(set.intersection(*slots))


@pytest.mark.parametrize("name", KERNELS)
def test_no_pairs_give_no_histograms(name):
    for stream in (edge_stream(), make_stream([], n_channels=12, targets=tuple(range(1, 13)))):
        with kernel(name):
            assert pair_histograms(stream, [], 3) == []


# bursts of 9 records on 3 consecutive pulses, so with chunks of 1 to 3
# records the earlier records within the delay range of a chunk come from
# several chunks before it
BURST_EVENTS = [
    (ch, start + p)
    for start in (0, 5, 30, 34, 80) for p in range(3) for ch in (1, 2, 3, 4)
    if (start + p + ch) % 4
]


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("max_delay", [0, 2, 4, 10, 40])
def test_neighbour_walk_carries_records_of_several_chunks(chunk, max_delay):
    stream = make_stream(BURST_EVENTS, pulse_count=100)
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    with kernel("sparse"), chunked(chunk):
        hists = pair_histograms(stream, pairs, max_delay)
    for (a, b), hist in zip(pairs, hists):
        np.testing.assert_array_equal(hist.counts, pairwise_oracle(BURST_EVENTS, a, b, max_delay))


def test_sparse_analysis_memory_follows_the_chunk():
    # about 200k records of 8 channels over 1.6e7 pulses: working arrays sized
    # by the slot bound (1.3e7 slots at +-64) would hold 13 MB or more
    rng = np.random.default_rng(5)
    n_pulses, n = 16_000_000, 8
    pulses, rows = np.divmod(np.unique(rng.integers(0, n_pulses * n, size=200_000)), n)
    meta = make_stream([], pulse_count=n_pulses, n_channels=n).meta
    stream = TimeTagStream(rows + 1, pulses.astype(np.uint64) * PERIOD_PS, meta)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    tracemalloc.start()
    try:
        hists = pair_histograms(stream, pairs, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * tags._CHUNK_RECORDS  # 16 int64 arrays of one chunk
    # every pair of records of different channels within 64 pulses, once
    def near_pairs(at):
        return int(np.sum(np.searchsorted(at, at + 64, side="right") - np.arange(len(at)) - 1))
    expected = near_pairs(pulses) - sum(near_pairs(pulses[rows == r]) for r in range(n))
    assert sum(hist.total() for hist in hists) == expected


def window_ends(stream, channels, horizon):
    """The words at which _windows ends a window, counted from the stream's first slot."""
    ends, base = set(), 0
    for _, used in analysis._windows(stream, channels, horizon):
        base += used
        ends.add(base)
    return ends


@pytest.mark.parametrize("chunk", [2, 7])
@pytest.mark.parametrize("words", [1, 3])
@pytest.mark.parametrize("horizon", [0, 63, 64, 130])
def test_windows_end_on_every_word_around_a_delay(horizon, words, chunk):
    # channel 3 fires on every pulse, so slots are pulses and the windows
    # advance word by word; channel 1 fires at s and channel 2 at s + h and
    # s + h + 1, with s on the first and last bit of three consecutive words,
    # so that across the pairs a window ends on every word offset from q + 2
    # words before the pair to q + 2 after it, q = h // 64
    q, first = horizon // 64, horizon // 64 + 3
    starts = [64 * (first + j) + r for j in range(3) for r in (0, 63)]
    pairs_at = [(1, s) for s in starts] + [(2, s + horizon + d) for s in starts for d in (0, 1)]
    last = 64 * (first + 2 * q + 8)  # so the word q + 2 past the pairs is final before the end
    events = sorted(set(pairs_at + [(3, p) for p in range(last)]))
    stream = make_stream(events, pulse_count=last)
    pairs = [(1, 2), (1, 3), (2, 3)]
    with blocks(words), chunked(chunk):
        ends = window_ends(stream, [1, 2, 3], horizon)
        assert {w for w in range(first - q - 2, first + 3 + q + 2) if w % words == 0} <= ends
        for name in KERNELS:
            with kernel(name):
                hists = pair_histograms(stream, pairs, horizon)
            for (a, b), hist in zip(pairs, hists):
                expected = pairwise_oracle(events, a, b, horizon)
                np.testing.assert_array_equal(hist.counts, expected)
        assert hists[0].counts[-1] == len(starts)  # every pair at delay h, none at h + 1
        # channel 1 leads, 3 follows one bin later and 2 max(h, 1) bins later
        span = max(horizon, 1)
        targets = (1, 3) + (4,) * (span - 2) + (2,) if span > 1 else (1, 2, 3)
        scheduled = make_stream(events, targets=targets, pulse_count=last)
        for channels in [(1, 2), (1, 2, 3), (2, 3)]:
            slots = [{p - targets.index(ch) for c, p in events if c == ch} for ch in channels]
            assert count_nfold(scheduled, channels).count == len(set.intersection(*slots))


def memory_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bitset_memory_does_not_grow_with_the_record_count():
    # four channels at one record per 430 pulses, device.yaml's density: whole-
    # stream bitsets grew by about 2 B per record for a 4-fold count and 4 B
    # for the dense pair kernel at +-8, so 0.9M more records cost about 2 and 4 MB
    rng = np.random.default_rng(11)
    peaks = []
    for records in (300_000, 1_200_000):
        n_pulses = 430 * records
        pulses = np.unique(rng.integers(0, n_pulses, size=records))
        meta = make_stream([], pulse_count=n_pulses).meta
        stream = TimeTagStream(
            rng.integers(1, 5, size=pulses.size), pulses.astype(np.uint64) * PERIOD_PS, meta
        )
        peaks.append([
            memory_peak(lambda: count_nfold(stream, (1, 2, 3, 4))),
            memory_peak(lambda: analysis._dense_pair_counts(stream, [1, 2, 3, 4], 8)),
        ])
    (nfold_small, dense_small), (nfold_large, dense_large) = peaks
    assert abs(nfold_large - nfold_small) < 1e6
    assert abs(dense_large - dense_small) < 1e6


def dense_stream(n_pulses, n_channels, p, seed):
    """Every channel fires on each pulse with probability p."""
    rng = np.random.default_rng(seed)
    pulses, rows = np.nonzero(rng.random((n_pulses, n_channels)) < p)
    meta = StreamMeta(
        config_digest="t" * 64,
        pump_rate_hz=8.0e7,
        pulse_period_ps=PERIOD_PS,
        pulse_count=n_pulses,
        n_channels=n_channels,
        schedule_targets=tuple(range(1, n_channels + 1)),
    )
    return TimeTagStream(rows + 1, pulses.astype(np.uint64) * PERIOD_PS, meta)


def test_kernel_follows_stream_density(monkeypatch):
    picked = []
    for name in KERNELS:
        real = getattr(analysis, f"_{name}_pair_counts")
        monkeypatch.setattr(
            analysis, f"_{name}_pair_counts",
            lambda *args, name=name, real=real: picked.append(name) or real(*args),
        )
    pairs = [(1, 2), (3, 4)]
    pair_histograms(dense_stream(20_000, 4, 0.3, seed=1), pairs, 12)
    pair_histograms(dense_stream(20_000, 4, 0.001, seed=1), pairs, 12)
    assert picked == ["dense", "sparse"]


def test_dense_analysis_holds_no_whole_stream_array():
    stream = dense_stream(500_000, 4, 0.5, seed=2)
    whole = 8 * len(stream)  # bytes of one int64 per record
    assert len(stream) > 900_000
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    tracemalloc.start()
    try:
        hists = pair_histograms(stream, pairs, 12)
        nfold = count_nfold(stream, (1, 2, 3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 2
    with kernel("sparse"):
        for hist, ref in zip(hists, pair_histograms(stream, pairs, 12)):
            np.testing.assert_array_equal(hist.counts, ref.counts)
    fires = np.zeros((500_000 + 3, 4), dtype=bool)
    fires[stream.pulse_indices, stream.channels - 1] = True
    assert nfold.count == np.sum(fires[:-3, 0] & fires[1:-2, 1] & fires[2:-1, 2] & fires[3:, 3])


def off_grid_stream():
    # two records per channel, 1 ps apart: the same pulse, but not one record
    return TimeTagStream(
        np.array([1, 1, 2, 2], dtype=np.uint32),
        np.array([0, 1, PERIOD_PS, PERIOD_PS + 1], dtype=np.uint64),
        make_stream([]).meta,
    )


def test_off_grid_timestamps_are_refused():
    # such records used to be counted by whichever rule the code happened to use
    stream = off_grid_stream()
    with pytest.raises(DataError, match="pulse period"):
        pair_histograms(stream, [(1, 2)], 1)
    with pytest.raises(DataError, match="pulse period"):
        count_nfold(stream, (1, 2))
    for name in KERNELS:
        with kernel(name), pytest.raises(DataError, match="pulse period"):
            pair_histograms(stream, [(2, 1)], 1)


def past_run_streams():
    """Streams with a record at pulse pulse_count or later, which no run of theirs holds."""
    meta = make_stream([]).meta
    past = (2**63 // PERIOD_PS + 1) * PERIOD_PS  # the first pulse at or past 2**63 ps
    top = (2**64 - 1) // PERIOD_PS * PERIOD_PS  # the last pulse a u64 timestamp can name
    one_ps = dataclasses.replace(meta, pulse_period_ps=1)
    return {
        "at-pulse-count": make_stream([(1, 0), (2, 1), (2, 1000)], pulse_count=1000),
        "unanalysed-channel": make_stream([(1, 0), (2, 1), (3, 1000)], pulse_count=1000),
        "timestamp-2**63": TimeTagStream([1, 2], [0, past], meta),
        "timestamp-top": TimeTagStream([1, 2], [0, top], meta),
        "pulse-2**63": TimeTagStream([1, 2], [0, 2**63], one_ps),  # negative as int64
    }


@pytest.mark.parametrize("chunk", [1, 1 << 16])
@pytest.mark.parametrize("case", list(past_run_streams()))
def test_records_past_the_run_are_refused(case, chunk):
    # such records used to be counted, and every rate divided by too short a run
    stream = past_run_streams()[case]
    with chunked(chunk):
        with pytest.raises(DataError, match="pulse_count"):
            count_nfold(stream, (1, 2))
        for name in KERNELS:
            with kernel(name), pytest.raises(DataError, match="pulse_count"):
                pair_histograms(stream, [(1, 2)], 4)


def test_the_last_pulse_of_the_run_is_counted():
    stream = make_stream([(1, 998), (2, 999)], pulse_count=1000)
    assert count_nfold(stream, (1, 2)).count == 1
    for name in KERNELS:
        with kernel(name):
            assert histogram(stream, 1, 2, 4).counts[4 + 1] == 1


def test_count_nfold_validation():
    stream = make_stream([(1, 0), (2, 1)])
    with pytest.raises(DomainError):
        count_nfold(stream, (1,))
    with pytest.raises(DomainError):
        count_nfold(stream, (1, 1))
    narrow = make_stream([(1, 0), (2, 1)], targets=(1, 2))
    with pytest.raises(ConfigError):  # channel 3 never scheduled
        count_nfold(narrow, (1, 3))


def test_count_nfold_refuses_a_zero_pulse_stream():
    # the count is 0, but its rate and sigma would divide by a zero acquisition time
    stream = make_stream([], pulse_count=0)
    with pytest.raises(DataError, match="pulse_count"):
        count_nfold(stream, (1, 2))


def test_eta_sd_from_singles():
    assert eta_sd_from_singles([1e5, 1e5, 2e5], 8e7, 0.25) == pytest.approx(0.02)
    assert eta_sd_from_singles([0.0], 8e7, 0.3) == 0.0
    with pytest.raises(DataError):
        eta_sd_from_singles([9e7], 8e7, 1.0)
    with pytest.raises(DomainError):
        eta_sd_from_singles([1.0], 0.0, 0.3)
    with pytest.raises(DomainError):
        eta_sd_from_singles([1.0], 8e7, 0.0)


def test_eta_sd_from_singles_refuses_a_negative_total():
    with pytest.raises(DomainError, match="non-negative"):
        eta_sd_from_singles([1e5, -2e5], 8e7, 0.25)



@pytest.mark.parametrize(
    "rates", [[float("nan")], [-1e5, 2e5], [float("inf"), 0.0]], ids=["nan", "negative", "inf"]
)
def test_eta_sd_from_singles_refuses_each_bad_rate(rates):
    # nan used to give nan, and [-1e5, 2e5] 0.00125 from its positive sum
    with pytest.raises(DomainError, match="finite and non-negative"):
        eta_sd_from_singles(rates, 8e7, 1.0)


@pytest.mark.parametrize("pump_rate_hz", [float("nan"), float("inf")])
def test_eta_sd_from_singles_refuses_a_pump_rate_that_is_not_finite(pump_rate_hz):
    # nan used to give nan, and inf gave an eta_sd of 0.0
    with pytest.raises(DomainError, match="pump_rate_hz must be finite"):
        eta_sd_from_singles([1e5], pump_rate_hz, 1.0)

# ---------------------------------------------------------------------------
# splitting-ratio estimation
# ---------------------------------------------------------------------------

def synthetic_histograms(pairs, table, scale, rng, max_delay=12):
    """Poisson draws around hand-computed expected pair-delay counts."""
    net = balanced_network(4)
    sched = schedule_for_cycle(net)
    rows = routing_by_bin(net, sched, table)
    period = len(sched)
    hists = []
    for a, b in pairs:
        delays = np.arange(-max_delay, max_delay + 1)
        lam = np.zeros(delays.size)
        for i, d in enumerate(delays):
            if d == 0:
                continue
            # both photons emitted and routed: channel a in bin k, channel b
            # d pulses later
            lam[i] = scale * sum(
                rows[k, a - 1] * rows[(k + d) % period, b - 1] for k in range(period)
            )
        counts = rng.poisson(lam) if rng is not None else np.round(lam).astype(np.int64)
        hists.append(CoincidenceHistogram(a, b, 1.25e-8, delays, counts))
    return hists


def test_ratio_estimation_recovers_table():
    net = balanced_network(4)
    sched = schedule_for_cycle(net)
    rng = np.random.default_rng(11)
    pairs = [(1, 2), (1, 3), (1, 4)]  # pairs sharing channel 1 are sufficient
    hists = synthetic_histograms(pairs, TABLE_RATIOS, 40_000.0, rng)
    fit = estimate_splitting_ratios(hists, net, sched)
    for cid, state in ratio_params(net):
        ratio, sigma = fit.value(f"{cid}:{state}"), fit.sigma(f"{cid}:{state}")
        truth = TABLE_RATIOS[cid][state]
        assert abs(ratio - truth) < 5 * sigma, (cid, state, ratio, sigma, truth)
        assert sigma < 0.01
    eta, sigma = eta_dm_from_ratios(fit, net, sched)
    assert abs(eta - ETA_DM_TABLE) < 5 * sigma
    assert sigma < 0.005
    assert fit.names == (
        "sw1:on", "sw1:off", "sw2:on", "sw2:off", "sw3:on", "sw3:off",
        "scale:1-2", "scale:1-3", "scale:1-4",
    )
    # eta_dm_from_ratios reads the ratios by name: a permuted fit gives the same eta
    order = np.random.default_rng(2).permutation(len(fit.names))
    assert list(order[:6]) != list(range(6))
    shuffled = FitResult(
        names=tuple(fit.names[i] for i in order),
        values=tuple(fit.values[i] for i in order),
        sigmas=tuple(fit.sigmas[i] for i in order),
        covariance=fit.covariance[np.ix_(order, order)],
        residual_norm=fit.residual_norm,
        iterations=fit.iterations,
    )
    assert eta_dm_from_ratios(shuffled, net, sched) == pytest.approx((eta, sigma), rel=1e-12)


def test_eta_dm_needs_the_networks_ratio_names():
    # a fit without them used to raise a bare ValueError from tuple.index
    powers = np.linspace(60.0, 1500.0, 6)
    fit = fit_saturation(powers, saturation_model(powers, 70.9, 348.0))
    with pytest.raises(DomainError, match=r"no ratios named \['sw1:on', 'sw1:off', 'sw2:on'"):
        eta_dm_from_ratios(fit, balanced_network(4), (1, 2, 3, 4))


def test_ratio_estimation_noiseless_is_exact():
    net = balanced_network(4)
    sched = schedule_for_cycle(net)
    hists = synthetic_histograms(
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], TABLE_RATIOS, 50_000.0, None
    )
    fit = estimate_splitting_ratios(hists, net, sched)
    for cid, state in ratio_params(net):
        assert abs(fit.value(f"{cid}:{state}") - TABLE_RATIOS[cid][state]) < 1e-3
    eta, _ = eta_dm_from_ratios(fit, net, sched)
    assert abs(eta - ETA_DM_TABLE) < 1e-3


def test_ratio_estimation_needs_identifiable_pairs():
    net = balanced_network(4)
    sched = schedule_for_cycle(net)
    rng = np.random.default_rng(5)
    with pytest.raises(EstimationError):
        estimate_splitting_ratios(
            synthetic_histograms([(1, 2)], TABLE_RATIOS, 40_000.0, rng), net, sched
        )
    with pytest.raises(EstimationError):
        estimate_splitting_ratios([], net, sched)


def test_ratio_estimation_rejects_bad_histograms():
    net = balanced_network(4)
    sched = schedule_for_cycle(net)
    empty = CoincidenceHistogram(
        1, 2, 1.25e-8, np.arange(-12, 13), np.zeros(25, dtype=np.int64)
    )
    with pytest.raises(EstimationError):
        estimate_splitting_ratios([empty], net, sched)
    narrow = CoincidenceHistogram(
        1, 2, 1.25e-8, np.arange(-3, 4), np.ones(7, dtype=np.int64)
    )
    with pytest.raises(EstimationError):
        estimate_splitting_ratios([narrow], net, sched)
    # a repeated pair, in either order, is the same data counted twice
    for repeat in ((1, 2), (2, 1)):
        hists = synthetic_histograms([(1, 2), (1, 3), (1, 4), repeat], TABLE_RATIOS, 4e4, None)
        with pytest.raises(DomainError, match="distinct channel pairs"):
            estimate_splitting_ratios(hists, net, sched)


def test_eta_dm_from_table_matches_direct_average():
    net = balanced_network(4)
    sched = schedule_for_cycle(net)
    assert switching_efficiency(net, sched, TABLE_RATIOS) == pytest.approx(
        ETA_DM_TABLE, abs=1e-12
    )


def test_ratio_fit_is_one_fit_with_exact_derivatives(monkeypatch):
    # the fit used to be three finite-difference fits, reweighted between
    # runs, and one more finite-difference Jacobian for the rank
    calls = {"fit": 0, "finite_difference": 0}

    def counted(function, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        analysis, "damped_least_squares", counted(analysis.damped_least_squares, "fit")
    )
    # damped_least_squares looks its numeric default up in fitting
    for module in (analysis, fitting):
        monkeypatch.setattr(
            module,
            "finite_difference_jacobian",
            counted(fitting.finite_difference_jacobian, "finite_difference"),
        )
    net = balanced_network(4)
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    hists = synthetic_histograms(pairs, TABLE_RATIOS, 40_000.0, np.random.default_rng(3))
    estimate_splitting_ratios(hists, net, schedule_for_cycle(net))
    assert calls == {"fit": 1, "finite_difference": 0}


@st.composite
def ratio_models(draw):
    """A balanced or cascade tree of 2-16 outputs, a schedule, on/off ratios and pairs."""
    net = draw(small_trees)
    n = net.n_outputs
    sched = schedule_for_cycle(net, draw(st.lists(st.integers(1, n), min_size=1, max_size=6)))
    size = 2 * len(net.coupler_ids)
    ratios = np.array(draw(st.lists(fractions_with_ends, min_size=size, max_size=size)))
    channel_pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(channel_pairs, min_size=1, max_size=6, unique=True))
    return net, sched, ratios, pairs


def ratio_params(net):
    return [(cid, state) for cid in net.coupler_ids for state in ("on", "off")]


def through_of(net, sched, ratios) -> np.ndarray:
    """through[b, k] looked up by name: ratios are ordered as ratio_params."""
    index = {param: i for i, param in enumerate(ratio_params(net))}
    # drive_states keeps coupler_ids' order, the order of through's columns
    return np.array(
        [
            [ratios[index[param]] for param in drive_states(net, target).items()]
            for target in sched
        ]
    )


def class_areas_oracle(x, net, sched, pairs, terms) -> np.ndarray:
    """Areas of every pair's classes in order, from the path walk, loop by loop."""
    n_ratio = x.size - len(pairs)
    rows = path_walk(net, through_of(net, sched, x[:n_ratio]))
    period = len(sched)
    return np.array(
        [
            x[n_ratio + p] * terms[p, m] * sum(
                rows[k, a - 1] * rows[(k + m) % period, b - 1] for k in range(period)
            )
            for p, (a, b) in enumerate(pairs)
            for m in range(period)
        ]
    )


def central_differences(function, x, h=1e-4) -> np.ndarray:
    steps = np.eye(x.size) * h
    return np.column_stack([(function(x + e) - function(x - e)) / (2 * h) for e in steps])


COMPLEX_STEP = 1e-30


def complex_steps(function, x) -> np.ndarray:
    """Derivatives Im f(x + ih e_j) / h of an analytic f: no difference, so nothing cancels."""
    steps = np.eye(x.size) * (1j * COMPLEX_STEP)
    return np.column_stack([function(x + e).imag / COMPLEX_STEP for e in steps])


@settings(max_examples=60, deadline=None)
@given(ratio_models())
def test_class_area_jacobian_matches_central_difference(case):
    net, sched, ratios, pairs = case
    rng = np.random.default_rng(len(ratios) + len(pairs))
    terms = rng.uniform(1.0, 4.0, (len(pairs), len(sched)))
    x = np.concatenate([ratios, rng.uniform(0.5, 2.0, len(pairs))])
    columns = analysis._ratio_columns(net, sched)
    first, second = np.array(pairs).T - 1
    model, jac = analysis._class_area_model(x, net.hops, columns, first, second, terms)
    np.testing.assert_allclose(model, class_areas_oracle(x, net, sched, pairs, terms), rtol=1e-12)
    # complex steps, not central differences: a ratio of 3.45e-56 made an h = 1e-4
    # difference cancel to 0 against an exact derivative of 9.16e-56
    numeric = complex_steps(lambda v: class_areas_oracle(v, net, sched, pairs, terms), x)
    # relative to the largest entry, floored at the smallest derivative whose
    # h-scaled imaginary part is still a normal float
    atol = max(1e-6 * np.abs(numeric).max(), np.finfo(float).tiny / COMPLEX_STEP)
    np.testing.assert_allclose(jac, numeric, rtol=1e-6, atol=atol)


@settings(max_examples=60, deadline=None)
@given(ratio_models())
def test_eta_dm_gradient_matches_central_difference(case):
    net, sched, ratios, _ = case
    params = ratio_params(net)
    targets = np.array(sched) - 1

    def eta(r):
        return path_walk(net, through_of(net, sched, r))[np.arange(len(sched)), targets].mean()

    numeric = central_differences(lambda r: np.array([eta(r)]), ratios)[0]
    names = tuple(f"{cid}:{st}" for cid, st in params)
    table: dict[str, dict[str, float]] = {}
    for (cid, st), r in zip(params, ratios):
        table.setdefault(cid, {})[st] = r

    def result_with(covariance):
        return FitResult(names, tuple(ratios), (0.0,) * len(params), covariance, 0.0, 0)

    value, _ = eta_dm_from_ratios(result_with(np.zeros((len(params), len(params)))), net, sched)
    assert value == switching_efficiency(net, sched, table)
    # sigma = |gradient . v| for the covariance v v^T: unit vectors give every
    # |gradient_j|, and v along the central difference then fixes the signs
    tolerance = 1e-6 * np.abs(numeric).max() + 1e-15
    for v in np.eye(len(params)):
        _, sigma = eta_dm_from_ratios(result_with(np.outer(v, v)), net, sched)
        assert abs(sigma - abs(numeric @ v)) <= tolerance
    norm = np.linalg.norm(numeric)
    if norm > 0:
        v = numeric / norm
        _, sigma = eta_dm_from_ratios(result_with(np.outer(v, v)), net, sched)
        assert abs(sigma - norm) <= tolerance


def test_deviance_derivative_matches_central_difference():
    y = np.array([0.0, 0.0, 3.0, 3.0, 3.0, 250.0, 250.0, 1e6])
    m = np.array([0.5, 7.0, 3.0, 1.2, 9.0, 250.0, 231.5, 1e6 + 700.0])
    r, dr = analysis._deviance(m, y)
    np.testing.assert_allclose(r**2, 2.0 * (m - y + xlogy(y, y / m)), rtol=1e-12, atol=1e-300)
    np.testing.assert_array_equal(np.sign(r), np.sign(m - y))
    # at the model equal to the counts (r = 0) the derivative is the limit 1/sqrt(m)
    assert r[2] == r[5] == 0.0
    h = 1e-4 * m
    numeric = (analysis._deviance(m + h, y)[0] - analysis._deviance(m - h, y)[0]) / (2 * h)
    np.testing.assert_allclose(dr, numeric, rtol=1e-6)


# ---------------------------------------------------------------------------
# model fits
# ---------------------------------------------------------------------------

def test_fit_saturation_noiseless():
    powers = np.linspace(60.0, 1500.0, 12)
    rates = saturation_model(powers, 70.9, 348.0)
    fit = fit_saturation(powers, rates)
    assert fit.value("c_max_hz") == pytest.approx(70.9, rel=1e-6)
    assert fit.value("p0_uw") == pytest.approx(348.0, rel=1e-6)


def test_fit_saturation_matches_curve_fit_on_noisy_data():
    rng = np.random.default_rng(3)
    powers = np.linspace(60.0, 1500.0, 12)
    sigma = np.full(12, 0.9)
    rates = saturation_model(powers, 70.9, 348.0) + rng.normal(0.0, sigma)
    ours = fit_saturation(powers, rates, sigma_hz=sigma)
    ref_values, ref_cov = curve_fit(
        saturation_model, powers, rates, p0=[70.0, 300.0], sigma=sigma,
        absolute_sigma=True,
    )
    assert ours.values == pytest.approx(ref_values, rel=1e-5)
    assert ours.sigmas == pytest.approx(np.sqrt(np.diag(ref_cov)), rel=1e-2)


def test_fit_saturation_validation():
    with pytest.raises(DataError):
        fit_saturation([100.0, 200.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        fit_saturation([-1.0, 100.0, 200.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        fit_saturation([100.0, 200.0, 300.0], [1.0, 2.0, 3.0], sigma_hz=[1.0, 0.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["power", "rate"])
def test_fit_saturation_rejects_non_finite_data(bad, column):
    # a non-finite point used to yield NaN parameters marked converged
    powers = list(np.linspace(60.0, 1500.0, 6))
    rates = list(saturation_model(np.array(powers), 70.9, 348.0))
    (powers if column == "power" else rates)[2] = bad
    with pytest.raises(DataError, match="finite"):
        fit_saturation(powers, rates)


def make_counts(n, eta_dm, pump_rate_hz=1e6, eta=0.5, acq=1.0) -> NFoldCounts:
    rate = pump_rate_hz * eta**n * s_active(n, eta_dm)
    return NFoldCounts(
        n=n,
        channels=tuple(range(1, n + 1)),
        window_s=n * 1.25e-8,
        count=int(round(rate * acq)),
        acquisition_s=acq,
    )


def test_fit_switching_efficiency_noiseless():
    points = [make_counts(2, 0.78), make_counts(3, 0.78)]
    fit = fit_switching_efficiency(points, pump_rate_hz=1e6, eta_det=1.0, eta_sd=0.5)
    assert fit.value("eta_dm") == pytest.approx(0.78, abs=1e-3)
    assert fit.sigma("eta_dm") > 0.0


def test_fit_switching_efficiency_all_zero_is_boundary():
    points = [
        NFoldCounts(2, (1, 2), 2.5e-8, 0, 10.0),
        NFoldCounts(3, (1, 2, 3), 3.75e-8, 0, 10.0),
    ]
    fit = fit_switching_efficiency(points, pump_rate_hz=1e6, eta_det=1.0, eta_sd=0.5)
    assert fit.at_boundary
    assert fit.values == (0.0,)
    assert math.isinf(fit.sigmas[0])


def test_fit_switching_efficiency_validation():
    with pytest.raises(DataError):
        fit_switching_efficiency(
            [make_counts(2, 0.78)], pump_rate_hz=1e6, eta_det=1.0, eta_sd=0.5
        )
    with pytest.raises(DataError):  # two points but a single distinct n
        fit_switching_efficiency(
            [make_counts(2, 0.78), make_counts(2, 0.78)],
            pump_rate_hz=1e6, eta_det=1.0, eta_sd=0.5,
        )
    with pytest.raises(DomainError):
        fit_switching_efficiency(
            [make_counts(1, 0.78), make_counts(2, 0.78)],
            pump_rate_hz=1e6, eta_det=1.0, eta_sd=0.5,
        )


@pytest.mark.parametrize(
    "name, value",
    [
        ("pump_rate_hz", 0.0),
        ("pump_rate_hz", -1e6),
        ("pump_rate_hz", float("nan")),
        ("pump_rate_hz", float("inf")),
        ("eta_sd", 0.0),
        ("eta_sd", -0.1),
        ("eta_sd", 2.0),
        ("eta_sd", float("nan")),
        ("eta_det", 0.0),
        ("eta_det", 1.5),
        ("eta_det", float("nan")),
    ],
)
def test_fit_switching_efficiency_refuses_inputs_outside_its_model(name, value):
    # eta_sd 0.0 used to give eta_dm 0.75 +- 0, -0.1 gave 0.498 and 2.0 gave 0.376;
    # nan escaped as a ValueError with no exit code, and an infinite pump rate gave a fit
    inputs = {"pump_rate_hz": 1e6, "eta_det": 1.0, "eta_sd": 0.5, name: value}
    points = [make_counts(2, 0.78), make_counts(3, 0.78)]
    with pytest.raises(DomainError, match=name):
        fit_switching_efficiency(points, **inputs)
