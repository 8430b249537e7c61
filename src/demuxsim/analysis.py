"""Time-tag analysis: coincidence histograms, n-fold rates, and model fits.

All counting statistics are Poisson; quoted standard errors are sqrt(counts)
scaled to rates by the acquisition time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .couplers import (
    DemuxNetwork,
    _path_products,
    _through_by_bin,
    channel_delay_bins,
    routing_by_bin,
)
from .errors import DataError, DomainError, EstimationError, check_integer, check_positive
# routing_by_bin and finite_difference_jacobian are unused here: bench/worker.py traces them
from .fitting import FitResult, damped_least_squares, finite_difference_jacobian
from .rates import s_active
from .tags import TimeTagStream, _check_in_run

__all__ = [
    "CoincidenceHistogram",
    "NFoldCounts",
    "histogram",
    "pair_histograms",
    "count_nfold",
    "eta_sd_from_singles",
    "g2_ratio",
    "estimate_splitting_ratios",
    "eta_dm_from_ratios",
    "saturation_model",
    "fit_saturation",
    "fit_switching_efficiency",
]


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoincidenceHistogram:
    """Signed-delay coincidence histogram between two channels.

    counts[i] is the number of record pairs with t_b - t_a in delay bin
    delays[i]; the bin width is one pump pulse period.
    """

    channel_a: int
    channel_b: int
    bin_width_s: float
    delays: np.ndarray  # signed delay in bins
    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())


def histogram(
    stream: TimeTagStream, channel_a: int, channel_b: int, max_delay_bins: int
) -> CoincidenceHistogram:
    """Histogram of t_b - t_a over +-max_delay_bins pulse periods.

    Swapping the channels mirrors the delay axis.  The two channels must
    differ; a same-channel request needs an autocorrelator, not a pair
    histogram.
    """
    (hist,) = pair_histograms(stream, [(channel_a, channel_b)], max_delay_bins)
    return hist


def pair_histograms(
    stream: TimeTagStream,
    pairs: Sequence[tuple[int, int]],
    max_delay_bins: int,
) -> list[CoincidenceHistogram]:
    """Histograms of t_b - t_a over +-max_delay_bins for every (a, b) in pairs.

    Returns one CoincidenceHistogram per pair, in the order given, binned at
    the pulse period.  All pairs come from one count, over the records of the
    channels they name, of counts[d, a, b]: pulse slots where channel a fires
    and channel b fires d pulses later, for d >= 0; negative delays are its
    transpose.  Dense streams count 64 slots at a time in per-channel bitsets,
    sparse ones walk each record's neighbours in slot order.  Working memory
    follows the chunk of records read at a time, not the record or pulse count.
    """
    pairs = [(check_integer("channel", a, 1), check_integer("channel", b, 1)) for a, b in pairs]
    max_delay_bins = check_integer("max_delay_bins", max_delay_bins, 0)
    if any(a == b for a, b in pairs):
        raise DomainError("channel_a and channel_b must differ")
    _check_channels(stream, [c for pair in pairs for c in pair])
    channels = sorted({c for pair in pairs for c in pair})
    row = {c: i for i, c in enumerate(channels)}
    k = len(channels)
    # the bitset kernel makes k*k word operations per 64 slots and delay, the
    # neighbour walk a few gathers per record and per record pair in range
    records, width = len(stream), max_delay_bins + 1
    dense = k * k * _slot_bound(stream, max_delay_bins) * width / 64 < (
        _GATHER_COST * records * (1 + records * width / max(stream.meta.pulse_count, 1))
    )
    kernel = _dense_pair_counts if dense else _sparse_pair_counts
    counts = kernel(stream, channels, max_delay_bins)
    delays = np.arange(-max_delay_bins, max_delay_bins + 1, dtype=np.int64)
    period_s = stream.meta.pulse_period_ps * 1e-12
    return [
        CoincidenceHistogram(
            channel_a=a,
            channel_b=b,
            bin_width_s=period_s,
            delays=delays,
            counts=np.concatenate(
                [counts[:0:-1, row[b], row[a]], counts[:, row[a], row[b]]]
            ),
        )
        for a, b in pairs
    ]


# bitset words per block of the popcount loops: the k*k AND products of a
# block (128 KiB for four channels, 512 KiB for eight) stay in cache, and a
# block's popcounts fit the uint32 sums.  Of 2^9 to 2^12, 2^10 ran the pair
# kernels fastest at eight channels; at four, 2^12 ran about 12% faster but
# doubled the pass's working memory
_BLOCK_WORDS = 1 << 10

# word operations that cost as much as one gather of the neighbour walk: on
# random streams of 1e6 pulses, 4, 8 or 16 channels and delays of +-12 or
# +-64, with 1,024-word blocks, the two kernels took equal times where the
# bitset kernel's modelled work was 5.1 (4 channels, +-64) to 11.2 times the
# neighbour walk's (7.0 to 13.8 with 4,096-word blocks); 7.5 is the middle of
# that range on a log scale: on those streams the kernel it picks ran at most
# about 1.3 times as long as the other (at 10.0, up to 1.7 times)
_GATHER_COST = 7.5


def _check_channels(stream: TimeTagStream, channels: Sequence[int]) -> None:
    n = stream.meta.n_channels
    bad = sorted({c for c in channels if c > n})  # each is an integer >= 1
    if bad:
        raise DomainError(f"channels {bad!r} are outside the stream's 1..{n}")


def _slot_bound(stream: TimeTagStream, horizon: int) -> int:
    """Slots that _slot_chunks can use, plus horizon slots past the last.

    Slots never outnumber the run's pulses, and each record adds at most
    horizon + 1 of them; an empty stream has none.
    """
    return min(stream.meta.pulse_count, (len(stream) - 1) * (horizon + 1) + 1) + horizon


def _slot_chunks(stream: TimeTagStream, channels: Sequence[int], horizon: int):
    """Yield (slots, rows) for each chunk of the records of channels.

    Records sit in pulse slots: every gap between occupied pulses longer
    than horizon is shortened to horizon + 1, so pulses up to horizon apart
    keep their separation and farther ones stay farther apart than horizon.
    rows[i] is the index in channels of the record's channel.  The last
    pulse and slot carry from one chunk to the next, so no array spans the
    stream.  A timestamp off the pulse grid raises DataError: two such
    records could share a pulse and channel.  So does a record at pulse
    pulse_count or later, outside the run; so every pulse fits in int64.
    """
    period = np.uint64(stream.meta.pulse_period_ps)
    lookup = np.full(stream.meta.n_channels + 1, -1, dtype=np.intp)
    lookup[list(channels)] = np.arange(len(channels))
    last_pulse = last_slot = None
    for record_channels, stamps in stream.chunks():
        pulses = stamps // period
        if np.any(pulses * period != stamps):
            raise DataError(
                f"timestamps must be multiples of the {int(period)} ps pulse period"
            )
        _check_in_run(stream.meta, stamps[-1])
        rows = lookup.take(record_channels)
        if len(channels) < stream.meta.n_channels:
            kept = rows >= 0
            pulses, rows = np.compress(kept, pulses), np.compress(kept, rows)
        if pulses.size == 0:
            continue
        pulses = pulses.view(np.int64)
        if last_pulse is None:
            last_pulse, last_slot = pulses[0], 0
        slots = np.empty_like(pulses)
        slots[0] = pulses[0] - last_pulse
        np.subtract(pulses[1:], pulses[:-1], out=slots[1:])
        np.minimum(slots, horizon + 1, out=slots)
        np.cumsum(slots, out=slots)
        slots += last_slot
        last_pulse, last_slot = pulses[-1], slots[-1]
        del pulses  # not held while the caller works on the chunk
        yield slots, rows


def _windows(stream: TimeTagStream, channels: Sequence[int], horizon: int):
    """Yield (bits, used): per-channel slot bitsets, one window of words at a time.

    Bit s & 63 of bits[i, (s >> 6) - base] is set when channels[i] has a
    record in slot s, where base is the window's first word.  Its first used
    words are final, in whole blocks but for the last window, and so are the
    horizon // 64 + 1 words after them that _shifted reads ahead (zero past the
    last record).  The words still open slide down to the next window in one
    buffer, which grows only when a chunk needs more room, so memory follows
    the chunk, not the stream; a window holds until the next one is asked for.
    """
    ahead = horizon // 64 + 1
    bits = np.zeros((len(channels), 0), dtype=np.uint64)
    base = top = 0
    for slots, rows in _slot_chunks(stream, channels, horizon):
        top = int(slots[-1] >> 6) - base + 1  # words below top - 1 are final
        if top + ahead > bits.shape[1]:  # at least double, so a wide chunk grows it rarely
            bits = np.concatenate([bits, np.zeros((len(channels), top + ahead), np.uint64)], axis=1)
        # every record has its own (slot, channel), so adding bits sets them;
        # no index outlives the statement, so none is held while a window is counted
        np.add.at(
            bits.reshape(-1),
            (slots >> 6) + (rows * bits.shape[1] - base),
            np.uint64(1) << (slots.view(np.uint64) & np.uint64(63)),
        )
        used = max(top - 1 - ahead, 0) // _BLOCK_WORDS * _BLOCK_WORDS
        if used:
            yield bits, used
            bits[:, : top - used] = bits[:, used:top]
            bits[:, top - used : top] = 0
            base, top = base + used, top - used
    if top:
        yield bits, top


def _shifted(bits: np.ndarray, start: int, stop: int, delay: int) -> np.ndarray:
    """Words start..stop of bitsets whose bit s is bit s + delay of bits."""
    q, r = divmod(delay, 64)
    out = bits[:, start + q : stop + q] >> np.uint64(r)
    if r:
        out |= bits[:, start + q + 1 : stop + q + 1] << np.uint64(64 - r)
    return out


def _dense_pair_counts(stream, channels, horizon) -> np.ndarray:
    """counts[d, a, b] from bitsets: popcount(B_a & (B_b >> d)), blockwise."""
    counts = np.zeros((horizon + 1, len(channels), len(channels)), dtype=np.int64)
    for bits, used in _windows(stream, channels, horizon):
        for start in range(0, used, _BLOCK_WORDS):
            stop = min(start + _BLOCK_WORDS, used)
            here = bits[:, None, start:stop]
            for d in range(horizon + 1):
                both = here & _shifted(bits, start, stop, d)[None]
                counts[d] += np.add.reduce(np.bitwise_count(both), axis=-1, dtype=np.uint32)
    return counts


def _sparse_pair_counts(stream, channels, horizon) -> np.ndarray:
    """counts[d, a, b] by walking each record's later neighbours in slot order.

    Each chunk is walked behind the earlier records within horizon slots of
    its first.  For o = 1, 2, ... the walk keeps the records whose o-th
    successor is at most horizon slots later (slots are sorted, so one out
    of range stays out for every larger o) and counts the pairs that end on
    a new record.  Records in one slot come in channel order, so delay 0
    counts row_a < row_b only until it is mirrored.
    """
    k = len(channels)
    counts = np.zeros((horizon + 1) * k * k, dtype=np.int64)
    slots = rows = np.empty(0, dtype=np.int64)
    for new_slots, new_rows in _slot_chunks(stream, channels, horizon):
        kept = np.searchsorted(slots, new_slots[0] - horizon)
        slots = np.concatenate([slots[kept:], new_slots])
        rows = np.concatenate([rows[kept:], new_rows])
        first = len(slots) - len(new_slots)  # the first new record
        near = np.arange(len(slots))  # records whose first o - 1 successors are in range
        for o in range(1, len(slots)):
            near = near[: np.searchsorted(near, len(slots) - o)]
            delay = slots[near + o] - slots[near]
            keep = delay <= horizon
            near, delay = near[keep], delay[keep]
            if near.size == 0:
                break
            new = np.searchsorted(near, first - o)  # from here on near + o is new
            key = (delay[new:] * k + rows[near[new:]]) * k + rows[near[new:] + o]
            counts += np.bincount(key, minlength=counts.size)
    counts = counts.reshape(horizon + 1, k, k)
    counts[0] += counts[0].T
    return counts


def g2_ratio(hist: CoincidenceHistogram, period_bins: int, n_peaks: int = 3):
    """Zero-delay bin over the mean of whole-cycle peaks, with Poisson error.

    Peaks at delays of +-period_bins, +-2*period_bins, ... share the routing
    configuration of the zero-delay bin, so this ratio estimates the source's
    zero-delay correlation independently of the switching pattern.
    """
    period_bins = check_integer("period_bins", period_bins, 1)
    n_peaks = check_integer("n_peaks", n_peaks, 1)
    index = {int(d): i for i, d in enumerate(hist.delays)}
    if 0 not in index:
        raise DataError("histogram does not include the zero-delay bin")
    peak_delays = []
    for k in range(1, n_peaks + 1):
        for d in (k * period_bins, -k * period_bins):
            if d in index:
                peak_delays.append(d)
    if not peak_delays:
        raise DataError("histogram range does not reach the first cycle peak")
    zero = float(hist.counts[index[0]])
    peaks = np.array([hist.counts[index[d]] for d in peak_delays], dtype=float)
    peak_sum = float(peaks.sum())
    if peak_sum == 0:
        raise DataError("cycle peaks are empty; cannot normalize")
    mean_peak = peak_sum / len(peaks)
    value = zero / mean_peak
    # independent Poisson bins; an empty zero bin has the error of one count
    sigma = math.hypot(math.sqrt(max(zero, 1.0)) / mean_peak, value / math.sqrt(peak_sum))
    return value, sigma


# ---------------------------------------------------------------------------
# n-fold coincidences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NFoldCounts:
    """n-fold coincidence count and rate between scheduled channels."""

    n: int
    channels: tuple[int, ...]
    window_s: float
    count: int
    acquisition_s: float

    @property
    def rate_hz(self) -> float:
        return self.count / self.acquisition_s

    @property
    def sigma_hz(self) -> float:
        return math.sqrt(max(self.count, 1)) / self.acquisition_s  # a count of 0 errs by 1


def count_nfold(stream: TimeTagStream, channels: Sequence[int]) -> NFoldCounts:
    """Count events where all channels fire at their scheduled pulse offsets.

    Each channel's records are shifted back by its schedule delay (the bin in
    which the schedule targets it); a coincidence is a pulse slot where every
    channel has a record, i.e. simultaneity within half a pulse period after
    alignment.  The reported window is the alignment span plus one period.
    """
    channels = tuple(check_integer("channel", c, 1) for c in channels)
    if len(channels) < 2 or len(set(channels)) != len(channels):
        raise DomainError(f"need >= 2 distinct channels, got {channels!r}")
    schedule_delays = channel_delay_bins(stream.meta.schedule_targets, channels)
    span = max(schedule_delays) - min(schedule_delays)
    _check_channels(stream, channels)
    acquisition_s = stream.acquisition_s  # refuses a run of 0 pulses before any counting
    # an event is a slot s where every channel fires at s + its offset
    lead = min(schedule_delays)
    count = 0
    for bits, used in _windows(stream, channels, span):
        for start in range(0, used, _BLOCK_WORDS):
            stop = min(start + _BLOCK_WORDS, used)
            hits = ~np.uint64(0)
            for i, d in enumerate(schedule_delays):
                hits = hits & _shifted(bits[i : i + 1], start, stop, d - lead)
            count += int(np.bitwise_count(hits).sum())
    return NFoldCounts(
        n=len(channels),
        channels=channels,
        window_s=(span + 1) * (stream.meta.pulse_period_ps * 1e-12),
        count=count,
        acquisition_s=acquisition_s,
    )


def _check_rate_inputs(pump_rate_hz: float, **efficiencies: float) -> None:
    """Refuse a pump rate that is not finite and > 0, or an efficiency outside (0, 1]."""
    check_positive("pump_rate_hz", pump_rate_hz)
    for name, value in efficiencies.items():
        if not 0 < value <= 1:
            raise DomainError(f"{name} must lie in (0, 1], got {value!r}")


def eta_sd_from_singles(
    singles_rates_hz: Sequence[float], pump_rate_hz: float, eta_det: float
) -> float:
    """Source-to-device efficiency from summed singles: sum(rates)/(R*eta_det)."""
    _check_rate_inputs(pump_rate_hz, eta_det=eta_det)
    rates = np.asarray(singles_rates_hz, dtype=float)
    if not np.all((rates >= 0) & (rates < np.inf)):  # NaN fails both
        raise DomainError(f"singles rates must be finite and non-negative, got {rates!r}")
    eta_sd = float(rates.sum()) / (pump_rate_hz * eta_det)
    if eta_sd > 1.0:
        raise DataError(
            f"singles imply eta_sd={eta_sd:.4f} > 1; rates inconsistent with the pump rate"
        )
    return eta_sd


# ---------------------------------------------------------------------------
# splitting-ratio estimation
# ---------------------------------------------------------------------------

def _ratio_params(network: DemuxNetwork) -> dict[str, tuple[str, str]]:
    """The network's ratios in fit order: fit name "coupler_id:state" -> (coupler_id, state)."""
    return {
        f"{cid}:{state}": (cid, state) for cid in network.coupler_ids for state in ("on", "off")
    }


def _class_areas(hist: CoincidenceHistogram, period: int):
    """Sum histogram bins into delay-mod-period classes, excluding delay 0.

    Uses the widest symmetric range that gives every class the same number of
    contributing delay bins, so class areas share one normalization.
    """
    max_delay = int(hist.delays.max())
    usable = (max_delay // period) * period
    if usable < period:
        raise EstimationError(
            f"histogram range +-{max_delay} bins is narrower than one schedule "
            f"period ({period} bins)"
        )
    areas = np.zeros(period)
    index = {int(d): i for i, d in enumerate(hist.delays)}
    for d in range(-usable, usable + 1):
        if d == 0:
            continue
        areas[d % period] += hist.counts[index[d]]
    # dropping delay 0 removes exactly the surplus member of class 0, so every
    # class is left with the same term count and shares one normalization
    n_terms = np.full(period, 2 * usable // period, dtype=float)
    return areas, n_terms


def _ratio_columns(network: DemuxNetwork, schedule: Sequence[int]) -> np.ndarray:
    """columns[b, k]: index in _ratio_params(network) of switch k's ratio in bin b."""
    index: dict[str, dict[str, int]] = {}
    for i, (cid, state) in enumerate(_ratio_params(network).values()):
        index.setdefault(cid, {})[state] = i
    return _through_by_bin(network, schedule, index).astype(np.intp)


def _class_area_model(x, hops, columns, first, second, terms):
    """Expected class areas of pairs (first[p] + 1, second[p] + 1), and their Jacobian in x.

    x is the ratios that columns picks from, then one scale per pair.  Pair p's
    area in class m is scale[p] * terms[p, m] * rel[p, m], where rel[p, m] sums
    over schedule bins k of rows[k, first[p]] * rows[(k + m) % period, second[p]].
    """
    n_ratio = x.size - len(first)
    rows, grad = _path_products(hops, x[columns])
    # drows[k, j, o] = d rows[k, o] / d x[j], through the switches set by ratio j
    drows = np.einsum("kso,ksj->kjo", grad, columns[:, :, None] == np.arange(n_ratio))
    k = np.arange(rows.shape[0])
    later = (k[:, None] + k) % k.size  # later[m, k] = (k + m) % period
    fed, fed_later = rows[:, first], rows[later][..., second]
    rel = np.einsum("kp,mkp->pm", fed, fed_later)
    drel = np.einsum("kjp,mkp->pmj", drows[:, :, first], fed_later)
    drel += np.einsum("kp,mkjp->pmj", fed, drows[later][..., second])
    scale = x[n_ratio:, None] * terms
    dscale = (rel * terms)[..., None] * np.eye(len(first))[:, None]
    jac = np.concatenate([scale[..., None] * drel, dscale], axis=-1)
    return (scale * rel).ravel(), jac.reshape(rel.size, x.size)


def _deviance(m: np.ndarray, y: np.ndarray):
    """Signed Poisson deviance residuals r of model m against counts y, and dr/dm.

    The sum of r**2 is the Poisson likelihood ratio, so least squares on r is
    the maximum-likelihood fit (Baker & Cousins, Nucl. Instrum. Meth. 221, 437
    (1984)); dr/dm = (m - y) / (m r), with its limit 1/sqrt(m) where r = 0.
    """
    # y ln(y/m), 0 where y = 0
    log_term = y * np.log(np.divide(y, m, out=np.ones_like(m), where=y > 0))
    r = np.sign(m - y) * np.sqrt(2.0 * np.maximum(m - y + log_term, 0.0))
    return r, np.divide(m - y, m * r, out=1.0 / np.sqrt(m), where=r != 0)


def estimate_splitting_ratios(
    histograms: Sequence[CoincidenceHistogram],
    network: DemuxNetwork,
    schedule: Sequence[int],
) -> FitResult:
    """Estimate the through fractions of every coupler's on and off states.

    Peak areas, folded to delay classes modulo the schedule period, are fit
    against the tree path-product routing model by Poisson likelihood, with
    exact derivatives; one free scale per histogram absorbs flux and detector
    efficiencies.  Histograms must name distinct unordered pairs, enough to
    make all the ratios identifiable (all pairs sharing channel 1 suffice for
    a balanced 1x4).
    The fit names the ratios "sw1:on", "sw1:off", ... and the scales
    "scale:a-b" after their pair.
    """
    if not histograms:
        raise EstimationError("no histograms given")
    columns = _ratio_columns(network, schedule)  # checks the schedule
    period = len(columns)
    pairs = [(hist.channel_a, hist.channel_b) for hist in histograms]
    if len({frozenset(pair) for pair in pairs}) < len(pairs):  # one pair counted twice
        raise DomainError(f"histograms must name distinct channel pairs, got {pairs!r}")
    areas, terms = map(np.array, zip(*(_class_areas(hist, period) for hist in histograms)))
    for (a, b), pair_areas in zip(pairs, areas):
        if pair_areas.sum() == 0:
            raise EstimationError(f"histogram ({a},{b}) has no counts")
    first, second = np.array(pairs).T - 1
    y = areas.ravel()

    params = _ratio_params(network)
    n_ratio = len(params)
    names = [*params, *(f"scale:{a}-{b}" for a, b in pairs)]

    def residuals(x: np.ndarray) -> np.ndarray:
        model, _ = _class_area_model(x, network.hops, columns, first, second, terms)
        return _deviance(model, y)[0]

    def jacobian(x: np.ndarray) -> np.ndarray:
        model, jac = _class_area_model(x, network.hops, columns, first, second, terms)
        return _deviance(model, y)[1][:, None] * jac

    scales = areas.sum(axis=1) / np.maximum(terms.sum(axis=1) / period, 1.0)
    fit = damped_least_squares(
        residuals,
        np.concatenate([np.tile([0.9, 0.1], len(network.coupler_ids)), scales]),
        jacobian_fn=jacobian,
        names=tuple(names),
        bounds=[(0.0, 1.0)] * n_ratio + [(0.0, np.inf)] * len(pairs),
    )

    # identifiability check at the solution
    rank = np.linalg.matrix_rank(jacobian(np.asarray(fit.values))[:, :n_ratio], tol=1e-8)
    if rank < n_ratio:
        raise EstimationError(
            f"ratios not identifiable from pairs {pairs!r}: rank {rank} < {n_ratio}; "
            "provide histograms for more channel pairs"
        )
    return fit


def eta_dm_from_ratios(fit: FitResult, network: DemuxNetwork, schedule: Sequence[int]):
    """Switching efficiency from estimate_splitting_ratios' fit, with a delta-method sigma."""
    missing = [name for name in _ratio_params(network) if name not in fit.names]
    if missing:
        raise DomainError(f"the fit has no ratios named {missing!r}")
    index = [fit.names.index(name) for name in _ratio_params(network)]
    columns = _ratio_columns(network, schedule)
    rows, grad = _path_products(network.hops, np.array(fit.values)[index][columns])
    bins, targets = np.arange(len(columns)), np.array(schedule) - 1
    value = float(np.mean(rows[bins, targets]))
    # exact gradient: the mean over bins of d rows[b, target_b] / d ratio, which
    # sums over the switches the ratio sets in bin b
    gradient = np.bincount(columns.ravel(), grad[bins, :, targets].ravel(), len(index)) / bins.size
    variance = float(gradient @ fit.covariance[np.ix_(index, index)] @ gradient)
    return value, math.sqrt(max(variance, 0.0))


# ---------------------------------------------------------------------------
# model fits
# ---------------------------------------------------------------------------

def saturation_model(power_uw, c_max: float, p0_uw: float):
    """Two-fold saturation curve c_max * (1 - exp(-P/P0))**2."""
    power_uw = np.asarray(power_uw, dtype=float)
    return c_max * (1.0 - np.exp(-power_uw / p0_uw)) ** 2


def fit_saturation(
    power_uw: Sequence[float],
    rate_hz: Sequence[float],
    sigma_hz: Sequence[float] | None = None,
) -> FitResult:
    """Fit the two-fold saturation curve; returns c_max and p0 with errors.

    Parameters
    ----------
    power_uw, rate_hz : array_like
        Pump powers and measured two-fold rates (>= 3 points).
    sigma_hz : array_like, optional
        Per-point standard errors; unweighted fit when omitted.

    The fit starts from the largest rate and the median nonzero power.
    """
    p = np.asarray(power_uw, dtype=float)
    y = np.asarray(rate_hz, dtype=float)
    if p.size != y.size or p.size < 3:
        raise DataError("need >= 3 (power, rate) points with matching shapes")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(y))):
        raise DataError("pump powers and rates must be finite")
    if np.any(p < 0):
        raise DomainError("pump powers must be non-negative")
    if sigma_hz is not None:
        s = np.asarray(sigma_hz, dtype=float)
        if np.any(~np.isfinite(s)) or np.any(s <= 0):
            raise DataError("sigma_hz must be positive and finite")
        w = 1.0 / s
    else:
        w = np.ones_like(y)

    c0 = max(float(y.max()), 1e-12)
    p00 = float(np.median(p[p > 0])) if np.any(p > 0) else 1.0

    def residuals(x):
        return (saturation_model(p, x[0], x[1]) - y) * w

    def jacobian(x):
        c_max, p0 = x
        e = np.exp(-p / p0)
        base = 1.0 - e
        jac = np.empty((p.size, 2))
        jac[:, 0] = base**2 * w
        jac[:, 1] = -2.0 * c_max * base * e * p / p0**2 * w
        return jac

    return damped_least_squares(
        residuals,
        np.array([c0, p00]),
        jacobian_fn=jacobian,
        names=("c_max_hz", "p0_uw"),
        bounds=[(0.0, np.inf), (1e-12, np.inf)],
    )


def fit_switching_efficiency(
    nfold: Sequence[NFoldCounts],
    pump_rate_hz: float,
    eta_det: float,
    eta_sd: float,
) -> FitResult:
    """Single-parameter fit of the switching efficiency to n-fold rates.

    Model: rate(n) = R * (eta_sd * eta_det)**n * s_active(n, eta_dm), fit to
    the measured rates (n >= 2, at least two distinct n) by weighted least
    squares.  All-zero rates carry no efficiency information and are reported
    as a boundary solution at zero.  pump_rate_hz must be finite and > 0,
    and eta_sd and eta_det lie in (0, 1].
    """
    _check_rate_inputs(pump_rate_hz, eta_sd=eta_sd, eta_det=eta_det)
    points = sorted(nfold, key=lambda m: m.n)
    if len(points) < 2 or len({m.n for m in points}) < 2:
        raise DataError("need measured rates for at least two distinct n")
    if any(m.n < 2 for m in points):
        raise DomainError("switching efficiency is only constrained by n >= 2 rates")
    ns = np.array([m.n for m in points])
    rates = np.array([m.rate_hz for m in points])
    sigmas = np.array([m.sigma_hz for m in points])

    if np.all(rates == 0.0):
        # degenerate data: flag rather than report a meaningless interior optimum
        return FitResult(
            names=("eta_dm",),
            values=(0.0,),
            sigmas=(float("inf"),),
            covariance=np.array([[float("inf")]]),
            residual_norm=float(np.linalg.norm(rates / sigmas)),
            iterations=0,
            at_boundary=True,
        )

    amp = pump_rate_hz * (eta_sd * eta_det) ** ns.astype(float)

    def residuals(x):
        eta = x[0]
        model = amp * np.array([s_active(int(n), eta) for n in ns])
        return (model - rates) / sigmas

    def jacobian(x):
        eta = x[0]
        # d s_active / d eta = (eta^(n-1) - ((1-eta)/(n-1))^(n-1)) for n >= 2
        ds = np.array(
            [eta ** (n - 1) - ((1.0 - eta) / (n - 1)) ** (n - 1) for n in ns]
        )
        return (amp * ds / sigmas)[:, None]

    return damped_least_squares(
        residuals,
        np.array([0.75]),
        jacobian_fn=jacobian,
        names=("eta_dm",),
        bounds=[(0.0, 1.0)],
    )
