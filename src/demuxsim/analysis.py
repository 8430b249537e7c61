"""Time-tag analysis: coincidence histograms, n-fold rates, and model fits.

All counting statistics are Poisson; quoted standard errors are sqrt(counts)
scaled to rates by the acquisition time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import xlogy

from .couplers import (
    DemuxNetwork,
    SwitchSchedule,
    _path_products,
    _through_by_bin,
    channel_delay_bins,
    routing_by_bin,
)
from .errors import DataError, DomainError, EstimationError
# routing_by_bin and finite_difference_jacobian are unused here: bench/worker.py traces them
from .fitting import FitResult, damped_least_squares, finite_difference_jacobian
from .rates import s_active
from .tags import TimeTagStream

__all__ = [
    "CoincidenceHistogram",
    "NFoldCounts",
    "histogram",
    "pair_histograms",
    "count_nfold",
    "eta_sd_from_singles",
    "g2_ratio",
    "RatioEstimate",
    "RatioEstimationResult",
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
    scales with the number of records, not the pulse count.
    """
    pairs = [(int(a), int(b)) for a, b in pairs]
    if max_delay_bins < 0:
        raise DomainError(f"max_delay_bins must be >= 0, got {max_delay_bins!r}")
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
        _GATHER_COST * records * (1 + records * width / max(_span(stream), 1))
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


# records per chunk of the slot front end: small enough that a chunk's
# temporaries stay in cache, large enough that loop overhead is small
_CHUNK_RECORDS = 1 << 16

# bitset words per block of the popcount loops: the k*k AND products of a
# block (512 KB for four channels) stay in cache, and a block's popcounts fit
# the uint32 sums
_BLOCK_WORDS = 1 << 12

# word operations that cost as much as one gather of the neighbour walk: on
# random streams of 1e6 pulses, 4, 8 or 16 channels and delays of +-12 or
# +-64, the two kernels took equal times where the bitset kernel's modelled
# work was 8 to 13 times the neighbour walk's
_GATHER_COST = 10.0


def _check_channels(stream: TimeTagStream, channels: Sequence[int]) -> None:
    n = stream.meta.n_channels
    bad = sorted({c for c in channels if not 1 <= c <= n})
    if bad:
        raise DomainError(f"channels {bad!r} are outside the stream's 1..{n}")


def _span(stream: TimeTagStream) -> int:
    """Pulses from the first record's to the last record's, both included."""
    if len(stream) == 0:
        return 0
    period = np.uint64(stream.meta.pulse_period_ps)
    return int(stream.timestamps_ps[-1] // period - stream.timestamps_ps[0] // period) + 1


def _slot_bound(stream: TimeTagStream, horizon: int) -> int:
    """Slots that _slot_chunks can use, plus horizon slots past the last.

    Slots never outnumber the pulses spanned, and each record adds at most
    horizon + 1 of them; an empty stream has none.
    """
    return min(_span(stream), (len(stream) - 1) * (horizon + 1) + 1) + horizon


def _slot_chunks(stream: TimeTagStream, channels: Sequence[int], horizon: int):
    """Yield (slots, rows) for each chunk of the records of channels.

    Records sit in pulse slots: every gap between occupied pulses longer
    than horizon is shortened to horizon + 1, so pulses up to horizon apart
    keep their separation and farther ones stay farther apart than horizon.
    rows[i] is the index in channels of the record's channel.  The last
    pulse and slot carry from one chunk to the next, so no array spans the
    stream.  A timestamp off the pulse grid raises DataError: two such
    records could share a pulse and channel.
    """
    period = np.uint64(stream.meta.pulse_period_ps)
    lookup = np.full(stream.meta.n_channels + 1, -1, dtype=np.intp)
    lookup[list(channels)] = np.arange(len(channels))
    last_pulse = last_slot = None
    for start in range(0, len(stream), _CHUNK_RECORDS):
        stamps = stream.timestamps_ps[start : start + _CHUNK_RECORDS]
        pulses = stamps // period
        if np.any(pulses * period != stamps):
            raise DataError(
                f"timestamps must be multiples of the {int(period)} ps pulse period"
            )
        rows = lookup.take(stream.channels[start : start + _CHUNK_RECORDS])
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
        yield slots, rows


def _bitsets(stream: TimeTagStream, channels: Sequence[int], horizon: int):
    """Per-channel slot bitsets and the number of words that hold records.

    Bit s & 63 of bits[i, s >> 6] is set when channels[i] has a record in
    slot s.  Past the words that hold records there are enough zero words for
    _shifted to read horizon slots ahead.
    """
    words = _slot_bound(stream, horizon) // 64 + 2
    bits = np.zeros((len(channels), words), dtype=np.uint64)
    used = 0
    for slots, rows in _slot_chunks(stream, channels, horizon):
        # every record has its own (slot, channel), so adding bits sets them
        index = slots >> 6
        index += rows * words
        np.add.at(bits.reshape(-1), index, np.uint64(1) << (slots.view(np.uint64) & np.uint64(63)))
        used = int(slots[-1] >> 6) + 1
    return bits, used


def _shifted(bits: np.ndarray, start: int, stop: int, delay: int) -> np.ndarray:
    """Words start..stop of bitsets whose bit s is bit s + delay of bits."""
    q, r = divmod(delay, 64)
    out = bits[:, start + q : stop + q] >> np.uint64(r)
    if r:
        out |= bits[:, start + q + 1 : stop + q + 1] << np.uint64(64 - r)
    return out


def _dense_pair_counts(stream, channels, horizon) -> np.ndarray:
    """counts[d, a, b] from bitsets: popcount(B_a & (B_b >> d)), blockwise."""
    bits, used = _bitsets(stream, channels, horizon)
    counts = np.zeros((horizon + 1, len(channels), len(channels)), dtype=np.int64)
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
    if period_bins < 1:
        raise DomainError(f"period_bins must be >= 1, got {period_bins!r}")
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
    # independent Poisson bins: relative variance 1/N0 + 1/sum(peaks)
    sigma = value * math.sqrt((1.0 / zero if zero > 0 else 1.0) + 1.0 / peak_sum)
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
        return math.sqrt(self.count) / self.acquisition_s


def count_nfold(stream: TimeTagStream, channels: Sequence[int]) -> NFoldCounts:
    """Count events where all channels fire at their scheduled pulse offsets.

    Each channel's records are shifted back by its schedule delay (the bin in
    which the schedule targets it); a coincidence is a pulse slot where every
    channel has a record, i.e. simultaneity within half a pulse period after
    alignment.  The reported window is the alignment span plus one period.
    """
    channels = tuple(int(c) for c in channels)
    if len(channels) < 2 or len(set(channels)) != len(channels):
        raise DomainError(f"need >= 2 distinct channels, got {channels!r}")
    schedule_delays = channel_delay_bins(stream.meta.schedule_targets, channels)
    span = max(schedule_delays) - min(schedule_delays)
    _check_channels(stream, channels)
    if stream.meta.pulse_count == 0:
        raise DataError("a stream with pulse_count 0 has no acquisition time, so no rates")
    # an event is a slot s where every channel fires at s + its offset
    bits, used = _bitsets(stream, channels, span)
    lead = min(schedule_delays)
    count = 0
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
        acquisition_s=stream.acquisition_s,
    )


def eta_sd_from_singles(
    singles_rates_hz: Sequence[float], pump_rate_hz: float, eta_det: float
) -> float:
    """Source-to-device efficiency from summed singles: sum(rates)/(R*eta_det)."""
    if pump_rate_hz <= 0:
        raise DomainError(f"pump_rate_hz must be positive, got {pump_rate_hz!r}")
    if eta_det <= 0 or eta_det > 1:
        raise DomainError(f"eta_det must lie in (0, 1], got {eta_det!r}")
    total = float(np.sum(singles_rates_hz))
    if total < 0:
        raise DomainError("singles rates must be non-negative")
    eta_sd = total / (pump_rate_hz * eta_det)
    if eta_sd > 1.0:
        raise DataError(
            f"singles imply eta_sd={eta_sd:.4f} > 1; rates inconsistent with the pump rate"
        )
    return eta_sd


# ---------------------------------------------------------------------------
# splitting-ratio estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioEstimate:
    """One coupler state's estimated through fraction."""

    coupler_id: str
    state: str
    ratio: float
    sigma: float


@dataclass(frozen=True)
class RatioEstimationResult:
    estimates: tuple[RatioEstimate, ...]
    fit: FitResult

    def table(self) -> dict[str, dict[str, float]]:
        """Estimates in ratio-table form, usable by the routing functions."""
        table: dict[str, dict[str, float]] = {}
        for est in self.estimates:
            table.setdefault(est.coupler_id, {})[est.state] = est.ratio
        return table

    def get(self, coupler_id: str, state: str) -> RatioEstimate:
        for est in self.estimates:
            if est.coupler_id == coupler_id and est.state == state:
                return est
        raise KeyError((coupler_id, state))


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


def _ratio_columns(network: DemuxNetwork, schedule: SwitchSchedule, params) -> np.ndarray:
    """columns[b, k]: index in params, (coupler_id, state) pairs, of switch k's ratio in bin b."""
    index: dict[str, dict[str, int]] = {}
    for i, (cid, state) in enumerate(params):
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
    r = np.sign(m - y) * np.sqrt(2.0 * np.maximum(m - y + xlogy(y, y / m), 0.0))
    return r, np.divide(m - y, m * r, out=1.0 / np.sqrt(m), where=r != 0)


def estimate_splitting_ratios(
    histograms: Sequence[CoincidenceHistogram],
    network: DemuxNetwork,
    schedule: SwitchSchedule,
) -> RatioEstimationResult:
    """Estimate the through fractions of every coupler's on and off states.

    Peak areas, folded to delay classes modulo the schedule period, are fit
    against the tree path-product routing model by Poisson likelihood, with
    exact derivatives; one free scale per histogram absorbs flux and detector
    efficiencies.  Histograms must cover enough distinct pairs to make all the
    ratios identifiable (all pairs sharing channel 1 suffice for a balanced 1x4).
    """
    if not histograms:
        raise EstimationError("no histograms given")
    period = schedule.period
    pairs = [(hist.channel_a, hist.channel_b) for hist in histograms]
    areas, terms = map(np.array, zip(*(_class_areas(hist, period) for hist in histograms)))
    for (a, b), pair_areas in zip(pairs, areas):
        if pair_areas.sum() == 0:
            raise EstimationError(f"histogram ({a},{b}) has no counts")
    first, second = np.array(pairs).T - 1
    y = areas.ravel()

    params = [(cid, st) for cid in network.coupler_ids for st in ("on", "off")]
    n_ratio = len(params)
    names = [f"{cid}:{st}" for cid, st in params] + [f"scale:{a}-{b}" for a, b in pairs]
    columns = _ratio_columns(network, schedule, params)

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

    estimates = tuple(
        RatioEstimate(coupler_id=cid, state=st, ratio=fit.values[k], sigma=fit.sigmas[k])
        for k, (cid, st) in enumerate(params)
    )
    return RatioEstimationResult(estimates=estimates, fit=fit)


def eta_dm_from_ratios(
    result: RatioEstimationResult,
    network: DemuxNetwork,
    schedule: SwitchSchedule,
):
    """Switching efficiency from estimated ratios, with a delta-method sigma."""
    estimates, n = result.estimates, len(result.estimates)
    columns = _ratio_columns(network, schedule, [(e.coupler_id, e.state) for e in estimates])
    rows, grad = _path_products(network.hops, np.array([e.ratio for e in estimates])[columns])
    bins, targets = np.arange(schedule.period), np.array(schedule.targets) - 1
    value = float(np.mean(rows[bins, targets]))
    # exact gradient: the mean over bins of d rows[b, target_b] / d ratio, which
    # sums over the switches the ratio sets in bin b
    gradient = np.bincount(columns.ravel(), grad[bins, :, targets].ravel(), n) / bins.size
    variance = float(gradient @ result.fit.covariance[:n, :n] @ gradient)
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
    initial: tuple[float, float] | None = None,
) -> FitResult:
    """Fit the two-fold saturation curve; returns c_max and p0 with errors.

    Parameters
    ----------
    power_uw, rate_hz : array_like
        Pump powers and measured two-fold rates (>= 3 points).
    sigma_hz : array_like, optional
        Per-point standard errors; unweighted fit when omitted.
    initial : (c_max, p0), optional
        Starting point; a data-driven default is used when omitted.
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

    if initial is None:
        c0 = max(float(y.max()), 1e-12)
        p00 = float(np.median(p[p > 0])) if np.any(p > 0) else 1.0
    else:
        c0, p00 = initial

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
    as a boundary solution at zero.
    """
    points = sorted(nfold, key=lambda m: m.n)
    if len(points) < 2 or len({m.n for m in points}) < 2:
        raise DataError("need measured rates for at least two distinct n")
    if any(m.n < 2 for m in points):
        raise DomainError("switching efficiency is only constrained by n >= 2 rates")
    ns = np.array([m.n for m in points])
    rates = np.array([m.rate_hz for m in points])
    sigmas = np.array([m.sigma_hz if m.count > 0 else 1.0 / m.acquisition_s for m in points])

    if np.all(rates == 0.0):
        # degenerate data: flag rather than report a meaningless interior optimum
        return FitResult(
            names=("eta_dm",),
            values=(0.0,),
            sigmas=(float("inf"),),
            covariance=np.array([[float("inf")]]),
            residual_norm=float(np.linalg.norm(rates / sigmas)),
            iterations=0,
            converged=True,
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
