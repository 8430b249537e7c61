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
    SwitchSchedule,
    channel_delay_bins,
    routing_by_bin,
    switching_efficiency,
)
from .errors import DataError, DomainError, EstimationError
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
    the pulse period.  All pairs come from one pass over the stream in chunks
    of records: for each delay d >= 0, one joint count of (record channel,
    channel mask at the record's pulse + d) serves every pair, and negative
    delays are its transpose.  The chunks keep every temporary in cache;
    working memory scales with the number of records, not the pulse count.
    """
    pairs = [(int(a), int(b)) for a, b in pairs]
    if max_delay_bins < 0:
        raise DomainError(f"max_delay_bins must be >= 0, got {max_delay_bins!r}")
    if any(a == b for a, b in pairs):
        raise DomainError("channel_a and channel_b must differ")
    _check_channels(stream, [c for pair in pairs for c in pair])
    slots, masks = _occupancy(stream, max_delay_bins)
    n = stream.meta.n_channels
    words = sorted({(c - 1) >> 3 for pair in pairs for c in pair})
    # tables[d, i, (c << 8) | m]: records of channel c + 1 whose pulse + d has
    # channel-mask byte m in word words[i]
    tables = np.zeros((max_delay_bins + 1, len(words), n << 8), dtype=np.int64)
    for start in range(0, slots.size, _CHUNK_RECORDS):
        at = slots[start : start + _CHUNK_RECORDS]
        high = stream.channels[start : start + _CHUNK_RECORDS].astype(np.intp)
        high -= 1
        high <<= 8
        key = np.empty_like(high)
        for i, w in enumerate(words):
            for d in range(max_delay_bins + 1):
                np.bitwise_or(high, masks[w, d:].take(at), out=key)
                tables[d, i] += np.bincount(key, minlength=n << 8)
    # counts[d, a, b]: records of channel a + 1 with channel b + 1 at pulse + d
    counts = np.zeros((max_delay_bins + 1, n, 8 * masks.shape[0]), dtype=np.int64)
    for i, w in enumerate(words):
        counts[:, :, 8 * w : 8 * w + 8] = tables[:, i].reshape(-1, n, 256) @ _BITS
    delays = np.arange(-max_delay_bins, max_delay_bins + 1, dtype=np.int64)
    period_s = stream.meta.pulse_period_ps * 1e-12
    return [
        CoincidenceHistogram(
            channel_a=a,
            channel_b=b,
            bin_width_s=period_s,
            delays=delays,
            counts=np.concatenate([counts[:0:-1, b - 1, a - 1], counts[:, a - 1, b - 1]]),
        )
        for a, b in pairs
    ]


# records per chunk of the histogram and n-fold loops: small enough that a
# chunk's temporaries stay in cache, large enough that loop overhead is small
_CHUNK_RECORDS = 1 << 16

# _BITS[m, k] is bit k of the byte m: it reduces joint counts of channel-mask
# bytes to counts of channel pairs
_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.int64)


def _check_channels(stream: TimeTagStream, channels: Sequence[int]) -> None:
    n = stream.meta.n_channels
    bad = sorted({c for c in channels if not 1 <= c <= n})
    if bad:
        raise DomainError(f"channels {bad!r} are outside the stream's 1..{n}")


def _occupancy(stream: TimeTagStream, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Every record's pulse as a slot, and a channel bitmask per slot.

    Every gap between occupied pulses longer than horizon is shortened to
    horizon + 1, so pulses up to horizon apart keep their separation and
    farther ones stay farther apart than horizon.  slots[i] is the slot of
    record i.  Bit k of masks[w, s] is set when channel 8*w + k + 1 has a
    record in slot s; horizon empty slots past the last one let every lookup
    at slot + delay stay in range.  Both arrays are O(records).
    """
    pulses = stream.pulse_indices
    words = -(-stream.meta.n_channels // 8)
    if pulses.size == 0:
        return pulses, np.zeros((words, horizon + 1), dtype=np.uint8)
    slots = np.empty_like(pulses)
    slots[0] = 0
    gaps = np.diff(pulses)
    del pulses  # peak memory matters on bright runs
    np.minimum(gaps, horizon + 1, out=gaps)
    np.cumsum(gaps, out=slots[1:])
    del gaps
    masks = np.zeros((words, int(slots[-1]) + 1 + horizon), dtype=np.uint8)
    index = stream.channels - np.uint32(1)
    bits = np.left_shift(np.uint8(1), (index & np.uint32(7)).astype(np.uint8))
    flat = slots if words == 1 else slots + (index >> np.uint32(3)).astype(np.intp) * masks.shape[1]
    np.bitwise_or.at(masks.reshape(-1), flat, bits)
    return slots, masks


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
    lead = min(schedule_delays)
    # candidates are the records of the channel scheduled first; an event keeps
    # every channel firing at its offset from that record's pulse
    slots, masks = _occupancy(stream, span)
    starts = slots[stream.channels == channels[schedule_delays.index(lead)]]
    del slots
    count = 0
    for start in range(0, starts.size, _CHUNK_RECORDS):
        hits = starts[start : start + _CHUNK_RECORDS]
        for ch, d in zip(channels, schedule_delays):
            word, bit = divmod(ch - 1, 8)
            hits = hits[masks[word].take(hits + (d - lead)) & np.uint8(1 << bit) != 0]
        count += hits.size
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
    param_names: tuple[str, ...]
    covariance: np.ndarray
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


def _model_class_areas(rows: np.ndarray) -> np.ndarray:
    """Expected relative class areas of every channel pair.

    out[a, b, m] = sum_k rows[k, a] * rows[(k + m) % period, b]: channel a + 1
    fed in schedule bin k and channel b + 1 fed m bins later.
    """
    k = np.arange(rows.shape[0])
    later = rows[(k[:, None] + k) % k.size]  # later[m, k] = rows[(k + m) % period]
    return np.einsum("ka,mkb->abm", rows, later)


def estimate_splitting_ratios(
    histograms: Sequence[CoincidenceHistogram],
    network: DemuxNetwork,
    schedule: SwitchSchedule,
) -> RatioEstimationResult:
    """Estimate the through fractions of every coupler's on and off states.

    Peak areas, folded to delay classes modulo the schedule period, are fit
    against the tree path-product routing model by weighted least squares;
    one free scale per histogram absorbs flux and detector efficiencies.
    Histograms must cover enough distinct pairs to make all the ratios
    identifiable (all pairs sharing channel 1 suffice for a balanced 1x4).
    """
    if not histograms:
        raise EstimationError("no histograms given")
    period = schedule.period
    data = []
    for hist in histograms:
        areas, n_terms = _class_areas(hist, period)
        if areas.sum() == 0:
            raise EstimationError(
                f"histogram ({hist.channel_a},{hist.channel_b}) has no counts"
            )
        data.append((hist.channel_a, hist.channel_b, areas, n_terms))

    states = ("on", "off")
    ratio_names = [f"{cid}:{st}" for cid in network.coupler_ids for st in states]
    scale_names = [f"scale:{a}-{b}" for a, b, _, _ in data]
    n_ratio = len(ratio_names)

    y = np.concatenate([areas for _, _, areas, _ in data])
    sigma = np.sqrt(np.clip(y, 1.0, None))  # Poisson, floored for empty classes

    def build_table(x: np.ndarray) -> dict[str, dict[str, float]]:
        ratios = np.clip(x[:n_ratio], 0.0, 1.0).reshape(-1, len(states)).tolist()
        return {cid: dict(zip(states, r)) for cid, r in zip(network.coupler_ids, ratios)}

    first = np.array([a - 1 for a, _, _, _ in data])
    second = np.array([b - 1 for _, b, _, _ in data])
    terms = np.array([n_terms for _, _, _, n_terms in data])

    def model(x: np.ndarray) -> np.ndarray:
        rows = routing_by_bin(network, schedule, build_table(x))
        rel = _model_class_areas(rows)[first, second]
        return (x[n_ratio:, None] * rel * terms).ravel()

    def residuals(x: np.ndarray) -> np.ndarray:
        return (model(x) - y) / sigma

    x0 = np.empty(n_ratio + len(data))
    for k, name in enumerate(ratio_names):
        x0[k] = 0.9 if name.endswith(":on") else 0.1
    for i, (_, _, areas, n_terms) in enumerate(data):
        x0[n_ratio + i] = areas.sum() / max(n_terms.sum() / period, 1.0)

    bounds = [(0.0, 1.0)] * n_ratio + [(0.0, np.inf)] * len(data)
    fit = damped_least_squares(
        residuals,
        x0,
        names=tuple(ratio_names + scale_names),
        bounds=bounds,
    )
    # reweight by the fitted model: data-derived Poisson weights bias counts
    # low because downward fluctuations get larger weights
    for _ in range(2):
        sigma = np.sqrt(np.clip(model(np.asarray(fit.values)), 1.0, None))
        fit = damped_least_squares(
            residuals,
            np.asarray(fit.values),
            names=tuple(ratio_names + scale_names),
            bounds=bounds,
        )

    # identifiability check at the solution
    jac = finite_difference_jacobian(residuals, np.asarray(fit.values))
    rank = np.linalg.matrix_rank(jac[:, :n_ratio], tol=1e-8)
    if rank < n_ratio:
        pairs = [(a, b) for a, b, _, _ in data]
        raise EstimationError(
            f"ratios not identifiable from pairs {pairs!r}: rank {rank} < {n_ratio}; "
            "provide histograms for more channel pairs"
        )

    estimates = []
    for k, name in enumerate(ratio_names):
        cid, st = name.split(":")
        estimates.append(
            RatioEstimate(coupler_id=cid, state=st, ratio=fit.values[k], sigma=fit.sigmas[k])
        )
    return RatioEstimationResult(
        estimates=tuple(estimates),
        param_names=tuple(ratio_names),
        covariance=fit.covariance[:n_ratio, :n_ratio],
        fit=fit,
    )


def eta_dm_from_ratios(
    result: RatioEstimationResult,
    network: DemuxNetwork,
    schedule: SwitchSchedule,
):
    """Switching efficiency from estimated ratios, with a delta-method sigma."""
    table = result.table()
    value = switching_efficiency(network, schedule, table)
    # numeric gradient wrt each estimated ratio
    grad = np.zeros(len(result.param_names))
    h = 1e-6
    for k, name in enumerate(result.param_names):
        cid, st = name.split(":")
        bumped = {c: dict(s) for c, s in table.items()}
        bumped[cid][st] = min(bumped[cid][st] + h, 1.0)
        step = bumped[cid][st] - table[cid][st]
        if step == 0.0:
            bumped[cid][st] = table[cid][st] - h
            step = -h
        grad[k] = (switching_efficiency(network, schedule, bumped) - value) / step
    variance = float(grad @ result.covariance @ grad)
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
