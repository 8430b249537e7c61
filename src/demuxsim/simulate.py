"""Monte Carlo time-tag simulation of the switched single-photon stream.

Per pump pulse the source emits a primary photon with the power-dependent
brightness and, independently, a rare second photon sized so the stream's
zero-delay correlation matches the configured g2(0).  Each photon routes
through the switch tree with the coupler states of the pulse's schedule bin,
then survives device transmission and detector efficiency as one Bernoulli
trial.  Surviving photons become (channel, pulse_index * period) records; two
photons landing on the same channel in the same pulse yield one record, since
a click detector cannot resolve them.

Randomness is counter-based: pulses are laid out on a fixed grid of
2**16-pulse blocks, and the uniforms for a block depend only on
(seed, block_index).  Sharding a run therefore cannot change its draws, and
simulate gives the same stream for every shard count; nor can the number of
threads that simulate the blocks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import Philox, SeedSequence

from .couplers import DemuxNetwork, RatioTable, routing_by_bin, schedule_for_cycle
from .errors import ConfigError, DomainError, check_integer, check_non_negative, check_unit_interval
from .rates import EmitterParams, LossBudget, compose_transmission
from .tags import StreamMeta, TimeTagStream

__all__ = [
    "SimConfig",
    "second_photon_probability",
    "simulate",
]

BLOCK_PULSES = 1 << 16  # fixed draw-grid block; independent of shard layout
_DRAWS_PER_PULSE = 6  # emit/route/survive for the primary and second photon
_CHUNK_ROWS = 1 << 13  # rows per fill; bounds each worker's draw buffer
# CPUs this process may use (sched_getaffinity is missing on macOS and Windows)
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def second_photon_probability(p1: float, g2_zero: float) -> float:
    """Independent second-photon probability that reproduces a target g2(0).

    With two-photon probability p1*p2 and mean photon number p1 + p2 the
    pulsed zero-delay correlation is 2*p1*p2 / (p1 + p2)**2; solving for p2
    needs g2 < 0.5, the ceiling of this two-photon emission model.
    """
    check_unit_interval("p1", p1)
    if not 0.0 <= g2_zero < 1.0:
        raise DomainError(f"g2_zero must lie in [0, 1), got {g2_zero!r}")
    if g2_zero == 0.0 or p1 == 0.0:
        return 0.0
    if g2_zero >= 0.5:
        raise ConfigError(
            f"g2_zero={g2_zero!r} is unreachable with a two-photon emission model (max 0.5)"
        )
    return p1 * ((1.0 - g2_zero) - math.sqrt(1.0 - 2.0 * g2_zero)) / g2_zero


@dataclass(frozen=True)
class SimConfig:
    """Fully resolved simulation inputs.

    The schedule is stored as schedule_for_cycle's checked tuple of outputs;
    pulse_count is an integer >= 0, and rng_seed a mandatory integer >= 0 so
    no run is silently irreproducible; both are stored as Python ints.
    """

    emitter: EmitterParams
    network: DemuxNetwork
    schedule: tuple[int, ...]
    couplers: RatioTable
    budget: LossBudget
    eta_det: float
    pump_power_uw: float
    rng_seed: int
    pulse_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", schedule_for_cycle(self.network, self.schedule))
        for key in ("pulse_count", "rng_seed"):
            object.__setattr__(self, key, check_integer(key, getattr(self, key), 0, ConfigError))
        check_unit_interval("eta_det", self.eta_det)
        check_non_negative("pump_power_uw", self.pump_power_uw)
        if self.pulse_period_ps() < 1:  # a rate past 2 THz rounds to a period of 0 ps
            raise ConfigError(
                f"pump_rate_hz={self.emitter.pump_rate_hz!r} gives a pulse period below 1 ps"
            )

    def resolved_pulse_count(self) -> int:
        return self.pulse_count

    def pulse_period_ps(self) -> int:
        return int(round(1e12 / self.emitter.pump_rate_hz))

    def emission_probability(self) -> float:
        return self.emitter.input_brightness(self.pump_power_uw)

    def transmission(self) -> float:
        return compose_transmission(self.budget)

    def device_digest(self) -> str:
        """Digest of the device-defining sections (not the per-run schedule)."""
        doc = {
            "emitter": asdict(self.emitter),
            "network": self.network.to_dict(),
            "couplers": {
                cid: {state: float(v) for state, v in sorted(states.items())}
                for cid, states in sorted(self.couplers.items())
            },
            "budget": asdict(self.budget),
            "eta_det": self.eta_det,
            "pump_power_uw": self.pump_power_uw,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def stream_meta(self) -> StreamMeta:
        return StreamMeta(
            config_digest=self.device_digest(),
            pump_rate_hz=self.emitter.pump_rate_hz,
            pulse_period_ps=self.pulse_period_ps(),
            pulse_count=self.pulse_count,
            n_channels=self.network.n_outputs,
            schedule_targets=self.schedule,
        )


def _raw_below(p: float) -> np.uint64 | None:
    """The t with raw < t exactly when the uniform (raw >> 11) * 2**-53 is below p.

    None when every raw u64 is: p >= 1.  p * 2**53 is exact, and an integer
    is below a real number exactly when it is below its ceiling.
    """
    limit = max(math.ceil(p * 2.0**53), 0) << 11
    return None if limit >= 1 << 64 else np.uint64(limit)


def _raw_edges(edges: np.ndarray) -> np.ndarray:
    """The table e with raw >> 11 >= e exactly when the uniform (raw >> 11) * 2**-53 is >= edges."""
    return np.ceil(edges * 2.0**53).astype(np.uint64)


@dataclass(frozen=True, eq=False)
class _Blocks:
    """Simulated records at 3 bytes each, expanded to stream columns on every pass.

    Each block is (first pulse, u16 pulse offsets from it, channel - 1 as u8,
    or u16 past 256 outputs); offsets fit, since a block is BLOCK_PULSES long.
    """

    blocks: list
    period_ps: int

    def __iter__(self):
        period_ps = np.uint64(self.period_ps)
        for first, offsets, channels in self.blocks:
            channels = channels.astype(np.uint32)
            channels += 1
            stamps = offsets.astype(np.uint64)
            stamps += np.uint64(first)
            stamps *= period_ps
            yield channels, stamps


def simulate(config: SimConfig, shards: int = 1) -> TimeTagStream:
    """Simulate in contiguous pulse shards and chain their blocks; any shard count, one stream.

    The shard cuts split the run into (block, lo, hi) pieces, one per grid
    block a shard touches; a cut inside a block splits it into two pieces,
    which draw the block's rows alike.  Pieces are independent, so one thread
    pool runs them all (NumPy's fills and ufuncs release the GIL) and gathers
    them in order.  Each draw is a raw Philox u64 compared as the uniform
    Generator.random would make of it.
    """
    shards = check_integer("shards", shards, 1, ConfigError)
    meta = config.stream_meta()  # refuses a run its sidecar cannot hold before any draw
    p1 = config.emission_probability()
    limits = [_raw_below(p) for p in (p1, second_photon_probability(p1, config.emitter.g2_zero))]
    survive = _raw_below(config.transmission() * config.eta_det)
    period = len(config.schedule)
    n_out = config.network.n_outputs
    channel_type = np.min_scalar_type(n_out - 1)  # u8 up to 256 outputs
    cum = np.cumsum(routing_by_bin(config.network, config.schedule, config.couplers), axis=1)
    # inverse-CDF edges per output, one row per schedule bin; the last edge
    # is 1 and no uniform reaches it, so channel - 1 counts the edges passed
    edges = _raw_edges(np.ascontiguousarray(cum[:, :-1].T))

    def build(piece: tuple[int, int, int]):
        """The _Blocks entry of block rows [lo, hi)."""
        block, lo, hi = piece
        first = block * BLOCK_PULSES
        bitgen = Philox(seed=SeedSequence((config.rng_seed, block)))
        hits = ([], [])  # per photon, the (pulse offsets, route draws) of each fill
        for row in range(0, hi, _CHUNK_ROWS):
            # consecutive fills yield the rows of one random_raw((BLOCK_PULSES, 6)) draw
            u = bitgen.random_raw((_CHUNK_ROWS, _DRAWS_PER_PULSE))[max(lo - row, 0) : hi - row]
            for photon, col, limit in zip(hits, (0, 3), limits):
                at = np.arange(len(u)) if limit is None else np.flatnonzero(u[:, col] < limit)
                if survive is not None:
                    at = at[u[at, col + 2] < survive]
                photon.append((at + max(lo, row), u[at, col + 1] >> np.uint64(11)))
            del u  # one draw buffer at a time
        # the primary photon's hits, then the second's: two sorted runs of keys
        pulse, route = map(np.concatenate, zip(*hits[0], *hits[1]))
        key = pulse * n_out  # sort key offset * n + channel - 1
        bins = (pulse + first) % period
        for edge in edges:
            key += route >= edge[bins]
        # merge the two runs; a double hit on one channel is one click
        key = np.sort(key, kind="stable")
        keep = np.ones(len(key), bool)
        keep[1:] = key[1:] != key[:-1]
        offsets, channels = np.divmod(key[keep], n_out)
        return first, offsets.astype(np.uint16), channels.astype(channel_type)

    cuts = np.linspace(0, config.pulse_count, shards + 1).astype(np.int64).tolist()
    pieces = [
        (block, max(lo - block * BLOCK_PULSES, 0), min(hi - block * BLOCK_PULSES, BLOCK_PULSES))
        for lo, hi in zip(cuts, cuts[1:])
        for block in range(lo // BLOCK_PULSES, -(-hi // BLOCK_PULSES))
    ]
    with ThreadPoolExecutor(max(min(_WORKERS, len(pieces)), 1)) as pool:
        blocks = list(pool.map(build, pieces))
    return TimeTagStream._of_parts(_Blocks(blocks, config.pulse_period_ps()), meta)
