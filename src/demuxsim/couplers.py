"""Electro-optic directional couplers, the 1-to-n switch tree, and schedules.

Each switch is a two-mode directional coupler.  Detuning the propagation
constants of the two waveguides with a drive voltage moves light between the
cross port (fully coupled at zero detuning when the interaction length is an
odd multiple of the coupling length) and the through port.  A rooted binary
tree of such switches routes one input to n outputs; a cyclic schedule
reconfigures the tree once per pump pulse.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError, check_integer, check_positive

__all__ = [
    "cross_fraction",
    "CouplerParams",
    "CouplerNode",
    "DemuxNetwork",
    "balanced_network",
    "cascade_network",
    "schedule_for_cycle",
    "routing_by_bin",
    "switching_efficiency",
    "physical_nfold_scaling",
    "channel_delay_bins",
]

RatioTable = Mapping[str, Mapping[str, float]]


# ---------------------------------------------------------------------------
# single coupler
# ---------------------------------------------------------------------------

def cross_fraction(kappa_per_mm: float, length_mm: float, delta_beta_per_mm: float) -> float:
    """Power fraction leaving the cross port of a detuned directional coupler.

    [kappa^2 / g^2] * sin^2(g L) with g = sqrt(kappa^2 + (delta_beta/2)^2).
    Even in delta_beta; equals sin^2(kappa L) at zero detuning.
    """
    check_positive("kappa_per_mm", kappa_per_mm)
    check_positive("length_mm", length_mm)
    g = math.hypot(kappa_per_mm, delta_beta_per_mm / 2.0)
    return (kappa_per_mm / g) ** 2 * math.sin(g * length_mm) ** 2


@dataclass(frozen=True)
class CouplerParams:
    """Physical description of one switch and its drive states.

    state_voltages maps state names (e.g. "on"/"off") to drive voltages; the
    detuning is delta_beta_per_volt_per_mm * voltage.
    """

    kappa_per_mm: float
    length_mm: float
    delta_beta_per_volt_per_mm: float
    state_voltages: Mapping[str, float]

    def through_fraction(self, state: str) -> float:
        """Power fraction on the through port in a named drive state."""
        if state not in self.state_voltages:
            raise ConfigError(f"unknown coupler state {state!r}")
        db = self.delta_beta_per_volt_per_mm * self.state_voltages[state]
        return 1.0 - cross_fraction(self.kappa_per_mm, self.length_mm, db)

    def ratios(self) -> dict[str, float]:
        return {state: self.through_fraction(state) for state in self.state_voltages}


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplerNode:
    """Internal tree node: a switch with a through child and a cross child.

    Children are either nested nodes or integer output labels.
    """

    coupler_id: str
    through: Union["CouplerNode", int]
    cross: Union["CouplerNode", int]


class DemuxNetwork:
    """Rooted binary switch tree with output labels 1..n.

    Output labels must be exactly 1..n with no repeats and coupler ids unique.
    coupler_ids lists the switches in pre-order (a switch before its
    subtrees), and hops[output - 1, k] is +1 when the path to output goes
    through switch coupler_ids[k], -1 when it crosses and 0 when it does not
    pass that switch.
    """

    def __init__(self, root: CouplerNode):
        self.root = root
        self._paths: dict[int, tuple[tuple[str, str], ...]] = {}
        self.coupler_ids: list[str] = []
        self._walk(root, ())
        labels = sorted(self._paths)
        if labels != list(range(1, len(labels) + 1)):
            raise ConfigError(
                f"output labels must be exactly 1..n, got {labels!r}"
            )
        if len(set(self.coupler_ids)) != len(self.coupler_ids):
            raise ConfigError(f"duplicate coupler ids in {self.coupler_ids!r}")
        column = {cid: k for k, cid in enumerate(self.coupler_ids)}
        self.hops = np.zeros((len(labels), len(self.coupler_ids)), dtype=np.int8)
        for output, path in self._paths.items():
            for cid, branch in path:
                self.hops[output - 1, column[cid]] = 1 if branch == "through" else -1

    def _walk(self, node: CouplerNode, prefix) -> None:
        if not isinstance(node, CouplerNode):
            raise ConfigError(f"malformed network node {node!r}")
        self.coupler_ids.append(node.coupler_id)
        for branch in ("through", "cross"):
            child = getattr(node, branch)
            path = prefix + ((node.coupler_id, branch),)
            if isinstance(child, CouplerNode):
                self._walk(child, path)
            elif isinstance(child, int) and not isinstance(child, bool):
                if child in self._paths:
                    raise ConfigError(f"output label {child} appears twice")
                self._paths[child] = path
            else:
                raise ConfigError(f"leaf must be an integer output label, got {child!r}")

    @property
    def n_outputs(self) -> int:
        return len(self._paths)

    def path_to(self, output: int) -> tuple[tuple[str, str], ...]:
        """(coupler_id, branch) hops from the root to an output."""
        try:
            return self._paths[output]
        except KeyError:
            raise ConfigError(f"no output labelled {output!r}") from None

    def to_dict(self) -> dict:
        """Canonical nested-dict form (used for config digests)."""
        return asdict(self.root)


def balanced_network(n_outputs: int) -> DemuxNetwork:
    """Balanced tree over a power-of-two output count, ids in breadth-first order.

    The root is sw1 and switch swi feeds sw(2i) from its through port and
    sw(2i+1) from its cross port, so the root's through subtree holds the
    lower half of the outputs; leaf switches put the odd output on the
    through port.
    """
    n_outputs = check_integer("n_outputs", n_outputs, 2, ConfigError)  # leaves are Python ints
    if n_outputs & (n_outputs - 1):
        raise ConfigError(f"balanced topology needs a power-of-two n >= 2, got {n_outputs!r}")

    def assemble(i: int, lo: int, hi: int):
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        return CouplerNode(
            coupler_id=f"sw{i}",
            through=assemble(2 * i, lo, mid),
            cross=assemble(2 * i + 1, mid, hi),
        )

    return DemuxNetwork(assemble(1, 1, n_outputs + 1))


def cascade_network(n_outputs: int) -> DemuxNetwork:
    """Chain layout: switch k taps output k off its through port."""
    n_outputs = check_integer("n_outputs", n_outputs, 2, ConfigError)  # leaves are Python ints

    def build(k: int):
        if k == n_outputs - 1:
            return CouplerNode(coupler_id=f"sw{k}", through=k, cross=k + 1)
        return CouplerNode(coupler_id=f"sw{k}", through=k, cross=build(k + 1))

    return DemuxNetwork(build(1))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def schedule_for_cycle(
    network: DemuxNetwork, targets: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Cyclic schedule: bin k, one pump pulse period, routes to output targets[k].

    The cycle repeats every len(targets) bins (default targets 1..n).  This is
    the one check of a schedule: at least one bin, and every target an integer
    (numpy integers count, bools do not) that labels an output.
    """
    targets = tuple(range(1, network.n_outputs + 1) if targets is None else targets)
    if not targets:
        raise ConfigError("a schedule needs at least one bin")
    targets = tuple(check_integer("schedule target", t, 1, ConfigError) for t in targets)
    for t in targets:
        network.path_to(t)  # raises on an output this network lacks
    return targets


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def _through_by_bin(network: DemuxNetwork, schedule: Sequence[int], table) -> np.ndarray:
    """through[b, k]: table's entry for switch coupler_ids[k] in its state in bin b.

    A switch is driven "on" when the path to schedule[b] takes its through
    branch and rests "off" (undriven, cross-favoring) on a cross hop or off it.
    """
    # every function that takes a schedule comes here, so any sequence of outputs will do
    schedule = schedule_for_cycle(network, schedule)
    through = np.empty((len(schedule), len(network.coupler_ids)))
    for b, target in enumerate(schedule):
        for k, cid in enumerate(network.coupler_ids):
            state = "on" if network.hops[target - 1, k] > 0 else "off"
            if state not in table.get(cid, {}):
                raise ConfigError(f"no splitting ratio for coupler {cid!r} state {state!r}")
            through[b, k] = table[cid][state]
    return through


def _path_products(hops: np.ndarray, through: np.ndarray):
    """Path products rows[b, o] and their derivatives grad[b, k, o] in through[b, k].

    grad is the hop sign times the product of the path's other factors, from
    running products before and after switch k: no factor is divided out, so
    a ratio of exactly 0 or 1 needs no special case.
    """
    # factors[b, k, o]: switch k's share of output o's path in bin b, exactly 1
    # off the path; pre-order puts every switch after its ancestors, so rows
    # multiply each path root to leaf, the order the pinned draw layout depends on
    f = through[:, :, None]
    factors = np.where(hops.T > 0, f, np.where(hops.T < 0, 1.0 - f, 1.0))
    before, after = np.ones_like(factors), np.ones_like(factors)
    np.cumprod(factors[:, :-1], axis=1, out=before[:, 1:])
    np.cumprod(factors[:, :0:-1], axis=1, out=after[:, -2::-1])
    return before[:, -1] * factors[:, -1], hops.T * before * after


def routing_by_bin(network: DemuxNetwork, schedule: Sequence[int], table: RatioTable) -> np.ndarray:
    """(period, n_outputs) matrix of routing probabilities, one row per bin.

    An output's probability is the product along its root-to-leaf path of
    each switch's through fraction, or its complement on a cross hop; table
    maps coupler_id and drive state to the through fraction.  Each row sums
    to 1: the tree redistributes but does not lose photons.
    """
    through = _through_by_bin(network, schedule, table)
    bad = ~((through >= 0.0) & (through <= 1.0))
    if bad.any():
        b, k = np.argwhere(bad)[0]
        raise DomainError(
            f"through fraction for {network.coupler_ids[k]!r} outside [0, 1]: "
            f"{float(through[b, k])!r}"
        )
    return _path_products(network.hops, through)[0]


def switching_efficiency(
    network: DemuxNetwork, schedule: Sequence[int], table: RatioTable
) -> float:
    """Cycle-averaged probability of routing each bin's photon to its target."""
    rows = routing_by_bin(network, schedule, table)
    return float(np.mean([rows[b, target - 1] for b, target in enumerate(schedule)]))


def channel_delay_bins(targets: Sequence[int], channels: Sequence[int]) -> tuple[int, ...]:
    """Per-channel alignment delay: the first bin in which the schedule targets it.

    targets is a schedule's per-bin target channels (from schedule_for_cycle
    or a stream's StreamMeta.schedule_targets).
    """
    delays = []
    for ch in channels:
        try:
            delays.append(targets.index(ch))
        except ValueError:
            raise ConfigError(
                f"channel {ch} is never targeted by the schedule {targets!r}"
            ) from None
    return tuple(delays)


def physical_nfold_scaling(
    network: DemuxNetwork,
    schedule: Sequence[int],
    table: RatioTable,
    channels: Sequence[int],
) -> float:
    """Cycle-rate n-fold scaling factor of the physical routing model.

    Probability, per pump pulse, that pulses offset by each channel's schedule
    delay all route to their respective channels, averaged over the cycle.
    Replaces the uniform-misroute closed form when the actual tree matters.
    """
    schedule = schedule_for_cycle(network, schedule)
    rows = routing_by_bin(network, schedule, table)
    delays = channel_delay_bins(schedule, channels)
    total = 0.0
    for b in range(len(schedule)):
        p = 1.0
        for ch, d in zip(channels, delays):
            p *= rows[(b + d) % len(schedule), ch - 1]
        total += p
    return total / len(schedule)
