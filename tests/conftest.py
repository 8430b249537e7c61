"""Shared builders for the measured 1x4 device used across the tests."""

import numpy as np
import pytest
from hypothesis import strategies as st

from demuxsim import (
    EmitterParams,
    LossBudget,
    SimConfig,
    balanced_network,
    cascade_network,
    schedule_for_cycle,
)

# measured through-port fractions of the three switches, driven / at rest
TABLE_RATIOS = {
    "sw1": {"on": 0.87, "off": 0.06},
    "sw2": {"on": 0.94, "off": 0.13},
    "sw3": {"on": 0.90, "off": 0.13},
}

# average per-bin probability of routing to the scheduled output, from the
# ratios above over the cyclic 4-channel schedule (exact to rounding)
ETA_DM_TABLE = 0.809625


@pytest.fixture
def net4():
    return balanced_network(4)


@pytest.fixture
def sched4(net4):
    return schedule_for_cycle(net4)


@pytest.fixture
def table():
    return {cid: dict(states) for cid, states in TABLE_RATIOS.items()}


def make_device_budget() -> LossBudget:
    """Itemized loss budget of the measured chip (total about 0.2975)."""
    return LossBudget(
        mode_overlap=0.85,
        fresnel_in=0.14,
        fresnel_out=0.14,
        propagation_db_per_cm=0.65,
        device_length_cm=5.0,
    )


def make_bright_sim(
    *,
    brightness: float,
    pulses: int,
    seed: int,
    targets=None,
    g2_zero: float = 0.0,
    network=None,
) -> SimConfig:
    """Lossless simulation config: detection probability equals brightness."""
    network = network if network is not None else balanced_network(4)
    emitter = EmitterParams(
        pump_rate_hz=80e6,
        saturation_power_uw=1.0,
        max_brightness=brightness,
        g2_zero=g2_zero,
    )
    return SimConfig(
        emitter=emitter,
        network=network,
        schedule=schedule_for_cycle(network, targets=targets),
        couplers={cid: dict(states) for cid, states in TABLE_RATIOS.items()},
        budget=LossBudget(),
        eta_det=1.0,
        pump_power_uw=1e6,  # far past saturation: brightness is max_brightness
        rng_seed=seed,
        pulse_count=pulses,
    )


# balanced and cascade trees of 2-16 outputs
small_trees = st.one_of(
    st.sampled_from([2, 4, 8, 16]).map(balanced_network), st.integers(2, 16).map(cascade_network)
)

# through fractions that include the ends, where a path factor is exactly 0
fractions_with_ends = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


def path_walk(network, through) -> np.ndarray:
    """Oracle: rows[b, o], output o + 1's hop fractions multiplied from the root to its leaf.

    through[b, k] is switch network.coupler_ids[k]'s through fraction in bin b.
    Nothing checks its range, so central differences may step past 0 and 1.
    """
    column = {cid: k for k, cid in enumerate(network.coupler_ids)}
    rows = np.ones((len(through), network.n_outputs))
    for b, fractions in enumerate(through):
        for o in range(network.n_outputs):
            for cid, branch in network.path_to(o + 1):
                f = fractions[column[cid]]
                rows[b, o] *= f if branch == "through" else 1.0 - f
    return rows
