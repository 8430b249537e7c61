"""Coupler transfer function, switch-tree topology, schedules, and routing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from demuxsim import (
    ConfigError,
    CouplerNode,
    CouplerParams,
    DemuxNetwork,
    DomainError,
    balanced_network,
    cascade_network,
    channel_delay_bins,
    cross_fraction,
    physical_nfold_scaling,
    routing_by_bin,
    schedule_for_cycle,
    switching_efficiency,
)
from demuxsim.couplers import SwitchSchedule, _path_products

from conftest import ETA_DM_TABLE, TABLE_RATIOS, fractions_with_ends, path_walk, small_trees

THREE_HALF_PI = 3.0 * math.pi / 2.0


def coupled_mode_cross(kappa: float, length: float, delta_beta: float) -> float:
    """Oracle: cross-port power from the coupled-mode transfer matrix.

    Propagates [a1, a2] through expm(i M L) with M = [[-d/2, k], [k, d/2]]
    and reads off |<2|U|1>|^2.
    """
    m = np.array([[-delta_beta / 2.0, kappa], [kappa, delta_beta / 2.0]])
    u = expm(1j * m * length)
    return float(abs(u[1, 0]) ** 2)


# ---------------------------------------------------------------------------
# single coupler
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_cross_fraction_matches_matrix_exponential(kappa, length, delta_beta):
    closed = cross_fraction(kappa, length, delta_beta)
    assert abs(closed - coupled_mode_cross(kappa, length, delta_beta)) < 1e-9


def test_full_cross_at_odd_multiple_of_coupling_length():
    assert cross_fraction(1.0, THREE_HALF_PI, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_cross_fraction_rejects_bad_geometry():
    with pytest.raises(DomainError):
        cross_fraction(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        cross_fraction(1.0, -1.0, 0.0)


def test_cross_fraction_decreases_along_search_branch():
    # first zero of the transfer function: g L = 2 pi with kappa L = 3 pi / 2
    db_zero = 2.0 * math.sqrt(7.0) / 3.0
    assert cross_fraction(1.0, THREE_HALF_PI, db_zero) == pytest.approx(0.0, abs=1e-12)
    grid = np.linspace(0.0, db_zero, 64)
    values = [cross_fraction(1.0, THREE_HALF_PI, db) for db in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_physical_coupler_states():
    # at three coupling lengths the undriven coupler fully crosses
    on_voltage = 2.0 * 1.0759089065150709  # detuning for half cross, at 0.5 per volt
    coupler = CouplerParams(
        kappa_per_mm=1.0,
        length_mm=THREE_HALF_PI,
        delta_beta_per_volt_per_mm=0.5,
        state_voltages={"off": 0.0, "on": on_voltage},
    )
    assert coupler.through_fraction("off") == pytest.approx(0.0, abs=1e-12)
    assert coupler.through_fraction("on") == pytest.approx(0.5, abs=1e-9)
    assert set(coupler.ratios()) == {"on", "off"}
    with pytest.raises(ConfigError):
        coupler.through_fraction("standby")


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_balanced_four_layout(net4):
    assert net4.n_outputs == 4
    assert net4.coupler_ids == ["sw1", "sw2", "sw3"]
    assert net4.path_to(1) == (("sw1", "through"), ("sw2", "through"))
    assert net4.path_to(2) == (("sw1", "through"), ("sw2", "cross"))
    assert net4.path_to(3) == (("sw1", "cross"), ("sw3", "through"))
    assert net4.path_to(4) == (("sw1", "cross"), ("sw3", "cross"))
    # +1 through, -1 cross, 0 off the path; columns follow coupler_ids
    np.testing.assert_array_equal(net4.hops, [[1, 1, 0], [1, -1, 0], [-1, 0, 1], [-1, 0, -1]])


def test_balanced_eight_has_seven_switches():
    net = balanced_network(8)
    assert net.n_outputs == 8
    # ids count down the levels: sw1 root, sw2/sw3 mid, sw4..sw7 leaves
    assert sorted(net.coupler_ids) == [f"sw{k}" for k in range(1, 8)]
    assert all(len(net.path_to(out)) == 3 for out in range(1, 9))
    assert net.path_to(5) == (("sw1", "cross"), ("sw3", "through"), ("sw6", "through"))


def test_balanced_rejects_non_power_of_two():
    for bad in (0, 1, 3, 6, 12):
        with pytest.raises(ConfigError):
            balanced_network(bad)


def test_cascade_four_layout():
    net = cascade_network(4)
    assert net.n_outputs == 4
    assert net.path_to(1) == (("sw1", "through"),)
    assert net.path_to(2) == (("sw1", "cross"), ("sw2", "through"))
    assert net.path_to(4) == (("sw1", "cross"), ("sw2", "cross"), ("sw3", "cross"))
    with pytest.raises(ConfigError):
        cascade_network(1)


def test_custom_network_validation():
    with pytest.raises(ConfigError):  # labels must be 1..n
        DemuxNetwork(CouplerNode("a", 1, 3))
    with pytest.raises(ConfigError):  # duplicate label
        DemuxNetwork(CouplerNode("a", CouplerNode("b", 1, 2), CouplerNode("c", 2, 3)))
    with pytest.raises(ConfigError):  # duplicate coupler id
        DemuxNetwork(CouplerNode("a", CouplerNode("a", 1, 2), 3))
    with pytest.raises(ConfigError):  # leaf must be an int
        DemuxNetwork(CouplerNode("a", 1, True))
    net = balanced_network(4)
    with pytest.raises(ConfigError):
        net.path_to(9)


def test_network_dict_round_trips_structure(net4):
    d = net4.to_dict()
    assert d["coupler_id"] == "sw1"
    assert d["through"]["through"] == 1
    assert d["cross"]["cross"] == 4


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_cyclic_schedule_states(net4, sched4):
    assert sched4.period == 4
    assert sched4.targets == (1, 2, 3, 4)
    assert sched4.bins[0] == {"sw1": "on", "sw2": "on", "sw3": "off"}
    assert sched4.bins[1] == {"sw1": "on", "sw2": "off", "sw3": "off"}
    assert sched4.bins[2] == {"sw1": "off", "sw2": "off", "sw3": "on"}
    assert sched4.bins[3] == {"sw1": "off", "sw2": "off", "sw3": "off"}


def test_schedule_subset_and_validation(net4):
    pair = schedule_for_cycle(net4, targets=(1, 2))
    assert pair.period == 2
    assert pair.targets == (1, 2)
    with pytest.raises(ConfigError):
        schedule_for_cycle(net4, targets=(1, 9))
    with pytest.raises(ConfigError):
        SwitchSchedule(bins=({"sw1": "on"},), targets=(1, 2))
    with pytest.raises(ConfigError):
        SwitchSchedule(
            bins=({"sw1": "on"}, {"sw2": "on"}), targets=(1, 2)
        )


@pytest.mark.parametrize("targets", [[1.7, 2.2, "3"], [1, 2.0], [True, 2], ["3"]])
def test_schedule_targets_must_be_integers(net4, targets):
    # [1.7, 2.2, "3"] used to become outputs (1, 2, 3)
    with pytest.raises(ConfigError):
        schedule_for_cycle(net4, targets=targets)
    bins = tuple({"sw1": "off", "sw2": "off", "sw3": "off"} for _ in targets)
    with pytest.raises(ConfigError, match="schedule targets must be integers"):
        SwitchSchedule(bins=bins, targets=tuple(targets))


def test_schedule_targets_accept_numpy_integers(net4):
    sched = schedule_for_cycle(net4, targets=np.array([3, 1], dtype=np.int64))
    assert sched.targets == (3, 1)
    assert all(type(t) is int for t in sched.targets)


def test_channel_delays_follow_target_order(net4):
    sched = schedule_for_cycle(net4, targets=(3, 1, 4, 2))
    assert channel_delay_bins(sched.targets, (1, 2, 3, 4)) == (1, 3, 0, 2)
    with pytest.raises(ConfigError):
        channel_delay_bins(sched.targets, (5,))


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def test_routing_rows_for_measured_table(net4, sched4, table):
    rows = routing_by_bin(net4, sched4, table)
    assert rows.shape == (4, 4)
    expected = np.array(
        [
            [0.8178, 0.0522, 0.0169, 0.1131],
            [0.1131, 0.7569, 0.0169, 0.1131],
            [0.0078, 0.0522, 0.8460, 0.0940],
            [0.0078, 0.0522, 0.1222, 0.8178],
        ]
    )
    np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-12)


ratio_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3
)


def one_bin(fractions: dict):
    """A one-bin schedule holding each coupler in a state "set" of the given fraction."""
    schedule = SwitchSchedule(bins=({cid: "set" for cid in fractions},), targets=(1,))
    return schedule, {cid: {"set": f} for cid, f in fractions.items()}


@given(ratio_lists)
def test_routing_conserves_probability(ratios):
    net = balanced_network(4)
    (probs,) = routing_by_bin(net, *one_bin({f"sw{k + 1}": r for k, r in enumerate(ratios)}))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs >= 0).all()


def test_routing_accepts_coupler_states(net4):
    schedule, table = one_bin({"sw1": 1.0, "sw2": 1.0, "sw3": 0.0})
    np.testing.assert_array_equal(routing_by_bin(net4, schedule, table), [[1.0, 0.0, 0.0, 0.0]])


def test_routing_requires_every_coupler(net4):
    with pytest.raises(ConfigError, match="no state given for coupler 'sw3'"):
        routing_by_bin(net4, *one_bin({"sw1": 0.9, "sw2": 0.9}))
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(DomainError, match="'sw1' outside"):
            routing_by_bin(net4, *one_bin({"sw1": bad, "sw2": 0.9, "sw3": 0.9}))
    with pytest.raises(ConfigError, match="no splitting ratio for coupler 'sw3' state 'off'"):
        routing_by_bin(
            balanced_network(4),
            schedule_for_cycle(balanced_network(4)),
            {"sw1": {"on": 0.9, "off": 0.1}, "sw2": {"on": 0.9, "off": 0.1}, "sw3": {"on": 0.9}},
        )


@st.composite
def routed_trees(draw):
    """A balanced, cascade or random custom tree, a three-state ratio table and a schedule."""
    kind = draw(st.sampled_from(["balanced", "cascade", "custom"]))
    if kind == "balanced":
        net = balanced_network(draw(st.sampled_from([2, 4, 8, 16])))
    elif kind == "cascade":
        net = cascade_network(draw(st.integers(2, 9)))
    else:
        ids = iter(range(100))

        def build(leaves):
            if len(leaves) == 1:
                return leaves[0]
            k = draw(st.integers(1, len(leaves) - 1))
            return CouplerNode(f"c{next(ids)}", build(leaves[:k]), build(leaves[k:]))

        net = DemuxNetwork(build(draw(st.permutations(range(1, draw(st.integers(2, 12)) + 1)))))
    states = ("on", "off", "mid")
    fraction = st.floats(min_value=0.0, max_value=1.0)
    table = {cid: {state: draw(fraction) for state in states} for cid in net.coupler_ids}
    targets = draw(st.lists(st.integers(1, net.n_outputs), min_size=1, max_size=10))
    if draw(st.booleans()):
        return net, schedule_for_cycle(net, targets), table
    bins = tuple({cid: draw(st.sampled_from(states)) for cid in net.coupler_ids} for _ in targets)
    return net, SwitchSchedule(bins=bins, targets=tuple(targets)), table


def path_walk_rows(net, schedule, table):
    """Oracle: each output's hop fractions multiplied from the root to its leaf."""
    rows = np.empty((schedule.period, net.n_outputs))
    for b, assignment in enumerate(schedule.bins):
        for output in range(1, net.n_outputs + 1):
            p = 1.0
            for cid, branch in net.path_to(output):
                f = table[cid][assignment[cid]]
                p *= f if branch == "through" else 1.0 - f
            rows[b, output - 1] = p
    return rows


@settings(max_examples=300, deadline=None)
@given(routed_trees())
def test_routing_is_the_exact_path_product(case):
    net, schedule, table = case
    rows = routing_by_bin(net, schedule, table)
    assert np.array_equal(rows, path_walk_rows(net, schedule, table))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@st.composite
def trees_with_fractions(draw):
    """A balanced or cascade tree of 2-16 outputs and through[b, k] for 1-4 bins."""
    net = draw(small_trees)
    size = draw(st.integers(1, 4)) * len(net.coupler_ids)
    values = draw(st.lists(fractions_with_ends, min_size=size, max_size=size))
    return net, np.reshape(values, (-1, len(net.coupler_ids)))


@settings(max_examples=150, deadline=None)
@given(trees_with_fractions())
def test_path_product_gradient_matches_central_difference(case):
    net, through = case
    rows, grad = _path_products(net.hops, through)
    assert np.array_equal(rows, path_walk(net, through))
    # rows[b] depends on through[b] only, so one step of column k gives grad[:, k]
    h = 1e-4
    for k in range(through.shape[1]):
        step = np.zeros_like(through)
        step[:, k] = h
        numeric = (path_walk(net, through + step) - path_walk(net, through - step)) / (2 * h)
        np.testing.assert_allclose(grad[:, k], numeric, rtol=1e-6, atol=1e-12)


def test_switching_efficiency_of_measured_table(net4, sched4, table):
    eta = switching_efficiency(net4, sched4, table)
    assert math.isclose(eta, ETA_DM_TABLE, rel_tol=0, abs_tol=1e-12)
    # mean of the four on-target routing probabilities
    assert math.isclose(eta, (0.8178 + 0.7569 + 0.8460 + 0.8178) / 4.0, abs_tol=1e-12)


def nfold_by_enumeration(network, schedule, table, channels) -> float:
    """Test-side re-derivation: average the per-cycle product of on-target hops."""
    rows = routing_by_bin(network, schedule, table)
    delays = [schedule.targets.index(ch) for ch in channels]
    acc = 0.0
    for start in range(schedule.period):
        term = 1.0
        for ch, d in zip(channels, delays):
            term *= rows[(start + d) % schedule.period][ch - 1]
        acc += term
    return acc / schedule.period


def test_physical_pair_scaling_full_cycle(net4, sched4, table):
    s = physical_nfold_scaling(net4, sched4, table, (1, 2))
    assert math.isclose(s, 0.15642773999999998, rel_tol=1e-12)
    assert math.isclose(s, nfold_by_enumeration(net4, sched4, table, (1, 2)), rel_tol=1e-12)


def test_physical_scaling_matched_period(net4, table):
    sched2 = schedule_for_cycle(net4, targets=(1, 2))
    s2 = physical_nfold_scaling(net4, sched2, table, (1, 2))
    assert math.isclose(s2, 0.31244832, rel_tol=1e-12)
    sched3 = schedule_for_cycle(net4, targets=(1, 2, 3))
    s3 = physical_nfold_scaling(net4, sched3, table, (1, 2, 3))
    assert math.isclose(s3, 0.17459152709400003, rel_tol=1e-12)
    for sched, chans in ((sched2, (1, 2)), (sched3, (1, 2, 3))):
        assert math.isclose(
            physical_nfold_scaling(net4, sched, table, chans),
            nfold_by_enumeration(net4, sched, table, chans),
            rel_tol=1e-12,
        )


@given(ratio_lists)
def test_full_cycle_single_channel_scaling_is_mean_occupancy(ratios):
    # with one channel the scaling factor is that channel's cycle-mean routing
    net = balanced_network(4)
    sched = schedule_for_cycle(net)
    table = {
        f"sw{k + 1}": {"on": r, "off": 1.0 - r} for k, r in enumerate(ratios)
    }
    rows = routing_by_bin(net, sched, table)
    s = physical_nfold_scaling(net, sched, table, (2,))
    assert math.isclose(s, float(rows[:, 1].mean()), rel_tol=0, abs_tol=1e-12)


def test_schedule_period_is_its_target_count():
    bins = tuple({"sw1": state} for state in ("on", "off", "on"))
    assert SwitchSchedule(bins=bins, targets=(2, 1, 2)).period == 3
    with pytest.raises(ConfigError, match="at least one bin"):
        SwitchSchedule(bins=(), targets=())
