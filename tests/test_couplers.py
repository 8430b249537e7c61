"""Coupler transfer function, switch-tree topology, schedules, and routing."""

import json
import math
import re
from dataclasses import replace

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
    estimate_splitting_ratios,
    eta_dm_from_ratios,
    pair_histograms,
    physical_nfold_scaling,
    routing_by_bin,
    schedule_for_cycle,
    simulate,
    switching_efficiency,
)
from demuxsim.couplers import _path_products, _through_by_bin

from conftest import (
    ETA_DM_TABLE,
    TABLE_RATIOS,
    drive_states,
    fractions_with_ends,
    make_bright_sim,
    path_walk,
    small_trees,
)

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
    # cross_fraction(nan, 1, 0) used to return nan, and an infinite length
    # raised a bare ValueError from math.sin
    with pytest.raises(DomainError, match="kappa_per_mm must be finite and > 0, got nan"):
        cross_fraction(math.nan, 1.0, 0.0)
    with pytest.raises(DomainError, match="length_mm must be finite and > 0, got inf"):
        cross_fraction(1.0, math.inf, 0.0)


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


@pytest.mark.parametrize("build", [balanced_network, cascade_network])
def test_topologies_take_integer_output_counts(build):
    # balanced_network(np.int64(4)) used to fail with "leaf must be an integer
    # output label, got np.int64(2)"
    net = build(np.int64(4))
    assert net.n_outputs == 4
    assert json.dumps(net.to_dict()) == json.dumps(build(4).to_dict())
    for bad in (4.0, True, "4"):
        with pytest.raises(ConfigError, match=f"n_outputs must be an integer >= 2, got {bad!r}"):
            build(bad)


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
    assert sched4 == (1, 2, 3, 4)
    # a table of on = 1 and off = 0 reads back each switch's state, sw1..sw3 by bin
    on = {cid: {"on": 1.0, "off": 0.0} for cid in net4.coupler_ids}
    np.testing.assert_array_equal(
        _through_by_bin(net4, sched4, on), [[1, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 0]]
    )


def test_schedule_subset_and_validation(net4):
    assert schedule_for_cycle(net4, targets=(1, 2)) == (1, 2)
    with pytest.raises(ConfigError):
        schedule_for_cycle(net4, targets=(1, 9))
    # a schedule built without the network is checked when it routes, not wrapped to output 4
    for missing, message in ((0, "must be an integer >= 1, got 0"), (5, "no output labelled 5")):
        with pytest.raises(ConfigError, match=message):
            routing_by_bin(net4, (1, missing), TABLE_RATIOS)


@pytest.mark.parametrize("targets", [[1.7, 2.2, "3"], [1, 2.0], [True, 2], ["3"]])
def test_schedule_targets_must_be_integers(net4, targets):
    # [1.7, 2.2, "3"] used to become outputs (1, 2, 3)
    bad = re.escape(repr(next(t for t in targets if type(t) is not int)))
    with pytest.raises(ConfigError, match=f"schedule target must be an integer >= 1, got {bad}"):
        schedule_for_cycle(net4, targets=targets)


def test_schedule_targets_accept_numpy_integers(net4):
    sched = schedule_for_cycle(net4, targets=np.array([3, 1], dtype=np.int64))
    assert sched == (3, 1)
    assert all(type(t) is int for t in sched)


def test_channel_delays_follow_target_order(net4):
    sched = schedule_for_cycle(net4, targets=(3, 1, 4, 2))
    assert channel_delay_bins(sched, (1, 2, 3, 4)) == (1, 3, 0, 2)
    with pytest.raises(ConfigError):
        channel_delay_bins(sched, (5,))


PERMUTED = (3, 1, 4, 2)


@pytest.mark.parametrize(
    "targets, valid",
    [
        (list(PERMUTED), True),
        (PERMUTED, True),
        (np.array(PERMUTED), True),
        ((1.0, 2), False),
        ((True, 2), False),
        ((), False),
        ((1, 5), False),
    ],
    ids=["list", "tuple", "array", "float", "bool", "empty", "unknown-output"],
)
def test_every_schedule_taker_checks_it_in_schedule_for_cycle(net4, targets, valid):
    # routing_by_bin and the rest used to read a wrapper's .period and .targets,
    # so a list or an array of outputs ended in an AttributeError
    base = make_bright_sim(brightness=0.5, pulses=20_000, seed=4, targets=PERMUTED)
    stream = simulate(base)
    hists = pair_histograms(stream, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 8)
    fit = estimate_splitting_ratios(hists, net4, PERMUTED)
    takers = {
        "routing_by_bin": lambda s: routing_by_bin(net4, s, TABLE_RATIOS).tolist(),
        "switching_efficiency": lambda s: switching_efficiency(net4, s, TABLE_RATIOS),
        "physical_nfold_scaling": lambda s: physical_nfold_scaling(net4, s, TABLE_RATIOS, (1, 2)),
        "estimate_splitting_ratios": lambda s: estimate_splitting_ratios(hists, net4, s).to_dict(),
        "eta_dm_from_ratios": lambda s: eta_dm_from_ratios(fit, net4, s),
        "SimConfig": lambda s: replace(base, schedule=s).stream_meta(),
    }
    if valid:
        for name, take in takers.items():
            assert take(targets) == take(PERMUTED), name
        assert simulate(replace(base, schedule=targets)) == stream
        return
    for name, take in takers.items():
        with pytest.raises(ConfigError):
            take(targets)


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


def one_bin(net, fractions: dict):
    """A one-bin schedule and a table giving each coupler its fraction both on and off."""
    table = {cid: {"on": f, "off": f} for cid, f in fractions.items()}
    return schedule_for_cycle(net, (1,)), table


@given(ratio_lists)
def test_routing_conserves_probability(ratios):
    net = balanced_network(4)
    (probs,) = routing_by_bin(net, *one_bin(net, {f"sw{k + 1}": r for k, r in enumerate(ratios)}))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs >= 0).all()


def test_routing_accepts_coupler_states(net4):
    schedule, table = one_bin(net4, {"sw1": 1.0, "sw2": 1.0, "sw3": 0.0})
    np.testing.assert_array_equal(routing_by_bin(net4, schedule, table), [[1.0, 0.0, 0.0, 0.0]])


def test_routing_requires_every_coupler(net4):
    with pytest.raises(ConfigError, match="no splitting ratio for coupler 'sw3' state 'off'"):
        routing_by_bin(net4, *one_bin(net4, {"sw1": 0.9, "sw2": 0.9}))
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(DomainError, match="'sw1' outside"):
            routing_by_bin(net4, *one_bin(net4, {"sw1": bad, "sw2": 0.9, "sw3": 0.9}))
    with pytest.raises(ConfigError, match="no splitting ratio for coupler 'sw3' state 'off'"):
        routing_by_bin(
            balanced_network(4),
            schedule_for_cycle(balanced_network(4)),
            {"sw1": {"on": 0.9, "off": 0.1}, "sw2": {"on": 0.9, "off": 0.1}, "sw3": {"on": 0.9}},
        )


@st.composite
def routed_trees(draw):
    """A balanced, cascade or random custom tree, an on/off ratio table and a schedule."""
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
    fraction = st.floats(min_value=0.0, max_value=1.0)
    table = {cid: {state: draw(fraction) for state in ("on", "off")} for cid in net.coupler_ids}
    targets = draw(st.lists(st.integers(1, net.n_outputs), min_size=1, max_size=10))
    return net, schedule_for_cycle(net, targets), table


def path_walk_rows(net, schedule, table):
    """Oracle: each output's hop fractions multiplied from the root to its leaf."""
    rows = np.empty((len(schedule), net.n_outputs))
    for b, target in enumerate(schedule):
        assignment = drive_states(net, target)
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
    delays = [schedule.index(ch) for ch in channels]
    acc = 0.0
    for start in range(len(schedule)):
        term = 1.0
        for ch, d in zip(channels, delays):
            term *= rows[(start + d) % len(schedule)][ch - 1]
        acc += term
    return acc / len(schedule)


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


def test_schedule_period_is_its_target_count(net4):
    assert len(schedule_for_cycle(net4, (2, 1, 2))) == 3
    with pytest.raises(ConfigError, match="at least one bin"):
        schedule_for_cycle(net4, ())
