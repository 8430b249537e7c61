"""Monte Carlo simulator: reproducibility, statistics, and stream structure."""

import hashlib
import importlib
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Philox, SeedSequence

from demuxsim import (
    ConfigError,
    DataError,
    DomainError,
    EmitterParams,
    LossBudget,
    SimConfig,
    balanced_network,
    cascade_network,
    load_config,
    read_stream,
    routing_by_bin,
    schedule_for_cycle,
    second_photon_probability,
    sidecar_path,
    simulate,
    write_stream,
)

from demuxsim.simulate import BLOCK_PULSES, _CHUNK_ROWS, _raw_below, _raw_edges

from conftest import (
    TABLE_RATIOS,
    columns,
    make_bright_sim,
    make_device_budget,
    same_stream,
    small_trees,
)


# ---------------------------------------------------------------------------
# second photon model
# ---------------------------------------------------------------------------

def test_second_photon_probability_known_value():
    assert math.isclose(
        second_photon_probability(0.5, 0.029), 0.007468195102167119, rel_tol=1e-12
    )
    assert second_photon_probability(0.5, 0.0) == 0.0
    assert second_photon_probability(0.0, 0.2) == 0.0


@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.001, max_value=0.49),
)
def test_second_photon_probability_reproduces_g2(p1, g2):
    p2 = second_photon_probability(p1, g2)
    assert 0.0 < p2 < p1
    # pulsed zero-delay correlation of the two-photon model
    assert math.isclose(2.0 * p1 * p2 / (p1 + p2) ** 2, g2, rel_tol=1e-9)


def test_second_photon_probability_domain():
    with pytest.raises(ConfigError):
        second_photon_probability(0.5, 0.5)
    with pytest.raises(DomainError):
        second_photon_probability(0.5, 1.0)
    with pytest.raises(DomainError):
        second_photon_probability(0.5, -0.1)
    # a NaN emission probability used to come out as a NaN second-photon one
    with pytest.raises(DomainError, match=r"p1 must lie in \[0, 1\], got nan"):
        second_photon_probability(math.nan, 0.1)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_sim_config_refuses_unset_and_out_of_range_values():
    base = make_bright_sim(brightness=0.1, pulses=100, seed=1)
    with pytest.raises(ConfigError):
        replace(base, pulse_count=None)
    with pytest.raises(ConfigError):
        replace(base, rng_seed=None)
    with pytest.raises(DomainError):
        replace(base, eta_det=1.5)
    with pytest.raises(DomainError):
        replace(base, pump_power_uw=-1.0)


@pytest.mark.parametrize("power", [math.nan, math.inf])
def test_sim_config_refuses_a_non_finite_pump_power(power):
    # NaN used to build, and simulate then died in math.ceil with a bare ValueError
    base = make_bright_sim(brightness=0.1, pulses=100, seed=1)
    with pytest.raises(DomainError, match="pump_power_uw must be finite"):
        replace(base, pump_power_uw=power)


@pytest.mark.parametrize("count", [2.5, 2.0, True, "10", -1])
def test_pulse_count_must_be_an_integer(count):
    # 2.5 used to simulate 2 pulses and True 1, both without an error
    base = make_bright_sim(brightness=0.1, pulses=100, seed=1)
    with pytest.raises(ConfigError, match="pulse_count must be an integer >= 0"):
        replace(base, pulse_count=count)
    assert replace(base, pulse_count=np.int64(7)).resolved_pulse_count() == 7


def test_emission_probability_follows_saturation():
    emitter = EmitterParams(
        pump_rate_hz=80e6, saturation_power_uw=348.0, max_brightness=0.030062
    )
    cfg = SimConfig(
        emitter=emitter,
        network=balanced_network(4),
        schedule=schedule_for_cycle(balanced_network(4)),
        couplers={cid: dict(s) for cid, s in TABLE_RATIOS.items()},
        budget=make_device_budget(),
        eta_det=0.30,
        pump_power_uw=660.0,
        rng_seed=5,
        pulse_count=10,
    )
    assert math.isclose(cfg.emission_probability(), 0.02555013681359913, rel_tol=1e-12)
    assert cfg.pulse_period_ps() == 12500
    assert math.isclose(cfg.transmission(), 0.2974512704587243, rel_tol=1e-12)


def test_device_digest_covers_device_not_run():
    base = make_bright_sim(brightness=0.2, pulses=1000, seed=3)
    assert base.device_digest() == replace(base, rng_seed=99).device_digest()
    assert base.device_digest() == replace(base, pulse_count=5).device_digest()
    resched = replace(
        base, schedule=schedule_for_cycle(balanced_network(4), targets=(2, 1, 4, 3))
    )
    assert base.device_digest() == resched.device_digest()
    assert base.device_digest() != replace(base, eta_det=0.5).device_digest()
    retabled = replace(
        base, couplers={**{cid: dict(s) for cid, s in TABLE_RATIOS.items()}, "sw1": {"on": 0.5, "off": 0.5}}
    )
    assert base.device_digest() != retabled.device_digest()


@pytest.mark.parametrize("seed", [-1, True, 2.5, "3"])
def test_seed_must_be_a_non_negative_integer(seed):
    # a negative seed used to fail in numpy's SeedSequence with a ValueError
    with pytest.raises(ConfigError, match="rng_seed"):
        replace(make_bright_sim(brightness=0.3, pulses=100, seed=1), rng_seed=seed)


def test_numpy_integer_seeds_draw_as_python_integers():
    cfg = make_bright_sim(brightness=0.3, pulses=5000, seed=11)
    assert same_stream(simulate(replace(cfg, rng_seed=np.int64(11))), simulate(cfg))
    zero = simulate(replace(cfg, rng_seed=0))
    assert same_stream(simulate(replace(cfg, rng_seed=np.uint32(0))), zero)


def test_device_digest_covers_every_emitter_and_budget_field():
    base = replace(make_bright_sim(brightness=0.2, pulses=10, seed=3), budget=make_device_budget())
    for section in ("emitter", "budget"):
        part = getattr(base, section)
        for field in fields(part):
            changed = replace(part, **{field.name: getattr(part, field.name) * 0.5 + 0.25})
            assert replace(base, **{section: changed}).device_digest() != base.device_digest()


def test_device_digest_and_sidecar_are_pinned(tmp_path):
    # computed before the digest and sidecar were written from their dataclasses
    rc = load_config("configs/device.yaml")
    config = rc.sim_config(pulses=100_000, seed=3)
    assert config.device_digest() == (
        "8fbf2fa6cabfdef1ff6c9c11903845cc20647bd4233353088515c5e4b39c1f73"
    )
    path = tmp_path / "run.tags"
    write_stream(simulate(config), path)
    assert sidecar_path(path).read_text() == (
        '{\n  "config_digest": "8fbf2fa6cabfdef1ff6c9c11903845cc20647bd4233353088515c5e4b39c1f73",\n'
        '  "format": "ttag-columnar",\n  "format_version": 2,\n  "n_channels": 4,\n'
        '  "n_records": 239,\n  "pulse_count": 100000,\n  "pulse_period_ps": 12500,\n'
        '  "pump_rate_hz": 80000000.0,\n'
        '  "schedule_targets": [\n    1,\n    2,\n    3,\n    4\n  ]\n}\n'
    )


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeated_runs_are_identical():
    cfg = make_bright_sim(brightness=0.3, pulses=50_000, seed=123)
    assert same_stream(simulate(cfg), simulate(cfg))
    assert not same_stream(simulate(cfg), simulate(replace(cfg, rng_seed=124)))


# every shard cut falls at a pulse count, so a cut on a draw-chunk or block
# boundary, or one row either side of a chunk boundary, tests the piece slicing
ROW_CUT = BLOCK_PULSES + _CHUNK_ROWS  # a chunk boundary inside block 1


@pytest.mark.parametrize(
    "shards, pulses",
    [
        *(pytest.param(shards, 200_001, id=str(shards)) for shards in (2, 3, 7)),
        pytest.param(2, 2 * ROW_CUT, id="cut-on-chunk-edge"),
        pytest.param(2, 2 * (ROW_CUT - 1), id="cut-a-row-before-chunk-edge"),
        pytest.param(2, 2 * (ROW_CUT + 1), id="cut-a-row-after-chunk-edge"),
        pytest.param(3, 3 * BLOCK_PULSES, id="cuts-on-block-edges"),
    ],
)
def test_sharding_reproduces_single_shot(shards, pulses):
    cfg = make_bright_sim(brightness=0.3, pulses=pulses, seed=77)
    assert same_stream(simulate(cfg, shards=shards), simulate(cfg))


def _layout_probe() -> SimConfig:
    """Lossy 8-output run over 3.2 blocks with frequent two-photon pulses."""
    net = balanced_network(8)
    cfg = make_bright_sim(
        brightness=0.5,
        pulses=3 * (1 << 16) + 12_345,
        seed=2016,
        g2_zero=0.4,
        network=net,
        targets=(1, 2, 3, 4, 5, 6, 7, 8, 4, 1),
    )
    couplers = {
        cid: {"on": 0.9 - 0.01 * i, "off": 0.05 + 0.01 * i}
        for i, cid in enumerate(sorted(net.coupler_ids))
    }
    return replace(
        cfg, couplers=couplers, budget=LossBudget.from_transmission(0.6), eta_det=0.7
    )


def test_draw_layout_is_pinned():
    # digests of draw layout 1; shard edges fall mid-block
    stream = simulate(_layout_probe(), shards=3)
    channels, stamps, _ = columns(stream)
    assert len(stream) == 58_500
    assert hashlib.sha256(channels.tobytes()).hexdigest() == (
        "4a8f853dde9ddec4ec4ba3e5a6c6d2f57d4fbed02e6d0ae4e6497fde77190e93"
    )
    assert hashlib.sha256(stamps.tobytes()).hexdigest() == (
        "9dd644e34fc4cfc9cc959dbeb43d484c7812c192c5373f0c54df543f02e36515"
    )


@pytest.mark.parametrize("workers", [1, 3])
def test_output_does_not_depend_on_worker_count(monkeypatch, workers):
    module = importlib.import_module("demuxsim.simulate")
    cfg = _layout_probe()
    reference = simulate(cfg)
    monkeypatch.setattr(module, "_WORKERS", workers)
    assert same_stream(simulate(cfg), reference)
    assert same_stream(simulate(cfg, shards=2), reference)
    # a run inside one block is one piece: its records are the long run's first ones
    short = columns(simulate(replace(cfg, pulse_count=BLOCK_PULSES // 3)))
    channels, stamps, pulses = columns(reference)
    head = pulses < BLOCK_PULSES // 3
    assert np.array_equal(short[0], channels[head])
    assert np.array_equal(short[1], stamps[head])


def test_shard_count_validated():
    cfg = make_bright_sim(brightness=0.3, pulses=10, seed=77)
    with pytest.raises(ConfigError):
        simulate(cfg, shards=0)
    # 2.5 shards used to raise a bare TypeError from np.linspace
    with pytest.raises(ConfigError, match="shards must be an integer >= 1, got 2.5"):
        simulate(cfg, shards=2.5)
    assert same_stream(simulate(cfg, shards=np.int64(2)), simulate(cfg))


def test_numpy_run_counts_are_stored_as_ints():
    cfg = replace(
        make_bright_sim(brightness=0.3, pulses=10, seed=77),
        pulse_count=np.int64(10),
        rng_seed=np.uint32(77),
    )
    assert (type(cfg.pulse_count), type(cfg.rng_seed)) == (int, int)
    assert cfg.pulse_count == 10 and cfg.rng_seed == 77


def test_draws_do_not_depend_on_routing():
    # emission and survival are drawn per pulse, so total detections match
    # across schedules for a photon-number-resolving-free single-photon stream
    counts = []
    for targets in ((1, 2, 3, 4), (4, 3, 2, 1), (1, 3)):
        cfg = make_bright_sim(brightness=0.25, pulses=120_000, seed=2024, targets=targets)
        counts.append(len(simulate(cfg)))
    assert counts[0] == counts[1] == counts[2]


def test_a_run_its_sidecar_cannot_hold_is_refused_before_any_draw(monkeypatch):
    # 1e7 pulses 1e12 ps apart overflow int64 timestamps; every block used to be drawn first
    def no_draws(*args, **kwargs):
        raise AssertionError("simulate drew pulses for a run it refuses")

    monkeypatch.setattr(importlib.import_module("demuxsim.simulate"), "Philox", no_draws)
    cfg = make_bright_sim(brightness=0.3, pulses=10_000_000, seed=1)
    cfg = replace(cfg, emitter=replace(cfg.emitter, pump_rate_hz=1.0))
    with pytest.raises(DataError, match="must fit in int64"):
        simulate(cfg)


def test_empty_run():
    cfg = make_bright_sim(brightness=0.3, pulses=0, seed=1)
    stream = simulate(cfg)
    assert len(stream) == 0
    assert same_stream(simulate(cfg, shards=4), stream)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_total_detections_within_binomial_band():
    n, b = 200_000, 0.3
    stream = simulate(make_bright_sim(brightness=b, pulses=n, seed=42))
    expected = n * b
    sigma = math.sqrt(n * b * (1 - b))
    assert abs(len(stream) - expected) < 4 * sigma


def test_lossy_run_thins_detections():
    n, b = 200_000, 0.5
    cfg = make_bright_sim(brightness=b, pulses=n, seed=43)
    lossy = replace(cfg, budget=LossBudget.from_transmission(0.4), eta_det=0.5)
    stream = simulate(lossy)
    p = b * 0.4 * 0.5
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(len(stream) - n * p) < 4 * sigma


def test_per_bin_channel_distribution_matches_routing():
    cfg = make_bright_sim(brightness=0.5, pulses=400_000, seed=99)
    stream = simulate(cfg)
    rows = routing_by_bin(cfg.network, cfg.schedule, cfg.couplers)
    channels, _, pulses = columns(stream)
    bins = pulses % len(cfg.schedule)
    for b in range(len(cfg.schedule)):
        chans = channels[bins == b]
        m = len(chans)
        for ch in range(1, 5):
            frac = float(np.mean(chans == ch))
            p = rows[b, ch - 1]
            sigma = math.sqrt(p * (1 - p) / m)
            assert abs(frac - p) < 4.5 * sigma, (b, ch, frac, p)


def test_two_photon_pulses_appear_at_expected_rate():
    n, b, g2 = 100_000, 0.5, 0.4
    cfg = make_bright_sim(brightness=b, pulses=n, seed=1234, g2_zero=g2)
    stream = simulate(cfg)
    p2 = second_photon_probability(b, g2)
    rows = routing_by_bin(cfg.network, cfg.schedule, cfg.couplers)
    # a pair is visible only when the two photons take different channels
    p_split = float(np.mean([1.0 - np.sum(rows[k] ** 2) for k in range(4)]))
    expected = n * b * p2 * p_split
    _, per_pulse = np.unique(columns(stream)[2], return_counts=True)
    pairs = int(np.sum(per_pulse == 2))
    assert per_pulse.max() <= 2
    assert abs(pairs - expected) < 5 * math.sqrt(expected)


def test_no_duplicate_pulse_channel_records():
    cfg = make_bright_sim(brightness=0.5, pulses=100_000, seed=555, g2_zero=0.4)
    stream = simulate(cfg)
    channels, _, pulses = columns(stream)
    keys = pulses * 8 + channels.astype(np.int64)
    assert len(np.unique(keys)) == len(stream)


# ---------------------------------------------------------------------------
# stream structure
# ---------------------------------------------------------------------------

def test_timestamps_sit_on_the_pulse_grid():
    cfg = make_bright_sim(brightness=0.3, pulses=10_000, seed=8)
    stream = simulate(cfg)
    _, stamps, pulses = columns(stream)
    assert stream.meta.pulse_period_ps == 12500
    assert np.all(stamps % 12500 == 0)
    assert pulses.max() < 10_000
    meta = stream.meta
    assert meta.pulse_count == 10_000
    assert meta.n_channels == 4
    assert meta.schedule_targets == (1, 2, 3, 4)
    assert meta.config_digest == cfg.device_digest()


# ---------------------------------------------------------------------------
# raw draws and compact blocks
# ---------------------------------------------------------------------------

def uniform(raw: int) -> float:
    """The uniform Generator.random makes of a raw draw: its top 53 bits over 2**53."""
    return float(raw >> 11) * 2.0**-53


PROBABILITIES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]),
)


@given(
    p=PROBABILITIES,
    edge=st.one_of(PROBABILITIES, st.floats(min_value=1.0, max_value=4.0)),
    raw=st.integers(min_value=0, max_value=2**64 - 1),
    near=st.sampled_from([None, -2, -1, 0, 1, 2]),
)
@example(p=1.0, edge=1.0, raw=2**64 - 1, near=None)
@example(p=0.0, edge=0.0, raw=0, near=None)
def test_raw_thresholds_decide_as_the_uniforms_do(p, edge, raw, near):
    for cut in (p, edge):
        low = raw
        if near is not None:  # top bits next to ceil(cut * 2**53), the exact boundary
            top = min(max(math.ceil(cut * 2.0**53) + near, 0), 2**53 - 1)
            low = top << 11 | raw & 0x7FF
        draws = np.array([low], np.uint64)
        # emission and survival: raw < limit, every raw when there is no limit
        limit = _raw_below(cut)
        below = draws < limit if limit is not None else np.ones(1, bool)
        assert bool(below[0]) == (uniform(low) < cut)
        # routing: the shifted draw against the edge table
        passed = (draws >> np.uint64(11)) >= _raw_edges(np.array([cut]))
        assert bool(passed[0]) == (uniform(low) >= cut)


def test_outputs_past_256_keep_their_channel(tmp_path):
    # perfect couplers send bin 0 to output 300 and bin 1 to output 512
    net = balanced_network(512)
    cfg = replace(
        make_bright_sim(brightness=0.5, pulses=20_000, seed=9, network=net, targets=(300, 512)),
        couplers={cid: {"on": 1.0, "off": 0.0} for cid in net.coupler_ids},
    )
    path = tmp_path / "wide.tags"
    write_stream(simulate(cfg), path)
    stream = read_stream(path)
    assert len(stream) > 9_000
    channels, _, pulses = columns(stream)
    assert np.array_equal(channels, np.where(pulses % 2, 512, 300))


def test_simulated_blocks_hold_three_bytes_a_record():
    # the blocks used to hold u32 channels and u64 timestamps, 12 bytes a record
    cfg = make_bright_sim(brightness=0.9, pulses=400_000, seed=5, g2_zero=0.3)
    tracemalloc.start()
    try:
        stream = simulate(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stream) > 350_000
    assert held < 3 * len(stream) + (1 << 15)


def test_block_assembly_keeps_a_narrow_working_set(monkeypatch):
    # keys, schedule bins and offsets are 32 bits or narrower
    monkeypatch.setattr(importlib.import_module("demuxsim.simulate"), "_WORKERS", 1)
    cfg = make_bright_sim(brightness=1.0, pulses=2 * BLOCK_PULSES, seed=5)
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_550 << 10  # 2,127 KiB measured, plus 20%


# ---------------------------------------------------------------------------
# a reference for draw layout 1 on float uniforms
# ---------------------------------------------------------------------------

def reference_records(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the (channels, pulse indices) of draw layout 1, decided on float uniforms.

    Block b reads the rows of Philox(SeedSequence((seed, b))).random_raw((BLOCK_PULSES, 6)),
    row r for pulse b * BLOCK_PULSES + r, as the uniforms (raw >> 11) * 2**-53.  Columns
    0, 1, 2 are the primary photon's emission, route and survival uniforms, and 3, 4, 5
    the second photon's.  A photon that is emitted and survives takes output 1 + the
    number of its bin's cumulative routing probabilities (all but the last) at or below
    its route uniform, and two photons on one output in one pulse are one click.
    """
    p1 = cfg.emission_probability()
    chances = ((0, p1), (3, second_photon_probability(p1, cfg.emitter.g2_zero)))
    survive = cfg.transmission() * cfg.eta_det
    cum = np.cumsum(routing_by_bin(cfg.network, cfg.schedule, cfg.couplers), axis=1)
    n = cfg.network.n_outputs
    clicks = [np.empty(0, np.int64)]
    for block in range(-(-cfg.pulse_count // BLOCK_PULSES)):
        raw = Philox(SeedSequence((cfg.rng_seed, block))).random_raw((BLOCK_PULSES, 6))
        u = (raw >> np.uint64(11)).astype(float) * 2.0**-53
        pulses = block * BLOCK_PULSES + np.arange(BLOCK_PULSES)
        bins = pulses % len(cfg.schedule)
        for col, p in chances:
            hit = (u[:, col] < p) & (u[:, col + 2] < survive) & (pulses < cfg.pulse_count)
            for b, row in enumerate(cum):
                at = np.flatnonzero(hit & (bins == b))
                channel = np.searchsorted(row[:-1], u[at, col + 1], side="right")
                clicks.append(pulses[at] * n + channel)
    key = np.unique(np.concatenate(clicks))  # one click per (pulse, output)
    return key % n + 1, key // n


@settings(max_examples=60, deadline=None)
@given(
    network=st.one_of(small_trees, st.sampled_from([256, 257, 300]).map(cascade_network)),
    targets=st.lists(st.integers(1, 300), min_size=1, max_size=9),
    ratio_seed=st.integers(0, 2**32 - 1),
    perfect=st.booleans(),
    brightness=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.5, 1.0])),
    g2=st.one_of(st.just(0.0), st.floats(0.0, 0.45)),
    loss=st.one_of(st.just((1.0, 1.0)), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
    pulses=st.one_of(st.integers(0, 2 * BLOCK_PULSES), st.integers(BLOCK_PULSES, 2 * BLOCK_PULSES)),
    shards=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    network=balanced_network(4), targets=[1, 2, 3, 4], ratio_seed=0, perfect=False,
    brightness=1.0, g2=0.0, loss=(1.0, 1.0), pulses=2 * BLOCK_PULSES, shards=3, seed=3,
)
@example(
    network=cascade_network(300), targets=[300, 1, 257, 2], ratio_seed=1, perfect=False,
    brightness=1.0, g2=0.3, loss=(0.8, 0.9), pulses=BLOCK_PULSES + 77, shards=2, seed=29,
)
def test_simulate_matches_the_reference(
    network, targets, ratio_seed, perfect, brightness, g2, loss, pulses, shards, seed
):
    # u8 channels up to 256 outputs and u16 past them; shard cuts fall inside blocks
    rng = np.random.default_rng(ratio_seed)
    shape = (len(network.coupler_ids), 2)  # (on, off) per switch, 0 and 1 alone when perfect
    fractions = rng.integers(0, 2, shape).astype(float) if perfect else rng.uniform(size=shape)
    cfg = replace(
        make_bright_sim(
            brightness=brightness,
            pulses=pulses,
            seed=seed,
            targets=[(t - 1) % network.n_outputs + 1 for t in targets],
            g2_zero=g2,
            network=network,
        ),
        couplers={
            cid: {"on": on, "off": off}
            for cid, (on, off) in zip(network.coupler_ids, fractions.tolist())
        },
        budget=LossBudget.from_transmission(loss[0]),
        eta_det=loss[1],
    )
    channels, _, pulse_indices = columns(simulate(cfg, shards=shards))
    expected = reference_records(cfg)
    assert np.array_equal(channels, expected[0])
    assert np.array_equal(pulse_indices, expected[1])


def test_a_lossless_brightness_one_run_records_every_pulse():
    # p = 1 is _raw_below's None branch, which takes every draw as a hit
    cfg = make_bright_sim(brightness=1.0, pulses=2 * BLOCK_PULSES + 99, seed=11)
    for shards in (1, 3):
        _, _, pulses = columns(simulate(cfg, shards=shards))
        assert np.array_equal(pulses, np.arange(cfg.pulse_count))
