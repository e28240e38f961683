from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import Vehicle, make_frame, steering_vector
from streetbeam.channel import (_CHUNK_FRAMES, _SPLIT, RayTraceConfig, assemble_channel,
                                assemble_channels, trace_paths)
from streetbeam.pipeline import blockage_labels
from streetbeam.rng import stream
from streetbeam.scene import (BUS, VAN, SceneConfig, from_plain, generate_scenario, to_plain,
                              vehicle_class)

C = 299_792_458.0  # m/s


def small_cfg(**kw):
    kw.setdefault("N_t", 8)
    kw.setdefault("K", 4)
    return RayTraceConfig(**kw)


def user_frame(scene, x, y, vid=0, name="car", extra=()):
    vc = vehicle_class(name)
    target = Vehicle(vid, vc, (x, y), 0.0, 10.0, 1)
    return make_frame((target,) + tuple(extra), vid)


def frame_paths(frame, scene, cfg):
    """The (n, 5) path rows and the LOS flag of one frame."""
    paths, n_paths, los = trace_paths([frame], scene, cfg)
    return paths[0, :n_paths[0]], los[0]


def random_paths(rng, n, alpha_max=1.0, tau_max=1e-6):
    """(n, 5) rows of random amplitudes, phases, delays and angles."""
    return np.array([(rng.uniform(0, alpha_max), rng.uniform(0, 2 * np.pi),
                      rng.uniform(0, tau_max), rng.uniform(-np.pi, np.pi),
                      rng.uniform(-np.pi / 2, np.pi / 2)) for _ in range(n)])


def test_config_validation_and_defaults():
    cfg = RayTraceConfig()
    assert cfg.f_c == 28e9 and cfg.K == 128 and cfg.N_t == 64 and cfg.max_paths == 20
    assert cfg.d == pytest.approx(cfg.wavelength / 2)
    assert cfg.reflection_coeff == pytest.approx(0.6 * np.exp(1j * np.pi))
    with pytest.raises(ValueError):
        RayTraceConfig(K=0)
    with pytest.raises(ValueError):
        RayTraceConfig(reflection_coeff=1.5)
    with pytest.raises(ValueError):
        RayTraceConfig(sigma2=0.0)
    for bad in (dict(f_c=0), dict(f_c=-28e9), dict(d=0.0), dict(N_t=2.5),
                dict(max_paths=1.5), dict(K=True), dict(subcarrier_spacing=-1e6),
                dict(sigma2=float("nan")), dict(P_k=float("inf")),
                dict(reflection_coeff=complex("nan")), dict(reflection_coeff="x")):
        with pytest.raises(ValueError):
            RayTraceConfig(**bad)
    assert RayTraceConfig(subcarrier_spacing=0.0).subcarrier_spacing == 0.0
    rt = from_plain(RayTraceConfig, to_plain(cfg))
    assert rt == cfg


def test_subcarrier_grid_centered():
    cfg = small_cfg(subcarrier_spacing=1e6)
    assert cfg.subcarrier_freq(cfg.K / 2) == cfg.f_c
    assert cfg.subcarrier_freq(0) == cfg.f_c - cfg.K / 2 * 1e6


def test_steering_vector_trivial_cases():
    cfg = small_cfg(N_t=4)
    a = steering_vector(1.2, 0.0, cfg.f_c, cfg)
    assert np.allclose(a, np.ones(4))
    cfg2 = small_cfg(N_t=2)
    a2 = steering_vector(0.0, np.pi / 2, cfg2.f_c, cfg2)
    assert np.allclose(a2, [1.0, -1.0])


def test_steering_vector_unit_modulus_norm():
    cfg = small_cfg(N_t=16)
    rng = stream(0, "test.sv")
    for _ in range(20):
        az = rng.uniform(-np.pi, np.pi)
        el = rng.uniform(-np.pi / 2, np.pi / 2)
        a = steering_vector(az, el, cfg.f_c, cfg)
        assert np.allclose(np.abs(a), 1.0)
        assert np.linalg.norm(a) == pytest.approx(np.sqrt(16))


def test_los_free_space_closed_form():
    scene = SceneConfig()
    cfg = small_cfg(reflection_coeff=0j)  # LOS only
    fr = user_frame(scene, 120.0, scene.lane_center_y(1))
    paths, los = frame_paths(fr, scene, cfg)
    assert len(paths) == 1 and los
    (alpha, _, tau, theta_az, theta_el), = paths
    bs = np.asarray(scene.bs_position)
    user = np.asarray(fr.user_antenna_pos)
    D = np.linalg.norm(user - bs)
    assert tau == pytest.approx(D / C, rel=1e-12)
    assert alpha == pytest.approx((C / cfg.f_c) / (4 * np.pi * D), rel=1e-12)
    # angle ranges
    assert -np.pi < theta_az <= np.pi
    assert -np.pi / 2 <= theta_el <= np.pi / 2


def test_bus_blocks_los():
    scene = SceneConfig()
    cfg = small_cfg(reflection_coeff=0j)
    bs = np.asarray(scene.bs_position)
    user_y = scene.lane_center_y(3)
    fr0 = user_frame(scene, 100.0, user_y)
    mid = (bs[:2] + np.array([100.0, user_y])) / 2
    bus = Vehicle(9, vehicle_class("bus"), tuple(mid), 0.0, 10.0, 0)
    fr = user_frame(scene, 100.0, user_y, extra=(bus,))
    assert len(frame_paths(fr0, scene, cfg)[0]) == 1  # sanity: open without the bus
    assert len(frame_paths(fr, scene, cfg)[0]) == 0   # blocked -> outage


def test_car_low_enough_not_blocking_high_ray():
    # BS at 6 m, user antenna on a bus roof (3.33 m): a car (1.55 m) midway
    # passes under the ray; occlusion must depend on obstacle height
    scene = SceneConfig()
    cfg = small_cfg(reflection_coeff=0j)
    user_y = scene.lane_center_y(3)
    fr0 = user_frame(scene, 100.0, user_y, name="bus")
    bs = np.asarray(scene.bs_position)
    mid = (bs[:2] + np.array([100.0, user_y])) / 2
    car = Vehicle(9, vehicle_class("car"), tuple(mid), 0.0, 10.0, 0)
    fr = user_frame(scene, 100.0, user_y, name="bus", extra=(car,))
    assert len(frame_paths(fr, scene, cfg)[0]) == len(frame_paths(fr0, scene, cfg)[0]) == 1


def test_facade_reflection_image_method_length():
    scene = SceneConfig()
    cfg = small_cfg()
    fr = user_frame(scene, 120.0, scene.lane_center_y(1))
    paths, los = frame_paths(fr, scene, cfg)
    assert los  # the direct path is the strongest
    reflections = paths[1:]
    assert len(reflections)
    bs = np.asarray(scene.bs_position)
    user = np.asarray(fr.user_antenna_pos)
    # expected path lengths from the mirror images (two facades + ground)
    images = []
    for yf in (scene.facade_y, -scene.facade_y):
        im = bs.copy()
        im[1] = 2 * yf - bs[1]
        images.append(im)
    gim = bs.copy()
    gim[2] = -bs[2]
    images.append(gim)
    expected = sorted(np.linalg.norm(user - im) / C for im in images)
    for tau in reflections[:, 2]:
        assert min(abs(tau - e) for e in expected) < 1e-15
    # one extra |Gamma| per bounce
    for alpha, _, tau, _, _ in reflections:
        D = tau * C
        assert alpha == pytest.approx(cfg.wavelength / (4 * np.pi * D) * 0.6, rel=1e-9)


def test_paths_sorted_and_truncated():
    scene = SceneConfig()
    cfg = small_cfg(max_paths=2)
    fr = user_frame(scene, 120.0, scene.lane_center_y(1))
    paths, n_paths, _ = trace_paths([fr], scene, cfg)
    assert paths.shape == (1, 2, 5) and n_paths[0] <= 2
    alphas = paths[0, :n_paths[0], 0].tolist()
    assert alphas == sorted(alphas, reverse=True)


def test_occlusion_monotonicity():
    # enlarging an obstructing box never un-blocks the path
    scene = SceneConfig()
    cfg = small_cfg(reflection_coeff=0j)
    user_y = scene.lane_center_y(3)
    bs = np.asarray(scene.bs_position)
    mid = (bs[:2] + np.array([100.0, user_y])) / 2
    blocked_small, blocked_big = trace_paths(
        [user_frame(scene, 100.0, user_y,
                    extra=(Vehicle(9, vehicle_class(name), tuple(mid), 0.0, 1.0, 0),))
         for name in ("van", "bus")], scene, cfg)[1] == 0
    if blocked_small:
        assert blocked_big


def test_assemble_channel_trivial_and_destructive():
    cfg = small_cfg()
    p1 = [1.0, 0.0, 0.0, 0.0, 0.0]
    h = assemble_channel(np.array([p1]), cfg)
    assert h.dtype == np.complex128 and h.shape == (cfg.K, cfg.N_t)
    assert np.allclose(h, 1.0)  # theta_el = 0 zeroes the steering phase
    p2 = [1.0, np.pi, 0.0, 0.0, 0.0]
    h2 = assemble_channel(np.array([p1, p2]), cfg)
    assert np.linalg.norm(h2) < 1e-12
    assert np.array_equal(assemble_channel(np.zeros((0, 5)), cfg), np.zeros((4, 8)))


def test_assemble_channel_double_loop_oracle():
    cfg = small_cfg(N_t=6, K=5)
    rng = stream(4, "test.paths")
    for _ in range(100):
        paths = random_paths(rng, int(rng.integers(1, 5)), alpha_max=1e-3)
        h = assemble_channel(paths, cfg)
        # independent scalar double-loop oracle
        oracle = np.zeros((cfg.K, cfg.N_t), dtype=complex)
        for k in range(cfg.K):
            fk = cfg.f_c + (k - cfg.K / 2) * cfg.subcarrier_spacing
            for n in range(cfg.N_t):
                acc = 0j
                for alpha, phi, tau, theta_az, theta_el in paths:
                    w = 2 * np.pi * cfg.d * fk / C
                    a_n = np.exp(1j * w * n * np.sin(theta_el) * np.cos(theta_az))
                    acc += alpha * np.exp(-1j * 2 * np.pi * fk * tau + 1j * phi) * a_n
                oracle[k, n] = acc
        assert np.max(np.abs(h - oracle)) <= 1e-12 * max(np.max(np.abs(oracle)), 1e-300)


def _reference_assemble(paths, config):
    """Loop over PathComponents with the ULA manifold written out inline, as
    an outer product of the subcarrier phase rates and the antenna indices,
    one complex exp per entry."""
    h = np.zeros((config.K, config.N_t), dtype=np.complex128)
    fk = config.subcarrier_freq(np.arange(config.K))
    for p in paths:
        gain = p.alpha * np.exp(-1j * 2 * np.pi * fk * p.tau + 1j * p.phi)
        w = 2 * np.pi * config.d * fk / C
        manifold = np.exp(1j * np.outer(w, np.arange(config.N_t))
                          * np.sin(p.theta_el) * np.cos(p.theta_az))
        h += gain[:, None] * manifold
    return h


def assert_near_reference(h, rows, config):
    """``h`` is within ``oracles.channel_tolerance`` of the extended-precision
    per-path sum of the (n, 5) path ``rows``."""
    err = np.abs(h - oracles.channel_reference(rows, config)).max(initial=0)
    assert err <= oracles.channel_tolerance(rows, config)


def chunked_channels(paths, n_paths, cfg, step=7):
    """``assemble_channels`` of a padded table, ``step`` frames at a time."""
    return np.concatenate([assemble_channels(paths[i:i + step], n_paths[i:i + step], cfg)
                           for i in range(0, len(paths), step)])


@pytest.mark.parametrize("cfg", [RayTraceConfig(), RayTraceConfig(N_t=16, K=16),
                                 small_cfg(N_t=12, K=5), small_cfg(N_t=3, K=5)],
                         ids=["default", "Nt16-K16", "Nt12-K5", "Nt3-K5"])
def test_assemble_channel_bitwise_on_street_paths(cfg):
    """A frame's channel is the same bits alone, in the whole table and in
    chunks of it; it and the per-path sums with one exp per entry stay within
    ``oracles.channel_tolerance`` of the extended-precision sum."""
    # the acceptance-criterion-7 street: dense traffic, base station at 2 m
    scene = SceneConfig(frame_count=100, seed=503, spawn_rate=0.6,
                        bs_position=(100.0, -8.0, 2.0))
    frames = [f for f in generate_scenario(scene) if f.target_user_id is not None]
    assert len(frames) > 90
    paths, n_paths, _ = trace_paths(frames, scene, cfg)
    whole = assemble_channels(paths, n_paths, cfg)
    chunked = chunked_channels(paths, n_paths, cfg)
    for f, frame in enumerate(frames):
        got = assemble_channel(paths[f, :n_paths[f]], cfg)
        assert got.tobytes() == whole[f].tobytes() == chunked[f].tobytes()
        want = oracles.trace_frame(frame, scene, cfg)
        rows = oracles.path_rows(want)
        for h in (got, _reference_assemble(want, cfg), oracles.assemble_channel(rows, cfg)):
            assert_near_reference(h, rows, cfg)
    rng = stream(6, "test.bitwise")
    for _ in range(20):
        paths = random_paths(rng, int(rng.integers(1, 5)))
        want = [oracles.PathComponent(*row, is_los=False) for row in paths.tolist()]
        assert_near_reference(assemble_channel(paths, cfg), paths, cfg)
        assert_near_reference(_reference_assemble(want, cfg), paths, cfg)
    # frames of 0 to 4 paths, with garbage in the padding after them
    table = np.stack([random_paths(rng, 4) for _ in range(20)])
    n_paths = rng.integers(0, 5, len(table))
    whole = assemble_channels(table, n_paths, cfg)
    for paths, n, got, one in zip(table, n_paths, chunked_channels(table, n_paths, cfg), whole):
        assert got.tobytes() == one.tobytes() == assemble_channel(paths[:n], cfg).tobytes()
        assert_near_reference(got, paths[:n], cfg)


def test_split_tables_cover_every_antenna():
    """N_t below, at, between and above multiples of the fine table's
    length: every antenna gets its own entry, within tolerance of the sum."""
    rng = stream(8, "test.split")
    for N_t in (1, _SPLIT - 1, _SPLIT, _SPLIT + 1, 3 * _SPLIT - 2, 4 * _SPLIT):
        cfg = small_cfg(N_t=N_t, K=3)
        paths = random_paths(rng, 3)
        h = assemble_channel(paths, cfg)
        assert h.shape == (3, N_t)
        assert_near_reference(h, paths, cfg)


@pytest.mark.parametrize("N_t", [16 * _SPLIT + 3, 256])
def test_multiplied_tables_stay_within_tolerance_at_endfire(N_t):
    """Endfire paths (theta_el = pi/2, theta_az 0 or pi) have the largest
    |u|, so the longest chains of table products have the largest phases."""
    cfg = small_cfg(N_t=N_t, K=16)
    rng = stream(9, "test.endfire")
    for az in (0.0, np.pi):
        paths = random_paths(rng, 3)
        paths[:, 3:] = az, np.pi / 2
        for rows in (paths[:1], paths):
            assert_near_reference(assemble_channel(rows, cfg), rows, cfg)


def test_empty_and_all_outage_tables_give_zero_channels():
    cfg = small_cfg(N_t=12, K=5)
    for F in (0, 3):
        h = assemble_channels(np.zeros((F, 4, 5)), np.zeros(F, dtype=np.int64), cfg)
        assert h.dtype == np.complex128 and h.shape == (F, 5, 12)
        assert not h.any()


@pytest.mark.parametrize("n_paths", [[0, 1, 2, 3, 4], [1, 2, 3, 4, 4],
                                     [0, 3, 0, 1, 0, 4, 0, 2, 0]],
                         ids=["ascending", "ascending-no-outage", "interleaved-zeros"])
def test_channels_return_in_input_order(n_paths):
    """The frames are ordered by path count inside the call only: each
    channel comes back at its frame's place, the same bits as alone."""
    cfg = small_cfg(N_t=12, K=5)
    rng = stream(10, "test.order")
    table = np.stack([random_paths(rng, 4) for _ in n_paths])
    h = assemble_channels(table, np.array(n_paths), cfg)
    for paths, n, got in zip(table, n_paths, h):
        assert got.tobytes() == assemble_channel(paths[:n], cfg).tobytes()
    assert not h[np.array(n_paths) == 0].any()


def test_energy_triangle_inequality():
    cfg = small_cfg(N_t=8, K=3)
    rng = stream(5, "test.energy")
    paths = np.array([(rng.uniform(0, 1), 0.3, 1e-7, 0.5, 0.2) for _ in range(4)])
    h = assemble_channel(paths, cfg)
    bound = paths[:, 0].sum() * np.sqrt(cfg.N_t)
    for k in range(cfg.K):
        assert np.linalg.norm(h[k]) <= bound + 1e-12


def test_single_path_frequency_consistency():
    cfg = small_cfg(N_t=4, K=8, subcarrier_spacing=2e6)
    alpha, phi, tau, theta_az, theta_el = 2e-4, 1.0, 3e-7, 0.7, 0.4
    h = assemble_channel(np.array([[alpha, phi, tau, theta_az, theta_el]]), cfg)
    # direct formula check per subcarrier (not a narrowband approximation)
    for k in range(cfg.K):
        fk = cfg.subcarrier_freq(k)
        a = steering_vector(theta_az, theta_el, fk, cfg)
        expect = alpha * np.exp(-1j * 2 * np.pi * fk * tau + 1j * phi) * a
        assert np.allclose(h[k], expect, rtol=1e-12, atol=0)


def label_inputs(frames, scene, cfg):
    """Per-frame target ids and LOS flags, as generate_dataset computes them."""
    return [f.target_user_id for f in frames], trace_paths(frames, scene, cfg)[2]


def test_blockage_label_horizon0_is_current_los():
    scene = SceneConfig(frame_count=30, spawn_rate=0.0, seed=0,
                        initial_vehicles=(("car", (100.0, scene_y := -5.25), 0, 10.0),))
    cfg = small_cfg()
    frames = generate_scenario(scene)
    targets, los = label_inputs(frames, scene, cfg)
    t0, lab = blockage_labels(targets, los, (0,))
    assert t0[0] == 0 and lab.dtype == np.uint8 and lab.shape == (len(t0), 1)
    paths = oracles.trace_frame(frames[0], scene, cfg)
    assert lab[0, 0] == (0 if any(p.is_los for p in paths) else 1)
    assert lab[0, 0] == 0  # open street: LOS present


def test_blockage_label_bus_crossing():
    # a bus placed so it crosses the LOS segment exactly h slots later
    scene0 = SceneConfig()
    user_y = scene0.lane_center_y(3)
    bs = np.asarray(scene0.bs_position)
    mid = (bs[:2] + np.array([100.0, user_y])) / 2
    h = 10
    speed = 8.0
    # lane 1 travels +x: start the bus h slots upstream of the midpoint
    start_x = mid[0] - speed * 0.05 * h
    scene = SceneConfig(
        frame_count=40, spawn_rate=0.0, seed=0,
        initial_vehicles=(("car", (100.0, user_y), 3, 0.0),
                          ("bus", (start_x, mid[1]), 1, speed)))
    cfg = small_cfg(reflection_coeff=0j)
    frames = generate_scenario(scene)
    # target must be the stationary car for the oracle to hold
    assert frames[0].target_user_id == 0
    targets, los = label_inputs(frames, scene, cfg)
    t0, lab = blockage_labels(targets, los, (h, 39))
    assert t0.tolist() == [0]  # the one slot whose window fits the 40 frames
    assert lab.tolist() == [[1, 0]]  # bus passed at 39


def test_blockage_label_unusable_slots():
    scene = SceneConfig(frame_count=10, spawn_rate=0.0, seed=0,
                        initial_vehicles=(("car", (198.0, -5.25), 0, 14.0),))
    cfg = small_cfg()
    frames = generate_scenario(scene)
    targets, los = label_inputs(frames, scene, cfg)
    # the longest horizon runs past the last slot: no slot is usable
    t0, lab = blockage_labels(targets, los, (100,))
    assert len(t0) == 0 and lab.shape == (0, 1)
    # the car leaves the street within the window: slot 0 is left out
    assert 0 in blockage_labels(targets, los, (1,))[0]
    assert 0 not in blockage_labels(targets, los, (9,))[0]
    assert 0 not in blockage_labels(targets, los, (1, 9))[0]  # the longest horizon sets the window


def test_trace_paths_deterministic():
    scene = SceneConfig()
    cfg = small_cfg()
    fr = user_frame(scene, 77.0, scene.lane_center_y(2))
    a, b = trace_paths([fr], scene, cfg), trace_paths([fr], scene, cfg)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_trace_paths_batch_edges():
    scene = SceneConfig()
    cfg = small_cfg()
    paths, n_paths, los = trace_paths([], scene, cfg)
    assert paths.shape == (0, 4, 5) and n_paths.shape == los.shape == (0,)
    # frames without a target have no paths and no LOS, next to one that has
    lost = make_frame()
    empty = make_frame([Vehicle(3, vehicle_class("bus"), (90.0, -1.75), 0.0, 1.0, 1)])
    fr = user_frame(scene, 77.0, scene.lane_center_y(2))
    frames = [lost, fr, empty]
    paths, n_paths, los = assert_matches_reference(frames, scene, cfg)
    assert n_paths.tolist() == [0, 4, 0] and los.tolist() == [False, True, False]
    assert not paths[[0, 2]].any()


# ---------------------------------------------------------------------------
# the path table against the per-frame tracer of oracles.py

def assert_matches_reference(frames, scene, cfg):
    got = trace_paths(frames, scene, cfg)
    want = oracles.trace_table(frames, scene, cfg)
    assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    return got


CRITERION7 = dict(frame_count=600, spawn_rate=0.6, bs_position=(100.0, -8.0, 2.0))


@pytest.mark.parametrize("scene", [
    SceneConfig(seed=501, **CRITERION7),
    SceneConfig(seed=503, **CRITERION7),
    SceneConfig(seed=504, **CRITERION7),
    SceneConfig(frame_count=600, seed=0, spawn_rate=0.6),  # README street
    SceneConfig(),
], ids=["crit7-501", "crit7-503", "crit7-504", "readme", "default"])
def test_trace_paths_equals_per_frame_reference_on_streets(scene):
    frames = generate_scenario(scene)  # frames without a target included
    assert sum(f.target_user_id is not None for f in frames) > 2 * _CHUNK_FRAMES
    for cfg in (RayTraceConfig(), RayTraceConfig(max_paths=2),
                RayTraceConfig(reflection_coeff=0j)):
        got = assert_matches_reference(frames, scene, cfg)
        # chunk boundaries do not change a frame's paths
        sliced = trace_paths(frames[5:140], scene, cfg)
        assert all(a.tobytes() == b[5:140].tobytes() for a, b in zip(sliced, got))
    if scene.bs_position[2] == 2.0:  # the low BS of criterion 7 sees outages
        assert (got[1] == 0).any()


def probe_frame(user, lo=None, hi=None):
    """Frame whose target van is centred at ``user`` (x, y), with one bus
    given by a lower or upper box corner in (x, y)."""
    vehicles = (Vehicle(0, VAN, user, 0.0, 10.0, 0),)
    if lo is not None or hi is not None:
        x, y = lo if lo is not None else (hi[0] - BUS.length, hi[1] - BUS.width)
        bus = Vehicle(1, BUS, (x + BUS.length / 2, y + BUS.width / 2), 0.0, 10.0, 1)
        vehicles += (bus,)
    return make_frame(vehicles, 0)


# BS at (100, -8) raised to the van roof: each direct path runs at
# z = VAN.height, inside the bus height
SLAB_SCENE = replace(SceneConfig(**CRITERION7), bs_position=(100.0, -8.0, VAN.height))
SLAB_CASES = [
    # leg parallel to the y faces (|d_y| < eps): p0 within eps of a face
    ((120.0, -8 + 1e-10), dict(lo=(105.0, -8 + 0.5e-9)), True),
    ((120.0, -8 + 1e-10), dict(lo=(105.0, -8 + 1.5e-9)), False),
    ((120.0, -8 + 1e-10), dict(hi=(116.08, -8 - 0.5e-9)), True),
    ((120.0, -8 + 1e-10), dict(hi=(116.08, -8 - 1.5e-9)), False),
    # |d_y| just below eps counts as parallel, just above it does not
    ((120.0, -8 + 0.9e-9), dict(lo=(110.0, -8 + 1.05e-9)), False),
    ((120.0, -8 + 1.1e-9), dict(lo=(110.0, -8 + 1.05e-9)), True),
    # grazing a box edge: t0 - t1 just below and just above eps
    ((120.0, -4.0), dict(hi=(121.08, -6 - 2e-9)), True),
    ((120.0, -4.0), dict(hi=(121.08, -6 - 6e-9)), False),
    # box ending just after the leg starts: t1 just below and above eps
    ((120.0, -8.0), dict(hi=(100 + 1e-8, -7.0)), False),
    ((120.0, -8.0), dict(hi=(100 + 3e-8, -7.0)), True),
    # box starting just before the leg ends: t0 just above and below 1 - eps
    ((120.0, -8.0), dict(lo=(120 - 1e-8, -9.0)), False),
    ((120.0, -8.0), dict(lo=(120 - 3e-8, -9.0)), True),
    # leg ending on a box face, leg starting inside a box
    ((120.0, -8.0), dict(lo=(120.0, -9.0)), False),
    ((120.0, -8.0), dict(lo=(95.0, -9.0)), True),
    # the target is the only vehicle: no boxes
    ((120.0, -8.0), dict(), False),
]


def test_slab_eps_rules_match_reference():
    scene = SLAB_SCENE
    frames = [probe_frame(user, **box) for user, box, _ in SLAB_CASES]
    los_only = small_cfg(reflection_coeff=0j)
    _, n_paths, _ = assert_matches_reference(frames, scene, los_only)
    assert (n_paths == 0).tolist() == [blocked for _, _, blocked in SLAB_CASES]
    assert_matches_reference(frames, scene, small_cfg())
    # one frame at a time, and mixed into a chunk of street frames
    for f in frames:
        assert_matches_reference([f], scene, los_only)
    street = [f for f in generate_scenario(SceneConfig(seed=503, **CRITERION7))
              if f.target_user_id is not None][:100]
    assert_matches_reference(street[:40] + frames + street[40:], scene, small_cfg())
