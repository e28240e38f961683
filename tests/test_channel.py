import numpy as np
import pytest

from oracles import Vehicle, make_frame
from streetbeam.channel import (_CHUNK_FRAMES, PathComponent, RayTraceConfig,
                                TargetLostError, _bs_position, _make_path,
                                assemble_channel, steering_vector, trace_paths)
from streetbeam.pipeline import blockage_labels
from streetbeam.rng import stream
from streetbeam.scene import BUS, VAN, SceneConfig, generate_scenario, vehicle_class

C = 299_792_458.0  # m/s


def small_cfg(**kw):
    kw.setdefault("N_t", 8)
    kw.setdefault("K", 4)
    return RayTraceConfig(**kw)


def user_frame(scene, x, y, vid=0, name="car", extra=()):
    vc = vehicle_class(name)
    target = Vehicle(vid, vc, (x, y), 0.0, 10.0, 1)
    return make_frame((target,) + tuple(extra), vid)


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
    rt = RayTraceConfig.from_dict(cfg.to_dict())
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
    paths = trace_paths([fr], scene, cfg)[0]
    assert len(paths) == 1 and paths[0].is_los
    bs = np.asarray(scene.bs_position)
    user = np.asarray(fr.user_antenna_pos)
    D = np.linalg.norm(user - bs)
    assert paths[0].tau == pytest.approx(D / C, rel=1e-12)
    assert paths[0].alpha == pytest.approx((C / cfg.f_c) / (4 * np.pi * D), rel=1e-12)
    # angle ranges
    assert -np.pi < paths[0].theta_az <= np.pi
    assert -np.pi / 2 <= paths[0].theta_el <= np.pi / 2


def test_bus_blocks_los():
    scene = SceneConfig()
    cfg = small_cfg(reflection_coeff=0j)
    bs = np.asarray(scene.bs_position)
    user_y = scene.lane_center_y(3)
    fr0 = user_frame(scene, 100.0, user_y)
    mid = (bs[:2] + np.array([100.0, user_y])) / 2
    bus = Vehicle(9, vehicle_class("bus"), tuple(mid), 0.0, 10.0, 0)
    fr = user_frame(scene, 100.0, user_y, extra=(bus,))
    assert len(trace_paths([fr0], scene, cfg)[0]) == 1  # sanity: open without the bus
    assert trace_paths([fr], scene, cfg)[0] == []       # blocked -> outage


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
    assert len(trace_paths([fr], scene, cfg)[0]) == len(trace_paths([fr0], scene, cfg)[0]) == 1


def test_facade_reflection_image_method_length():
    scene = SceneConfig()
    cfg = small_cfg()
    fr = user_frame(scene, 120.0, scene.lane_center_y(1))
    paths = trace_paths([fr], scene, cfg)[0]
    reflections = [p for p in paths if not p.is_los]
    assert reflections
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
    got = sorted(p.tau for p in reflections)
    for tau in got:
        assert min(abs(tau - e) for e in expected) < 1e-15
    # one extra |Gamma| per bounce
    for p in reflections:
        D = p.tau * C
        assert p.alpha == pytest.approx(cfg.wavelength / (4 * np.pi * D) * 0.6, rel=1e-9)


def test_paths_sorted_and_truncated():
    scene = SceneConfig()
    cfg = small_cfg(max_paths=2)
    fr = user_frame(scene, 120.0, scene.lane_center_y(1))
    paths = trace_paths([fr], scene, cfg)[0]
    assert len(paths) <= 2
    alphas = [p.alpha for p in paths]
    assert alphas == sorted(alphas, reverse=True)


def test_occlusion_monotonicity():
    # enlarging an obstructing box never un-blocks the path
    scene = SceneConfig()
    cfg = small_cfg(reflection_coeff=0j)
    user_y = scene.lane_center_y(3)
    bs = np.asarray(scene.bs_position)
    mid = (bs[:2] + np.array([100.0, user_y])) / 2
    blocked_small = trace_paths(
        [user_frame(scene, 100.0, user_y,
                    extra=(Vehicle(9, vehicle_class("van"), tuple(mid), 0.0, 1.0, 0),))],
        scene, cfg)[0] == []
    blocked_big = trace_paths(
        [user_frame(scene, 100.0, user_y,
                    extra=(Vehicle(9, vehicle_class("bus"), tuple(mid), 0.0, 1.0, 0),))],
        scene, cfg)[0] == []
    if blocked_small:
        assert blocked_big


def test_assemble_channel_trivial_and_destructive():
    cfg = small_cfg()
    p1 = PathComponent(1.0, 0.0, 0.0, 0.0, 0.0, True)
    h = assemble_channel([p1], cfg)
    assert h.dtype == np.complex128 and h.shape == (cfg.K, cfg.N_t)
    assert np.allclose(h, 1.0)  # theta_el = 0 zeroes the steering phase
    p2 = PathComponent(1.0, np.pi, 0.0, 0.0, 0.0, False)
    h2 = assemble_channel([p1, p2], cfg)
    assert np.linalg.norm(h2) < 1e-12
    assert np.array_equal(assemble_channel([], cfg), np.zeros((4, 8)))


def test_assemble_channel_double_loop_oracle():
    cfg = small_cfg(N_t=6, K=5)
    rng = stream(4, "test.paths")
    for _ in range(100):
        paths = [PathComponent(float(rng.uniform(0, 1e-3)),
                               float(rng.uniform(0, 2 * np.pi)),
                               float(rng.uniform(0, 1e-6)),
                               float(rng.uniform(-np.pi, np.pi)),
                               float(rng.uniform(-np.pi / 2, np.pi / 2)),
                               False)
                 for _ in range(int(rng.integers(1, 5)))]
        h = assemble_channel(paths, cfg)
        # independent scalar double-loop oracle
        oracle = np.zeros((cfg.K, cfg.N_t), dtype=complex)
        for k in range(cfg.K):
            fk = cfg.f_c + (k - cfg.K / 2) * cfg.subcarrier_spacing
            for n in range(cfg.N_t):
                acc = 0j
                for p in paths:
                    w = 2 * np.pi * cfg.d * fk / C
                    a_n = np.exp(1j * w * n * np.sin(p.theta_el) * np.cos(p.theta_az))
                    acc += p.alpha * np.exp(-1j * 2 * np.pi * fk * p.tau + 1j * p.phi) * a_n
                oracle[k, n] = acc
        assert np.max(np.abs(h - oracle)) <= 1e-12 * max(np.max(np.abs(oracle)), 1e-300)


def _reference_assemble(paths, config):
    """Path loop with the ULA manifold written out inline, as an outer
    product of the subcarrier phase rates and the antenna indices.
    ``assemble_channel`` must reproduce it bit for bit."""
    h = np.zeros((config.K, config.N_t), dtype=np.complex128)
    fk = config.subcarrier_freq(np.arange(config.K))
    for p in paths:
        gain = p.alpha * np.exp(-1j * 2 * np.pi * fk * p.tau + 1j * p.phi)
        w = 2 * np.pi * config.d * fk / C
        manifold = np.exp(1j * np.outer(w, np.arange(config.N_t))
                          * np.sin(p.theta_el) * np.cos(p.theta_az))
        h += gain[:, None] * manifold
    return h


@pytest.mark.parametrize("cfg", [RayTraceConfig(), RayTraceConfig(N_t=16, K=16)],
                         ids=["default", "Nt16-K16"])
def test_assemble_channel_bitwise_on_street_paths(cfg):
    # the acceptance-criterion-7 street: dense traffic, base station at 2 m
    scene = SceneConfig(frame_count=100, seed=503, spawn_rate=0.6,
                        bs_position=(100.0, -8.0, 2.0))
    checked = 0
    for f in generate_scenario(scene):
        if f.target_user_id is None:
            continue
        paths = trace_paths([f], scene, cfg)[0]
        got = assemble_channel(paths, cfg)
        assert got.tobytes() == _reference_assemble(paths, cfg).tobytes()
        checked += 1
    assert checked > 90
    rng = stream(6, "test.bitwise")
    for _ in range(20):
        paths = [PathComponent(float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * np.pi)),
                               float(rng.uniform(0, 1e-6)), float(rng.uniform(-np.pi, np.pi)),
                               float(rng.uniform(-np.pi / 2, np.pi / 2)), False)
                 for _ in range(int(rng.integers(1, 5)))]
        got = assemble_channel(paths, cfg)
        assert got.tobytes() == _reference_assemble(paths, cfg).tobytes()


def test_energy_triangle_inequality():
    cfg = small_cfg(N_t=8, K=3)
    rng = stream(5, "test.energy")
    paths = [PathComponent(float(rng.uniform(0, 1)), 0.3, 1e-7, 0.5, 0.2, False)
             for _ in range(4)]
    h = assemble_channel(paths, cfg)
    bound = sum(p.alpha for p in paths) * np.sqrt(cfg.N_t)
    for k in range(cfg.K):
        assert np.linalg.norm(h[k]) <= bound + 1e-12


def test_single_path_frequency_consistency():
    cfg = small_cfg(N_t=4, K=8, subcarrier_spacing=2e6)
    p = PathComponent(2e-4, 1.0, 3e-7, 0.7, 0.4, True)
    h = assemble_channel([p], cfg)
    # direct formula check per subcarrier (not a narrowband approximation)
    for k in range(cfg.K):
        fk = cfg.subcarrier_freq(k)
        a = steering_vector(p.theta_az, p.theta_el, fk, cfg)
        expect = p.alpha * np.exp(-1j * 2 * np.pi * fk * p.tau + 1j * p.phi) * a
        assert np.allclose(h[k], expect, rtol=1e-12, atol=0)


def label_inputs(frames, scene, cfg):
    """Per-frame target ids and LOS flags, as generate_dataset computes them."""
    targets = [f.target_user_id for f in frames]
    los = [f.target_user_id is not None
           and any(p.is_los for p in trace_paths([f], scene, cfg)[0]) for f in frames]
    return targets, los


def test_blockage_label_horizon0_is_current_los():
    scene = SceneConfig(frame_count=30, spawn_rate=0.0, seed=0,
                        initial_vehicles=(("car", (100.0, scene_y := -5.25), 0, 10.0),))
    cfg = small_cfg()
    frames = generate_scenario(scene)
    targets, los = label_inputs(frames, scene, cfg)
    t0, lab = blockage_labels(targets, los, (0,))
    assert t0[0] == 0 and lab.dtype == np.uint8 and lab.shape == (len(t0), 1)
    paths = trace_paths([frames[0]], scene, cfg)[0]
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
    assert trace_paths([fr], scene, cfg)[0] == trace_paths([fr], scene, cfg)[0]


def test_trace_paths_batch_edges():
    scene = SceneConfig()
    cfg = small_cfg()
    assert trace_paths([], scene, cfg) == []
    lost = make_frame()
    fr = user_frame(scene, 77.0, scene.lane_center_y(2))
    with pytest.raises(TargetLostError):
        trace_paths([fr, lost], scene, cfg)


# ---------------------------------------------------------------------------
# oracle: the per-frame tracer with its scalar slab test

def _reference_segment_blocked(p0, p1, boxes, eps=1e-9):
    """3D segment vs axis-aligned box test (slab method on the segment param)."""
    d = p1 - p0
    for lo, hi in boxes:
        t0, t1 = 0.0, 1.0
        hit = True
        for ax in range(3):
            if abs(d[ax]) < eps:
                if p0[ax] < lo[ax] - eps or p0[ax] > hi[ax] + eps:
                    hit = False
                    break
                continue
            ta = (lo[ax] - p0[ax]) / d[ax]
            tb = (hi[ax] - p0[ax]) / d[ax]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1 + eps:
                hit = False
                break
        if hit and t1 > eps and t0 < 1 - eps:
            return True
    return False


def _reference_trace_paths(frame, scene, config):
    """One frame at a time, every candidate segment tested box by box."""
    if frame.target_user_id is None:
        raise TargetLostError("frame has no target user")
    bs = _bs_position(scene, config)
    user = np.asarray(frame.user_antenna_pos, dtype=float)
    boxes = frame.boxes[frame.ids != frame.target_user_id].tolist()
    blocked = _reference_segment_blocked
    candidates = []
    if not blocked(bs, user, boxes):
        candidates.append(_make_path(bs, [user], config, n_bounces=0, is_los=True))
    if abs(config.reflection_coeff) > 0:
        for yf in (scene.facade_y, -scene.facade_y):
            image = bs.copy()
            image[1] = 2 * yf - bs[1]
            d = user - image
            if abs(d[1]) < 1e-12:
                continue
            s = (yf - image[1]) / d[1]
            if not 0 < s < 1:
                continue
            bounce = image + s * d
            if not (0 <= bounce[0] <= scene.street_length_m
                    and 0 <= bounce[2] <= scene.building_height_m):
                continue
            if blocked(bs, bounce, boxes) or blocked(bounce, user, boxes):
                continue
            candidates.append(_make_path(bs, [bounce, user], config, n_bounces=1, is_los=False))
        image = bs.copy()
        image[2] = -bs[2]
        d = user - image
        if abs(d[2]) > 1e-12:
            s = -image[2] / d[2]
            if 0 < s < 1:
                bounce = image + s * d
                if not (blocked(bs, bounce, boxes) or blocked(bounce, user, boxes)):
                    candidates.append(_make_path(bs, [bounce, user], config,
                                                 n_bounces=1, is_los=False))
    candidates.sort(key=lambda p: (-p.alpha, p.tau))
    return candidates[:config.max_paths]


def assert_matches_reference(frames, scene, cfg):
    got = trace_paths(frames, scene, cfg)
    assert got == [_reference_trace_paths(f, scene, cfg) for f in frames]
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
    frames = [f for f in generate_scenario(scene) if f.target_user_id is not None]
    assert len(frames) > 2 * _CHUNK_FRAMES
    for cfg in (RayTraceConfig(), RayTraceConfig(max_paths=2),
                RayTraceConfig(reflection_coeff=0j)):
        got = assert_matches_reference(frames, scene, cfg)
        # chunk boundaries do not change a frame's paths
        assert trace_paths(frames[5:140], scene, cfg) == got[5:140]
    if scene.bs_position[2] == 2.0:  # the low BS of criterion 7 sees outages
        assert any(paths == [] for paths in got)


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
    scene = SceneConfig(**CRITERION7)
    frames = [probe_frame(user, **box) for user, box, _ in SLAB_CASES]
    los_only = small_cfg(reflection_coeff=0j, bs_antenna_height=VAN.height)
    got = assert_matches_reference(frames, scene, los_only)
    assert [paths == [] for paths in got] == [blocked for _, _, blocked in SLAB_CASES]
    assert_matches_reference(frames, scene, small_cfg(bs_antenna_height=VAN.height))
    # one frame at a time, and mixed into a chunk of street frames
    for f in frames:
        assert_matches_reference([f], scene, los_only)
    street = [f for f in generate_scenario(SceneConfig(seed=503, **CRITERION7))
              if f.target_user_id is not None][:100]
    assert_matches_reference(street[:40] + frames + street[40:], scene,
                             small_cfg(bs_antenna_height=VAN.height))
