import numpy as np
import pytest
from scipy.constants import speed_of_light as C

from streetbeam.channel import (PathComponent, RayTraceConfig, TargetLostError,
                                assemble_channel, steering_vector, trace_paths)
from streetbeam.pipeline import blockage_labels
from streetbeam.rng import stream
from streetbeam.scene import Frame, SceneConfig, Vehicle, generate_scenario, vehicle_class


def small_cfg(**kw):
    kw.setdefault("N_t", 8)
    kw.setdefault("K", 4)
    return RayTraceConfig(**kw)


def user_frame(scene, x, y, vid=0, name="car", extra=()):
    vc = vehicle_class(name)
    target = Vehicle(vid, vc, (x, y), 0.0, 10.0, 1)
    vehicles = (target,) + tuple(extra)
    return Frame(0, vehicles, vid, (x, y, vc.height))


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
    paths = trace_paths(fr, scene, cfg)
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
    assert len(trace_paths(fr0, scene, cfg)) == 1  # sanity: open without the bus
    assert trace_paths(fr, scene, cfg) == []       # blocked -> outage


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
    assert len(trace_paths(fr, scene, cfg)) == len(trace_paths(fr0, scene, cfg)) == 1


def test_facade_reflection_image_method_length():
    scene = SceneConfig()
    cfg = small_cfg()
    fr = user_frame(scene, 120.0, scene.lane_center_y(1))
    paths = trace_paths(fr, scene, cfg)
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
    paths = trace_paths(fr, scene, cfg)
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
        user_frame(scene, 100.0, user_y,
                   extra=(Vehicle(9, vehicle_class("van"), tuple(mid), 0.0, 1.0, 0),)),
        scene, cfg) == []
    blocked_big = trace_paths(
        user_frame(scene, 100.0, user_y,
                   extra=(Vehicle(9, vehicle_class("bus"), tuple(mid), 0.0, 1.0, 0),)),
        scene, cfg) == []
    if blocked_small:
        assert blocked_big


def test_assemble_channel_trivial_and_destructive():
    cfg = small_cfg()
    p1 = PathComponent(1.0, 0.0, 0.0, 0.0, 0.0, True)
    h = assemble_channel([p1], cfg).entries
    assert np.allclose(h, 1.0)  # theta_el = 0 zeroes the steering phase
    p2 = PathComponent(1.0, np.pi, 0.0, 0.0, 0.0, False)
    h2 = assemble_channel([p1, p2], cfg).entries
    assert np.linalg.norm(h2) < 1e-12
    assert np.array_equal(assemble_channel([], cfg).entries, np.zeros((4, 8)))


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
        h = assemble_channel(paths, cfg).entries
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
        paths = trace_paths(f, scene, cfg)
        got = assemble_channel(paths, cfg).entries
        assert got.tobytes() == _reference_assemble(paths, cfg).tobytes()
        checked += 1
    assert checked > 90
    rng = stream(6, "test.bitwise")
    for _ in range(20):
        paths = [PathComponent(float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * np.pi)),
                               float(rng.uniform(0, 1e-6)), float(rng.uniform(-np.pi, np.pi)),
                               float(rng.uniform(-np.pi / 2, np.pi / 2)), False)
                 for _ in range(int(rng.integers(1, 5)))]
        got = assemble_channel(paths, cfg).entries
        assert got.tobytes() == _reference_assemble(paths, cfg).tobytes()


def test_energy_triangle_inequality():
    cfg = small_cfg(N_t=8, K=3)
    rng = stream(5, "test.energy")
    paths = [PathComponent(float(rng.uniform(0, 1)), 0.3, 1e-7, 0.5, 0.2, False)
             for _ in range(4)]
    h = assemble_channel(paths, cfg).entries
    bound = sum(p.alpha for p in paths) * np.sqrt(cfg.N_t)
    for k in range(cfg.K):
        assert np.linalg.norm(h[k]) <= bound + 1e-12


def test_single_path_frequency_consistency():
    cfg = small_cfg(N_t=4, K=8, subcarrier_spacing=2e6)
    p = PathComponent(2e-4, 1.0, 3e-7, 0.7, 0.4, True)
    h = assemble_channel([p], cfg).entries
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
           and any(p.is_los for p in trace_paths(f, scene, cfg)) for f in frames]
    return targets, los


def test_blockage_label_horizon0_is_current_los():
    scene = SceneConfig(frame_count=30, spawn_rate=0.0, seed=0,
                        initial_vehicles=(("car", (100.0, scene_y := -5.25), 0, 10.0),))
    cfg = small_cfg()
    frames = generate_scenario(scene)
    targets, los = label_inputs(frames, scene, cfg)
    (lab,) = blockage_labels(targets, los, 0, (0,))
    paths = trace_paths(frames[0], scene, cfg)
    assert lab == (0 if any(p.is_los for p in paths) else 1)
    assert lab == 0  # open street: LOS present


def test_blockage_label_bus_crossing():
    # a bus placed so it crosses the LOS segment exactly h slots later
    scene0 = SceneConfig()
    user_y = scene0.lane_center_y(3)
    bs = np.asarray(scene0.bs_position)
    mid = (bs[:2] + np.array([100.0, user_y])) / 2
    h = 10
    speed = 8.0
    # lane 0 travels +x: start the bus h slots upstream of the midpoint
    start_x = mid[0] - speed * 0.05 * h
    scene = SceneConfig(
        frame_count=40, spawn_rate=0.0, seed=0,
        initial_vehicles=(("car", (100.0, user_y), 3, 0.0),
                          ("bus", (start_x, mid[1]), 0, speed)))
    cfg = small_cfg(reflection_coeff=0j)
    frames = generate_scenario(scene)
    # target must be the stationary car for the oracle to hold
    assert frames[0].target_user_id == 0
    targets, los = label_inputs(frames, scene, cfg)
    assert blockage_labels(targets, los, 0, (h, 39)) == [1, 0]  # bus passed at 39


def test_blockage_label_errors():
    scene = SceneConfig(frame_count=10, spawn_rate=0.0, seed=0,
                        initial_vehicles=(("car", (198.0, -5.25), 0, 14.0),))
    cfg = small_cfg()
    frames = generate_scenario(scene)
    targets, los = label_inputs(frames, scene, cfg)
    with pytest.raises(IndexError):
        blockage_labels(targets, los, 0, (100,))
    # the car leaves the street within the window -> explicit signal
    with pytest.raises(TargetLostError):
        blockage_labels(targets, los, 0, (9,))
    with pytest.raises(TargetLostError):
        blockage_labels(targets, los, 0, (1, 9))  # the longest horizon sets the window


def test_trace_paths_deterministic():
    scene = SceneConfig()
    cfg = small_cfg()
    fr = user_frame(scene, 77.0, scene.lane_center_y(2))
    assert trace_paths(fr, scene, cfg) == trace_paths(fr, scene, cfg)
