from dataclasses import replace

import numpy as np
import pytest

from streetbeam import scene as scene_mod
from streetbeam.scene import (_SPAWN_GAP, BUS, CAR, VAN, ConfigError, Frame, SceneConfig,
                              ScenarioStreams, Vehicle, advance_frame,
                              generate_scenario, vehicle_boxes, vehicle_class)


def single_car_config(speed=10.0, frames=25, x0=10.0, lane=1):
    return SceneConfig(frame_count=frames, spawn_rate=0.0, seed=0,
                       initial_vehicles=(("car", (x0, None), lane, speed),))


def make_config(**kw):
    kw.setdefault("seed", 0)
    return SceneConfig(**kw)


def place(cfg, x0, lane, speed=10.0, name="car"):
    return (name, (x0, cfg.lane_center_y(lane)), lane, speed)


def test_vehicle_class_dims_exact():
    assert (CAR.length, CAR.width, CAR.height) == (3.71, 1.79, 1.55)
    assert (VAN.length, VAN.width, VAN.height) == (5.20, 2.61, 2.47)
    assert (BUS.length, BUS.width, BUS.height) == (11.08, 3.25, 3.33)
    with pytest.raises(ConfigError):
        vehicle_class("truck")


def test_vehicle_boxes_corners():
    car = Vehicle(1, CAR, (10.0, 1.75), 0.0, 10.0, 1)
    bus = Vehicle(2, BUS, (40.0, -1.75), np.pi, 9.0, 2)
    boxes = vehicle_boxes([car, bus])
    assert boxes.shape == (2, 2, 3) and boxes.dtype == np.float64
    for v, (lo, hi) in zip((car, bus), boxes):
        xmin, xmax, ymin, ymax = v.footprint()
        assert lo.tolist() == [xmin, ymin, 0.0]
        assert hi.tolist() == [xmax, ymax, v.vclass.height]
    assert vehicle_boxes([]).shape == (0, 2, 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(frame_count=0)
    with pytest.raises(ConfigError):
        SceneConfig(slot_duration_s=0.0)
    with pytest.raises(ConfigError):
        SceneConfig(speed_range_mps=(15.0, 8.0))
    with pytest.raises(ConfigError):
        generate_scenario(SceneConfig(spawn_rate=0.0, initial_vehicles=()))


def test_default_cameras_at_5m_both_sides():
    cfg = SceneConfig()
    heights = sorted(c.position[2] for c in cfg.camera_poses)
    sides = sorted(np.sign(c.position[1]) for c in cfg.camera_poses)
    assert heights == [5.0, 5.0]
    assert sides == [-1.0, 1.0]


def test_constant_velocity_kinematics():
    cfg = make_config(frame_count=25, spawn_rate=0.0,
                      initial_vehicles=(place(None if False else SceneConfig(), 10.0, 1, 10.0),))
    frames = generate_scenario(cfg)
    assert len(frames) == 25
    v0 = frames[0].vehicles[0]
    sgn = 1.0 if cfg.lane_direction(1) == 0.0 else -1.0
    for t, fr in enumerate(frames):
        assert len(fr.vehicles) == 1
        assert fr.vehicles[0].center[0] == pytest.approx(10.0 + sgn * 10.0 * 0.05 * t)
    # 20 slots at 10 m/s -> 10 m displacement along heading
    assert abs(frames[20].vehicles[0].center[0] - v0.center[0]) == pytest.approx(10.0)


def test_determinism_bitwise():
    cfg = make_config(frame_count=60, spawn_rate=0.4, seed=11)
    a = generate_scenario(cfg)
    b = generate_scenario(cfg)
    assert a == b


def _reference_advance_positions(vehicles, config):
    """Per-lane gap clamp that moves each vehicle with ``dataclasses.replace``."""
    dt = config.slot_duration_s
    out = []
    by_lane = {}
    for v in vehicles:
        by_lane.setdefault(v.lane, []).append(v)
    for lane, vs in by_lane.items():
        sgn = 1.0 if config.lane_direction(lane) == 0.0 else -1.0
        vs = sorted(vs, key=lambda v: sgn * v.center[0], reverse=True)
        lead = None
        for v in vs:
            cx = v.center[0] + sgn * v.speed * dt
            if lead is not None:
                limit = lead.center[0] - sgn * (lead.vclass.length / 2 + v.vclass.length / 2 + _SPAWN_GAP)
                if sgn * cx > sgn * limit:
                    cx = limit
            moved = replace(v, center=(cx, v.center[1]))
            out.append(moved)
            lead = moved
    return sorted(out, key=lambda v: v.id)


@pytest.mark.parametrize("seed", [501, 503])
def test_advance_positions_equals_reference(seed, monkeypatch):
    # the acceptance-criterion-7 street: dense traffic exercises the gap clamp
    cfg = SceneConfig(frame_count=600, seed=seed, spawn_rate=0.6,
                      bs_position=(100.0, -8.0, 2.0))
    frames = generate_scenario(cfg)
    monkeypatch.setattr(scene_mod, "_advance_positions", _reference_advance_positions)
    assert generate_scenario(cfg) == frames
    assert sum(len(f.vehicles) for f in frames) > 10 * len(frames)


def test_despawn_at_street_end():
    cfg = SceneConfig(frame_count=3, spawn_rate=0.0, street_length_m=50.0,
                      initial_vehicles=(place(SceneConfig(street_length_m=50.0), 49.0, 0, 14.0),))
    # lane 0 has negative y -> travels +x; car at x=49 of a 50 m street
    frames = generate_scenario(cfg)
    assert len(frames[0].vehicles) == 1
    # after enough slots the footprint leaves the street and the car despawns
    fr = frames[0]
    streams = ScenarioStreams.from_seed(0)
    for _ in range(40):
        fr = advance_frame(fr, cfg, streams)
        if not fr.vehicles:
            break
    assert fr.vehicles == ()
    assert fr.target_user_id is None


def test_empty_frame_stays_empty_without_spawning():
    cfg = SceneConfig(frame_count=2, spawn_rate=0.0,
                      initial_vehicles=(place(SceneConfig(), 10.0, 0),))
    empty = Frame(0, (), None, None)
    nxt = advance_frame(empty, cfg, None)
    assert nxt.vehicles == ()
    assert nxt.target_user_id is None


def test_spawn_statistics_poisson_3sigma():
    # the recorded per-slot draw is the raw Poisson count before overlap
    # rejection, so its mean must match the configured rate
    cfg = make_config(frame_count=1001, spawn_rate=1.0, seed=5,
                      initial_vehicles=(place(SceneConfig(), 100.0, 1),))
    frames = generate_scenario(cfg)
    draws = [f.spawn_draw for f in frames[1:]]
    n = len(draws)
    mean = np.mean(draws)
    sigma = np.sqrt(1.0 / n)  # std of the mean of Poisson(1) draws
    assert abs(mean - 1.0) <= 3 * sigma


def test_no_interpenetration_and_bounds():
    cfg = make_config(frame_count=300, spawn_rate=0.8, seed=3)
    frames = generate_scenario(cfg)
    for fr in frames:
        fps = [v.footprint() for v in fr.vehicles]
        for i in range(len(fps)):
            a = fps[i]
            assert a[1] > 0 and a[0] < cfg.street_length_m  # intersects street
            for j in range(i + 1, len(fps)):
                b = fps[j]
                overlap = (a[0] < b[1] and b[0] < a[1]
                           and a[2] < b[3] and b[2] < a[3])
                assert not overlap, f"vehicles overlap in frame {fr.t_index}"


def test_speeds_within_configured_range():
    cfg = make_config(frame_count=200, spawn_rate=0.6, seed=9,
                      speed_range_mps=(8.0, 15.0))
    for fr in generate_scenario(cfg):
        for v in fr.vehicles:
            assert 8.0 <= v.speed <= 15.0


def test_target_user_and_antenna_position():
    cfg = make_config(frame_count=120, spawn_rate=0.5, seed=2)
    frames = generate_scenario(cfg)
    for fr in frames:
        if fr.target_user_id is None:
            assert fr.user_antenna_pos is None
            continue
        (tv,) = [v for v in fr.vehicles if v.id == fr.target_user_id]
        x, y, z = fr.user_antenna_pos
        assert (x, y) == tv.center
        assert z == tv.vclass.height  # roof-mounted antenna, exact


def test_target_persists_while_present():
    cfg = make_config(frame_count=150, spawn_rate=0.5, seed=4)
    frames = generate_scenario(cfg)
    for prev, cur in zip(frames, frames[1:]):
        if prev.target_user_id is not None and \
                any(v.id == prev.target_user_id for v in cur.vehicles):
            assert cur.target_user_id == prev.target_user_id


def test_ids_never_reused():
    cfg = make_config(frame_count=400, spawn_rate=0.8, seed=7)
    frames = generate_scenario(cfg)
    seen_max = -1
    alive = set()
    for fr in frames:
        ids = {v.id for v in fr.vehicles}
        new = ids - alive
        for i in new:
            assert i > seen_max or i in alive
        seen_max = max([seen_max, *ids]) if ids else seen_max
        alive = ids


def test_slot_arithmetic_surviving_ids():
    cfg = make_config(frame_count=100, spawn_rate=0.6, seed=13)
    frames = generate_scenario(cfg)
    for prev, cur in zip(frames, frames[1:]):
        moved = {}
        dt = cfg.slot_duration_s
        for v in prev.vehicles:
            sgn = 1.0 if cfg.lane_direction(v.lane) == 0.0 else -1.0
            moved[v.id] = v.center[0] + sgn * v.speed * dt
        for v in cur.vehicles:
            if v.id in moved:
                # equal unless clamped behind a slower leader
                sgn = 1.0 if cfg.lane_direction(v.lane) == 0.0 else -1.0
                assert sgn * v.center[0] <= sgn * moved[v.id] + 1e-12


def test_config_json_roundtrip():
    cfg = make_config(frame_count=10, spawn_rate=0.3, seed=21,
                      initial_vehicles=(place(SceneConfig(), 30.0, 2, 9.0, "bus"),))
    assert SceneConfig.from_dict(cfg.to_dict()) == cfg
