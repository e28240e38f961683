import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import Vehicle, frame_boxes, frame_fields, make_frame
from streetbeam.scene import (BUS, CAR, VAN, ConfigError, SceneConfig, generate_scenario,
                              to_plain, vehicle_class)


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


def test_frame_boxes_corners():
    car = Vehicle(1, CAR, (10.0, 1.75), 0.0, 10.0, 1)
    bus = Vehicle(2, BUS, (40.0, -1.75), np.pi, 9.0, 2)
    boxes = frame_boxes(make_frame((car, bus)))
    assert boxes.shape == (2, 2, 3) and boxes.dtype == np.float64
    for v, (lo, hi) in zip((car, bus), boxes):
        xmin, xmax, ymin, ymax = v.footprint()
        assert lo.tolist() == [xmin, ymin, 0.0]
        assert hi.tolist() == [xmax, ymax, v.vclass.height]
    assert frame_boxes(make_frame()).shape == (0, 2, 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(frame_count=0)
    with pytest.raises(ConfigError):
        SceneConfig(slot_duration_s=0.0)
    with pytest.raises(ConfigError):
        SceneConfig(speed_range_mps=(15.0, 8.0))
    with pytest.raises(ConfigError):
        SceneConfig(speed_range_mps=(-1.0, 8.0))
    with pytest.raises(ConfigError):
        SceneConfig(spawn_rate=-0.1)
    with pytest.raises(ConfigError):
        generate_scenario(SceneConfig(spawn_rate=0.0, initial_vehicles=()))
    # zero sidewalk and setback are a street; zero lengths are not
    SceneConfig(sidewalk_width_m=0.0, building_setback_m=0.0)
    for name in ("street_length_m", "lane_width_m", "building_height_m", "slot_duration_s"):
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match=name):
                SceneConfig(**{name: bad})


def test_initial_vehicle_center_within_its_lane():
    cfg = SceneConfig()
    axis, half = cfg.lane_center_y(1), cfg.lane_width_m / 2
    for dy in (-half, 0.0, half):
        SceneConfig(initial_vehicles=(("car", (50.0, axis + dy), 1, 10.0),))
    for dy in (-half - 1e-9, half + 1e-9, 2 * half):
        with pytest.raises(ConfigError, match="off lane 1"):
            SceneConfig(initial_vehicles=(("car", (50.0, axis + dy), 1, 10.0),))


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
    x0 = frames[0].x[0]
    sgn = float(cfg.lane_sign(1))
    for t, fr in enumerate(frames):
        assert len(fr.ids) == 1
        assert fr.x[0] == pytest.approx(10.0 + sgn * 10.0 * 0.05 * t)
    # 20 slots at 10 m/s -> 10 m displacement along the lane
    assert abs(frames[20].x[0] - x0) == pytest.approx(10.0)


def test_determinism_bitwise():
    cfg = make_config(frame_count=60, spawn_rate=0.4, seed=11)
    a = generate_scenario(cfg)
    b = generate_scenario(cfg)
    assert [frame_fields(f) for f in a] == [frame_fields(f) for f in b]


CRITERION7 = dict(frame_count=600, spawn_rate=0.6, bs_position=(100.0, -8.0, 2.0))


@pytest.mark.parametrize("cfg", [
    *(SceneConfig(seed=seed, **CRITERION7) for seed in range(501, 511)),
    SceneConfig(seed=0),
    SceneConfig(seed=1),
    SceneConfig(spawn_rate=1.5),
    # pre-placed vehicles with integer centers and a parked bus
    SceneConfig(frame_count=300, spawn_rate=0.5, seed=7, initial_vehicles=(
        ("car", (50.0, 1.75), 2, 10.0), ("bus", (60, 1.75), 2, 0.0),
        ("van", (80.0, -1.75), 1, 9.0), ("van", (10, -1.75), 1, 3.0))),
], ids=[*(f"crit7-{seed}" for seed in range(501, 511)), "default-0", "default-1",
        "spawn-1.5", "initial"])
def test_frames_equal_object_generator(cfg):
    """Every frame, box and antenna position equals the object-based
    generator's bitwise."""
    want = oracles.generate_scenario(cfg)
    got = generate_scenario(cfg)
    assert len(got) == len(want) == cfg.frame_count
    for g, w in zip(got, want):
        assert frame_fields(g) == frame_fields(make_frame(w.vehicles, w.target_user_id,
                                                          w.t_index, w.spawn_draw))
        assert g.user_antenna_pos == w.user_antenna_pos
        assert frame_boxes(g).tobytes() == oracles.vehicle_boxes(w.vehicles).tobytes()
    if cfg.spawn_rate == CRITERION7["spawn_rate"]:
        # dense traffic exercises the gap clamp
        assert sum(len(f.ids) for f in got) > 10 * len(got)


@st.composite
def scene_configs(draw):
    """Streets of 1 to 6 lanes and 20 to 300 m, spawn rates from 0 to 2,
    speed ranges with equal bounds and 0, and up to 4 pre-placed vehicles,
    some parked, some on one spot (at least one when nothing spawns)."""
    lanes, length = draw(st.integers(1, 6)), draw(st.floats(20, 300))
    low = draw(st.sampled_from([0.0, 8.0]) | st.floats(0, 20))
    high = draw(st.just(low) | st.floats(low, 25))
    rate = draw(st.sampled_from([0.0, 2.0]) | st.floats(0, 2))
    street = SceneConfig(street_length_m=length, lane_count=lanes)
    vehicles = []
    for _ in range(draw(st.integers(1 if rate == 0 else 0, 4))):
        lane = draw(st.integers(0, lanes - 1))
        x = draw(st.sampled_from([length / 2, 5.0]) | st.floats(0, length))
        y = street.lane_center_y(lane) + draw(st.floats(-0.9, 0.9)) * street.lane_width_m / 2
        speed = draw(st.just(0.0) | st.floats(0, 20))
        vehicles.append((draw(st.sampled_from(["car", "van", "bus"])), (x, y), lane, speed))
    return SceneConfig(street_length_m=length, lane_count=lanes, spawn_rate=rate,
                       speed_range_mps=(low, high), frame_count=draw(st.integers(1, 120)),
                       seed=draw(st.integers(0, 2**32)), initial_vehicles=tuple(vehicles))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scene_configs())
def test_frames_equal_object_generator_on_random_streets(cfg):
    want = oracles.generate_scenario(cfg)
    got = generate_scenario(cfg)
    assert [frame_fields(g) for g in got] == [
        frame_fields(make_frame(w.vehicles, w.target_user_id, w.t_index, w.spawn_draw))
        for w in want]
    assert [g.user_antenna_pos for g in got] == [w.user_antenna_pos for w in want]


def test_despawn_at_street_end():
    cfg = SceneConfig(frame_count=40, spawn_rate=0.0, street_length_m=50.0,
                      initial_vehicles=(place(SceneConfig(street_length_m=50.0), 49.0, 0, 14.0),))
    # lane 0 has negative y -> travels +x; car at x=49 of a 50 m street
    frames = generate_scenario(cfg)
    assert len(frames[0].ids) == 1
    # after enough slots the footprint leaves the street and the car despawns
    fr = frames[-1]
    assert fr.ids.shape == (0,)
    assert fr.target_user_id is None


def test_empty_frame_stays_empty_without_spawning():
    # at 3 m a slot the car leaves the street on the first move; none spawns after it
    cfg = SceneConfig(frame_count=3, spawn_rate=0.0,
                      initial_vehicles=(place(SceneConfig(), 199.0, 0, 60.0),))
    for nxt in generate_scenario(cfg)[1:]:
        assert nxt.ids.shape == (0,) and frame_boxes(nxt).shape == (0, 2, 3)
        assert nxt.target_user_id is None
        assert nxt.user_antenna_pos is None


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
        fps = [(lo[0], hi[0], lo[1], hi[1]) for lo, hi in frame_boxes(fr).tolist()]
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
        assert ((8.0 <= fr.speed) & (fr.speed <= 15.0)).all()


def test_target_user_and_antenna_position():
    cfg = make_config(frame_count=120, spawn_rate=0.5, seed=2)
    frames = generate_scenario(cfg)
    for fr in frames:
        if fr.target_user_id is None:
            assert fr.user_antenna_pos is None
            continue
        (i,) = np.flatnonzero(fr.ids == fr.target_user_id)
        x, y, z = fr.user_antenna_pos
        assert (x, y) == (fr.x[i], fr.y[i])
        assert z == (CAR, VAN, BUS)[fr.classes[i]].height  # roof-mounted antenna, exact


def test_target_persists_while_present():
    cfg = make_config(frame_count=150, spawn_rate=0.5, seed=4)
    frames = generate_scenario(cfg)
    for prev, cur in zip(frames, frames[1:]):
        if prev.target_user_id is not None and \
                prev.target_user_id in cur.ids:
            assert cur.target_user_id == prev.target_user_id


def test_ids_never_reused():
    cfg = make_config(frame_count=400, spawn_rate=0.8, seed=7)
    frames = generate_scenario(cfg)
    seen_max = -1
    alive = set()
    for fr in frames:
        ids = set(fr.ids.tolist())
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
        sgn = cfg.lane_sign(prev.lane)
        moved.update(zip(prev.ids.tolist(), prev.x + sgn * prev.speed * dt))
        for vid, x, lane in zip(cur.ids.tolist(), cur.x, cur.lane):
            if vid in moved:
                # equal unless clamped behind a slower leader
                sgn = cfg.lane_sign(lane)
                assert sgn * x <= sgn * moved[vid] + 1e-12


def test_config_json_roundtrip():
    cfg = make_config(frame_count=10, spawn_rate=0.3, seed=21,
                      initial_vehicles=(place(SceneConfig(), 30.0, 2, 9.0, "bus"),))
    assert SceneConfig.from_dict(to_plain(cfg)) == cfg
