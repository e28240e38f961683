import numpy as np
import pytest

from oracles import corrupt_map, extract_mask, pixel_accuracy
from streetbeam.rng import stream
from streetbeam.scene import (CameraPose, ConfigError, Frame, SceneConfig, Vehicle,
                              generate_scenario, vehicle_boxes, vehicle_class)
from streetbeam.semantics import (BUILDING, CATALOG, CONCEPT_NAMES, GROUND,
                                  ROAD, ROADLINE, SIDEWALK, SKY, TERRAIN, VEHICLE,
                                  SemanticMap, render_frame, render_semantic_map)

RES = (48, 96)


# ---------------------------------------------------------------------------
# reference renderer: the straightforward per-vehicle z-buffer the cached,
# vectorized renderer must reproduce byte for byte

_ROADLINE_HALF_WIDTH = 0.12


def _reference_pixel_rays(camera, H, W):
    if camera.hfov <= 0:
        raise ConfigError("degenerate camera: field of view must be positive")
    fwd, right, up = camera.basis()
    focal = (W / 2) / np.tan(camera.hfov / 2)
    us = np.arange(W) - (W - 1) / 2
    vs = (H - 1) / 2 - np.arange(H)
    du, dv = np.meshgrid(us, vs)
    dirs = (fwd[None, None, :] * focal
            + right[None, None, :] * du[..., None]
            + up[None, None, :] * dv[..., None])
    return dirs  # (H, W, 3), unnormalized


def _reference_ground_labels(x, y, config):
    lab = np.full(x.shape, TERRAIN, dtype=np.uint8)
    in_street = (x >= 0) & (x <= config.street_length_m)
    rh = config.road_half_width
    on_road = in_street & (np.abs(y) <= rh)
    lab[on_road] = ROAD
    boundaries = -rh + config.lane_width_m * np.arange(config.lane_count + 1)
    on_line = np.zeros(x.shape, dtype=bool)
    for b in boundaries:
        on_line |= np.abs(y - b) <= _ROADLINE_HALF_WIDTH
    lab[on_road & on_line] = ROADLINE
    on_sidewalk = in_street & (np.abs(y) > rh) & (np.abs(y) <= rh + config.sidewalk_width_m)
    lab[on_sidewalk] = SIDEWALK
    return lab


def _reference_render(frame, camera, config, resolution):
    H, W = resolution
    if H < 16 or W < 16:
        raise ConfigError("render resolution must be at least 16x16")
    pos = np.asarray(camera.position, dtype=float)
    dirs = _reference_pixel_rays(camera, H, W)

    labels = np.full((H, W), SKY, dtype=np.uint8)
    depth = np.full((H, W), np.inf)

    dz = dirs[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -pos[2] / dz
    hit = (dz < 0) & (t > 0)
    gx = pos[0] + t * dirs[..., 0]
    gy = pos[1] + t * dirs[..., 1]
    glab = _reference_ground_labels(gx, gy, config)
    take = hit & (t < depth)
    labels[take] = glab[take]
    depth[take] = t[take]

    for yf in (config.facade_y, -config.facade_y):
        dy = dirs[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (yf - pos[1]) / dy
        fx = pos[0] + t * dirs[..., 0]
        fz = pos[2] + t * dirs[..., 2]
        hit = (np.abs(dy) > 0) & (t > 0) \
            & (fx >= 0) & (fx <= config.street_length_m) \
            & (fz >= 0) & (fz <= config.building_height_m)
        take = hit & (t < depth)
        labels[take] = BUILDING
        depth[take] = t[take]

    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(dirs != 0, 1.0 / dirs, np.inf)
    fwd, right, up = camera.basis()
    focal = (W / 2) / np.tan(camera.hfov / 2)
    for v in frame.vehicles:
        lo, hi = vehicle_boxes([v])[0]
        corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                            for y in (lo[1], hi[1])
                            for z in (lo[2], hi[2])]) - pos
        f = corners @ fwd
        if np.all(f <= 0):
            continue
        if np.any(f <= 1e-9):
            r0, r1, c0, c1 = 0, H, 0, W  # straddles the image plane
        else:
            cols = focal * (corners @ right) / f + (W - 1) / 2
            rows = (H - 1) / 2 - focal * (corners @ up) / f
            c0 = max(int(np.floor(cols.min())), 0)
            c1 = min(int(np.ceil(cols.max())) + 1, W)
            r0 = max(int(np.floor(rows.min())), 0)
            r1 = min(int(np.ceil(rows.max())) + 1, H)
            if r0 >= r1 or c0 >= c1:
                continue
        sub = np.s_[r0:r1, c0:c1]
        with np.errstate(invalid="ignore"):
            t1 = (lo[None, None, :] - pos) * inv[sub]
            t2 = (hi[None, None, :] - pos) * inv[sub]
        tnear = np.minimum(t1, t2).max(axis=-1)
        tfar = np.maximum(t1, t2).min(axis=-1)
        hit = (tnear <= tfar) & (tfar > 0)
        t = np.where(tnear > 0, tnear, tfar)
        take = hit & (t < depth[sub])
        labels[sub][take] = VEHICLE
        depth[sub][take] = t[take]
    return labels


def criterion7_frames(seed, frame_count=300):
    cfg = SceneConfig(frame_count=frame_count, seed=seed, spawn_rate=0.6,
                      bs_position=(100.0, -8.0, 2.0))
    return cfg, generate_scenario(cfg)


def empty_frame():
    return Frame(0, (), None, None)


def car_at(x, y, vid=0, name="car"):
    vc = vehicle_class(name)
    return Vehicle(vid, vc, (x, y), 0.0, 10.0, 1)


def test_catalog_exact():
    assert CONCEPT_NAMES == (
        "building", "fence", "pedestrian", "pole", "roadline",
        "sidewalk", "vegetation", "vehicle", "wall", "trafficsign",
        "sky", "ground", "bridge", "railtrack", "trafficlight",
        "static", "dynamic", "water", "terrain", "unlabeled",
    )
    assert CATALOG.M_con == 20
    for i, name in enumerate(CONCEPT_NAMES):
        assert CATALOG.index(name) == i


def test_empty_scene_labels():
    cfg = SceneConfig()
    cam = cfg.camera_poses[0]
    smap = render_semantic_map(empty_frame(), cam, cfg, RES)
    labs = set(np.unique(smap.labels))
    allowed = {SKY, BUILDING, GROUND, SIDEWALK, ROADLINE, TERRAIN}
    assert labs <= allowed
    # level camera: everything above the horizon row is sky or facade
    H = RES[0]
    top = smap.labels[: H // 2 - 1]
    assert set(np.unique(top)) <= {SKY, BUILDING}
    assert GROUND in labs
    # a camera pitched above the facade tops sees sky
    up_cam = CameraPose(cam.position, cam.yaw, pitch=1.0, hfov=cam.hfov)
    up = render_semantic_map(empty_frame(), up_cam, cfg, RES)
    assert SKY in set(np.unique(up.labels))


def test_vehicle_mask_inside_projected_bbox():
    cfg = SceneConfig()
    cam = cfg.camera_poses[0]
    car = car_at(cfg.street_length_m / 2, cfg.lane_center_y(1))
    smap = render_semantic_map(Frame(0, (car,), 0, None), cam, cfg, RES)
    ys, xs = np.nonzero(smap.labels == VEHICLE)
    assert len(ys) > 0

    # projection oracle: project the 8 box corners through the same pinhole
    H, W = RES
    fwd, right, up = cam.basis()
    focal = (W / 2) / np.tan(cam.hfov / 2)
    lo, hi = vehicle_boxes([car])[0]
    rows, cols = [], []
    for cx in (lo[0], hi[0]):
        for cy in (lo[1], hi[1]):
            for cz in (lo[2], hi[2]):
                d = np.array([cx, cy, cz]) - np.asarray(cam.position)
                xc, yc, zc = d @ fwd, d @ right, d @ up
                assert xc > 0
                cols.append(focal * yc / xc + (W - 1) / 2)
                rows.append((H - 1) / 2 - focal * zc / xc)
    pad = 1.0  # pixel-center sampling tolerance
    assert xs.min() >= np.floor(min(cols)) - pad
    assert xs.max() <= np.ceil(max(cols)) + pad
    assert ys.min() >= np.floor(min(rows)) - pad
    assert ys.max() <= np.ceil(max(rows)) + pad


def test_vehicle_behind_camera_culled():
    cfg = SceneConfig()
    cam = CameraPose((50.0, 0.0, 5.0), yaw=0.0, pitch=0.0, hfov=1.2)
    car = car_at(30.0, 0.0)  # behind the +x-facing camera
    smap = render_semantic_map(Frame(0, (car,), 0, None), cam, cfg, RES)
    assert not (smap.labels == VEHICLE).any()


def test_nearer_vehicle_occludes_farther():
    cfg = SceneConfig()
    cam = CameraPose((0.0, 0.0, 1.0), yaw=0.0, pitch=0.0, hfov=1.2)
    near = car_at(10.0, 0.0, vid=0, name="bus")
    far = car_at(20.0, 0.0, vid=1, name="bus")
    both = render_semantic_map(Frame(0, (near, far), 0, None), cam, cfg, RES)
    only_near = render_semantic_map(Frame(0, (near,), 0, None), cam, cfg, RES)
    # identical geometry on the near box's pixels: the far bus is hidden
    near_px = only_near.labels == VEHICLE
    assert near_px.any()
    assert np.array_equal(both.labels[near_px], only_near.labels[near_px])


def test_resolution_and_camera_validation():
    # raised on every call, also once the camera view is cached
    cfg = SceneConfig()
    cam = cfg.camera_poses[0]
    render_semantic_map(empty_frame(), cam, cfg, (16, 16))  # fills the cache
    for _ in range(2):
        for res in ((8, 8), (15, 32), (32, 15)):
            with pytest.raises(ConfigError):
                render_semantic_map(empty_frame(), cam, cfg, res)
        for hfov in (0.0, -0.5):
            bad = CameraPose(cam.position, cam.yaw, cam.pitch, hfov)
            with pytest.raises(ConfigError):
                render_semantic_map(empty_frame(), bad, cfg, (16, 16))


def test_render_frame_per_camera():
    cfg = SceneConfig()
    maps = render_frame(empty_frame(), cfg, RES)
    assert len(maps) == len(cfg.camera_poses)
    assert [m.camera_id for m in maps] == list(range(len(maps)))


def test_masks_partition_and_histogram():
    rng = stream(0, "test.masks")
    labels = rng.integers(0, CATALOG.M_con, size=(32, 64)).astype(np.uint8)
    smap = SemanticMap(0, labels)
    hist = np.bincount(labels.reshape(-1), minlength=CATALOG.M_con)
    union = np.zeros_like(labels)
    for c in range(CATALOG.M_con):
        m = extract_mask(smap, c)
        assert m.sum() == hist[c]
        assert not (union & m).any()  # pairwise disjoint
        union |= m
    assert (union == 1).all()


def test_extract_mask_errors_and_trivial():
    smap = SemanticMap(0, np.full((16, 16), SKY, dtype=np.uint8))
    assert extract_mask(smap, VEHICLE).sum() == 0
    with pytest.raises(IndexError):
        extract_mask(smap, CATALOG.M_con)
    with pytest.raises(IndexError):
        extract_mask(smap, -1)


def test_corrupt_map_p0_identity():
    labels = np.arange(16 * 20, dtype=np.uint8).reshape(16, 20) % 20
    smap = SemanticMap(0, labels)
    out = corrupt_map(smap, 0.0, stream(0, "c"))
    assert np.array_equal(out.labels, labels)


def test_corrupt_map_p1_uniform_3sigma():
    n = 200 * 200
    smap = SemanticMap(0, np.zeros((200, 200), dtype=np.uint8))
    out = corrupt_map(smap, 1.0, stream(1, "c"))
    counts = np.bincount(out.labels.reshape(-1), minlength=20)
    p = 1 / 20
    sigma = np.sqrt(n * p * (1 - p))
    for c in counts:
        assert abs(c - n * p) <= 3 * sigma


def test_corrupt_map_accuracy_bernoulli_oracle():
    # accuracy expectation 1 - p (M-1)/M = 0.905 at p = 0.1, M = 20
    n = 300 * 300
    labels = stream(2, "lab").integers(0, 20, size=(300, 300)).astype(np.uint8)
    smap = SemanticMap(0, labels)
    out = corrupt_map(smap, 0.1, stream(3, "c"))
    acc = pixel_accuracy([out], [smap])
    exp = 0.905
    sigma = np.sqrt(exp * (1 - exp) / n)
    assert abs(acc - exp) <= 3 * sigma


def test_pixel_accuracy_cases():
    a = SemanticMap(0, np.zeros((16, 16), dtype=np.uint8))
    b = SemanticMap(0, np.ones((16, 16), dtype=np.uint8))
    assert pixel_accuracy([a], [a]) == 1.0
    assert pixel_accuracy([a], [b]) == 0.0
    m1 = SemanticMap(0, np.array([[0, 1], [2, 3]], dtype=np.uint8))
    m2 = SemanticMap(0, np.array([[0, 1], [2, 9]], dtype=np.uint8))
    assert pixel_accuracy([m1], [m2]) == 0.75
    with pytest.raises(ValueError):
        pixel_accuracy([a], [a, b])
    with pytest.raises(ValueError):
        pixel_accuracy([a], [SemanticMap(0, np.zeros((8, 8), dtype=np.uint8))])


def test_render_deterministic():
    cfg = SceneConfig()
    car = car_at(90.0, cfg.lane_center_y(2))
    fr = Frame(0, (car,), 0, None)
    a = render_semantic_map(fr, cfg.camera_poses[0], cfg, RES)
    b = render_semantic_map(fr, cfg.camera_poses[0], cfg, RES)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("resolution,seed", [((80, 160), 3), ((16, 32), 11), ((16, 16), 19)])
def test_render_matches_reference_on_criterion7_street(resolution, seed):
    cfg, frames = criterion7_frames(seed)
    vehicles = 0
    for fr in frames[40::2]:
        maps = render_frame(fr, cfg, resolution)
        assert [m.camera_id for m in maps] == list(range(len(cfg.camera_poses)))
        for cam, m in zip(cfg.camera_poses, maps):
            ref = _reference_render(fr, cam, cfg, resolution)
            assert m.labels.dtype == np.uint8 and m.labels.shape == resolution
            assert m.labels.tobytes() == ref.tobytes(), f"frame {fr.t_index}"
            vehicles += int((ref == VEHICLE).sum())
    assert vehicles > 0


def test_render_matches_reference_on_edge_cases():
    cfg, frames = criterion7_frames(23, frame_count=200)
    cams = (
        CameraPose((60.0, -9.0, 8.0), yaw=0.5, pitch=-0.4, hfov=1.1),    # along the street
        CameraPose([140.0, 9.0, 3.0], yaw=-2.6, pitch=0.15, hfov=2.2),   # list position
        CameraPose((50.0, 1.5, 2.0), yaw=0.0, pitch=-0.3, hfov=1.2),
    )
    straddling = car_at(50.0, 0.0)    # spans x 48.1..51.9 around the third camera
    behind = car_at(30.0, 3.0, vid=1)  # fully behind the third camera
    edge_frames = [empty_frame(), Frame(0, (straddling,), 0, None),
                   Frame(0, (behind,), 1, None), Frame(0, (straddling, behind), 0, None)]
    res = (32, 64)
    for fr in edge_frames + frames[100::10]:
        for cam in cams:
            got = render_semantic_map(fr, cam, cfg, res).labels
            assert got.tobytes() == _reference_render(fr, cam, cfg, res).tobytes()
    front = render_semantic_map(Frame(0, (straddling,), 0, None), cams[2], cfg, res).labels
    assert (front == VEHICLE).any()
    back = render_semantic_map(Frame(0, (behind,), 1, None), cams[2], cfg, res).labels
    assert not (back == VEHICLE).any()


def test_background_cache_keyed_on_pose_resolution_and_geometry():
    # same cameras, different street geometry: no stale background is served
    frame = Frame(0, (car_at(95.0, -5.25), car_at(110.0, 1.75, vid=1, name="bus")), 0, None)
    cams = SceneConfig().camera_poses
    for geometry in ({}, {"building_height_m": 4.0}, {"lane_count": 2},
                     {"street_length_m": 120.0}, {"sidewalk_width_m": 4.0},
                     {"building_setback_m": 0.5}, {"lane_width_m": 3.0}):
        cfg = SceneConfig(camera_poses=cams, **geometry)
        for res in ((16, 16), (24, 40)):
            for i, m in enumerate(render_frame(frame, cfg, res)):
                assert m.labels.tobytes() == _reference_render(frame, cams[i], cfg, res).tobytes()


def test_render_with_unhashable_config_fields():
    cfg = SceneConfig(bs_position=[100.0, -8.0, 2.0],
                      initial_vehicles=[("car", [100.0, -5.25], 1, 10.0)])
    with pytest.raises(TypeError):
        hash(cfg)
    frame = generate_scenario(cfg)[0]
    for i, m in enumerate(render_frame(frame, cfg, RES)):
        assert m.labels.tobytes() == _reference_render(frame, cfg.camera_poses[i], cfg, RES).tobytes()


def test_returned_labels_do_not_alias_the_cache():
    cfg = SceneConfig()
    cam = cfg.camera_poses[0]
    fr = Frame(0, (car_at(100.0, cfg.lane_center_y(1)),), 0, None)
    first = render_semantic_map(fr, cam, cfg, RES)
    first.labels[:] = VEHICLE
    again = render_semantic_map(empty_frame(), cam, cfg, RES)
    assert again.labels.tobytes() == _reference_render(empty_frame(), cam, cfg, RES).tobytes()
    assert render_semantic_map(fr, cam, cfg, RES).labels.tobytes() \
        == _reference_render(fr, cam, cfg, RES).tobytes()
