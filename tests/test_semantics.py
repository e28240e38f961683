import functools
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (Vehicle, corrupt_map, extract_mask, frame_boxes, make_frame,
                     pixel_accuracy, vehicle_boxes)
from streetbeam.rng import stream
from streetbeam.scene import (CAR, CameraPose, ConfigError, SceneConfig, generate_scenario,
                              vehicle_class)
from streetbeam import semantics
from streetbeam.semantics import (BUILDING, CATALOG, CONCEPT_NAMES, GROUND, MAX_SIDE,
                                  ROAD, ROADLINE, SIDEWALK, SKY, TERRAIN, VEHICLE,
                                  render_frame, render_frames)

RES = (48, 96)


# ---------------------------------------------------------------------------
# reference renderer: the straightforward per-vehicle z-buffer the
# vectorized renderer must reproduce byte for byte

_ROADLINE_HALF_WIDTH = 0.12


def _reference_pixel_rays(camera, H, W):
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
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * inf on a parallel ray
        t = -pos[2] / dz
        gx = pos[0] + t * dirs[..., 0]
        gy = pos[1] + t * dirs[..., 1]
    hit = (dz < 0) & (t > 0)
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
    for lo, hi in frame_boxes(frame):
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


def render_one(frame, camera, config, resolution):
    """The (H, W) labels of ``frame`` seen by ``camera`` alone."""
    return render_frame(frame, replace(config, camera_poses=(camera,)), resolution)[0]


def empty_frame():
    return make_frame()


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
    assert CATALOG.names == CONCEPT_NAMES
    for i, name in enumerate(CONCEPT_NAMES):
        assert CATALOG.index(name) == i


def test_empty_scene_labels():
    cfg = SceneConfig()
    cam = cfg.camera_poses[0]
    labels = render_one(empty_frame(), cam, cfg, RES)
    labs = set(np.unique(labels))
    allowed = {SKY, BUILDING, GROUND, SIDEWALK, ROADLINE, TERRAIN}
    assert labs <= allowed
    # level camera: everything above the horizon row is sky or facade
    H = RES[0]
    top = labels[: H // 2 - 1]
    assert set(np.unique(top)) <= {SKY, BUILDING}
    assert GROUND in labs
    # a camera pitched above the facade tops sees sky
    up_cam = CameraPose(cam.position, cam.yaw, pitch=1.0, hfov=cam.hfov)
    up = render_one(empty_frame(), up_cam, cfg, RES)
    assert SKY in set(np.unique(up))


def test_vehicle_mask_inside_projected_bbox():
    cfg = SceneConfig()
    cam = cfg.camera_poses[0]
    car = car_at(cfg.street_length_m / 2, cfg.lane_center_y(1))
    labels = render_one(make_frame((car,)), cam, cfg, RES)
    ys, xs = np.nonzero(labels == VEHICLE)
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
    labels = render_one(make_frame((car,)), cam, cfg, RES)
    assert not (labels == VEHICLE).any()


def test_nearer_vehicle_occludes_farther():
    cfg = SceneConfig()
    cam = CameraPose((0.0, 0.0, 1.0), yaw=0.0, pitch=0.0, hfov=1.2)
    near = car_at(10.0, 0.0, vid=0, name="bus")
    far = car_at(20.0, 0.0, vid=1, name="bus")
    both = render_one(make_frame((near, far)), cam, cfg, RES)
    only_near = render_one(make_frame((near,)), cam, cfg, RES)
    # identical geometry on the near box's pixels: the far bus is hidden
    near_px = only_near == VEHICLE
    assert near_px.any()
    assert np.array_equal(both[near_px], only_near[near_px])


def test_resolution_and_camera_validation():
    # raised on every call, also after a valid one
    cfg = SceneConfig()
    cam = cfg.camera_poses[0]
    render_frame(empty_frame(), cfg, (16, 16))
    for _ in range(2):
        for res in ((8, 8), (15, 32), (32, 15), (16, MAX_SIDE + 1), (10**5, 10**5)):
            with pytest.raises(ConfigError):
                render_frame(empty_frame(), cfg, res)
    # a degenerate camera never reaches the renderer: the config rejects it
    # (at hfov pi the focal length is about 0, past it negative)
    for hfov in (0.0, -0.5, np.pi, 3.5):
        bad = CameraPose(cam.position, cam.yaw, cam.pitch, hfov)
        with pytest.raises(ConfigError):
            replace(cfg, camera_poses=(cam, bad))


def test_render_frame_per_camera():
    cfg = SceneConfig()
    fr = make_frame((car_at(100.0, cfg.lane_center_y(1)),))
    maps = render_frame(fr, cfg, RES)
    assert maps.dtype == np.uint8 and maps.shape == (len(cfg.camera_poses), *RES)
    for cam, m in zip(cfg.camera_poses, maps):
        assert m.tobytes() == render_one(fr, cam, cfg, RES).tobytes()


def test_masks_partition_and_histogram():
    rng = stream(0, "test.masks")
    labels = rng.integers(0, len(CONCEPT_NAMES), size=(32, 64)).astype(np.uint8)
    hist = np.bincount(labels.reshape(-1), minlength=len(CONCEPT_NAMES))
    union = np.zeros_like(labels)
    for c in range(len(CONCEPT_NAMES)):
        m = extract_mask(labels, c)
        assert m.sum() == hist[c]
        assert not (union & m).any()  # pairwise disjoint
        union |= m
    assert (union == 1).all()


def test_extract_mask_errors_and_trivial():
    labels = np.full((16, 16), SKY, dtype=np.uint8)
    assert extract_mask(labels, VEHICLE).sum() == 0
    with pytest.raises(IndexError):
        extract_mask(labels, len(CONCEPT_NAMES))
    with pytest.raises(IndexError):
        extract_mask(labels, -1)


def test_corrupt_map_p0_identity():
    labels = np.arange(16 * 20, dtype=np.uint8).reshape(16, 20) % 20
    out = corrupt_map(labels, 0.0, stream(0, "c"))
    assert np.array_equal(out, labels)


def test_corrupt_map_p1_uniform_3sigma():
    n = 200 * 200
    out = corrupt_map(np.zeros((200, 200), dtype=np.uint8), 1.0, stream(1, "c"))
    counts = np.bincount(out.reshape(-1), minlength=20)
    p = 1 / 20
    sigma = np.sqrt(n * p * (1 - p))
    for c in counts:
        assert abs(c - n * p) <= 3 * sigma


def test_corrupt_map_accuracy_bernoulli_oracle():
    # accuracy expectation 1 - p (M-1)/M = 0.905 at p = 0.1, M = 20
    n = 300 * 300
    labels = stream(2, "lab").integers(0, 20, size=(300, 300)).astype(np.uint8)
    out = corrupt_map(labels, 0.1, stream(3, "c"))
    acc = pixel_accuracy([out], [labels])
    exp = 0.905
    sigma = np.sqrt(exp * (1 - exp) / n)
    assert abs(acc - exp) <= 3 * sigma


def test_pixel_accuracy_cases():
    a = np.zeros((16, 16), dtype=np.uint8)
    b = np.ones((16, 16), dtype=np.uint8)
    assert pixel_accuracy([a], [a]) == 1.0
    assert pixel_accuracy([a], [b]) == 0.0
    m1 = np.array([[0, 1], [2, 3]], dtype=np.uint8)
    m2 = np.array([[0, 1], [2, 9]], dtype=np.uint8)
    assert pixel_accuracy([m1], [m2]) == 0.75
    with pytest.raises(ValueError):
        pixel_accuracy([a], [a, b])
    with pytest.raises(ValueError):
        pixel_accuracy([a], [np.zeros((8, 8), dtype=np.uint8)])


def test_render_deterministic():
    cfg = SceneConfig()
    car = car_at(90.0, cfg.lane_center_y(2))
    fr = make_frame((car,))
    a = render_one(fr, cfg.camera_poses[0], cfg, RES)
    b = render_one(fr, cfg.camera_poses[0], cfg, RES)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("resolution,seed", [((80, 160), 3), ((16, 32), 11), ((16, 16), 19)])
def test_render_matches_reference_on_criterion7_street(resolution, seed):
    cfg, frames = criterion7_frames(seed)
    vehicles = 0
    for fr in frames[40::2]:
        maps = render_frame(fr, cfg, resolution)
        assert maps.dtype == np.uint8 and maps.shape == (len(cfg.camera_poses), *resolution)
        for cam, m in zip(cfg.camera_poses, maps):
            ref = _reference_render(fr, cam, cfg, resolution)
            assert m.tobytes() == ref.tobytes(), f"frame {fr.t_index}"
            vehicles += int((ref == VEHICLE).sum())
    assert vehicles > 0


EDGE_CAMS = (
    CameraPose((60.0, -9.0, 8.0), yaw=0.5, pitch=-0.4, hfov=1.1),    # along the street
    CameraPose([140.0, 9.0, 3.0], yaw=-2.6, pitch=0.15, hfov=2.2),   # list position
    CameraPose((50.0, 1.5, 2.0), yaw=0.0, pitch=-0.3, hfov=1.2),
)


def edge_frames():
    """An empty frame, then a car straddling the third edge camera's image
    plane (x 48.1..51.9), a car fully behind it, and both."""
    straddling, behind = car_at(50.0, 0.0), car_at(30.0, 3.0, vid=1)
    return [empty_frame(), make_frame((straddling,)), make_frame((behind,)),
            make_frame((straddling, behind))]


# a level camera, a pitched and yawed one and one of hfov 3.0, whose frustum
# planes run nearly sideways
FRUSTUM_CAMS = (SceneConfig().camera_poses[0], EDGE_CAMS[0],
                CameraPose((100.0, 9.0, 3.0), yaw=-np.pi / 2, pitch=0.1, hfov=3.0))


def frustum_cars(cam):
    """Per horizontal frustum plane of ``cam``, first the plane of its left
    image edge: a car 1 cm wholly outside the plane, then one straddling it
    with its centre outside, both about 12 m out along the plane. A plane
    passes through the camera with normal n = +-right - tan(hfov / 2) fwd,
    and the least n . p over a box is n . c - |n| . e for its centre c and
    half extents e."""
    fwd, right, _ = cam.basis()
    pos = np.asarray(cam.position, dtype=float)
    half = np.array([CAR.length, CAR.width, CAR.height]) / 2
    ahead = 12.0 * np.cos(cam.hfov / 2)  # the plane's forward distance 12 m out
    dz = half[2] - pos[2]  # the car's centre height, relative to the camera
    cars = []
    for n in (-right - np.tan(cam.hfov / 2) * fwd, right - np.tan(cam.hfov / 2) * fwd):
        extent = np.abs(n) @ half
        for least in (0.01 * np.linalg.norm(n), -extent / 2):
            # solve the centre's n . c and fwd . c for its x and y
            want = [least + extent - n[2] * dz, ahead - fwd[2] * dz]
            dx, dy = np.linalg.solve([n[:2], fwd[:2]], want)
            cars.append(car_at(pos[0] + dx, pos[1] + dy, vid=len(cars)))
    return cars


def test_render_matches_reference_on_edge_cases():
    cfg, frames = criterion7_frames(23, frame_count=200)
    res = (32, 64)
    edges = edge_frames()
    for fr in edges + frames[100::10]:
        for cam in EDGE_CAMS:
            got = render_one(fr, cam, cfg, res)
            assert got.tobytes() == _reference_render(fr, cam, cfg, res).tobytes()
    front = render_one(edges[1], EDGE_CAMS[2], cfg, res)
    assert (front == VEHICLE).any()
    back = render_one(edges[2], EDGE_CAMS[2], cfg, res)
    assert not (back == VEHICLE).any()
    # cars just outside a frustum plane show no pixel, straddling ones do
    for cam in FRUSTUM_CAMS:
        cars = frustum_cars(cam)
        for i, fr in enumerate([make_frame((car,)) for car in cars] + [make_frame(cars)]):
            got = render_one(fr, cam, cfg, res)
            assert got.tobytes() == _reference_render(fr, cam, cfg, res).tobytes(), (cam, i)
            if i < len(cars):
                assert (got == VEHICLE).any() == (i % 2 == 1), (cam, i)


def same_bits_per_row(a):
    """Whether every image row of ``a`` (..., H, W) holds the bits of the first."""
    return bool((a.view(np.uint64) == a[..., :1, :].view(np.uint64)).all())


@settings(max_examples=60, deadline=None)
@given(yaw=st.floats(-4.0, 4.0), pitch=st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
       hfov=st.floats(0.2, 2.5), resolution=st.sampled_from([(16, 16), (17, 33), (48, 96)]))
# a yaw near the smallest normal float: the centre column's y direction is
# so small that its facade distance and inverse overflow to inf, silently
@example(yaw=2.225073858507203e-309, pitch=0.0, hfov=2.0, resolution=(17, 33))
def test_inverse_directions_factorise_along_the_image_axes(yaw, pitch, hfov, resolution):
    """The renderer's premises: a camera's right axis is level, so an image
    row has one inverse z direction; at pitch 0 the image rows also share
    their x and y inverse directions."""
    cam = CameraPose((100.0, 2.0, 5.0), yaw, pitch, hfov)
    assert cam.basis()[1][2] == 0.0
    inv = semantics._background(cam, SceneConfig(), *resolution)[0]
    assert inv.shape == (3, *resolution)
    assert same_bits_per_row(np.swapaxes(inv[2], 0, 1))  # columns agree within a row
    if pitch == 0.0:
        assert same_bits_per_row(inv[:2])


def test_edge_cameras_take_the_per_pixel_x_y_path():
    # the EDGE_CAMS byte-equality tests cover per-pixel x and y slabs
    for cam in EDGE_CAMS:
        inv = semantics._background(cam, SceneConfig(), 32, 64)[0]
        assert not same_bits_per_row(inv[:2])


def test_rays_in_a_face_plane_render_without_warnings():
    """A level camera at a car's roof height with an odd map height has a
    row of rays in the roof plane, and a yaw-0 level camera with odd H and W
    rays parallel to the ground and the facades: 0 * inf there is a NaN
    miss, not a RuntimeWarning."""
    roof = CameraPose((100.0, 9.0, 1.55), yaw=np.pi, pitch=0.0, hfov=1.6)
    along = CameraPose((100.0, 0.0, 5.0), yaw=0.0, pitch=0.0, hfov=1.2)
    assert vehicle_class("car").height == roof.position[2]
    cfg = SceneConfig(frame_count=60, spawn_rate=0.6, camera_poses=(roof, along))
    frames = generate_scenario(cfg)[::3]
    res = (17, 33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maps = render_frames(frames, cfg, res)
        assert_reference_maps(maps, frames, cfg, res)
    assert (maps[:, 0] == VEHICLE).any()


# ---------------------------------------------------------------------------
# render_frames: each camera projects the boxes of the frame list in blocks of
# semantics._BLOCK_BOXES boxes and depth-tests them in chunks of whole boxes
# of about semantics._CHUNK_PAIRS (pixel, box) pairs

def render_in_blocks(frames, cfg, resolution, per_block, per_chunk=1):
    """``render_frames`` with blocks of ``per_block`` boxes and chunks of
    about ``per_chunk`` pairs: one box per chunk by default."""
    with mock.patch.multiple(semantics, _BLOCK_BOXES=per_block, _CHUNK_PAIRS=per_chunk):
        return render_frames(frames, cfg, resolution)


def batch_frames(frames, per_block):
    """The slice of the frames whose boxes are in each block of ``per_block`` boxes."""
    ends = np.cumsum([len(fr.ids) for fr in frames])  # box count up to each frame
    return [slice(int(np.searchsorted(ends, b0, side="right")),
                  int(np.searchsorted(ends, min(b0 + per_block, ends[-1]) - 1, side="right")) + 1)
            for b0 in range(0, int(ends[-1]), per_block)]


def assert_reference_maps(maps, frames, cfg, resolution):
    assert maps.dtype == np.uint8
    assert maps.shape == (len(frames), len(cfg.camera_poses), *resolution)
    for fr, frame_maps in zip(frames, maps):
        for cam, m in zip(cfg.camera_poses, frame_maps):
            assert m.tobytes() == _reference_render(fr, cam, cfg, resolution).tobytes(), \
                f"frame {fr.t_index}"


@pytest.mark.parametrize("resolution,seed", [((80, 160), 5), ((16, 32), 13)])
def test_render_frames_matches_reference_over_three_batches(resolution, seed):
    cfg, frames = criterion7_frames(seed, frame_count=162)
    frames = frames[150:]  # vehicles have driven into view
    per_block = 7  # blocks and chunks split the boxes of one frame
    batches = batch_frames(frames, per_block)
    assert len(batches) > 2
    assert any(sl.stop - sl.start > 1 for sl in batches)
    maps = render_in_blocks(frames, cfg, resolution, per_block)
    assert_reference_maps(maps, frames, cfg, resolution)
    for b in range(3):
        assert (maps[batches[b]] == VEHICLE).any(), f"batch {b}"


def test_render_frames_one_frame_per_batch():
    resolution = (160, 320)
    cfg, frames = criterion7_frames(17, frame_count=154)
    frames = frames[150:]
    assert all(sl.stop - sl.start == 1 for sl in batch_frames(frames, 1))
    maps = render_in_blocks(frames, cfg, resolution, per_block=1)
    assert_reference_maps(maps, frames, cfg, resolution)
    assert (maps == VEHICLE).any()


def test_render_frames_mixes_edge_cases_with_street_frames_in_one_batch():
    cfg, frames = criterion7_frames(23, frame_count=200)
    cfg = replace(cfg, camera_poses=EDGE_CAMS)
    empty, straddling, behind, both = edge_frames()
    mixed = [frames[100], empty, straddling, frames[110], behind, both, frames[120]]
    res = (32, 64)
    assert batch_frames(mixed, semantics._BLOCK_BOXES) == [slice(0, len(mixed))]
    assert_reference_maps(render_frames(mixed, cfg, res), mixed, cfg, res)


def test_render_frames_of_no_frames():
    cfg = replace(SceneConfig(), camera_poses=SceneConfig().camera_poses + EDGE_CAMS)
    maps = render_frames([], cfg, RES)
    assert maps.dtype == np.uint8 and maps.shape == (0, len(cfg.camera_poses), *RES)


def test_render_frames_where_no_camera_sees_a_box():
    cfg, frames = criterion7_frames(23, frame_count=200)
    # the third edge camera looks down the street in +x from x = 50, and a
    # camera pitched to the sky sees nothing below the facade tops
    sky = CameraPose((100.0, 0.0, 2.0), yaw=0.0, pitch=1.4, hfov=0.4)
    cfg = replace(cfg, camera_poses=(EDGE_CAMS[2], sky))
    behind = [make_frame((car_at(x, y, vid=i),)) for i, (x, y) in
              enumerate([(30.0, 3.0), (10.0, -5.25), (44.0, 1.75)])]
    unseen = [empty_frame(), *behind, make_frame(tuple(car_at(x, 0.0, vid=i) for i, x in
                                                       enumerate((5.0, 15.0, 25.0, 35.0))))]
    for per_block, per_chunk in ((semantics._BLOCK_BOXES, semantics._CHUNK_PAIRS), (2, 1)):
        maps = render_in_blocks(unseen, cfg, (17, 33), per_block, per_chunk)
        assert_reference_maps(maps, unseen, cfg, (17, 33))
        assert not (maps == VEHICLE).any()


POOL_RES = (16, 32)


@functools.lru_cache(maxsize=1)
def frame_pool():
    """A config with the default cameras and the straddled edge camera, a
    pool of edge and street frames, and each pool frame's maps rendered alone."""
    cfg, frames = criterion7_frames(29, frame_count=220)
    cfg = replace(cfg, camera_poses=cfg.camera_poses + EDGE_CAMS[2:])
    pool = edge_frames() + frames[150::7]
    return cfg, pool, [render_frame(fr, cfg, POOL_RES) for fr in pool]


@settings(max_examples=150, deadline=None)
@given(order=st.lists(st.integers(0, 13), max_size=12), per_block=st.integers(1, 40),
       per_chunk=st.sampled_from([1, 50, 400, 1 << 16]))
def test_render_frames_gives_each_frame_its_maps_alone(order, per_block, per_chunk):
    """Any sub-list or reordering of frames, in blocks of any size and chunks
    of one to many boxes, gives each frame the maps it gets when rendered alone."""
    cfg, pool, alone = frame_pool()
    assert len(pool) == 14
    H, W = POOL_RES
    maps = render_in_blocks([pool[i] for i in order], cfg, POOL_RES, per_block, per_chunk)
    assert maps.shape == (len(order), len(cfg.camera_poses), H, W)
    for i, m in zip(order, maps):
        assert m.tobytes() == alone[i].tobytes()


def test_background_cache_keyed_on_pose_resolution_and_geometry():
    # same cameras, different street geometry: no stale background is served
    frame = make_frame((car_at(95.0, -5.25), car_at(110.0, 1.75, vid=1, name="bus")))
    cams = SceneConfig().camera_poses
    for geometry in ({}, {"building_height_m": 4.0}, {"lane_count": 2},
                     {"street_length_m": 120.0}, {"sidewalk_width_m": 4.0},
                     {"building_setback_m": 0.5}, {"lane_width_m": 3.0}):
        cfg = SceneConfig(camera_poses=cams, **geometry)
        for res in ((16, 16), (24, 40)):
            for i, m in enumerate(render_frame(frame, cfg, res)):
                assert m.tobytes() == _reference_render(frame, cams[i], cfg, res).tobytes()


def test_render_with_unhashable_config_fields():
    cfg = SceneConfig(bs_position=[100.0, -8.0, 2.0],
                      initial_vehicles=[("car", [100.0, -5.25], 0, 10.0)])
    with pytest.raises(TypeError):
        hash(cfg)
    frame = generate_scenario(cfg)[0]
    for i, m in enumerate(render_frame(frame, cfg, RES)):
        assert m.tobytes() == _reference_render(frame, cfg.camera_poses[i], cfg, RES).tobytes()


def test_returned_labels_do_not_alias_the_cache():
    cfg = SceneConfig()
    cam = cfg.camera_poses[0]
    fr = make_frame((car_at(100.0, cfg.lane_center_y(1)),))
    first = render_frame(fr, cfg, RES)
    first[:] = VEHICLE
    again = render_one(empty_frame(), cam, cfg, RES)
    assert again.tobytes() == _reference_render(empty_frame(), cam, cfg, RES).tobytes()
    assert render_one(fr, cam, cfg, RES).tobytes() \
        == _reference_render(fr, cam, cfg, RES).tobytes()
