"""Ground-truth semantic segmentation maps.

A pinhole camera with a per-pixel depth test rasterizes the scene
primitives (sky background, building facades, ground/road/sidewalk/
roadline, vehicle boxes) into an H x W uint8 array of concept indices;
``render_frames`` returns the (F, n_cams, H, W) maps of a frame list, in
the config's camera order, and ``render_frame`` one frame's (n_cams, H, W).
The static background of each camera view is computed once per call. Each
camera depth-tests a batch of frames at once: the batch's boxes are
projected together and every (pixel, box) pair of the batch goes through
one slab test against the background. Concepts the simulator cannot
produce (pedestrian, water, ...) still exist in the catalog so the
feature-selection search can consider and reject them.
"""

from dataclasses import dataclass

import numpy as np

from .scene import CameraPose, ConfigError, Frame, SceneConfig, _boxes

CONCEPT_NAMES = (
    "building", "fence", "pedestrian", "pole", "roadline",
    "sidewalk", "vegetation", "vehicle", "wall", "trafficsign",
    "sky", "ground", "bridge", "railtrack", "trafficlight",
    "static", "dynamic", "water", "terrain", "unlabeled",
)


@dataclass(frozen=True)
class ConceptCatalog:
    names: tuple = CONCEPT_NAMES

    @property
    def M_con(self):
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


CATALOG = ConceptCatalog()

BUILDING = CATALOG.index("building")
ROADLINE = CATALOG.index("roadline")
SIDEWALK = CATALOG.index("sidewalk")
VEHICLE = CATALOG.index("vehicle")
SKY = CATALOG.index("sky")
GROUND = CATALOG.index("ground")
TERRAIN = CATALOG.index("terrain")
# the catalog has no dedicated "road" concept: the drivable surface is
# labeled "ground" and unpaved ground-level area is labeled "terrain"
ROAD = GROUND


_ROADLINE_HALF_WIDTH = 0.12  # meters, painted stripe half width
# largest map side in pixels: full-HD frames fit, and a size typed in error
# fails before anything is allocated
MAX_SIDE = 2048

# box corner k takes axis a from the max corner when bit (2 - a) of k is set
_CORNERS = np.array([[(k >> (2 - a)) & 1 for a in range(3)] for k in range(8)])


def _ground_labels(x, y, config: SceneConfig):
    """Classify ground-plane hit points into road/roadline/sidewalk/ground."""
    lab = np.full(x.shape, TERRAIN, dtype=np.uint8)
    in_street = (x >= 0) & (x <= config.street_length_m)
    rh = config.road_half_width
    on_road = in_street & (np.abs(y) <= rh)
    lab[on_road] = ROAD
    # lane boundary stripes, including the road edges
    boundaries = -rh + config.lane_width_m * np.arange(config.lane_count + 1)
    on_line = np.zeros(x.shape, dtype=bool)
    for b in boundaries:
        on_line |= np.abs(y - b) <= _ROADLINE_HALF_WIDTH
    lab[on_road & on_line] = ROADLINE
    on_sidewalk = in_street & (np.abs(y) > rh) & (np.abs(y) <= rh + config.sidewalk_width_m)
    lab[on_sidewalk] = SIDEWALK
    return lab


def _background(camera: CameraPose, config: SceneConfig, H, W):
    """The static background of one camera view: flattened (inverse ray
    directions (3, H*W), labels, depth) of sky, ground and facades, followed
    by the camera's (forward, right, up) basis.

    The cameras never move, so ``render_frames`` computes it once per camera
    and shares it among the frames it renders.
    """
    pos = np.asarray(camera.position, dtype=float)
    fwd, right, up = camera.basis()
    focal = (W / 2) / np.tan(camera.hfov / 2)
    du, dv = np.meshgrid(np.arange(W) - (W - 1) / 2, (H - 1) / 2 - np.arange(H))
    dirs = (fwd[None, None, :] * focal
            + right[None, None, :] * du[..., None]
            + up[None, None, :] * dv[..., None])  # (H, W, 3), unnormalized

    labels = np.full((H, W), SKY, dtype=np.uint8)
    depth = np.full((H, W), np.inf)

    # ground plane z = 0
    dz = dirs[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -pos[2] / dz
    hit = (dz < 0) & (t > 0)
    gx = pos[0] + t * dirs[..., 0]
    gy = pos[1] + t * dirs[..., 1]
    glab = _ground_labels(gx, gy, config)
    take = hit & (t < depth)
    labels[take] = glab[take]
    depth[take] = t[take]

    # building facades at y = +-facade_y, 0 <= x <= L, 0 <= z <= height
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

    with np.errstate(divide="ignore"):
        inv = np.where(dirs != 0, 1.0 / dirs, np.inf)
    return inv.reshape(-1, 3).T.copy(), labels.reshape(-1), depth.reshape(-1), fwd, right, up


# frames whose maps go through one slab test per camera: about this many map
# pixels, at least one frame. Larger batches were slower at 80x160 (cache).
_BATCH_PIXELS = 1 << 16


def _ranges(counts):
    """0, 1, ..., c - 1 for each c in ``counts``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _render(labels, boxes, frame_of, camera: CameraPose, background, H, W):
    """Fill ``labels`` (F, H*W), one camera's flattened maps of a batch of
    frames, with the view of the ``boxes`` against the camera's
    ``_background``; box i is in frame ``frame_of[i]``."""
    inv, bg_labels, bg_depth, fwd, right, up = background
    labels[:] = bg_labels

    # Each box is tested only inside the pixel bounding rectangle of its
    # projected corners; with all corners in front of the camera the image
    # of a convex box lies inside the hull of the corner images. A box
    # straddling the image plane is tested on every pixel.
    rel = boxes - np.asarray(camera.position, dtype=float)  # (V, 2, 3)
    corners = np.where(_CORNERS[:, None], rel[:, 1], rel[:, 0])  # (8, V, 3)
    focal = (W / 2) / np.tan(camera.hfov / 2)
    f = corners @ fwd
    straddle = (f <= 1e-9).any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = focal * (corners @ right) / f + (W - 1) / 2
        rows = (H - 1) / 2 - focal * (corners @ up) / f
    rc, size = np.stack([rows, cols]), np.array([[H], [W]])  # (2, 8, V)
    start = np.where(straddle, 0, np.maximum(np.floor(rc.min(axis=1)), 0))
    stop = np.where(straddle, size, np.minimum(np.ceil(rc.max(axis=1)) + 1, size))
    keep = np.flatnonzero((f > 0).any(axis=0) & (start < stop).all(axis=0))
    (r0, c0), (nr, nc) = start[:, keep].astype(np.intp), (stop - start)[:, keep].astype(np.intp)
    n = nr * nc

    # every (pixel, box) pair of the rectangles, row by row, then one slab
    # test, one axis at a time
    first = np.repeat(r0 * W + c0, nr) + W * _ranges(nr)  # (box rows,)
    row_len = np.repeat(nc, nr)
    pix = np.repeat(first, row_len) + _ranges(row_len)
    tnear, tfar = np.full(len(pix), -np.inf), np.full(len(pix), np.inf)
    for a, (lo, hi) in enumerate(rel[keep].transpose(2, 1, 0)):  # (2, boxes) per axis
        ip = inv[a].take(pix)
        t1, t2 = np.repeat(lo, n) * ip, np.repeat(hi, n) * ip
        np.maximum(tnear, np.minimum(t1, t2), out=tnear)
        np.minimum(tfar, np.maximum(t1, t2), out=tfar)
    t = np.where(tnear > 0, tnear, tfar)
    # an in-order z-buffer only lowers depth, so a pixel ends as a vehicle
    # exactly when some box hits it nearer than the background
    hit = (tnear <= tfar) & (tfar > 0) & (t < bg_depth[pix])
    labels[np.repeat(frame_of[keep], n)[hit], pix[hit]] = VEHICLE


def render_frames(frames, config: SceneConfig, resolution):
    """(F, n_cams, H, W) uint8 label maps of ``frames``, one per camera in order.

    Deterministic per-pixel depth test over: ground composite, the two
    facade planes, and every vehicle box. Sky is the background label.
    Each camera renders the frames in batches of about ``_BATCH_PIXELS``
    map pixels.
    """
    H, W = resolution
    if min(H, W) < 16 or max(H, W) > MAX_SIDE:
        raise ConfigError(f"render resolution must be 16 to {MAX_SIDE} pixels a side")
    cams = config.camera_poses
    backgrounds = [_background(cam, config, H, W) for cam in cams]
    maps = np.empty((len(frames), len(cams), H * W), dtype=np.uint8)
    step = max(_BATCH_PIXELS // (H * W), 1)
    for f0 in range(0, len(frames), step):
        batch = frames[f0:f0 + step]
        boxes = _boxes(*(np.concatenate([getattr(fr, k) for fr in batch])
                         for k in ("classes", "x", "y")))
        frame_of = np.repeat(np.arange(len(batch)), [len(fr.ids) for fr in batch])
        for c, cam in enumerate(cams):
            _render(maps[f0:f0 + step, c], boxes, frame_of, cam, backgrounds[c], H, W)
    return maps.reshape(len(frames), len(cams), H, W)


def render_frame(frame: Frame, config: SceneConfig, resolution):
    """(n_cams, H, W) uint8 label maps of one frame: ``render_frames([frame])[0]``."""
    return render_frames([frame], config, resolution)[0]
