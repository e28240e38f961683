"""Ground-truth semantic segmentation maps.

A pinhole camera with a per-pixel depth test rasterizes the scene
primitives (sky background, building facades, ground/road/sidewalk/
roadline, vehicle boxes) into an H x W grid of concept indices. The
static background is computed once per camera view and cached; each map
depth-tests all vehicle boxes against it in one vectorized pass. Concepts
the simulator cannot produce (pedestrian, water, ...) still exist in the
catalog so the feature-selection search can consider and reject them.
"""

from dataclasses import dataclass

import numpy as np

from .scene import CameraPose, ConfigError, Frame, SceneConfig, vehicle_boxes

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


@dataclass(frozen=True)
class SemanticMap:
    camera_id: int
    labels: np.ndarray  # (H, W) uint8 of concept indices

    @property
    def shape(self):
        return self.labels.shape


_ROADLINE_HALF_WIDTH = 0.12  # meters, painted stripe half width

_BACKGROUND_FIELDS = ("street_length_m", "lane_count", "lane_width_m",
                      "sidewalk_width_m", "building_setback_m", "building_height_m")
_BACKGROUNDS = {}  # (camera pose, H, W, _BACKGROUND_FIELDS values) -> _background
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
    """The static background of one camera view: flattened read-only
    (inverse ray directions (3, H*W), labels, depth) of sky, ground and
    facades, followed by the camera's (forward, right, up) basis.

    The cameras never move, so it is computed once per camera pose,
    resolution and street geometry and shared by every frame.
    """
    key = (tuple(camera.position), camera.yaw, camera.pitch, camera.hfov, H, W,
           *(getattr(config, name) for name in _BACKGROUND_FIELDS))
    if key in _BACKGROUNDS:
        return _BACKGROUNDS[key]
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
    bg = (inv.reshape(-1, 3).T.copy(), labels.reshape(-1), depth.reshape(-1), fwd, right, up)
    for arr in bg:
        arr.flags.writeable = False
    if len(_BACKGROUNDS) >= 64:  # bound the cache
        _BACKGROUNDS.clear()
    _BACKGROUNDS[key] = bg
    return bg


def _render(boxes, camera: CameraPose, config: SceneConfig, resolution, camera_id):
    H, W = resolution
    if H < 16 or W < 16:
        raise ConfigError("render resolution must be at least 16x16")
    if camera.hfov <= 0:
        raise ConfigError("degenerate camera: field of view must be positive")
    inv, bg_labels, bg_depth, fwd, right, up = _background(camera, config, H, W)
    labels = bg_labels.copy()

    # Each box is tested only inside the pixel bounding rectangle of its
    # projected corners; with all corners in front of the camera the image
    # of a convex box lies inside the hull of the corner images. A box
    # straddling the image plane is tested on every pixel.
    rel = boxes - np.asarray(camera.position, dtype=float)  # (V, 2, 3)
    corners = rel[np.arange(len(rel))[:, None], _CORNERS[:, None], np.arange(3)]  # (8, V, 3)
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

    # every (pixel, vehicle) pair of the rectangles, then one slab test
    # with the three axes as rows: (3, pairs)
    veh = np.repeat(keep, n)
    local = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    row, col = np.divmod(local, np.repeat(nc, n))
    pix = np.repeat(r0 * W + c0, n) + row * W + col
    ip = inv.take(pix, axis=1)
    lo, hi = rel.transpose(1, 2, 0)
    t1 = lo.take(veh, axis=1) * ip
    t2 = hi.take(veh, axis=1) * ip
    tnear = np.minimum(t1, t2).max(axis=0)
    tfar = np.maximum(t1, t2).min(axis=0)
    t = np.where(tnear > 0, tnear, tfar)
    # an in-order z-buffer only lowers depth, so a pixel ends as a vehicle
    # exactly when some box hits it nearer than the background
    hit = (tnear <= tfar) & (tfar > 0) & (t < bg_depth[pix])
    labels[pix[hit]] = VEHICLE
    return SemanticMap(camera_id=camera_id, labels=labels.reshape(H, W))


def render_semantic_map(frame: Frame, camera: CameraPose, config: SceneConfig,
                        resolution, camera_id=0) -> SemanticMap:
    """Rasterize the frame from one camera into a label grid.

    Deterministic per-pixel depth test over: ground composite, the two
    facade planes, and every vehicle box. Sky is the background label.
    """
    return _render(vehicle_boxes(frame.vehicles), camera, config, resolution, camera_id)


def render_frame(frame: Frame, config: SceneConfig, resolution):
    """All per-camera maps of a frame, in camera order."""
    boxes = vehicle_boxes(frame.vehicles)
    return [_render(boxes, cam, config, resolution, i)
            for i, cam in enumerate(config.camera_poses)]
