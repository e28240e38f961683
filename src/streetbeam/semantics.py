"""Ground-truth semantic segmentation maps.

A pinhole camera with a per-pixel depth test rasterizes the scene
primitives (sky background, building facades, ground/road/sidewalk/
roadline, vehicle boxes) into an H x W uint8 array of concept indices;
``render_frames`` returns the (F, n_cams, H, W) maps of a frame list, in
the config's camera order, and ``render_frame`` one frame's (n_cams, H, W).
The static background of each camera view is computed once per call. Each
camera projects the frames' boxes in blocks and tests a box on the pixels
of its projected bounding rectangle with the ray-box slab test, factorised
along the image axes: a box's z slab is computed once per image row, as a
camera's right axis is level, and its x and y slabs once per column when
the camera's rows share their x and y directions (any camera of pitch 0),
else once per pixel. Concepts the simulator cannot produce (pedestrian,
water, ...) still exist in the catalog so the feature-selection search can
consider and reject them.
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
    """The static background of one camera view: the (3, H, W) inverse ray
    directions, then the flattened labels and depth of sky, ground and
    facades, then the camera's (forward, right, up) basis.

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
    # a ray parallel to a plane, or off it by a direction component near the
    # smallest normal float, gets t = +-inf, and a NaN coordinate where it
    # also has no x or y component (0 * inf); the hit tests exclude such rays
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = -pos[2] / dz
        gx = pos[0] + t * dirs[..., 0]
        gy = pos[1] + t * dirs[..., 1]
    hit = (dz < 0) & (t > 0)
    glab = _ground_labels(gx, gy, config)
    take = hit & (t < depth)
    labels[take] = glab[take]
    depth[take] = t[take]

    # building facades at y = +-facade_y, 0 <= x <= L, 0 <= z <= height
    for yf in (config.facade_y, -config.facade_y):
        dy = dirs[..., 1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = (yf - pos[1]) / dy
            fx = pos[0] + t * dirs[..., 0]
            fz = pos[2] + t * dirs[..., 2]
        hit = (np.abs(dy) > 0) & (t > 0) \
            & (fx >= 0) & (fx <= config.street_length_m) \
            & (fz >= 0) & (fz <= config.building_height_m)
        take = hit & (t < depth)
        labels[take] = BUILDING
        depth[take] = t[take]

    with np.errstate(divide="ignore", over="ignore"):
        inv = np.where(dirs != 0, 1.0 / dirs, np.inf)
    return np.moveaxis(inv, -1, 0), labels.reshape(-1), depth.reshape(-1), fwd, right, up


# boxes projected and culled together per camera, which bounds the
# projection's arrays, and about this many (pixel, box) pairs depth-tested
# together, in chunks of whole boxes (2^16 generated under 2% faster at
# 80x160 but peaked 2.6 MiB higher)
_BLOCK_BOXES = 1 << 11
_CHUNK_PAIRS = 1 << 15


def _runs(first, lens):
    """first[i], first[i] + 1, ..., first[i] + lens[i] - 1 for each i, concatenated."""
    return np.arange(lens.sum()) + np.repeat(first - np.cumsum(lens) + lens, lens)


def _render(flat, boxes, base, camera: CameraPose, view, H, W):
    """Set ``flat[base[i] + p]`` to ``VEHICLE`` where box i hits pixel p of
    ``camera`` nearer than the background. ``view`` holds the camera's
    inverse z direction per image row, its (2, n_xy * W) inverse x and y
    directions (n_xy = 1 when all image rows share them, else H), the
    background depth and the camera basis."""
    iz, ixy, bg_depth, fwd, right, up = view

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
    lo, hi, base = rel[keep, 0].T, rel[keep, 1].T, base[keep]
    n_xy = ixy.shape[1] // W

    # The slab test of a pixel and a box takes the max of the near and the
    # min of the far slab ends over x, y and z. A box row, the pixels of a
    # box's rectangle in one image row, shares z; x and y are computed per
    # (box, row of ixy, column), so once per column for a level camera.
    n = nr * nc
    bounds = np.flatnonzero(np.diff((np.cumsum(n) - n) // _CHUNK_PAIRS, prepend=-1, append=-1))
    for i, j in zip(bounds[:-1], bounds[1:]):
        b = slice(i, j)
        box = np.repeat(np.arange(j - i), nr[b])  # box of each box row
        k = _runs(np.zeros(j - i, np.intp), nr[b])  # its offset in the box
        row, cols = r0[b][box] + k, nc[b][box]
        xy = k < n_xy  # the box rows whose x/y ends are computed
        key = _runs(np.minimum(row[xy], n_xy - 1) * W + c0[b][box[xy]], cols[xy])
        ixy_key = ixy.take(key, axis=1)
        with np.errstate(invalid="ignore"):  # 0 * inf, a ray in a face's plane: a miss
            z1, z2 = lo[2, b][box] * iz[row], hi[2, b][box] * iz[row]
            x1 = np.repeat(lo[:2, b][:, box[xy]], cols[xy], axis=1) * ixy_key
            x2 = np.repeat(hi[:2, b][:, box[xy]], cols[xy], axis=1) * ixy_key
        near, far = np.maximum(*np.minimum(x1, x2)), np.minimum(*np.maximum(x1, x2))
        pix = _runs(row * W + c0[b][box], cols)
        if len(near) < len(pix):  # a level camera: a box's x/y ends serve all its rows
            xi = _runs((np.cumsum(nc[b]) - nc[b])[box], cols)
            near, far = near[xi], far[xi]
        np.maximum(near, np.repeat(np.minimum(z1, z2), cols), out=near)
        np.minimum(far, np.repeat(np.maximum(z1, z2), cols), out=far)
        t = np.where(near > 0, near, far)
        # an in-order z-buffer only lowers depth, so a pixel ends as a vehicle
        # exactly when some box hits it nearer than the background
        hit = (near <= far) & (far > 0) & (t < bg_depth[pix])
        flat[(pix + np.repeat(base[b][box], cols))[hit]] = VEHICLE


def render_frames(frames, config: SceneConfig, resolution):
    """(F, n_cams, H, W) uint8 label maps of ``frames``, one per camera in order.

    Deterministic per-pixel depth test over: ground composite, the two
    facade planes, and every vehicle box. Sky is the background label.
    Each camera projects blocks of ``_BLOCK_BOXES`` boxes and depth-tests
    about ``_CHUNK_PAIRS`` (pixel, box) pairs at a time.
    """
    H, W = resolution
    if min(H, W) < 16 or max(H, W) > MAX_SIDE:
        raise ConfigError(f"render resolution must be 16 to {MAX_SIDE} pixels a side")
    cams = config.camera_poses
    maps = np.empty((len(frames), len(cams), H * W), dtype=np.uint8)
    flat = maps.reshape(-1)
    boxes = _boxes(*(np.concatenate([np.zeros(0, np.intp)] + [getattr(fr, k) for fr in frames])
                     for k in ("classes", "x", "y")))
    base = np.repeat(np.arange(len(frames)) * (len(cams) * H * W), [len(fr.ids) for fr in frames])
    for c, cam in enumerate(cams):
        inv, bg_labels, bg_depth, *basis = _background(cam, config, H, W)
        maps[:, c] = bg_labels
        # right[2] is 0, so an image row has one z direction; the rows of a
        # level camera also share their x and y directions
        xy = inv[:2, :1] if (inv[:2] == inv[:2, :1]).all() else inv[:2]
        view = (inv[2, :, 0], xy.reshape(2, -1), bg_depth, *basis)
        for b0 in range(0, len(boxes), _BLOCK_BOXES):
            block = slice(b0, b0 + _BLOCK_BOXES)
            _render(flat, boxes[block], base[block] + c * H * W, cam, view, H, W)
    return maps.reshape(len(frames), len(cams), H, W)


def render_frame(frame: Frame, config: SceneConfig, resolution):
    """(n_cams, H, W) uint8 label maps of one frame: ``render_frames([frame])[0]``."""
    return render_frames([frame], config, resolution)[0]
