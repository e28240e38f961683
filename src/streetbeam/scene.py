"""Synthetic street-traffic scenario generator.

The scene is a straight canyon: a road with ``lane_count`` lanes flanked by
sidewalks and continuous building facades on both sides. Vehicles travel
along lane axes only (lanes on the negative-y half run towards +x, the
others towards -x), advance once per slot, despawn when they leave the
street, and are spawned at the entry edge from a seeded Poisson stream.

Coordinate frame: x along the street in [0, street_length_m], y lateral
(road centred on y = 0), z up, all in meters.

A ``Frame`` holds its vehicles as parallel (V,) arrays in ascending id
order: ``ids`` (int64, never reused), ``classes`` (int64 index into
``VEHICLE_CLASSES``), center ``x`` and ``y`` (float64, meters), ``speed``
(float64, m/s along the lane axis) and ``lane`` (int64). The (V, 2, 3)
``boxes`` and the target's ``user_antenna_pos`` are derived from them.
"""

import math
import numbers
import types
import typing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import rng as rng_mod


class ConfigError(ValueError):
    """Raised when a configuration is malformed or violates its invariants."""


# ---------------------------------------------------------------------------
# dataclass <-> plain JSON, driven by the field types: tuples are JSON lists,
# complex numbers [re, im] pairs, dataclass fields nested objects

def to_plain(obj, typ=None):
    """JSON-ready copy of a dataclass instance (or of one field value)."""
    if is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name), f.type) for f in fields(obj)}
    if typ is complex:
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, (tuple, list)):
        return [to_plain(x) for x in obj]
    return obj


def from_plain(cls, data, where=""):
    """``cls`` from a JSON object; unknown keys raise ConfigError.

    ``where`` is the dotted key path of ``data`` in a larger config, for
    error messages.
    """
    name = where.rstrip(".") or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object")
    known = {f.name: f.type for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {where}{key}")
    kwargs = {k: _from_plain(known[k], v, where + k) for k, v in data.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _from_plain(typ, value, where):
    if isinstance(typ, types.UnionType):  # X | None
        if value is None:
            return None
        typ = next(t for t in typ.__args__ if t is not type(None))
    if is_dataclass(typ):
        return from_plain(typ, value, where + ".")
    if typ is complex and isinstance(value, (list, tuple)):
        re, im = value
        return complex(re, im)
    if typ is tuple or typing.get_origin(typ) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config key {where} must be a list")
        item = typing.get_args(typ)
        if item:  # tuple[X, ...]
            return tuple(_from_plain(item[0], v, where) for v in value)
        return tuple(_from_plain(tuple, v, where) if isinstance(v, list) else v
                     for v in value)
    return value


@dataclass(frozen=True)
class VehicleClass:
    name: str
    length: float
    width: float
    height: float

    def __post_init__(self):
        if min(self.length, self.width, self.height) <= 0:
            raise ConfigError("vehicle dims must be strictly positive")


CAR = VehicleClass("car", 3.71, 1.79, 1.55)
VAN = VehicleClass("van", 5.20, 2.61, 2.47)
BUS = VehicleClass("bus", 11.08, 3.25, 3.33)
VEHICLE_CLASSES = (CAR, VAN, BUS)
_CLASS_BY_NAME = {c.name: c for c in VEHICLE_CLASSES}


def vehicle_class(name: str) -> VehicleClass:
    try:
        return _CLASS_BY_NAME[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigError(f"unknown vehicle class {name!r}") from None


def _check_initial_vehicle(entry, config):
    """ConfigError unless ``entry`` is (known class name, (x, y), lane, speed)
    with a finite center inside a lane of the street, that lane's index and
    a finite speed >= 0."""
    try:
        name, (cx, cy), lane, speed = entry
    except (TypeError, ValueError):
        raise ConfigError(f"initial vehicle {entry!r} is not "
                          "(class, (x, y), lane, speed)") from None
    vehicle_class(name)
    if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in (cx, cy, speed)):
        raise ConfigError(f"initial vehicle {entry!r}: center and speed must be finite numbers")
    if not (isinstance(lane, numbers.Integral) and 0 <= lane < config.lane_count):
        raise ConfigError(f"initial vehicle {entry!r}: lane must be an integer "
                          f"in [0, {config.lane_count})")
    if speed < 0:
        raise ConfigError(f"initial vehicle {entry!r}: speed must be >= 0")
    axis = config.lane_center_y(lane)
    if abs(cy - axis) > config.lane_width_m / 2:
        raise ConfigError(f"initial vehicle {entry!r}: center y is off lane {lane}, "
                          f"whose axis is y = {axis}")


@dataclass(frozen=True)
class CameraPose:
    position: tuple  # (x, y, z) meters
    yaw: float       # radians, about +z, 0 = +x
    pitch: float     # radians, positive = up
    hfov: float      # horizontal field of view, radians

    def basis(self):
        """Right-handed (forward, right, up) unit vectors of the camera."""
        cy, sy = np.cos(self.yaw), np.sin(self.yaw)
        cp, sp = np.cos(self.pitch), np.sin(self.pitch)
        fwd = np.array([cy * cp, sy * cp, sp])
        right = np.array([sy, -cy, 0.0])
        up = np.cross(right, fwd)
        return fwd, right, up


_DIMS = np.array([(c.length, c.width, c.height) for c in VEHICLE_CLASSES])


def _boxes(classes, x, y):
    """(V, 2, 3) min and max corners of the vehicles' 3D bounding boxes.

    Axis-aligned, because vehicles only travel along the lane axis.
    """
    length, width, height = _DIMS[classes].T
    hl, hw = length / 2, width / 2
    return np.stack([np.stack([x - hl, y - hw, np.zeros_like(x)], axis=1),
                     np.stack([x + hl, y + hw, height], axis=1)], axis=1)


@dataclass(frozen=True, eq=False)
class Frame:
    """The scene in one slot; the vehicle arrays are laid out as the module
    docstring says. Frames compare by identity: compare them field by field."""
    t_index: int
    ids: np.ndarray
    classes: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray
    lane: np.ndarray
    target_user_id: int | None
    spawn_draw: int = 0      # Poisson draw for this slot (attempted spawns)

    @property
    def boxes(self):
        """(V, 2, 3) min and max corners of each vehicle's 3D bounding box."""
        return _boxes(self.classes, self.x, self.y)

    @property
    def user_antenna_pos(self):
        """(x, y, z) of the target's roof antenna, z = its vehicle's height;
        None without a target."""
        if self.target_user_id is None:
            return None
        (i,) = np.flatnonzero(self.ids == self.target_user_id)
        return (float(self.x[i]), float(self.y[i]), float(_DIMS[self.classes[i], 2]))


def _default_cameras(length, road_half, sidewalk):
    y = road_half + sidewalk
    x = length / 2
    return (
        CameraPose((x, y, 5.0), yaw=-np.pi / 2, pitch=0.0, hfov=1.6),
        CameraPose((x, -y, 5.0), yaw=np.pi / 2, pitch=0.0, hfov=1.6),
    )


@dataclass(frozen=True)
class SceneConfig:
    street_length_m: float = 200.0
    lane_count: int = 4
    lane_width_m: float = 3.5
    sidewalk_width_m: float = 2.0
    building_setback_m: float = 3.0
    building_height_m: float = 20.0
    bs_position: tuple = (100.0, -8.0, 6.0)
    camera_poses: tuple[CameraPose, ...] | None = None
    slot_duration_s: float = 0.05
    frame_count: int = 200
    spawn_rate: float = 0.12      # expected vehicles per slot
    speed_range_mps: tuple = (8.0, 15.0)
    seed: int = 0
    initial_vehicles: tuple = ()  # pre-placed (class_name, center, lane, speed)

    def __post_init__(self):
        for name, low in (("street_length_m", ">"), ("lane_width_m", ">"),
                          ("building_height_m", ">"), ("slot_duration_s", ">"),
                          ("sidewalk_width_m", ">="), ("building_setback_m", ">=")):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and math.isfinite(v)
                    and (v > 0 if low == ">" else v >= 0)):
                raise ConfigError(f"{name} must be finite and {low} 0")
        if self.frame_count < 1:
            raise ConfigError("frame_count must be >= 1")
        if self.speed_range_mps[0] > self.speed_range_mps[1]:
            raise ConfigError("speed range min must be <= max")
        if not (self.speed_range_mps[0] >= 0 and math.isfinite(self.speed_range_mps[1])):
            raise ConfigError("speeds must be finite and >= 0")
        if not self.spawn_rate >= 0:
            raise ConfigError("spawn_rate must be >= 0")
        if self.lane_count < 1:
            raise ConfigError("need at least one lane")
        for entry in self.initial_vehicles:
            _check_initial_vehicle(entry, self)
        if self.camera_poses is None:
            object.__setattr__(
                self, "camera_poses",
                _default_cameras(self.street_length_m, self.road_half_width, self.sidewalk_width_m),
            )
        if len(self.camera_poses) < 1:
            raise ConfigError("at least one camera is required")
        for cam in self.camera_poses:
            if cam.hfov <= 0:
                raise ConfigError("camera field of view must be positive")

    @property
    def road_half_width(self):
        return self.lane_count * self.lane_width_m / 2

    @property
    def facade_y(self):
        """|y| of the building facade planes."""
        return self.road_half_width + self.sidewalk_width_m + self.building_setback_m

    def lane_center_y(self, lane: int) -> float:
        return -self.road_half_width + (lane + 0.5) * self.lane_width_m

    def lane_sign(self, lane):
        """Travel direction along x, elementwise over lanes: +1 for lanes on
        the negative-y half, -1 otherwise."""
        return np.where(self.lane_center_y(lane) < 0, 1.0, -1.0)

    def to_dict(self):
        return to_plain(self)

    @classmethod
    def from_dict(cls, d):
        return from_plain(cls, d)


@dataclass
class ScenarioStreams:
    """Named child streams driving scenario randomness."""
    spawn: np.random.Generator
    vclass: np.random.Generator
    speed: np.random.Generator
    target: np.random.Generator

    @classmethod
    def from_seed(cls, seed):
        return cls(
            spawn=rng_mod.stream(seed, "scene.spawn"),
            vclass=rng_mod.stream(seed, "scene.class"),
            speed=rng_mod.stream(seed, "scene.speed"),
            target=rng_mod.stream(seed, "scene.target"),
        )


_SPAWN_GAP = 0.5  # minimum bumper gap kept on spawn and when following, meters


def _moved_x(frame, config):
    """Center x after one slot, with a no-overtake gap clamp per lane."""
    sgn = config.lane_sign(frame.lane)
    x = frame.x + sgn * frame.speed * config.slot_duration_s
    # each lane's lead vehicle first (largest coordinate along travel direction)
    order = np.argsort(-(sgn * frame.x), kind="stable").tolist()
    x, sgn, lane = x.tolist(), sgn.tolist(), frame.lane.tolist()
    half = (_DIMS[frame.classes, 0] / 2).tolist()
    ahead = {}  # lane -> index of the vehicle last placed in it
    for i in order:
        j = ahead.get(lane[i])
        if j is not None:
            # keep a bumper gap behind the vehicle ahead
            limit = x[j] - sgn[i] * (half[j] + half[i] + _SPAWN_GAP)
            if sgn[i] * x[i] > sgn[i] * limit:
                x[i] = limit
        ahead[lane[i]] = i
    return np.array(x, dtype=float)


def advance_frame(frame: Frame, config: SceneConfig, streams: ScenarioStreams,
                  next_id: int) -> Frame:
    """Advance one 50 ms slot: move, despawn, spawn, re-target.

    Spawned vehicles take ids from ``next_id`` up. Returns the next Frame;
    the input frame is not mutated.
    """
    x = _moved_x(frame, config)
    half = _DIMS[frame.classes, 0] / 2
    in_street = (x + half > 0) & (x - half < config.street_length_m)
    cols = [a[in_street] for a in (frame.ids, frame.classes, x, frame.y, frame.speed, frame.lane)]

    spawn_draw = 0
    if config.spawn_rate > 0:
        spawn_draw = int(streams.spawn.poisson(config.spawn_rate))
    for _ in range(spawn_draw):
        lane = int(streams.spawn.integers(config.lane_count))
        c = int(streams.vclass.integers(len(VEHICLE_CLASSES)))
        speed = float(streams.speed.uniform(*config.speed_range_mps))
        hl = VEHICLE_CLASSES[c].length / 2
        cx = hl if config.lane_sign(lane) > 0 else config.street_length_m - hl
        cy = config.lane_center_y(lane)
        lo, hi = _boxes([c], np.array([cx]), np.array([cy]))[0, :, :2]
        others = _boxes(cols[1], cols[2], cols[3])[:, :, :2]
        near = (lo - _SPAWN_GAP < others[:, 1]) & (others[:, 0] < hi + _SPAWN_GAP)
        if near.all(axis=1).any():
            continue  # entry blocked this slot
        cols = [np.append(a, v) for a, v in zip(cols, (next_id, c, cx, cy, speed, lane))]
        next_id += 1

    nxt = Frame(frame.t_index + 1, *cols, frame.target_user_id, spawn_draw)
    if nxt.target_user_id is None or nxt.target_user_id not in nxt.ids:
        nxt = replace(nxt, target_user_id=_pick_target(nxt, config, streams.target))
    return nxt


def _pick_target(frame, config, target_rng):
    """Id of a vehicle drawn among those whose roof every camera sees in its
    horizontal field of view (among all when none is); None on an empty street."""
    if not len(frame.ids):
        return None
    roofs = np.stack([frame.x, frame.y, _DIMS[frame.classes, 2]], axis=1)
    visible = np.ones(len(roofs), dtype=bool)
    for cam in config.camera_poses:
        fwd, right, _ = cam.basis()
        d = roofs - np.asarray(cam.position, dtype=float)
        x_c, y_c = d @ fwd, d @ right
        visible &= (x_c > 0) & (np.abs(np.arctan2(y_c, x_c)) < cam.hfov / 2)
    pool = frame.ids[visible] if visible.any() else frame.ids
    return int(pool[int(target_rng.integers(len(pool)))])


def generate_scenario(config: SceneConfig):
    """Generate ``config.frame_count`` frames; pure function of the config.

    Raises ConfigError when no vehicle can ever exist (spawn_rate == 0 and
    no pre-placed vehicles), since no target user would be available.
    """
    if config.spawn_rate == 0 and not config.initial_vehicles:
        raise ConfigError("spawn_rate = 0 with no initial vehicles leaves no candidate target")

    streams = ScenarioStreams.from_seed(config.seed)
    rows = config.initial_vehicles
    frame = Frame(
        t_index=0,
        ids=np.arange(len(rows), dtype=np.int64),
        classes=np.array([VEHICLE_CLASSES.index(vehicle_class(r[0])) for r in rows],
                         dtype=np.int64),
        x=np.array([r[1][0] for r in rows], dtype=float),
        y=np.array([r[1][1] for r in rows], dtype=float),
        speed=np.array([r[3] for r in rows], dtype=float),
        lane=np.array([r[2] for r in rows], dtype=np.int64),
        target_user_id=None,
    )
    frames = [replace(frame, target_user_id=_pick_target(frame, config, streams.target))]
    next_id = len(rows)
    for _ in range(config.frame_count - 1):
        nxt = advance_frame(frames[-1], config, streams, next_id)
        # ids are never reused, even after despawns
        next_id = max(next_id, 1 + int(nxt.ids.max(initial=-1)))
        frames.append(nxt)
    # one block per column, sliced by the frames: thousands of small live
    # per-frame buffers fragment the heap, and repeated generates in one
    # process then grew peak RSS by about 12% (gen-wideband, seed 511)
    names = ("ids", "classes", "x", "y", "speed", "lane")
    bounds = np.cumsum([len(f.ids) for f in frames])[:-1]
    cols = [np.split(np.concatenate([getattr(f, n) for f in frames]), bounds) for n in names]
    return [replace(f, **dict(zip(names, vals))) for f, *vals in zip(frames, *cols)]
