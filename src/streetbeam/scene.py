"""Synthetic street-traffic scenario generator.

The scene is a straight canyon: a road with ``lane_count`` lanes flanked by
sidewalks and continuous building facades on both sides. Vehicles travel
along lane axes only (lanes on the negative-y half run towards +x, the
others towards -x), advance once per slot, despawn when they leave the
street, and are spawned at the entry edge from a seeded Poisson stream.
They never overtake, so the generator keeps each lane ordered lead vehicle
first across slots and never re-sorts it.

Coordinate frame: x along the street in [0, street_length_m], y lateral
(road centred on y = 0), z up, all in meters.

A ``Frame`` holds its vehicles as parallel (V,) arrays in ascending id
order: ``ids`` (int64, never reused), ``classes`` (int64 index into
``VEHICLE_CLASSES``), center ``x`` and ``y`` (float64, meters), ``speed``
(float64, m/s along the lane axis) and ``lane`` (int64). The target's
``user_antenna_pos`` is derived from them.
"""

import array
import cmath
import math
import numbers
import types
import typing
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import rng as rng_mod


class ConfigError(ValueError):
    """Raised when a configuration is malformed or violates its invariants."""


# ---------------------------------------------------------------------------
# the config schema is the config dataclasses' field annotations; in JSON a
# tuple is a list, a complex an [re, im] pair and a dataclass an object

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
    """``cls`` from a JSON object; unknown keys raise ConfigError. ``where``
    is the dotted key path of ``data`` in a larger config, for messages."""
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


def _unwrap(typ):
    """X of an ``X | None`` annotation; any other annotation as it is."""
    if isinstance(typ, types.UnionType):
        return next(t for t in typ.__args__ if t is not type(None))
    return typ


def _from_plain(typ, value, where):
    """``value`` with JSON objects made dataclasses, [re, im] pairs complex
    numbers and other lists tuples, as ``typ`` says; check_fields judges it."""
    typ = _unwrap(typ)
    if is_dataclass(typ) and value is not None:
        return from_plain(typ, value, where + ".")
    if not isinstance(value, list):
        return value
    if typ is complex:
        try:
            re, im = value
            return complex(re, im)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {where} must be a [re, im] pair of numbers") from None
    args = typing.get_args(typ)
    item = args[0] if args[-1:] == (Ellipsis,) else None
    return tuple(_from_plain(item, v, where) for v in value)


_SCALARS = {  # annotation: (what a value must be, its test); a bool passes only as a bool
    int: ("an integer", lambda v: isinstance(v, numbers.Integral)),
    float: ("a finite number", lambda v: isinstance(v, numbers.Real) and math.isfinite(v)),
    complex: ("a number with finite parts",
              lambda v: isinstance(v, numbers.Complex) and cmath.isfinite(v)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
}


def check_fields(config):
    """ConfigError naming the field unless each field of the dataclass
    ``config`` holds a value of its annotation: ``int``, ``float`` (finite),
    ``complex`` (finite parts), ``bool`` (no bool is a number), ``X | None``,
    a dataclass, or a list or tuple checked item by item against
    ``tuple[X, ...]`` or ``tuple[X, Y]``."""
    for f in fields(config):
        _check(f.type, getattr(config, f.name), f.name)


def _check(typ, value, name):
    if value is None and typ is not _unwrap(typ):
        return  # X | None
    typ = _unwrap(typ)
    if typ is tuple or typing.get_origin(typ) is tuple:
        if not isinstance(value, (tuple, list)):
            raise ConfigError(f"{name} must be a list")
        items = typing.get_args(typ)
        if items[-1:] == (Ellipsis,):
            items = items[:1] * len(value)
        elif items and len(items) != len(value):
            raise ConfigError(f"{name} must be a list of {len(items)}")
        for i, (t, v) in enumerate(zip(items, value)):
            _check(t, v, f"{name}[{i}]")
    elif is_dataclass(typ):
        if not isinstance(value, typ):
            raise ConfigError(f"{name} must be a {typ.__name__}")
    elif isinstance(value, bool) != (typ is bool) or not _SCALARS[typ][1](value):
        raise ConfigError(f"{name} must be {_SCALARS[typ][0]}")


def check_min(config, low, names, strict=False):
    """ConfigError unless each number in the fields ``names`` is >= ``low`` (> if strict)."""
    for name in names:
        v = min(np.ravel(getattr(config, name)).tolist(), default=math.inf)
        if v < low or (strict and v == low):
            raise ConfigError(f"{name} must be {'>' if strict else '>='} {low}")


def check_max(config, high, names, strict=False):
    """ConfigError unless each number in the fields ``names`` is <= ``high`` (< if strict)."""
    for name in names:
        v = max(np.ravel(getattr(config, name)).tolist(), default=-math.inf)
        if v > high or (strict and v == high):
            raise ConfigError(f"{name} must be {'<' if strict else '<='} {high}")


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
    with a finite center on the street, inside the lane of that index, and
    a finite speed >= 0."""
    try:
        name, (cx, cy), lane, speed = entry
    except (TypeError, ValueError):
        raise ConfigError(f"initial vehicle {entry!r} is not "
                          "(class, (x, y), lane, speed)") from None
    vehicle_class(name)
    for typ, v, what in ((float, cx, "center x"), (float, cy, "center y"),
                         (float, speed, "speed"), (int, lane, "lane")):
        _check(typ, v, f"initial vehicle {entry!r}: {what}")
    if not 0 <= lane < config.lane_count:
        raise ConfigError(f"initial vehicle {entry!r}: lane must be in [0, {config.lane_count})")
    if speed < 0:
        raise ConfigError(f"initial vehicle {entry!r}: speed must be >= 0")
    if not 0 <= cx <= config.street_length_m:
        raise ConfigError(f"initial vehicle {entry!r}: center x must lie in "
                          f"[0, {config.street_length_m}]")
    axis = config.lane_center_y(lane)
    if abs(cy - axis) > config.lane_width_m / 2:
        raise ConfigError(f"initial vehicle {entry!r}: center y is off lane {lane}, "
                          f"whose axis is y = {axis}")


@dataclass(frozen=True)
class CameraPose:
    position: tuple[float, float, float]  # (x, y, z) meters
    yaw: float       # radians, about +z, 0 = +x
    pitch: float     # radians, positive = up
    hfov: float      # horizontal field of view, radians

    def __post_init__(self):
        check_fields(self)

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
    bs_position: tuple[float, float, float] = (100.0, -8.0, 6.0)
    camera_poses: tuple[CameraPose, ...] | None = None
    slot_duration_s: float = 0.05
    frame_count: int = 200
    spawn_rate: float = 0.12      # expected vehicles per slot
    speed_range_mps: tuple[float, float] = (8.0, 15.0)
    seed: int = 0
    initial_vehicles: tuple = ()  # pre-placed (class_name, center, lane, speed)

    def __post_init__(self):
        check_fields(self)
        check_min(self, 0, ("street_length_m", "lane_width_m", "building_height_m",
                            "slot_duration_s"), strict=True)
        check_min(self, 0, ("sidewalk_width_m", "building_setback_m", "spawn_rate",
                            "speed_range_mps", "seed"))
        check_min(self, 1, ("frame_count", "lane_count"))
        if self.speed_range_mps[0] > self.speed_range_mps[1]:
            raise ConfigError("speed range min must be <= max")
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
            # at pi the focal length is 0 and past it negative
            check_min(cam, 0, ("hfov",), strict=True)
            check_max(cam, math.pi, ("hfov",), strict=True)

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
_HALF_LENGTH = [c.length / 2 for c in VEHICLE_CLASSES]
_HALF_WIDTH = [c.width / 2 for c in VEHICLE_CLASSES]


def _pick_target(ids, classes, x, y, config, target_rng):
    """Id of a vehicle drawn among those whose roof every camera sees in its
    horizontal field of view (among all when none is); None on an empty street."""
    if not ids:
        return None
    roofs = np.stack([x, y, _DIMS[classes, 2]], axis=1)
    visible = np.ones(len(roofs), dtype=bool)
    for cam in config.camera_poses:
        fwd, right, _ = cam.basis()
        d = roofs - np.asarray(cam.position, dtype=float)
        x_c, y_c = d @ fwd, d @ right
        visible &= (x_c > 0) & (np.abs(np.arctan2(y_c, x_c)) < cam.hfov / 2)
    pool = np.asarray(ids)[visible] if visible.any() else ids
    return int(pool[int(target_rng.integers(len(pool)))])


def _entry_blocked(lanes, sign, k, c, cx, cy, classes, y):
    """Whether a vehicle of class ``c`` spawned at (cx, cy), the entry edge
    of lane ``k``, would come within a bumper gap of a vehicle on the street.

    ``lanes`` holds each lane's ids and x, lead vehicle first, and
    ``classes`` and ``y`` are columns by id. Only the vehicles near the
    edge are tested: a lane is ordered along x, so its scan starts at the
    end nearest the edge (the tail of a lane running the way lane ``k``
    runs, the head of one running the other way) and stops at the first
    centre beyond the reach of any class, one metre of slack included.
    """
    gap, s, hl, hw = _SPAWN_GAP, sign[k], _HALF_LENGTH, _HALF_WIDTH
    reach = hl[c] + gap + max(hl) + 1.0
    for m, (ids, xs) in enumerate(lanes):
        for j in range(len(ids) - 1, -1, -1) if sign[m] == s else range(len(ids)):
            xo, co, yo = xs[j], classes[ids[j]], y[ids[j]]
            if s * (xo - cx) >= reach:
                break
            if (cx - hl[c] - gap < xo + hl[co] and xo - hl[co] < cx + hl[c] + gap
                    and cy - hw[c] - gap < yo + hw[co] and yo - hw[co] < cy + hw[c] + gap):
                return True
    return False


def generate_scenario(config: SceneConfig):
    """Generate ``config.frame_count`` frames; pure function of the config.

    The street is stepped on Python scalars, each lane as the ids and x
    positions of its vehicles, lead vehicle first. Each slot after the first
    moves each lane in one pass, clamping every vehicle a bumper gap behind
    the one ahead; despawns the vehicles that left the street; spawns the
    slot's Poisson draw at the entry edges unless the entry is blocked; and
    re-targets when the target is gone. The clamp keeps every follower
    behind its leader, so a lane's order changes only at its ends: vehicles
    leave from its head (past the exit) or its tail (pushed back over the
    entry), and a spawn joins at its place along x (the tail, unless a
    vehicle off the lane axis lets it pass); nothing is re-sorted. Each slot
    records only its ids and x positions in typed buffers; the other columns
    are fixed per vehicle and are gathered by id once at the end, after one
    ``np.lexsort`` puts every slot in id order. The frames slice one block
    per column: thousands of small live per-frame buffers fragment the heap,
    and repeated generates in one process then grew peak RSS by about 12%
    (gen-wideband, seed 511).

    Raises ConfigError when no vehicle can ever exist (spawn_rate == 0 and
    no pre-placed vehicles), since no target user would be available.
    """
    if config.spawn_rate == 0 and not config.initial_vehicles:
        raise ConfigError("spawn_rate = 0 with no initial vehicles leaves no candidate target")

    streams = ScenarioStreams.from_seed(config.seed)
    length, dt, gap = config.street_length_m, config.slot_duration_s, _SPAWN_GAP
    sign = [float(config.lane_sign(k)) for k in range(config.lane_count)]
    hl, rows = _HALF_LENGTH, config.initial_vehicles  # hl: half length by class
    # the columns that stay fixed, by id (ids are never reused, even after
    # despawns), with each vehicle's half length and step along x per slot
    classes = [VEHICLE_CLASSES.index(vehicle_class(r[0])) for r in rows]
    y, speed = [float(r[1][1]) for r in rows], [float(r[3]) for r in rows]
    lane, x = [int(r[2]) for r in rows], [float(r[1][0]) for r in rows]
    half = [hl[c] for c in classes]
    step = [sign[k] * v * dt for k, v in zip(lane, speed)]

    def off(xi, i):
        """Whether vehicle ``i`` at ``xi`` has left the street."""
        return not (xi + half[i] > 0 and xi - half[i] < length)

    lanes = [[[], []] for _ in sign]  # each lane's ids and x, lead vehicle first
    # (largest coordinate along travel direction; equal ones in id order)
    for i in sorted(range(len(rows)), key=lambda i: -(sign[lane[i]] * x[i])):
        lanes[lane[i]][0].append(i)
        lanes[lane[i]][1].append(x[i])
    target = _pick_target(list(range(len(rows))), classes, x, y, config, streams.target)
    id_buf, x_buf = array.array("q", range(len(rows))), array.array("d", x)
    slots = [(len(rows), target, 0)]  # (vehicle count, target, spawn draw) of every slot
    for _ in range(1, config.frame_count):
        for k, (ids, xs) in enumerate(lanes):
            # keep a bumper gap behind the vehicle ahead; the first has none
            # (an infinite limit)
            s, moved, ahead, back = sign[k], [], sign[k] * math.inf, 0.0
            for i, xi in zip(ids, xs):
                m, limit = xi + step[i], ahead - s * (back + half[i] + gap)
                ahead = limit if s * m > s * limit else m
                back = half[i]
                moved.append(ahead)
            head, tail = 0, len(ids)
            while head < tail and off(moved[head], ids[head]):
                head += 1
            while tail > head and off(moved[tail - 1], ids[tail - 1]):
                tail -= 1
            if head or tail < len(ids):
                if target in ids[:head] or target in ids[tail:]:
                    target = None
                ids, moved = ids[head:tail], moved[head:tail]
            lanes[k] = [ids, moved]
        draw = int(streams.spawn.poisson(config.spawn_rate)) if config.spawn_rate > 0 else 0
        for _ in range(draw):
            k = int(streams.spawn.integers(config.lane_count))
            c = int(streams.vclass.integers(len(VEHICLE_CLASSES)))
            v = float(streams.speed.uniform(*config.speed_range_mps))
            cx, cy = hl[c] if sign[k] > 0 else length - hl[c], config.lane_center_y(k)
            if _entry_blocked(lanes, sign, k, c, cx, cy, classes, y):
                continue  # entry blocked this slot
            ids, xs = lanes[k]
            at = len(ids)
            while at and sign[k] * xs[at - 1] < sign[k] * cx:
                at -= 1
            ids.insert(at, len(classes))
            xs.insert(at, cx)
            for col, value in zip((classes, y, speed, lane, half, step),
                                  (c, cy, v, k, hl[c], sign[k] * v * dt)):
                col.append(value)
        if target is None:
            pos = {i: xi for ids, xs in lanes for i, xi in zip(ids, xs)}
            live = sorted(pos)
            target = _pick_target(live, [classes[i] for i in live], [pos[i] for i in live],
                                  [y[i] for i in live], config, streams.target)
        n = len(id_buf)
        for ids, xs in lanes:
            id_buf.fromlist(ids)
            x_buf.fromlist(xs)
        slots.append((len(id_buf) - n, target, draw))
    counts = [n for n, _, _ in slots]
    ids = np.frombuffer(id_buf, np.int64)
    order = np.lexsort((ids, np.repeat(np.arange(len(slots)), counts)))
    ids = ids[order]
    cols = [ids, np.array(classes, np.int64)[ids], np.frombuffer(x_buf, float)[order],
            np.array(y, float)[ids], np.array(speed, float)[ids], np.array(lane, np.int64)[ids]]
    frames, start = [], 0
    for t, (n, target, draw) in enumerate(slots):
        frames.append(Frame(t, *(col[start:start + n] for col in cols), target, draw))
        start += n
    return frames
