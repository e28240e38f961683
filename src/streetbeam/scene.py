"""Synthetic street-traffic scenario generator.

The scene is a straight canyon: a road with ``lane_count`` lanes flanked by
sidewalks and continuous building facades on both sides. Vehicles travel
along lane axes only (lanes on the negative-y half run towards +x, the
others towards -x), advance once per slot, despawn when they leave the
street, and are spawned at the entry edge from a seeded Poisson stream.

Coordinate frame: x along the street in [0, street_length_m], y lateral
(road centred on y = 0), z up, all in meters.
"""

import types
import typing
from dataclasses import dataclass, fields, is_dataclass

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
    except KeyError:
        raise ConfigError(f"unknown vehicle class {name!r}") from None


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

    def sees(self, point) -> bool:
        """Horizontal-frustum visibility of a world point."""
        fwd, right, _ = self.basis()
        d = np.asarray(point, dtype=float) - np.asarray(self.position, dtype=float)
        x_c = float(d @ fwd)
        y_c = float(d @ right)
        return x_c > 0 and abs(np.arctan2(y_c, x_c)) < self.hfov / 2


@dataclass(frozen=True)
class Vehicle:
    id: int
    vclass: VehicleClass
    center: tuple   # (x, y) ground-plane center, meters
    heading: float  # radians; 0 or pi in this scene
    speed: float    # m/s
    lane: int

    def footprint(self):
        """Axis-aligned footprint (xmin, xmax, ymin, ymax).

        Valid because headings are restricted to the lane axis.
        """
        cx, cy = self.center
        hl, hw = self.vclass.length / 2, self.vclass.width / 2
        return (cx - hl, cx + hl, cy - hw, cy + hw)


def vehicle_boxes(vehicles):
    """(V, 2, 3) min and max corners of each vehicle's 3D bounding box."""
    return np.array([(x0, y0, 0.0, x1, y1, v.vclass.height) for v in vehicles
                     for x0, x1, y0, y1 in (v.footprint(),)], dtype=float).reshape(-1, 2, 3)


@dataclass(frozen=True)
class Frame:
    t_index: int
    vehicles: tuple          # tuple of Vehicle
    target_user_id: int | None
    user_antenna_pos: tuple | None  # (x, y, z); z = target vehicle height
    spawn_draw: int = 0      # Poisson draw for this slot (attempted spawns)


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
        if self.slot_duration_s <= 0:
            raise ConfigError("slot_duration_s must be > 0")
        if self.frame_count < 1:
            raise ConfigError("frame_count must be >= 1")
        if self.speed_range_mps[0] > self.speed_range_mps[1]:
            raise ConfigError("speed range min must be <= max")
        if self.lane_count < 1 or self.lane_width_m <= 0:
            raise ConfigError("need at least one lane of positive width")
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

    def lane_direction(self, lane: int) -> float:
        """Heading of the lane axis: +x for negative-y lanes, -x otherwise."""
        return 0.0 if self.lane_center_y(lane) < 0 else np.pi

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


def _overlaps(fp_a, fp_b, margin=0.0):
    return (fp_a[0] - margin < fp_b[1] and fp_b[0] < fp_a[1] + margin
            and fp_a[2] - margin < fp_b[3] and fp_b[2] < fp_a[3] + margin)


def _in_street(veh: Vehicle, config: SceneConfig) -> bool:
    xmin, xmax, _, _ = veh.footprint()
    return xmax > 0 and xmin < config.street_length_m


_SPAWN_GAP = 0.5  # minimum bumper gap kept on spawn and when following, meters


def _advance_positions(vehicles, config):
    """Move vehicles one slot with a no-overtake gap clamp per lane."""
    dt = config.slot_duration_s
    out = []
    by_lane = {}
    for v in vehicles:
        by_lane.setdefault(v.lane, []).append(v)
    for lane, vs in by_lane.items():
        sgn = 1.0 if config.lane_direction(lane) == 0.0 else -1.0
        # lead vehicle first (largest coordinate along travel direction)
        vs = sorted(vs, key=lambda v: sgn * v.center[0], reverse=True)
        lead = None
        for v in vs:
            cx = v.center[0] + sgn * v.speed * dt
            if lead is not None:
                # keep a bumper gap behind the vehicle ahead
                limit = lead.center[0] - sgn * (lead.vclass.length / 2 + v.vclass.length / 2 + _SPAWN_GAP)
                if sgn * cx > sgn * limit:
                    cx = limit
            moved = Vehicle(v.id, v.vclass, (cx, v.center[1]), v.heading, v.speed, v.lane)
            out.append(moved)
            lead = moved
    return sorted(out, key=lambda v: v.id)


def advance_frame(frame: Frame, config: SceneConfig, streams: ScenarioStreams | None = None,
                  next_id=None) -> Frame:
    """Advance one 50 ms slot: move, despawn, spawn, re-target.

    ``streams`` may be None for kinematics-only use (no spawning).
    Returns the next Frame; the input frame is not mutated.
    """
    moved = _advance_positions(frame.vehicles, config)
    survivors = [v for v in moved if _in_street(v, config)]

    if next_id is None:
        next_id = 1 + max((v.id for v in frame.vehicles), default=-1)

    spawn_draw = 0
    if streams is not None and config.spawn_rate > 0:
        spawn_draw = int(streams.spawn.poisson(config.spawn_rate))
        for _ in range(spawn_draw):
            lane = int(streams.spawn.integers(config.lane_count))
            vc = VEHICLE_CLASSES[int(streams.vclass.integers(len(VEHICLE_CLASSES)))]
            speed = float(streams.speed.uniform(*config.speed_range_mps))
            if config.lane_direction(lane) == 0.0:
                cx = vc.length / 2
            else:
                cx = config.street_length_m - vc.length / 2
            cand = Vehicle(next_id, vc, (cx, config.lane_center_y(lane)),
                           config.lane_direction(lane), speed, lane)
            if any(_overlaps(cand.footprint(), v.footprint(), _SPAWN_GAP) for v in survivors):
                continue  # entry blocked this slot
            survivors.append(cand)
            next_id += 1

    vehicles = tuple(sorted(survivors, key=lambda v: v.id))
    target_id = frame.target_user_id
    if target_id is not None and not any(v.id == target_id for v in vehicles):
        target_id = None
    if target_id is None:
        target_id = _pick_target(vehicles, config, streams.target if streams else None)

    return Frame(
        t_index=frame.t_index + 1,
        vehicles=vehicles,
        target_user_id=target_id,
        user_antenna_pos=_antenna_pos(vehicles, target_id),
        spawn_draw=spawn_draw,
    )


def _pick_target(vehicles, config, target_rng):
    if not vehicles:
        return None
    visible = [
        v for v in vehicles
        if all(cam.sees((v.center[0], v.center[1], v.vclass.height)) for cam in config.camera_poses)
    ]
    pool = visible if visible else list(vehicles)
    if target_rng is None:
        return pool[0].id
    return pool[int(target_rng.integers(len(pool)))].id


def _antenna_pos(vehicles, target_id):
    if target_id is None:
        return None
    v = next(v for v in vehicles if v.id == target_id)
    return (v.center[0], v.center[1], v.vclass.height)


def generate_scenario(config: SceneConfig):
    """Generate ``config.frame_count`` frames; pure function of the config.

    Raises ConfigError when no vehicle can ever exist (spawn_rate == 0 and
    no pre-placed vehicles), since no target user would be available.
    """
    if config.frame_count < 1:
        raise ConfigError("frame_count must be >= 1")
    if config.spawn_rate == 0 and not config.initial_vehicles:
        raise ConfigError("spawn_rate = 0 with no initial vehicles leaves no candidate target")

    streams = ScenarioStreams.from_seed(config.seed)
    vehicles = []
    for i, (name, center, lane, speed) in enumerate(config.initial_vehicles):
        vc = vehicle_class(name)
        vehicles.append(Vehicle(i, vc, tuple(center), config.lane_direction(lane), float(speed), lane))
    vehicles = tuple(vehicles)
    target_id = _pick_target(vehicles, config, streams.target)
    frame0 = Frame(0, vehicles, target_id, _antenna_pos(vehicles, target_id))

    frames = [frame0]
    next_id = len(vehicles)
    for _ in range(config.frame_count - 1):
        nxt = advance_frame(frames[-1], config, streams, next_id=next_id)
        # ids are never reused, even after despawns
        next_id = max(next_id, 1 + max((v.id for v in nxt.vehicles), default=-1))
        frames.append(nxt)
    return frames
