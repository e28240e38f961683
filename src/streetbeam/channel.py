"""Geometric multipath channel model.

Deterministic image-method tracing produces per-path (amplitude, phase,
delay, azimuth, elevation) tuples for the direct path, single bounces off
the two building facades, and the ground bounce. Paths blocked by any
vehicle box are discarded. The frequency-domain channel is assembled as

    h[k] = sum_l alpha_l * exp(-j 2 pi f_k tau_l + j phi_l) * a(az_l, el_l; f_k)

over a ULA manifold a(.) with entry n = exp(j * w * n * sin(el) * cos(az)),
w = 2 pi d f / c.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import speed_of_light as C_LIGHT

from .scene import Frame, SceneConfig, from_plain, to_plain, vehicle_boxes


class TargetLostError(RuntimeError):
    """The target user despawned inside the labeling window."""


@dataclass(frozen=True)
class RayTraceConfig:
    f_c: float = 28e9                 # carrier, Hz
    K: int = 128                      # subcarriers
    subcarrier_spacing: float = 1e6   # Hz
    N_t: int = 64                     # BS antennas (ULA)
    d: float | None = None            # antenna spacing, default lambda/2 at f_c
    max_paths: int = 20
    reflection_coeff: complex = 0.6 * np.exp(1j * np.pi)
    sigma2: float = 0.1               # noise power, W
    P_k: float = 1.0                  # per-subcarrier transmit power, W
    bs_antenna_height: float | None = None  # overrides scene bs z if set

    def __post_init__(self):
        if self.K < 1 or self.N_t < 1 or self.max_paths < 1:
            raise ValueError("K, N_t and max_paths must all be >= 1")
        if abs(self.reflection_coeff) > 1:
            raise ValueError("|reflection coefficient| must be <= 1")
        if self.sigma2 <= 0 or self.P_k <= 0:
            raise ValueError("sigma2 and P_k must be positive")
        if self.d is None:
            object.__setattr__(self, "d", C_LIGHT / self.f_c / 2)

    @property
    def wavelength(self):
        return C_LIGHT / self.f_c

    def subcarrier_freq(self, k):
        """f_{D,k} = f_c + (k - K/2) * spacing."""
        return self.f_c + (np.asarray(k) - self.K / 2) * self.subcarrier_spacing

    def to_dict(self):
        return to_plain(self)

    @classmethod
    def from_dict(cls, d):
        return from_plain(cls, d)


@dataclass(frozen=True)
class PathComponent:
    alpha: float      # linear amplitude, >= 0
    phi: float        # phase, radians in [0, 2pi)
    tau: float        # delay, seconds
    theta_az: float   # azimuth at the BS array, (-pi, pi]
    theta_el: float   # elevation at the BS array, [-pi/2, pi/2]
    is_los: bool


@dataclass(frozen=True)
class ChannelMatrix:
    entries: np.ndarray  # (K, N_t) complex128
    config: RayTraceConfig


def steering_vector(theta_az, theta_el, f, config: RayTraceConfig):
    """ULA manifold vector: entry n = exp(j*w*n*sin(el)*cos(az)), w = 2 pi d f / c.

    ``f`` broadcasts against the antenna axis: a (K, 1) column of subcarrier
    frequencies gives the (K, N_t) manifold of one path.
    """
    w = 2 * np.pi * config.d * f / C_LIGHT
    n = np.arange(config.N_t)
    return np.exp(1j * w * n * np.sin(theta_el) * np.cos(theta_az))


def _bs_position(scene: SceneConfig, config: RayTraceConfig):
    p = np.asarray(scene.bs_position, dtype=float)
    if config.bs_antenna_height is not None:
        p = p.copy()
        p[2] = config.bs_antenna_height
    return p


def _segment_blocked(p0, p1, boxes, eps=1e-9):
    """3D segment vs axis-aligned box test (slab method on the segment param)."""
    d = p1 - p0
    for lo, hi in boxes:
        t0, t1 = 0.0, 1.0
        hit = True
        for ax in range(3):
            if abs(d[ax]) < eps:
                if p0[ax] < lo[ax] - eps or p0[ax] > hi[ax] + eps:
                    hit = False
                    break
                continue
            ta = (lo[ax] - p0[ax]) / d[ax]
            tb = (hi[ax] - p0[ax]) / d[ax]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1 + eps:
                hit = False
                break
        if hit and t1 > eps and t0 < 1 - eps:
            return True
    return False


def _departure_angles(bs, toward):
    """Departure azimuth and the ULA steering angle of the BS array.

    The array lies along the x axis, so the phase gradient is driven by the
    x projection of the unit departure direction. With elevation e above the
    horizon and azimuth a that projection is cos(e)*cos(a); storing
    theta_el = pi/2 - |e| makes sin(theta_el)*cos(theta_az) reproduce it
    exactly while keeping theta_el inside [-pi/2, pi/2]. The sign of e is
    dropped because an x-axis ULA cannot resolve it (conical ambiguity).
    """
    d = toward - bs
    r = np.linalg.norm(d)
    elev = math.asin(max(-1.0, min(1.0, d[2] / r)))
    theta_el = math.pi / 2 - abs(elev)
    theta_az = math.atan2(d[1], d[0])
    if theta_az <= -math.pi:
        theta_az = math.pi
    return theta_az, theta_el


def _make_path(bs, points, config: RayTraceConfig, n_bounces, is_los):
    """Assemble a PathComponent from the BS plus the ordered path points."""
    nodes = [bs] + points
    dist = sum(np.linalg.norm(nodes[i + 1] - nodes[i]) for i in range(len(nodes) - 1))
    tau = dist / C_LIGHT
    gamma = config.reflection_coeff
    alpha = config.wavelength / (4 * np.pi * dist) * abs(gamma) ** n_bounces
    phi = (-2 * np.pi * config.f_c * tau + n_bounces * np.angle(gamma)) % (2 * np.pi)
    theta_az, theta_el = _departure_angles(bs, nodes[1])
    return PathComponent(alpha=float(alpha), phi=float(phi), tau=float(tau),
                         theta_az=theta_az, theta_el=theta_el, is_los=is_los)


def trace_paths(frame: Frame, scene: SceneConfig, config: RayTraceConfig):
    """Strongest unobstructed paths, sorted by amplitude descending.

    Candidates: direct path, one specular bounce per facade (image method),
    and the ground bounce. The target's own vehicle never occludes (the
    antenna sits on its roof). Empty output means outage.
    """
    if frame.user_antenna_pos is None:
        raise TargetLostError("frame has no target user")
    bs = _bs_position(scene, config)
    user = np.asarray(frame.user_antenna_pos, dtype=float)
    # Python-float rows: the scalar slab test indexes them faster than ndarrays
    boxes = vehicle_boxes([v for v in frame.vehicles
                           if v.id != frame.target_user_id]).tolist()

    candidates = []

    # direct path
    if not _segment_blocked(bs, user, boxes):
        candidates.append(_make_path(bs, [user], config, n_bounces=0, is_los=True))

    if abs(config.reflection_coeff) > 0:
        # facade bounces via the image method
        for yf in (scene.facade_y, -scene.facade_y):
            image = bs.copy()
            image[1] = 2 * yf - bs[1]
            d = user - image
            if abs(d[1]) < 1e-12:
                continue
            s = (yf - image[1]) / d[1]
            if not 0 < s < 1:
                continue
            bounce = image + s * d
            if not (0 <= bounce[0] <= scene.street_length_m
                    and 0 <= bounce[2] <= scene.building_height_m):
                continue
            if _segment_blocked(bs, bounce, boxes) or _segment_blocked(bounce, user, boxes):
                continue
            candidates.append(_make_path(bs, [bounce, user], config, n_bounces=1, is_los=False))

        # ground bounce
        image = bs.copy()
        image[2] = -bs[2]
        d = user - image
        if abs(d[2]) > 1e-12:
            s = -image[2] / d[2]
            if 0 < s < 1:
                bounce = image + s * d
                if not (_segment_blocked(bs, bounce, boxes)
                        or _segment_blocked(bounce, user, boxes)):
                    candidates.append(_make_path(bs, [bounce, user], config,
                                                 n_bounces=1, is_los=False))

    candidates.sort(key=lambda p: (-p.alpha, p.tau))
    return candidates[:config.max_paths]


def assemble_channel(paths, config: RayTraceConfig) -> ChannelMatrix:
    """Frequency-domain channel (K, N_t); zero matrix when all paths blocked."""
    h = np.zeros((config.K, config.N_t), dtype=np.complex128)
    fk = config.subcarrier_freq(np.arange(config.K))
    for p in paths:
        gain = p.alpha * np.exp(-1j * 2 * np.pi * fk * p.tau + 1j * p.phi)  # (K,)
        h += gain[:, None] * steering_vector(p.theta_az, p.theta_el, fk[:, None], config)
    return ChannelMatrix(entries=h, config=config)
