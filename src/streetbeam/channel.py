"""Geometric multipath channel model.

Deterministic image-method tracing produces per-path (amplitude, phase,
delay, azimuth, elevation) tuples for the direct path, single bounces off
the two building facades, and the ground bounce. Paths blocked by any
non-target vehicle box are discarded: the candidate legs of all frames are
tested against their own frame's boxes in one slab test per chunk of
frames. The frequency-domain channel is assembled as

    h[k] = sum_l alpha_l * exp(-j 2 pi f_k tau_l + j phi_l) * a(az_l, el_l; f_k)

over a ULA manifold a(.) with entry n = exp(j * w * n * sin(el) * cos(az)),
w = 2 pi d f / c.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import speed_of_light as C_LIGHT

from .scene import SceneConfig, from_plain, to_plain


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


_CHUNK_FRAMES = 64  # frames per slab test; bounds its (3, pairs) temporaries


def _legs_blocked(p0, p1, leg_frame, boxes, box_count, eps=1e-9):
    """Whether each leg ``p0[i] -> p1[i]`` crosses a box of its own frame.

    ``boxes`` holds the frames' boxes back to back, ``box_count[f]`` of them
    for frame f, and ``leg_frame[i]`` is the frame of leg i. Every (leg, box)
    pair is tested at once by the slab method on the segment parameter: an
    axis with ``|d| < eps`` contributes the bounds (0, 1) and misses unless
    ``p0`` lies within ``eps`` of the slab; the leg misses when
    ``t0 > t1 + eps`` and hits when ``t1 > eps and t0 < 1 - eps``.
    """
    n = box_count[leg_frame]
    first = np.cumsum(box_count) - box_count
    leg = np.repeat(np.arange(len(leg_frame)), n)
    box = np.repeat(first[leg_frame] - (np.cumsum(n) - n), n) + np.arange(n.sum())
    # (3, pairs), C-ordered so that the reductions over axes run row by row
    q = p0.T.take(leg, axis=1)
    d = (p1 - p0).T.take(leg, axis=1)
    lo = boxes[:, 0].T.take(box, axis=1)
    hi = boxes[:, 1].T.take(box, axis=1)
    par = np.abs(d) < eps
    outside = (par & ((q < lo - eps) | (q > hi + eps))).any(axis=0)
    step = np.where(par, 1.0, d)        # no 0/0 on parallel axes
    ta = (lo - q) / step
    tb = (hi - q) / step
    # t0 only rises and t1 only falls over the axes, so testing t0 > t1 + eps
    # once at the end equals testing it after every axis
    t0 = np.where(par, 0.0, np.minimum(ta, tb)).max(axis=0, initial=0.0)
    t1 = np.where(par, 1.0, np.maximum(ta, tb)).min(axis=0, initial=1.0)
    hit = ~outside & ~(t0 > t1 + eps) & (t1 > eps) & (t0 < 1 - eps)
    blocked = np.zeros(len(leg_frame), dtype=bool)
    blocked[leg[hit]] = True
    return blocked


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


def _candidates(bs, users, scene: SceneConfig, config: RayTraceConfig):
    """Candidate paths of F frames with target antennas ``users`` (F, 3).

    One ``(valid, points, n_bounces, is_los)`` entry per candidate, in the
    order direct, facade +y, facade -y, ground: ``valid`` (F,) marks the
    frames whose geometry admits it and ``points`` lists the (F, 3) path
    points after the BS. The image method uses the same elementwise
    operations for every frame that one frame alone would.
    """
    cands = [(np.ones(len(users), dtype=bool), [users], 0, True)]
    if abs(config.reflection_coeff) == 0:
        return cands
    for yf in (scene.facade_y, -scene.facade_y):
        image = bs.copy()
        image[1] = 2 * yf - bs[1]
        d = users - image
        ok = np.abs(d[:, 1]) >= 1e-12
        s = (yf - image[1]) / np.where(ok, d[:, 1], 1.0)
        bounce = image + s[:, None] * d
        ok &= ((0 < s) & (s < 1)
               & (0 <= bounce[:, 0]) & (bounce[:, 0] <= scene.street_length_m)
               & (0 <= bounce[:, 2]) & (bounce[:, 2] <= scene.building_height_m))
        cands.append((ok, [bounce, users], 1, False))
    image = bs.copy()
    image[2] = -bs[2]
    d = users - image
    ok = np.abs(d[:, 2]) > 1e-12
    s = -image[2] / np.where(ok, d[:, 2], 1.0)
    bounce = image + s[:, None] * d
    ok &= (0 < s) & (s < 1)
    cands.append((ok, [bounce, users], 1, False))
    return cands


def _trace_chunk(frames, bs, scene: SceneConfig, config: RayTraceConfig):
    users = np.array([f.user_antenna_pos for f in frames], dtype=float)
    others = [f.boxes[f.ids != f.target_user_id] for f in frames]
    boxes = np.concatenate(others)
    box_count = np.array([len(b) for b in others], dtype=np.intp)
    cands = _candidates(bs, users, scene, config)

    # every leg of every geometrically valid candidate c of frame f, tagged
    # with its slot c * F + f in the (candidate, frame) validity table
    F = len(frames)
    p0, p1, slot = [], [], []
    for c, (ok, points, _, _) in enumerate(cands):
        idx = np.flatnonzero(ok)
        nodes = [np.broadcast_to(bs, users.shape)] + points
        for a, b in zip(nodes, nodes[1:]):
            p0.append(a[idx])
            p1.append(b[idx])
            slot.append(c * F + idx)
    slot = np.concatenate(slot)
    blocked = _legs_blocked(np.concatenate(p0), np.concatenate(p1), slot % F,
                            boxes, box_count)
    valid = np.stack([ok for ok, _, _, _ in cands])
    valid.flat[slot[blocked]] = False

    out = []
    for f, row in enumerate(valid.T.tolist()):
        paths = [_make_path(bs, [p[f] for p in points], config, n_bounces, is_los)
                 for (_, points, n_bounces, is_los), v in zip(cands, row) if v]
        paths.sort(key=lambda p: (-p.alpha, p.tau))
        out.append(paths[:config.max_paths])
    return out


def trace_paths(frames, scene: SceneConfig, config: RayTraceConfig):
    """Strongest unobstructed paths of each frame, sorted by amplitude descending.

    Returns one path list per frame. Candidates: direct path, one specular
    bounce per facade (image method), and the ground bounce. The target's
    own vehicle never occludes (the antenna sits on its roof). An empty
    list means outage. Frames are traced in chunks of ``_CHUNK_FRAMES``;
    each chunk tests all its candidate legs in one slab test.
    """
    for frame in frames:
        if frame.target_user_id is None:
            raise TargetLostError("frame has no target user")
    bs = _bs_position(scene, config)
    out = []
    for i in range(0, len(frames), _CHUNK_FRAMES):
        out.extend(_trace_chunk(frames[i:i + _CHUNK_FRAMES], bs, scene, config))
    return out


def assemble_channel(paths, config: RayTraceConfig):
    """Frequency-domain channel, (K, N_t) complex128; zero when all paths are blocked."""
    h = np.zeros((config.K, config.N_t), dtype=np.complex128)
    fk = config.subcarrier_freq(np.arange(config.K))
    for p in paths:
        gain = p.alpha * np.exp(-1j * 2 * np.pi * fk * p.tau + 1j * p.phi)  # (K,)
        h += gain[:, None] * steering_vector(p.theta_az, p.theta_el, fk[:, None], config)
    return h
