"""Geometric multipath channel model.

Deterministic image-method tracing finds the direct path, single bounces
off the two building facades, and the ground bounce of each frame's target
user. Paths blocked by any non-target vehicle box are discarded: the
candidate legs of all frames are tested against their own frame's boxes in
one slab test per chunk of frames. The surviving paths of F frames form one
padded table, ``paths`` (F, P, 5) float64 with the columns

    alpha (linear amplitude), phi (phase in [0, 2 pi)), tau (delay, s),
    theta_az (azimuth at the BS array), theta_el (elevation)

sorted per frame by (-alpha, tau), beside ``n_paths`` (F,) and ``los`` (F,).
A leg's length is the BLAS dot of ``np.linalg.norm``, and asin and atan2
run value by value in ``math``: numpy's vector loops round some of these
values differently on some CPUs, and the table must equal the per-frame
tracer bit for bit. The frequency-domain channel of one frame is assembled
from its rows as

    h[k] = sum_l alpha_l * exp(-j 2 pi f_k tau_l + j phi_l) * a(az_l, el_l; f_k)

over a ULA manifold a(.) with entry n = exp(j * w * n * sin(el) * cos(az)),
w = 2 pi d f / c. With u = w * sin(el) * cos(az), ``assemble_channels``
evaluates entry n as exp(j (n mod b) u) * exp(j b floor(n / b) u): per
(path, subcarrier) it takes two complex exps, e1 = exp(j u) and
eb = exp(j b u), builds the fine table 1, e1, e1^2, ... over the b offsets
and the gain-scaled coarse table gain, gain eb, gain eb^2, ... over the
multiples of b by repeated multiplication, and adds their outer product.
"""

import math
from dataclasses import dataclass

import numpy as np

from .scene import ConfigError, SceneConfig, _boxes, check_fields, check_min

C_LIGHT = 299_792_458.0  # speed of light in m/s, exact by the SI definition of the metre


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

    def __post_init__(self):
        check_fields(self)
        check_min(self, 1, ("K", "N_t", "max_paths"))
        check_min(self, 0, ("subcarrier_spacing",))
        check_min(self, 0, ("f_c", "sigma2", "P_k"), strict=True)
        if abs(self.reflection_coeff) > 1:
            raise ConfigError("reflection_coeff must have |reflection_coeff| <= 1")
        if self.d is None:
            object.__setattr__(self, "d", C_LIGHT / self.f_c / 2)
            check_fields(self)  # a tiny f_c makes the spacing overflow
        check_min(self, 0, ("d",), strict=True)

    @property
    def wavelength(self):
        return C_LIGHT / self.f_c

    def subcarrier_freq(self, k):
        """f_{D,k} = f_c + (k - K/2) * spacing."""
        return self.f_c + (np.asarray(k) - self.K / 2) * self.subcarrier_spacing


_CHUNK_FRAMES = 64  # frames per slab test; bounds its (3, pairs) temporaries
_SPLIT = 8  # antennas per fine steering table; 8 beat 4 and 16 at N_t 64, K 128


def _legs_blocked(p0, p1, leg_frame, frames, eps=1e-9):
    """Whether each leg ``p0[i] -> p1[i]`` crosses the box of a vehicle
    other than the target in its frame ``frames[leg_frame[i]]``.

    Every (leg, box) pair is tested at once by the slab method on the
    segment parameter: an axis with ``|d| < eps`` contributes the bounds
    (0, 1) and misses unless ``p0`` lies within ``eps`` of the slab; the leg
    misses when ``t0 > t1 + eps`` and hits when ``t1 > eps and t0 < 1 - eps``.
    """
    others = [f.ids != f.target_user_id for f in frames]
    keep = np.concatenate(others)
    boxes = _boxes(*(np.concatenate([getattr(f, k) for f in frames])[keep]
                     for k in ("classes", "x", "y")))
    box_count = np.array([np.count_nonzero(o) for o in others], dtype=np.intp)
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


def _departure_angles(d, r):
    """Departure azimuth and the ULA steering angle of the BS array for the
    (n, 3) first legs ``d`` of n paths, whose lengths are ``r``.

    The array lies along the x axis, so the phase gradient is driven by the
    x projection of the unit departure direction. With elevation e above the
    horizon and azimuth a that projection is cos(e)*cos(a); storing
    theta_el = pi/2 - |e| makes sin(theta_el)*cos(theta_az) reproduce it
    exactly while keeping theta_el inside [-pi/2, pi/2]. The sign of e is
    dropped because an x-axis ULA cannot resolve it (conical ambiguity).
    """
    elev = np.array([math.asin(z) for z in np.clip(d[:, 2] / r, -1.0, 1.0).tolist()])
    theta_el = math.pi / 2 - np.abs(elev)
    theta_az = np.array([math.atan2(y, x) for x, y in d[:, :2].tolist()])
    theta_az[theta_az <= -math.pi] = math.pi
    return theta_az, theta_el


def _path_rows(bs, points, n_bounces, config: RayTraceConfig):
    """(n, 5) table rows of n paths from the BS through the (n, 3) ``points``."""
    nodes = [bs] + points
    legs = [b - a for a, b in zip(nodes, nodes[1:])]
    # per row the BLAS dot that np.linalg.norm takes of one vector
    length = [np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]) for v in legs]
    dist = sum(length)
    tau = dist / C_LIGHT
    gamma = config.reflection_coeff
    alpha = config.wavelength / (4 * np.pi * dist) * abs(gamma) ** n_bounces
    phi = (-2 * np.pi * config.f_c * tau + n_bounces * np.angle(gamma)) % (2 * np.pi)
    return np.stack([alpha, phi, tau, *_departure_angles(legs[0], length[0])], axis=1)


def _candidates(bs, users, targeted, scene: SceneConfig, config: RayTraceConfig):
    """Candidate paths of F frames with target antennas ``users`` (F, 3).

    One ``(valid, points, n_bounces)`` entry per candidate, in the order
    direct, facade +y, facade -y, ground: ``valid`` (F,) marks the
    ``targeted`` frames whose geometry admits it and ``points`` lists the
    (F, 3) path points after the BS. The image method uses the same
    elementwise operations for every frame that one frame alone would.
    """
    cands = [(targeted.copy(), [users], 0)]
    if abs(config.reflection_coeff) == 0:
        return cands
    for yf in (scene.facade_y, -scene.facade_y):
        image = bs.copy()
        image[1] = 2 * yf - bs[1]
        d = users - image
        ok = targeted & (np.abs(d[:, 1]) >= 1e-12)
        s = (yf - image[1]) / np.where(ok, d[:, 1], 1.0)
        bounce = image + s[:, None] * d
        ok &= ((0 < s) & (s < 1)
               & (0 <= bounce[:, 0]) & (bounce[:, 0] <= scene.street_length_m)
               & (0 <= bounce[:, 2]) & (bounce[:, 2] <= scene.building_height_m))
        cands.append((ok, [bounce, users], 1))
    image = bs.copy()
    image[2] = -bs[2]
    d = users - image
    ok = targeted & (np.abs(d[:, 2]) > 1e-12)
    s = -image[2] / np.where(ok, d[:, 2], 1.0)
    bounce = image + s[:, None] * d
    ok &= (0 < s) & (s < 1)
    cands.append((ok, [bounce, users], 1))
    return cands


def trace_paths(frames, scene: SceneConfig, config: RayTraceConfig):
    """The padded path table of ``frames``: ``(paths, n_paths, los)``.

    ``paths`` (F, P, 5) holds the strongest unobstructed paths of each
    frame as the module docstring says, ``P = min(max_paths, candidates)``,
    with zero rows after the first ``n_paths[f]``; ``los[f]`` is true when
    the direct path survived. Candidates: direct path, one specular bounce
    per facade (image method), and the ground bounce. The target's own
    vehicle never occludes (the antenna sits on its roof). A frame without
    a target has no paths; ``n_paths[f] == 0`` means outage. The legs of
    each chunk of ``_CHUNK_FRAMES`` frames go through one slab test.
    """
    bs = np.asarray(scene.bs_position, dtype=float)
    F = len(frames)
    targeted = np.array([f.target_user_id is not None for f in frames], dtype=bool)
    users = np.array([f.user_antenna_pos or (0.0, 0.0, 0.0) for f in frames],
                     dtype=float).reshape(F, 3)
    cands = _candidates(bs, users, targeted, scene, config)

    # every leg of every geometrically valid candidate c of frame f, tagged
    # with its slot c * F + f in the (candidate, frame) validity table
    p0, p1, slot, leg_frame = [], [], [], []
    for c, (ok, points, _) in enumerate(cands):
        idx = np.flatnonzero(ok)
        nodes = [np.broadcast_to(bs, users.shape)] + points
        for a, b in zip(nodes, nodes[1:]):
            p0.append(a[idx])
            p1.append(b[idx])
            slot.append(c * F + idx)
            leg_frame.append(idx)
    p0, p1, slot, leg_frame = map(np.concatenate, (p0, p1, slot, leg_frame))
    valid = np.stack([ok for ok, _, _ in cands])
    for i in range(0, F, _CHUNK_FRAMES):
        chunk = frames[i:i + _CHUNK_FRAMES]
        legs = np.flatnonzero((leg_frame >= i) & (leg_frame < i + len(chunk)))
        blocked = _legs_blocked(p0[legs], p1[legs], leg_frame[legs] - i, chunk)
        valid.flat[slot[legs[blocked]]] = False

    rows = np.zeros((F, len(cands), 5))
    for c, (_, points, n_bounces) in enumerate(cands):
        idx = np.flatnonzero(valid[c])
        rows[idx, c] = _path_rows(bs, [p[idx] for p in points], n_bounces, config)
    # a stable sort by (-alpha, tau) with the blocked candidates last
    order = np.lexsort((rows[..., 2], np.where(valid.T, -rows[..., 0], np.inf)))
    P = min(config.max_paths, len(cands))
    paths = np.take_along_axis(rows, order[..., None], axis=1)[:, :P]
    return paths, np.minimum(valid.sum(axis=0), P), valid[0]


def assemble_channels(paths, n_paths, config: RayTraceConfig):
    """Frequency-domain channels of F frames, (F, K, N_t) complex128, from
    their padded path table ``paths`` (F, P, 5) and ``n_paths`` (F,), as
    ``trace_paths`` returns them; zero where ``n_paths`` is 0.

    The frames are ordered once by descending path count (a stable sort),
    so the frames that have path slot p lead the call's buffers and the
    slot's outer products accumulate in place on that leading slice; one
    permutation returns the channels in the caller's order. Each channel
    sums its own paths in table order, through the multiplied tables of the
    module docstring. Every operation is elementwise per frame, so a
    channel does not depend on the other frames of the call: chunks of the
    table give the whole table's channels bit for bit. Against the per-path
    sum evaluated in extended precision, each entry is within 4 ulps of each
    path's largest phase, weighted by the path's amplitude: the bound
    ``tests/oracles.py`` states, which the per-path sum with one exp per
    entry meets as well. The temporaries hold a few (F, K, N_t) arrays:
    callers pass chunks.
    """
    K, N_t = config.K, config.N_t
    fk = config.subcarrier_freq(np.arange(K))
    w = 2 * np.pi * config.d * fk / C_LIGHT
    b = min(_SPLIT, N_t)
    order = np.argsort(-n_paths, kind="stable")  # slot p's frames lead
    paths, n_paths = paths[order], n_paths[order]
    h = np.zeros((len(paths), K, N_t), dtype=np.complex128)
    fine = np.ones((len(paths), K, b), dtype=np.complex128)  # 1, e1, e1^2, ...
    coarse = np.empty((len(paths), K, -(-N_t // b)), dtype=np.complex128)  # gain, gain eb, ...
    term = np.empty(coarse.shape + (b,), dtype=np.complex128)
    for p in range(int(n_paths.max(initial=0))):  # every slot with a row
        r = np.count_nonzero(n_paths > p)
        alpha, phi, tau, theta_az, theta_el = paths[:r, p].T[..., None]  # (r, 1) each
        u = w * np.sin(theta_el) * np.cos(theta_az)  # (r, K)
        e1, eb = np.exp(1j * u), np.exp(1j * (b * u))
        np.multiply(alpha, np.exp(-1j * 2 * np.pi * fk * tau + 1j * phi), out=coarse[:r, :, 0])
        for i in range(1, b):
            np.multiply(fine[:r, :, i - 1], e1, out=fine[:r, :, i])
        for i in range(1, coarse.shape[2]):
            np.multiply(coarse[:r, :, i - 1], eb, out=coarse[:r, :, i])
        np.multiply(coarse[:r, :, :, None], fine[:r, :, None], out=term[:r])
        h[:r] += term[:r].reshape(r, K, -1)[..., :N_t]
    return h[np.argsort(order)]


def assemble_channel(paths, config: RayTraceConfig):
    """Frequency-domain channel of one frame's (n, 5) path rows, (K, N_t)
    complex128; zero when n = 0. The one-frame case of ``assemble_channels``."""
    return assemble_channels(paths[None], np.array([len(paths)]), config)[0]
