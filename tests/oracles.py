"""Verification oracles that only the tests use: concept masks, map
corruption and pixel accuracy, per-sample loops of the Top-G accuracy and
TRR, an exhaustive subset search, the finite-difference gradient check of
a predictor, the name -> tensor view of a tensor tree, the per-slot blockage
labeler, the per-frame ray tracer with its scalar slab test, the per-path
channel sum with its steering vector, extended-precision references of the
channel and the beam rates with their float64 error bounds, and the
object-based scenario generator with the helper that builds array frames
from its vehicles.
"""

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from streetbeam.channel import C_LIGHT
from streetbeam.featsel import CachedEvaluator, canonical, feature_key
from streetbeam.nn import leaves
from streetbeam.predictor import Predictor, _batch_loss_grad
from streetbeam.scene import (_SPAWN_GAP, VEHICLE_CLASSES, CameraPose, ConfigError, Frame,
                              ScenarioStreams, SceneConfig, VehicleClass, _boxes,
                              vehicle_class)
from streetbeam.semantics import CONCEPT_NAMES


class TargetLostError(RuntimeError):
    """The target user despawned inside the labeling window."""


def named(tree):
    """name -> tensor of a parameter or state tree, names as ``nn.leaves``
    gives them."""
    return {name: d[k] for name, d, k in leaves(tree)}


def extract_mask(labels: np.ndarray, concept: int) -> np.ndarray:
    """Binary zero-mask isolating one concept from the (H, W) segmentation
    map: (H, W) uint8 in {0, 1}."""
    if not 0 <= concept < len(CONCEPT_NAMES):
        raise IndexError(f"concept index {concept} out of range 0..{len(CONCEPT_NAMES) - 1}")
    return (labels == concept).astype(np.uint8)


def corrupt_map(labels: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Resample each pixel uniformly over all labels with probability p.

    Stands in for segmentation error of a learned extractor; p = 0 is the
    identity. The uniform resample may re-draw the original label, so the
    expected pixel accuracy against the input is 1 - p * (M_con - 1) / M_con.
    """
    if not 0 <= p <= 1:
        raise ValueError("corruption probability must be in [0, 1]")
    if p == 0:
        return labels
    labels = labels.copy()
    flip = rng.random(labels.shape) < p
    labels[flip] = rng.integers(0, len(CONCEPT_NAMES), size=int(flip.sum()), dtype=np.uint8)
    return labels


def pixel_accuracy(pred, truth) -> float:
    """Fraction of pixels whose predicted label matches the truth,
    averaged over all pixels of all (H, W) maps."""
    if len(pred) != len(truth):
        raise ValueError("prediction and truth map counts differ")
    correct = 0
    total = 0
    for p, t in zip(pred, truth):
        if p.shape != t.shape:
            raise ValueError("map shapes differ")
        correct += int((p == t).sum())
        total += p.size
    return correct / total


def topg_accuracy(labels, topg_sets, G: int) -> float:
    """Fraction of samples whose label beam falls in its Top-G set."""
    if len(labels) != len(topg_sets):
        raise ValueError("labels and Top-G sets have different lengths")
    for s in topg_sets:
        if len(s) != G:
            raise ValueError(f"every Top-G set must have exactly {G} indices")
    hits = sum(1 for lab, s in zip(labels, topg_sets) if int(lab) in s)
    return hits / len(labels)


def trr(rates, topg_sets, G: int) -> float:
    """Mean over samples of (best rate within Top-G) / (optimal rate),
    one sample at a time; samples with zero optimal rate are excluded."""
    if len(rates) != len(topg_sets):
        raise ValueError("rates and Top-G sets have different lengths")
    ratios = []
    for row, s in zip(rates, topg_sets):
        if len(s) != G:
            raise ValueError(f"every Top-G set must have exactly {G} indices")
        opt = row.max()
        if opt <= 0:
            continue
        best = max(row[i] for i in s)
        ratios.append(best / opt)
    if not ratios:
        raise ValueError("no valid samples for TRR")
    return float(np.mean(ratios))


def blockage_labels(targets, los, t0, horizons):
    """Future-blockage flags of the sample at slot t0, one per horizon h:
    1 iff the target user has no direct path at slot t0 + h.

    ``targets[t]`` is the target user id of slot t (None if there is none)
    and ``los[t]`` whether that user has a direct path. Raises IndexError
    when the longest horizon runs past the last slot, and TargetLostError
    unless the target of slot t0 persists through the whole window.
    """
    max_h = max(horizons, default=0)
    if not 0 <= t0 + max_h < len(targets):
        raise IndexError("t0 + horizon outside the frame range")
    target = targets[t0]
    if target is None:
        raise TargetLostError(f"no target user at slot {t0}")
    for t in range(t0, t0 + max_h + 1):
        if targets[t] != target:
            raise TargetLostError(f"target {target} lost at slot {t}")
    return [0 if los[t0 + h] else 1 for h in horizons]


# ---------------------------------------------------------------------------
# the per-frame tracer, one PathComponent per surviving candidate and every
# leg tested box by box: streetbeam.channel's path table must reproduce it
# bitwise

@dataclass(frozen=True)
class PathComponent:
    alpha: float      # linear amplitude, >= 0
    phi: float        # phase, radians in [0, 2pi)
    tau: float        # delay, seconds
    theta_az: float   # azimuth at the BS array, (-pi, pi]
    theta_el: float   # elevation at the BS array, [-pi/2, pi/2]
    is_los: bool


def path_rows(paths):
    """(n, 5) rows of PathComponents in streetbeam.channel's table."""
    return np.array([(p.alpha, p.phi, p.tau, p.theta_az, p.theta_el) for p in paths],
                    dtype=float).reshape(-1, 5)


def steering_vector(theta_az, theta_el, f, config):
    """ULA manifold vector: entry n = exp(j*w*n*sin(el)*cos(az)), w = 2 pi d f / c.

    ``f`` broadcasts against the antenna axis: a (K, 1) column of subcarrier
    frequencies gives the (K, N_t) manifold of one path.
    """
    w = 2 * np.pi * config.d * f / C_LIGHT
    n = np.arange(config.N_t)
    return np.exp(1j * w * n * np.sin(theta_el) * np.cos(theta_az))


def assemble_channel(paths, config):
    """Frequency-domain channel of one frame's (n, 5) path rows, (K, N_t)
    complex128, summed path by path with one complex exp per manifold entry;
    zero when n = 0. ``streetbeam.channel.assemble_channels`` evaluates the
    manifold from split tables and must stay within ``channel_tolerance`` of
    ``channel_reference``, as this sum does."""
    h = np.zeros((config.K, config.N_t), dtype=np.complex128)
    fk = config.subcarrier_freq(np.arange(config.K))
    for alpha, phi, tau, theta_az, theta_el in paths.tolist():
        gain = alpha * np.exp(-1j * 2 * np.pi * fk * tau + 1j * phi)  # (K,)
        h += gain[:, None] * steering_vector(theta_az, theta_el, fk[:, None], config)
    return h


EPS = np.finfo(np.float64).eps


def channel_reference(paths, config):
    """The per-path sum of ``assemble_channel`` over one frame's (n, 5) path
    rows in np.clongdouble: the same float64 inputs and constants, every
    operation rounded in extended precision. (K, N_t)."""
    ld = np.longdouble
    pi = ld(np.pi)  # the float64 pi that the channel code uses
    fk = ld(config.f_c) + (np.arange(config.K, dtype=ld) - ld(config.K) / 2) \
        * ld(config.subcarrier_spacing)
    w = 2 * pi * ld(config.d) * fk / ld(C_LIGHT)
    n = np.arange(config.N_t, dtype=ld)
    h = np.zeros((config.K, config.N_t), dtype=np.clongdouble)
    for alpha, phi, tau, theta_az, theta_el in np.asarray(paths, dtype=ld):
        gain = alpha * np.exp(1j * (phi - 2 * pi * fk * tau))
        u = w * np.sin(theta_el) * np.cos(theta_az)
        h += gain[:, None] * np.exp(1j * np.outer(u, n))
    return h


def channel_tolerance(paths, config):
    """Bound on |h - channel_reference| for a float64 evaluation of one
    frame's channel: 4 ulps of each path's largest phase, 2 pi f tau + phi +
    N_t w + 1 rad at the top subcarrier, weighted by the path's amplitude and
    summed over the paths. A phase argument rounded in float64 is off by an
    ulp or two of its size, and the exps and the products add a few ulps of
    each term; the per-path sum and the split tables both stay near 1.1
    such units on street and random paths."""
    paths = np.asarray(paths, dtype=float).reshape(-1, 5)
    f_max = np.abs(config.subcarrier_freq(np.arange(config.K))).max()
    w_max = 2 * np.pi * config.d * f_max / C_LIGHT
    alpha, phi, tau = paths[:, 0], paths[:, 1], paths[:, 2]
    phase = 2 * np.pi * f_max * np.abs(tau) + np.abs(phi) + config.N_t * w_max + 1
    return 4 * EPS * float(np.sum(np.abs(alpha) * phase))


def rates_reference(h, codebook, P_k, sigma2):
    """The (M_bm,) rates of the (K, N_t) channel ``h``, one per codeword, in
    np.longdouble from the float64 channel and codebook."""
    g = np.abs(np.asarray(h, dtype=np.clongdouble) @ np.asarray(codebook, np.clongdouble).T) ** 2
    snr = np.longdouble(P_k) / np.longdouble(sigma2)
    return np.mean(np.log2(1 + snr * g), axis=0)


def rate_tolerance(h, codebook, P_k, sigma2):
    """Bound on |rates - rates_reference| for a float64 search of one (K,
    N_t) channel, per codeword. A complex dot product of length N_t is off by
    at most delta = 2 N_t eps sum_n |h_n| |w_n| in any summation order, so a
    gain g = |x|^2 moves by at most (2|x| + delta) delta and log2(1 + snr g)
    by at most snr that / ((1 + snr g_low) ln 2), g_low its lowest value.
    Rounding 1 + snr g moves each log2 by up to an ulp of 1 over ln 2, and
    the log2, the sum over K and the division add (K + 4) ulps of the rate."""
    h, codebook = np.asarray(h), np.asarray(codebook)
    K, N_t = h.shape
    snr = P_k / sigma2
    x = np.abs(h @ codebook.T)
    delta = 2 * N_t * EPS * (np.abs(h) @ np.abs(codebook).T)
    dg = (2 * x + delta) * delta
    step = snr * dg / ((1 + snr * np.maximum(x ** 2 - dg, 0)) * np.log(2))
    rates = np.mean(np.log2(1 + snr * x ** 2), axis=0)
    return step.mean(axis=0) + EPS * (4 + (K + 4) * rates)


def segment_blocked(p0, p1, boxes, eps=1e-9):
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
    """Departure azimuth and ULA steering angle, theta_el = pi/2 - |elevation|."""
    d = toward - bs
    r = np.linalg.norm(d)
    elev = math.asin(max(-1.0, min(1.0, d[2] / r)))
    theta_el = math.pi / 2 - abs(elev)
    theta_az = math.atan2(d[1], d[0])
    if theta_az <= -math.pi:
        theta_az = math.pi
    return theta_az, theta_el


def _make_path(bs, points, config, n_bounces, is_los):
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


def trace_frame(frame, scene, config):
    """The strongest unobstructed paths of one frame, sorted by (-alpha, tau)
    and cut at ``config.max_paths``; [] for a frame without a target."""
    if frame.target_user_id is None:
        return []
    bs = np.asarray(scene.bs_position, dtype=float)
    user = np.asarray(frame.user_antenna_pos, dtype=float)
    boxes = frame_boxes(frame)[frame.ids != frame.target_user_id].tolist()
    blocked = segment_blocked
    candidates = []
    if not blocked(bs, user, boxes):
        candidates.append(_make_path(bs, [user], config, n_bounces=0, is_los=True))
    if abs(config.reflection_coeff) > 0:
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
            if blocked(bs, bounce, boxes) or blocked(bounce, user, boxes):
                continue
            candidates.append(_make_path(bs, [bounce, user], config, n_bounces=1, is_los=False))
        image = bs.copy()
        image[2] = -bs[2]
        d = user - image
        if abs(d[2]) > 1e-12:
            s = -image[2] / d[2]
            if 0 < s < 1:
                bounce = image + s * d
                if not (blocked(bs, bounce, boxes) or blocked(bounce, user, boxes)):
                    candidates.append(_make_path(bs, [bounce, user], config,
                                                 n_bounces=1, is_los=False))
    candidates.sort(key=lambda p: (-p.alpha, p.tau))
    return candidates[:config.max_paths]


def trace_table(frames, scene, config):
    """``(paths, n_paths, los)`` of ``frames`` built from ``trace_frame``,
    padded as streetbeam.channel.trace_paths pads its table."""
    traced = [trace_frame(f, scene, config) for f in frames]
    P = min(config.max_paths, 4 if abs(config.reflection_coeff) > 0 else 1)
    paths = np.zeros((len(frames), P, 5))
    for f, frame_paths in enumerate(traced):
        paths[f, :len(frame_paths)] = path_rows(frame_paths)
    return (paths, np.array([len(p) for p in traced], dtype=np.intp),
            np.array([any(p.is_los for p in ps) for ps in traced], dtype=bool))


def per_set(fn):
    """A ``CachedEvaluator`` function that evaluates ``fn`` on each set of a
    batch in turn."""
    return lambda keys: [fn(key) for key in keys]


def brute_force_best(universal, evaluator, pinned=(), v_max=None, max_size=20):
    """Exact argmax over all subsets containing ``pinned``; ties go to the
    lexicographically smallest canonical set."""
    universal = canonical(universal)
    pinned = canonical(pinned)
    free = [f for f in universal if f not in pinned]
    if len(free) > max_size:
        raise ValueError(f"universe too large for exhaustive search (> {max_size})")
    if not isinstance(evaluator, CachedEvaluator):
        evaluator = CachedEvaluator(per_set(evaluator))

    best_set, best_key, best_acc = None, None, -1.0
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            cand = canonical(pinned + combo)
            if v_max is not None and len(cand) > v_max:
                continue
            acc = evaluator(cand)
            # tie rule: fewest features first, then lexicographic canonical order
            ckey = (len(cand), tuple(feature_key(f) for f in cand))
            if acc > best_acc or (acc == best_acc and ckey < best_key):
                best_set, best_key, best_acc = cand, ckey, acc
    return best_set


def gradient_check(model: Predictor, params, state, loc, maps, label,
                   n_samples=120, step=1e-5, seed=0):
    """Max relative error between analytic and central-difference gradients.

    Runs in evaluation mode (dropout off, frozen normalization stats) on
    64-bit shadow copies of the parameters; the uint8 label maps become
    float64 mask columns in the first convolution. A sample whose difference
    interval straddles a ReLU kink invalidates the central difference, not
    the gradient, so suspect samples are re-measured at step/10 and step/100
    and the smallest error kept: a genuine backpropagation error persists at
    every step, a kink crossing vanishes.
    """
    p64, s64 = copy.deepcopy((params, state))
    for _, d, k in (*leaves(p64), *leaves(s64)):
        d[k] = d[k].astype(np.float64)
    loc = np.asarray(loc, dtype=np.float64)
    labels = np.atleast_1d(np.asarray(label, dtype=np.int64))

    def loss_of(p):
        out, _ = model.forward(p, s64, loc, maps, training=False)
        loss, _ = _batch_loss_grad(model, out, labels[:, None])
        return float(loss[0])

    out, cache = model.forward(p64, s64, loc, maps, training=False)
    _, dout = _batch_loss_grad(model, out, labels[:, None])
    grads = named(model.backward(dout, cache, p64))

    rng = np.random.default_rng(seed)
    tensors = named(p64)
    keys = sorted(tensors)
    max_err = 0.0
    for _ in range(max(n_samples, 100)):
        k = keys[int(rng.integers(len(keys)))]
        flat = tensors[k].reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        analytic = grads[k].reshape(-1)[i]
        err = np.inf
        for h in (step, step / 10, step / 100):
            flat[i] = orig + h
            lp = loss_of(p64)
            flat[i] = orig - h
            lm = loss_of(p64)
            flat[i] = orig
            numeric = (lp - lm) / (2 * h)
            err = min(err, abs(analytic - numeric)
                      / max(abs(analytic), abs(numeric), 1e-8))
            if err < 1e-7:
                break
        max_err = max(max_err, err)
    return max_err


# ---------------------------------------------------------------------------
# the object-based scenario generator, one frozen Vehicle per vehicle per
# slot: streetbeam.scene's array frames must reproduce its frames bitwise

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


def frame_boxes(frame):
    """(V, 2, 3) min and max corners of each vehicle's 3D bounding box in
    a ``scene.Frame``, in its vehicle order."""
    return _boxes(frame.classes, frame.x, frame.y)


def vehicle_boxes(vehicles):
    """(V, 2, 3) min and max corners of each vehicle's 3D bounding box."""
    return np.array([(x0, y0, 0.0, x1, y1, v.vclass.height) for v in vehicles
                     for x0, x1, y0, y1 in (v.footprint(),)], dtype=float).reshape(-1, 2, 3)


@dataclass(frozen=True)
class VehicleFrame:
    t_index: int
    vehicles: tuple          # tuple of Vehicle
    target_user_id: int | None
    user_antenna_pos: tuple | None  # (x, y, z); z = target vehicle height
    spawn_draw: int = 0      # Poisson draw for this slot (attempted spawns)


def make_frame(vehicles=(), target_user_id=None, t_index=0, spawn_draw=0) -> Frame:
    """streetbeam Frame holding ``vehicles`` (Vehicle objects in id order)."""
    return Frame(t_index,
                 np.array([v.id for v in vehicles], dtype=np.int64),
                 np.array([VEHICLE_CLASSES.index(v.vclass) for v in vehicles], dtype=np.int64),
                 np.array([v.center[0] for v in vehicles], dtype=float),
                 np.array([v.center[1] for v in vehicles], dtype=float),
                 np.array([v.speed for v in vehicles], dtype=float),
                 np.array([v.lane for v in vehicles], dtype=np.int64),
                 target_user_id, spawn_draw)


def frame_fields(frame: Frame):
    """Every field of a streetbeam Frame, arrays as (dtype, bytes): equal
    tuples mean bitwise equal frames."""
    arrays = (frame.ids, frame.classes, frame.x, frame.y, frame.speed, frame.lane)
    return (frame.t_index, frame.target_user_id, frame.spawn_draw,
            *((a.dtype.str, a.tobytes()) for a in arrays))


def _lane_direction(config, lane):
    """Heading of the lane axis: +x for negative-y lanes, -x otherwise."""
    return 0.0 if config.lane_center_y(lane) < 0 else np.pi


def sees(camera: CameraPose, point) -> bool:
    """Horizontal-frustum visibility of a world point."""
    fwd, right, _ = camera.basis()
    d = np.asarray(point, dtype=float) - np.asarray(camera.position, dtype=float)
    x_c = float(d @ fwd)
    y_c = float(d @ right)
    return x_c > 0 and abs(np.arctan2(y_c, x_c)) < camera.hfov / 2


def _overlaps(fp_a, fp_b, margin=0.0):
    return (fp_a[0] - margin < fp_b[1] and fp_b[0] < fp_a[1] + margin
            and fp_a[2] - margin < fp_b[3] and fp_b[2] < fp_a[3] + margin)


def _in_street(veh: Vehicle, config: SceneConfig) -> bool:
    xmin, xmax, _, _ = veh.footprint()
    return xmax > 0 and xmin < config.street_length_m


def _advance_positions(vehicles, config):
    """Move vehicles one slot with a no-overtake gap clamp per lane."""
    dt = config.slot_duration_s
    out = []
    by_lane = {}
    for v in vehicles:
        by_lane.setdefault(v.lane, []).append(v)
    for lane, vs in by_lane.items():
        sgn = 1.0 if _lane_direction(config, lane) == 0.0 else -1.0
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


def advance_frame(frame: VehicleFrame, config: SceneConfig, streams: ScenarioStreams | None = None,
                  next_id=None) -> VehicleFrame:
    """Advance one 50 ms slot: move, despawn, spawn, re-target.

    ``streams`` may be None for kinematics-only use (no spawning).
    Returns the next VehicleFrame; the input frame is not mutated.
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
            if _lane_direction(config, lane) == 0.0:
                cx = vc.length / 2
            else:
                cx = config.street_length_m - vc.length / 2
            cand = Vehicle(next_id, vc, (cx, config.lane_center_y(lane)),
                           _lane_direction(config, lane), speed, lane)
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

    return VehicleFrame(
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
        if all(sees(cam, (v.center[0], v.center[1], v.vclass.height)) for cam in config.camera_poses)
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
    """Generate ``config.frame_count`` VehicleFrames; pure function of the config.

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
        vehicles.append(Vehicle(i, vc, tuple(center), _lane_direction(config, lane), float(speed), lane))
    vehicles = tuple(vehicles)
    target_id = _pick_target(vehicles, config, streams.target)
    frame0 = VehicleFrame(0, vehicles, target_id, _antenna_pos(vehicles, target_id))

    frames = [frame0]
    next_id = len(vehicles)
    for _ in range(config.frame_count - 1):
        nxt = advance_frame(frames[-1], config, streams, next_id=next_id)
        # ids are never reused, even after despawns
        next_id = max(next_id, 1 + max((v.id for v in nxt.vehicles), default=-1))
        frames.append(nxt)
    return frames
