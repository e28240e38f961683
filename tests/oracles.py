"""Verification oracles that only the tests use: concept masks, map
corruption and pixel accuracy, an exhaustive subset search, the
finite-difference gradient check of a predictor, and the prefix slice of a
flat tensor dict.
"""

import itertools

import numpy as np

from streetbeam.featsel import CachedEvaluator, canonical, feature_key
from streetbeam.predictor import Predictor, _batch_loss_grad
from streetbeam.semantics import CATALOG, SemanticMap


def _sub(d, prefix):
    """The tensors of ``d`` under "<prefix>.", keyed without the prefix."""
    p = prefix + "."
    return {k[len(p):]: v for k, v in d.items() if k.startswith(p)}


def extract_mask(smap: SemanticMap, concept: int) -> np.ndarray:
    """Binary zero-mask isolating one concept from the segmentation map:
    (H, W) uint8 in {0, 1}."""
    if not 0 <= concept < CATALOG.M_con:
        raise IndexError(f"concept index {concept} out of range 0..{CATALOG.M_con - 1}")
    return (smap.labels == concept).astype(np.uint8)


def corrupt_map(smap: SemanticMap, p: float, rng: np.random.Generator) -> SemanticMap:
    """Resample each pixel uniformly over all labels with probability p.

    Stands in for segmentation error of a learned extractor; p = 0 is the
    identity. The uniform resample may re-draw the original label, so the
    expected pixel accuracy against the input is 1 - p * (M_con - 1) / M_con.
    """
    if not 0 <= p <= 1:
        raise ValueError("corruption probability must be in [0, 1]")
    if p == 0:
        return smap
    labels = smap.labels.copy()
    flip = rng.random(labels.shape) < p
    labels[flip] = rng.integers(0, CATALOG.M_con, size=int(flip.sum()), dtype=np.uint8)
    return SemanticMap(camera_id=smap.camera_id, labels=labels)


def pixel_accuracy(pred, truth) -> float:
    """Fraction of pixels whose predicted label matches the truth,
    averaged over all pixels of all maps."""
    if len(pred) != len(truth):
        raise ValueError("prediction and truth map counts differ")
    correct = 0
    total = 0
    for p, t in zip(pred, truth):
        if p.labels.shape != t.labels.shape:
            raise ValueError("map shapes differ")
        correct += int((p.labels == t.labels).sum())
        total += p.labels.size
    return correct / total


def brute_force_best(universal, evaluator, pinned=(), v_max=None, max_size=20):
    """Exact argmax over all subsets containing ``pinned``; ties go to the
    lexicographically smallest canonical set."""
    universal = canonical(universal)
    pinned = canonical(pinned)
    free = [f for f in universal if f not in pinned]
    if len(free) > max_size:
        raise ValueError(f"universe too large for exhaustive search (> {max_size})")
    if not isinstance(evaluator, CachedEvaluator):
        evaluator = CachedEvaluator(evaluator)

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


def gradient_check(model: Predictor, params, state, loc, maps, features, label,
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
    p64 = {k: v.astype(np.float64) for k, v in params.items()}
    s64 = {k: v.astype(np.float64) for k, v in state.items()}
    loc = np.asarray(loc, dtype=np.float64)
    labels = np.atleast_1d(np.asarray(label, dtype=np.int64))

    def loss_of(p):
        out, _ = model.forward(p, s64, loc, maps, features, training=False)
        loss, _ = _batch_loss_grad(model, out, labels)
        return loss

    out, cache = model.forward(p64, s64, loc, maps, features, training=False)
    _, dout = _batch_loss_grad(model, out, labels)
    grads = model.backward(dout, cache, p64)

    rng = np.random.default_rng(seed)
    keys = sorted(p64.keys())
    max_err = 0.0
    for _ in range(max(n_samples, 100)):
        k = keys[int(rng.integers(len(keys)))]
        flat = p64[k].reshape(-1)
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
