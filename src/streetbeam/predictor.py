"""Beam / blockage predictor: encoders, decision heads, losses, training.

The network mirrors the fused architecture: an auxiliary MLP encodes the
target user location, a small residual CNN encodes the stacked concept
masks of the selected semantic features, the two codes are concatenated
and a dense head produces beam logits (or a blockage logit put through a
sigmoid). The CNN reads the uint8 label maps: its first convolution
(``nn.LabelConv2d``) builds the mask columns from them, so no float mask
batch is ever built. Everything runs on the numpy layers in
:mod:`streetbeam.nn` so gradients can be verified against finite
differences.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .featsel import LOCATION, canonical
from .nn import (Adam, AvgPool, BatchNorm, Composite, Conv2d, Dense, Dropout,
                 Flatten, LabelConv2d, ReLU, ResidualBlock, Sequential)
from .semantics import CATALOG

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# samples and inputs

@dataclass
class SampleSet:
    """Column-oriented dataset: one row per labeled sample.

    ``rates`` holds every codeword rate of each sample, the exhaustive beam
    search done once at generation; the beam label and the codebook size
    are read from it.
    """
    label_maps: np.ndarray    # (N, n_cams, H, W) uint8
    locations: np.ndarray     # (N, 3) float32
    rates: np.ndarray         # (N, M_bm) float64 bits/s/Hz
    blockage: np.ndarray      # (N, n_horizons) uint8
    frame_ids: np.ndarray     # (N,) uint32
    horizons: tuple
    channels: np.ndarray | None = None  # (N, K, N_t) complex, optional

    def __len__(self):
        return self.label_maps.shape[0]

    @property
    def beam_labels(self):
        """(N,) optimal codeword per sample: the smallest index of maximal rate."""
        return self.rates.argmax(axis=1)

    @property
    def M_bm(self):
        return self.rates.shape[1]

    @property
    def n_cams(self):
        return self.label_maps.shape[1]

    @property
    def map_hw(self):
        return self.label_maps.shape[2:]


def _downsample(arr, out_hw):
    h, w = arr.shape[-2:]
    oh, ow = out_hw
    if (h, w) == (oh, ow):
        return arr
    if h % oh or w % ow:
        raise ValueError(f"map resolution {(h, w)} not an integer multiple of {out_hw}")
    return arr[..., ::h // oh, ::w // ow]


def semantic_features(features):
    """Canonical non-location features of a set; location must be present."""
    feats = canonical(features)
    if LOCATION not in feats:
        raise ValueError("the feature set must contain the location feature")
    return [f for f in feats if f != LOCATION]


def concept_ids(features):
    """uint8 catalog ids of the semantic features, in canonical order."""
    return np.array([CATALOG.index(f) for f in semantic_features(features)],
                    dtype=np.uint8)


def mask_channels(label_maps, features, out_hw=None):
    """Stack selected concept masks as channels: the float mask batch the
    semantic branch's first convolution never builds, kept as its reference.

    label_maps: (N, n_cams, H, W) uint8. Channel order is canonical feature
    order (major) then camera order (minor); shape (N, C, H', W') float32
    with C = (len(features) - 1) * n_cams.
    """
    sem = semantic_features(features)
    if out_hw is not None:
        label_maps = _downsample(label_maps, out_hw)
    n, n_cams = label_maps.shape[:2]
    chans = []
    for f in sem:
        idx = CATALOG.index(f)
        for cam in range(n_cams):
            chans.append(label_maps[:, cam] == idx)
    if not chans:
        return np.zeros((n, 0) + label_maps.shape[2:], dtype=np.float32)
    return np.stack(chans, axis=1).astype(np.float32)


# ---------------------------------------------------------------------------
# architecture

@dataclass(frozen=True)
class ArchConfig:
    """Desk-scale network shape; all widths configurable."""
    input_hw: tuple = (80, 160)
    aux_widths: tuple = (256, 16)
    beam_conv: tuple = ((16, 4), (16, 2))  # (filters, stride) per conv block
    beam_res: tuple = ((8, 2), (8, 1))     # (filters, stride) per residual block
    beam_hidden: int = 256
    bl_conv: tuple = ((16, 4),)
    bl_res: tuple = ((8, 2),)
    bl_hidden: int = 64
    dropout: float = 0.1


# small preset for fast unit tests
TINY_ARCH = ArchConfig(input_hw=(16, 32), aux_widths=(16, 8),
                       beam_conv=((4, 2),), beam_res=((4, 1),), beam_hidden=16,
                       bl_conv=((4, 2),), bl_res=((4, 1),), bl_hidden=8)


class Predictor(Composite):
    """Auxiliary branch + optional semantic branch + decision head
    (children "aux", "sem", "head")."""

    def __init__(self, task, in_channels, M_bm, arch: ArchConfig):
        if task not in ("beam", "blockage"):
            raise ValueError(f"unknown task {task!r}")
        self.task = task
        self.in_channels = in_channels
        self.M_bm = M_bm
        self.arch = arch

        w1, w2 = arch.aux_widths
        self.children = {"aux": Sequential([
            BatchNorm(3),
            Dense(3, w1), BatchNorm(w1), ReLU(),
            Dense(w1, w2), BatchNorm(w2), ReLU(),
        ])}
        self.aux_dim = w2

        conv_spec = arch.beam_conv if task == "beam" else arch.bl_conv
        res_spec = arch.beam_res if task == "beam" else arch.bl_res
        self.sem_dim = 0
        if in_channels > 0:
            layers = []
            c_prev = in_channels
            h, w = arch.input_hw
            for filters, stride in conv_spec:
                conv = (Conv2d(c_prev, filters, 3, stride, 1) if layers else
                        LabelConv2d(c_prev, filters, arch.input_hw, 3, stride, 1))
                layers += [conv, BatchNorm(filters), ReLU()]
                h, w = conv.out_hw(h, w)
                c_prev = filters
            pool = AvgPool(3, 2, 1)
            layers.append(pool)
            h, w = pool.out_hw(h, w)
            for filters, stride in res_spec:
                block = ResidualBlock(c_prev, filters, stride)
                layers.append(block)
                h, w = block.out_hw(h, w)
                c_prev = filters
            layers.append(Flatten())
            self.children["sem"] = Sequential(layers)
            self.sem_dim = c_prev * h * w

        hidden = arch.beam_hidden if task == "beam" else arch.bl_hidden
        out_dim = M_bm if task == "beam" else 1
        self.children["head"] = Sequential([
            Dense(self.aux_dim + self.sem_dim, hidden), BatchNorm(hidden), ReLU(),
            Dropout(arch.dropout),
            Dense(hidden, out_dim),
        ])

    def init(self, seed, dtype=np.float32):
        return super().init(rng_mod.stream(seed, "predictor.init"), dtype)

    def forward(self, params, state, loc, maps, features, training=False, rng=None):
        """Returns (output, cache): beam logits (N, M_bm) or blockage logit (N, 1).

        loc: (N, 3) target locations. maps: (N, n_cams, H, W) uint8 label
        maps at ``arch.input_hw`` or an integer multiple of it, of which the
        semantic branch masks the concepts of ``features``.
        """
        x, ca = self.run("aux", loc, params, state, training, rng)
        cm = None
        if "sem" in self.children:
            ids = concept_ids(features)
            if len(ids) * maps.shape[1] != self.in_channels:
                raise ValueError(f"{len(ids)} concepts x {maps.shape[1]} cameras do not "
                                 f"make the network's {self.in_channels} input channels")
            m, cm = self.run("sem", (maps, ids), params, state, training, rng)
            x = np.concatenate([x, m], axis=1)
        y, ch = self.run("head", x, params, state, training, rng)
        return y, (ca, cm, ch)

    def backward(self, dy, cache, params):
        ca, cm, ch = cache
        grads = {}
        dx = self.grad("head", dy, ch, params, grads)
        if "sem" in self.children:
            self.grad("sem", dx[:, self.aux_dim:], cm, params, grads)
        self.grad("aux", dx[:, :self.aux_dim], ca, params, grads)
        return grads


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1 / (1 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1 + ez)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# losses

def log_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _batch_loss_grad(model, out, labels):
    """Mean loss over a batch and its gradient wrt the network output."""
    n = out.shape[0]
    if model.task == "beam":
        ls = log_softmax(out)
        loss = -ls[np.arange(n), labels].mean()
        dout = np.exp(ls)
        dout[np.arange(n), labels] -= 1
        dout /= n
    else:
        z = out[:, 0]
        y = labels.astype(z.dtype)
        # stable BCE-with-logits
        loss = np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))))
        dout = ((sigmoid(z) - y) / n)[:, None]
    return float(loss), dout.astype(out.dtype)


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 30
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    split: tuple = (0.7, 0.15, 0.15)
    arch: ArchConfig = field(default_factory=ArchConfig)

    def __post_init__(self):
        if min(self.learning_rate, self.batch_size, self.epochs) <= 0:
            raise ValueError("learning rate, batch size and epochs must be positive")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


def split_indices(frame_ids, split, seed, n_blocks=10):
    """Disjoint train/val/test index arrays keyed on frame id.

    Frames are grouped into contiguous blocks which are then shuffled and
    dealt out, so temporally adjacent frames never straddle a boundary.
    """
    frame_ids = np.asarray(frame_ids)
    uniq = np.unique(frame_ids)
    n_blocks = min(n_blocks, len(uniq))
    blocks = np.array_split(uniq, n_blocks)
    order = rng_mod.stream(seed, "split").permutation(n_blocks)
    n = len(frame_ids)
    targets = [split[0] * n, (split[0] + split[1]) * n]
    out = [[], [], []]
    assigned = 0
    for bi in order:
        members = np.flatnonzero(np.isin(frame_ids, blocks[bi]))
        if assigned < targets[0]:
            out[0].append(members)
        elif assigned < targets[1]:
            out[1].append(members)
        else:
            out[2].append(members)
        assigned += len(members)
    train, val, test = (np.sort(np.concatenate(g)) if g else np.array([], dtype=int)
                        for g in out)
    if len(train) == 0 or (split[1] > 0 and len(val) == 0):
        raise ValueError("empty train/val split; dataset too small for the fractions")
    return train, val, test


@dataclass
class TrainResult:
    model: Predictor
    params: dict
    state: dict
    features: tuple
    val_accuracy: float
    split: tuple  # (train_idx, val_idx, test_idx)
    train_loss: list  # mean training loss of each epoch


def task_labels(dataset: SampleSet, task, horizon=None):
    """(horizon, (N,) int64 labels) of a task on ``dataset``.

    Beam labels are the optimal codewords, and ``horizon`` is returned as
    given. Blockage labels are the flags at ``horizon``, by default the
    dataset's first; a horizon the dataset lacks raises ValueError.
    """
    if task == "beam":
        return horizon, dataset.beam_labels.astype(np.int64)
    if horizon is None:
        horizon = next(iter(dataset.horizons), None)
    if horizon not in dataset.horizons:
        raise ValueError(f"horizon {horizon} is not one of the dataset's "
                         f"horizons {list(dataset.horizons)}")
    col = list(dataset.horizons).index(horizon)
    return horizon, dataset.blockage[:, col].astype(np.int64)


def predict(model, params, state, dataset, idx, features, batch_size=256):
    """Eval-mode network outputs for the given sample indices."""
    outs = []
    for lo in range(0, len(idx), batch_size):
        sel = idx[lo:lo + batch_size]
        loc = dataset.locations[sel].astype(np.float32)
        y, _ = model.forward(params, state, loc, dataset.label_maps[sel], features,
                             training=False)
        outs.append(y)
    return np.concatenate(outs) if outs else np.zeros((0, 1))


def accuracy(model, params, state, dataset, idx, features, task, horizon=None):
    """Top-1 beam accuracy (argmax) or blockage accuracy (0.5 threshold)."""
    if len(idx) == 0:
        return 0.0
    out = predict(model, params, state, dataset, idx, features)
    labels = task_labels(dataset, task, horizon)[1][idx]
    if task == "beam":
        pred = np.argmax(out, axis=1)
    else:
        pred = (sigmoid(out[:, 0]) >= 0.5).astype(np.int64)
    return float(np.mean(pred == labels))


def train(dataset: SampleSet, features, task, cfg: TrainConfig, horizon=None) -> TrainResult:
    """Mini-batch ADAM training with fresh seeded initialization.

    Deterministic for a fixed (dataset, features, task, cfg): the split,
    the init, the shuffles and the dropout masks all come from named child
    streams of cfg.seed, and batches run sequentially.
    """
    feats = canonical(features)
    sem = semantic_features(feats)  # validates location presence
    in_channels = len(sem) * dataset.n_cams
    _, labels = task_labels(dataset, task, horizon)
    train_idx, val_idx, test_idx = split_indices(dataset.frame_ids, cfg.split, cfg.seed)

    model = Predictor(task, in_channels, dataset.M_bm, cfg.arch)
    params, state = model.init(cfg.seed)
    opt = Adam(params, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    shuffle_rng = rng_mod.stream(cfg.seed, "shuffle")
    dropout_rng = rng_mod.stream(cfg.seed, "dropout")

    train_loss = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(train_idx)
        ep_loss, ep_n = 0.0, 0
        for lo in range(0, len(perm), cfg.batch_size):
            sel = perm[lo:lo + cfg.batch_size]
            if len(sel) < 2:
                continue  # batch statistics need more than one sample
            loc = dataset.locations[sel].astype(np.float32)
            out, cache = model.forward(params, state, loc, dataset.label_maps[sel], feats,
                                       training=True, rng=dropout_rng)
            loss, dout = _batch_loss_grad(model, out, labels[sel])
            grads = model.backward(dout, cache, params)
            opt.step(params, grads)
            ep_loss += loss * len(sel)
            ep_n += len(sel)
        train_loss.append(ep_loss / max(ep_n, 1))
        log.debug("epoch %d: train loss %.4f", epoch, train_loss[-1])

    val_acc = accuracy(model, params, state, dataset, val_idx, feats, task, horizon)
    return TrainResult(model=model, params=params, state=state, features=feats,
                       val_accuracy=val_acc, split=(train_idx, val_idx, test_idx),
                       train_loss=train_loss)
