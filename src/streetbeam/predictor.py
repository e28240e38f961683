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

import copy
import logging
from dataclasses import dataclass, field, fields

import numpy as np

from . import blas
from . import rng as rng_mod
from .featsel import LOCATION, canonical
from .nn import (Adam, AvgPool, BatchNorm, Composite, Conv2d, Dense, Dropout,
                 Flatten, LabelConv2d, ReLU, ResidualBlock, Sequential, tree_map)
from .scene import ConfigError, check_fields, check_max, check_min
from .semantics import CATALOG

log = logging.getLogger(__name__)
PREDICT_BATCH = 256  # samples per evaluation-mode forward pass of predict
# map pixels (n_cams x H x W x batch) of the models a training stack holds
# at once; their activations and im2col columns grow with it. The default
# arch's 160x320 maps at batch 128 take 13.1 M, so it trains one model at a
# time; a TINY_ARCH search at 16x32 and batch 32 takes 32 K per model.
_STACK_PIXELS = 1 << 20


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
    channels: np.ndarray | None = None  # (N, K, N_t) complex64 as stored, optional

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
    def map_shape(self):
        return self.label_maps.shape[1:]


def concept_ids(features):
    """uint8 catalog ids of the non-location features of a set, in canonical
    order; the set must contain location."""
    feats = canonical(features)
    if LOCATION not in feats:
        raise ValueError("the feature set must contain the location feature")
    return np.array([CATALOG.index(f) for f in feats if f != LOCATION], dtype=np.uint8)


def mask_channels(label_maps, features):
    """Stack selected concept masks as channels: the float mask batch the
    semantic branch's first convolution never builds, kept as its reference.

    label_maps: (N, n_cams, H, W) uint8. Channel order is canonical feature
    order (major) then camera order (minor); shape (N, C, H', W') float32
    with C = (len(features) - 1) * n_cams.
    """
    ids = concept_ids(features)
    n, n_cams, h, w = label_maps.shape
    masks = label_maps[:, None] == ids[:, None, None, None]  # (N, C, n_cams, H, W)
    return masks.reshape(n, len(ids) * n_cams, h, w).astype(np.float32)


# ---------------------------------------------------------------------------
# architecture

# largest filter count, stride, width or hidden size of a network: about
# 16 times the defaults, and a size typed in error fails before training
MAX_WIDTH = 4096


@dataclass(frozen=True)
class ArchConfig:
    """Desk-scale network shape; all widths configurable."""
    aux_widths: tuple[int, int] = (256, 16)
    # (filters, stride) of each conv block, then of each residual block
    beam_conv: tuple[tuple[int, int], ...] = ((16, 4), (16, 2))
    beam_res: tuple[tuple[int, int], ...] = ((8, 2), (8, 1))
    beam_hidden: int = 256
    bl_conv: tuple[tuple[int, int], ...] = ((16, 4),)
    bl_res: tuple[tuple[int, int], ...] = ((8, 2),)
    bl_hidden: int = 64
    dropout: float = 0.1

    def __post_init__(self):
        check_fields(self)
        check_min(self, 1, [f.name for f in fields(self) if f.name != "dropout"])
        check_max(self, MAX_WIDTH, [f.name for f in fields(self) if f.name != "dropout"])
        for name in ("beam_conv", "bl_conv"):  # a first convolution reads the label maps
            if not getattr(self, name):
                raise ConfigError(f"{name} needs at least one block")
        if not 0 <= self.dropout < 1:
            raise ConfigError("dropout must lie in [0, 1)")


# small preset for fast unit tests
TINY_ARCH = ArchConfig(aux_widths=(16, 8), beam_conv=((4, 2),), beam_res=((4, 1),),
                       beam_hidden=16, bl_conv=((4, 2),), bl_res=((4, 1),), bl_hidden=8)


class Predictor(Composite):
    """Auxiliary branch + optional semantic branch + decision head
    (children "aux", "sem", "head"), built for one feature set and one map
    shape: the semantic branch masks its ``concepts`` in label maps of
    ``map_shape`` (n_cams, H, W), the dataset's own, and is left out when
    the set is location alone. ``Predictor.stack`` runs several such models
    of one shape as one network (see ``streetbeam.nn``)."""

    def __init__(self, task, features, map_shape, M_bm, arch: ArchConfig):
        if task not in ("beam", "blockage"):
            raise ValueError(f"unknown task {task!r}")
        self.task = task
        self.features = canonical(features)
        self.concepts = concept_ids(self.features)

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
        if len(self.concepts):
            layers = []
            n_cams, h, w = map_shape
            for filters, stride in conv_spec:
                conv = (Conv2d(c_prev, filters, 3, stride, 1) if layers else
                        LabelConv2d(self.concepts, n_cams, filters, 3, stride, 1))
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

    @classmethod
    def stack(cls, models):
        """One network running ``models``, Predictors of one task, map shape,
        codebook size and arch whose feature sets have one size, as a stack
        in the given order: a copy of the first whose first convolution
        one-hots each model's own concepts."""
        if len(models) == 1:
            return models[0]
        net = copy.deepcopy(models[0])
        if "sem" in net.children:
            net.children["sem"].children["0"].ids = np.stack([m.concepts for m in models])
        return net

    def init(self, seed, dtype=np.float32):
        return super().init(rng_mod.stream(seed, "predictor.init"), dtype)

    def forward(self, params, state, loc, maps, training=False, rng=None):
        """Returns (output, cache): beam logits (N, M_bm) or blockage logit (N, 1).

        loc: (N, 3) target locations. maps: (N, n_cams, H, W) uint8 label
        maps of the ``map_shape`` the model was built for, of which the
        semantic branch masks the model's ``concepts``. A stack of S models
        takes each model's own batch folded in, loc (N, S*3) and maps
        (N, S*n_cams, H, W), and returns (N, S*M_bm) or (N, S). In training,
        ``rng`` holds one dropout generator per model.
        """
        x, ca = self.run("aux", loc, params, state, training, rng)
        cm = None
        if "sem" in self.children:
            m, cm = self.run("sem", maps, params, state, training, rng)
            n = x.shape[0]
            x = np.concatenate([x.reshape(n, -1, self.aux_dim),
                                m.reshape(n, -1, self.sem_dim)], axis=2).reshape(n, -1)
        y, ch = self.run("head", x, params, state, training, rng)
        return y, (ca, cm, ch)

    def backward(self, dy, cache, params):
        ca, cm, ch = cache
        grads = {}
        dx = self.grad("head", dy, ch, params, grads)
        n = dx.shape[0]
        dx = dx.reshape(n, -1, self.aux_dim + self.sem_dim)
        if "sem" in self.children:
            self.grad("sem", dx[:, :, self.aux_dim:].reshape(n, -1), cm, params, grads)
        self.grad("aux", dx[:, :, :self.aux_dim].reshape(n, -1), ca, params, grads)
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
    """Mean losses over a batch and their gradient wrt the network output.

    labels: (N, S), a column per model of a stack of S, whose outputs are
    folded (N, S*out). The losses are an (S,) array; each model's mean adds
    its own N terms in a row, as it does alone.
    """
    n, models = labels.shape
    rows, cols = np.arange(n)[:, None], np.arange(models)
    if model.task == "beam":
        ls = log_softmax(out.reshape(n, models, -1))
        loss = -ls[rows, cols, labels].T.copy().mean(axis=1)
        dout = np.exp(ls)
        dout[rows, cols, labels] -= 1
        dout /= n
    else:
        z = out.reshape(n, models)
        y = labels.astype(z.dtype)
        # stable BCE-with-logits
        terms = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
        loss = terms.T.copy().mean(axis=1)
        dout = (sigmoid(z) - y) / n
    return loss, dout.reshape(out.shape).astype(out.dtype)


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 30
    seed: int = 0
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    arch: ArchConfig = field(default_factory=ArchConfig)

    def __post_init__(self):
        check_fields(self)
        check_min(self, 0, ("learning_rate",), strict=True)
        check_min(self, 0, ("seed",))
        check_min(self, 1, ("epochs",))
        check_min(self, 2, ("batch_size",))  # batch statistics need two samples
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")


def split_indices(frame_ids, split, seed):
    """Disjoint train/val/test index arrays keyed on frame id.

    Frames fall into ten contiguous blocks (fewer with fewer frames) that are
    shuffled and dealt out, so adjacent frames never straddle a boundary.
    """
    frame_ids = np.asarray(frame_ids)
    uniq = np.unique(frame_ids)
    n_blocks = min(10, len(uniq))
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


def predict(model, params, state, dataset, idx):
    """Eval-mode outputs of ``model`` for the samples ``idx`` of ``dataset``,
    ``PREDICT_BATCH`` samples per forward pass. It holds the process's BLAS
    to one thread (``blas.one_thread``)."""
    blas.one_thread()
    outs = []
    for lo in range(0, len(idx), PREDICT_BATCH):
        sel = idx[lo:lo + PREDICT_BATCH]
        loc = dataset.locations[sel].astype(np.float32)
        y, _ = model.forward(params, state, loc, dataset.label_maps[sel], training=False)
        outs.append(y)
    return np.concatenate(outs) if outs else np.zeros((0, 1))


def accuracy(model, params, state, dataset, idx, labels):
    """Top-1 beam accuracy (argmax) or blockage accuracy (0.5 threshold) of
    ``model`` on the samples ``idx``, against the task's (N,) ``labels``."""
    if len(idx) == 0:
        return 0.0
    out = predict(model, params, state, dataset, idx)
    if model.task == "beam":
        pred = np.argmax(out, axis=1)
    else:
        pred = (sigmoid(out[:, 0]) >= 0.5).astype(np.int64)
    return float(np.mean(pred == labels[idx]))


def stack_size(map_shape, batch_size):
    """Most models a training stack holds at once: ``_STACK_PIXELS`` over
    the map pixels of one model's batch, and at least one."""
    return max(1, _STACK_PIXELS // (int(np.prod(map_shape)) * batch_size))


def train(dataset: SampleSet, features, task, cfg: TrainConfig, horizon=None) -> TrainResult:
    """Mini-batch ADAM training with fresh seeded initialization.

    Deterministic for a fixed (dataset, features, task, cfg): the split,
    the init, the shuffles and the dropout masks all come from named child
    streams of cfg.seed, and batches run sequentially. It is a stack of one
    of ``train_stack``.
    """
    return train_stack(dataset, [features], task, cfg, [cfg.seed], horizon)[0]


def train_stack(dataset: SampleSet, feature_sets, task, cfg: TrainConfig, seeds,
                horizon=None) -> list:
    """``train`` of each feature set, as stacks on one split.

    The split comes from ``cfg.seed``, so every model trains and is
    validated on the same samples; the model of ``feature_sets[i]`` draws
    its init, shuffles and dropout masks from ``seeds[i]``. Returns the
    TrainResults in the given order, each bit for bit what a stack of one
    returns for its set and seed. A stack's first convolution takes one
    concept count for all its models, so the sets are grouped by size, in
    the given order, and each group trains ``stack_size`` sets at a time.
    From the first call on, the process keeps the heap its steps free
    (``blas.keep_freed_heap``) and runs its BLAS on one thread
    (``blas.one_thread``). Training runs on the two lanes of
    ``streetbeam.nn`` where the process may use two CPUs; the results do
    not depend on the lanes or on the CPUs.
    """
    blas.keep_freed_heap()
    blas.one_thread()
    if len(seeds) != len(feature_sets):
        raise ValueError("a training stack needs one seed per feature set")
    _, labels = task_labels(dataset, task, horizon)
    models = [Predictor(task, feats, dataset.map_shape, dataset.M_bm, cfg.arch)
              for feats in feature_sets]
    split = split_indices(dataset.frame_ids, cfg.split, cfg.seed)
    size = stack_size(dataset.map_shape, cfg.batch_size)
    by_size = {}
    for i, model in enumerate(models):
        by_size.setdefault(len(model.concepts), []).append(i)
    results = {}
    for group in by_size.values():
        for lo in range(0, len(group), size):
            chunk = group[lo:lo + size]
            results.update(zip(chunk, _train_stack(dataset, labels,
                                                   [models[i] for i in chunk], split, cfg,
                                                   [seeds[i] for i in chunk])))
    return [results[i] for i in range(len(models))]


def _train_stack(dataset, labels, models, split, cfg, seeds):
    """Train ``models`` as one stack on the train samples of ``split``;
    each model keeps its own init, shuffle and dropout streams, from its
    seed, and its own Adam moments."""
    train_idx, val_idx, _ = split
    trees = [m.init(seed) for m, seed in zip(models, seeds)]
    params = tree_map(lambda *a: np.stack(a), *(p for p, _ in trees))
    state = tree_map(lambda *a: np.stack(a), *(s for _, s in trees))
    opt = Adam(params, lr=cfg.learning_rate, models=len(models))
    net = Predictor.stack(models)
    shuffles = [rng_mod.stream(seed, "shuffle") for seed in seeds]
    dropouts = [rng_mod.stream(seed, "dropout") for seed in seeds]
    train_loss = [[] for _ in models]
    perms = np.empty((len(models), len(train_idx)), dtype=np.intp)
    for epoch in range(cfg.epochs):
        for row, rng in zip(perms, shuffles):
            row[:] = rng.permutation(train_idx)
        ep_loss, ep_n = np.zeros(len(models)), 0
        for start in range(0, len(train_idx), cfg.batch_size):
            sel = perms[:, start:start + cfg.batch_size].T  # (n, models) sample ids
            n = len(sel)
            if n < 2:  # batch statistics need two samples
                continue
            loc = dataset.locations[sel].astype(np.float32).reshape(n, -1)
            maps = dataset.label_maps[sel].reshape((n, -1) + dataset.map_shape[1:])
            out, cache = net.forward(params, state, loc, maps, training=True, rng=dropouts)
            loss, dout = _batch_loss_grad(net, out, labels[sel])
            opt.step(params, net.backward(dout, cache, params))
            ep_loss += loss.astype(np.float64) * n
            ep_n += n
        for i, mean in enumerate(ep_loss / max(ep_n, 1)):
            train_loss[i].append(float(mean))
        log.debug("epoch %d: train loss %s", epoch, [f"{tl[-1]:.4f}" for tl in train_loss])

    results = []
    for i, model in enumerate(models):
        p, s = (tree_map(lambda a: a[i], t) for t in (params, state))
        val_acc = accuracy(model, p, s, dataset, val_idx, labels)
        results.append(TrainResult(model=model, params=p, state=s, val_accuracy=val_acc,
                                   split=split, train_loss=train_loss[i]))
    return results
