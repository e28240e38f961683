"""End-to-end orchestration: dataset generation and labeling, feature
selection, final training, evaluation, and report emission.

All stages communicate only through files (the dataset container, ESNN
checkpoints, JSON fragments) so the CLI commands can run as independent
processes. Outputs are deterministic for a fixed config and seed, and
hold no wall-clock times, so reports stay byte-stable.
"""

import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import blas, featsel, lanes
from .beams import dft_codebook, full_outages, optimal_beam, topg_accuracy, trr
from .channel import RayTraceConfig, assemble_channels, trace_paths
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .dataset import read_container, write_container
from .featsel import LOCATION, UNIVERSAL_FEATURES, CachedEvaluator, EvaluatorError, sffs
from .nn import leaves
from .predictor import (ArchConfig, Predictor, SampleSet, TrainConfig, accuracy,
                        predict, split_indices, task_labels, train, train_stack)
from .rng import derive_seed
from .scene import (ConfigError, SceneConfig, check_fields, check_max, check_min,
                    from_plain, generate_scenario, to_plain)
from .semantics import MAX_SIDE, render_jobs

log = logging.getLogger(__name__)

DEFAULT_HORIZONS = (1, 6, 11, 16, 21, 26, 31, 36)
DEFAULT_G_LIST = (1, 2, 3, 5)
SELECT_EPOCHS = 5  # training epochs of each candidate set in the search
# Selection worker processes: the most whose speed and memory were measured.
# Each holds its own activations and Adam buffers, and keeps the heap its
# training steps free. At 160x320 and batch 128 a worker, which trains one
# model at a time there, peaked at 245-249 MiB RSS (262 samples, one epoch;
# 245 MiB with glibc's default malloc thresholds), copy-on-write dataset
# pages included. A select-tiny worker (TINY_ARCH, 16x32, batch 32) training
# stacks of 9 and 10 peaked at 47 MiB.
SELECT_WORKERS_MAX = 2
# channel entries (samples x K x N_t) assembled and searched at once, which
# bounds the chunk's complex temporaries to about 1 MiB each. At the
# gen-wideband benchmark (N_t 64, K 128: 8 samples a chunk) 2^16 generated
# 5% faster than 2^15 and peaked 0.9 MiB higher; 2^17 was 3% faster
# again but peaked 3.6 MiB higher, 10% above single-threaded generation at
# 2^15 (perfbench, 2 vCPUs)
_CHUNK_ENTRIES = 1 << 16


class PipelineError(ValueError):
    pass


def read_json(path, keys, lists=()):
    """The JSON object in the file at ``path``; a PipelineError names the
    file if it is not UTF-8 JSON, or the first of ``keys`` it lacks, or the
    first of ``lists``, a subset of ``keys``, whose value is not a JSON
    array."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PipelineError(f"{path}: invalid JSON: {exc}") from exc
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise PipelineError(f"{path}: missing key {key!r}")
    for key in lists:
        if not isinstance(obj[key], list):
            raise PipelineError(f"{path}: {key!r} must be a list, got {obj[key]!r}")
    return obj


def _write_json(path, obj):
    """``obj`` as JSON with indent 1, sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class RunConfig:
    """Full run config: scene, ray tracing, rendering and architecture."""
    scene: SceneConfig = field(default_factory=SceneConfig)
    raytrace: RayTraceConfig = field(default_factory=RayTraceConfig)
    resolution: tuple[int, int] = (160, 320)
    horizons: tuple[int, ...] = DEFAULT_HORIZONS
    M_bm: int | None = None         # codebook size; None: raytrace.N_t
    store_channels: bool = True
    arch: ArchConfig = field(default_factory=ArchConfig)

    def __post_init__(self):
        check_fields(self)
        check_min(self, 16, ("resolution",))
        check_max(self, MAX_SIDE, ("resolution",))
        check_min(self, 0, ("horizons",))
        if self.M_bm is None:
            object.__setattr__(self, "M_bm", self.raytrace.N_t)
        check_min(self, 1, ("M_bm",))


# ---------------------------------------------------------------------------
# generation

def blockage_labels(targets, los, horizons):
    """The usable sample slots and their future-blockage flags.

    ``targets[t]`` is the target user id of slot t (None if there is none)
    and ``los[t]`` whether that user has a direct path. Slot t0 is usable
    when its target persists through slot t0 + max(horizons). Returns the
    (n,) usable slots ``t0`` in ascending order and their (n, n_h) uint8
    flags, 1 iff the target has no direct path at slot t0 + h.
    """
    horizons = np.asarray(horizons, dtype=np.intp)
    max_h = int(horizons.max(initial=0))
    n = max(len(targets) - max_h, 0)
    # changes[t]: how often the target changed up to slot t
    changes = np.cumsum([False] + [a != b for a, b in zip(targets, targets[1:])])
    present = np.array([t is not None for t in targets[:n]], dtype=bool)
    t0 = np.flatnonzero(present & (changes[max_h:max_h + n] == changes[:n]))
    blockage = ~np.asarray(los, dtype=bool)[t0[:, None] + horizons]
    return t0, blockage.astype(np.uint8)


def generate_dataset(cfg: RunConfig) -> SampleSet:
    """Simulate, render, trace and label one dataset.

    A frame yields a sample only when its target user persists through the
    longest horizon; excluded frames are counted and logged, never dropped
    silently. Every frame is traced for its LOS flag; maps, channels and
    rates are computed for the sample frames only. The channels of the live
    samples, those with a path, are assembled and searched in chunks of
    about ``_CHUNK_ENTRIES`` channel entries; every outage sample gets the
    zero channel and the zero channel's rate row, written without a search:
    +0.0, since ``RayTraceConfig`` rejects a non-finite ``P_k / sigma2``.
    The rates are searched on each full-precision complex128 channel; the
    stored channel column is its complex64 rounding, as the container
    keeps it.

    Assembly and search run in this thread, once the process's BLAS is held
    to one thread (``blas.one_thread``); the cameras render on the lanes
    beside them, each job into its own part of maps allocated before, so
    the outputs do not depend on the lanes.
    """
    scene_cfg, rt_cfg, resolution = cfg.scene, cfg.raytrace, cfg.resolution
    horizons = tuple(sorted(cfg.horizons))
    codebook = dft_codebook(rt_cfg.N_t, cfg.M_bm)
    frames = generate_scenario(scene_cfg)
    targets = [frame.target_user_id for frame in frames]
    paths, n_paths, los = trace_paths(frames, scene_cfg, rt_cfg)
    t0, blockage = blockage_labels(targets, los, horizons)
    if not len(t0):
        raise PipelineError("zero usable samples (no frame keeps its target "
                            "through the longest horizon)")
    excluded = max(len(frames) - max(horizons, default=0), 0) - len(t0)
    log.info("generated %d samples (%d frames excluded)", len(t0), excluded)

    n, K, N_t = len(t0), rt_cfg.K, rt_cfg.N_t
    maps, render = render_jobs([frames[t] for t in t0.tolist()], scene_cfg, resolution)
    samples = SampleSet(
        label_maps=maps,
        locations=np.array([frames[t].user_antenna_pos for t in t0.tolist()], dtype=np.float32),
        # the zero channel's rate row: +0.0, as RayTraceConfig keeps P_k / sigma2 finite
        rates=np.full((n, cfg.M_bm), np.log2(1 + rt_cfg.P_k / rt_cfg.sigma2 * 0.0)),
        blockage=blockage,
        frame_ids=t0.astype(np.uint32),
        horizons=horizons,
        channels=np.zeros((n, K, N_t), dtype=np.complex64) if cfg.store_channels else None,
    )
    live = np.flatnonzero(n_paths[t0])
    step = max(_CHUNK_ENTRIES // (K * N_t), 1)

    def search():
        for i in range(0, len(live), step):
            rows = live[i:i + step]
            h = assemble_channels(paths[t0[rows]], n_paths[t0[rows]], rt_cfg)
            samples.rates[rows] = optimal_beam(h, codebook, rt_cfg.P_k, rt_cfg.sigma2)
            if cfg.store_channels:
                samples.channels[rows] = h
    blas.one_thread()
    lanes.run(render, own=search)
    return samples


def cmd_generate(cfg: RunConfig, out_path):
    samples = generate_dataset(cfg)
    manifest = write_container(out_path, samples, cfg.scene, cfg.raytrace)
    return samples, manifest


# ---------------------------------------------------------------------------
# feature selection

def training_evaluator(dataset: SampleSet, task, horizon, cfg: TrainConfig):
    """Deterministic FeatureSet -> validation-accuracy mapping.

    Each candidate set trains from scratch as ``cfg`` says and is scored
    on the validation samples of the one split of ``cfg.seed``; its init,
    shuffles and dropout masks come from a seed derived from (``cfg.seed``,
    task, horizon, canonical set), so the evaluator is a pure function of
    its argument. A search step's candidates are dealt into one batch per
    worker process, which ``train_stack`` trains as stacks, bit for bit as
    each would alone, with one worker per usable CPU, at most
    ``SELECT_WORKERS_MAX``, so with two CPUs or more every candidate
    trains on a worker. This process's BLAS is held to one thread before
    the workers fork, and they inherit it; where it cannot be held, the
    workers' BLAS threads would contend for the CPUs, so the candidates
    train in this process. The workers are forked at the search's first
    step and serve the rest of it; use the evaluator in a ``with`` block,
    which joins them on leaving.
    """
    def batch(sets):
        seeds = [derive_seed(cfg.seed, task, str(horizon), ",".join(feats)) for feats in sets]
        return [res.val_accuracy for res in
                train_stack(dataset, sets, task, cfg, seeds, horizon=horizon)]
    workers = min(len(os.sched_getaffinity(0)), SELECT_WORKERS_MAX)
    return CachedEvaluator(batch, workers if blas.one_thread() else 1)


def cmd_select(dataset: SampleSet, task, out_dir, horizon=None, epochs=SELECT_EPOCHS,
               seed=0, v_max=None, pinned=(LOCATION,), arch=ArchConfig(),
               batch_size=TrainConfig.batch_size, learning_rate=TrainConfig.learning_rate):
    """Run the floating search with the training-based evaluator.

    Each candidate's network, of shape ``arch``, reads the dataset's label
    maps at their own size. ``seed`` draws the one train/validation split
    of every candidate; each candidate's init, shuffles and dropout masks
    come from ``derive_seed(seed, task, str(horizon), ",".join(set))``.
    The outputs do not depend on the number of worker processes; a worker
    that dies raises ``PipelineError``. No worker outlives this call,
    whether it returns or raises.
    ``horizon`` is resolved as ``task_labels`` resolves it, the blockage
    task's default being the dataset's first horizon, before it seeds the
    candidates and is recorded. Every predictor reads the location, so
    ``pinned`` must hold it, and ``v_max`` must be at least the pinned
    set's size: else ``PipelineError`` before any worker or file.
    """
    if LOCATION not in pinned:
        raise PipelineError(f"pinned features must include {LOCATION}, got {list(pinned)}")
    if v_max is not None and v_max < len(pinned):
        raise PipelineError(f"v_max must be >= the {len(pinned)} pinned features, got {v_max}")
    cfg = TrainConfig(epochs=epochs, seed=seed, arch=arch,
                      batch_size=batch_size, learning_rate=learning_rate)
    horizon, _ = task_labels(dataset, task, horizon)
    with training_evaluator(dataset, task, horizon, cfg) as evaluator:
        try:
            selected, state = sffs(UNIVERSAL_FEATURES, evaluator, pinned=pinned, v_max=v_max)
        except EvaluatorError as exc:
            raise PipelineError(f"feature selection failed: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    featsel.write_trace(os.path.join(out_dir, f"select_{task}.trace.jsonl"), state)
    _write_json(os.path.join(out_dir, f"selected_{task}.json"),
                {"task": task, "horizon": horizon, "features": list(selected),
                 "seed": seed, "evaluator_calls": evaluator.call_count})
    return selected


# ---------------------------------------------------------------------------
# final training and evaluation

def _stem(task, horizon):
    """Artifact name stem of a task: "beam", "blockage_h<horizon>"."""
    return task if task == "beam" else f"{task}_h{horizon}"


def cmd_train(dataset: SampleSet, features, task, cfg: TrainConfig, out_dir,
              horizon=None):
    """Train on the train split and checkpoint the parameters."""
    horizon, _ = task_labels(dataset, task, horizon)
    res = train(dataset, features, task, cfg, horizon=horizon)
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, _stem(task, horizon) + ".esnn"),
                    res.params, res.state)
    meta = {"task": task, "horizon": horizon, "features": list(res.model.features),
            **to_plain(cfg),  # seed, epochs, batch_size, learning_rate, split, arch
            "M_bm": dataset.M_bm, "map_shape": list(dataset.map_shape),
            "val_accuracy": res.val_accuracy,
            "train_loss": res.train_loss}
    _write_json(os.path.join(out_dir, _stem(task, horizon) + ".meta.json"), meta)
    return res, meta


def _load_model_checkpoint(path, model: Predictor):
    """``model``'s parameter and state trees filled by name from the
    checkpoint at ``path``; a CheckpointError unless the tensor names and
    shapes are exactly those of ``model``."""
    trees = model.init(0)
    for got, tree in zip(load_checkpoint(path), trees):
        slots = list(leaves(tree))
        if {k: v.shape for k, v in got.items()} != {name: d[k].shape for name, d, k in slots}:
            raise CheckpointError(f"{path}: tensors do not match the {model.task} model")
        for name, d, k in slots:
            d[k] = got[name]
    return trees


def cmd_eval(dataset: SampleSet, out_dir, task, horizon=None,
             g_list=DEFAULT_G_LIST):
    """Evaluate a checkpointed model on the test split; write a fragment.

    The model is rebuilt for the feature set and the map shape its
    ``.meta.json`` records; another map shape or codebook size, or a meta
    file that lacks a key or whose seed, split or arch ``TrainConfig``
    rejects, raises ``PipelineError`` before the checkpoint is read. Top-G
    accuracy and TRR read the codeword rates stored per sample, so the beam
    task needs neither the channels nor the link budget.
    """
    horizon, labels = task_labels(dataset, task, horizon)
    if task == "beam":
        for g in g_list:
            if g > dataset.M_bm:
                raise PipelineError(f"G = {g} exceeds the codebook size M_bm = "
                                    f"{dataset.M_bm}")
    meta_path = os.path.join(out_dir, _stem(task, horizon) + ".meta.json")
    ckpt_path = os.path.join(out_dir, _stem(task, horizon) + ".esnn")
    for p in (meta_path, ckpt_path):
        if not os.path.exists(p):
            raise PipelineError(f"missing artifact {p}; run train first")
    meta = read_json(meta_path, ("features", "M_bm", "map_shape", "arch", "split", "seed"),
                     lists=("features", "map_shape", "split"))
    if task == "beam" and meta["M_bm"] != dataset.M_bm:
        raise PipelineError(f"checkpoint codebook size M_bm = {meta['M_bm']} differs "
                            f"from the dataset's M_bm = {dataset.M_bm}")
    if meta["map_shape"] != list(dataset.map_shape):
        raise PipelineError(f"checkpoint map shape {meta['map_shape']} differs from "
                            f"the dataset's map shape {list(dataset.map_shape)}")
    try:
        tc = from_plain(TrainConfig, {k: meta[k] for k in ("seed", "split", "arch")})
    except ConfigError as exc:
        raise PipelineError(f"{meta_path}: {exc}") from None
    model = Predictor(task, meta["features"], dataset.map_shape, meta["M_bm"], tc.arch)
    params, state = _load_model_checkpoint(ckpt_path, model)

    _, _, test_idx = split_indices(dataset.frame_ids, tc.split, tc.seed)
    if len(test_idx) == 0:
        raise PipelineError("empty test split")

    fragment = {"task": task, "horizon": horizon, "n": int(len(test_idx)), "seed": tc.seed}
    if task == "beam":
        out = predict(model, params, state, dataset, test_idx)
        order = np.argsort(-out, axis=1, kind="stable")
        rates = dataset.rates[test_idx]
        fragment["g_list"] = list(g_list)
        fragment["trr_excluded"] = int(np.count_nonzero(full_outages(rates)))
        if fragment["trr_excluded"]:
            log.warning("trr: excluded %d sample(s) with zero optimal rate",
                        fragment["trr_excluded"])
        fragment["topg_accuracy"] = {}
        fragment["trr"] = {}
        for g in g_list:
            fragment["topg_accuracy"][str(g)] = topg_accuracy(labels[test_idx], order[:, :g])
            fragment["trr"][str(g)] = trr(rates, order[:, :g])
    else:
        fragment["blockage_accuracy"] = accuracy(model, params, state, dataset,
                                                 test_idx, labels)

    _write_json(os.path.join(out_dir, f"eval_{_stem(task, horizon)}.json"), fragment)
    return fragment


# ---------------------------------------------------------------------------
# report

def cmd_report(run_dir):
    """Assemble report.json and metrics.csv from the run artifacts."""
    frags = []  # (beam task?, fragment)
    if not os.path.isdir(run_dir):
        raise PipelineError(f"run directory {run_dir} does not exist")
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("eval_") and name.endswith(".json"):
            path = os.path.join(run_dir, name)
            beam = name == "eval_beam.json"
            keys = ("g_list", "topg_accuracy", "trr") if beam else ("horizon", "blockage_accuracy")
            frag = read_json(path, ("n", "seed") + keys, lists=("g_list",) if beam else ())
            for metric in ("topg_accuracy", "trr") if beam else ():
                for g in frag["g_list"]:
                    if not isinstance(frag[metric], dict) or str(g) not in frag[metric]:
                        raise PipelineError(f"{path}: missing key {metric}[{str(g)!r}]")
            frags.append((beam, frag))
    if not frags:
        raise PipelineError("missing artifacts: eval_*.json (no evaluation fragments)")
    selected = {}
    for task in ("beam", "blockage"):
        p = os.path.join(run_dir, f"selected_{task}.json")
        if os.path.exists(p):
            selected[task] = read_json(p, ("features",), lists=("features",))["features"]

    rows = []  # (metric, key, value, n, seed)
    report = {"selected_features": selected, "metrics": {}, "seeds": {}}
    for beam, frag in frags:
        if beam:
            report["metrics"]["beam"] = {
                "topg_accuracy": frag["topg_accuracy"], "trr": frag["trr"]}
            report["seeds"]["beam"] = frag["seed"]
            for metric in ("topg_accuracy", "trr"):
                rows += [(metric, f"G={g}", frag[metric][str(g)], frag["n"], frag["seed"])
                         for g in frag["g_list"]]
        else:
            h = frag["horizon"]
            report["metrics"].setdefault("blockage", {})[str(h)] = frag["blockage_accuracy"]
            report["seeds"][f"blockage_h{h}"] = frag["seed"]
            rows.append(("blockage_accuracy", f"horizon={h}",
                         frag["blockage_accuracy"], frag["n"], frag["seed"]))

    _write_json(os.path.join(run_dir, "report.json"), report)
    with open(os.path.join(run_dir, "metrics.csv"), "w") as fh:
        fh.write("metric,key,value,n,seed\n")
        for metric, key, value, n, seed in rows:
            fh.write(f"{metric},{key},{value!r},{n},{seed}\n")
    return report
