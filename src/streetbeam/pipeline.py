"""End-to-end orchestration: dataset generation and labeling, feature
selection, final training, evaluation, and report emission.

All stages communicate only through files (the dataset container, ESNN
checkpoints, JSON fragments) so the CLI commands can run as independent
processes. Outputs are deterministic for a fixed config and seed; wall
clock goes to a separate timing file so reports stay byte-stable.
"""

import json
import logging
import os
import time

import numpy as np

from . import blas, featsel
from .beams import dft_codebook, full_outages, optimal_beam, topg_accuracy, trr
from .channel import RayTraceConfig, assemble_channel, trace_paths
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .dataset import read_container, write_container
from .featsel import (LOCATION, UNIVERSAL_FEATURES, CachedEvaluator, EvaluatorError,
                      canonical, sffs)
from .predictor import (ArchConfig, Predictor, SampleSet, TrainConfig, accuracy,
                        predict, split_indices, task_labels, train)
from .rng import derive_seed
from .scene import SceneConfig, from_plain, generate_scenario, to_plain
from .semantics import render_frame

log = logging.getLogger(__name__)

DEFAULT_HORIZONS = (1, 6, 11, 16, 21, 26, 31, 36)
DEFAULT_G_LIST = (1, 2, 3, 5)
# Selection worker processes: the most whose speed and memory were measured.
# Each holds its own activations and Adam buffers; at 160x320 and batch 128 a
# worker peaked at about 430 MiB RSS, copy-on-write dataset pages included.
SELECT_WORKERS_MAX = 2


class PipelineError(ValueError):
    pass


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


def generate_dataset(scene_cfg: SceneConfig, rt_cfg: RayTraceConfig,
                     resolution=(160, 320), horizons=DEFAULT_HORIZONS,
                     M_bm=None, store_channels=True) -> SampleSet:
    """Simulate, render, trace and label one dataset.

    A frame yields a sample only when its target user persists through the
    longest horizon; excluded frames are counted and logged, never dropped
    silently. Every frame with a target is traced for its LOS flag; maps,
    channels and rates are computed for the sample frames only.
    """
    horizons = tuple(sorted(horizons))
    if M_bm is None:
        M_bm = rt_cfg.N_t
    codebook = dft_codebook(rt_cfg.N_t, M_bm)
    frames = generate_scenario(scene_cfg)
    targets = [frame.target_user_id for frame in frames]
    traced = [t for t, target in enumerate(targets) if target is not None]
    paths = dict(zip(traced, trace_paths([frames[t] for t in traced], scene_cfg, rt_cfg)))
    los = np.zeros(len(frames), dtype=bool)
    los[traced] = [any(p.is_los for p in paths[t]) for t in traced]
    t0, blockage = blockage_labels(targets, los, horizons)
    if not len(t0):
        raise PipelineError("zero usable samples (no frame keeps its target "
                            "through the longest horizon)")
    excluded = max(len(frames) - max(horizons, default=0), 0) - len(t0)
    log.info("generated %d samples (%d frames excluded)", len(t0), excluded)

    n = len(t0)
    samples = SampleSet(
        label_maps=np.empty((n, len(scene_cfg.camera_poses), *resolution), dtype=np.uint8),
        locations=np.empty((n, 3), dtype=np.float32),
        rates=np.empty((n, M_bm)),
        blockage=blockage,
        frame_ids=t0.astype(np.uint32),
        horizons=horizons,
        channels=np.empty((n, rt_cfg.K, rt_cfg.N_t), dtype=np.complex128)
        if store_channels else None,
    )
    for i, t in enumerate(t0.tolist()):
        samples.label_maps[i] = render_frame(frames[t], scene_cfg, resolution)
        samples.locations[i] = frames[t].user_antenna_pos
        h = assemble_channel(paths[t], rt_cfg)
        samples.rates[i] = optimal_beam(h, codebook, rt_cfg.P_k, rt_cfg.sigma2)
        if store_channels:
            samples.channels[i] = h
    return samples


def cmd_generate(scene_cfg, rt_cfg, out_path, resolution=(160, 320),
                 horizons=DEFAULT_HORIZONS, M_bm=None, store_channels=True):
    samples = generate_dataset(scene_cfg, rt_cfg, resolution, horizons, M_bm,
                               store_channels)
    manifest = write_container(out_path, samples, scene_cfg, rt_cfg, resolution)
    return samples, manifest


# ---------------------------------------------------------------------------
# feature selection

def training_evaluator(dataset: SampleSet, task, horizon, epochs, seed,
                       arch: ArchConfig, batch_size=128, learning_rate=1e-3):
    """Deterministic FeatureSet -> validation-accuracy mapping.

    Each candidate set trains from scratch for a fixed epoch budget with a
    seed derived from (root seed, canonical set), so the evaluator is a
    pure function of its argument, and a search step's candidates train on
    one worker process per usable CPU, at most ``SELECT_WORKERS_MAX``.
    Where the workers' BLAS cannot be held to one thread each, they would
    contend for the CPUs, so the candidates train in this process.
    """
    def fn(feats):
        run_seed = derive_seed(seed, task, str(horizon), ",".join(feats))
        cfg = TrainConfig(epochs=epochs, seed=run_seed, arch=arch,
                          batch_size=batch_size, learning_rate=learning_rate)
        res = train(dataset, feats, task, cfg, horizon=horizon)
        return res.val_accuracy
    workers = min(len(os.sched_getaffinity(0)), SELECT_WORKERS_MAX)
    return CachedEvaluator(fn, workers if blas.can_set_threads() else 1)


def default_arch(dataset: SampleSet, arch=None):
    """``arch`` if given, else the default architecture at the dataset's map size."""
    return arch if arch is not None else ArchConfig(input_hw=tuple(dataset.map_hw))


def cmd_select(dataset: SampleSet, task, out_dir, horizon=None, epochs=5,
               seed=0, v_max=None, pinned=(LOCATION,), arch=None,
               batch_size=128, learning_rate=1e-3):
    """Run the floating search with the training-based evaluator.

    The outputs do not depend on the number of worker processes; a worker
    that dies raises ``PipelineError``. ``horizon`` is checked and recorded
    as given: without it each candidate trains at the default horizon.
    """
    if epochs < 1:
        raise PipelineError("selection budget must allow at least one epoch")
    task_labels(dataset, task, horizon)
    arch = default_arch(dataset, arch)
    evaluator = training_evaluator(dataset, task, horizon, epochs, seed, arch,
                                   batch_size, learning_rate)
    try:
        selected, state = sffs(UNIVERSAL_FEATURES, evaluator, pinned=pinned, v_max=v_max)
    except EvaluatorError as exc:
        raise PipelineError(f"feature selection failed: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    featsel.write_trace(os.path.join(out_dir, f"select_{task}.trace.jsonl"), state)
    with open(os.path.join(out_dir, f"selected_{task}.json"), "w") as fh:
        json.dump({"task": task, "horizon": horizon, "features": list(selected),
                   "seed": seed, "evaluator_calls": evaluator.call_count},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
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
    meta = {
        "task": task,
        "horizon": horizon,
        "features": list(res.features),
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "split": list(cfg.split),
        "arch": to_plain(cfg.arch),
        "M_bm": dataset.M_bm,
        "val_accuracy": res.val_accuracy,
        "train_loss": res.train_loss,
    }
    with open(os.path.join(out_dir, _stem(task, horizon) + ".meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return res, meta


def _load_model_checkpoint(path, model: Predictor):
    """load_checkpoint, plus a CheckpointError unless the tensor names and
    shapes are exactly those of ``model``."""
    loaded = load_checkpoint(path)
    for got, want in zip(loaded, model.init(0)):
        if {k: v.shape for k, v in got.items()} != {k: v.shape for k, v in want.items()}:
            raise CheckpointError(f"{path}: tensors do not match the {model.task} model")
    return loaded


def cmd_eval(dataset: SampleSet, out_dir, task, horizon=None,
             g_list=DEFAULT_G_LIST):
    """Evaluate a checkpointed model on the test split; write a fragment.

    Top-G accuracy and TRR read the codeword rates stored per sample, so
    the beam task needs neither the channels nor the link budget.
    """
    horizon, _ = task_labels(dataset, task, horizon)
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
    with open(meta_path) as fh:
        meta = json.load(fh)
    if task == "beam" and meta["M_bm"] != dataset.M_bm:
        raise PipelineError(f"checkpoint codebook size M_bm = {meta['M_bm']} differs "
                            f"from the dataset's M_bm = {dataset.M_bm}")
    features = canonical(meta["features"])
    arch = from_plain(ArchConfig, meta["arch"])
    in_channels = (len(features) - 1) * dataset.n_cams
    model = Predictor(task, in_channels, meta["M_bm"], arch)
    params, state = _load_model_checkpoint(ckpt_path, model)

    _, _, test_idx = split_indices(dataset.frame_ids, tuple(meta["split"]),
                                   meta["seed"])
    if len(test_idx) == 0:
        raise PipelineError("empty test split")

    fragment = {"task": task, "horizon": horizon, "n": int(len(test_idx)),
                "seed": meta["seed"]}
    if task == "beam":
        out = predict(model, params, state, dataset, test_idx, features)
        order = np.argsort(-out, axis=1, kind="stable")
        labels = dataset.beam_labels[test_idx]
        rates = dataset.rates[test_idx]
        fragment["g_list"] = list(g_list)
        fragment["trr_excluded"] = int(np.count_nonzero(full_outages(rates)))
        if fragment["trr_excluded"]:
            log.warning("trr: excluded %d sample(s) with zero optimal rate",
                        fragment["trr_excluded"])
        fragment["topg_accuracy"] = {}
        fragment["trr"] = {}
        for g in g_list:
            fragment["topg_accuracy"][str(g)] = topg_accuracy(labels, order[:, :g])
            fragment["trr"][str(g)] = trr(rates, order[:, :g])
    else:
        fragment["blockage_accuracy"] = accuracy(model, params, state, dataset,
                                                 test_idx, features, task, horizon)

    with open(os.path.join(out_dir, f"eval_{_stem(task, horizon)}.json"), "w") as fh:
        json.dump(fragment, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return fragment


# ---------------------------------------------------------------------------
# report

def cmd_report(run_dir):
    """Assemble report.json and metrics.csv from the run artifacts."""
    missing = []
    frags = []
    beam_frag = None
    if not os.path.isdir(run_dir):
        raise PipelineError(f"run directory {run_dir} does not exist")
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("eval_") and name.endswith(".json"):
            with open(os.path.join(run_dir, name)) as fh:
                frags.append(json.load(fh))
    if not frags:
        missing.append("eval_*.json (no evaluation fragments)")
    selected = {}
    for task in ("beam", "blockage"):
        p = os.path.join(run_dir, f"selected_{task}.json")
        if os.path.exists(p):
            with open(p) as fh:
                selected[task] = json.load(fh)["features"]
    if missing:
        raise PipelineError("missing artifacts: " + "; ".join(missing))

    rows = []  # (metric, key, value, n, seed)
    report = {"selected_features": selected, "metrics": {}, "seeds": {}}
    for frag in frags:
        if frag["task"] == "beam":
            report["metrics"]["beam"] = {
                "topg_accuracy": frag["topg_accuracy"], "trr": frag["trr"]}
            report["seeds"]["beam"] = frag["seed"]
            for g in frag["g_list"]:
                rows.append(("topg_accuracy", f"G={g}",
                             frag["topg_accuracy"][str(g)], frag["n"], frag["seed"]))
            for g in frag["g_list"]:
                rows.append(("trr", f"G={g}", frag["trr"][str(g)],
                             frag["n"], frag["seed"]))
        else:
            h = frag["horizon"]
            report["metrics"].setdefault("blockage", {})[str(h)] = \
                frag["blockage_accuracy"]
            report["seeds"][f"blockage_h{h}"] = frag["seed"]
            rows.append(("blockage_accuracy", f"horizon={h}",
                         frag["blockage_accuracy"], frag["n"], frag["seed"]))

    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(run_dir, "metrics.csv"), "w") as fh:
        fh.write("metric,key,value,n,seed\n")
        for metric, key, value, n, seed in rows:
            fh.write(f"{metric},{key},{value!r},{n},{seed}\n")
    with open(os.path.join(run_dir, "timing.json"), "w") as fh:
        json.dump({"written_at": time.time()}, fh)
    return report
