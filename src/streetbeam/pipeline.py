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

from . import featsel
from .beams import dft_codebook, optimal_beam, topg_accuracy, trr
from .channel import RayTraceConfig, TargetLostError, assemble_channel, trace_paths
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .dataset import read_container, write_container
from .featsel import LOCATION, UNIVERSAL_FEATURES, CachedEvaluator, canonical, sffs
from .predictor import (ArchConfig, Predictor, SampleSet, TrainConfig, accuracy,
                        predict, split_indices, train)
from .rng import derive_seed
from .scene import SceneConfig, from_plain, generate_scenario, to_plain
from .semantics import render_frame

log = logging.getLogger(__name__)

DEFAULT_HORIZONS = (1, 6, 11, 16, 21, 26, 31, 36)
DEFAULT_G_LIST = (1, 2, 3, 5)


class PipelineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# generation

def blockage_labels(targets, los, t0, horizons):
    """Future-blockage flags of the sample at slot t0, one per horizon h:
    1 iff the target user has no direct path at slot t0 + h.

    ``targets[t]`` is the target user id of slot t (None if there is none)
    and ``los[t]`` whether that user has a direct path. Raises IndexError
    when the longest horizon runs past the last slot, and TargetLostError
    unless the target of slot t0 persists through the whole window, so the
    caller can exclude the sample explicitly.
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


def generate_dataset(scene_cfg: SceneConfig, rt_cfg: RayTraceConfig,
                     resolution=(160, 320), horizons=DEFAULT_HORIZONS,
                     M_bm=None, store_channels=True) -> SampleSet:
    """Simulate, render, trace and label one dataset.

    A frame yields a sample only when its target user persists through the
    longest horizon; excluded frames are counted and logged, never dropped
    silently.
    """
    horizons = tuple(sorted(horizons))
    max_h = horizons[-1] if horizons else 0
    frames = generate_scenario(scene_cfg)
    if M_bm is None:
        M_bm = rt_cfg.N_t
    codebook = dft_codebook(rt_cfg.N_t, M_bm)

    # per-frame artifacts, computed once
    n = len(frames)
    targets = [frame.target_user_id for frame in frames]
    los, channels, rates = [False] * n, [None] * n, [None] * n
    traced = [t for t in range(n) if targets[t] is not None]
    all_paths = trace_paths([frames[t] for t in traced], scene_cfg, rt_cfg)
    for t, paths in zip(traced, all_paths):
        ch = assemble_channel(paths, rt_cfg)
        los[t] = any(p.is_los for p in paths)
        channels[t] = ch.entries
        rates[t] = optimal_beam(ch, codebook, rt_cfg.P_k, rt_cfg.sigma2).rates

    rows = []
    excluded = 0
    for t0 in range(len(frames) - max_h):
        try:
            blockage = blockage_labels(targets, los, t0, horizons)
        except TargetLostError:
            excluded += 1
            continue
        maps = render_frame(frames[t0], scene_cfg, resolution)
        rows.append({
            "maps": np.stack([m.labels for m in maps]),
            "loc": np.asarray(frames[t0].user_antenna_pos, dtype=np.float32),
            "rates": rates[t0],
            "blockage": blockage,
            "frame_id": t0,
            "channel": channels[t0],
        })
    if not rows:
        raise PipelineError("zero usable samples (no frame keeps its target "
                            "through the longest horizon)")
    log.info("generated %d samples (%d frames excluded)", len(rows), excluded)

    return SampleSet(
        label_maps=np.stack([r["maps"] for r in rows]),
        locations=np.stack([r["loc"] for r in rows]),
        rates=np.stack([r["rates"] for r in rows]),
        blockage=np.array([r["blockage"] for r in rows], dtype=np.uint8),
        frame_ids=np.array([r["frame_id"] for r in rows], dtype=np.uint32),
        horizons=horizons,
        channels=np.stack([r["channel"] for r in rows]) if store_channels else None,
    )


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
    pure function of its argument.
    """
    def fn(feats):
        run_seed = derive_seed(seed, task, str(horizon), ",".join(feats))
        cfg = TrainConfig(epochs=epochs, seed=run_seed, arch=arch,
                          batch_size=batch_size, learning_rate=learning_rate)
        res = train(dataset, feats, task, cfg, horizon=horizon)
        return res.val_accuracy
    return CachedEvaluator(fn)


def default_arch(dataset: SampleSet, arch=None):
    """``arch`` if given, else the default architecture at the dataset's map size."""
    return arch if arch is not None else ArchConfig(input_hw=tuple(dataset.map_hw))


def cmd_select(dataset: SampleSet, task, out_dir, horizon=None, epochs=5,
               seed=0, v_max=None, pinned=(LOCATION,), arch=None,
               batch_size=128, learning_rate=1e-3):
    """Run the floating search with the training-based evaluator."""
    if epochs < 1:
        raise PipelineError("selection budget must allow at least one epoch")
    if horizon is not None:
        horizon = _blockage_horizon(dataset, task, horizon)
    arch = default_arch(dataset, arch)
    evaluator = training_evaluator(dataset, task, horizon, epochs, seed, arch,
                                   batch_size, learning_rate)
    selected, state = sffs(UNIVERSAL_FEATURES, evaluator, pinned=pinned,
                           v_max=v_max, return_state=True)
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


def _blockage_horizon(dataset: SampleSet, task, horizon):
    """The horizon a blockage run uses: ``horizon``, else the dataset's first."""
    if task == "beam":
        return horizon
    if horizon is None:
        return dataset.horizons[0]
    if horizon not in dataset.horizons:
        raise PipelineError(f"horizon {horizon} is not one of the dataset's "
                            f"horizons {list(dataset.horizons)}")
    return horizon


def cmd_train(dataset: SampleSet, features, task, cfg: TrainConfig, out_dir,
              horizon=None):
    """Train on the train split and checkpoint the parameters."""
    horizon = _blockage_horizon(dataset, task, horizon)
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
    horizon = _blockage_horizon(dataset, task, horizon)
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
        # full outages (best rate 0), which TRR leaves out
        fragment["trr_excluded"] = int(np.count_nonzero(rates.max(axis=1) <= 0))
        if fragment["trr_excluded"]:
            log.warning("trr: excluded %d sample(s) with zero optimal rate",
                        fragment["trr_excluded"])
        fragment["topg_accuracy"] = {}
        fragment["trr"] = {}
        for g in g_list:
            sets = [tuple(int(i) for i in row[:g]) for row in order]
            fragment["topg_accuracy"][str(g)] = topg_accuracy(labels, sets, g)
            fragment["trr"][str(g)] = trr(rates, sets, g)
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
