"""Command-line entry point.

Subcommands mirror the pipeline stages::

    streetbeam generate --config cfg.json --out runs/a
    streetbeam select   --dataset runs/a/dataset --task beam --out runs/a
    streetbeam train    --dataset runs/a/dataset --task beam --out runs/a
    streetbeam eval     --dataset runs/a/dataset --task beam --out runs/a
    streetbeam report   --out runs/a

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from . import pipeline
from .checkpoint import CheckpointError
from .dataset import ContainerError, read_container
from .featsel import LOCATION, UNIVERSAL_FEATURES, canonical
from .pipeline import DEFAULT_G_LIST, PipelineError, RunConfig
from .predictor import TrainConfig
from .scene import ConfigError, from_plain

log = logging.getLogger(__name__)


def _load_config(path):
    if not path:
        return from_plain(RunConfig, {})
    return from_plain(RunConfig, pipeline.read_json(path, ()))


def _parse_g_list(text):
    try:
        gs = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise PipelineError(f"--g-list must be comma-separated integers, got {text!r}")
    if not gs or min(gs) < 1:
        raise PipelineError("--g-list entries must be positive")
    if len(set(gs)) != len(gs):
        raise PipelineError("--g-list entries must be distinct")
    return gs


def _features_for(args, out_dir):
    """Explicit --features wins; otherwise the stored selection result.
    Either must name features of ``UNIVERSAL_FEATURES`` only."""
    if args.features:
        source, feats = "--features", args.features.split(",")
    else:
        source = os.path.join(out_dir, f"selected_{args.task}.json")
        if not os.path.exists(source):
            raise PipelineError(
                f"no feature set: pass --features or run select first ({source} missing)")
        feats = pipeline.read_json(source, ("features",), lists=("features",))["features"]
    unknown = [f for f in feats if f not in UNIVERSAL_FEATURES]
    if unknown:
        raise PipelineError(f"{source}: unknown features: {unknown}")
    return canonical(feats)


def _cmd_generate(args):
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, scene=replace(cfg.scene, seed=args.seed))
    out = os.path.join(args.out, "dataset")
    samples, manifest = pipeline.cmd_generate(cfg, out)
    print(f"wrote {manifest['sample_count']} samples to {out}")


def _cmd_select(args):
    cfg = _load_config(args.config)
    dataset, _ = read_container(args.dataset)
    pinned = canonical(args.pin_feature or [LOCATION])
    selected = pipeline.cmd_select(
        dataset, args.task, args.out, horizon=args.horizon, epochs=args.epochs,
        seed=args.seed, v_max=args.vmax, pinned=pinned, arch=cfg.arch)
    print(f"selected features for {args.task}: {', '.join(selected)}")


def _cmd_train(args):
    cfg = _load_config(args.config)
    dataset, _ = read_container(args.dataset)
    feats = _features_for(args, args.out)
    tc = TrainConfig(seed=args.seed, epochs=args.epochs, arch=cfg.arch)
    _, meta = pipeline.cmd_train(dataset, feats, args.task, tc, args.out,
                                 horizon=args.horizon)
    print(f"trained {args.task}: validation accuracy {meta['val_accuracy']:.4f}")


def _cmd_eval(args):
    dataset, _ = read_container(args.dataset)
    frag = pipeline.cmd_eval(dataset, args.out, args.task, horizon=args.horizon,
                             g_list=_parse_g_list(args.g_list))
    print(json.dumps(frag, indent=1, sort_keys=True))


def _cmd_report(args):
    report = pipeline.cmd_report(args.out)
    print(f"wrote {os.path.join(args.out, 'report.json')} and metrics.csv")
    return report


def build_parser():
    p = argparse.ArgumentParser(prog="streetbeam",
                                description="beam/blockage prediction pipeline")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=False, dataset=False, task=False, seed=False):
        if config:
            sp.add_argument("--config", help="run config JSON")
        if dataset:
            sp.add_argument("--dataset", required=True, help="dataset container dir")
        if task:
            sp.add_argument("--task", choices=("beam", "blockage"), required=True)
            sp.add_argument("--horizon", type=int, default=None,
                            help="blockage horizon in slots")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        sp.add_argument("--out", required=True, help="run directory")

    sp = sub.add_parser("generate", help="simulate, label and write a dataset")
    common(sp, config=True)
    sp.add_argument("--seed", type=int, help="overrides the config's scene.seed")
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("select", help="floating feature-selection search")
    common(sp, config=True, dataset=True, task=True, seed=True)
    sp.add_argument("--epochs", type=int, default=pipeline.SELECT_EPOCHS)
    sp.add_argument("--vmax", type=int, default=None,
                    help="stop once the set reaches this size")
    sp.add_argument("--pin-feature", action="append", default=None,
                    help="feature forced into every candidate set (repeatable)")
    sp.set_defaults(fn=_cmd_select)

    sp = sub.add_parser("train", help="train and checkpoint one task")
    common(sp, config=True, dataset=True, task=True, seed=True)
    sp.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    sp.add_argument("--features", default=None,
                    help="comma-separated feature set (default: select output)")
    sp.set_defaults(fn=_cmd_train)

    sp = sub.add_parser("eval", help="test-split metrics for a checkpoint")
    common(sp, dataset=True, task=True)
    sp.add_argument("--g-list", default=",".join(str(g) for g in DEFAULT_G_LIST))
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("report", help="assemble report.json and metrics.csv")
    common(sp)
    sp.set_defaults(fn=_cmd_report)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args.fn(args)
    except (ContainerError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
