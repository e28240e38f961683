"""The four benchmark workloads.

All use the acceptance-criterion-7 street: spawn rate 0.6, base station
at (100, -8, 2), default cameras. A workload has a set-up run in fresh
processes (timed as setup_s) and a pass, the timed unit of work, run in
this process as a closed loop by a single client. Every program call in a
pass is one operation; a non-zero CLI exit or an exception is a failed
operation whose message is kept. Operations are counted for one pass, as
every pass repeats them (see `Ops`).
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

HORIZONS = [1, 6, 11, 16, 21, 26, 31, 36]
STREET = {"spawn_rate": 0.6, "bs_position": [100.0, -8.0, 2.0]}
SPLIT = (0.7, 0.15, 0.15)   # TrainConfig default, used by `streetbeam train`
TRAIN_SEED = 0              # `streetbeam train/eval --seed` default
SETUP_TIMEOUT_S = 150


def run_config(frames, resolution, raytrace, M_bm):
    cfg = {"scene": dict(STREET, frame_count=frames), "raytrace": raytrace,
           "resolution": list(resolution), "horizons": HORIZONS,
           "store_channels": True}
    if M_bm is not None:
        cfg["M_bm"] = M_bm
    return cfg


def sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def container_digest(manifest):
    return sha(json.dumps(manifest["hashes"], sort_keys=True).encode())


class Ops:
    """Runs program calls as operations with captured output.

    An operation is one program call of a pass. Every pass repeats the same
    operations on the seed's inputs, so `attempted` and `failures` are those
    of one pass, and every pass must fail the same operations (an output
    check). The counts are then a property of the code and the seed, not of
    how many passes fit in the run.
    """

    def __init__(self):
        self.passes = []   # per pass: [(operation, failure message or None)]

    def start_pass(self):
        self.passes.append([])

    def call(self, name, fn, *args, cli=False, **kwargs):
        record = self.passes[-1]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark records every failure
            record.append((name, f"{type(exc).__name__}: {exc}"))
            return None
        if cli and result != 0:
            msg = err.getvalue().strip().splitlines()
            record.append((name, f"exit {result}: {msg[-1] if msg else ''}"))
            return None
        record.append((name, None))
        return result

    @property
    def attempted(self):
        return len(self.passes[0])

    @property
    def failures(self):
        return [(name, msg) for name, msg in self.passes[0] if msg is not None]

    def disagreement(self):
        """A problem message if passes ran or failed different operations."""
        outcomes = [[(name, msg is None) for name, msg in p] for p in self.passes]
        if any(o != outcomes[0] for o in outcomes[1:]):
            return f"passes disagree on which operations failed: {outcomes}"
        return None


class Workload:
    name = ""
    rate = ""          # the end-to-end rate metric reported as work_per_s
    setup_reps = 3

    def __init__(self, work_dir, seed, tiny):
        self.work = work_dir
        self.seed = seed
        self.tiny = tiny
        self.frames = 60 if tiny else self.FRAMES
        self.config_path = os.path.join(work_dir, "config.json")
        os.makedirs(work_dir, exist_ok=True)
        with open(self.config_path, "w") as fh:
            json.dump(self.config(), fh)

    # set-up: one fresh process per repetition -------------------------------

    def setup_cmd(self, rep):
        return [sys.executable, "-c", "import streetbeam.cli"]

    def setup_once(self, rep, env):
        proc = subprocess.run(self.setup_cmd(rep), env=env, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {rep} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")

    def setup_digests(self):
        """Digest of each set-up repetition's output (must all agree)."""
        return []

    def prepare(self):
        """In-process part of set-up, after `import streetbeam`."""

    # passes -------------------------------------------------------------------

    def pass_dir(self, i):
        """A fresh output directory; the previous pass's is removed."""
        shutil.rmtree(os.path.join(self.work, f"pass{i - 1}"), ignore_errors=True)
        d = os.path.join(self.work, f"pass{i}")
        shutil.rmtree(d, ignore_errors=True)
        return d

    def run_pass(self, i, ops):
        """Returns (output digest, {rate metric: (work units, seconds)}), where
        seconds is the wall time of the stage the rate covers, or None for
        the whole pass."""
        raise NotImplementedError

    def check(self):
        """Correctness checks on the last pass's outputs: list of problems."""
        raise NotImplementedError

    def health(self):
        """Label-health counters of the workload's dataset."""
        raise NotImplementedError


# -- shared output checks ------------------------------------------------------

def check_container(samples, manifest, frames, M_bm):
    """Structural checks plus an independent re-derivation of beam labels."""
    from streetbeam.semantics import CATALOG
    problems = []
    n = len(samples)
    if n < 1 or manifest["sample_count"] != n:
        problems.append(f"sample count {n} vs manifest {manifest['sample_count']}")
    if manifest["horizons"] != HORIZONS:
        problems.append("horizons differ from the config")
    if np.any(samples.frame_ids >= frames):
        problems.append("frame id beyond the simulated frames")
    if samples.M_bm != M_bm or np.any(samples.beam_labels >= M_bm):
        problems.append("beam label outside the codebook")
    if np.any(samples.blockage > 1):
        problems.append("blockage label not binary")
    if np.any(samples.label_maps >= len(CATALOG.names)):
        problems.append("semantic label outside the catalog")
    # beam label = a rate-maximising DFT codeword (checked on a subsample)
    rt = manifest["raytrace_config"]
    H = samples.channels
    idx = np.random.default_rng(0).permutation(n)[:64]
    N_t = H.shape[2]
    w = np.exp(-2j * np.pi * np.outer(np.arange(M_bm), np.arange(N_t)) / M_bm) / np.sqrt(N_t)
    gains = np.abs(np.einsum("skn,mn->skm", H[idx], w)) ** 2
    rates = np.mean(np.log2(1 + rt["P_k"] / rt["sigma2"] * gains), axis=1)
    best = rates.max(axis=1)
    got = rates[np.arange(len(idx)), samples.beam_labels[idx]]
    if np.any(got < best - 1e-4 * np.maximum(best, 1e-12)):
        problems.append("beam label is not a rate-maximising codeword")
    return problems


def data_health(samples, manifest):
    """Label-health counters, printed and never gated on."""
    from streetbeam.predictor import split_indices
    from streetbeam.scene import SceneConfig, generate_scenario
    outage = np.all(samples.channels == 0, axis=(1, 2))
    _, _, test = split_indices(samples.frame_ids, SPLIT, TRAIN_SEED)
    frames = generate_scenario(SceneConfig.from_dict(manifest["scene_config"]))
    targets = {frames[int(f)].target_user_id for f in samples.frame_ids}
    return {
        "samples": int(len(samples)),
        "outage_fraction": float(outage.mean()),
        "outage_beam0_share": float((samples.beam_labels[outage] == 0).mean())
        if outage.any() else None,
        "test_samples": int(len(test)),
        "test_outage_share": float(outage[test].mean()) if len(test) else None,
        "blockage_rate": {str(h): float(r) for h, r in
                          zip(samples.horizons, samples.blockage.mean(axis=0))},
        "distinct_targets": len(targets),
    }


# -- workloads -----------------------------------------------------------------

class Generate(Workload):
    """`streetbeam generate`, then `read_container` on the result."""
    FRAMES = 600
    rate = "gen_frames_per_s"

    def run_pass(self, i, ops):
        from streetbeam import cli, dataset
        self.last = None  # free the previous pass's dataset before this one
        out = self.pass_dir(i)
        ops.call("generate", cli.main, ["generate", "--config", self.config_path,
                                        "--out", out, "--seed", str(self.seed)], cli=True)
        res = ops.call("read_container", dataset.read_container,
                       os.path.join(out, "dataset"))
        self.last = res
        if res is None:
            return None, {}
        return container_digest(res[1]), {self.rate: (self.frames, None)}

    def check(self):
        if self.last is None:
            return ["no container to check"]
        samples, manifest = self.last
        return check_container(samples, manifest, self.frames, self.M_bm)

    def health(self):
        return data_health(*self.last) if self.last else {}


class GenDense(Generate):
    name = "gen-dense"
    M_bm = 16

    def config(self):
        return run_config(self.frames, (16, 32) if self.tiny else (80, 160),
                          {"N_t": 16, "K": 16}, 16)


class GenWideband(Generate):
    name = "gen-wideband"
    M_bm = 64

    def config(self):
        return run_config(self.frames, (16, 32), {}, None)


class FromDataset(Workload):
    """Set-up generates a dataset in a fresh process per repetition."""

    def setup_cmd(self, rep):
        return [sys.executable, "-m", "streetbeam.cli", "generate",
                "--config", self.config_path, "--out", self.setup_dir(rep),
                "--seed", str(self.seed)]

    def setup_dir(self, rep):
        return os.path.join(self.work, f"setup{rep}")

    def setup_digests(self):
        out = []
        for rep in range(self.setup_reps):
            with open(os.path.join(self.setup_dir(rep), "dataset", "manifest.json")) as fh:
                out.append(container_digest(json.load(fh)))
        return out

    @property
    def dataset_dir(self):
        return os.path.join(self.setup_dir(0), "dataset")

    def prepare(self):
        from streetbeam.dataset import read_container
        for rep in range(1, self.setup_reps):
            shutil.rmtree(self.setup_dir(rep), ignore_errors=True)
        self.samples, manifest = read_container(self.dataset_dir)
        self._health = data_health(self.samples, manifest)

    def health(self):
        return self._health


class TrainDense(FromDataset):
    name = "train-dense"
    rate = "train_samples_per_s"
    FRAMES = 600
    EPOCHS = 4
    setup_reps = 2
    FEATURES = "location,vehicle"
    config = GenDense.config  # the gen-dense dataset

    def prepare(self):
        super().prepare()
        from streetbeam.predictor import split_indices
        train, _, test = split_indices(self.samples.frame_ids, SPLIT, TRAIN_SEED)
        self.epochs = 1 if self.tiny else self.EPOCHS
        self.n_train, self.n_test = len(train), len(test)
        # every subcommand re-reads the container; hold no copy of it here
        del self.samples

    def commands(self, out):
        common = ["--dataset", self.dataset_dir, "--out", out]
        train = ["--features", self.FEATURES, "--epochs", str(self.epochs)]
        return [
            ("train beam", ["train", "--task", "beam"] + train + common),
            ("eval beam", ["eval", "--task", "beam"] + common),
            ("train blockage", ["train", "--task", "blockage", "--horizon", "1"]
             + train + common),
            ("eval blockage", ["eval", "--task", "blockage", "--horizon", "1"] + common),
            ("report", ["report", "--out", out]),
        ]

    def run_pass(self, i, ops):
        from streetbeam import cli
        out = self.pass_dir(i)
        self.out = out
        # samples and seconds of the train and eval subcommands that succeeded
        stage = {"train": [0, 0.0], "eval": [0, 0.0]}
        per_call = {"train": self.n_train * self.epochs, "eval": self.n_test}
        for name, argv in self.commands(out):
            t = time.perf_counter()
            ok = ops.call(name, cli.main, argv, cli=True) is not None
            kind = name.split()[0]
            if ok and kind in stage:
                stage[kind][0] += per_call[kind]
                stage[kind][1] += time.perf_counter() - t
        files = ("beam.esnn", "blockage_h1.esnn", "report.json")
        digest = sha(*(file_bytes(os.path.join(out, f)) for f in files
                       if os.path.exists(os.path.join(out, f))))
        rates = {self.rate: stage["train"], "eval_samples_per_s": stage["eval"]}
        return digest, {k: tuple(v) for k, v in rates.items() if v[0]}

    def check(self):
        from streetbeam.checkpoint import load_checkpoint
        problems = []
        for ck in ("beam.esnn", "blockage_h1.esnn"):
            path = os.path.join(self.out, ck)
            if not os.path.exists(path):
                problems.append(f"missing checkpoint {ck}")
                continue
            params, _ = load_checkpoint(path)
            if not all(np.all(np.isfinite(v)) for v in params.values()):
                problems.append(f"non-finite parameter in {ck}")
        rep = os.path.join(self.out, "report.json")
        if not os.path.exists(rep):
            return problems + ["missing report.json"]
        with open(rep) as fh:
            report = json.load(fh)
        values = []
        for task in report["metrics"].values():
            for v in task.values():
                values += list(v.values()) if isinstance(v, dict) else [v]
        if not values or not all(0 <= v <= 1 for v in values):
            problems.append(f"report metrics outside [0, 1]: {values}")
        for frag in ("eval_beam.json", "eval_blockage_h1.json"):
            path = os.path.join(self.out, frag)
            if os.path.exists(path):
                with open(path) as fh:
                    if json.load(fh)["n"] != self.n_test:
                        problems.append(f"{frag}: n differs from the test split")
        return problems


class SelectTiny(FromDataset):
    name = "select-tiny"
    rate = "select_evals_per_s"
    FRAMES = 420
    V_MAX = 3
    setup_reps = 2

    @property
    def v_max(self):
        return 2 if self.tiny else self.V_MAX

    def config(self):
        return run_config(self.frames, (16, 32), {"N_t": 16, "K": 16}, 16)

    def run_pass(self, i, ops):
        from streetbeam import pipeline
        from streetbeam.predictor import TINY_ARCH
        out = self.pass_dir(i)
        self.out = out
        ops.call("select beam", pipeline.cmd_select, self.samples, "beam", out,
                 epochs=1 if self.tiny else 3, seed=TRAIN_SEED, v_max=self.v_max,
                 arch=TINY_ARCH, batch_size=32)
        sel = os.path.join(out, "selected_beam.json")
        if not os.path.exists(sel):
            return None, {}
        with open(sel) as fh:
            calls = json.load(fh)["evaluator_calls"]
        digest = sha(file_bytes(sel),
                     file_bytes(os.path.join(out, "select_beam.trace.jsonl")))
        return digest, {self.rate: (calls, None)}

    def check(self):
        with open(os.path.join(self.out, "selected_beam.json")) as fh:
            sel = json.load(fh)
        problems = []
        if "location" not in sel["features"] or len(sel["features"]) > self.v_max:
            problems.append(f"selected set {sel['features']} breaks the pin or v_max")
        with open(os.path.join(self.out, "select_beam.trace.jsonl")) as fh:
            accs = [json.loads(line)["accuracy"] for line in fh]
        if not accs or not all(0 <= a <= 1 for a in accs):
            problems.append("selection trace accuracy outside [0, 1]")
        return problems


WORKLOADS = {w.name: w for w in (GenDense, GenWideband, TrainDense, SelectTiny)}
