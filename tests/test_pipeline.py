import json
import multiprocessing
import os
import platform
import resource
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from streetbeam.beams import dft_codebook, optimal_beam
from streetbeam import blas, pipeline
from streetbeam.channel import RayTraceConfig, assemble_channel
from streetbeam.dataset import read_container
from streetbeam.pipeline import (SELECT_WORKERS_MAX, PipelineError, RunConfig,
                                 blockage_labels, cmd_eval, cmd_generate, cmd_report,
                                 cmd_select, cmd_train, generate_dataset,
                                 training_evaluator)
from streetbeam.predictor import (TINY_ARCH, SampleSet, TrainConfig, split_indices,
                                  train_stack)
from streetbeam.rng import stream
from streetbeam.scene import SceneConfig, generate_scenario
from streetbeam.semantics import render_frame
from streetbeam.semantics import CATALOG

RES = (16, 32)


def small_scene(frames=60, seed=1):
    return SceneConfig(frame_count=frames, seed=seed, spawn_rate=0.5,
                       initial_vehicles=(("car", (50.0, 1.75), 2, 10.0),
                                         ("van", (80.0, -1.75), 1, 9.0)))


def small_rt():
    return RayTraceConfig(N_t=8, K=4)


def run_config(scene, rt, **kw):
    return RunConfig(scene, rt, resolution=RES, **kw)


def test_generate_counts_and_cutoff(tmp_path):
    scene = small_scene(frames=30)
    ds = generate_dataset(run_config(scene, small_rt(), horizons=(1, 5), M_bm=8))
    # the last max-horizon frames can never produce samples
    assert len(ds) <= 30 - 5
    assert ds.frame_ids.max() < 30 - 5
    assert ds.horizons == (1, 5) and ds.M_bm == 8
    assert ds.label_maps.shape[1:] == (2, *RES)


def test_generate_deterministic_manifest(tmp_path):
    scene, rt = small_scene(frames=25), small_rt()
    cfg = run_config(scene, rt, horizons=(1, 3), M_bm=8)
    _, m1 = cmd_generate(cfg, tmp_path / "a")
    _, m2 = cmd_generate(cfg, tmp_path / "b")
    assert m1["hashes"] == m2["hashes"]


def test_generate_beam_labels_roundtrip_oracle(tmp_path):
    scene, rt = small_scene(frames=25), small_rt()
    gen, _ = cmd_generate(run_config(scene, rt, horizons=(1, 3), M_bm=8), tmp_path / "d")
    ds, mf = read_container(tmp_path / "d")
    cb = dft_codebook(rt.N_t, ds.M_bm)
    assert ds.rates.shape == (len(ds), 8) and ds.rates.dtype == np.float64
    assert ds.rates.tobytes() == gen.rates.tobytes()
    # the generated column is what the container stores: complex64, bit for bit
    assert gen.channels.dtype == ds.channels.dtype == np.complex64
    assert gen.channels.tobytes() == ds.channels.tobytes()
    for i in range(len(ds)):
        rates = optimal_beam(ds.channels[i], cb, rt.P_k, rt.sigma2)
        assert rates.argmax() == ds.beam_labels[i]


def _usable_by_oracle(targets, los, horizons):
    """(slot, flags) of every slot the per-slot labeler accepts."""
    out = []
    for t0 in range(len(targets)):
        try:
            out.append((t0, oracles.blockage_labels(targets, los, t0, horizons)))
        except (IndexError, oracles.TargetLostError):
            pass
    return out


@st.composite
def label_inputs(draw):
    """Target sequences built from runs of one id or None, so that targets
    persist, get lost mid-window and come back; LOS flags; horizon sets,
    from empty to longer than the sequence."""
    runs = draw(st.lists(st.tuples(st.none() | st.integers(0, 3), st.integers(1, 12)),
                         max_size=6))
    targets = [target for target, length in runs for _ in range(length)]
    los = draw(st.lists(st.booleans(), min_size=len(targets), max_size=len(targets)))
    horizons = draw(st.lists(st.integers(0, 12) | st.integers(0, 80), max_size=4))
    return targets, los, tuple(horizons)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(label_inputs())
def test_blockage_labels_match_per_slot_oracle(inputs):
    targets, los, horizons = inputs
    t0, blockage = blockage_labels(targets, los, horizons)
    want = _usable_by_oracle(targets, los, horizons)
    assert t0.tolist() == [t for t, _ in want]
    assert blockage.dtype == np.uint8 and blockage.shape == (len(want), len(horizons))
    assert blockage.tolist() == [flags for _, flags in want]


# a 40-frame street whose samples have 0, 1, 3 or 4 paths: the two buses
# shade the base station at 2 m, below their roofs
OUTAGE_SCENE = SceneConfig(frame_count=40, seed=68, spawn_rate=0.5, bs_position=(100.0, -8.0, 2.0),
                           initial_vehicles=(("bus", (105.8, -5.25), 0, 10.0),
                                             ("bus", (119.8, 1.75), 2, 5.0)))


@pytest.mark.parametrize("horizons, sigma2", [((3, 1), 0.1), ((), 0.1), ((3, 1), 5e-324)],
                         ids=["h1-3", "no-horizons", "sigma2-min"])
def test_generate_matches_per_frame_reference(horizons, sigma2):
    """Every column equals a per-frame build: trace, assemble and search
    each frame alone, and label each slot with the per-slot oracle. The
    live samples run through several chunks, and the outage samples share
    one zero-channel rate row, which must equal each outage's own search;
    the default chunking gives the same bits. Each channel stays within
    ``oracles.channel_tolerance`` of the extended-precision per-path sum. At sigma2 = 5e-324, P_k / sigma2 overflows to inf,
    so that row is NaN."""
    scene, rt = OUTAGE_SCENE, RayTraceConfig(N_t=8, K=4, sigma2=sigma2)
    cfg = run_config(scene, rt, horizons=horizons, M_bm=8)
    per_chunk = 3
    with np.errstate(over="ignore", invalid="ignore"):
        with mock.patch.object(pipeline, "_CHUNK_ENTRIES", per_chunk * rt.K * rt.N_t):
            ds = generate_dataset(cfg)
        default = generate_dataset(cfg)
    for name in ("label_maps", "locations", "rates", "blockage", "frame_ids", "channels"):
        assert getattr(ds, name).tobytes() == getattr(default, name).tobytes(), name
    frames = generate_scenario(scene)
    paths = [oracles.trace_frame(f, scene, rt) for f in frames]
    targets = [f.target_user_id for f in frames]
    los = [any(p.is_los for p in ps) for ps in paths]
    want = _usable_by_oracle(targets, los, tuple(sorted(horizons)))
    assert len(want) > 20
    live = sum(len(paths[t]) > 0 for t, _ in want)
    assert 0 < live < len(want)  # outage and live samples
    assert live > per_chunk      # at least two chunks of live samples
    assert ds.frame_ids.tolist() == [t for t, _ in want]
    assert ds.blockage.tolist() == [flags for _, flags in want]
    assert ds.horizons == tuple(sorted(horizons))
    cb = dft_codebook(rt.N_t, 8)
    for i, (t, _) in enumerate(want):
        rows = oracles.path_rows(paths[t])
        h = assemble_channel(rows, rt)
        # the column stores h rounded to complex64; the rates are searched on h
        assert ds.channels[i].tobytes() == h.astype(np.complex64).tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            assert ds.rates[i].tobytes() == optimal_beam(h, cb, rt.P_k, rt.sigma2).tobytes()
        ref = oracles.channel_reference(rows, rt)
        assert np.abs(h - ref).max() <= oracles.channel_tolerance(rows, rt)
        assert ds.label_maps[i].tobytes() == render_frame(frames[t], scene, RES).tobytes()
        want_loc = np.asarray(frames[t].user_antenna_pos, dtype=np.float32)
        assert ds.locations[i].tobytes() == want_loc.tobytes()
    if sigma2 == 5e-324:
        assert np.isnan(ds.rates).any()


@pytest.fixture
def blas_threads_restored():
    """After the test, this process's BLAS runs on OpenBLAS's own default
    again: OPENBLAS_NUM_THREADS, or else one thread per usable CPU."""
    if not blas.can_set_threads():
        pytest.skip("no OpenBLAS thread setter")
    yield
    blas.set_threads(int(os.environ.get("OPENBLAS_NUM_THREADS") or 0)
                     or len(os.sched_getaffinity(0)))


def test_generate_independent_of_blas_threads(blas_threads_restored):
    """The beam search's GEMMs on one BLAS thread give the same dataset bits
    as on the default thread count, at the default N_t 64, K 128 and M_bm 64."""
    cfg = run_config(OUTAGE_SCENE, RayTraceConfig(), horizons=(1,), M_bm=64)
    default = generate_dataset(cfg)
    blas.set_threads(1)
    one = generate_dataset(cfg)
    assert len(default) > 20
    for name in ("label_maps", "locations", "rates", "blockage", "frame_ids", "channels"):
        assert getattr(one, name).tobytes() == getattr(default, name).tobytes(), name


def test_generate_zero_usable_samples():
    scene = small_scene(frames=5)
    with pytest.raises(PipelineError):
        generate_dataset(run_config(scene, small_rt(), horizons=(36,)))


def planted_dataset(n=90, M_bm=4):
    """Labels driven by the vehicle bar only; location pure noise."""
    rng = stream(7, "planted.pl")
    veh = CATALOG.index("vehicle")
    pole = CATALOG.index("pole")
    bg = CATALOG.index("unlabeled")
    # vehicle bar position drives the label; an identically shaped decoy
    # bar of another concept makes the background complement ambiguous, so
    # only the vehicle mask itself resolves the label
    maps = np.full((n, 2, *RES), bg, dtype=np.uint8)
    labels = np.zeros(n, dtype=np.uint16)
    w = RES[1] // M_bm
    for i in range(n):
        q = int(rng.integers(M_bm))
        r = int(rng.integers(M_bm))
        maps[i, :, :, r * w:(r + 1) * w] = pole
        maps[i, :, :, q * w:(q + 1) * w] = veh
        labels[i] = q
    return SampleSet(label_maps=maps,
                     locations=rng.normal(size=(n, 3)).astype(np.float32),
                     rates=np.eye(M_bm)[labels],
                     blockage=(labels % 2).astype(np.uint8)[:, None],
                     frame_ids=np.arange(n, dtype=np.uint32),
                     horizons=(1,))


def test_select_planted_vehicle(tmp_path):
    ds = planted_dataset(n=150)
    selected = cmd_select(ds, "beam", tmp_path, epochs=12, seed=0, v_max=2,
                          arch=TINY_ARCH, batch_size=32, learning_rate=3e-3)
    assert "location" in selected
    assert "vehicle" in selected
    for dead in ("sky", "water", "bridge"):
        assert dead not in selected
    # artifacts: trace + selection result
    trace = (tmp_path / "select_beam.trace.jsonl").read_text().splitlines()
    assert all(json.loads(t)["step"] in ("inclusion", "exclusion") for t in trace)
    sel = json.loads((tmp_path / "selected_beam.json").read_text())
    assert sel["features"] == list(selected)
    assert sel["evaluator_calls"] > 0


def use_cpus(monkeypatch, n):
    """Let selection see ``n`` usable CPUs whose workers' BLAS can be held
    to one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr("streetbeam.blas.can_set_threads", lambda: True)


def test_select_outputs_do_not_depend_on_workers(tmp_path, monkeypatch,
                                                 no_children_left):
    ds = generate_dataset(run_config(small_scene(), small_rt(), horizons=(1, 3)))
    outputs = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        cmd_select(ds, "beam", out, epochs=1, seed=0, v_max=3, arch=TINY_ARCH,
                   batch_size=32)
        outputs.append([(out / name).read_bytes() for name in
                        ("select_beam.trace.jsonl", "selected_beam.json")])
    # selected_beam.json holds evaluator_calls
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["evaluator_calls"] > 20


def test_select_worker_count(monkeypatch):
    ds = planted_dataset(n=40)
    counts = []
    for cpus, settable in ((1, True), (2, True), (8, True), (8, False)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr("streetbeam.blas.can_set_threads", lambda: settable)
        ev = training_evaluator(ds, "beam", None, TrainConfig(epochs=1, arch=TINY_ARCH))
        counts.append(ev._workers)
    # workers whose BLAS runs several threads would contend for the CPUs
    assert counts == [1, 2, SELECT_WORKERS_MAX, 1]


def test_select_worker_death_raises_pipeline_error(tmp_path, monkeypatch,
                                                   no_children_left):
    """A worker dies in the search's first step (the sets of size 2), or
    in its second (size 3) after the first succeeded."""
    use_cpus(monkeypatch, 2)
    ds = planted_dataset(n=40)
    for dies_at in (2, 3):
        def train_stack(dataset, sets, *args, **kwargs):
            if len(sets[0]) == dies_at:
                os._exit(1)
            return [SimpleNamespace(val_accuracy=0.5)] * len(sets)
        monkeypatch.setattr("streetbeam.pipeline.train_stack", train_stack)
        out = tmp_path / f"dies_at{dies_at}"
        with pytest.raises(PipelineError, match="worker died"):
            cmd_select(ds, "beam", out, epochs=1, v_max=3, arch=TINY_ARCH, batch_size=32)
        assert not (out / "selected_beam.json").exists()
        assert multiprocessing.active_children() == []


def test_search_scores_every_candidate_on_one_validation_split(monkeypatch):
    """Every candidate set of a search is validated on the split of the
    search's own seed, whatever seed its training draws."""
    use_cpus(monkeypatch, 1)  # the stacks train in this process
    ds = planted_dataset(n=60)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=3, arch=TINY_ARCH)
    seen = []

    def accuracy(model, params, state, dataset, idx, labels):
        seen.append(idx)
        return 0.5
    monkeypatch.setattr("streetbeam.predictor.accuracy", accuracy)
    sets = [("location", name) for name in ("vehicle", "pole", "building", "sky")]
    with training_evaluator(ds, "beam", None, cfg) as evaluator:
        evaluator.many(sets)
    assert len(seen) == len(sets)
    val = split_indices(ds.frame_ids, cfg.split, cfg.seed)[1]
    for idx in seen:
        assert np.array_equal(idx, val)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_repeat_training_stack_refaults_no_freed_pages():
    """A training process keeps the heap its steps free: an identical
    ``train_stack`` after the first reuses its pages (700 to 2300 page
    faults with glibc's default thresholds). The fewer of two repeats'
    counts is checked, as a single repeat now and then faulted up to 93."""
    ds = generate_dataset(run_config(small_scene(), small_rt(), horizons=(1,)))
    sets = [("location", name) for name in CATALOG.names[1:6]]
    cfg = TrainConfig(epochs=2, batch_size=32, arch=TINY_ARCH)
    seeds = list(range(len(sets)))
    train_stack(ds, sets, "beam", cfg, seeds)
    faults = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_stack(ds, sets, "beam", cfg, seeds)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert len(ds) > 50
    assert min(faults) < 100, faults


def run_trained_beam(tmp_path, ds, epochs=10):
    cfg = TrainConfig(epochs=epochs, seed=2, batch_size=32, arch=TINY_ARCH,
                      learning_rate=3e-3)
    return cmd_train(ds, ("location", "vehicle"), "beam", cfg, tmp_path)


def test_train_eval_report_cycle(tmp_path):
    ds = planted_dataset(n=120)
    res, meta = run_trained_beam(tmp_path, ds)
    assert (tmp_path / "beam.esnn").exists()
    assert meta["val_accuracy"] > 0.8
    stored = json.loads((tmp_path / "beam.meta.json").read_text())
    assert stored["train_loss"] == res.train_loss and len(res.train_loss) == 10

    frag = cmd_eval(ds, tmp_path, "beam", g_list=(1, 2, 4))
    accs = [frag["topg_accuracy"][str(g)] for g in (1, 2, 4)]
    trrs = [frag["trr"][str(g)] for g in (1, 2, 4)]
    assert accs == sorted(accs) and trrs == sorted(trrs)  # monotone in G
    assert accs[-1] == 1.0 and trrs[-1] == pytest.approx(1.0)  # G = M_bm row
    for v in accs + trrs:
        assert 0.0 <= v <= 1.0 + 1e-12
    # one-hot rates: the rate ratio of a Top-G set is whether it holds the label
    assert trrs == accs and frag["trr_excluded"] == 0

    cfg = TrainConfig(epochs=10, seed=2, batch_size=32, arch=TINY_ARCH,
                      learning_rate=3e-3)
    cmd_train(ds, ("location", "vehicle"), "blockage", cfg, tmp_path, horizon=1)
    fragb = cmd_eval(ds, tmp_path, "blockage", horizon=1)
    assert 0.0 <= fragb["blockage_accuracy"] <= 1.0

    report = cmd_report(tmp_path)
    assert set(report["metrics"]) == {"beam", "blockage"}
    csv = (tmp_path / "metrics.csv").read_text().splitlines()
    assert csv[0] == "metric,key,value,n,seed"
    assert len(csv) - 1 == 3 * 2 + 1  # |G list| x 2 + |horizons|

    # byte-identical rerun over the same artifacts
    r1 = (tmp_path / "report.json").read_bytes()
    c1 = (tmp_path / "metrics.csv").read_bytes()
    cmd_report(tmp_path)
    assert (tmp_path / "report.json").read_bytes() == r1
    assert (tmp_path / "metrics.csv").read_bytes() == c1


def test_eval_logs_trr_exclusions_once(tmp_path, caplog):
    ds = planted_dataset(n=60)
    ds.rates[::3] = 0.0  # full outages, which TRR leaves out
    run_trained_beam(tmp_path, ds, epochs=2)
    with caplog.at_level("WARNING"):
        frag = cmd_eval(ds, tmp_path, "beam", g_list=(1, 2, 3, 4))
    lines = [r.getMessage() for r in caplog.records if "excluded" in r.getMessage()]
    assert frag["trr_excluded"] > 0
    assert lines == [f"trr: excluded {frag['trr_excluded']} sample(s) with zero optimal rate"]


def test_eval_missing_artifacts(tmp_path):
    ds = planted_dataset(n=40)
    with pytest.raises(PipelineError):
        cmd_eval(ds, tmp_path, "beam")


def test_report_empty_dir_lists_missing(tmp_path):
    with pytest.raises(PipelineError) as exc:
        cmd_report(tmp_path)
    assert "eval_" in str(exc.value)
    with pytest.raises(PipelineError):
        cmd_report(tmp_path / "nonexistent")
