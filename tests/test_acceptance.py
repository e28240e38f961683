"""Acceptance suite: ten end-to-end criteria, one test each.

Each test prints a single PASS line with the measured quantities so a run
log doubles as an acceptance report. Oracle code here is written
independently of the library internals (plain loops, no shared helpers).
"""

import json
import time

import numpy as np
import pytest

from oracles import brute_force_best, corrupt_map, gradient_check, pixel_accuracy
from streetbeam.beams import dft_codebook, optimal_beam, topg_accuracy, trr
from streetbeam.channel import RayTraceConfig, assemble_channel
from streetbeam.cli import main
from streetbeam.dataset import read_container, write_container
from streetbeam.featsel import CachedEvaluator, canonical, sffs
from streetbeam.pipeline import RunConfig, cmd_select, generate_dataset
from streetbeam.predictor import (TINY_ARCH, ArchConfig, Predictor, SampleSet,
                                  TrainConfig, predict, train)
from streetbeam.rng import stream
from streetbeam.scene import SceneConfig, from_plain
from streetbeam.semantics import CATALOG

C = 299792458.0


# ---------------------------------------------------------------- oracles

def oracle_rate(channel, w, P_k, sigma2):
    """Independent mean-log2 rate, plain double loop."""
    K = channel.shape[0]
    total = 0.0
    for k in range(K):
        s = 0j
        for n in range(channel.shape[1]):
            s += channel[k, n] * w[n]
        total += np.log2(1.0 + (P_k / sigma2) * abs(s) ** 2)
    return total / K


def oracle_best_beam(channel, codebook, P_k, sigma2):
    best, best_rate = 0, -1.0
    for m in range(len(codebook)):
        r = oracle_rate(channel, codebook[m], P_k, sigma2)
        if r > best_rate + 0.0:
            if r > best_rate:
                best, best_rate = m, r
    return best, best_rate


# -------------------------------------------------------------- criteria

def test_criterion_01_beam_oracle_equivalence():
    t0 = time.monotonic()
    rng = stream(11, "acc.c1")
    cb = dft_codebook(8, 8)
    P_k, sigma2 = 1.0, 0.1
    for _ in range(500):
        h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        rates = optimal_beam(h, cb, P_k, sigma2)
        best, best_rate = oracle_best_beam(h, cb, P_k, sigma2)
        assert rates.argmax() == best
        for m in range(8):
            r_oracle = oracle_rate(h, cb[m], P_k, sigma2)
            assert abs(rates[m] - r_oracle) <= 1e-12 * max(abs(r_oracle), 1e-300)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 1: 500/500 argmax+rate matches in {elapsed:.2f}s")


def test_criterion_02_analytic_alignment():
    t0 = time.monotonic()
    N_t = M = 16
    cfg = RayTraceConfig(N_t=N_t, K=1, subcarrier_spacing=0.0)
    cb = dft_codebook(N_t, M)
    alpha = 0.37
    for m in range(M):
        # grid angle of codeword m: phase step 2*pi*m/M = pi * cos(az),
        # i.e. cos(az) = 2m/M wrapped into [-1, 1]
        c = 2.0 * m / M
        if c > 1.0:
            c -= 2.0
        # columns alpha, phi, tau, theta_az, theta_el
        h = assemble_channel(np.array([[alpha, 0.0, 0.0, np.arccos(c), np.pi / 2]]), cfg)
        assert optimal_beam(h, cb, cfg.P_k, cfg.sigma2).argmax() == m
        gain = abs(h[0] @ cb[m])
        assert abs(gain - np.sqrt(N_t) * alpha) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 2: all {M} on-grid paths matched in {elapsed:.2f}s")


def test_criterion_03_metric_laws():
    M, K, N_t, n = 8, 2, 8, 60
    cb = dft_codebook(N_t, M)
    P_k, sigma2 = 1.0, 0.1
    for seed in (0, 1, 2):
        rng = stream(seed, "acc.c3")
        channels = rng.normal(size=(n, K, N_t)) + 1j * rng.normal(size=(n, K, N_t))
        rates = np.stack([optimal_beam(h, cb, P_k, sigma2) for h in channels])
        labels = rates.argmax(axis=1)
        scores = rng.normal(size=(n, M))
        order = np.argsort(-scores, axis=1, kind="stable")
        accs, trrs = [], []
        for G in range(1, M + 1):
            accs.append(topg_accuracy(labels, order[:, :G]))
            trrs.append(trr(rates, order[:, :G]))
        assert all(a <= b + 1e-15 for a, b in zip(accs, accs[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(trrs, trrs[1:]))
        assert accs[-1] == 1.0
        assert trrs[-1] == pytest.approx(1.0, abs=1e-12)
    print("PASS criterion 3: Top-G accuracy and TRR monotone, 1.0 at G=M, 3 seeds")


def test_criterion_04_channel_assembly_oracle():
    rng = stream(13, "acc.c4")
    cfg = RayTraceConfig(N_t=6, K=5)
    fk = [cfg.subcarrier_freq(k) for k in range(cfg.K)]
    for _ in range(100):
        paths = np.array([(rng.random(), rng.uniform(0, 2 * np.pi), rng.uniform(0, 1e-6),
                           rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
                          for _ in range(int(rng.integers(1, 6)))])
        h = assemble_channel(paths, cfg)
        oracle = np.zeros((cfg.K, cfg.N_t), dtype=complex)
        for k in range(cfg.K):
            for n in range(cfg.N_t):
                acc = 0j
                for alpha, phi, tau, theta_az, theta_el in paths:
                    w = 2 * np.pi * cfg.d * fk[k] / C
                    a = np.exp(1j * w * n * np.sin(theta_el) * np.cos(theta_az))
                    acc += alpha * np.exp(-1j * 2 * np.pi * fk[k] * tau + 1j * phi) * a
                oracle[k, n] = acc
        scale = max(np.max(np.abs(oracle)), 1e-300)
        assert np.max(np.abs(h - oracle)) <= 1e-12 * scale
    h2 = assemble_channel(np.array([[0.8, 0.0, 0.0, 0.3, 0.4], [0.8, np.pi, 0.0, 0.3, 0.4]]),
                          cfg)
    assert np.linalg.norm(h2) < 1e-12
    print("PASS criterion 4: 100/100 assembly oracles + destructive pair")


def test_criterion_05_gradient_checks():
    t0 = time.monotonic()
    rng = stream(5, "acc.c5")
    arch = ArchConfig()  # full-resolution 80x160 networks
    errs = {}
    for task in ("beam", "blockage"):
        model = Predictor(task, ("location", "vehicle", "building"), map_shape=(1, 80, 160),
                          M_bm=16, arch=arch)
        params, state = model.init(seed=1)
        loc = rng.normal(size=(2, 3))
        # one camera's random label maps over the two selected concepts: each
        # pixel is in one mask, so no window is all zeros, which with the
        # zero initial bias would put ReLU inputs exactly on the kink
        maps = np.array([CATALOG.index("vehicle"), CATALOG.index("building")],
                        dtype=np.uint8)[rng.integers(2, size=(2, 1, 80, 160))]
        label = rng.integers(0, 16 if task == "beam" else 2, size=2)
        errs[task] = gradient_check(model, params, state, loc, maps, label,
                                    n_samples=120, seed=0)
        assert errs[task] < 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 5: max rel err beam={errs['beam']:.2e} "
          f"blockage={errs['blockage']:.2e} in {elapsed:.1f}s")


def test_criterion_06_sffs_oracle():
    t0 = time.monotonic()
    universe = ("location", "vehicle", "building", "ground", "sky", "pole")
    matches = 0
    for trial in range(20):
        rng = stream(trial, "acc.c6")
        table = {}

        def fn(feats, table=table, rng=rng):
            key = canonical(feats)
            if key not in table:
                table[key] = float(rng.random())
            return table[key]

        ev = CachedEvaluator(fn)
        sel, _ = sffs(universe, ev)
        acc = ev(sel)
        # single-move local optimality
        for f in universe:
            if f not in sel:
                assert ev(sel + (f,)) <= acc
        for f in sel:
            rest = tuple(x for x in sel if x != f)
            if rest:
                assert ev(rest) <= acc
        # dominance over plain greedy forward selection
        cur = ()
        while True:
            cands = [cur + (f,) for f in universe if f not in cur]
            if not cands:
                break
            nxt = max(cands, key=ev)
            if cur and ev(nxt) <= ev(cur):
                break
            cur = nxt
        assert acc >= ev(cur) - 1e-12
        best = brute_force_best(universe, ev)
        if ev(best) == acc:
            matches += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 6: local optimality + greedy dominance on 20/20 "
          f"tables; global match {matches}/20 (reported) in {elapsed:.1f}s")


def _evaluation_scene(seed, frames):
    """Street scenario with traffic dense enough for frequent blockage."""
    return SceneConfig(frame_count=frames, seed=seed, spawn_rate=0.6,
                       bs_position=(100.0, -8.0, 2.0))


def test_criterion_07_planted_signal_end_to_end():
    t0 = time.monotonic()
    rt = RayTraceConfig(N_t=16, K=16)
    ds = generate_dataset(RunConfig(_evaluation_scene(0, 2040), rt, resolution=(80, 160),
                                    horizons=(1,), M_bm=16, store_channels=False))
    assert len(ds) >= 1800  # ~2000 usable samples
    assert ds.label_maps.shape[1] == 2  # two cameras

    feats = ("location", "vehicle")
    cfg = TrainConfig(epochs=12, seed=0, arch=ArchConfig(), batch_size=128,
                      learning_rate=1e-3)
    rb = train(ds, feats, "beam", cfg)
    te = rb.split[2]
    out = predict(rb.model, rb.params, rb.state, ds, te)
    order = np.argsort(-out, axis=1, kind="stable")
    lab = ds.beam_labels[te]
    top1 = float(np.mean(order[:, 0] == lab))
    top5 = float(np.mean([lab[i] in order[i, :5] for i in range(len(lab))]))
    assert top1 >= 3.0 / 16.0
    assert top5 > top1

    rk = train(ds, feats, "blockage", cfg, horizon=1)
    te_b = rk.split[2]
    outb = predict(rk.model, rk.params, rk.state, ds, te_b)
    pred = 1.0 / (1.0 + np.exp(-outb[:, 0])) >= 0.5
    y = ds.blockage[te_b, 0]
    acc = float(np.mean(pred == y))
    majority = max(float(np.mean(y)), 1.0 - float(np.mean(y)))
    assert acc >= majority + 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    print(f"PASS criterion 7: n={len(ds)} top1={top1:.3f} top5={top5:.3f} "
          f"blockage={acc:.3f} (majority {majority:.3f}) in {elapsed:.0f}s")


def test_criterion_08_horizon_trend():
    rt = RayTraceConfig(N_t=16, K=16)
    arch = ArchConfig()
    acc1, acc36 = [], []
    for seed in (0, 1, 2):
        ds = generate_dataset(RunConfig(_evaluation_scene(seed, 600), rt,
                                        resolution=(32, 64), horizons=(1, 36),
                                        M_bm=16, store_channels=False))
        cfg = TrainConfig(epochs=10, seed=seed, arch=arch, batch_size=64,
                          learning_rate=1e-3)
        acc1.append(train(ds, ("location", "vehicle"), "blockage", cfg,
                          horizon=1).val_accuracy)
        acc36.append(train(ds, ("location", "vehicle"), "blockage", cfg,
                           horizon=36).val_accuracy)
    m1, m36 = float(np.mean(acc1)), float(np.mean(acc36))
    assert m1 >= m36
    print(f"PASS criterion 8: mean blockage accuracy h=1 {m1:.3f} >= h=36 {m36:.3f}")


def _planted_dataset(n, M_bm=4, res=(16, 32)):
    """Vehicle-bar position drives the beam label; location is pure noise.

    A decoy bar of another concept at an independent position keeps the
    background complement ambiguous, so only the vehicle mask resolves it.
    """
    rng = stream(7, "acc.planted")
    veh, pole, bg = (CATALOG.index(c) for c in ("vehicle", "pole", "unlabeled"))
    maps = np.full((n, 2, *res), bg, dtype=np.uint8)
    labels = np.zeros(n, dtype=np.uint16)
    w = res[1] // M_bm
    for i in range(n):
        q, r = int(rng.integers(M_bm)), int(rng.integers(M_bm))
        maps[i, :, :, r * w:(r + 1) * w] = pole
        maps[i, :, :, q * w:(q + 1) * w] = veh
        labels[i] = q
    return SampleSet(label_maps=maps,
                     locations=rng.normal(size=(n, 3)).astype(np.float32),
                     rates=np.eye(M_bm)[labels],
                     blockage=(labels % 2).astype(np.uint8)[:, None],
                     frame_ids=np.arange(n, dtype=np.uint32),
                     horizons=(1,))


def test_criterion_09_feature_selection_sanity(tmp_path):
    ds = _planted_dataset(n=150)
    selected = cmd_select(ds, "beam", tmp_path, epochs=12, seed=0, v_max=2,
                          arch=TINY_ARCH, batch_size=32, learning_rate=3e-3)
    assert "location" in selected and "vehicle" in selected
    for dead in ("sky", "water", "bridge"):
        assert dead not in selected
    print(f"PASS criterion 9: selected {selected}, zero-mask concepts excluded")


def test_criterion_10_determinism_and_roundtrip(tmp_path):
    # (a) full pipeline twice, byte-identical report.json
    cfg = {
        "scene": {"frame_count": 60, "seed": 3, "spawn_rate": 0.5,
                  "initial_vehicles": [["car", [50.0, 1.75], 2, 10.0],
                                       ["van", [80.0, -1.75], 1, 9.0]]},
        "raytrace": {"N_t": 8, "K": 4},
        "resolution": [16, 32],
        "horizons": [1],
        "M_bm": 8,
        "arch": {"aux_widths": [16, 8],
                 "beam_conv": [[4, 2]], "beam_res": [[4, 1]], "beam_hidden": 16,
                 "bl_conv": [[4, 2]], "bl_res": [[4, 1]], "bl_hidden": 8},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    reports = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        dataset = str(tmp_path / run / "dataset")
        for argv in (
            ["generate", "--config", str(cfg_path), "--out", out],
            ["train", "--config", str(cfg_path), "--dataset", dataset,
             "--task", "beam", "--epochs", "3", "--out", out,
             "--features", "location,vehicle"],
            ["eval", "--dataset", dataset, "--task", "beam",
             "--g-list", "1,2,8", "--out", out],
            ["train", "--config", str(cfg_path), "--dataset", dataset,
             "--task", "blockage", "--horizon", "1", "--epochs", "3",
             "--out", out, "--features", "location,vehicle"],
            ["eval", "--dataset", dataset, "--task", "blockage",
             "--horizon", "1", "--out", out],
            ["report", "--out", out],
        ):
            assert main(argv) == 0
        reports.append((tmp_path / run / "report.json").read_bytes())
    assert reports[0] == reports[1]

    # (b) container write/read round-trips bitwise
    ds, mf = read_container(tmp_path / "a" / "dataset")
    scene = SceneConfig.from_dict(mf["scene_config"])
    rt = from_plain(RayTraceConfig, mf["raytrace_config"])
    write_container(tmp_path / "copy", ds, scene, rt)
    ds2, _ = read_container(tmp_path / "copy")
    assert np.array_equal(ds2.label_maps, ds.label_maps)
    assert np.array_equal(ds2.locations, ds.locations)
    assert np.array_equal(ds2.beam_labels, ds.beam_labels)
    assert ds2.rates.tobytes() == ds.rates.tobytes()
    assert np.array_equal(ds2.blockage, ds.blockage)
    assert np.array_equal(ds2.frame_ids, ds.frame_ids)
    assert np.array_equal(ds2.channels, ds.channels)

    # (c) corrupt_map at p = 0.1: accuracy within 3 sigma of 1 - p*19/20
    rng = stream(21, "acc.c10")
    labels = rng.integers(0, 20, size=(100, 200)).astype(np.uint8)
    noisy = corrupt_map(labels, 0.1, stream(22, "acc.c10.noise"))
    acc = pixel_accuracy([noisy], [labels])
    expect = 1.0 - 0.1 * 19.0 / 20.0
    sigma = np.sqrt(expect * (1 - expect) / labels.size)
    assert abs(acc - expect) <= 3 * sigma
    print(f"PASS criterion 10: byte-identical reports, bitwise container "
          f"round-trip, corrupt accuracy {acc:.4f} (expect {expect:.4f})")
