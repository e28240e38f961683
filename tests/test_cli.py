import json
import os
import subprocess
import sys

import numpy as np
import pytest

from streetbeam.cli import main
from streetbeam.dataset import read_container

TINY_ARCH_JSON = {"input_hw": [16, 32], "aux_widths": [16, 8],
                  "beam_conv": [[4, 2]], "beam_res": [[4, 1]], "beam_hidden": 16,
                  "bl_conv": [[4, 2]], "bl_res": [[4, 1]], "bl_hidden": 8}


def write_config(tmp_path, frames=60):
    cfg = {
        "scene": {"frame_count": frames, "seed": 1, "spawn_rate": 0.5,
                  "initial_vehicles": [["car", [50.0, 1.75], 2, 10.0],
                                       ["van", [80.0, -1.75], 1, 9.0]]},
        "raytrace": {"N_t": 8, "K": 4},
        "resolution": [16, 32],
        "horizons": [1, 3],
        "M_bm": 8,
        "arch": TINY_ARCH_JSON,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_full_cli_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", str(cfg), "--out", out]) == 0
    ds, mf = read_container(tmp_path / "run" / "dataset")
    assert mf["shapes"]["rates"] == [len(ds), 8] and len(ds) > 0

    dataset = str(tmp_path / "run" / "dataset")
    assert main(["select", "--config", str(cfg), "--dataset", dataset,
                 "--task", "beam", "--vmax", "2", "--epochs", "1",
                 "--out", out]) == 0
    sel = json.loads((tmp_path / "run" / "selected_beam.json").read_text())
    assert "location" in sel["features"]

    assert main(["train", "--config", str(cfg), "--dataset", dataset,
                 "--task", "beam", "--epochs", "2", "--out", out,
                 "--features", "location,vehicle"]) == 0
    assert (tmp_path / "run" / "beam.esnn").exists()
    assert main(["eval", "--dataset", dataset, "--task", "beam",
                 "--g-list", "1,2,8", "--out", out]) == 0

    assert main(["train", "--config", str(cfg), "--dataset", dataset,
                 "--task", "blockage", "--horizon", "1", "--epochs", "2",
                 "--out", out, "--features", "location,vehicle"]) == 0
    assert main(["eval", "--dataset", dataset, "--task", "blockage",
                 "--horizon", "1", "--out", out]) == 0

    assert main(["report", "--out", out]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    accs = report["metrics"]["beam"]["topg_accuracy"]
    assert accs["8"] == 1.0  # G = M_bm
    csv = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert len(csv) - 1 == 3 * 2 + 1


def test_train_without_features_or_selection_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, frames=30)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", str(cfg), "--out", out]) == 0
    dataset = str(tmp_path / "run" / "dataset")
    assert main(["train", "--config", str(cfg), "--dataset", dataset,
                 "--task", "beam", "--epochs", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "feature" in err


def test_validation_errors_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, frames=30)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", str(cfg), "--out", out]) == 0
    dataset = str(tmp_path / "run" / "dataset")
    # unknown feature name
    assert main(["train", "--config", str(cfg), "--dataset", dataset,
                 "--task", "beam", "--epochs", "1", "--out", out,
                 "--features", "location,warpdrive"]) == 1
    # bad G list
    main(["train", "--config", str(cfg), "--dataset", dataset, "--task", "beam",
          "--epochs", "1", "--out", out, "--features", "location,vehicle"])
    assert main(["eval", "--dataset", dataset, "--task", "beam",
                 "--g-list", "zero", "--out", out]) == 1
    # a G above the codebook (M_bm = 8) fails before the checkpoint is read
    capsys.readouterr()
    (tmp_path / "run" / "beam.esnn").write_bytes(b"not a checkpoint")
    assert main(["eval", "--dataset", dataset, "--task", "beam",
                 "--g-list", "1,9", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "G = 9" in err and "M_bm = 8" in err, err
    assert not (tmp_path / "run" / "eval_beam.json").exists()
    # invalid scene config
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scene": {"frame_count": 0}}))
    assert main(["generate", "--config", str(bad), "--out", out]) == 1
    capsys.readouterr()
    # unknown keys, non-object configs or sections and out-of-range scene
    # values fail closed with one line naming the key or value
    car = ["car", [50.0, 1.75], 2, 10.0]
    for raw, named in (({"scene": {"spawn_rte": 0.6}}, "scene.spawn_rte"),
                       ({"raytrace": {"Nt": 8}}, "raytrace.Nt"),
                       ({"arch": {"widths": 3}}, "arch.widths"),
                       ({"horizon": [1]}, "horizon"),
                       ([], "config must be a JSON object"),
                       ({"scene": []}, "scene must be a JSON object"),
                       ({"resolution": 16}, "resolution"),
                       ({"resolution": [16.5, 32]}, "resolution"),
                       ({"resolution": [-16, 32]}, "resolution"),
                       ({"resolution": [16, 32, 3]}, "resolution"),
                       ({"scene": {"spawn_rate": -0.5}}, "spawn_rate"),
                       ({"scene": {"speed_range_mps": [-2.0, 8.0]}}, "speeds"),
                       ({"scene": {"initial_vehicles": [["car", [50.0, None], 1, 10.0]]}},
                        "center"),
                       ({"scene": {"initial_vehicles": [car[:2] + [9, 10.0]]}}, "lane"),
                       ({"scene": {"initial_vehicles": [car[:2] + [1.5, 10.0]]}}, "lane"),
                       ({"scene": {"initial_vehicles": [car[:3] + [-1.0]]}}, "speed"),
                       ({"scene": {"initial_vehicles": [["truck"] + car[1:]]}}, "truck"),
                       ({"scene": {"initial_vehicles": [[["car"]] + car[1:]]}}, "class"),
                       ({"scene": {"initial_vehicles": [["car", [50.0], 1, 10.0]]}},
                        "(class, (x, y), lane, speed)"),
                       ({"scene": {"initial_vehicles": [car[:3]]}},
                        "(class, (x, y), lane, speed)"),
                       # a center off its lane's axis by more than half a lane
                       ({"scene": {"initial_vehicles": [car[:2] + [1, 10.0]]}}, "off lane 1"),
                       # street geometry must be finite: positive lengths, and
                       # non-negative sidewalk and setback
                       ({"scene": {"slot_duration_s": float("inf")}}, "slot_duration_s"),
                       ({"scene": {"street_length_m": float("nan")}}, "street_length_m"),
                       ({"scene": {"lane_width_m": 0.0}}, "lane_width_m"),
                       ({"scene": {"building_height_m": -float("inf")}}, "building_height_m"),
                       ({"scene": {"sidewalk_width_m": -1.0}}, "sidewalk_width_m"),
                       ({"scene": {"building_setback_m": float("inf")}}, "building_setback_m"),
                       ({"scene": {"street_length_m": None}},
                        "street_length_m must be finite and > 0"),
                       # a negative horizon would read LOS from before the sample
                       ({"horizons": [-3, 1]}, "horizons"),
                       ({"horizons": [1, 2.5]}, "horizons"),
                       ({"horizons": [True]}, "horizons")):
        bad.write_text(json.dumps(raw))
        assert main(["generate", "--config", str(bad), "--out", out]) == 1, raw
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, (raw, err)
        assert err.count("\n") == 1 and "Traceback" not in err, err
    for raw in ('{"scene": {"initial_vehicles": [["car", [50.0, 1.75], 1, NaN]]}}',
                '{"scene": {"speed_range_mps": [8.0, Infinity]}}'):
        bad.write_text(raw)
        assert main(["generate", "--config", str(bad), "--out", out]) == 1
        assert "finite" in capsys.readouterr().err


def test_io_errors_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, frames=30)
    out = str(tmp_path / "run")
    # missing config file
    assert main(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", out]) == 2
    # missing dataset container
    assert main(["eval", "--dataset", str(tmp_path / "nothere"),
                 "--task", "beam", "--out", out]) == 2


def test_cli_determinism(tmp_path):
    cfg = write_config(tmp_path, frames=40)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["generate", "--config", str(cfg), "--out", a]) == 0
    assert main(["generate", "--config", str(cfg), "--out", b]) == 0
    ma = (tmp_path / "a" / "dataset" / "manifest.json").read_bytes()
    mb = (tmp_path / "b" / "dataset" / "manifest.json").read_bytes()
    assert ma == mb


def test_corrupt_artifacts_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, frames=30)
    out = str(tmp_path / "run")
    dataset = str(tmp_path / "run" / "dataset")
    assert main(["generate", "--config", str(cfg), "--out", out]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", dataset, "--task", "beam",
                 "--epochs", "1", "--out", out, "--features", "location,vehicle"]) == 0
    ckpt = tmp_path / "run" / "beam.esnn"
    raw = ckpt.read_bytes()
    # header only, inside the first record, inside the last record
    for n in (6, 8, 20, len(raw) - 3):
        ckpt.write_bytes(raw[:n])
        assert main(["eval", "--dataset", dataset, "--task", "beam", "--out", out]) == 2
    ckpt.write_bytes(raw)
    manifest = tmp_path / "run" / "dataset" / "manifest.json"
    good = json.loads(manifest.read_text())
    for section, key in (("shapes", "rates"), ("hashes", "rates")):
        mf = json.loads(json.dumps(good))
        del mf[section][key]
        manifest.write_text(json.dumps(mf))
        capsys.readouterr()
        assert main(["eval", "--dataset", dataset, "--task", "beam", "--out", out]) == 2
        assert key in capsys.readouterr().err


def test_schema_1_container_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, frames=30)
    out = str(tmp_path / "run")
    dataset = str(tmp_path / "run" / "dataset")
    assert main(["generate", "--config", str(cfg), "--out", out]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", dataset, "--task", "beam",
                 "--epochs", "1", "--out", out, "--features", "location,vehicle"]) == 0
    manifest = tmp_path / "run" / "dataset" / "manifest.json"
    mf = json.loads(manifest.read_text())
    mf["schema_version"] = 1
    manifest.write_text(json.dumps(mf))
    capsys.readouterr()
    assert main(["eval", "--dataset", dataset, "--task", "beam", "--out", out]) == 2
    assert "unsupported container schema version" in capsys.readouterr().err


def test_eval_beam_without_stored_channels(tmp_path):
    """Eval reads the stored rates, so a dataset without channels evaluates,
    to the same TRR as the same dataset with channels."""
    frags = []
    for store in (True, False):
        cfg = write_config(tmp_path, frames=40)
        raw = json.loads(cfg.read_text())
        raw["store_channels"] = store
        cfg.write_text(json.dumps(raw))
        out = tmp_path / f"run_{store}"
        dataset = str(out / "dataset")
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "dataset" / "channels.bin").exists() == store
        assert main(["train", "--config", str(cfg), "--dataset", dataset,
                     "--task", "beam", "--epochs", "1", "--out", str(out),
                     "--features", "location,vehicle"]) == 0
        assert main(["eval", "--dataset", dataset, "--task", "beam",
                     "--g-list", "1,2,8", "--out", str(out)]) == 0
        frags.append(json.loads((out / "eval_beam.json").read_text()))
    assert frags[0]["trr"] == frags[1]["trr"]
    assert frags[0]["topg_accuracy"] == frags[1]["topg_accuracy"]
    assert frags[1]["trr"]["8"] == 1.0


def test_generate_seed_from_config_unless_given(tmp_path):
    cfg = write_config(tmp_path, frames=30)
    raw = json.loads(cfg.read_text())
    raw["scene"]["seed"] = 5
    cfg.write_text(json.dumps(raw))

    def generate(name, *extra):
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / name),
                     *extra]) == 0
        mf = json.loads((tmp_path / name / "dataset" / "manifest.json").read_text())
        return mf["scene_config"]["seed"], mf["hashes"]["rates"]

    from_config = generate("config")
    assert from_config[0] == 5
    assert generate("flag5", "--seed", "5") == from_config
    # an explicit --seed still overrides the config
    assert generate("flag0", "--seed", "0")[0] == 0


def test_blockage_horizon_defaults_to_first_dataset_horizon(tmp_path, capsys):
    cfg = write_config(tmp_path)  # horizons [1, 3]
    out = str(tmp_path / "run")
    dataset = str(tmp_path / "run" / "dataset")
    assert main(["generate", "--config", str(cfg), "--out", out]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", dataset,
                 "--task", "blockage", "--epochs", "1", "--out", out,
                 "--features", "location,vehicle"]) == 0
    assert main(["eval", "--dataset", dataset, "--task", "blockage", "--out", out]) == 0
    assert main(["report", "--out", out]) == 0
    run = tmp_path / "run"
    assert sorted(p.name for p in run.glob("*blockage*")) == [
        "blockage_h1.esnn", "blockage_h1.meta.json", "eval_blockage_h1.json"]
    assert json.loads((run / "blockage_h1.meta.json").read_text())["horizon"] == 1
    report = json.loads((run / "report.json").read_text())
    assert list(report["metrics"]["blockage"]) == ["1"]
    capsys.readouterr()
    for cmd in (["train", "--config", str(cfg), "--epochs", "1",
                 "--features", "location,vehicle"], ["eval"],
                ["select", "--config", str(cfg), "--epochs", "1", "--vmax", "2"]):
        assert main(cmd + ["--dataset", dataset, "--task", "blockage",
                           "--horizon", "7", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "horizon 7" in err and "[1, 3]" in err, err
    assert not (run / "selected_blockage.json").exists()


def test_eval_checkpoint_of_another_codebook_size_exits_1(tmp_path, capsys):
    """A beam checkpoint scores only datasets of its own codebook size."""
    runs = {}
    for m in (16, 8):
        cfg = write_config(tmp_path, frames=40)
        raw = json.loads(cfg.read_text())
        raw["M_bm"] = m
        cfg.write_text(json.dumps(raw))
        out = tmp_path / f"m{m}"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg), "--dataset", str(out / "dataset"),
                     "--task", "beam", "--epochs", "1", "--out", str(out),
                     "--features", "location,vehicle"]) == 0
        runs[m] = out
    capsys.readouterr()
    for ckpt, data in ((16, 8), (8, 16)):
        out = runs[ckpt]
        assert main(["eval", "--dataset", str(runs[data] / "dataset"), "--task", "beam",
                     "--g-list", "1,2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"M_bm = {ckpt}" in err and f"M_bm = {data}" in err, err
        assert not (out / "eval_beam.json").exists()


def test_select_outputs_do_not_depend_on_usable_cpus(tmp_path, capsys, monkeypatch,
                                                     no_children_left):
    cfg = write_config(tmp_path, frames=30)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", str(cfg), "--out", out]) == 0
    select = ["select", "--config", str(cfg), "--dataset", str(tmp_path / "run" / "dataset"),
              "--task", "beam", "--vmax", "2", "--epochs", "1"]
    monkeypatch.setattr("streetbeam.blas.can_set_threads", lambda: True)
    files = []
    for cpus in (2, 1):  # as under `taskset -c 0,1` and `taskset -c 0`
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert main(select + ["--out", str(tmp_path / f"cpus{cpus}")]) == 0
        files.append({p.name: p.read_bytes() for p in (tmp_path / f"cpus{cpus}").iterdir()})
    assert files[0] == files[1]
    assert set(files[0]) == {"select_beam.trace.jsonl", "selected_beam.json"}


def test_cli_import_leaves_out_scipy_and_the_worker_pool():
    """Commands that never select do not import the selection pool's
    modules, and nothing imports scipy."""
    src = os.path.dirname(os.path.dirname(sys.modules["streetbeam"].__file__))
    code = ("import sys, streetbeam.cli; print(*(m for m in ('scipy', 'multiprocessing', "
            "'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == []
