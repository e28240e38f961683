import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from streetbeam.cli import _load_config, main
from streetbeam.dataset import read_container
from streetbeam.scene import to_plain

TINY_ARCH_JSON = {"aux_widths": [16, 8],
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
                       ({"scene": {"speed_range_mps": [-2.0, 8.0]}}, "speed_range_mps"),
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
                       # a center beyond the end of the 200 m street
                       ({"scene": {"initial_vehicles": [["car", [250.0, 1.75], 2, 10.0]]}},
                        "center x must lie in [0, 200.0]"),
                       # street geometry must be finite: positive lengths, and
                       # non-negative sidewalk and setback
                       ({"scene": {"slot_duration_s": float("inf")}}, "slot_duration_s"),
                       ({"scene": {"street_length_m": float("nan")}}, "street_length_m"),
                       ({"scene": {"lane_width_m": 0.0}}, "lane_width_m"),
                       ({"scene": {"building_height_m": -float("inf")}}, "building_height_m"),
                       ({"scene": {"sidewalk_width_m": -1.0}}, "sidewalk_width_m"),
                       ({"scene": {"building_setback_m": float("inf")}}, "building_setback_m"),
                       ({"scene": {"street_length_m": None}},
                        "street_length_m must be a finite number"),
                       # the BS position comes only from scene.bs_position
                       ({"raytrace": {"bs_antenna_height": 2.47}},
                        "unknown config key raytrace.bs_antenna_height"),
                       # ray-trace values that divided by zero, raised a
                       # TypeError or gave data from a meaningless channel
                       ({"raytrace": {"f_c": 0}}, "f_c must be > 0"),
                       ({"raytrace": {"f_c": -28e9}}, "f_c must be > 0"),
                       ({"raytrace": {"d": 0}}, "d must be > 0"),
                       ({"raytrace": {"N_t": 2.5}}, "N_t must be an integer"),
                       ({"raytrace": {"K": 0}}, "K must be >= 1"),
                       ({"raytrace": {"max_paths": 1.5}}, "max_paths must be an integer"),
                       ({"raytrace": {"reflection_coeff": [0.5, "x"]}},
                        "raytrace.reflection_coeff"),
                       ({"raytrace": {"reflection_coeff": [1.5, 0.0]}}, "reflection_coeff"),
                       ({"raytrace": {"subcarrier_spacing": -1e6}}, "subcarrier_spacing"),
                       ({"raytrace": {"sigma2": float("nan")}}, "sigma2 must be a finite number"),
                       ({"raytrace": {"P_k": float("inf")}}, "P_k must be a finite number"),
                       # a negative horizon would read LOS from before the sample
                       ({"horizons": [-3, 1]}, "horizons"),
                       ({"horizons": [1, 2.5]}, "horizons"),
                       ({"horizons": [True]}, "horizons"),
                       # every field is held to its annotation: integers,
                       # finite numbers and booleans are what they say
                       ({"M_bm": 2.5}, "M_bm must be an integer"),
                       ({"M_bm": True}, "M_bm must be an integer"),
                       ({"M_bm": "16"}, "M_bm must be an integer"),
                       ({"M_bm": 0}, "M_bm must be >= 1"),
                       ({"scene": {"frame_count": 30.5}}, "frame_count must be an integer"),
                       ({"scene": {"lane_count": 2.5}}, "lane_count must be an integer"),
                       ({"scene": {"seed": 1.5}}, "seed must be an integer"),
                       ({"store_channels": "no"}, "store_channels must be true or false"),
                       ({"arch": {"beam_hidden": 2.5}}, "beam_hidden must be an integer"),
                       ({"arch": {"dropout": "x"}}, "dropout must be a finite number"),
                       ({"arch": {"beam_conv": [[4, 0]]}}, "beam_conv"),
                       ({"arch": {"bl_conv": []}}, "bl_conv"),
                       ({"arch": {"dropout": 1.0}}, "dropout must lie in [0, 1)"),
                       # sizes are bounded above too, so a typo fails before
                       # anything is allocated
                       ({"resolution": [100000, 100000]}, "resolution must be <= 2048"),
                       ({"arch": {"aux_widths": [100000000, 1]}}, "aux_widths must be <= 4096"),
                       ({"arch": {"input_hw": [16, 32]}}, "unknown config key arch.input_hw"),
                       ({"arch": {"beam_res": [[8, 2], [5000, 1]]}}, "beam_res must be <= 4096")):
        bad.write_text(json.dumps(raw))
        assert main(["generate", "--config", str(bad), "--out", out]) == 1, raw
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, (raw, err)
        assert err.count("\n") == 1 and "Traceback" not in err, err
    bad.write_text(json.dumps({"arch": {"aux_widths": [100000000, 1]}}))
    assert main(["train", "--config", str(bad), "--dataset", dataset, "--task", "beam",
                 "--epochs", "1", "--out", out, "--features", "location,vehicle"]) == 1
    assert "aux_widths must be <= 4096" in capsys.readouterr().err
    for raw, named in (('{"scene": {"initial_vehicles": [["car", [50.0, 1.75], 1, NaN]]}}',
                        "finite"),
                       ('{"scene": {"speed_range_mps": [8.0, Infinity]}}', "finite"),
                       # a truncated config names its file
                       ('{"scene": {"frame_count": ', f"error: {bad}: invalid JSON: "
                        "Expecting value: line 1 column 27 (char 26)\n")):
        bad.write_text(raw)
        assert main(["generate", "--config", str(bad), "--out", out]) == 1
        assert named in capsys.readouterr().err
    # a negative seed is named before any work, in place of numpy's complaint
    for cmd in (["generate", "--config", str(cfg), "--seed", "-1"],
                ["train", "--config", str(cfg), "--dataset", dataset, "--task", "beam",
                 "--epochs", "1", "--features", "location", "--seed", "-1"],
                ["select", "--config", str(cfg), "--dataset", dataset, "--task", "beam",
                 "--epochs", "1", "--vmax", "2", "--seed", "-5"]):
        assert main(cmd + ["--out", str(tmp_path / "neg")]) == 1, cmd
        assert capsys.readouterr().err == "error: seed must be >= 0\n", cmd
    assert not (tmp_path / "neg").exists()


NO_LOCATION = "pinned features must include location, got ['sky']"


@pytest.mark.parametrize("args, named", [
    (["--pin-feature", "sky", "--vmax", "2"], NO_LOCATION),
    # a search that stops at once would write a selection train rejects
    (["--pin-feature", "sky", "--vmax", "1"], NO_LOCATION),
    # or one larger than v_max
    (["--vmax", "0"], "v_max must be >= the 1 pinned features, got 0"),
    (["--vmax", "-1"], "v_max must be >= the 1 pinned features, got -1"),
], ids=["pin-sky-vmax2", "pin-sky-vmax1", "vmax0", "vmax-negative"])
def test_select_without_a_valid_selection_exits_1(tmp_path, capsys, monkeypatch, args, named):
    """Select inputs that admit no valid selection fail before any worker
    is forked or any file is written."""
    cfg = write_config(tmp_path, frames=30)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()

    def no_evaluator(*_, **__):
        raise AssertionError("the evaluator was built")
    monkeypatch.setattr("streetbeam.pipeline.training_evaluator", no_evaluator)
    assert main(["select", "--config", str(cfg), "--dataset", str(out / "dataset"),
                 "--task", "beam", "--epochs", "1", "--out", str(out)] + args) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert sorted(p.name for p in out.iterdir()) == ["dataset"]


def test_readme_config_block_loads(tmp_path):
    """The config documented in README.md loads through the run-config
    loader with each of its values, so the documented schema is the code's."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        block = fh.read().split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.json"
    path.write_text(block)
    plain = to_plain(_load_config(str(path)))
    for key, value in json.loads(block).items():
        if isinstance(value, dict):
            assert {k: plain[key][k] for k in value} == value, key
        else:
            assert plain[key] == value, key


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
    # a changed value that leaves the manifest valid JSON
    raw = json.dumps(good, indent=1, sort_keys=True).encode() + b"\n"
    assert b'"frame_count": 30' in raw
    manifest.write_bytes(raw.replace(b'"frame_count": 30', b'"frame_count": 31'))
    assert main(["eval", "--dataset", dataset, "--task", "beam", "--out", out]) == 2
    assert "manifest does not match its checksum" in capsys.readouterr().err


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


def test_eval_on_another_map_shape_exits_1(tmp_path, capsys):
    """A checkpoint scores only datasets of the map shape it was trained on."""
    cfg = write_config(tmp_path, frames=30)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", str(out / "dataset"),
                 "--task", "beam", "--epochs", "1", "--out", str(out),
                 "--features", "location,vehicle"]) == 0
    assert json.loads((out / "beam.meta.json").read_text())["map_shape"] == [2, 16, 32]
    raw = json.loads(cfg.read_text())
    raw["resolution"] = [32, 64]
    cfg.write_text(json.dumps(raw))
    big = tmp_path / "big"
    assert main(["generate", "--config", str(cfg), "--out", str(big)]) == 0
    capsys.readouterr()
    assert main(["eval", "--dataset", str(big / "dataset"), "--task", "beam",
                 "--g-list", "1,2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: checkpoint map shape [2, 16, 32] differs from the dataset's "
                   "map shape [2, 32, 64]\n"), err
    assert not (out / "eval_beam.json").exists()


def test_json_artifact_without_a_key_exits_1(tmp_path, capsys):
    """A meta file, fragment or selection that lacks a key its reader needs
    fails closed with one error line naming the file and the key."""
    cfg = write_config(tmp_path, frames=30)
    run = tmp_path / "run"
    dataset = str(run / "dataset")
    train = ["train", "--config", str(cfg), "--dataset", dataset, "--task", "beam",
             "--epochs", "1", "--out", str(run)]
    evaluate = ["eval", "--dataset", dataset, "--task", "beam", "--g-list", "1,2",
                "--out", str(run)]
    assert main(["generate", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(train + ["--features", "location,vehicle"]) == 0
    assert main(evaluate) == 0
    (run / "selected_beam.json").write_text(json.dumps({"features": ["location"]}))

    def without(name, key):
        return {k: v for k, v in json.loads((run / name).read_text()).items() if k != key}

    # a meta file written while the arch carried the map size as input_hw
    meta = without("beam.meta.json", "map_shape")
    pre_map_shape = {**meta, "arch": {"input_hw": [16, 32], **meta["arch"]}}
    for name, key, argv, broken in (
            ("beam.meta.json", "features", evaluate, without("beam.meta.json", "features")),
            ("beam.meta.json", "map_shape", evaluate, pre_map_shape),
            ("eval_beam.json", "topg_accuracy", ["report", "--out", str(run)],
             without("eval_beam.json", "topg_accuracy")),
            ("selected_beam.json", "features", train, {})):
        path = run / name
        good = path.read_text()
        path.write_text(json.dumps(broken))
        capsys.readouterr()
        assert main(argv) == 1, (name, key)
        err = capsys.readouterr().err
        assert err == f"error: {path}: missing key '{key}'\n", err
        path.write_text(good)
    assert not (run / "report.json").exists()


def test_json_artifact_with_a_bad_value_exits_1(tmp_path, capsys):
    """A selection naming an unknown feature or holding no feature list, a
    meta file whose list keys hold no list, a beam fragment whose metric
    tables lack a G of its g_list, and a truncated or non-UTF-8 file fail
    closed with one error line naming the file and the value."""
    cfg = write_config(tmp_path, frames=30)
    run = tmp_path / "run"
    dataset = str(run / "dataset")
    train = ["train", "--config", str(cfg), "--dataset", dataset, "--task", "beam",
             "--epochs", "1", "--out", str(run)]
    evaluate = ["eval", "--dataset", dataset, "--task", "beam", "--g-list", "1,2",
                "--out", str(run)]
    report = ["report", "--out", str(run)]
    assert main(["generate", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(train + ["--features", "location,vehicle"]) == 0
    assert main(evaluate) == 0
    (run / "selected_beam.json").write_text(json.dumps({"features": ["location"]}))

    def edited(name, key, value):
        return {**json.loads((run / name).read_text()), key: value}

    def dropped_g(metric):
        frag = json.loads((run / "eval_beam.json").read_text())
        return {**frag, metric: {"1": frag[metric]["1"]}}

    for name, argv, broken, message in (
            ("selected_beam.json", train, {"features": ["location", "warpdrive"]},
             "unknown features: ['warpdrive']"),
            ("selected_beam.json", train, {"features": "location"},
             "'features' must be a list, got 'location'"),
            ("selected_beam.json", report, {"features": "location"},
             "'features' must be a list, got 'location'"),
            ("selected_beam.json", train, b'{"features": ',
             "invalid JSON: Expecting value: line 1 column 14 (char 13)"),
            ("beam.meta.json", evaluate, b'{\n "M_bm": 8,\n "arch": {',
             "invalid JSON: Expecting property name enclosed in double quotes: "
             "line 3 column 11 (char 24)"),
            ("beam.meta.json", evaluate, edited("beam.meta.json", "split", 0.7),
             "'split' must be a list, got 0.7"),
            ("beam.meta.json", evaluate, edited("beam.meta.json", "map_shape", "2x16x32"),
             "'map_shape' must be a list, got '2x16x32'"),
            ("beam.meta.json", evaluate, edited("beam.meta.json", "features", "vehicle"),
             "'features' must be a list, got 'vehicle'"),
            ("eval_beam.json", report, dropped_g("topg_accuracy"),
             "missing key topg_accuracy['2']"),
            ("eval_beam.json", report, dropped_g("trr"), "missing key trr['2']"),
            ("eval_beam.json", report, edited("eval_beam.json", "g_list", 2),
             "'g_list' must be a list, got 2"),
            ("eval_beam.json", report, b'\xff{}',
             "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
             "invalid start byte")):
        path = run / name
        good = path.read_text()
        path.write_bytes(broken if isinstance(broken, bytes) else json.dumps(broken).encode())
        capsys.readouterr()
        assert main(argv) == 1, (name, message)
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n", err
        path.write_text(good)
    assert not (run / "report.json").exists()


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


def test_training_outputs_do_not_depend_on_the_allocator_setting(tmp_path):
    """A model trained in a fresh process with glibc's default malloc
    thresholds (``blas.keep_freed_heap`` replaced by a no-op) writes the
    checkpoint and meta file of one trained with the freed heap kept: the
    setting moves arrays from mmapped pages into the heap, which changes
    their addresses, never the arithmetic. At 48x96 the im2col columns
    outgrow glibc's default 128 KiB mmap threshold."""
    cfg = write_config(tmp_path)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "resolution": [48, 96]}))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    src = os.path.dirname(os.path.dirname(sys.modules["streetbeam"].__file__))
    code = ("import sys\nfrom streetbeam import blas, cli\n"
            "if sys.argv[1] == 'default':\n    blas.keep_freed_heap = lambda: False\n"
            "print(cli.main(sys.argv[2:]), blas.keep_freed_heap())")
    outputs = {}
    for malloc in ("kept", "default"):
        out = tmp_path / malloc
        train = ["train", "--config", str(cfg), "--dataset", str(tmp_path / "run" / "dataset"),
                 "--task", "beam", "--features", "location,vehicle", "--epochs", "3",
                 "--out", str(out)]
        run = subprocess.run([sys.executable, "-c", code, malloc, *train], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        kept = platform.libc_ver()[0] == "glibc" and malloc == "kept"
        assert run.stdout.split()[-2:] == ["0", str(kept)], run.stdout
        outputs[malloc] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(outputs["kept"]) == {"beam.esnn", "beam.meta.json"}
    assert outputs["kept"] == outputs["default"]
