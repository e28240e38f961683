import copy
import json

import numpy as np
import pytest

import streetbeam.rng as rng_mod
from oracles import gradient_check, named
from streetbeam.nn import Conv2d, Sequential
from streetbeam.predictor import (TINY_ARCH, ArchConfig, Predictor,
                                  SampleSet, TrainConfig, _batch_loss_grad,
                                  accuracy, log_softmax, mask_channels,
                                  predict, sigmoid, split_indices,
                                  stack_size, task_labels, train)
from streetbeam.scene import from_plain, to_plain
from streetbeam.semantics import CATALOG


def planted_sampleset(n=80, hw=(16, 32), M_bm=4, seed=0):
    """Beam label = quadrant of a vehicle bar planted in camera 0's map."""
    rng = rng_mod.stream(seed, "planted")
    veh = CATALOG.index("vehicle")
    maps = np.zeros((n, 2, *hw), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.uint16)
    locs = rng.normal(size=(n, 3)).astype(np.float32)
    for i in range(n):
        q = int(rng.integers(M_bm))
        w = hw[1] // M_bm
        maps[i, 0, :, q * w:(q + 1) * w] = veh
        labels[i] = q
    blockage = (labels % 2).astype(np.uint8)[:, None]
    return SampleSet(label_maps=maps, locations=locs, rates=np.eye(M_bm)[labels],
                     blockage=blockage, frame_ids=np.arange(n, dtype=np.uint32),
                     horizons=(1,))


def test_build_input_counting_and_order():
    maps = rng_mod.stream(0, "maps").integers(0, 20, size=(3, 2, 16, 32)).astype(np.uint8)
    assert mask_channels(maps, ("location",)).shape == (3, 0, 16, 32)
    assert mask_channels(maps, ("location", "vehicle")).shape == (3, 2, 16, 32)
    # canonical ordering: insertion order must not matter; features major,
    # cameras minor
    m1 = mask_channels(maps, ("location", "vehicle", "building"))
    m2 = mask_channels(maps, ("building", "location", "vehicle"))
    assert np.array_equal(m1, m2)
    veh = CATALOG.index("vehicle")
    assert np.array_equal(m1[:, 2], (maps[:, 0] == veh).astype(np.float32))
    assert np.array_equal(m1[:, 3], (maps[:, 1] == veh).astype(np.float32))
    with pytest.raises(ValueError):
        mask_channels(maps, ("vehicle",))  # Location is mandatory


TINY_MAPS = (2, 16, 32)  # (n_cams, H, W) of the maps the TINY_ARCH tests read


def random_maps(rng, shape):
    """uint8 label maps over the whole catalog."""
    return rng.integers(0, CATALOG.M_con, size=shape).astype(np.uint8)


def test_forward_eval_deterministic_and_shapes():
    model = Predictor("beam", ("location", "vehicle"), TINY_MAPS, M_bm=4, arch=TINY_ARCH)
    params, state = model.init(0)
    rng = rng_mod.stream(1, "in")
    loc = rng.normal(size=(3, 3)).astype(np.float32)
    maps = random_maps(rng, (3, 2, 16, 32))
    y1, _ = model.forward(params, state, loc, maps)
    y2, _ = model.forward(params, state, loc, maps)
    assert y1.shape == (3, 4)
    assert np.array_equal(y1, y2)  # dropout off in evaluation mode
    # the network is built for a canonical set: insertion order does not matter
    swapped = Predictor("beam", ("vehicle", "location"), TINY_MAPS, M_bm=4, arch=TINY_ARCH)
    assert swapped.features == model.features == ("location", "vehicle")
    assert swapped.forward(params, state, loc, maps)[0].tobytes() == y1.tobytes()
    with pytest.raises(ValueError, match="location"):
        Predictor("beam", ("vehicle",), TINY_MAPS, M_bm=4, arch=TINY_ARCH)

    bl = Predictor("blockage", ("location", "vehicle"), TINY_MAPS, M_bm=4, arch=TINY_ARCH)
    bp, bs = bl.init(0)
    logit, _ = bl.forward(bp, bs, loc, maps)
    assert logit.shape == (3, 1)
    prob = sigmoid(logit[:, 0])
    assert prob.shape == (3,)
    assert ((prob > 0) & (prob < 1)).all()


def test_location_only_network():
    model = Predictor("beam", ("location",), TINY_MAPS, M_bm=4, arch=TINY_ARCH)
    params, state = model.init(0)
    loc = np.zeros((2, 3), dtype=np.float32)
    maps = np.zeros((2, 2, 16, 32), dtype=np.uint8)
    y, _ = model.forward(params, state, loc, maps)
    assert y.shape == (2, 4)
    assert not any(k.startswith("sem.") for k in named(params))


# Tensor names and shapes of Predictor(task, features, TINY_MAPS, M_bm=8, TINY_ARCH):
# checkpoints store tensors by these names, so any change here breaks old
# .esnn files. (name, shape) over params then state.
_AUX_TENSORS = [
    ("aux.0.beta", (3,)), ("aux.0.gamma", (3,)), ("aux.1.W", (16, 3)), ("aux.1.b", (16,)),
    ("aux.2.beta", (16,)), ("aux.2.gamma", (16,)), ("aux.4.W", (8, 16)), ("aux.4.b", (8,)),
    ("aux.5.beta", (8,)), ("aux.5.gamma", (8,)),
]
_AUX_STATE = [
    ("aux.0.running_mean", (3,)), ("aux.0.running_var", (3,)),
    ("aux.2.running_mean", (16,)), ("aux.2.running_var", (16,)),
    ("aux.5.running_mean", (8,)), ("aux.5.running_var", (8,)),
]
_SEM_TENSORS = [
    ("sem.0.W", (4, 2, 3, 3)), ("sem.0.b", (4,)), ("sem.1.beta", (4,)), ("sem.1.gamma", (4,)),
    ("sem.4.bn1.beta", (4,)), ("sem.4.bn1.gamma", (4,)), ("sem.4.bn2.beta", (4,)),
    ("sem.4.bn2.gamma", (4,)), ("sem.4.conv1.W", (4, 4, 3, 3)), ("sem.4.conv1.b", (4,)),
    ("sem.4.conv2.W", (4, 4, 3, 3)), ("sem.4.conv2.b", (4,)),
]
_SEM_STATE = [
    ("sem.1.running_mean", (4,)), ("sem.1.running_var", (4,)),
    ("sem.4.bn1.running_mean", (4,)), ("sem.4.bn1.running_var", (4,)),
    ("sem.4.bn2.running_mean", (4,)), ("sem.4.bn2.running_var", (4,)),
]


@pytest.mark.parametrize("task,features,head,head_state,sem,sem_state", [
    ("beam", ("location", "vehicle"),
     [("head.0.W", (16, 136)), ("head.0.b", (16,)), ("head.1.beta", (16,)),
      ("head.1.gamma", (16,)), ("head.4.W", (8, 16)), ("head.4.b", (8,))],
     [("head.1.running_mean", (16,)), ("head.1.running_var", (16,))],
     _SEM_TENSORS, _SEM_STATE),
    ("blockage", ("location", "vehicle"),
     [("head.0.W", (8, 136)), ("head.0.b", (8,)), ("head.1.beta", (8,)),
      ("head.1.gamma", (8,)), ("head.4.W", (1, 8)), ("head.4.b", (1,))],
     [("head.1.running_mean", (8,)), ("head.1.running_var", (8,))],
     _SEM_TENSORS, _SEM_STATE),
    ("beam", ("location",),
     [("head.0.W", (16, 8)), ("head.0.b", (16,)), ("head.1.beta", (16,)),
      ("head.1.gamma", (16,)), ("head.4.W", (8, 16)), ("head.4.b", (8,))],
     [("head.1.running_mean", (16,)), ("head.1.running_var", (16,))],
     [], []),
], ids=["beam", "blockage", "beam-location-only"])
def test_predictor_tensor_names_pinned(task, features, head, head_state, sem, sem_state):
    params, state = Predictor(task, features, TINY_MAPS, 8, TINY_ARCH).init(0)
    assert (sorted((k, v.shape) for k, v in named(params).items())
            == sorted(_AUX_TENSORS + head + sem))
    assert (sorted((k, v.shape) for k, v in named(state).items())
            == sorted(_AUX_STATE + head_state + sem_state))


@pytest.mark.parametrize("arch", [ArchConfig(), TINY_ARCH])
def test_arch_meta_json_round_trip(arch):
    text = json.dumps(to_plain(arch), sort_keys=True)
    assert from_plain(ArchConfig, json.loads(text)) == arch


def test_arch_meta_json_layout():
    # the "arch" block of *.meta.json files; the map size is their "map_shape"
    assert to_plain(TINY_ARCH) == {
        "aux_widths": [16, 8], "beam_conv": [[4, 2]], "beam_res": [[4, 1]],
        "beam_hidden": 16, "bl_conv": [[4, 2]], "bl_res": [[4, 1]], "bl_hidden": 8,
        "dropout": 0.1}


def test_sigmoid_and_log_softmax():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(50.0) == pytest.approx(1.0)
    assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-20)
    z = np.array([800.0, -800.0, 0.0])
    assert np.isfinite(sigmoid(z)).all()
    logits = rng_mod.stream(2, "l").normal(size=(5, 7))
    ls = log_softmax(logits)
    assert np.allclose(np.exp(ls).sum(axis=1), 1.0, atol=1e-6)


def _loss(task, logits, labels):
    """Training's batch loss of float64 network outputs."""
    model = Predictor(task, ("location",), TINY_MAPS, M_bm=logits.shape[1], arch=TINY_ARCH)
    return float(_batch_loss_grad(model, np.asarray(logits, dtype=float),
                                  np.asarray(labels, dtype=np.int64)[:, None])[0][0])


def test_beam_loss_oracle():
    m = 64
    uniform = np.zeros((2, m))
    assert _loss("beam", uniform, [3, 40]) == pytest.approx(np.log(64), rel=1e-12)
    peaked = np.zeros((1, m))
    peaked[0, 5] = 200.0
    assert _loss("beam", peaked, [5]) == pytest.approx(0.0, abs=1e-12)
    rng = rng_mod.stream(3, "bl")
    logits = rng.normal(size=(1, 8))
    oracle = -(logits[0, 2] - np.log(np.sum(np.exp(logits))))
    assert _loss("beam", logits, [2]) == pytest.approx(oracle, rel=1e-12)
    huge = np.zeros((1, m))
    huge[0, 0] = 1e3
    assert _loss("beam", huge, [1]) == pytest.approx(1e3, rel=1e-12)  # finite


def test_blockage_loss_oracle():
    assert _loss("blockage", np.zeros((2, 1)), [0, 1]) == pytest.approx(np.log(2), rel=1e-12)
    for z, y in ((1e3, 1), (-1e3, 0)):
        assert _loss("blockage", np.array([[z]]), [y]) == pytest.approx(0.0, abs=1e-12)
    for z, y in ((1e3, 0), (-1e3, 1)):
        loss = _loss("blockage", np.array([[z]]), [y])
        assert np.isfinite(loss) and loss == pytest.approx(1e3, rel=1e-12)
    p = 0.73
    z = np.log(p / (1 - p))
    assert _loss("blockage", np.array([[z]]), [0]) == pytest.approx(-np.log(1 - p), rel=1e-12)


def test_split_hygiene():
    frame_ids = np.repeat(np.arange(50), 2)  # two samples per frame
    tr, va, te = split_indices(frame_ids, (0.7, 0.15, 0.15), seed=4)
    all_idx = np.concatenate([tr, va, te])
    assert sorted(all_idx) == list(range(100))  # disjoint cover
    # no frame id straddles two splits
    sets = [set(frame_ids[g]) for g in (tr, va, te)]
    assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])
    with pytest.raises(ValueError):
        split_indices(np.array([0, 0]), (0.0, 0.5, 0.5), seed=0)


def test_gradient_check_beam_and_blockage():
    rng = rng_mod.stream(5, "gc")
    loc = rng.normal(size=(2, 3))
    feats = ("location", "vehicle", "building")
    # one camera's random label maps over the two selected concepts: each
    # pixel is in one mask, so no window is all zeros, which with the zero
    # initial bias would put ReLU inputs exactly on the kink
    maps = np.array([CATALOG.index("vehicle"), CATALOG.index("building")],
                    dtype=np.uint8)[rng.integers(2, size=(2, 1, 16, 32))]
    for task, label in (("beam", [1, 3]), ("blockage", [0, 1])):
        model = Predictor(task, feats, (1, 16, 32), M_bm=4, arch=TINY_ARCH)
        params, state = model.init(7)
        err = gradient_check(model, params, state, loc, maps, label,
                             n_samples=120, seed=0)
        assert err < 1e-4, f"{task}: max relative gradient error {err}"


@pytest.mark.parametrize("arch,hw", [(TINY_ARCH, (16, 32)), (ArchConfig(), (80, 160))])
def test_first_conv_skips_only_the_discarded_input_gradient(arch, hw):
    # the semantic branch reading label maps against a twin whose first
    # layer is a plain Conv2d of the float (C, H, W, N) mask batch that
    # computes its input gradient: same output, same parameter gradients
    feats = ("location", "vehicle")
    model = Predictor("beam", feats, (2, *hw), M_bm=8, arch=arch)
    sem = model.children["sem"]
    first = sem.children["0"]
    assert first.input_grad is False
    twin = Sequential([Conv2d(first.c_in, first.c_out, first.k, first.stride, first.pad)]
                      + list(sem.children.values())[1:])
    params, state = model.init(4)
    params, state = params["sem"], state["sem"]
    rng = rng_mod.stream(6, "skip")
    maps = random_maps(rng, (6, 2, *hw))
    masks = np.ascontiguousarray(mask_channels(maps, feats).transpose(1, 2, 3, 0))
    outs, grads = [], []
    for net, x in ((sem, maps), (twin, masks)):
        out, cache = net.forward(x, params, copy.deepcopy(state), True, None)
        dx, g = net.backward(rng_mod.stream(7, "dy").normal(size=out.shape).astype(out.dtype),
                             cache, params)
        outs.append(out)
        grads.append(named(g))
    assert dx.shape == masks.shape  # the twin's input gradient, which the branch skips
    assert outs[0].tobytes() == outs[1].tobytes()
    assert grads[0].keys() == grads[1].keys() == named(params).keys()
    for key in grads[0]:
        assert grads[0][key].tobytes() == grads[1][key].tobytes(), key


def test_train_deterministic_and_learns_planted_signal():
    ds = planted_sampleset(n=120, M_bm=4)
    cfg = TrainConfig(epochs=12, seed=3, batch_size=32, arch=TINY_ARCH,
                      learning_rate=3e-3)
    res1 = train(ds, ("location", "vehicle"), "beam", cfg)
    res2 = train(ds, ("location", "vehicle"), "beam", cfg)
    p1, p2 = named(res1.params), named(res2.params)
    assert p1.keys() == p2.keys()
    for k in p1:
        assert np.array_equal(p1[k], p2[k]), k
    # one mean training loss per epoch, reproducible, falling as it learns
    assert len(res1.train_loss) == cfg.epochs and res1.train_loss == res2.train_loss
    assert res1.train_loss[-1] < res1.train_loss[0]
    # the beam label is a deterministic function of the vehicle mask
    assert res1.val_accuracy > 0.9
    # train/val/test disjoint cover
    tr, va, te = res1.split
    assert sorted(np.concatenate([tr, va, te])) == list(range(len(ds)))


def test_train_blockage_and_accuracy_helpers():
    ds = planted_sampleset(n=120, M_bm=4)
    cfg = TrainConfig(epochs=12, seed=1, batch_size=32, arch=TINY_ARCH,
                      learning_rate=3e-3)
    res = train(ds, ("location", "vehicle"), "blockage", cfg, horizon=1)
    assert res.val_accuracy > 0.9  # blockage = parity of the planted bar
    assert res.model.features == ("location", "vehicle")
    out = predict(res.model, res.params, res.state, ds, res.split[1])
    assert out.shape == (len(res.split[1]), 1)
    acc = accuracy(res.model, res.params, res.state, ds, res.split[1],
                   task_labels(ds, "blockage", 1)[1])
    assert acc == pytest.approx(res.val_accuracy)


def test_task_labels_and_horizons():
    ds = planted_sampleset(n=20, M_bm=4)
    ds.horizons, ds.blockage = (1, 6), np.hstack([ds.blockage, 1 - ds.blockage])
    horizon, labels = task_labels(ds, "beam", horizon=6)  # kept as given
    assert horizon == 6 and labels.tolist() == ds.rates.argmax(axis=1).tolist()
    assert labels.dtype == np.int64
    for given, want in ((None, 1), (1, 1), (6, 6)):
        horizon, labels = task_labels(ds, "blockage", given)
        assert horizon == want
        assert labels.tolist() == ds.blockage[:, ds.horizons.index(want)].tolist()
    with pytest.raises(ValueError, match=r"horizon 7 .* dataset's horizons \[1, 6\]"):
        task_labels(ds, "blockage", 7)
    ds.horizons, ds.blockage = (), ds.blockage[:, :0]
    with pytest.raises(ValueError, match=r"horizons \[\]"):
        task_labels(ds, "blockage")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(split=(0.5, 0.2, 0.2))
    # a one-sample batch is skipped, so it would train nothing
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=float("nan"))
    with pytest.raises(ValueError):
        train(planted_sampleset(n=10), ("vehicle",), "beam",
              TrainConfig(epochs=1, arch=TINY_ARCH))


def test_desk_scale_arch_shapes():
    # the default architecture accepts 80x160 inputs end to end
    arch = ArchConfig()
    model = Predictor("beam", ("location", "vehicle", "sky"), (2, 80, 160), M_bm=16,
                      arch=arch)
    params, state = model.init(0)
    loc = np.zeros((2, 3), dtype=np.float32)
    maps = np.zeros((2, 2, 80, 160), dtype=np.uint8)
    y, _ = model.forward(params, state, loc, maps)
    assert y.shape == (2, 16)


def test_stack_size_keeps_the_default_arch_to_one_model():
    """A training stack holds one model of the default arch's 160x320 maps
    at the default batch, so a selection worker's memory does not grow
    with stacking, and several of a TINY_ARCH search at 16x32."""
    assert TrainConfig().batch_size == 128
    assert stack_size((2, 160, 320), TrainConfig().batch_size) == 1
    assert stack_size((2, 16, 32), 32) > 1
