import copy
import math
import struct

import numpy as np
import pytest

from oracles import named
from streetbeam.checkpoint import (MAGIC, VERSION, CheckpointError,
                                   load_checkpoint, save_checkpoint)
from streetbeam.pipeline import _load_model_checkpoint
from streetbeam.predictor import TINY_ARCH, Predictor, _batch_loss_grad
from streetbeam.rng import stream
from streetbeam.semantics import CONCEPT_NAMES


def test_roundtrip_arbitrary_tensors(tmp_path):
    rng = stream(0, "ckpt")
    params = {
        "aux.0.gamma": rng.normal(size=4).astype(np.float32),
        "head.0.W": rng.normal(size=(3, 5)).astype(np.float32),
        "sem.1.conv1.W": rng.normal(size=(2, 2, 3, 3)).astype(np.float32),
    }
    state = {"aux.0.running_mean": rng.normal(size=4).astype(np.float32)}
    path = tmp_path / "m.esnn"
    save_checkpoint(path, params, state)
    p2, s2 = load_checkpoint(path)
    assert set(p2) == set(params) and set(s2) == set(state)
    for k in params:
        assert np.array_equal(p2[k], params[k]) and p2[k].dtype == np.float32
    assert np.array_equal(s2["aux.0.running_mean"], state["aux.0.running_mean"])


def test_binary_layout(tmp_path):
    path = tmp_path / "m.esnn"
    save_checkpoint(path, {"w": np.array([1.5, -2.0], dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC == b"ESNN"
    assert struct.unpack("<I", raw[4:8])[0] == VERSION
    nlen = struct.unpack("<H", raw[8:10])[0]
    assert raw[10:10 + nlen] == b"w"
    off = 10 + nlen
    assert raw[off] == 1  # rank
    assert struct.unpack("<I", raw[off + 1:off + 5])[0] == 2
    vals = np.frombuffer(raw[off + 5:], dtype="<f4")
    assert np.array_equal(vals, [1.5, -2.0])


def test_model_params_roundtrip_bitwise(tmp_path):
    model = Predictor("beam", ("location", "vehicle"), map_shape=(2, 16, 32), M_bm=4,
                      arch=TINY_ARCH)
    params, state = model.init(3)
    path = tmp_path / "model.esnn"
    save_checkpoint(path, params, state)
    for got, want in zip(load_checkpoint(path), (params, state)):
        want = named(want)
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k
    p2, s2 = _load_model_checkpoint(path, model)
    loc = np.zeros((2, 3), dtype=np.float32)
    maps = np.zeros((2, 2, 16, 32), dtype=np.uint8)
    y1, _ = model.forward(params, state, loc, maps)
    y2, _ = model.forward(p2, s2, loc, maps)
    assert np.array_equal(y1, y2)


def test_loaded_checkpoint_matches_in_memory_model(tmp_path):
    """The file stores tensors sorted by name, not in the model's order;
    filled by name into the model's own trees they give the in-memory
    model's outputs and gradients bit for bit."""
    model = Predictor("beam", ("location", "vehicle", "building"), (2, 16, 32), 8,
                      TINY_ARCH)
    params, state = model.init(1)
    path = tmp_path / "model.esnn"
    save_checkpoint(path, params, state)
    in_model_order = list(named(params)) + ["state." + k for k in named(state)]
    raw = path.read_bytes()
    stored = [raw[a + 2:a + 2 + struct.unpack_from("<H", raw, a)[0]].decode()
              for a, _ in _record_headers(raw)]
    assert stored == sorted(in_model_order) != in_model_order
    loaded = _load_model_checkpoint(path, model)
    maps = stream(47, "maps").integers(len(CONCEPT_NAMES), size=(6, 2, 16, 32)).astype(np.uint8)
    loc = stream(48, "loc").normal(size=(6, 3)).astype(np.float32)
    outs = []
    for p, s in ((params, state), loaded):
        out, cache = model.forward(p, copy.deepcopy(s), loc, maps, True, [stream(0, "dropout")])
        _, dout = _batch_loss_grad(model, out, (np.arange(6) % 8)[:, None])
        outs.append((out, named(model.backward(dout, cache, p))))
    (out, grads), (out2, grads2) = outs
    assert out.tobytes() == out2.tobytes()
    assert grads.keys() == grads2.keys() == named(params).keys()
    for k in grads:
        assert grads[k].tobytes() == grads2[k].tobytes(), k


@pytest.mark.parametrize("edit", ["extra", "missing", "misshapen", "missing_state"])
def test_model_checkpoint_tensor_mismatch_fails_closed(tmp_path, edit):
    model = Predictor("blockage", ("location", "vehicle"), (2, 16, 32), 4, TINY_ARCH)
    params, state = (named(d) for d in model.init(2))
    if edit == "extra":
        params["sem.9.W"] = np.ones(3, dtype=np.float32)
    elif edit == "missing":
        del params["head.4.b"]
    elif edit == "misshapen":
        params["aux.1.W"] = params["aux.1.W"].T
    else:
        del state["sem.1.running_var"]
    path = tmp_path / "model.esnn"
    save_checkpoint(path, params, state)
    with pytest.raises(CheckpointError, match="do not match the blockage model"):
        _load_model_checkpoint(path, model)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "junk.esnn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path2 = tmp_path / "vers.esnn"
    path2.write_bytes(MAGIC + struct.pack("<I", 99))
    with pytest.raises(CheckpointError):
        load_checkpoint(path2)


def test_truncated_checkpoint_fails_closed(tmp_path):
    model = Predictor("beam", ("location", "vehicle"), map_shape=(2, 16, 32), M_bm=4,
                      arch=TINY_ARCH)
    full = tmp_path / "model.esnn"
    save_checkpoint(full, *model.init(3))
    raw = full.read_bytes()
    assert _load_model_checkpoint(full, model)
    cut = tmp_path / "cut.esnn"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(CheckpointError):
            _load_model_checkpoint(cut, model)


def test_checkpoint_decode_errors(tmp_path):
    path = tmp_path / "m.esnn"
    save_checkpoint(path, {"a": np.ones(3, dtype=np.float32), "b": np.zeros((2, 2), dtype=np.float32)})
    raw = path.read_bytes()
    # header only: no tensors
    path.write_bytes(raw[:8])
    with pytest.raises(CheckpointError, match="no tensors"):
        load_checkpoint(path)
    # cut between the two records: the format cannot tell, one tensor loads
    first_record = 2 + 1 + 1 + 4 + 3 * 4
    path.write_bytes(raw[:8 + first_record])
    assert set(load_checkpoint(path)[0]) == {"a"}
    # a name that is not utf-8
    bad = bytearray(raw)
    bad[10] = 0xFF
    path.write_bytes(bytes(bad))
    with pytest.raises(CheckpointError, match="utf-8"):
        load_checkpoint(path)
    # a dimension far beyond the file size
    huge = bytearray(raw)
    huge[12:16] = struct.pack("<I", 2**31)
    path.write_bytes(bytes(huge))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)
    # no payload, but rank 65 is above numpy's limit, or the dims beside a
    # zero one overflow the address space
    for dims in ((0,) + (1,) * 64, (0, 2**32 - 1, 2**32 - 1)):
        path.write_bytes(MAGIC + struct.pack(f"<IH1sB{len(dims)}I", VERSION, 1, b"w",
                                             len(dims), *dims))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)


def _record_headers(raw):
    """(start, end) byte range of each tensor record's header: name length,
    name, rank and dims."""
    off, out = 8, []
    while off < len(raw):
        (nlen,) = struct.unpack_from("<H", raw, off)
        rank = raw[off + 2 + nlen]
        end = off + 2 + nlen + 1 + 4 * rank
        out.append((off, end))
        off = end + 4 * math.prod(struct.unpack_from(f"<{rank}I", raw, end - 4 * rank))
    assert off == len(raw)
    return out


def test_header_bit_flips_fail_closed(tmp_path):
    """Every single-bit flip of a record header either raises CheckpointError
    or loads the model's exact tensor names and shapes: a rank above numpy's
    limit or dims that cannot form an array never escape as ValueError."""
    model = Predictor("beam", ("location", "vehicle"), map_shape=(2, 16, 32), M_bm=4,
                      arch=TINY_ARCH)
    params, state = model.init(3)
    want = [{k: v.shape for k, v in named(d).items()} for d in (params, state)]
    path = tmp_path / "model.esnn"
    save_checkpoint(path, params, state)
    raw = path.read_bytes()
    headers = _record_headers(raw)
    assert len(headers) == len(want[0]) + len(want[1])
    flipped = tmp_path / "flipped.esnn"
    for start, end in headers:
        for i in range(start, end):
            for bit in range(8):
                bad = bytearray(raw)
                bad[i] ^= 1 << bit
                flipped.write_bytes(bytes(bad))
                try:
                    load_checkpoint(flipped)
                    loaded = _load_model_checkpoint(flipped, model)
                except CheckpointError:
                    continue
                assert [{k: v.shape for k, v in named(d).items()} for d in loaded] == want

