import hashlib
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streetbeam import dataset, lanes
from streetbeam.channel import RayTraceConfig
from streetbeam.dataset import ContainerError, read_container, write_container
from streetbeam.pipeline import RunConfig, cmd_generate
from streetbeam.predictor import SampleSet
from streetbeam.rng import stream
from streetbeam.scene import SceneConfig, from_plain


def small_sampleset(n=6, with_channels=True):
    rng = stream(0, "ds")
    channels = None
    if with_channels:
        channels = (rng.normal(size=(n, 4, 8)) + 1j * rng.normal(size=(n, 4, 8))).astype(np.complex64).astype(np.complex128)
    return SampleSet(
        label_maps=rng.integers(0, 20, size=(n, 2, 16, 32)).astype(np.uint8),
        locations=rng.normal(size=(n, 3)).astype(np.float32),
        rates=np.eye(8)[rng.integers(0, 8, size=n)],
        blockage=rng.integers(0, 2, size=(n, 2)).astype(np.uint8),
        frame_ids=np.arange(n, dtype=np.uint32),
        horizons=(1, 3),
        channels=channels,
    )


def test_roundtrip_bitwise(tmp_path):
    samples = small_sampleset()
    scene = SceneConfig(frame_count=10)
    rt = RayTraceConfig(N_t=8, K=4)
    path = tmp_path / "ds"
    manifest = write_container(path, samples, scene, rt)
    loaded, mf2 = read_container(path)
    assert mf2 == manifest
    assert np.array_equal(loaded.label_maps, samples.label_maps)
    assert np.array_equal(loaded.locations, samples.locations)
    assert loaded.rates.tobytes() == samples.rates.tobytes()
    assert np.array_equal(loaded.beam_labels, samples.beam_labels)
    assert np.array_equal(loaded.blockage, samples.blockage)
    assert np.array_equal(loaded.frame_ids, samples.frame_ids)
    # channels round-trip bitwise at 32-bit precision (stored interleaved f32)
    assert np.array_equal(loaded.channels, samples.channels.astype(np.complex64))
    assert loaded.horizons == (1, 3) and loaded.M_bm == 8
    assert manifest["resolution"] == [16, 32]
    assert from_plain(RayTraceConfig, manifest["raytrace_config"]) == rt
    assert SceneConfig.from_dict(manifest["scene_config"]) == scene


F32_MAX = float(np.finfo(np.float32).max)


@st.composite
def halfway(draw):
    """A float64 exactly halfway between two multiples of a float32 step,
    subnormal steps and the step above the largest float32 included: the
    cast rounds it half to even."""
    m = draw(st.integers(0, 2**24 - 1))
    e = draw(st.integers(-149, 104))
    return draw(st.sampled_from([1.0, -1.0])) * math.ldexp(2 * m + 1, e - 1)


PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]),
    st.floats(width=32),                                  # float32 subnormals included
    st.floats(-2.0**-126, 2.0**-126),                     # round into the subnormals
    halfway(),
    st.floats(min_value=F32_MAX) | st.floats(max_value=-F32_MAX),  # to +-max or +-inf
    st.floats(),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dims=st.tuples(st.integers(1, 3), st.integers(1, 4)), data=st.data())
def test_channel_blob_bytes_match_interleave(dims, data):
    """The channel blob of a complex128 column, of its complex64 cast and
    the interleave of its parts as f32 are the same bytes."""
    K, N_t = dims
    n = K * N_t
    re, im = (np.array(data.draw(st.lists(PARTS, min_size=n, max_size=n))).reshape(1, K, N_t)
              for _ in range(2))
    ch = np.empty(re.shape, dtype=np.complex128)  # re + 1j * im would turn inf into nan
    ch.real, ch.imag = re, im
    base = small_sampleset(n=1)
    blobs = []
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore"):
        for i, column in enumerate((ch, ch.astype(np.complex64))):
            write_container(Path(tmp) / str(i), replace(base, channels=column),
                            SceneConfig(), RayTraceConfig(N_t=N_t, K=K))
            blobs.append((Path(tmp) / str(i) / "channels.bin").read_bytes())
        inter = np.stack([ch.real, ch.imag], -1).astype("<f4")
    assert blobs[0] == blobs[1] == inter.tobytes()


def test_generate_write_read_keeps_complex64_views(tmp_path):
    """The generated channel column is the one read back, bit for bit, and
    the reader returns views of the blobs it hashed, not copies."""
    scene = SceneConfig(frame_count=25, seed=1, spawn_rate=0.5,
                        initial_vehicles=(("car", (50.0, 1.75), 2, 10.0),))
    cfg = RunConfig(scene, RayTraceConfig(N_t=8, K=4), resolution=(16, 32),
                    horizons=(1,), M_bm=8)
    gen, _ = cmd_generate(cfg, tmp_path / "d")
    ds, _ = read_container(tmp_path / "d")
    assert len(ds) > 0
    assert gen.channels.dtype == ds.channels.dtype == np.complex64
    assert gen.channels.tobytes() == ds.channels.tobytes()
    for col in (ds.label_maps, ds.locations, ds.rates, ds.blockage, ds.frame_ids,
                ds.channels):
        assert not col.flags.owndata


def test_channel_shape_without_re_im_pairs_is_container_error(tmp_path):
    """A re-checksummed manifest whose channel shape does not end in the
    re/im pair fails closed, though the blob's item count fits."""
    path = tmp_path / "d"
    write_container(path, small_sampleset(), SceneConfig(), RayTraceConfig(N_t=8, K=4))
    mf = json.loads((path / "manifest.json").read_text())
    del mf["manifest_sha256"]
    mf["shapes"]["channels"] = [6, 4, 4, 4]
    mf["manifest_sha256"] = dataset._sha256(dataset._canonical(mf))
    (path / "manifest.json").write_bytes(dataset._canonical(mf))
    with pytest.raises(ContainerError, match="re/im"):
        read_container(path)


def test_optional_channels(tmp_path):
    samples = small_sampleset(with_channels=False)
    write_container(tmp_path / "d", samples, SceneConfig(), RayTraceConfig(N_t=8, K=4))
    loaded, mf = read_container(tmp_path / "d")
    assert loaded.channels is None and mf["has_channels"] is False


def test_hash_verification_detects_corruption(tmp_path):
    samples = small_sampleset()
    path = tmp_path / "d"
    write_container(path, samples, SceneConfig(), RayTraceConfig(N_t=8, K=4))
    blob = path / "labels.bin"
    data = bytearray(blob.read_bytes())
    data[0] ^= 0xFF
    blob.write_bytes(bytes(data))
    with pytest.raises(ContainerError):
        read_container(path)


def test_shape_and_manifest_errors(tmp_path):
    samples = small_sampleset()
    path = tmp_path / "d"
    write_container(path, samples, SceneConfig(), RayTraceConfig(N_t=8, K=4))
    with pytest.raises(ContainerError):
        read_container(tmp_path / "nonexistent")
    mf = json.loads((path / "manifest.json").read_text())
    mf["schema_version"] = 99
    (path / "manifest.json").write_text(json.dumps(mf))
    with pytest.raises(ContainerError):
        read_container(path)


def test_write_is_deterministic(tmp_path):
    samples = small_sampleset()
    scene, rt = SceneConfig(), RayTraceConfig(N_t=8, K=4)
    write_container(tmp_path / "a", samples, scene, rt)
    write_container(tmp_path / "b", samples, scene, rt)
    for name in ("manifest.json", "labels.bin", "channels.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("key", ["catalog", "shapes", "hashes", "horizons"])
def test_missing_manifest_key_is_container_error(tmp_path, key):
    path = tmp_path / "d"
    write_container(path, small_sampleset(), SceneConfig(), RayTraceConfig(N_t=8, K=4))
    mf = json.loads((path / "manifest.json").read_text())
    del mf[key]
    (path / "manifest.json").write_text(json.dumps(mf))
    with pytest.raises(ContainerError, match=key):
        read_container(path)


def test_malformed_manifest_is_container_error(tmp_path):
    path = tmp_path / "d"
    write_container(path, small_sampleset(), SceneConfig(), RayTraceConfig(N_t=8, K=4))
    good = json.loads((path / "manifest.json").read_text())
    variants = ["{not json", "[1, 2]", "\xff"]
    del good["shapes"]["labels"]
    variants.append(json.dumps(good))
    good["shapes"] = [1, 2]
    variants.append(json.dumps(good))
    for text in variants:
        (path / "manifest.json").write_text(text, encoding="latin-1")
        with pytest.raises(ContainerError):
            read_container(path)


FILES = ("manifest.json", "labels.bin", "locations.bin", "rates.bin", "blockage.bin",
         "frame_ids.bin", "channels.bin")


@pytest.fixture(scope="module")
def tiny_container(tmp_path_factory):
    """A two-sample container with channels and its files' bytes."""
    path = tmp_path_factory.mktemp("tiny") / "d"
    write_container(path, small_sampleset(n=2), SceneConfig(frame_count=10),
                    RayTraceConfig(N_t=8, K=4))
    files = {name: (path / name).read_bytes() for name in FILES}
    assert set(files) == {p.name for p in path.iterdir()}
    return path, files


def _read_altered(container, name, data):
    """read_container with file ``name`` replaced by ``data``, then restored."""
    path, files = container
    (path / name).write_bytes(data)
    try:
        with pytest.raises(ContainerError):
            read_container(path)
    finally:
        (path / name).write_bytes(files[name])


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(FILES), data=st.data())
def test_any_bit_flip_is_container_error(tiny_container, name, data):
    """One flipped bit anywhere, the manifest's values included, fails closed."""
    raw = bytearray(tiny_container[1][name])
    raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] ^= 1 << data.draw(
        st.integers(0, 7), label="bit")
    _read_altered(tiny_container, name, bytes(raw))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(FILES), data=st.data())
def test_any_truncation_is_container_error(tiny_container, name, data):
    raw = tiny_container[1][name]
    _read_altered(tiny_container, name, raw[:data.draw(st.integers(0, len(raw) - 1))])


def test_manifest_value_edits_are_container_errors(tiny_container):
    """Edits that keep the manifest valid JSON, which no blob hash covers."""
    raw = tiny_container[1]["manifest.json"]
    for old, new in ((b'"horizons": [\n  1,\n  3\n ]', b'"horizons": [\n  1,\n  2\n ]'),
                     (b'"frame_count": 10', b'"frame_count": 11'),
                     (b'"seed": 0', b'"seed": 1'),
                     (b'"catalog"', b' "catalog"'),
                     (b'\n}\n', b'\n}')):
        assert raw.count(old) >= 1, old
        _read_altered(tiny_container, "manifest.json", raw.replace(old, new, 1))


BLOBS = tuple(name[:-4] for name in FILES[1:])


@pytest.mark.parametrize("n_lanes", [1, 2])
def test_chunked_read_fails_closed_on_a_short_last_chunk(tmp_path, monkeypatch, n_lanes):
    """In chunks of 100 bytes every blob ends in a short chunk: a flipped
    last byte, a lost last byte and one byte too many each fail with that
    blob's hash mismatch, on one lane and on two, and the unaltered
    container reads back bit for bit."""
    monkeypatch.setattr(lanes, "_lanes", n_lanes)
    monkeypatch.setattr(dataset, "_READ_CHUNK", 100)
    samples, path = small_sampleset(), tmp_path / "d"
    write_container(path, samples, SceneConfig(), RayTraceConfig(N_t=8, K=4))
    got, _ = read_container(path)
    for name in ("label_maps", "locations", "rates", "blockage", "frame_ids", "channels"):
        assert getattr(got, name).tobytes() == \
            np.asarray(getattr(samples, name), dtype=getattr(got, name).dtype).tobytes()
    for name in BLOBS:
        blob = path / f"{name}.bin"
        raw = blob.read_bytes()
        assert len(raw) % 100
        for bad in (raw[:-1] + bytes([raw[-1] ^ 1]), raw[:-1], raw + b"\0"):
            blob.write_bytes(bad)
            with pytest.raises(ContainerError, match=f"^hash mismatch for blob {name}$"):
                read_container(path)
        blob.write_bytes(raw)
    read_container(path)


def test_a_failed_hash_is_raised_once_both_lanes_are_done(tmp_path, monkeypatch):
    """A hash that raises, while the blobs are written or read on two lanes,
    fails the call once the other lane is done: every blob is then written
    whole. The next write and read run and give the one-lane bytes."""
    monkeypatch.setattr(lanes, "_lanes", 2)
    monkeypatch.setattr(dataset, "_READ_CHUNK", 100)
    samples, args = small_sampleset(), (SceneConfig(), RayTraceConfig(N_t=8, K=4))
    hash_into = dataset._hash_into

    def failing(hashes, name, data):
        if name == "labels":
            raise RuntimeError("hash failed")
        hash_into(hashes, name, data)
    monkeypatch.setattr(dataset, "_hash_into", failing)
    with pytest.raises(RuntimeError, match="hash failed"):
        write_container(tmp_path / "d", samples, *args)
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == sorted(FILES[1:])
    one = tmp_path / "one"
    monkeypatch.setattr(dataset, "_hash_into", hash_into)
    write_container(tmp_path / "d", samples, *args)
    with monkeypatch.context() as m:
        m.setattr(lanes, "_lanes", 1)
        write_container(one, samples, *args)
    assert {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()} == \
        {p.name: p.read_bytes() for p in one.iterdir()}

    class FailingSha256:  # fails on the second chunk, which the helper hashes
        def __init__(self, data=b""):
            self._sha, self._chunks = hashlib.sha256(data), 0

        def update(self, data):
            self._chunks += 1
            if self._chunks == 2:
                raise RuntimeError("chunk hash failed")
            self._sha.update(data)

        def hexdigest(self):
            return self._sha.hexdigest()
    with monkeypatch.context() as m:
        m.setattr(dataset, "hashlib", SimpleNamespace(sha256=FailingSha256))
        with pytest.raises(RuntimeError, match="chunk hash failed"):
            read_container(tmp_path / "d")
    got, _ = read_container(tmp_path / "d")
    assert got.label_maps.tobytes() == samples.label_maps.tobytes()
