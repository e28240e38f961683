"""Dataset container: a manifest plus raw little-endian array blobs.

One directory per dataset:

    manifest.json        schema, configs, shapes, per-blob sha256 hashes
    labels.bin           (N, n_cams, H, W) u8 concept indices, row-major
    locations.bin        (N, 3) f32
    rates.bin            (N, M_bm) f8 rate of every codeword (bits/s/Hz)
    blockage.bin         (N, n_horizons) u8
    frame_ids.bin        (N,) u32
    channels.bin         (N, K, N_t, 2) f32 interleaved re/im (optional)

Hashes are verified on load, the manifest's own too: ``manifest_sha256``
hashes the manifest without that key, and the file must be exactly its
canonical JSON, so a flipped or lost byte anywhere is caught. Shapes are
explicit in the manifest so the container round-trips bitwise.

The channel blob holds the bytes of the complex64 column, which is
interleaved re/im f32. The writer hashes and writes the column buffers
themselves (a complex128 channel column is cast once), and the reader
returns every column as a view of the blob it has just hashed, so neither
copies the channel tensor.

Hashing overlaps file I/O on the lanes of ``streetbeam.lanes`` (hashlib
and file reads and writes release the GIL): the writer writes the blobs
in this thread while the helper hashes them, and the reader reads each
blob into one array in chunks of ``_READ_CHUNK`` bytes, hashing chunk k on
the helper while it reads chunk k + 1.
"""

import functools
import hashlib
import json
import os

import numpy as np

from . import lanes
from .channel import RayTraceConfig
from .predictor import SampleSet
from .scene import SceneConfig, to_plain
from .semantics import CATALOG

SCHEMA_VERSION = 3

_BLOBS = {
    "labels": ("<u1", "label_maps"),
    "locations": ("<f4", "locations"),
    "rates": ("<f8", "rates"),
    "blockage": ("<u1", "blockage"),
    "frame_ids": ("<u4", "frame_ids"),
}


# bytes of a blob read at a time; the reader hashes each chunk while it
# reads the next. A gen-wideband container (34 MB of channels) read in a
# median 25.4 ms in 4 MiB chunks, 25.9 in 2 MiB and 25.8 in 8 MiB, against
# 29.3 ms read whole, then hashed (in-process, warm page cache, 2 vCPUs)
_READ_CHUNK = 4 << 20


class ContainerError(IOError):
    pass


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(manifest) -> bytes:
    return (json.dumps(manifest, indent=1, sort_keys=True) + "\n").encode()


def write_container(path, samples: SampleSet, scene_cfg: SceneConfig, rt_cfg: RayTraceConfig):
    os.makedirs(path, exist_ok=True)
    arrays = {name: np.ascontiguousarray(getattr(samples, attr), dtype=dtype)
              for name, (dtype, attr) in _BLOBS.items()}
    if samples.channels is not None:
        ch = np.ascontiguousarray(samples.channels, dtype="<c8")
        arrays["channels"] = ch.view("<f4").reshape(ch.shape + (2,))

    hashes = dict.fromkeys(arrays)
    shapes = {name: list(arr.shape) for name, arr in arrays.items()}

    def write():  # the contiguous arrays' own buffers, not copies
        for name, arr in arrays.items():
            with open(os.path.join(path, f"{name}.bin"), "wb") as fh:
                fh.write(arr)
    lanes.run([functools.partial(_hash_into, hashes, name, arr) for name, arr in arrays.items()],
              own=write)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "scene_config": to_plain(scene_cfg),
        "raytrace_config": to_plain(rt_cfg),
        "catalog": list(CATALOG.names),
        "resolution": list(samples.map_shape[1:]),
        "camera_count": samples.map_shape[0],
        "horizons": list(samples.horizons),
        "sample_count": len(samples),
        "shapes": shapes,
        "hashes": hashes,
        "has_channels": "channels" in arrays,
    }
    manifest["manifest_sha256"] = _sha256(_canonical(manifest))
    with open(os.path.join(path, "manifest.json"), "wb") as fh:
        fh.write(_canonical(manifest))
    return manifest


def _hash_into(hashes, name, data):
    hashes[name] = _sha256(data)


def _read_blob(path, name, dtype, shape, expected_hash):
    fn = os.path.join(path, f"{name}.bin")
    if not os.path.exists(fn):
        raise ContainerError(f"missing blob {fn}")
    sha = hashlib.sha256()
    with open(fn, "rb", buffering=0) as fh:
        data = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)  # writable, no bytes copy
        chunks = [memoryview(data)[i:i + _READ_CHUNK]
                  for i in range(0, len(data), _READ_CHUNK)]
        # hash chunk k - 1 while reading chunk k; a file that shrank after
        # fstat leaves bytes unread, which fail the hash
        for k, chunk in enumerate(chunks):
            lanes.run([functools.partial(sha.update, chunks[k - 1])] if k else [],
                      own=functools.partial(fh.readinto, chunk))
    if chunks:
        sha.update(chunks[-1])
    if sha.hexdigest() != expected_hash:
        raise ContainerError(f"hash mismatch for blob {name}")
    arr = data.view(dtype)
    expect = int(np.prod(shape)) if shape else arr.size
    if arr.size != expect:
        raise ContainerError(f"blob {name} has {arr.size} items, manifest says {expect}")
    return arr.reshape(shape)


def read_container(path):
    """Returns (SampleSet, manifest). Verifies every blob hash.

    Raises ContainerError for a missing, unreadable, incomplete (including
    a missing key) or altered manifest and for a missing, corrupt or
    misshapen blob. The manifest's checksum is checked last, so an error
    names the first key or blob that does not fit.
    """
    mf = os.path.join(path, "manifest.json")
    if not os.path.exists(mf):
        raise ContainerError(f"missing manifest {mf}")
    with open(mf, "rb") as fh:
        raw = fh.read()
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        raise ContainerError(f"{mf}: manifest is not valid JSON ({exc})") from None
    if not isinstance(manifest, dict) or manifest.get("schema_version") != SCHEMA_VERSION:
        raise ContainerError("unsupported container schema version")
    try:
        samples = _decode(path, manifest)
    except KeyError as exc:
        raise ContainerError(f"{mf}: manifest is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{mf}: malformed manifest ({exc})") from None
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    if raw != _canonical(manifest) or manifest.get("manifest_sha256") != _sha256(_canonical(body)):
        raise ContainerError(f"{mf}: manifest does not match its checksum")
    return samples, manifest


def _decode(path, manifest):
    if manifest["catalog"] != list(CATALOG.names):
        raise ContainerError("container concept catalog does not match this build")
    cols = {}
    for name, (dtype, attr) in _BLOBS.items():
        cols[attr] = _read_blob(path, name, dtype, manifest["shapes"][name],
                                manifest["hashes"][name])
    channels = None
    if manifest.get("has_channels"):
        inter = _read_blob(path, "channels", "<f4", manifest["shapes"]["channels"],
                           manifest["hashes"]["channels"])
        if inter.shape[-1:] != (2,):
            raise ContainerError("channel blob is not (..., 2) re/im pairs")
        channels = inter.view("<c8")[..., 0]

    return SampleSet(
        label_maps=cols["label_maps"],
        locations=cols["locations"].astype(np.float32, copy=False),
        rates=cols["rates"],
        blockage=cols["blockage"],
        frame_ids=cols["frame_ids"],
        horizons=tuple(manifest["horizons"]),
        channels=channels,
    )
