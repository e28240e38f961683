"""Versioned binary parameter checkpoints.

Layout (all little-endian): magic b"ESNN", version u32, then a run of
named tensors until EOF: name length u16, name bytes (utf-8), rank u8,
dims u32 each, then 32-bit float payload row-major. A tensor's name is its
``nn.leaves`` path in the parameter tree, or "state." and its path in the
state tree of normalization running statistics; records are sorted by name.
"""

import math
import struct

import numpy as np

from .nn import leaves

MAGIC = b"ESNN"
VERSION = 1


class CheckpointError(IOError):
    pass


def save_checkpoint(path, params, state=None):
    """Write the tensors of the ``params`` and ``state`` trees (flat dicts
    are one-level trees)."""
    tensors = {name: d[k] for name, d, k in leaves(params)}
    tensors.update({name: d[k] for name, d, k in leaves(state or {}, "state.")})
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Returns (params, state) flat dicts of float32 arrays keyed by tensor
    name.

    Raises CheckpointError unless the file is a whole checkpoint: right
    magic and version, every tensor record complete, at least one tensor.
    The format has no tensor count, so a file cut exactly between two
    records loads as fewer tensors; callers that know their model check
    the names and shapes.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    off = 4

    def take(n):
        nonlocal off
        if off + n > len(raw):
            raise CheckpointError(f"{path}: truncated checkpoint")
        off += n
        return raw[off - n:off]

    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    tensors = {}
    while off < len(raw):
        (nlen,) = struct.unpack("<H", take(2))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name is not utf-8") from None
        (rank,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        data = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4")
        try:
            data = data.reshape(dims)
        except ValueError:  # rank above numpy's limit, or a size that overflows
            raise CheckpointError(f"{path}: tensor {name!r} has an unusable shape "
                                  f"of rank {rank}") from None
        tensors[name] = data.astype(np.float32)
    if not tensors:
        raise CheckpointError(f"{path}: checkpoint holds no tensors")
    params = {k: v for k, v in tensors.items() if not k.startswith("state.")}
    state = {k[len("state."):]: v for k, v in tensors.items() if k.startswith("state.")}
    return params, state
