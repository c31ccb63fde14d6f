"""Checkpoint directory format: manifest.json plus a raw weights.bin.

The manifest records the format version, the model config, the training step
and, per tensor, its shape, dtype code ("f4"/"f8") and byte offset into
weights.bin. Tensors are stored little-endian, C-order, concatenated in
sorted-name order. A float64 checkpoint round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointShapeError,
    CheckpointVersionError,
    ConfigError,
    CorruptCheckpointError,
)
from .model import MoeLmConfig, param_shapes

__all__ = ["FORMAT_VERSION", "Checkpoint", "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 1
_DTYPES = {"f4": "<f4", "f8": "<f8"}


@dataclass
class Checkpoint:
    """In-memory model snapshot: config plus named weight tensors."""

    config: MoeLmConfig
    tensors: dict[str, np.ndarray]
    training_step: int

    def __post_init__(self):
        expected = param_shapes(self.config)
        missing = set(expected) - set(self.tensors)
        extra = set(self.tensors) - set(expected)
        if missing:
            raise CheckpointShapeError(f"missing tensors: {sorted(missing)[:3]}")
        if extra:
            raise CheckpointShapeError(f"unexpected tensors: {sorted(extra)[:3]}")
        for name, shape in expected.items():
            got = tuple(self.tensors[name].shape)
            if got != shape:
                raise CheckpointShapeError(
                    f"tensor {name!r} has shape {got}, config implies {shape}"
                )


def _dtype_code(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "f4"
    return "f8"


def _typed(what: str, val, kind: type):
    """val if it is a JSON value of kind (an int counts as a float, a bool as no int)."""
    if type(val) is kind or (kind is float and type(val) is int):
        return val
    raise CorruptCheckpointError(f"{what} is {val!r}, not a {kind.__name__}")


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write manifest.json and weights.bin into directory `path`."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = {}
    offset = 0
    # Tensor by tensor from their own buffers, so the weights are never
    # copied into one bytes object.
    with open(path / "weights.bin", "wb") as fh:
        for name in sorted(ckpt.tensors):
            code = _dtype_code(ckpt.tensors[name])
            arr = np.ascontiguousarray(ckpt.tensors[name], dtype=_DTYPES[code])
            entries[name] = {
                "shape": list(arr.shape),
                "dtype": code,
                "offset": offset,
            }
            fh.write(arr)
            offset += arr.nbytes
    manifest = {
        "format_version": FORMAT_VERSION,
        "training_step": ckpt.training_step,
        "config": ckpt.config.to_dict(),
        "tensors": entries,
        "total_bytes": offset,
    }
    (path / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint directory, validating version, shapes and sizes."""
    path = Path(path)
    mpath = path / "manifest.json"
    wpath = path / "weights.bin"
    if not mpath.exists():
        raise CorruptCheckpointError(f"{mpath} not found")
    if not wpath.exists():
        raise CorruptCheckpointError(f"{wpath} not found")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"{mpath}: unreadable manifest: {exc}") from exc
    if not (isinstance(manifest, dict)
            and all(isinstance(manifest.get(k), dict) for k in ("config", "tensors"))):
        raise CorruptCheckpointError("manifest is not a JSON object with 'config' and "
                                     "'tensors' objects")

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format version {version!r}, this build reads {FORMAT_VERSION}"
        )
    known = MoeLmConfig.__dataclass_fields__
    for key, val in manifest["config"].items():
        if key in known:
            _typed(f"config {key}", val, type(known[key].default))
    step = _typed("training_step", manifest.get("training_step", 0), int)
    try:
        config = MoeLmConfig.from_dict(manifest["config"])
    except ConfigError as exc:
        raise CorruptCheckpointError(f"manifest config: {exc}") from None
    raw = wpath.read_bytes()
    declared = manifest.get("total_bytes")
    if declared is not None and declared != len(raw):
        raise CorruptCheckpointError(
            f"weights.bin is {len(raw)} bytes, manifest declares {declared}"
        )

    expected = param_shapes(config)
    tensors: dict[str, np.ndarray] = {}
    for name, entry in manifest["tensors"].items():
        if not isinstance(entry, dict):
            raise CorruptCheckpointError(f"tensor {name!r} entry {entry!r} is not an object")
        shape = tuple(_typed(f"tensor {name!r} dim", n, int)
                      for n in _typed(f"tensor {name!r} shape", entry.get("shape"), list))
        if name not in expected:
            raise CheckpointShapeError(f"manifest lists unknown tensor {name!r}")
        if shape != expected[name]:
            raise CheckpointShapeError(
                f"tensor {name!r} has shape {shape}, config implies {expected[name]}"
            )
        code = _typed(f"tensor {name!r} dtype", entry.get("dtype"), str)
        if code not in _DTYPES:
            raise CorruptCheckpointError(f"tensor {name!r} has unknown dtype {code!r}")
        dt = np.dtype(_DTYPES[code])
        count = int(np.prod(shape)) if shape else 1
        start = _typed(f"tensor {name!r} offset", entry.get("offset"), int)
        end = start + count * dt.itemsize
        if start < 0 or end > len(raw):
            raise CorruptCheckpointError(
                f"tensor {name!r} spans bytes [{start}, {end}) of a "
                f"{len(raw)}-byte weights.bin"
            )
        arr = np.frombuffer(raw, dtype=dt, count=count, offset=start)
        tensors[name] = arr.reshape(shape).astype(np.float64)
    missing = set(expected) - set(tensors)
    if missing:
        raise CheckpointShapeError(f"manifest missing tensors: {sorted(missing)[:3]}")

    return Checkpoint(config=config, tensors=tensors, training_step=step)
