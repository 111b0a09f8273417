"""Bit-exact binary checkpoint format.

Layout (all integers little-endian unsigned 64-bit):

    magic   8 bytes  b"TOKMOE1\\n"
    count   u64      number of tensors
    tensor  repeated: name_len u64, name bytes (UTF-8), rank u64,
                      dims u64 * rank, payload float64 little-endian
    footer  u64      FNV-1a 64 checksum over every payload byte, in order

``save_tensors``/``load_tensors`` are the raw archive interface;
``save_model``/``load_model`` add a JSON sidecar (``<stem>.meta.json``)
carrying the vocabulary, intent order, and architecture fields needed to
rebuild a ModelParams, since the archive itself stores only tensors.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import struct
from pathlib import Path

import numpy as np

from .config import SchemeConfig, VariantConfig
from .data import Vocabulary
from .errors import ConfigError, DataError, IntegrityError
from .model import ModelParams, init_model
from .tensor import Array

MAGIC = b"TOKMOE1\n"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes, value: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over ``data``; pass the previous value to chain chunks."""
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _U64_MASK
    return value


def _u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def save_tensors(tensors: list[tuple[str, Array]], path: str | Path) -> None:
    """Write named float64 tensors in archive order; atomic on POSIX."""
    path = Path(path)
    chunks: list[bytes] = [MAGIC, _u64(len(tensors))]
    checksum = _FNV_OFFSET
    for name, arr in tensors:
        arr = np.asarray(arr, dtype=np.float64)
        name_bytes = name.encode("utf-8")
        chunks.append(_u64(len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(_u64(arr.ndim))
        for dim in arr.shape:
            chunks.append(_u64(dim))
        payload = np.ascontiguousarray(arr).astype("<f8").tobytes()
        chunks.append(payload)
        checksum = fnv1a64(payload, checksum)
    chunks.append(_u64(checksum))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(b"".join(chunks))
    tmp.replace(path)


class _Reader:
    def __init__(self, data: bytes, path: Path) -> None:
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise IntegrityError(f"{self.path}: truncated checkpoint")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_tensors(path: str | Path) -> dict[str, Array]:
    """Read an archive back; raises IntegrityError on any corruption."""
    path = Path(path)
    reader = _Reader(path.read_bytes(), path)
    if reader.take(len(MAGIC)) != MAGIC:
        raise IntegrityError(f"{path}: bad magic (not a checkpoint)")
    count = reader.u64()
    tensors: dict[str, Array] = {}
    checksum = _FNV_OFFSET
    for _ in range(count):
        try:
            name = reader.take(reader.u64()).decode("utf-8")
        except UnicodeDecodeError:
            raise IntegrityError(f"{path}: tensor name is not valid UTF-8") from None
        rank = reader.u64()
        dims = tuple(reader.u64() for _ in range(rank))
        size = 1
        for dim in dims:
            size *= dim
        payload = reader.take(8 * size)
        checksum = fnv1a64(payload, checksum)
        if name in tensors:
            raise IntegrityError(f"{path}: duplicate tensor name {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
    stored = reader.u64()
    if reader.pos != len(reader.data):
        raise IntegrityError(f"{path}: trailing bytes after checksum")
    if stored != checksum:
        raise IntegrityError(
            f"{path}: checksum mismatch (stored {stored:#018x}, computed {checksum:#018x})"
        )
    return tensors


def inspect_tensors(path: str | Path) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes in archive order, after full validation."""
    return [(name, tuple(arr.shape)) for name, arr in load_tensors(path).items()]


# ---------------------------------------------------------------------------
# Model-level save/load with the JSON sidecar


def meta_path(ckpt_path: str | Path) -> Path:
    path = Path(ckpt_path)
    return path.with_name(path.stem + ".meta.json")


def save_model(
    params: ModelParams,
    path: str | Path,
    tokens: list[str],
    intents: list[str],
    scheme: str,
) -> None:
    save_tensors([(slot.name, slot.value) for slot in params.slots()], path)
    meta = {
        "tokens": tokens,
        "intents": intents,
        "scheme": scheme,
        "num_experts": params.num_experts,
        "variant": dataclasses.asdict(params.variant),
    }
    meta_path(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


# Sidecar fields and their exact JSON types (bool is not accepted as int).
# The variant's are those of a VariantConfig, whose attn_size is always set.
_META_FIELDS = {"tokens": list, "intents": list, "scheme": str, "num_experts": int, "variant": dict}
_VARIANT_FIELDS = {name: type(value) for name, value in dataclasses.asdict(VariantConfig()).items()}


def _check_fields(side: Path, obj, fields: dict[str, type]) -> None:
    if not isinstance(obj, dict) or obj.keys() != fields.keys():
        raise IntegrityError(f"{side}: expected an object with exactly the fields {sorted(fields)}")
    for name, kind in fields.items():
        if type(obj[name]) is not kind:
            raise IntegrityError(f"{side}: field {name!r} must be of type {kind.__name__}")


def _read_meta(side: Path) -> tuple[dict, SchemeConfig, VariantConfig]:
    """Parse and validate the sidecar; every defect is an IntegrityError."""
    if not side.exists():
        raise IntegrityError(f"{side}: checkpoint sidecar missing")
    try:
        meta = json.loads(side.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{side}: unreadable checkpoint sidecar ({exc})") from None
    _check_fields(side, meta, _META_FIELDS)
    _check_fields(side, meta["variant"], _VARIANT_FIELDS)
    if not all(isinstance(t, str) for t in meta["tokens"] + meta["intents"]):
        raise IntegrityError(f"{side}: tokens and intents must be strings")
    intents = meta["intents"]
    if len(set(intents)) != len(intents) or meta["num_experts"] not in (0, len(intents)):
        raise IntegrityError(f"{side}: intents must be distinct and num_experts 0 or their count")
    try:
        Vocabulary(meta["tokens"])
        scheme = SchemeConfig.from_name(meta["scheme"])
        variant = VariantConfig(**meta["variant"])
    except (ConfigError, DataError) as exc:
        raise IntegrityError(f"{side}: {exc}") from None
    return meta, scheme, variant


def load_model(path: str | Path) -> tuple[ModelParams, dict]:
    """Rebuild a ModelParams from archive + sidecar; values are bit-exact.

    The archive must hold exactly the tensors, in order, of the model the
    sidecar describes; any other name list is an IntegrityError.
    """
    meta, scheme, variant = _read_meta(meta_path(path))
    tensors = load_tensors(path)
    params = init_model(len(meta["tokens"]), meta["num_experts"], variant, seed=0, scheme=scheme)
    slots = params.slots()
    for index, (stored, wanted) in enumerate(itertools.zip_longest(tensors, [s.name for s in slots])):
        if stored != wanted:
            raise IntegrityError(
                f"{path}: tensor {index} is {stored!r} in the archive but {wanted!r} "
                "in the model its sidecar describes"
            )
    for slot in slots:
        stored = tensors[slot.name]
        if stored.shape != slot.value.shape:
            raise IntegrityError(
                f"{path}: tensor {slot.name!r} has shape {stored.shape}, expected {slot.value.shape}"
            )
        slot.value[...] = stored
    return params, meta
