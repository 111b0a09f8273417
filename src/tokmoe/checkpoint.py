"""Bit-exact, self-checked checkpoint file.

Layout (integers little-endian unsigned 64-bit):

    magic    8 bytes  b"TOKMOE2\\n"
    length   u64      byte length of the header
    header   UTF-8 JSON object: ``tokens``, ``intents``, ``scheme``,
             ``num_experts``, ``variant`` and ``tensors``, a list of
             ``[name, dims]`` in ``ModelParams.slots()`` order
    payload  each tensor's float64 little-endian values, in header order
    footer   u64      FNV-1a 64 checksum over every byte before it

The checksum covers the header as well as the payload, so an edited
vocabulary or intent order is caught like an edited weight. A ``TOKMOE1``
file (a tensor archive with a separate JSON sidecar) is rejected by name.
``save_tensors``/``load_tensors`` are the framing; ``save_model``/``load_model``
map a ModelParams onto it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np

from .config import SchemeConfig, VariantConfig, write_atomic
from .data import Vocabulary
from .errors import ConfigError, DataError, IntegrityError
from .model import ModelParams, build_model
from .tensor import Array

MAGIC = b"TOKMOE2\n"
_TOKMOE1 = b"TOKMOE1\n"
_BLOCK = 1 << 20  # load checksums the file in slices of this size, never copying it whole

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


def save_tensors(tensors: list[tuple[str, Array]], path: str | Path, meta: dict) -> None:
    """Write the header fields ``meta`` and the named float64 tensors, in order; atomic on POSIX."""
    arrays = [np.asarray(arr, dtype="<f8") for _, arr in tensors]
    header = {**meta, "tensors": [[name, list(arr.shape)] for (name, _), arr in zip(tensors, arrays)]}
    text = json.dumps(header).encode("utf-8")
    chunks = [MAGIC + _u64(len(text)) + text, *(arr.tobytes() for arr in arrays)]
    checksum = _FNV_OFFSET
    for chunk in chunks:
        checksum = fnv1a64(chunk, checksum)
    write_atomic(path, b"".join([*chunks, _u64(checksum)]))


def _is_entry(entry) -> bool:
    return (
        isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
        and isinstance(entry[1], list) and all(type(d) is int and d >= 0 for d in entry[1])
    )


def load_tensors(path: str | Path) -> tuple[dict, list[tuple[str, Array]]]:
    """The header fields but ``tensors``, and the named tensors as read-only views of the file.

    Any defect of the framing, the checksum or the ``tensors`` list is an IntegrityError.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:8] == _TOKMOE1:
        raise IntegrityError(
            f"{path}: a TOKMOE1 checkpoint (archive plus JSON sidecar) is no longer read; retrain"
        )
    if data[:8] != MAGIC:
        raise IntegrityError(f"{path}: bad magic (not a checkpoint)")
    end = len(data) - 8
    if end < 16:
        raise IntegrityError(f"{path}: truncated checkpoint")
    (length,) = struct.unpack_from("<Q", data, 8)
    start = 16 + length
    if start > end:
        raise IntegrityError(f"{path}: header length {length} runs past the end of the file")
    checksum = _FNV_OFFSET
    for offset in range(0, end, _BLOCK):
        checksum = fnv1a64(data[offset:min(offset + _BLOCK, end)], checksum)
    (stored,) = struct.unpack_from("<Q", data, end)
    if stored != checksum:
        raise IntegrityError(
            f"{path}: checksum mismatch (stored {stored:#018x}, computed {checksum:#018x})"
        )
    try:
        header = json.loads(data[16:start].decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise IntegrityError(f"{path}: unreadable checkpoint header ({exc})") from None
    entries = header.pop("tensors", None) if isinstance(header, dict) else None
    if not isinstance(entries, list) or not all(_is_entry(entry) for entry in entries):
        raise IntegrityError(f"{path}: the header must be an object with 'tensors': [[name, [dim, ...]]]")
    bounds = [0, *itertools.accumulate(math.prod(dims) for _, dims in entries)]
    if 8 * bounds[-1] != end - start:
        raise IntegrityError(f"{path}: the payload holds {end - start} bytes, the header {8 * bounds[-1]}")
    flat = np.frombuffer(memoryview(data)[start:end], dtype="<f8")
    return header, [
        (name, flat[a:b].reshape(dims)) for (name, dims), a, b in zip(entries, bounds, bounds[1:])
    ]


# ---------------------------------------------------------------------------
# Model-level save/load


def save_model(
    params: ModelParams,
    path: str | Path,
    tokens: list[str],
    intents: list[str],
    scheme: str,
) -> None:
    meta = {
        "tokens": tokens,
        "intents": intents,
        "scheme": scheme,
        "num_experts": params.num_experts,
        "variant": dataclasses.asdict(params.variant),
    }
    save_tensors([(slot.name, slot.value) for slot in params.slots()], path, meta)


# Header fields and their exact JSON types (bool is not accepted as int).
# The variant's are those of a VariantConfig, whose attn_size is always set.
_META_FIELDS = {"tokens": list, "intents": list, "scheme": str, "num_experts": int, "variant": dict}
_VARIANT_FIELDS = {name: type(value) for name, value in dataclasses.asdict(VariantConfig()).items()}


def _check_fields(path: Path, obj, fields: dict[str, type]) -> None:
    if not isinstance(obj, dict) or obj.keys() != fields.keys():
        raise IntegrityError(f"{path}: expected an object with exactly the fields {sorted(fields)}")
    for name, kind in fields.items():
        if type(obj[name]) is not kind:
            raise IntegrityError(f"{path}: field {name!r} must be of type {kind.__name__}")


def _check_meta(path: Path, meta: dict) -> tuple[SchemeConfig, VariantConfig]:
    """The header's scheme and variant once every field is valid; a defect is an IntegrityError."""
    _check_fields(path, meta, _META_FIELDS)
    _check_fields(path, meta["variant"], _VARIANT_FIELDS)
    if not all(isinstance(t, str) for t in meta["tokens"] + meta["intents"]):
        raise IntegrityError(f"{path}: tokens and intents must be strings")
    intents = meta["intents"]
    if len(set(intents)) != len(intents) or meta["num_experts"] not in (0, len(intents)):
        raise IntegrityError(f"{path}: intents must be distinct and num_experts 0 or their count")
    try:
        Vocabulary(meta["tokens"])
        scheme, variant = SchemeConfig.from_name(meta["scheme"]), VariantConfig(**meta["variant"])
    except (ConfigError, DataError) as exc:
        raise IntegrityError(f"{path}: {exc}") from None
    if meta["num_experts"] == 0 and scheme.moe_enabled:
        raise IntegrityError(f"{path}: a single-decoder model (num_experts 0) is only trained under S3")
    return scheme, variant


def load_model(path: str | Path) -> tuple[ModelParams, dict]:
    """Rebuild a ModelParams and its header fields from one file; values are bit-exact.

    The file must hold exactly the tensors, in order and shape, of the model
    its header describes; anything else is an IntegrityError. The model is
    allocated only once they match, so its memory is bounded by the file's.
    """
    meta, tensors = load_tensors(path)
    scheme, variant = _check_meta(Path(path), meta)
    try:
        params = build_model(len(meta["tokens"]), meta["num_experts"], variant, scheme)
        layout = [(slot.name, slot.value.shape) for slot in params.slots()]
    except ConfigError:  # numpy cannot even describe the shapes of a model this wide
        layout = None
    if [(name, arr.shape) for name, arr in tensors] != layout:
        raise IntegrityError(
            f"{path}: its tensors differ in name, order or shape from the model its header describes"
        )
    for slot, (_, arr) in zip(params.allocate().slots(), tensors):
        slot.value[...] = arr
    return params, meta
