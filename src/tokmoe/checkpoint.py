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
vocabulary or intent order is caught like an edited weight. It is the
FNV-1a 64 of draft-eastlake-fnv, computed in NumPy to the same value as
the byte-at-a-time definition: per 64 KiB block, eight two-level prefix
scans give the running hash's low bytes and a dot over 4 KiB slices folds
the block in, using about 4 bytes per block byte (see ``fnv1a64``). Saving
builds the whole file in one buffer and hashes it once; loading hashes the
file as read; neither copies a tensor. A ``TOKMOE1`` file (a tensor archive
with a separate JSON sidecar) is rejected by name.
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

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_HASH_BLOCK = 1 << 16  # bytes per vectorised pass; fnv1a64's arrays take about 4 times this
_DOT_SLICE = 1 << 12  # bytes per wrapping uint64 dot; its two arrays take 16 times this
_BYTE_ONES = np.uint64(0x0101010101010101)


def fnv1a64(data: bytes | bytearray | memoryview) -> int:
    """64-bit FNV-1a over the bytes-like ``data``.

    A step h' = (h ^ b) * P changes only h's low byte s by the XOR, so
    h' = P * (h + e) with e = (s ^ b) - s, and over m bytes
    h_m = P^m * h_0 + sum_i P^(m-i) * e_i (mod 2^64): one wrapping uint64 dot
    product per slice once every s_i is known. The low bytes follow
    s' = ((s ^ b) * 0xB3) mod 256 (0xB3 = P mod 256). As 0xB3 is odd, bit k
    of a product is bit k of its factor XOR a function of the factor's lower
    bits. So, given bits < k of every s_i, bit k of s_i is bit k of s_0 XOR
    a prefix XOR over the block: eight vectorised rounds give every low byte.

    Each round's prefix XOR is a two-level scan (Blelloch 1990): one multiply
    by 0x0101...01 scans the eight bytes of every uint64 word, a second scans
    the word totals eight to a group, and the serial accumulate runs over only
    the n/64 group totals of an n-byte block. The dot then runs over slices of
    ``_DOT_SLICE`` bytes against one table of powers, each folded in as
    h = h * P^m + dot. A block takes 4 bytes per byte (its copy, the low
    bytes, the step and the scan, the last two then holding the int16 e_i)
    plus an eighth for the word totals; the slices a fixed 64 KiB.
    """
    data = np.frombuffer(data, dtype=np.uint8)
    value = _FNV_OFFSET
    if data.size == 0:
        return value
    # Whole groups of eight words; a last short block's stale tail reaches none of its first n bytes.
    width = min(-(-data.size // 64) * 64, _HASH_BLOCK)
    block = np.zeros(width, np.uint8)
    lows = np.empty(width + 1, np.uint8)  # s_0, ..., s_width
    low, following = lows[:-1], lows[1:]
    work = np.empty(2 * width, np.uint8)
    step, scan = work[:width], work[width:]
    words, scan_words = step.view(np.uint64), scan.view(np.uint64)
    changes = work.view(np.int16)
    totals = np.empty(width // 8, np.uint8)
    groups = totals.view(np.uint64)
    group_scan, group_carry = np.empty_like(groups), np.empty_like(groups)
    span = min(width, _DOT_SLICE)
    powers = np.full(span, _FNV_PRIME, np.uint64)
    np.multiply.accumulate(powers, out=powers)
    powers = powers[::-1]  # P^span, ..., P^1 (mod 2^64)
    wrapped = np.empty(span, np.uint64)
    for start in range(0, data.size, width):
        n = min(width, data.size - start)
        block[:n] = data[start:start + n]
        lows.fill(0)
        for k in range(8):
            bit = np.uint8(1 << k)
            # Bit k of step[i] is bit k of s_(i+1) XOR bit k of s_i.
            np.bitwise_xor(low, block, out=step)
            np.multiply(step, np.uint8(0xB3), out=step)
            np.bitwise_and(step, bit, out=step)
            # Multiplying a word by 0x0101...01 adds each byte into every later
            # one; with bit k alone set in each byte, bit k of byte j is then the
            # XOR of bytes 0..j, as no carry reaches bit k of another byte.
            np.multiply(words, _BYTE_ONES, out=scan_words)
            # Each word's total is bit k of its top byte (a carry may set the others,
            # below bit k too from k = 5); the same scan over the totals, eight to a group.
            np.copyto(totals, scan[7::8])
            np.bitwise_and(groups, bit * _BYTE_ONES, out=groups)
            np.multiply(groups, _BYTE_ONES, out=group_scan)
            # The XOR of every earlier group (top bytes) and of s_0, spread over each byte.
            group_carry[0] = value & (1 << k)
            np.right_shift(group_scan[:-1], np.uint64(56), out=group_carry[1:])
            np.bitwise_xor.accumulate(group_carry, out=group_carry)
            np.multiply(group_carry, _BYTE_ONES, out=group_carry)
            # Each word's carry, the XOR of every earlier word and of s_0, spread over the word.
            np.bitwise_xor(group_scan, groups, out=group_scan)  # exclude each word's own total
            np.bitwise_xor(group_scan, group_carry, out=group_scan)
            np.multiply(group_scan.view(np.uint8), _BYTE_ONES, out=words)
            np.bitwise_xor(scan_words, words, out=scan_words)  # bit k of s_(i+1)
            np.bitwise_and(scan, bit, out=scan)
            np.bitwise_or(following, scan, out=following)
            lows[0] = value & ((2 << k) - 1)  # bits 0..k of s_0
        np.bitwise_xor(block, low, out=block)
        np.subtract(block, low, out=changes, dtype=np.int16)  # e_i
        for a in range(0, n, span):
            m = min(span, n - a)
            tail = powers[span - m:]  # P^m, ..., P^1
            np.copyto(wrapped[:m].view(np.int64), changes[a:a + m])  # e_i, wrapped into uint64
            value = (value * int(tail[0]) + int(np.dot(tail, wrapped[:m]))) % (1 << 64)
    return value


def save_tensors(tensors: list[tuple[str, Array]], path: str | Path, meta: dict) -> None:
    """Write the header fields ``meta`` and the named float64 tensors, in order; atomic on POSIX."""
    arrays = [np.asarray(arr, dtype="<f8") for _, arr in tensors]
    header = {**meta, "tensors": [[name, list(arr.shape)] for (name, _), arr in zip(tensors, arrays)]}
    text = json.dumps(header).encode("utf-8")
    start = 16 + len(text)
    bounds = [0, *itertools.accumulate(arr.size for arr in arrays)]
    buf = bytearray(start + 8 * bounds[-1] + 8)
    buf[:start] = MAGIC + struct.pack("<Q", len(text)) + text
    flat = np.frombuffer(buf, dtype="<f8", count=bounds[-1], offset=start)
    for arr, a, b in zip(arrays, bounds, bounds[1:]):
        flat[a:b].reshape(arr.shape)[...] = arr
    struct.pack_into("<Q", buf, len(buf) - 8, fnv1a64(memoryview(buf)[:-8]))
    write_atomic(path, buf)


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
    # A bytearray, as in save_tensors: the heap block a save frees then fits this buffer
    # (a bytes object is 32 bytes larger, and repeated save/load held one more file resident).
    data = bytearray(path.stat().st_size)
    with path.open("rb") as f:
        f.readinto(data)
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
    checksum = fnv1a64(memoryview(data)[:end])
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
    flat = np.frombuffer(memoryview(data).toreadonly()[start:end], dtype="<f8")
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
