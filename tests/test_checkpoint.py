"""Checkpoint file format: round trips, corruption detection, shape inspection."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tokmoe.checkpoint as C
from tokmoe.config import SPECIAL_TOKENS, OptimizerConfig, SchemeConfig, write_atomic
from tokmoe.errors import IntegrityError
from tokmoe.model import init_model
from tokmoe.training import train_run

from conftest import tiny_samples, tiny_variant

# A vocabulary of six: the specials, then two tokens.
TOKENS = [*SPECIAL_TOKENS, "t4", "t5"]
META = {"note": "header fields beside the tensors"}


def small_tensors(rng):
    return [
        ("alpha", rng.uniform(-1, 1, (2, 3))),
        ("beta.vec", rng.uniform(-1, 1, 5)),
        ("gamma", np.array(3.75)),  # rank-0 payload
    ]


def fnv1a64_loop(data):
    """FNV-1a 64 by its definition, one byte at a time: the oracle for ``C.fnv1a64``."""
    value = 0xCBF29CE484222325
    for byte in data:
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


BLOCK = C._HASH_BLOCK
# The memory tests' headroom, 512 KiB whatever the block size: the hash's arrays must stay below it.
HEADROOM = 32 * 16 * 1024


class TestFnv1a:
    @pytest.mark.parametrize("length", [
        0, 1, 7, 8, 9, 63, 64, 65, 511, 512, 513, 16383, 16384, 16385, 49157,
        BLOCK - 64, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 64, 3 * BLOCK + 5, 10 * BLOCK + 37,
    ])
    def test_blockwise_equals_loop(self, length):
        data = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
        expected = fnv1a64_loop(data)
        assert C.fnv1a64(data) == expected
        assert C.fnv1a64(memoryview(b"x" + data)[1:]) == expected

    def test_known_vectors(self):
        # Published FNV-1a 64 reference values.
        assert C.fnv1a64(b"") == 0xCBF29CE484222325
        assert C.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert C.fnv1a64(b"foobar") == 0x85944171F73967E8


class TestArchiveRoundTrip:
    def test_bit_identical_round_trip(self, tmp_path, rng):
        tensors = small_tensors(rng)
        path = tmp_path / "t.ckpt"
        C.save_tensors(tensors, path, META)
        first = path.read_bytes()
        meta, loaded = C.load_tensors(path)
        assert meta == META
        assert [name for name, _ in loaded] == [name for name, _ in tensors]
        for (_, back), (_, arr) in zip(loaded, tensors):
            # assert_array_equal broadcasts, so a rank-0 tensor read back as [1] would pass it.
            assert (back.shape, back.dtype) == (arr.shape, np.float64)
            np.testing.assert_array_equal(back, arr)
        C.save_tensors(loaded, path, meta)
        assert path.read_bytes() == first

    def test_magic_prefix(self, tmp_path, rng):
        path = tmp_path / "t.ckpt"
        C.save_tensors(small_tensors(rng), path, META)
        assert path.read_bytes().startswith(b"TOKMOE2\n")

    def test_tokmoe1_file_named(self, tmp_path):
        path = tmp_path / "t.ckpt"
        # An empty TOKMOE1 archive: magic, zero tensors, the FNV-1a offset basis.
        path.write_bytes(b"TOKMOE1\n" + bytes(8) + C.fnv1a64(b"").to_bytes(8, "little"))
        with pytest.raises(IntegrityError, match="TOKMOE1"):
            C.load_tensors(path)

    def test_corrupted_payload_byte_detected(self, tmp_path, rng):
        path = tmp_path / "t.ckpt"
        C.save_tensors(small_tensors(rng), path, META)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            C.load_tensors(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(IntegrityError, match="magic"):
            C.load_tensors(path)

    def test_load_memory_bounded_by_hash_block(self, tmp_path, rng):
        # A 4 MB file: loading holds the file once plus the hash's arrays, about
        # 4 bytes per byte of its block, and no copy of any part of the file.
        path = tmp_path / "t.ckpt"
        C.save_tensors([("w", rng.uniform(-1, 1, 500_000))], path, META)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            C.load_tensors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - size < HEADROOM

    def test_save_memory_bounded_by_hash_block(self, tmp_path, rng):
        # Saving builds the file once in memory and hashes it in place: no copy of a tensor.
        tensors = [("w", rng.uniform(-1, 1, 500_000))]
        path = tmp_path / "t.ckpt"
        tracemalloc.start()
        try:
            C.save_tensors(tensors, path, META)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size + HEADROOM

    def test_save_and_load_hash_once(self, tmp_path, rng, monkeypatch):
        calls = []
        real = C.fnv1a64
        monkeypatch.setattr(C, "fnv1a64", lambda data: calls.append(len(data)) or real(data))
        path = tmp_path / "t.ckpt"
        C.save_tensors(small_tensors(rng), path, META)
        C.load_tensors(path)
        assert calls == [path.stat().st_size - 8] * 2

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # A write that fails partway (a full disk, a file-size limit) leaves the old file
        # and no partial sibling.
        def write_part(self, data):
            with self.open("wb") as f:
                f.write(data[:4096])
            raise OSError(27, "File too large")

        path = tmp_path / "model.ckpt"
        path.write_bytes(b"old")
        monkeypatch.setattr(Path, "write_bytes", write_part)
        with pytest.raises(OSError, match="too large"):
            write_atomic(path, bytes(100_000))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        assert path.read_bytes() == b"old"

    def test_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "t.ckpt"
        C.save_tensors(small_tensors(rng), path, META)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(IntegrityError):
            C.load_tensors(path)


class TestModelCheckpoints:
    def test_file_bytes_pinned(self, tmp_path):
        # Pins every byte: the framing, the header's JSON and a footer hashed over
        # several blocks (the digest was taken from the byte-at-a-time checksum).
        params = init_model(6, 2, tiny_variant(hidden_size=24, attn_size=24), seed=9)
        path = tmp_path / "model.ckpt"
        C.save_model(params, path, TOKENS, ["a", "b"], "S4")
        assert path.stat().st_size > 10 * 16 * 1024
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b99562579d17f5ff76702391d9ebb735a194143085b64fa1fbc4ad0f7fc9a21d"
        )

    def test_model_round_trip_bit_exact(self, tmp_path):
        params = init_model(6, 2, tiny_variant(), seed=9)
        path = tmp_path / "model.ckpt"
        C.save_model(params, path, TOKENS, ["a", "b"], "S4")
        loaded, meta = C.load_model(path)
        assert meta["scheme"] == "S4"
        assert meta["intents"] == ["a", "b"]
        for a, b in zip(params.slots(), loaded.slots()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value, b.value)

    def test_s1_scheme_weights_restored(self, tmp_path):
        s1 = SchemeConfig.from_name("S1")
        params = init_model(6, 2, tiny_variant(), 9, s1)
        train_run(params, tiny_samples(), s1, OptimizerConfig(batch_size=1), epochs=2, seed=9,
                  expert_of={"alpha": 0, "beta": 1})
        trained = params.scheme_weights.slots()
        assert all(np.any(slot.value != 0.0) for slot in trained)
        path = tmp_path / "model.ckpt"
        C.save_model(params, path, TOKENS, ["a", "b"], "S1")
        loaded, _ = C.load_model(path)
        for a, b in zip(trained, loaded.scheme_weights.slots(), strict=True):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value, b.value)

    def test_single_decoder_header_outside_s3_refused(self, tmp_path):
        # Only S3 trains one decoder; the tensors alone could not tell an S4 header from it.
        params = init_model(6, 0, tiny_variant(), 9, SchemeConfig.from_name("S3"))
        path = tmp_path / "model.ckpt"
        C.save_model(params, path, TOKENS, ["a", "b"], "S4")
        with pytest.raises(IntegrityError, match="num_experts 0"):
            C.load_model(path)
