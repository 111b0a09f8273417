"""End-to-end command behavior: files, exit codes, error stream prefixes."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tokmoe.checkpoint as C
import tokmoe.layers as L
import tokmoe.model as M
import tokmoe.training as TR
from tokmoe import BOS_ID, RunConfig
from tokmoe.cli import _build_run_config, build_parser, main, run_gradcheck
from tokmoe.errors import DomainError, IntegrityError


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_dir(workdir):
    out = workdir / "corpus"
    code = main([
        "synth", "--out", str(out), "--intents", "2", "--per-intent", "6", "--seed", "9",
        "--context-min", "3", "--context-max", "5", "--response-min", "3", "--response-max", "5",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_run(workdir, corpus_dir):
    out = workdir / "run"
    code = main([
        "train", "--train", str(corpus_dir / "train.jsonl"),
        "--valid", str(corpus_dir / "valid.jsonl"),
        "--out", str(out), "--epochs", "2", "--seed", "3",
        "--hidden-size", "6", "--embedding-size", "4",
        "--vocab-cap", "60", "--batch-size", "4",
    ])
    assert code == 0
    return out


class TestSynth:
    def test_writes_three_splits_and_prints_counts(self, corpus_dir, capsys):
        for name in ("train", "valid", "test"):
            assert (corpus_dir / f"{name}.jsonl").exists()

    def test_same_flags_byte_identical(self, workdir):
        dirs = []
        for name in ("s1", "s2"):
            out = workdir / name
            assert main(["synth", "--out", str(out), "--intents", "3",
                         "--per-intent", "5", "--seed", "77"]) == 0
            dirs.append(out)
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_zero_intents_is_usage_error(self, workdir, capsys):
        code = main(["synth", "--out", str(workdir / "bad"), "--intents", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[usage]")


class TestTrain:
    def test_run_directory_contents(self, trained_run):
        names = sorted(path.name for path in trained_run.iterdir())
        assert names == ["config.snapshot", "manifest.json", "model.ckpt"]
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert len(manifest["history"]) == 2
        assert manifest["seed"] == 3
        assert set(manifest["corpus_checksums"]) == {"train", "valid"}
        assert all(r["valid_score"] is not None for r in manifest["history"])

    def test_env_seed_overrides_flag(self, corpus_dir, workdir, monkeypatch):
        monkeypatch.setenv("TOKMOE_SEED", "123")
        out = workdir / "r4"
        code = main([
            "train", "--train", str(corpus_dir / "train.jsonl"),
            "--out", str(out), "--epochs", "1", "--seed", "5",
            "--hidden-size", "4", "--embedding-size", "3", "--vocab-cap", "60",
        ])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 123

    def test_s3_checkpoint_holds_no_gate(self, corpus_dir, workdir):
        out = workdir / "s3"
        code = main([
            "train", "--train", str(corpus_dir / "train.jsonl"), "--out", str(out),
            "--scheme", "S3", "--epochs", "1", "--hidden-size", "4", "--embedding-size", "3",
            "--vocab-cap", "60",
        ])
        assert code == 0
        names = [name for name, _ in C.load_tensors(out / "model.ckpt")[1]]
        assert names and not any(name.startswith("gating.") for name in names)
        assert C.load_model(out / "model.ckpt")[0].gating is None

    @pytest.mark.parametrize("change", ["rewrite", "delete"])
    def test_manifest_hashes_the_corpus_trained_on(self, corpus_dir, workdir, monkeypatch, change):
        # The train file changes once training has begun; the manifest still names the bytes loaded.
        train = workdir / f"{change}.jsonl"
        shutil.copyfile(corpus_dir / "train.jsonl", train)
        loaded = hashlib.sha256(train.read_bytes()).hexdigest()
        original = TR.train_run

        def changing(*args, **kwargs):
            if change == "rewrite":
                train.write_bytes((corpus_dir / "valid.jsonl").read_bytes())
            else:
                train.unlink()
            return original(*args, **kwargs)

        monkeypatch.setattr(TR, "train_run", changing)
        out = workdir / f"r-{change}"
        code = main([
            "train", "--train", str(train), "--out", str(out), "--epochs", "1",
            "--hidden-size", "4", "--embedding-size", "3", "--vocab-cap", "60",
        ])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["corpus_checksums"] == {"train": loaded}

    def test_single_module_requires_s3(self, corpus_dir, workdir, capsys):
        code = main([
            "train", "--train", str(corpus_dir / "train.jsonl"),
            "--out", str(workdir / "r5"), "--scheme", "S4", "--single-module",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[config]")


class TestEvaluate:
    def test_json_report_with_score_identity(self, trained_run, corpus_dir, capsys):
        code = main([
            "evaluate", "--checkpoint", str(trained_run / "model.ckpt"),
            "--corpus", str(corpus_dir / "test.jsonl"), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        overall = payload["overall"]
        expected = 50.0 * overall["inform"] + 50.0 * overall["success"] + 100.0 * overall["bleu"]
        assert overall["score"] == pytest.approx(expected, abs=1e-9)
        assert set(payload["per_intent"]) == {"hotel", "train"}

    def test_text_table(self, trained_run, corpus_dir, capsys):
        code = main([
            "evaluate", "--checkpoint", str(trained_run / "model.ckpt"),
            "--corpus", str(corpus_dir / "test.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall" in out and "Inform%" in out

    # Header field edits under a recomputed checksum, so that each reaches its field check.
    @pytest.mark.parametrize("name,corrupt", [
        ("malformed", lambda header: b"{not json"),
        ("no-variant", lambda header: json.dumps({k: v for k, v in header.items() if k != "variant"}).encode()),
        ("unknown-scheme", lambda header: json.dumps({**header, "scheme": "S9"}).encode()),
    ])
    def test_corrupted_header_is_one_error_line(
        self, trained_run, corpus_dir, workdir, capsys, name, corrupt
    ):
        header, payload = _split((trained_run / "model.ckpt").read_bytes())
        bad = workdir / f"header-{name}.ckpt"
        bad.write_bytes(_framed(corrupt(json.loads(header)), payload))
        for argv in (["evaluate", "--corpus", str(corpus_dir / "test.jsonl")],
                     ["generate", "--context", "i need help"]):
            code = main([*argv, "--checkpoint", str(bad)])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error[integrity]")


class TestGenerate:
    def test_deterministic_output(self, trained_run, capsys):
        outputs = []
        for _ in range(2):
            code = main(["generate", "--checkpoint", str(trained_run / "model.ckpt"),
                         "--context", "i need a hotel_name"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_trace_rows_sum_to_one(self, trained_run, capsys):
        code = main(["generate", "--checkpoint", str(trained_run / "model.ckpt"),
                     "--context", "i need help", "--trace", "--max-len", "6"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        trace_rows = [l for l in lines[2:] if l.strip()]
        assert trace_rows
        for row in trace_rows:
            weights = [float(v) for v in row.split()[1:]]
            assert len(weights) == 3  # 2 experts + chair
            assert sum(weights) == pytest.approx(1.0, abs=5e-4)  # printed at 4 decimals

    def test_empty_context_is_usage_error(self, trained_run, capsys):
        code = main(["generate", "--checkpoint", str(trained_run / "model.ckpt"),
                     "--context", "   "])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[usage]")


class TestGradcheckCommand:
    def test_oversized_hidden_refused(self, capsys):
        code = main(["gradcheck", "--hidden", "9"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[config]")

    @pytest.mark.parametrize("flags", [
        ["--vocab-size", "4"], ["--epsilon", "0"], ["--epsilon=-1e-5"], ["--epsilon", "inf"],
        ["--experts", "0"],
    ])
    def test_degenerate_sweep_is_usage_error(self, capsys, flags):
        code = main(["gradcheck", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[usage]")

    def test_sweep_without_experts_cannot_pass(self):
        # No experts means no gradcheck samples: the sweep is refused, not reported as zeros.
        with pytest.raises(DomainError, match="no samples"):
            run_gradcheck(num_experts=0, hidden=1, vocab_size=5)

    def test_clean_run_exits_zero_with_four_scheme_lines(self, capsys):
        code = main(["gradcheck", "--experts", "1", "--hidden", "2", "--vocab-size", "5"])
        assert code == 0
        out = capsys.readouterr().out
        scheme_lines = [l for l in out.splitlines() if l.startswith(("S1", "S2", "S3", "S4"))]
        assert len(scheme_lines) == 4
        assert all(" ok " in l for l in scheme_lines)

    def test_nan_gradient_exits_one(self, capsys, monkeypatch):
        original = L.project_backward

        def nan_coordinate(proj, *args):
            d_state = original(proj, *args)
            proj.a.grad.flat[0] = np.nan
            return d_state

        monkeypatch.setattr(L, "project_backward", nan_coordinate)
        assert main(["gradcheck", "--hidden", "2", "--vocab-size", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and " ok " not in out

    def test_injected_bug_exits_one(self, capsys, monkeypatch):
        import tokmoe.tensor as T
        original = T.tanh_backward
        monkeypatch.setattr(T, "tanh_backward", lambda grad, out: 2.0 * original(grad, out))
        code = main(["gradcheck", "--experts", "1", "--hidden", "2", "--vocab-size", "5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class Boundary:
    """Builds one boundary case's argv; files it writes go to its own directory."""

    def __init__(self, corpus_dir, trained_run, tmp, monkeypatch):
        self.corpus = corpus_dir
        self.run = trained_run
        self.tmp = tmp
        self.out = tmp / "out"
        self.monkeypatch = monkeypatch

    def file(self, name, content):
        path = self.tmp / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        return str(path)

    def train(self, *flags, corpus=None):
        return [
            "train", "--train", corpus or str(self.corpus / "train.jsonl"),
            "--valid", str(self.corpus / "valid.jsonl"), "--out", str(self.out),
            "--epochs", "1", "--hidden-size", "4", "--embedding-size", "3", "--vocab-cap", "60",
            *flags,
        ]

    def config(self, text):
        return self.train("--config", self.file("run.cfg", text))

    def env_seed(self, value):
        self.monkeypatch.setenv("TOKMOE_SEED", value)
        return self.train()

    def evaluate(self, corpus=None, checkpoint=None):
        return [
            "evaluate", "--checkpoint", checkpoint or str(self.run / "model.ckpt"),
            "--corpus", corpus or str(self.corpus / "test.jsonl"),
        ]

    @property
    def blob(self):
        """The trained checkpoint's bytes."""
        return (self.run / "model.ckpt").read_bytes()

    def appended(self, extra):
        """The bytes of the trained checkpoint with the tensor ``extra`` appended."""
        meta, tensors = C.load_tensors(self.run / "model.ckpt")
        C.save_tensors([*tensors, extra], self.tmp / "built.ckpt", meta)
        return (self.tmp / "built.ckpt").read_bytes()

    def checkpoint(self, blob):
        """Evaluate a checkpoint file holding ``blob``."""
        return self.evaluate(checkpoint=self.file("copy.ckpt", blob))

    def raw_header(self, header, footer=None):
        """Evaluate the trained checkpoint with its header bytes replaced."""
        return self.checkpoint(_framed(header, _split(self.blob)[1], footer))

    def header(self, edit, keep_footer=False):
        """Evaluate the trained checkpoint after ``edit`` changes its parsed header in place."""
        fields = json.loads(_split(self.blob)[0])
        edit(fields)
        return self.raw_header(json.dumps(fields).encode(), self.blob[-8:] if keep_footer else None)


def _split(blob):
    """A TOKMOE2 file's header bytes and payload bytes."""
    (length,) = struct.unpack_from("<Q", blob, 8)
    return blob[16:16 + length], blob[16 + length:-8]


def _framed(header, payload, footer=None):
    """A TOKMOE2 file of these parts; the footer is their checksum unless one is given."""
    body = C.MAGIC + struct.pack("<Q", len(header)) + header + payload
    return body + (footer or struct.pack("<Q", C.fnv1a64(body)))


def _flip_byte(blob, index):
    flipped = bytearray(blob)
    flipped[index] ^= 0x01
    return bytes(flipped)


_SAMPLE = '{"context": ["a"], "response": ["b"], "intent": "hotel", "goal": %s}\n'
_TOKENS_NOT_STRINGS = '{"context": [1, ["x"], {"a": 2}], "response": [null, "b"], "intent": "hotel"}\n'

BOUNDARY_CASES = [
    # Settings: every one is checked before any file is read.
    ("unknown-scheme", 1, "config", lambda c: c.config("scheme = S9\n")),
    ("unknown-variant", 1, "config", lambda c: c.config("variant = V9\n")),
    ("unknown-key", 1, "config", lambda c: c.config("dropout = 0.1\n")),
    ("bad-boolean", 1, "config", lambda c: c.config("single_module = maybe\n")),
    ("batch-size-0", 1, "config", lambda c: c.train("--batch-size", "0")),
    ("hidden-size-0", 1, "config", lambda c: c.train("--hidden-size", "0")),
    ("vocab-cap-3", 1, "config", lambda c: c.train("--vocab-cap", "3")),
    ("max-gen-len-flag", 1, "config", lambda c: c.train("--max-gen-len", "0")),
    ("max-gen-len-config", 1, "config", lambda c: c.config("max_gen_len = 0\n")),
    ("seed-flag", 1, "config", lambda c: c.train("--seed", "-1")),
    ("seed-config", 1, "config", lambda c: c.config("seed = -1\n")),
    ("seed-env-negative", 1, "config", lambda c: c.env_seed("-5")),
    ("seed-env-not-int", 1, "config", lambda c: c.env_seed("abc")),
    ("epochs-0", 1, "config", lambda c: c.train("--epochs", "0")),
    ("alpha-nan", 1, "config", lambda c: c.config("alpha = nan\n")),
    ("epsilon-0", 1, "config", lambda c: c.config("epsilon = 0\n")),
    ("l2-negative", 1, "config", lambda c: c.config("l2_weight = -1e-5\n")),
    ("clip-high-inf", 1, "config", lambda c: c.config("clip_high = inf\n")),
    ("settings-before-files", 1, "config",
     lambda c: c.train("--batch-size", "0", corpus=str(c.tmp / "missing.jsonl"))),
    # Files.
    ("config-not-utf8", 1, "parse", lambda c: c.config(b"seed = 1\xff\n")),
    ("config-duplicate-key", 1, "parse", lambda c: c.config("seed = 1\nseed = 2\n")),
    ("config-is-directory", 1, "io", lambda c: c.train("--config", str(c.tmp))),
    ("train-is-directory", 1, "io", lambda c: c.train(corpus=str(c.tmp))),
    ("train-not-utf8", 1, "parse", lambda c: c.train(corpus=c.file("t.jsonl", b"\xff\xfe\n"))),
    ("train-line-not-object", 1, "data", lambda c: c.train(corpus=c.file("t.jsonl", "5\n"))),
    ("train-line-too-deep", 1, "parse", lambda c: c.train(corpus=c.file("t.jsonl", "[" * 200_000 + "\n"))),
    ("goal-requested-not-list", 1, "data",
     lambda c: c.train(corpus=c.file("t.jsonl", _SAMPLE % '{"requested": 5}'))),
    ("goal-entity-not-string", 1, "data",
     lambda c: c.train(corpus=c.file("t.jsonl", _SAMPLE % '{"entity": ["q"]}'))),
    ("train-token-not-string", 1, "data",
     lambda c: c.train(corpus=c.file("t.jsonl", _TOKENS_NOT_STRINGS))),
    ("out-is-file", 1, "io", lambda c: c.train("--out", c.file("taken", "x"))),
    ("corpus-is-directory", 1, "io", lambda c: c.evaluate(corpus=str(c.tmp))),
    ("corpus-line-not-object", 1, "data", lambda c: c.evaluate(corpus=c.file("t.jsonl", "5\n"))),
    ("corpus-line-too-deep", 1, "parse", lambda c: c.evaluate(corpus=c.file("t.jsonl", "[" * 200_000 + "\n"))),
    ("corpus-token-not-string", 1, "data",
     lambda c: c.evaluate(corpus=c.file("t.jsonl", _TOKENS_NOT_STRINGS))),
    ("valid-corpus-empty", 1, "data", lambda c: c.train("--valid", c.file("empty.jsonl", ""))),
    ("evaluate-corpus-empty", 1, "data", lambda c: c.evaluate(corpus=c.file("empty.jsonl", ""))),
    # A width whose tensors numpy cannot describe: refused when the model is built, before any allocation.
    ("train-width-too-large", 1, "config", lambda c: c.train("--hidden-size", "1000000000000")),
    # Checkpoint framing: the footer is the checksum of every byte before it.
    ("flipped-checkpoint-byte", 1, "integrity", lambda c: c.checkpoint(_flip_byte(c.blob, len(c.blob) // 2))),
    ("header-byte-flipped", 1, "integrity", lambda c: c.checkpoint(_flip_byte(c.blob, 20))),  # header from 16
    ("footer-byte-flipped", 1, "integrity", lambda c: c.checkpoint(_flip_byte(c.blob, len(c.blob) - 1))),
    ("truncated-in-header", 1, "integrity", lambda c: c.checkpoint(c.blob[:40])),
    ("truncated-in-payload", 1, "integrity", lambda c: c.checkpoint(c.blob[:len(c.blob) // 2])),
    ("trailing-bytes", 1, "integrity", lambda c: c.checkpoint(c.blob + bytes(8))),
    ("header-length-past-end", 1, "integrity",
     lambda c: c.checkpoint(c.blob[:8] + struct.pack("<Q", len(c.blob)) + c.blob[16:])),
    ("bad-magic", 1, "integrity", lambda c: c.checkpoint(b"NOTMAGIC" + c.blob[8:])),
    ("tokmoe1-file", 1, "integrity", lambda c: c.checkpoint(b"TOKMOE1\n" + c.blob[8:])),
    # Header edits under the original footer: the checksum covers the header.
    ("header-tokens-swapped", 1, "integrity",
     lambda c: c.header(lambda h: h.update(tokens=h["tokens"][:4] + h["tokens"][5:3:-1] + h["tokens"][6:]),
                        keep_footer=True)),
    ("header-intents-reversed", 1, "integrity",
     lambda c: c.header(lambda h: h["intents"].reverse(), keep_footer=True)),
    # Header edits under a recomputed checksum, each reaching its field check.
    ("header-not-object", 1, "integrity", lambda c: c.raw_header(b"[1, 2]")),
    ("tensors-entry-malformed", 1, "integrity", lambda c: c.header(lambda h: h["tensors"][0][1].append("4"))),
    ("tensors-past-payload", 1, "integrity", lambda c: c.header(lambda h: h["tensors"][0][1].append(2))),
    ("header-not-json", 1, "integrity", lambda c: c.raw_header(b"{not json")),
    ("tensor-name-not-utf8", 1, "integrity",
     lambda c: c.raw_header(_split(c.blob)[0].replace(b'"embedding.', b'"\xffmbedding.'))),
    ("header-disowns-attention", 1, "integrity",
     lambda c: c.header(lambda h: h["variant"].update(attention_enabled=False))),
    ("header-duplicate-token", 1, "integrity",
     lambda c: c.header(lambda h: h.update(tokens=h["tokens"][:5] + h["tokens"][4:5] + h["tokens"][6:]))),
    ("header-specials-out-of-order", 1, "integrity",
     lambda c: c.header(lambda h: h.update(tokens=h["tokens"][1::-1] + h["tokens"][2:]))),
    ("header-negative-experts", 1, "integrity", lambda c: c.header(lambda h: h.update(num_experts=-1))),
    # The tensors still match num_experts; only the intent count disagrees with it.
    ("header-experts-not-intents", 1, "integrity",
     lambda c: c.header(lambda h: h.update(intents=h["intents"] + ["spare"]))),
    ("header-duplicate-intent", 1, "integrity",
     lambda c: c.header(lambda h: h.update(intents=h["intents"][:1] * 2))),
    # A wider model than the tensors hold: refused before that model is allocated.
    ("header-claims-larger-width", 1, "integrity",
     lambda c: c.header(lambda h: h["variant"].update(hidden_size=256))),
    # An S3 model holds no gate, so the trained S4 run's gate tensors are not its tensors.
    ("header-scheme-s3", 1, "integrity", lambda c: c.header(lambda h: h.update(scheme="S3"))),
    ("archive-extra-tensor", 1, "integrity",
     lambda c: c.checkpoint(c.appended(("extra", np.zeros(1))))),
    # Flags checked before any file is read: the checkpoint named here does not exist.
    ("evaluate-max-len-0", 2, "usage",
     lambda c: [*c.evaluate(checkpoint=str(c.tmp / "missing.ckpt")), "--max-len", "0"]),
    ("generate-max-len-negative", 2, "usage",
     lambda c: ["generate", "--checkpoint", str(c.tmp / "missing.ckpt"), "--context", "a",
                "--max-len", "-2"]),
    ("gradcheck-vocab-size-4", 2, "usage", lambda c: ["gradcheck", "--vocab-size", "4"]),
    ("gradcheck-seed", 2, "usage", lambda c: ["gradcheck", "--seed", "-1"]),
]


class TestBoundary:
    @pytest.mark.parametrize(
        "exit_code,error_code,build",
        [pytest.param(*case[1:], id=case[0]) for case in BOUNDARY_CASES],
    )
    def test_fails_closed(
        self, corpus_dir, trained_run, tmp_path, monkeypatch, capsys, exit_code, error_code, build
    ):
        case = Boundary(corpus_dir, trained_run, tmp_path, monkeypatch)
        assert main(build(case)) == exit_code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "epoch" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error[{error_code}]"), err
        assert not (case.out / "model.ckpt").exists()

    @pytest.mark.parametrize(
        "build", [pytest.param(case[3], id=case[0]) for case in BOUNDARY_CASES if case[2] == "integrity"],
    )
    def test_checkpoint_fails_closed_in_generate(
        self, corpus_dir, trained_run, tmp_path, monkeypatch, capsys, build
    ):
        argv = build(Boundary(corpus_dir, trained_run, tmp_path, monkeypatch))
        checkpoint = argv[argv.index("--checkpoint") + 1]
        assert main(["generate", "--checkpoint", checkpoint, "--context", "i need help"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[integrity]"), err

    @pytest.mark.parametrize("hidden", [64, 256, 10**12])
    def test_header_width_claim_loads_in_bounded_memory(
        self, corpus_dir, trained_run, tmp_path, monkeypatch, hidden
    ):
        # The model a header describes grows with the square of its width; the file does not.
        argv = Boundary(corpus_dir, trained_run, tmp_path, monkeypatch).header(
            lambda h: h["variant"].update(hidden_size=hidden)
        )
        tracemalloc.start()
        try:
            with pytest.raises(IntegrityError, match="differ in name, order or shape"):
                C.load_model(argv[argv.index("--checkpoint") + 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("command,exc", [
        ("train", MemoryError()),
        ("evaluate", MemoryError("Unable to allocate 8.00 EiB for an array")),
    ], ids=["train", "evaluate"])
    def test_memory_error_is_one_error_line(
        self, corpus_dir, trained_run, tmp_path, monkeypatch, capsys, command, exc
    ):
        def out_of_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(M, "init_model", out_of_memory)
        monkeypatch.setattr(C, "load_model", out_of_memory)
        case = Boundary(corpus_dir, trained_run, tmp_path, monkeypatch)
        assert main(case.train() if command == "train" else case.evaluate()) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.splitlines() == [f"error[memory]: {str(exc) or 'out of memory'}"]

    def test_non_finite_loss_stops_before_optimizer_step(
        self, corpus_dir, tmp_path, monkeypatch, capsys
    ):
        original = M.init_model

        def nan_bos_row(*args, **kwargs):
            params = original(*args, **kwargs)
            params.embedding.matrix.value[BOS_ID] = np.nan
            return params

        monkeypatch.setattr(M, "init_model", nan_bos_row)
        case = Boundary(corpus_dir, None, tmp_path, monkeypatch)
        assert main(case.train()) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error[domain]: epoch 1, batch 1: non-finite loss nan")
        assert "epoch" not in captured.out
        assert not (case.out / "model.ckpt").exists()


def _config_of(argv):
    return _build_run_config(build_parser().parse_args(["train", *argv]))


class TestRunConfig:
    @pytest.mark.parametrize("argv,check", [
        ([], lambda c: c == RunConfig()),
        (["--variant", "V3", "--hidden-size", "7"],
         lambda c: (c.variant, c.model.hidden_size, c.model.attn_size) == ("V3", 7, 7)),
        (["--no-attention"], lambda c: c.model.attention_enabled is False),
        (["--single-module", "--scheme", "S3"], lambda c: c.single_module and c.scheme == "S3"),
        (["--config", "FILE"],
         lambda c: (c.optimizer.alpha, c.model.gate_hidden, c.model.attn_size,
                    c.optimizer.clip_low) == (0.01, 5, 6, -2.0)),
    ], ids=["defaults", "v3-hidden", "no-attention", "single-module", "file-only-keys"])
    def test_mapping_round_trip(self, tmp_path, monkeypatch, argv, check):
        monkeypatch.delenv("TOKMOE_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.01\ngate_hidden = 5\nattn_size = 6\nclip_low = -2\n")
        config = _config_of([str(cfg) if a == "FILE" else a for a in argv])
        assert check(config)
        assert RunConfig.from_mapping(config.to_mapping()) == config

    def test_precedence_file_then_flag_then_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TOKMOE_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        assert _config_of(["--config", str(cfg)]).seed == 1
        assert _config_of(["--config", str(cfg), "--seed", "2"]).seed == 2
        monkeypatch.setenv("TOKMOE_SEED", "3")
        assert _config_of(["--config", str(cfg), "--seed", "2"]).seed == 3

    def test_snapshot_replays_from_another_directory(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.delenv("TOKMOE_SEED", raising=False)
        # The snapshot holds absolute paths, and a '#' inside a value does not start a comment.
        first, second = tmp_path / "h#1", tmp_path / "b"
        shutil.copytree(corpus_dir, first / "corpus")
        second.mkdir()
        monkeypatch.chdir(first)
        assert main([
            "train", "--train", "corpus/train.jsonl", "--valid", "corpus/valid.jsonl",
            "--test", "corpus/test.jsonl", "--out", "run", "--epochs", "1",
            "--hidden-size", "4", "--embedding-size", "3", "--vocab-cap", "60",
        ]) == 0
        monkeypatch.chdir(second)
        assert main(["train", "--config", str(first / "run" / "config.snapshot"), "--out", "other"]) == 0
        assert (second / "other" / "model.ckpt").read_bytes() == (first / "run" / "model.ckpt").read_bytes()

    def test_snapshot_reproduces_checkpoint(self, trained_run, workdir, monkeypatch):
        monkeypatch.delenv("TOKMOE_SEED", raising=False)
        out = workdir / "rerun"
        code = main(["train", "--config", str(trained_run / "config.snapshot"), "--out", str(out)])
        assert code == 0
        assert (out / "model.ckpt").read_bytes() == (trained_run / "model.ckpt").read_bytes()


def train_checkpoints_at_one_and_two_threads(tmp_path, synth_flags, train_flags):
    """The ``model.ckpt`` bytes of one ``train`` run per OPENBLAS_NUM_THREADS value, 1 then 2,
    each in a fresh process that imports tokmoe before numpy."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), *synth_flags]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    blobs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("TOKMOE_SEED", None)
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "tokmoe.cli", "train", "--train", str(corpus / "train.jsonl"),
             "--out", str(out), "--epochs", "1", *train_flags],
            env=env, check=True, capture_output=True, timeout=600,
        )
        blobs.append((out / "model.ckpt").read_bytes())
    return blobs


class TestBlasThreadCount:
    def test_paper_width_checkpoint_is_byte_equal_at_one_and_two_threads(self, tmp_path):
        # tokmoe pins BLAS to one thread before numpy loads, so no GEMM over a group's
        # rows depends on how a threaded BLAS would split it.
        blobs = train_checkpoints_at_one_and_two_threads(
            tmp_path, ["--intents", "3", "--per-intent", "3", "--shared-vocab", "150",
                       "--per-intent-vocab", "150", "--seed", "3"], ["--batch-size", "4"])
        assert blobs[0] == blobs[1]

    def test_vocab_400_checkpoint_is_byte_equal_at_one_and_two_threads(self, tmp_path):
        # At vocabulary 400 and hidden 150 the gate's (T, 2200) @ (2200, 128) GEMM, among
        # others, gives other bits on two OpenBLAS threads than on one.
        blobs = train_checkpoints_at_one_and_two_threads(
            tmp_path, ["--intents", "3", "--per-intent", "64", "--shared-vocab", "150",
                       "--per-intent-vocab", "150", "--seed", "0"], ["--batch-size", "64"])
        assert blobs[0] == blobs[1]
