"""End-to-end command behavior: files, exit codes, error stream prefixes."""

import json


import pytest

from tokmoe.cli import main


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
        assert (trained_run / "model.ckpt").exists()
        assert (trained_run / "model.meta.json").exists()
        assert (trained_run / "config.snapshot").exists()
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert len(manifest["history"]) == 2
        assert manifest["seed"] == 3
        assert set(manifest["corpus_checksums"]) == {"train", "valid"}
        assert all(r["valid_score"] is not None for r in manifest["history"])

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_zero_max_gen_len_fails_before_training(self, corpus_dir, workdir, capsys, source):
        out = workdir / f"r6-{source}"
        argv = [
            "train", "--train", str(corpus_dir / "train.jsonl"),
            "--valid", str(corpus_dir / "valid.jsonl"), "--out", str(out),
            "--epochs", "1", "--hidden-size", "4", "--embedding-size", "3", "--vocab-cap", "60",
        ]
        if source == "flag":
            argv += ["--max-gen-len", "0"]
        else:
            cfg = workdir / "zero-gen.cfg"
            cfg.write_text("max_gen_len = 0\n")
            argv += ["--config", str(cfg)]
        code = main(argv)
        assert code == 1
        captured = capsys.readouterr()
        assert "epoch" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[config]")
        assert not (out / "model.ckpt").exists()

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

    def test_corrupted_checkpoint_is_integrity_error(self, trained_run, corpus_dir, workdir, capsys):
        blob = bytearray((trained_run / "model.ckpt").read_bytes())
        blob[len(blob) // 2] ^= 0x01
        bad = workdir / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        meta = (trained_run / "model.meta.json").read_text()
        (workdir / "bad.meta.json").write_text(meta)
        code = main(["evaluate", "--checkpoint", str(bad),
                     "--corpus", str(corpus_dir / "test.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[integrity]")

    @pytest.mark.parametrize("name,corrupt", [
        ("malformed", lambda meta: "{not json"),
        ("no-variant", lambda meta: json.dumps({k: v for k, v in meta.items() if k != "variant"})),
        ("unknown-scheme", lambda meta: json.dumps({**meta, "scheme": "S9"})),
    ])
    def test_corrupted_sidecar_is_one_error_line(
        self, trained_run, corpus_dir, workdir, capsys, name, corrupt
    ):
        bad = workdir / f"side-{name}.ckpt"
        bad.write_bytes((trained_run / "model.ckpt").read_bytes())
        meta = json.loads((trained_run / "model.meta.json").read_text())
        (workdir / f"side-{name}.meta.json").write_text(corrupt(meta))
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
        ["--vocab-size", "4"], ["--epsilon", "0"], ["--epsilon=-1e-5"], ["--experts", "0"],
    ])
    def test_degenerate_sweep_is_usage_error(self, capsys, flags):
        code = main(["gradcheck", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[usage]")

    def test_clean_run_exits_zero_with_four_scheme_lines(self, capsys):
        code = main(["gradcheck", "--hidden", "2", "--vocab-size", "5"])
        assert code == 0
        out = capsys.readouterr().out
        scheme_lines = [l for l in out.splitlines() if l.startswith(("S1", "S2", "S3", "S4"))]
        assert len(scheme_lines) == 4
        assert all(" ok " in l for l in scheme_lines)

    def test_injected_bug_exits_one(self, capsys, monkeypatch):
        import tokmoe.tensor as T
        original = T.tanh_backward
        monkeypatch.setattr(T, "tanh_backward", lambda grad, out: 2.0 * original(grad, out))
        code = main(["gradcheck", "--hidden", "2", "--vocab-size", "5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
