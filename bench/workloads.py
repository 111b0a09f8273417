"""The benchmark's workloads: inputs made from a seed, one timed job, output checks.

A workload does its set-up in ``__init__`` (corpus synthesis, vocabulary,
encoding, ``init_model``). ``job()`` then runs one unit of work through
tokmoe's public functions, the way a user's command would, and returns the
clock readings that bracket the timed work. ``check()`` verifies that job's outputs afterwards, outside the
timed region and outside any traced span window; every check is counted in
``Checks``, so a failure is reported, never dropped.

The shapes live in ``workloads.json`` beside this file, together with the
reference losses; each workload's reason is in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import time
from pathlib import Path

import numpy as np

from tokmoe import checkpoint, cli, data, metrics, model, training
from tokmoe.config import OptimizerConfig, SchemeConfig, VariantConfig

SPECS: dict = json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))

# The gradient oracle's contract; kept here so that the program cannot
# loosen the bound this benchmark checks.
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_COMBINATIONS = 16

clock = time.perf_counter


class Checks:
    """Counts every output check made in a run and keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def config_for(name: str, smoke: bool) -> dict:
    """The workload's shape; ``model_of`` names a workload whose model it reuses."""
    spec = SPECS[name]
    cfg = config_for(spec["model_of"], smoke) if "model_of" in spec else {}
    cfg.update(spec["config"])
    if smoke:
        cfg.update(spec["smoke"])
    return cfg


def _corpus(cfg: dict, seed: int):
    if cfg.get("corpus_seed") is not None:
        seed = cfg["corpus_seed"]
    spec = data.SynthSpec(
        intents=cfg["intents"],
        shared_vocab=cfg["shared_vocab"],
        per_intent_vocab=cfg["per_intent_vocab"],
        samples_per_intent=cfg["samples_per_intent"],
        context_len=tuple(cfg["context_len"]),
        response_len=tuple(cfg["response_len"]),
        seed=seed,
    )
    train, valid, test = data.generate_synthetic_splits(spec)
    vocab = data.Vocabulary.build(train, cap=cfg["vocab_cap"])
    return train, valid, test, vocab


def _init(cfg: dict, vocab_size: int, seed: int) -> model.ModelParams:
    variant = VariantConfig(
        hidden_size=cfg["hidden_size"],
        embedding_size=cfg["embedding_size"],
        gate_hidden=cfg["gate_hidden"],
        gate_out=cfg["gate_out"],
    )
    return model.init_model(vocab_size, cfg["intents"], variant, seed)


def _param_count(params: model.ModelParams) -> int:
    return sum(slot.value.size for slot in params.slots())


# ---------------------------------------------------------------------------
# Training: desk-train and paper-train


class TrainWorkload:
    """One job is ``train_run`` for a fixed number of epochs from seeded init."""

    def __init__(self, cfg: dict, seed: int, checks: Checks, workdir: Path) -> None:
        self.cfg, self.seed, self.checks = cfg, seed, checks
        train, _, _, self.vocab = _corpus(cfg, seed)
        self.encoded = data.encode_corpus(self.vocab, train)
        self.expert_of = training.expert_index_map(sorted(training.partition_by_intent(train)))
        self.params = _init(cfg, len(self.vocab), seed)
        self.scheme = SchemeConfig.from_name(cfg["scheme"])
        self.opt = OptimizerConfig(batch_size=cfg["batch_size"])
        self.initial = [slot.value.copy() for slot in self.params.slots()]
        self.first_losses: list[float] | None = None
        self.history: list = []
        self.tokens = 0

    def job(self) -> tuple[float, float]:
        for slot, value in zip(self.params.slots(), self.initial):
            slot.value[...] = value
        start = clock()
        result = training.train_run(
            self.params, self.encoded, self.scheme, self.opt,
            self.cfg["epochs_per_job"], self.seed, self.expert_of,
        )
        end = clock()
        self.history = result.history
        self.tokens = sum(record.report.token_count for record in result.history)
        return start, end

    def check(self) -> None:
        losses = [record.report.total for record in self.history]
        for epoch, loss in enumerate(losses, start=1):
            self.checks.check(math.isfinite(loss), f"epoch {epoch} loss {loss} is not finite")
        if self.first_losses is None:
            self.first_losses = losses
        else:
            self.checks.check(losses == self.first_losses, "a rerun from the same seed gave other losses")

    def work_tokens(self) -> tuple[str, int]:
        return "trained response tokens", self.tokens

    def properties(self) -> dict:
        return {
            "k": self.cfg["intents"],
            "hidden": self.cfg["hidden_size"],
            "embedding": self.cfg["embedding_size"],
            "gate": [self.cfg["gate_hidden"], self.cfg["gate_out"]],
            "batch": self.cfg["batch_size"],
            "vocabulary": len(self.vocab),
            "samples": len(self.encoded),
            "response_tokens_per_epoch": sum(len(s.response_ids) for s in self.encoded),
            "epochs_per_job": self.cfg["epochs_per_job"],
            "parameters": _param_count(self.params),
        }


def train_reference(name: str, checks: Checks) -> float:
    """Train the recorded reference case and compare its final loss.

    The case uses the full-size shape at a fixed seed, so it catches a change
    in the training arithmetic whatever seed the measured jobs use. The loss
    is compared within a relative tolerance, not bitwise, because a change
    of summation order is allowed to move its last digits.
    """
    ref = SPECS[name]["reference"]
    cfg = config_for(name, smoke=False)
    train, _, _, vocab = _corpus(cfg, ref["seed"])
    encoded = data.encode_corpus(vocab, train)
    if ref["samples"] is not None:
        encoded = encoded[: ref["samples"]]
    expert_of = training.expert_index_map(sorted(training.partition_by_intent(train)))
    params = _init(cfg, len(vocab), ref["seed"])
    result = training.train_run(
        params, encoded, SchemeConfig.from_name(cfg["scheme"]),
        OptimizerConfig(batch_size=cfg["batch_size"]), ref["epochs"], ref["seed"], expert_of,
    )
    loss = result.history[-1].report.total
    expected = ref["final_loss"]
    checks.check(
        expected is not None and abs(loss - expected) <= ref["rel_tol"] * abs(expected),
        f"reference final loss {loss!r}, recorded {expected!r} (relative tolerance {ref['rel_tol']})",
    )
    return loss


# ---------------------------------------------------------------------------
# Serving: paper-serve


class ServeWorkload:
    """One job greedy-decodes every context and scores the responses."""

    def __init__(self, cfg: dict, seed: int, checks: Checks, workdir: Path) -> None:
        self.cfg, self.checks = cfg, checks
        train, valid, test, self.vocab = _corpus(cfg, seed)
        self.params = _init(cfg, len(self.vocab), seed)
        pool = data.encode_corpus(self.vocab, data.Corpus(train.samples + valid.samples + test.samples))
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(pool), size=cfg["contexts"], replace=False)
        # Each context gets its own max_len, a seeded permutation of an even
        # spread over the range, so the seed varies response lengths but not
        # the number of tokens an untrained model generates in a job.
        low, high = cfg["max_len"]
        lengths = rng.permutation(np.linspace(low, high, len(picks)).round().astype(int))
        self.requests = [(pool[i], int(n)) for i, n in zip(picks, lengths)]
        self.first_outputs: list[list[int]] | None = None
        self.last: tuple = ()
        self.tokens = 0

    def job(self) -> tuple[float, float]:
        start = clock()
        outputs = [model.greedy_decode(self.params, enc.context_ids, max_len) for enc, max_len in self.requests]
        generated = [self.vocab.decode_ids(ids) for ids in outputs]
        report = metrics.build_report([enc.sample for enc, _ in self.requests], generated)
        end = clock()
        self.last = (outputs, report)
        self.tokens = sum(len(ids) for ids in outputs)
        return start, end

    def check(self) -> None:
        outputs, report = self.last
        check = self.checks.check
        vocab_size = len(self.vocab)
        for (enc, max_len), ids in zip(self.requests, outputs):
            check(
                1 <= len(ids) <= max_len and all(0 <= t < vocab_size for t in ids),
                f"decode of max_len {max_len} gave {len(ids)} ids or an id outside the vocabulary",
            )
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            check(outputs == self.first_outputs, "a repeated job decoded other ids")
        for (enc, max_len), ids in list(zip(self.requests, outputs))[:3]:
            again = model.greedy_decode(self.params, enc.context_ids, max_len)
            check(again == ids, "a repeat decode of the same context gave other ids")
        overall = report.overall
        check(
            all(0.0 <= v <= 1.0 for v in (overall.inform, overall.success, overall.bleu))
            and overall.count == len(self.requests),
            "build_report gave a rate outside [0, 1] or a wrong count",
        )

    def work_tokens(self) -> tuple[str, int]:
        return "generated tokens", self.tokens

    def properties(self) -> dict:
        lengths = [max_len for _, max_len in self.requests]
        return {
            "k": self.cfg["intents"],
            "hidden": self.cfg["hidden_size"],
            "embedding": self.cfg["embedding_size"],
            "gate": [self.cfg["gate_hidden"], self.cfg["gate_out"]],
            "vocabulary": len(self.vocab),
            "contexts": len(self.requests),
            "max_len_range": [min(lengths), max(lengths)],
            "max_len_total": sum(lengths),
            "parameters": _param_count(self.params),
        }


# ---------------------------------------------------------------------------
# Checkpoint I/O: paper-ckpt


def io_counters() -> tuple[int, int, int]:
    """This process's (rchar, wchar) from /proc/self/io, and the bytes read to get them.

    rchar and wchar count the bytes that read- and write-family system calls
    moved, so they record what the program did, not what the files hold.
    Reading the counters is itself a read: it shows in the next reading of
    rchar, so a caller subtracts the third value.
    """
    text = Path("/proc/self/io").read_bytes()
    fields = dict(line.split(b": ") for line in text.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(text)


class CheckpointWorkload:
    """One job is ``save_model`` then ``load_model`` of the fixed paper-shape model."""

    def __init__(self, cfg: dict, seed: int, checks: Checks, workdir: Path) -> None:
        self.cfg, self.checks, self.workdir = cfg, checks, workdir
        train, _, _, self.vocab = _corpus(cfg, seed)
        self.intents = sorted(training.partition_by_intent(train))
        self.params = _init(cfg, len(self.vocab), seed)
        self.jobs = 0
        self.loaded: tuple = ()
        self.checkpoint_bytes = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def job(self) -> tuple[float, float]:
        self.jobs += 1
        directory = self.workdir / f"ckpt-{self.jobs}"
        directory.mkdir(parents=True)
        path = directory / "model.ckpt"
        read0, written0, probe = io_counters()
        start = clock()
        checkpoint.save_model(self.params, path, self.vocab.id_to_token, self.intents, self.cfg["scheme"])
        self.loaded = checkpoint.load_model(path)
        end = clock()
        read1, written1, _ = io_counters()
        self.bytes_read = read1 - read0 - probe
        self.bytes_written = written1 - written0
        self.checkpoint_bytes = sum(f.stat().st_size for f in directory.iterdir())
        shutil.rmtree(directory)
        return start, end

    def check(self) -> None:
        loaded, meta = self.loaded
        check = self.checks.check
        saved = {slot.name: slot.value for slot in self.params.slots()}
        restored = {slot.name: slot.value for slot in loaded.slots()}
        check(saved.keys() == restored.keys(), "load_model returned other tensor names")
        for name, value in saved.items():
            back = restored.get(name)
            check(
                back is not None and back.shape == value.shape and back.tobytes() == value.tobytes(),
                f"tensor {name} is not bit-equal after save and load",
            )
        check(
            meta["tokens"] == self.vocab.id_to_token and meta["intents"] == self.intents,
            "load_model returned another vocabulary or intent order",
        )

    def work_tokens(self) -> tuple[str, int]:
        return "", 0

    def properties(self) -> dict:
        return {
            "vocabulary": len(self.vocab),
            "parameters": _param_count(self.params),
            "checkpoint_bytes": self.checkpoint_bytes,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
        }


# ---------------------------------------------------------------------------
# Gradient oracle: gradcheck


class GradcheckWorkload:
    """One job is the ``tokmoe gradcheck`` command: the 16-combination sweep."""

    def __init__(self, cfg: dict, seed: int, checks: Checks, workdir: Path) -> None:
        self.checks = checks
        self.argv = ["gradcheck", "--seed", str(seed), *cfg["args"]]
        self.last: tuple = ()

    def job(self) -> tuple[float, float]:
        out = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        end = clock()
        self.last = (code, out.getvalue())
        return start, end

    def check(self) -> None:
        code, printed = self.last
        self.checks.check(code == 0, f"tokmoe {' '.join(self.argv)} exited with {code}")
        errors = re.findall(r"\b(?:base|V\d)=([0-9.eE+-]+)", printed)
        self.checks.check(
            len(errors) == GRADCHECK_COMBINATIONS,
            f"gradcheck printed {len(errors)} combinations, expected {GRADCHECK_COMBINATIONS}",
        )
        for err in errors:
            self.checks.check(float(err) < GRADCHECK_TOLERANCE, f"gradcheck relative error {err}")

    def work_tokens(self) -> tuple[str, int]:
        return "", 0

    def properties(self) -> dict:
        return {"command": "tokmoe " + " ".join(self.argv), "combinations": GRADCHECK_COMBINATIONS}


WORKLOADS = {
    "desk-train": TrainWorkload,
    "paper-train": TrainWorkload,
    "paper-serve": ServeWorkload,
    "paper-ckpt": CheckpointWorkload,
    "gradcheck": GradcheckWorkload,
}


def build(name: str, seed: int, smoke: bool, checks: Checks, workdir: Path):
    return WORKLOADS[name](config_for(name, smoke), seed, checks, workdir)


def reference(name: str, checks: Checks) -> None:
    """Run the workload's fixed-seed reference check, where it has one."""
    if "reference" in SPECS[name]:
        train_reference(name, checks)
