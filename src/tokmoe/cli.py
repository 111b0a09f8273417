"""Command-line entry point: synth, train, evaluate, generate, gradcheck.

Every command is deterministic given its flags, seed, and input files.
``train`` settings layer a ``key = value`` file, the flags given (each
``dest`` is a config key) and TOKMOE_SEED, later layers winning, and are all
checked before any file is read. Errors, the parser's own included, print one
``error[<code>]: message`` line on stderr; exit code 0 means success, 2 bad
usage, 1 any other failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Callable, NoReturn

from . import checkpoint as ckpt
from . import data as D
from . import metrics as MX
from . import model as M
from . import training as TR
from .config import (
    SCHEME_NAMES,
    VARIANT_NAMES,
    RunConfig,
    SchemeConfig,
    VariantConfig,
    parse_config_file,
    write_atomic,
    write_config_file,
)
from .errors import ConfigError, TokmoeError, UsageError

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_MAX_HIDDEN = 8


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _decode_and_score(
    params: M.ModelParams, vocab: D.Vocabulary, encoded: list[D.EncodedSample], max_len: int
) -> MX.MetricsReport:
    """Greedy-decode every sample's context and score the responses against the samples."""
    generated = [vocab.decode_ids(M.greedy_decode(params, s.context_ids, max_len)) for s in encoded]
    return MX.build_report([s.sample for s in encoded], generated)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args: argparse.Namespace) -> int:
    spec = D.SynthSpec(
        intents=args.intents,
        shared_vocab=args.shared_vocab,
        per_intent_vocab=args.per_intent_vocab,
        samples_per_intent=args.per_intent,
        context_len=(args.context_min, args.context_max),
        response_len=(args.response_min, args.response_max),
        seed=args.seed,
    )
    train, valid, test = D.generate_synthetic_splits(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for corpus, name in ((train, "train"), (valid, "valid"), (test, "test")):
        D.save_corpus_jsonl(corpus, out / f"{name}.jsonl")
        print(f"{name}: {len(corpus)} samples -> {out / (name + '.jsonl')}")
    return 0


# ---------------------------------------------------------------------------
# train


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file, then the flags given, then TOKMOE_SEED; checked in one place."""
    mapping = parse_config_file(args.config) if args.config else {}
    mapping.update(
        (key, str(value)) for key, value in vars(args).items()
        if key not in ("command", "func", "config") and value is not None
    )
    env_seed = os.environ.get("TOKMOE_SEED")
    if env_seed is not None:
        try:
            int(env_seed)
        except ValueError:
            raise ConfigError(f"TOKMOE_SEED must be an integer, got {env_seed!r}") from None
        mapping["seed"] = env_seed
    return RunConfig.from_mapping(mapping)


def cmd_train(args: argparse.Namespace) -> int:
    config = _build_run_config(args)
    # Absolute corpus paths let the snapshot replay the run from any directory.
    paths = {key: os.path.abspath(value) for key, value in config.to_mapping().items()
             if key.endswith("_path") and value}
    config = dataclasses.replace(config, **paths)
    if not config.train_path:
        raise ConfigError("train_path not set (use --train or the config file)")
    train_corpus = D.load_corpus_jsonl(config.train_path)
    valid_corpus = D.load_corpus_jsonl(config.valid_path) if config.valid_path else None
    # Hashed now, so the manifest names the corpora trained on, even if a file changes later.
    checksums = {"train": _sha256(Path(config.train_path))}
    if config.valid_path:
        checksums["valid"] = _sha256(Path(config.valid_path))
    vocab = D.Vocabulary.build(train_corpus, cap=config.vocab_cap)
    encoded = D.encode_corpus(vocab, train_corpus)
    intents = sorted(TR.partition_by_intent(train_corpus))
    expert_of = TR.expert_index_map(intents)
    scheme = SchemeConfig.from_name(config.scheme)
    num_experts = 0 if config.single_module else len(intents)
    params = M.init_model(len(vocab), num_experts, config.model, config.seed, scheme)

    valid_scorer = None
    if valid_corpus:
        valid_encoded = D.encode_corpus(vocab, valid_corpus)

        def valid_scorer(p: M.ModelParams) -> float:
            return _decode_and_score(p, vocab, valid_encoded, config.max_gen_len).overall.score

    def progress(record: TR.EpochRecord) -> None:
        report = record.report
        line = (
            f"epoch {record.epoch:>3}  total {report.total:.4f}  "
            f"chair {report.chair_loss:.4f}  experts "
            + "/".join(f"{v:.4f}" for v in report.expert_losses)
        )
        if record.valid_score is not None:
            line += f"  val_score {record.valid_score:.2f}"
        print(line)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad --out fails before any epoch
    result = TR.train_run(
        params, encoded, scheme, config.optimizer, config.epochs, config.seed, expert_of,
        valid_scorer=valid_scorer, progress=progress,
    )

    accuracy = TR.teacher_forced_accuracy(params, encoded)
    print(f"train teacher-forced accuracy: {accuracy:.4f}")

    ckpt_path = out_dir / "model.ckpt"
    ckpt.save_model(params, ckpt_path, vocab.id_to_token, intents, config.scheme)
    write_config_file(config, out_dir / "config.snapshot")

    manifest = {
        "config": config.to_mapping(),
        "seed": config.seed,
        "corpus_checksums": checksums,
        "checkpoint": ckpt_path.name,
        "best_epoch": result.best_epoch,
        "best_valid_score": result.best_score,
        "train_accuracy": accuracy,
        "history": [
            {
                "epoch": r.epoch,
                "total": r.report.total,
                "chair_loss": r.report.chair_loss,
                "expert_losses": r.report.expert_losses,
                "valid_score": r.valid_score,
            }
            for r in result.history
        ],
    }
    manifest_path = out_dir / "manifest.json"
    write_atomic(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    print(f"checkpoint: {ckpt_path}")
    print(f"manifest:   {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _load_checkpoint(path: str) -> tuple[M.ModelParams, D.Vocabulary]:
    params, meta = ckpt.load_model(path)
    return params, D.Vocabulary(meta["tokens"])


def cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = D.load_corpus_jsonl(args.corpus)
    params, vocab = _load_checkpoint(args.checkpoint)
    report = _decode_and_score(params, vocab, D.encode_corpus(vocab, corpus), args.max_len)
    print(report.to_json() if args.json else report.to_table())
    return 0


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    tokens = args.context.split()
    if not tokens:
        raise UsageError("context must contain at least one token")
    params, vocab = _load_checkpoint(args.checkpoint)
    context_ids = vocab.encode_tokens(tokens)
    ids = M.greedy_decode(params, context_ids, args.max_len)
    print(" ".join(vocab.decode_ids(ids)))
    if args.trace:
        betas = M.forward_teacher_forced(params, [context_ids], [ids]).readout.beta
        names = [params.decoder_name(i) for i in range(params.num_decoders)]
        print("# gating weights per generated token (" + ", ".join(names) + ")")
        for token_id, beta in zip(ids, betas):
            beta_text = " ".join(f"{b:.4f}" for b in beta)
            print(f"{vocab.id_to_token[token_id]:<16} {beta_text}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_samples(vocab_size: int, num_intents: int) -> tuple[list[D.EncodedSample], dict[str, int]]:
    intents = [f"intent{i}" for i in range(num_intents)]
    samples = []
    for i, intent in enumerate(intents):
        base = 4 + (i % max(vocab_size - 4, 1))
        ctx = [base, 4 + ((base + 1) % (vocab_size - 4)), 4]
        resp = [4 + ((base + 2) % (vocab_size - 4)), base, 3]  # ends on EOS id
        raw = D.Sample([str(t) for t in ctx], [str(t) for t in resp], intent)
        samples.append(D.EncodedSample(ctx, resp, intent, raw))
    return samples, TR.expert_index_map(intents)


def _gradcheck_variants(hidden: int) -> list[tuple[str, VariantConfig]]:
    small = dict(embedding_size=3, attn_size=2, gate_hidden=4, gate_out=3)
    return [
        ("base", VariantConfig(hidden_size=hidden, **small)),
        ("V1", VariantConfig(hidden_size=hidden, attention_enabled=False, **small)),
        ("V2", VariantConfig(hidden_size=hidden, cell_kind="gru", **small)),
        ("V3", VariantConfig(hidden_size=max(hidden - 1, 2), **small)),
    ]


def run_gradcheck(
    num_experts: int = 2, hidden: int = 3, vocab_size: int = 6, seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Gradient-oracle sweep over every scheme x variant combination.

    The mixing schemes S1, S2 and S4 share one gated model per variant and one pass of shifted losses: the
    model built for S1, whose two logits are drawn last and start at zero, holds S2's and S4's values, and
    those schemes never read the logits. S3 checks its own ungated model.
    """
    samples, expert_of = _gradcheck_samples(vocab_size, num_experts)
    results: dict[str, dict[str, float]] = {name: {} for name in SCHEME_NAMES}
    for variant_name, variant in _gradcheck_variants(hidden):
        for names in (("S1", "S2", "S4"), ("S3",)):
            schemes = [SchemeConfig.from_name(name) for name in names]
            params = M.init_model(vocab_size, num_experts, variant, seed, schemes[0])
            for name, err in zip(names, TR.grad_check(params, samples, schemes, expert_of)):
                results[name][variant_name] = err
    return results


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_gradcheck(
        num_experts=args.experts, hidden=args.hidden, vocab_size=args.vocab_size, seed=args.seed,
    )
    worst = 0.0
    for scheme_name, per_variant in results.items():
        scheme_worst = max(per_variant.values())
        worst = max(worst, scheme_worst)
        status = "ok" if scheme_worst < GRADCHECK_TOLERANCE else "FAIL"
        detail = " ".join(f"{v}={err:.2e}" for v, err in per_variant.items())
        print(f"{scheme_name} {status} max_rel_err={scheme_worst:.2e} ({detail})")
    print(f"overall max relative error: {worst:.2e}")
    return 0 if worst < GRADCHECK_TOLERANCE else 1


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """An integer flag's ``type=``, refusing a value below low or above high."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be at least {low}" if high is None else f"must be in {low}..{high}")
        return value
    parse.__name__ = "int"  # the type argparse names in "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tokmoe",
        description="Token-level mixture-of-experts dialogue generator (desk scale)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a seeded synthetic multi-intent corpus")
    p.add_argument("--out", required=True, help="output directory for train/valid/test.jsonl")
    p.add_argument("--intents", type=_int_in(2), default=3)
    p.add_argument("--per-intent", type=_int_in(1), default=20, dest="per_intent")
    p.add_argument("--shared-vocab", type=_int_in(1), default=14, dest="shared_vocab")
    p.add_argument("--per-intent-vocab", type=_int_in(1), default=10, dest="per_intent_vocab")
    p.add_argument("--context-min", type=_int_in(1), default=4, dest="context_min")
    p.add_argument("--context-max", type=_int_in(1), default=8, dest="context_max")
    p.add_argument("--response-min", type=_int_in(1), default=5, dest="response_min")
    p.add_argument("--response-max", type=_int_in(1), default=9, dest="response_max")
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + manifest")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--scheme", choices=SCHEME_NAMES)
    p.add_argument("--variant", choices=VARIANT_NAMES)
    p.add_argument("--train", dest="train_path", help="training corpus (jsonl)")
    p.add_argument("--valid", dest="valid_path", help="validation corpus (jsonl)")
    p.add_argument("--test", dest="test_path", help="test corpus path recorded in the manifest")
    p.add_argument("--out", dest="out_dir", help="run directory")
    p.add_argument("--epochs", type=_int_in(1))
    p.add_argument("--seed", type=_int_in(0))
    p.add_argument("--hidden-size", type=_int_in(1), dest="hidden_size")
    p.add_argument("--embedding-size", type=_int_in(1), dest="embedding_size")
    p.add_argument("--cell", choices=("lstm", "gru"), dest="cell_kind")
    p.add_argument("--no-attention", action="store_false", default=None, dest="attention_enabled")
    p.add_argument("--single-module", action="store_true", default=None, dest="single_module",
                   help="one decoder, no mixture (scheme S3 only)")
    p.add_argument("--vocab-cap", type=_int_in(5), dest="vocab_cap")
    p.add_argument("--batch-size", type=_int_in(1), dest="batch_size")
    p.add_argument("--max-gen-len", type=_int_in(1), dest="max_gen_len")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="greedy-decode a corpus and report metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--max-len", type=_int_in(1), default=40, dest="max_len")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="generate a response for one context")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--context", required=True, help="whitespace-tokenized context")
    p.add_argument("--max-len", type=_int_in(1), default=40, dest="max_len")
    p.add_argument("--trace", action="store_true", help="print per-token gating weights")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient oracle, all schemes")
    p.add_argument("--experts", type=_int_in(1), default=2)
    p.add_argument("--hidden", type=_int_in(1, GRADCHECK_MAX_HIDDEN), default=3)
    p.add_argument("--vocab-size", type=_int_in(5), default=6, dest="vocab_size", help="4 reserved ids and 1+ words")
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except TokmoeError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error[memory]: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
