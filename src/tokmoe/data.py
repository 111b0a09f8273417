"""Vocabulary, corpus ingestion (JSONL), and synthetic corpora.

Corpus files are UTF-8 JSONL, one object per line, pre-tokenized and
pre-delexicalized:

    {"context": ["tok", ...], "response": ["tok", ...], "intent": "hotel",
     "goal": {"entity": "[hotel_id]", "requested": ["[value_time]"]}}

``goal`` is optional. Entity mentions arrive already replaced by bracketed
placeholder tokens; tokenization is out of scope.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .config import BOS_ID, EOS_ID, PAD_ID, SPECIAL_TOKENS, UNK_ID, read_lines, write_atomic
from .errors import DataError, DomainError, ParseError


@dataclass
class Goal:
    entity: str | None = None
    requested: list[str] = field(default_factory=list)


@dataclass
class Sample:
    context: list[str]
    response: list[str]
    intent: str
    goal: Goal | None = None

    def to_json(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


@dataclass
class Corpus:
    samples: list[Sample]

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class EncodedSample:
    """Id-space view of a sample; the response carries a trailing EOS."""

    context_ids: list[int]
    response_ids: list[int]
    intent: str
    sample: Sample


class Vocabulary:
    """Bijective token<->id map with four reserved specials (ids 0-3)."""

    def __init__(self, tokens: list[str]) -> None:
        self.id_to_token: list[str] = list(tokens)
        if self.id_to_token[:len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
            raise DataError("vocabulary must start with the reserved special tokens")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @classmethod
    def build(cls, corpus: Corpus, cap: int = 400) -> "Vocabulary":
        """Most frequent tokens up to ``cap`` minus the specials; ``cap`` leaves room for one.

        Frequency ties break lexicographically, so identical corpora always
        produce identical vocabularies.
        """
        if cap <= len(SPECIAL_TOKENS):
            raise DomainError(f"vocabulary cap must be at least {len(SPECIAL_TOKENS) + 1}, got {cap}")
        if len(corpus) == 0:
            raise DataError("cannot build a vocabulary from an empty corpus")
        counts: Counter[str] = Counter()
        for sample in corpus.samples:
            counts.update(sample.context)
            counts.update(sample.response)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        keep = [token for token, _ in ranked[: cap - len(SPECIAL_TOKENS)]]
        return cls(list(SPECIAL_TOKENS) + keep)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        return [self.encode_token(t) for t in tokens]

    def decode_ids(self, ids: list[int]) -> list[str]:
        """Tokens of ``ids`` with <pad>, <bos> and <eos> dropped."""
        return [self.id_to_token[i] for i in ids if i not in (PAD_ID, BOS_ID, EOS_ID)]


def encode_sample(vocab: Vocabulary, sample: Sample) -> EncodedSample:
    """Map tokens to ids (unknown -> UNK) and append EOS to the response."""
    return EncodedSample(
        context_ids=vocab.encode_tokens(sample.context),
        response_ids=vocab.encode_tokens(sample.response) + [EOS_ID],
        intent=sample.intent,
        sample=sample,
    )


def encode_corpus(vocab: Vocabulary, corpus: Corpus) -> list[EncodedSample]:
    return [encode_sample(vocab, s) for s in corpus.samples]


# ---------------------------------------------------------------------------
# JSONL ingestion


def _parse_sample(obj: object, where: str) -> Sample:
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in ("context", "response", "intent"):
        if key not in obj:
            raise DataError(f"{where}: missing required field {key!r}")
    for key in ("context", "response"):
        tokens = obj[key]
        if not isinstance(tokens, list) or not tokens or not all(isinstance(t, str) for t in tokens):
            raise DataError(f"{where}: {key!r} must be a nonempty list of string tokens")
    intent = obj["intent"]
    if not isinstance(intent, str) or not intent:
        raise DataError(f"{where}: 'intent' must be a nonempty string")
    goal = None
    if obj.get("goal") is not None:
        raw = obj["goal"]
        if not isinstance(raw, dict):
            raise DataError(f"{where}: 'goal' must be an object")
        entity = raw.get("entity")
        requested = raw.get("requested", [])
        if entity is not None and not isinstance(entity, str):
            raise DataError(f"{where}: 'goal.entity' must be a string or null")
        if not isinstance(requested, list) or not all(isinstance(r, str) for r in requested):
            raise DataError(f"{where}: 'goal.requested' must be a list of strings")
        goal = Goal(entity=entity, requested=list(requested))
    return Sample(list(obj["context"]), list(obj["response"]), intent, goal)


def load_corpus_jsonl(path: str | Path) -> Corpus:
    path = Path(path)
    samples: list[Sample] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise ParseError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from None
        samples.append(_parse_sample(obj, f"{path}:{lineno}"))
    if not samples:
        raise DataError(f"{path}: corpus is empty")
    return Corpus(samples)


def save_corpus_jsonl(corpus: Corpus, path: str | Path) -> None:
    lines = [json.dumps(s.to_json(), ensure_ascii=False) for s in corpus.samples]
    write_atomic(path, ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8"))


# ---------------------------------------------------------------------------
# Synthetic multi-intent corpus


@dataclass
class SynthSpec:
    """Knobs for the seeded synthetic corpus generator."""

    intents: int = 3
    shared_vocab: int = 14
    per_intent_vocab: int = 10
    samples_per_intent: int = 20
    context_len: tuple[int, int] = (4, 8)
    response_len: tuple[int, int] = (5, 9)
    seed: int = 13

    def __post_init__(self) -> None:
        if self.intents < 2:
            raise DomainError("synthetic corpora need at least 2 intents")
        for name in ("shared_vocab", "per_intent_vocab", "samples_per_intent"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive")
        for name in ("context_len", "response_len"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise DomainError(f"{name} must be a (low, high) range with 1 <= low <= high")


_INTENT_NAMES = ["hotel", "train", "restaurant", "attraction", "taxi", "booking"]
_SHARED_WORDS = [
    "i", "you", "would", "like", "the", "a", "is", "at", "can", "help",
    "find", "need", "want", "there", "yes", "no", "thanks", "please", "for", "me",
]
_TOPIC_WORDS = [
    "area", "price", "time", "name", "phone", "address", "type", "stars",
    "food", "day", "people", "stay", "leave", "arrive", "depart", "fee",
    "post", "ref", "choice", "ticket",
]
_REQUESTABLE = ["[value_time]", "[value_price]", "[value_area]"]


def _word_pool(base: list[str], count: int, prefix: str) -> list[str]:
    pool = list(base[:count])
    pool += [f"{prefix}{i}" for i in range(len(pool), count)]
    return pool


def generate_synthetic_corpus(spec: SynthSpec) -> Corpus:
    """Seeded multi-intent corpus from a small template grammar.

    Each intent owns an exclusive word pool (never emitted under another
    intent) plus one entity placeholder; contexts and responses mix those
    with shared words roughly half-and-half, so per-intent unigram
    distributions are far apart. Every sample carries a goal with the
    intent's entity placeholder and 0-2 requested placeholders, all of
    which appear in the response. Contexts are unique across the corpus.
    """
    rng = random.Random(spec.seed)
    names = _word_pool(_INTENT_NAMES, spec.intents, "domain")
    shared = _word_pool(_SHARED_WORDS, spec.shared_vocab, "word")
    seen_contexts: set[tuple[str, ...]] = set()
    samples: list[Sample] = []
    for intent in names:
        exclusive = [f"{intent}_{w}" for w in _word_pool(_TOPIC_WORDS, spec.per_intent_vocab, "w")]
        entity = f"[{intent}_id]"
        for _ in range(spec.samples_per_intent):
            for _attempt in range(200):
                ctx_len = rng.randint(*spec.context_len)
                context = [
                    rng.choice(exclusive if rng.random() < 0.5 else shared)
                    for _ in range(ctx_len)
                ]
                if tuple(context) not in seen_contexts:
                    seen_contexts.add(tuple(context))
                    break
            else:
                raise DomainError("could not draw a fresh context; widen the length range")
            requested = rng.sample(_REQUESTABLE, rng.randint(0, 2))
            resp_len = max(rng.randint(*spec.response_len), 1 + len(requested))
            response = [entity] + list(requested)
            while len(response) < resp_len:
                response.append(rng.choice(exclusive if rng.random() < 0.5 else shared))
            rng.shuffle(response)
            samples.append(Sample(context, response, intent, Goal(entity, requested)))
    return Corpus(samples)


def generate_synthetic_splits(spec: SynthSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Train/valid/test corpora from one RNG stream, contexts disjoint.

    Valid and test each get ``max(2, samples_per_intent // 5)`` samples per
    intent, drawn after the training samples so the whole emission is a
    deterministic function of the spec.
    """
    holdout = max(2, spec.samples_per_intent // 5)
    per_intent = spec.samples_per_intent + 2 * holdout
    full = generate_synthetic_corpus(replace(spec, samples_per_intent=per_intent))
    train: list[Sample] = []
    valid: list[Sample] = []
    test: list[Sample] = []
    for block in range(spec.intents):
        chunk = full.samples[block * per_intent:(block + 1) * per_intent]
        train.extend(chunk[: spec.samples_per_intent])
        valid.extend(chunk[spec.samples_per_intent: spec.samples_per_intent + holdout])
        test.extend(chunk[spec.samples_per_intent + holdout:])
    return Corpus(train), Corpus(valid), Corpus(test)
