"""Configuration objects and the flat ``key = value`` config file format.

Defaults follow the reference training recipe: vocabulary cap 400,
embedding 50, hidden 150, Adam(0.005, 0.9, 0.999, 1e-8), gradient values
clamped to [-5, 5], l2 weight 1e-5, mini-batch 64, greedy search at
generation time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParseError

SCHEME_NAMES = ("S1", "S2", "S3", "S4")
VARIANT_NAMES = ("V1", "V2", "V3")

SPECIAL_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3


@dataclass
class VariantConfig:
    """Architecture toggles: attention on/off, cell kind, widths."""

    attention_enabled: bool = True
    cell_kind: str = "lstm"          # "lstm" or "gru"
    hidden_size: int = 150
    embedding_size: int = 50
    attn_size: int | None = None     # defaults to hidden_size
    gate_hidden: int = 128           # gating MLP hidden width
    gate_out: int = 32               # gating query / expert key width

    def __post_init__(self) -> None:
        if self.cell_kind not in ("lstm", "gru"):
            raise ConfigError(f"unknown cell kind {self.cell_kind!r} (expected lstm or gru)")
        for name in ("hidden_size", "embedding_size", "gate_hidden", "gate_out"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.attn_size is None:
            self.attn_size = self.hidden_size
        elif self.attn_size < 1:
            raise ConfigError("attn_size must be >= 1")

    @classmethod
    def from_name(cls, name: str | None, **overrides) -> "VariantConfig":
        """Presets (None: no preset): V1 drops attention, V2 uses GRU cells, V3 hidden 100."""
        presets = {
            None: {},
            "V1": {"attention_enabled": False},
            "V2": {"cell_kind": "gru"},
            "V3": {"hidden_size": 100},
        }
        if name not in presets:
            raise ConfigError(f"unknown variant {name!r} (expected one of {VARIANT_NAMES})")
        merged = dict(presets[name])
        merged.update(overrides)
        return cls(**merged)


@dataclass(frozen=True)
class SchemeConfig:
    """Loss wiring for one learning scheme.

    S1: mixture on, expert weights and lambda both learnable.
    S2: mixture on, lambda fixed at 0.0 (expert weights unused).
    S3: mixture off (combined distribution is the chair's own), uniform
        expert weights 1/k, lambda 0.5.
    S4: mixture on, uniform expert weights 1/k, lambda 0.5.
    """

    scheme: str
    moe_enabled: bool
    lambda_value: float | None   # None: lambda and the expert weights are learned

    @classmethod
    def from_name(cls, name: str) -> "SchemeConfig":
        if name not in _SCHEMES:
            raise ConfigError(f"unknown scheme {name!r} (expected one of {SCHEME_NAMES})")
        return _SCHEMES[name]

    @property
    def learns_weights(self) -> bool:
        return self.lambda_value is None


_SCHEMES = {
    "S1": SchemeConfig("S1", True, None),
    "S2": SchemeConfig("S2", True, 0.0),
    "S3": SchemeConfig("S3", False, 0.5),
    "S4": SchemeConfig("S4", True, 0.5),
}


@dataclass
class OptimizerConfig:
    alpha: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_low: float = -5.0
    clip_high: float = 5.0
    l2_weight: float = 1e-5
    batch_size: int = 64

    def __post_init__(self) -> None:
        for name in ("alpha", "epsilon", "clip_low", "clip_high", "l2_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie strictly in (0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.l2_weight < 0:
            raise ConfigError("l2_weight must not be negative")
        if self.alpha < 0:
            # alpha = 0 is allowed: a frozen-parameter dry run.
            raise ConfigError("alpha must not be negative")
        if self.clip_low > self.clip_high:
            raise ConfigError("clip_low must not exceed clip_high")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass
class RunConfig:
    """One training/evaluation run: scheme, architecture, optimizer and paths.

    Its flat ``key = value`` form (config file, snapshot, manifest) holds
    RunConfig's own fields plus every field of ``model`` and ``optimizer``.
    """

    scheme: str = "S4"
    variant: str | None = None   # optional V1/V2/V3 preset applied before the model keys
    model: VariantConfig = field(default_factory=VariantConfig)
    vocab_cap: int = 400
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 13
    epochs: int = 10
    max_gen_len: int = 40
    single_module: bool = False  # one decoder, no gating (requires scheme S3)
    train_path: str = ""
    valid_path: str = ""
    test_path: str = ""
    out_dir: str = "run"

    def __post_init__(self) -> None:
        SchemeConfig.from_name(self.scheme)  # rejects unknown schemes
        if self.single_module and self.scheme != "S3":
            raise ConfigError("single_module mode is only defined for scheme S3")
        if self.vocab_cap < len(SPECIAL_TOKENS) + 1:
            raise ConfigError(f"vocab_cap must exceed the {len(SPECIAL_TOKENS)} reserved specials")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.max_gen_len < 1:
            raise ConfigError("max_gen_len must be >= 1")

    def to_mapping(self) -> dict[str, str]:
        """Flat keys in field order, ``model`` and ``optimizer`` expanded in place."""
        out: dict[str, str] = {}
        for key, value in dataclasses.asdict(self).items():
            for name, item in value.items() if key in _PARTS else [(key, value)]:
                if item is not None:
                    out[name] = str(item).lower() if isinstance(item, bool) else str(item)
        return out

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "RunConfig":
        """Route each flat key to the dataclass that declares it; every value is checked."""
        owners = {None: cls, **_PARTS}
        declared = {
            f.name: (part, f.type)
            for part, owner in owners.items()
            for f in dataclasses.fields(owner) if f.name not in _PARTS
        }
        kwargs: dict[str | None, dict[str, object]] = {part: {} for part in owners}
        for key, raw in mapping.items():
            if key not in declared:
                raise ConfigError(f"unknown config key {key!r}")
            part, annotation = declared[key]
            kwargs[part][key] = _coerce(key, raw, annotation)
        own = kwargs[None]
        model = VariantConfig.from_name(own.get("variant"), **kwargs["model"])
        return cls(**own, model=model, optimizer=OptimizerConfig(**kwargs["optimizer"]))


_PARTS = {"model": VariantConfig, "optimizer": OptimizerConfig}


def _coerce(key: str, raw: str, annotation: str):
    text = raw.strip()
    ann = str(annotation)
    if "bool" in ann:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {raw!r}")
    try:
        if ann.startswith("int"):
            return int(text)
        if "float" in ann:
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    return text


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, any line ending accepted; undecodable bytes are a ParseError
    naming the offset. Only a line ending ends a line: ``str.splitlines`` would also break at
    U+0085, U+2028 and U+2029, which a JSON string holds unescaped."""
    try:
        return Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` through a temporary sibling, so ``path`` never holds part of it.

    A write that fails removes the sibling before the error propagates.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` file; a line whose first non-blank character is '#' is a comment,
    blanks are ignored and a repeated key is refused. A '#' inside a value, as in a path, is kept."""
    found: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in found:
            raise ParseError(f"{path}:{lineno}: {key!r} is given again (first on line {found[key][1]})")
        found[key] = value, lineno
    return {key: value for key, (value, _) in found.items()}


def write_config_file(config: RunConfig, path: str | Path) -> None:
    lines = [f"{key} = {value}" for key, value in config.to_mapping().items()]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
