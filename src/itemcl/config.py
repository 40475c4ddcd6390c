"""Training configuration plus the flat key=value config-file format.

Defaults follow the production setting this toolkit ships with: Adam at
0.001, batch size 4096, 20-behavior window, temperature 1, up to 50
negatives per task, mask ratio 0.5, loss weights 1.0/0.3/0.1, 1-hour
session window. CLI flags override file values; the effective config is
embedded in every checkpoint and report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .model import ModelDims


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 4096
    epochs: int = 5
    seed: int = 0
    behavior_window: int = 20

    lambda_feature: float = 1.0
    lambda_semantic: float = 0.3
    lambda_session: float = 0.1
    tau: float = 1.0
    negatives: int = 50
    include_positive_in_denominator: bool = True

    augment_strategy: str = "field_plus_categorial"
    mask_ratio: float = 0.5

    session_window: int = 3600
    k_session: int = 10
    k_semantic: int = 10
    semantic_source: str = "title_knn"
    similarity: str = "dot"

    use_feature_cl: bool = True
    use_semantic_cl: bool = True
    use_session_cl: bool = True

    d_field: int = 64
    hidden1: int = 128
    hidden2: int = 64
    d_out: int = 64
    ffn_dim: int = 64
    d_proj: int = 64
    positional_encoding: bool = False

    def validate(self) -> None:
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("learning_rate, batch_size, and epochs must be positive")
        if self.tau <= 0 or self.negatives <= 0 or self.behavior_window <= 0:
            raise ValueError("tau, negatives, and behavior_window must be positive")
        if min(self.lambda_feature, self.lambda_semantic, self.lambda_session) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.semantic_source not in ("title_knn", "taxonomy"):
            raise ValueError("semantic_source must be title_knn or taxonomy")
        if self.similarity not in ("dot", "cosine"):
            raise ValueError("similarity must be dot or cosine")

    def effective_lambdas(self) -> tuple[float, float, float]:
        """A disabled task counts as weight zero."""
        return (
            self.lambda_feature if self.use_feature_cl else 0.0,
            self.lambda_semantic if self.use_semantic_cl else 0.0,
            self.lambda_session if self.use_session_cl else 0.0,
        )

    def model_dims(self) -> ModelDims:
        return ModelDims(
            d_field=self.d_field,
            tower_dims=(self.hidden1, self.hidden2, self.d_out),
            behavior_window=self.behavior_window,
            ffn_dim=self.ffn_dim,
            d_proj=self.d_proj,
            positional_encoding=self.positional_encoding,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# config-file key -> (TrainConfig attribute, parser)
KEYMAP: dict[str, tuple[str, type | object]] = {
    "train.learning_rate": ("learning_rate", float),
    "train.batch_size": ("batch_size", int),
    "train.epochs": ("epochs", int),
    "train.seed": ("seed", int),
    "train.behavior_window": ("behavior_window", int),
    "train.feature_cl": ("use_feature_cl", _parse_bool),
    "train.semantic_cl": ("use_semantic_cl", _parse_bool),
    "train.session_cl": ("use_session_cl", _parse_bool),
    "loss.lambda1": ("lambda_feature", float),
    "loss.lambda2": ("lambda_semantic", float),
    "loss.lambda3": ("lambda_session", float),
    "loss.tau": ("tau", float),
    "loss.negatives": ("negatives", int),
    "loss.include_positive_in_denominator": ("include_positive_in_denominator", _parse_bool),
    "augment.strategy": ("augment_strategy", str),
    "augment.mask_ratio": ("mask_ratio", float),
    "mine.session_window": ("session_window", int),
    "mine.k_sess": ("k_session", int),
    "mine.k_sem": ("k_semantic", int),
    "mine.semantic_source": ("semantic_source", str),
    "eval.similarity": ("similarity", str),
    "model.d_field": ("d_field", int),
    "model.hidden1": ("hidden1", int),
    "model.hidden2": ("hidden2", int),
    "model.d_out": ("d_out", int),
    "model.ffn_dim": ("ffn_dim", int),
    "model.d_proj": ("d_proj", int),
    "model.positional_encoding": ("positional_encoding", _parse_bool),
}


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment. A malformed line,
    an unknown key, a value its key cannot parse or a key given twice
    raises ``ValueError`` naming ``path:line``."""
    settings: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {first_line[key]}")
            try:
                apply_settings(TrainConfig(), {key: value})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            first_line[key] = lineno
            settings[key] = value
    return settings


def apply_settings(config: TrainConfig, settings: dict[str, str]) -> TrainConfig:
    """Overlay flat key=value settings onto a config; an unknown key or a
    value its parser rejects raises ``ValueError`` naming the key."""
    updates = {}
    for key, raw in settings.items():
        if key not in KEYMAP:
            raise ValueError(f"unknown config key {key!r}")
        attr, parser = KEYMAP[key]
        try:
            updates[attr] = parser(raw)
        except ValueError as exc:
            raise ValueError(f"bad value for config key {key!r}: {exc}") from None
    return dataclasses.replace(config, **updates)
