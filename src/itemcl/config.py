"""Training configuration plus the flat key=value config-file format.

Defaults follow the production setting this toolkit ships with: Adam at
0.001, batch size 4096, 20-behavior window, temperature 1, up to 50
negatives per task, mask ratio 0.5, loss weights 1.0/0.3/0.1, 1-hour
session window. A task's loss weight is its only switch: weight zero
ablates the task, which then mines nothing and draws nothing. CLI flags
override file values; the effective config is embedded in every
checkpoint and report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .augment import AugmentationPlan
from .evaluation import check_similarity
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

    d_field: int = 64
    hidden1: int = 128
    hidden2: int = 64
    d_out: int = 64
    ffn_dim: int = 64
    d_proj: int = 64

    def validate(self) -> None:
        """Range-check the options; a message names the option's config key."""
        for attr in (
            "learning_rate", "batch_size", "epochs", "behavior_window", "tau", "negatives",
            "session_window", "k_session", "k_semantic",
            "d_field", "hidden1", "hidden2", "d_out", "ffn_dim", "d_proj",
        ):
            if not getattr(self, attr) > 0:  # NaN fails too
                raise ValueError(f"{_KEY_OF[attr]} must be positive")
        for attr in ("lambda_feature", "lambda_semantic", "lambda_session"):
            if not getattr(self, attr) >= 0:  # NaN would ablate the task unnoticed
                raise ValueError(f"{_KEY_OF[attr]} must be nonnegative")
        if self.semantic_source not in ("title_knn", "taxonomy"):
            raise ValueError("mine.semantic_source must be title_knn or taxonomy")
        try:
            check_similarity(self.similarity)
        except ValueError as exc:
            raise ValueError(f"eval.{exc}") from None
        for attr, plan_field in (("augment_strategy", "strategy"), ("mask_ratio", "mask_ratio")):
            try:
                AugmentationPlan(**{plan_field: getattr(self, attr)})
            except ValueError as exc:
                raise ValueError(f"{_KEY_OF[attr]}: {exc}") from None

    def model_dims(self) -> ModelDims:
        return ModelDims(
            d_field=self.d_field,
            tower_dims=(self.hidden1, self.hidden2, self.d_out),
            behavior_window=self.behavior_window,
            ffn_dim=self.ffn_dim,
            d_proj=self.d_proj,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


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
}
_KEY_OF = {attr: key for key, (attr, _) in KEYMAP.items()}


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment. A malformed line,
    an unknown key, a value its key cannot parse or ``validate`` rejects,
    or a key given twice raises ``ValueError`` naming ``path:line``."""
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
                apply_settings(TrainConfig(), {key: value}).validate()
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
