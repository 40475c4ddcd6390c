"""Training configuration plus the flat key=value config-file format.

Defaults follow the production setting this toolkit ships with: Adam at
0.001, batch size 4096, 20-behavior window, temperature 1, up to 50
negatives per task, mask ratio 0.5, loss weights 1.0/0.3/0.1, 1-hour
session window. A task's loss weight is its only switch: weight zero
ablates the task, which then mines nothing and draws nothing. Each field
names its config-file key; ``--set`` overrides file values and the CLI's
shorthand flags override both; the effective config is embedded in every
checkpoint and report.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from typing import Callable

from .augment import AugmentationPlan
from .data import DataFormatError, read_lines, record_key
from .evaluation import check_similarity
from .model import ModelDims
from .semantics import check_semantic_source


def _option(key: str, default):
    """A ``TrainConfig`` field read from config-file key ``key``."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = _option("train.learning_rate", 0.001)
    batch_size: int = _option("train.batch_size", 4096)
    epochs: int = _option("train.epochs", 5)
    seed: int = _option("train.seed", 0)
    behavior_window: int = _option("train.behavior_window", 20)

    lambda_feature: float = _option("loss.lambda1", 1.0)
    lambda_semantic: float = _option("loss.lambda2", 0.3)
    lambda_session: float = _option("loss.lambda3", 0.1)
    tau: float = _option("loss.tau", 1.0)
    negatives: int = _option("loss.negatives", 50)
    include_positive_in_denominator: bool = _option("loss.include_positive_in_denominator", True)

    augment_strategy: str = _option("augment.strategy", "field_plus_categorial")
    mask_ratio: float = _option("augment.mask_ratio", 0.5)

    session_window: int = _option("mine.session_window", 3600)
    k_session: int = _option("mine.k_sess", 10)
    k_semantic: int = _option("mine.k_sem", 10)
    semantic_source: str = _option("mine.semantic_source", "title_knn")
    similarity: str = _option("eval.similarity", "dot")

    d_field: int = _option("model.d_field", 64)
    hidden1: int = _option("model.hidden1", 128)
    hidden2: int = _option("model.hidden2", 64)
    d_out: int = _option("model.d_out", 64)
    ffn_dim: int = _option("model.ffn_dim", 64)
    d_proj: int = _option("model.d_proj", 64)

    def validate(self) -> None:
        """Range-check the options; a message names the option's config key."""
        for attr in (
            "learning_rate", "batch_size", "epochs", "behavior_window", "tau", "negatives",
            "session_window", "k_session", "k_semantic",
            "d_field", "hidden1", "hidden2", "d_out", "ffn_dim", "d_proj",
        ):
            if not getattr(self, attr) > 0:  # NaN fails too
                raise ValueError(f"{_KEY_OF[attr]} must be positive")
        for attr in ("seed", "lambda_feature", "lambda_semantic", "lambda_session"):
            if not getattr(self, attr) >= 0:  # a NaN weight would ablate its task unnoticed
                raise ValueError(f"{_KEY_OF[attr]} must be nonnegative")
        for attr, check in (("semantic_source", check_semantic_source), ("similarity", check_similarity)):
            try:
                check(getattr(self, attr))
            except ValueError as exc:  # "<attr> must be ..." becomes "<section>.<attr> must be ..."
                raise ValueError(f"{_KEY_OF[attr].split('.')[0]}.{exc}") from None
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


_TYPES = typing.get_type_hints(TrainConfig)
# config-file key -> (TrainConfig attribute, value parser from its annotation)
KEYMAP: dict[str, tuple[str, Callable[[str], object]]] = {
    f.metadata["key"]: (f.name, _parse_bool if _TYPES[f.name] is bool else _TYPES[f.name])
    for f in dataclasses.fields(TrainConfig)
}
_KEY_OF = {attr: key for key, (attr, _) in KEYMAP.items()}


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment. A malformed line,
    an unknown key, a value its key cannot parse or ``validate`` rejects,
    or a key given twice raises ``DataFormatError`` naming ``path:line``."""
    settings: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        record_key(first_line, key, path, lineno, "config key {!r}", key)
        try:
            apply_settings(TrainConfig(), {key: value}).validate()
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
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
