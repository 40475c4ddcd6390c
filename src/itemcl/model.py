"""The parametric two-tower model, written directly in numpy.

Contents: per-field embedding tables, a 3-layer item tower, a user tower
(masked single-head self-attention over the behavior history, flattened
and concatenated with profile-field embeddings, then a 3-layer MLP), and
three single-layer contrastive projectors. Every forward pass returns a
trace holding the intermediates needed for an exact analytic backward
pass; gradients are accumulated into plain name->array dicts.

Items are addressed by catalog index. Behavior histories use -1 as the
padding slot; padding positions are masked out of attention and
contribute exactly zero to the flattened behavior representation, so
appending padding to a history cannot change the user vector.

A history slot's attention query, key and value depend only on the item
in the slot (plus, with positional encoding, the slot's position), so the
user tower projects each distinct item of a call once and gathers the
projections per slot; its backward pass sums the slot gradients per
distinct item before the projection weights see them.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .augment import (
    MULTI_CATEGORICAL,
    SINGLE_CATEGORICAL,
    AugmentationPlan,
    FieldLayout,
    draw_element_mask,
    draw_field_mask,
    draw_value_keep,
)
from .data import ItemCatalog, UserProfileTable
from .rng import substream

PAD = -1

_CHECKPOINT_MAGIC = b"ITEMCL-CHECKPOINT-V1\n"


@dataclass(frozen=True)
class ModelDims:
    """Width configuration. Defaults follow the production setting; tests
    shrink everything to keep finite-difference fixtures small."""

    d_field: int = 64
    tower_dims: tuple[int, int, int] = (128, 64, 64)
    behavior_window: int = 20
    ffn_dim: int = 64
    d_proj: int = 64
    positional_encoding: bool = False

    @property
    def d_out(self) -> int:
        return self.tower_dims[-1]

    def to_dict(self) -> dict:
        return {
            "d_field": self.d_field,
            "tower_dims": list(self.tower_dims),
            "behavior_window": self.behavior_window,
            "ffn_dim": self.ffn_dim,
            "d_proj": self.d_proj,
            "positional_encoding": self.positional_encoding,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelDims":
        return cls(
            d_field=int(d["d_field"]),
            tower_dims=tuple(int(x) for x in d["tower_dims"]),
            behavior_window=int(d["behavior_window"]),
            ffn_dim=int(d["ffn_dim"]),
            d_proj=int(d["d_proj"]),
            positional_encoding=bool(d["positional_encoding"]),
        )


ITEM_FIELD_SPECS = (
    ("item_id", SINGLE_CATEGORICAL),
    ("tags", MULTI_CATEGORICAL),
    ("provider", SINGLE_CATEGORICAL),
)


@dataclass
class ModelMeta:
    """Vocabularies and dims; fixes every parameter shape."""

    dims: ModelDims
    item_ids: list[str]
    tag_vocab: list[str]
    provider_vocab: list[str]
    user_field_names: tuple[str, ...]
    user_field_vocabs: dict[str, list[str]] = field(default_factory=dict)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def raw_item_width(self) -> int:
        return len(ITEM_FIELD_SPECS) * self.dims.d_field

    @property
    def user_other_width(self) -> int:
        return len(self.user_field_names) * self.dims.d_field

    @property
    def user_input_width(self) -> int:
        return self.dims.behavior_window * self.dims.d_field + self.user_other_width

    def item_layout(self) -> FieldLayout:
        return FieldLayout.build(list(ITEM_FIELD_SPECS), self.dims.d_field)

    def to_dict(self) -> dict:
        return {
            "dims": self.dims.to_dict(),
            "item_ids": self.item_ids,
            "tag_vocab": self.tag_vocab,
            "provider_vocab": self.provider_vocab,
            "user_field_names": list(self.user_field_names),
            "user_field_vocabs": self.user_field_vocabs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelMeta":
        return cls(
            dims=ModelDims.from_dict(d["dims"]),
            item_ids=list(d["item_ids"]),
            tag_vocab=list(d["tag_vocab"]),
            provider_vocab=list(d["provider_vocab"]),
            user_field_names=tuple(d["user_field_names"]),
            user_field_vocabs={k: list(v) for k, v in d["user_field_vocabs"].items()},
        )


def build_meta(
    catalog: ItemCatalog,
    profiles: UserProfileTable | None = None,
    dims: ModelDims | None = None,
) -> ModelMeta:
    """Collect vocabularies in first-appearance order (deterministic given
    the input files)."""
    dims = dims or ModelDims()
    tag_vocab: list[str] = []
    seen_tags: set[str] = set()
    provider_vocab: list[str] = []
    seen_prov: set[str] = set()
    for item in catalog.items:
        for tag in item.tags:
            if tag not in seen_tags:
                seen_tags.add(tag)
                tag_vocab.append(tag)
        if item.provider not in seen_prov:
            seen_prov.add(item.provider)
            provider_vocab.append(item.provider)
    user_field_names: tuple[str, ...] = ()
    user_field_vocabs: dict[str, list[str]] = {}
    if profiles is not None and profiles.field_names:
        user_field_names = tuple(profiles.field_names)
        for name in user_field_names:
            user_field_vocabs[name] = []
        seen: dict[str, set[str]] = {name: set() for name in user_field_names}
        for values in profiles.rows.values():
            for name, value in zip(user_field_names, values):
                if value not in seen[name]:
                    seen[name].add(value)
                    user_field_vocabs[name].append(value)
    return ModelMeta(dims, catalog.item_ids(), tag_vocab, provider_vocab, user_field_names, user_field_vocabs)


def _array_shapes(meta: ModelMeta) -> list[tuple[str, tuple[int, ...]]]:
    d = meta.dims.d_field
    h1, h2, out = meta.dims.tower_dims
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("emb.item_id", (meta.n_items + 1, d)),
        ("emb.tags", (len(meta.tag_vocab) + 1, d)),
        ("emb.provider", (len(meta.provider_vocab) + 1, d)),
    ]
    for name in meta.user_field_names:
        shapes.append((f"user_emb.{name}", (len(meta.user_field_vocabs[name]) + 1, d)))
    for prefix, width in (("item_tower", meta.raw_item_width), ("user_tower", meta.user_input_width)):
        shapes += [
            (f"{prefix}.W0", (width, h1)),
            (f"{prefix}.b0", (h1,)),
            (f"{prefix}.W1", (h1, h2)),
            (f"{prefix}.b1", (h2,)),
            (f"{prefix}.W2", (h2, out)),
            (f"{prefix}.b2", (out,)),
        ]
    for name in ("Wq", "Wk", "Wv", "Wo"):
        shapes.append((f"attn.{name}", (d, d)))
        shapes.append((f"attn.b{name[1]}", (d,)))
    shapes += [
        ("attn.Wf1", (d, meta.dims.ffn_dim)),
        ("attn.bf1", (meta.dims.ffn_dim,)),
        ("attn.Wf2", (meta.dims.ffn_dim, d)),
        ("attn.bf2", (d,)),
        ("proj_f.W", (meta.raw_item_width, meta.dims.d_proj)),
        ("proj_f.b", (meta.dims.d_proj,)),
        ("proj_t.W", (out, meta.dims.d_proj)),
        ("proj_t.b", (meta.dims.d_proj,)),
        ("proj_s.W", (out, meta.dims.d_proj)),
        ("proj_s.b", (meta.dims.d_proj,)),
    ]
    return shapes


class ModelParams:
    """All trainable state: a name->float64 ndarray dict plus the meta that
    fixes the shapes. The trainer is the single writer."""

    def __init__(self, meta: ModelMeta, arrays: dict[str, np.ndarray]):
        self.meta = meta
        self.arrays = arrays

    def n_parameters(self) -> int:
        return int(sum(a.size for a in self.arrays.values()))

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.arrays.values())

    def copy(self) -> "ModelParams":
        return ModelParams(self.meta, {k: v.copy() for k, v in self.arrays.items()})


def init_params(meta: ModelMeta, seed: int) -> ModelParams:
    """Seeded init: affine weights uniform in +-1/sqrt(fan_in), zero
    biases, embedding rows uniform in +-0.01."""
    rng = substream(seed, "init")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _array_shapes(meta):
        if name.startswith(("emb.", "user_emb.")):
            arrays[name] = rng.uniform(-0.01, 0.01, size=shape)
        elif name.split(".")[-1].startswith("W"):
            bound = 1.0 / np.sqrt(shape[0])
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        else:
            arrays[name] = np.zeros(shape)
    return ModelParams(meta, arrays)


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.arrays.items()}


def add_scaled(dst: dict[str, np.ndarray], src: dict[str, np.ndarray], scale: float) -> None:
    for name, g in src.items():
        dst[name] += scale * g


def _segment_matrix(idx: np.ndarray, n: int) -> sparse.csc_matrix:
    """(n, len(idx)) one-hot matrix with a one at (idx[k], k): its product
    with a (len(idx), w) array sums the rows per index."""
    return sparse.csc_matrix((np.ones(idx.size), idx, np.arange(idx.size + 1)), shape=(n, idx.size))


def _scatter_rows(dst: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """dst[idx[k]] += rows[k] with duplicate indices accumulated."""
    dst += _segment_matrix(idx, dst.shape[0]) @ rows


# ---------------------------------------------------------------------------
# catalog / profile encodings


class EncodedCatalog:
    """Catalog projected onto the meta's vocabularies: per-item provider
    index and a CSR layout of tag indices."""

    def __init__(self, catalog: ItemCatalog, meta: ModelMeta):
        if catalog.item_ids() != meta.item_ids:
            raise ValueError("catalog item_ids do not match the model's item vocabulary")
        tag_index = {t: i for i, t in enumerate(meta.tag_vocab)}
        prov_index = {p: i for i, p in enumerate(meta.provider_vocab)}
        tag_oov = len(meta.tag_vocab)
        prov_oov = len(meta.provider_vocab)
        self.n_items = len(catalog)
        self.provider_idx = np.asarray(
            [prov_index.get(item.provider, prov_oov) for item in catalog.items], dtype=np.int64
        )
        indptr = [0]
        flat: list[int] = []
        for item in catalog.items:
            flat.extend(tag_index.get(t, tag_oov) for t in item.tags)
            indptr.append(len(flat))
        self.tag_indptr = np.asarray(indptr, dtype=np.int64)
        self.tag_idx = np.asarray(flat, dtype=np.int64)

    def tag_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat tag indices for the given items plus per-item tag counts."""
        starts = self.tag_indptr[ids]
        lens = self.tag_indptr[ids + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), lens
        seg = np.repeat(np.arange(len(ids)), lens)
        prev = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos = np.arange(total) - prev[seg] + starts[seg]
        return self.tag_idx[pos], lens


class EncodedProfiles:
    """user_id -> per-field vocabulary indices; unknown users and values
    map to the OOV row of each field."""

    def __init__(self, profiles: UserProfileTable | None, meta: ModelMeta):
        self.meta = meta
        self.oov_row = np.asarray(
            [len(meta.user_field_vocabs[name]) for name in meta.user_field_names], dtype=np.int64
        )
        self._rows: dict[str, np.ndarray] = {}
        if profiles is not None and meta.user_field_names:
            value_index = {
                name: {v: i for i, v in enumerate(meta.user_field_vocabs[name])}
                for name in meta.user_field_names
            }
            reorder = [profiles.field_names.index(name) for name in meta.user_field_names]
            for user_id, values in profiles.rows.items():
                self._rows[user_id] = np.asarray(
                    [
                        value_index[name].get(values[src], len(meta.user_field_vocabs[name]))
                        for name, src in zip(meta.user_field_names, reorder)
                    ],
                    dtype=np.int64,
                )

    def row(self, user_id: str) -> np.ndarray:
        return self._rows.get(user_id, self.oov_row)

    def rows(self, user_ids: list[str]) -> np.ndarray:
        if not self.meta.user_field_names:
            return np.empty((len(user_ids), 0), dtype=np.int64)
        return np.stack([self.row(u) for u in user_ids])


# ---------------------------------------------------------------------------
# raw item embeddings


@dataclass
class EmbedTrace:
    ids: np.ndarray
    flat_tags: np.ndarray
    tag_lens: np.ndarray


def embed_items(params: ModelParams, enc: EncodedCatalog, ids: np.ndarray) -> tuple[np.ndarray, EmbedTrace]:
    """Concatenated raw feature embeddings for a batch of item indices.
    Multi-valued tags are mean-pooled; an empty tag set pools to zero."""
    ids = np.asarray(ids, dtype=np.int64)
    d = params.meta.dims.d_field
    id_rows = params.arrays["emb.item_id"][ids]
    flat_tags, lens = enc.tag_rows(ids)
    tag_mean = np.zeros((len(ids), d))
    if flat_tags.size:
        seg = np.repeat(np.arange(len(ids)), lens)
        np.add.at(tag_mean, seg, params.arrays["emb.tags"][flat_tags])
        tag_mean /= np.maximum(lens, 1)[:, None]
    prov_rows = params.arrays["emb.provider"][enc.provider_idx[ids]]
    raw = np.concatenate([id_rows, tag_mean, prov_rows], axis=1)
    return raw, EmbedTrace(ids, flat_tags, lens)


def embed_items_backward(
    params: ModelParams,
    enc: EncodedCatalog,
    trace: EmbedTrace,
    grad_raw: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    d = params.meta.dims.d_field
    ids = trace.ids
    _scatter_rows(grads["emb.item_id"], ids, grad_raw[:, :d])
    if trace.flat_tags.size:
        per_tag = grad_raw[:, d : 2 * d] / np.maximum(trace.tag_lens, 1)[:, None]
        _scatter_rows(grads["emb.tags"], trace.flat_tags, np.repeat(per_tag, trace.tag_lens, axis=0))
    _scatter_rows(grads["emb.provider"], enc.provider_idx[ids], grad_raw[:, 2 * d :])


# ---------------------------------------------------------------------------
# augmented item embeddings


@dataclass
class AugmentedTrace:
    ids: np.ndarray
    zero_mask: np.ndarray  # (m, width) True where the output was zeroed
    kept_flat_tags: np.ndarray
    kept_lens: np.ndarray
    categorial: bool


def embed_items_augmented(
    params: ModelParams,
    enc: EncodedCatalog,
    ids: np.ndarray,
    plan: AugmentationPlan,
    rng: np.random.Generator,
) -> tuple[np.ndarray, AugmentedTrace]:
    """Augmented view of each item's raw embedding under ``plan``.

    Draws happen item by item in input order through the same mask
    primitives as the standalone augmentation ops, so two calls with an
    identically seeded generator produce identical views.
    """
    ids = np.asarray(ids, dtype=np.int64)
    meta = params.meta
    d = meta.dims.d_field
    layout = meta.item_layout()
    m = len(ids)

    categorial = plan.strategy in ("categorial", "field_plus_categorial")
    if categorial:
        flat_tags, lens = enc.tag_rows(ids)
        keep_chunks = [draw_value_keep(int(n), plan.mask_ratio, rng) for n in lens]
        keep = np.concatenate(keep_chunks) if keep_chunks else np.empty(0, dtype=bool)
        kept_flat = flat_tags[keep]
        seg = np.repeat(np.arange(m), lens)
        kept_lens = np.bincount(seg[keep], minlength=m).astype(np.int64) if keep.size else np.zeros(m, dtype=np.int64)
        tag_mean = np.zeros((m, d))
        if kept_flat.size:
            np.add.at(tag_mean, seg[keep], params.arrays["emb.tags"][kept_flat])
            tag_mean /= np.maximum(kept_lens, 1)[:, None]
    else:
        flat_tags, lens = enc.tag_rows(ids)
        kept_flat, kept_lens = flat_tags, lens
        tag_mean = np.zeros((m, d))
        if flat_tags.size:
            seg = np.repeat(np.arange(m), lens)
            np.add.at(tag_mean, seg, params.arrays["emb.tags"][flat_tags])
            tag_mean /= np.maximum(lens, 1)[:, None]

    raw = np.concatenate(
        [params.arrays["emb.item_id"][ids], tag_mean, params.arrays["emb.provider"][enc.provider_idx[ids]]],
        axis=1,
    )

    zero_mask = np.zeros((m, layout.width), dtype=bool)
    if plan.strategy == "element":
        for i in range(m):
            zero_mask[i] = draw_element_mask(layout.width, plan.mask_ratio, rng)
    elif plan.strategy in ("field", "field_plus_categorial"):
        for i in range(m):
            fmask = draw_field_mask(len(layout), plan.mask_ratio, rng)
            for f, masked in zip(layout.fields, fmask):
                if masked:
                    zero_mask[i, f.start : f.end] = True
    out = np.where(zero_mask, 0.0, raw)
    return out, AugmentedTrace(ids, zero_mask, kept_flat, kept_lens, categorial)


def embed_items_augmented_backward(
    params: ModelParams,
    enc: EncodedCatalog,
    trace: AugmentedTrace,
    grad_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    d = params.meta.dims.d_field
    g = np.where(trace.zero_mask, 0.0, grad_out)
    _scatter_rows(grads["emb.item_id"], trace.ids, g[:, :d])
    if trace.kept_flat_tags.size:
        per_tag = g[:, d : 2 * d] / np.maximum(trace.kept_lens, 1)[:, None]
        _scatter_rows(
            grads["emb.tags"], trace.kept_flat_tags, np.repeat(per_tag, trace.kept_lens, axis=0)
        )
    _scatter_rows(grads["emb.provider"], enc.provider_idx[trace.ids], g[:, 2 * d :])


# ---------------------------------------------------------------------------
# towers


@dataclass
class MlpTrace:
    x: np.ndarray
    h0: np.ndarray
    h1: np.ndarray


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool = False) -> np.ndarray:
    out = x @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _mlp3_forward(params: ModelParams, prefix: str, x: np.ndarray) -> tuple[np.ndarray, MlpTrace]:
    a = params.arrays
    h0 = _affine(x, a[f"{prefix}.W0"], a[f"{prefix}.b0"], relu=True)
    h1 = _affine(h0, a[f"{prefix}.W1"], a[f"{prefix}.b1"], relu=True)
    y = _affine(h1, a[f"{prefix}.W2"], a[f"{prefix}.b2"])
    return y, MlpTrace(x, h0, h1)


def _mlp3_backward(
    params: ModelParams,
    prefix: str,
    trace: MlpTrace,
    grad_y: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    a = params.arrays
    grads[f"{prefix}.W2"] += trace.h1.T @ grad_y
    grads[f"{prefix}.b2"] += grad_y.sum(axis=0)
    gh1 = grad_y @ a[f"{prefix}.W2"].T
    gh1[trace.h1 <= 0.0] = 0.0
    grads[f"{prefix}.W1"] += trace.h0.T @ gh1
    grads[f"{prefix}.b1"] += gh1.sum(axis=0)
    gh0 = gh1 @ a[f"{prefix}.W1"].T
    gh0[trace.h0 <= 0.0] = 0.0
    grads[f"{prefix}.W0"] += trace.x.T @ gh0
    grads[f"{prefix}.b0"] += gh0.sum(axis=0)
    return gh0 @ a[f"{prefix}.W0"].T


def item_tower(params: ModelParams, raw: np.ndarray) -> tuple[np.ndarray, MlpTrace]:
    """Raw concatenated features -> item representation (ReLU hidden
    layers, linear output)."""
    if raw.ndim != 2 or raw.shape[1] != params.meta.raw_item_width:
        raise ValueError(f"raw batch must be (m, {params.meta.raw_item_width})")
    return _mlp3_forward(params, "item_tower", raw)


def item_tower_backward(
    params: ModelParams, trace: MlpTrace, grad_out: np.ndarray, grads: dict[str, np.ndarray]
) -> np.ndarray:
    return _mlp3_backward(params, "item_tower", trace, grad_out, grads)


def pad_histories(histories: list[list[int]], window: int) -> np.ndarray:
    """Right-align each history into a (m, window) int array, -1 padded.

    Explicit padding entries (negative values) in the input are dropped
    first, then the most recent ``window`` items are kept, so appending
    padding to a history cannot change the encoded matrix.
    """
    out = np.full((len(histories), window), PAD, dtype=np.int64)
    for i, history in enumerate(histories):
        real = [int(x) for x in history if int(x) >= 0]
        real = real[-window:]
        if real:
            out[i, window - len(real) :] = real
    return out


def _sinusoidal_positions(window: int, d: int) -> np.ndarray:
    pos = np.arange(window)[:, None]
    i = np.arange(d)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table


@dataclass
class UserTrace:
    hist: np.ndarray
    valid: np.ndarray
    profile_idx: np.ndarray
    items: np.ndarray  # (n_distinct,) sorted distinct history entries, padding included
    slot_item: np.ndarray  # (m, window) row of ``items`` holding each slot's entry
    item_x: np.ndarray  # (n_distinct, d) item embeddings, zero for padding
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray
    attn: np.ndarray
    o: np.ndarray
    ffn_h: np.ndarray
    mlp: MlpTrace


_QKV = (("attn.Wq", "attn.bq"), ("attn.Wk", "attn.bk"), ("attn.Wv", "attn.bv"))


def user_tower(
    params: ModelParams,
    histories: np.ndarray | list[list[int]],
    profile_idx: np.ndarray,
) -> tuple[np.ndarray, UserTrace]:
    """Behavior histories + profile fields -> user representation.

    ``histories`` may be a padded (m, window) index array or raw lists.
    Padding keys receive zero attention weight and padding positions are
    zeroed after the feed-forward, so they contribute nothing downstream.

    Queries, keys and values are projected once per distinct entry of
    ``histories`` and gathered per slot; with positional encoding the
    per-position term ``PE @ W`` is added on valid slots, which equals
    projecting ``x + PE`` by linearity. Padding projects a zero row, so
    its query, key and value are exactly the biases, whatever else the
    call holds.
    """
    meta = params.meta
    d = meta.dims.d_field
    window = meta.dims.behavior_window
    if not isinstance(histories, np.ndarray):
        histories = pad_histories(histories, window)
    if histories.shape[1] != window:
        raise ValueError(f"histories must be (m, {window})")
    a = params.arrays
    m = histories.shape[0]
    valid = histories >= 0
    items = np.unique(histories)
    slot_item = np.searchsorted(items, histories)
    item_x = a["emb.item_id"].take(items, axis=0)
    item_x[: np.searchsorted(items, 0)] = 0.0  # padding entries sort first
    qkv = []
    for w, b in _QKV:
        per_slot = _affine(item_x, a[w], a[b]).take(slot_item, axis=0)
        if meta.dims.positional_encoding:
            per_slot += np.where(valid[:, :, None], _sinusoidal_positions(window, d) @ a[w], 0.0)
        qkv.append(per_slot)
    q, k, v = qkv

    scores = np.matmul(q, k.transpose(0, 2, 1))
    scores /= np.sqrt(d)
    scores[~np.broadcast_to(valid[:, None, :], scores.shape)] = -1e30
    shift = scores.max(axis=2, keepdims=True)
    scores -= shift
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=2, keepdims=True)
    attn = np.matmul(probs, v)

    flat_attn = attn.reshape(m * window, d)
    o = _affine(flat_attn, a["attn.Wo"], a["attn.bo"])
    ffn_h = _affine(o, a["attn.Wf1"], a["attn.bf1"], relu=True)
    encoded = _affine(ffn_h, a["attn.Wf2"], a["attn.bf2"]).reshape(m, window, d)
    encoded *= valid[:, :, None]

    parts = [encoded.reshape(m, window * d)]
    for j, name in enumerate(meta.user_field_names):
        parts.append(a[f"user_emb.{name}"][profile_idx[:, j]])
    z = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
    u, mlp = _mlp3_forward(params, "user_tower", z)
    trace = UserTrace(histories, valid, profile_idx, items, slot_item, item_x, q, k, v, probs, attn, o, ffn_h, mlp)
    return u, trace


def user_tower_backward(
    params: ModelParams, trace: UserTrace, grad_u: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    meta = params.meta
    a = params.arrays
    d = meta.dims.d_field
    window = meta.dims.behavior_window
    m = trace.hist.shape[0]

    gz = _mlp3_backward(params, "user_tower", trace.mlp, grad_u, grads)
    g_encoded = gz[:, : window * d].reshape(m, window, d)
    offset = window * d
    for j, name in enumerate(meta.user_field_names):
        g_slice = gz[:, offset + j * d : offset + (j + 1) * d]
        _scatter_rows(grads[f"user_emb.{name}"], trace.profile_idx[:, j], g_slice)

    g_encoded *= trace.valid[:, :, None]  # in place into gz, disjoint from the profile slices
    g_flat = g_encoded.reshape(m * window, d)
    grads["attn.Wf2"] += trace.ffn_h.T @ g_flat
    grads["attn.bf2"] += g_flat.sum(axis=0)
    g_ffn = g_flat @ a["attn.Wf2"].T
    g_ffn[trace.ffn_h <= 0.0] = 0.0
    grads["attn.Wf1"] += trace.o.T @ g_ffn
    grads["attn.bf1"] += g_ffn.sum(axis=0)
    g_o = g_ffn @ a["attn.Wf1"].T
    flat_attn = trace.attn.reshape(m * window, d)
    grads["attn.Wo"] += flat_attn.T @ g_o
    grads["attn.bo"] += g_o.sum(axis=0)
    g_attn = (g_o @ a["attn.Wo"].T).reshape(m, window, d)

    g_probs = np.matmul(g_attn, trace.v.transpose(0, 2, 1))
    g_v = np.matmul(trace.probs.transpose(0, 2, 1), g_attn)
    inner = (g_probs * trace.probs).sum(axis=2, keepdims=True)
    g_scores = trace.probs * (g_probs - inner) / np.sqrt(d)
    g_q = np.matmul(g_scores, trace.k)
    g_k = np.matmul(g_scores.transpose(0, 2, 1), trace.q)

    # slot gradients summed per distinct item, padding included: the
    # biases see every slot, the weights and embeddings the item rows
    per_item = _segment_matrix(trace.slot_item.ravel(), trace.items.size)
    g_x = np.zeros_like(trace.item_x)
    for (w, b), g_slot in zip(_QKV, (g_q, g_k, g_v)):
        g_item = per_item @ g_slot.reshape(m * window, d)
        grads[w] += trace.item_x.T @ g_item
        if meta.dims.positional_encoding:
            grads[w] += _sinusoidal_positions(window, d).T @ (g_slot * trace.valid[:, :, None]).sum(axis=0)
        grads[b] += g_item.sum(axis=0)
        g_x += g_item @ a[w].T
    n_pad = np.searchsorted(trace.items, 0)
    grads["emb.item_id"][trace.items[n_pad:]] += g_x[n_pad:]


# ---------------------------------------------------------------------------
# projectors


_PROJ_PREFIX = {"f": "proj_f", "t": "proj_t", "s": "proj_s"}


def project(params: ModelParams, which: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single affine projector ('f' on raw features, 't'/'s' on item-tower
    outputs). Returns (projection, input) where the input is the trace."""
    prefix = _PROJ_PREFIX[which]
    w = params.arrays[f"{prefix}.W"]
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"projector {which!r} expects input width {w.shape[0]}, got {x.shape}")
    return x @ w + params.arrays[f"{prefix}.b"], x


def project_backward(
    params: ModelParams,
    which: str,
    trace_x: np.ndarray,
    grad_y: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    prefix = _PROJ_PREFIX[which]
    grads[f"{prefix}.W"] += trace_x.T @ grad_y
    grads[f"{prefix}.b"] += grad_y.sum(axis=0)
    return grad_y @ params.arrays[f"{prefix}.W"].T


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: ModelParams, path: str, config: dict | None = None) -> None:
    """Single-file checkpoint: magic line, JSON manifest (meta, config,
    array shapes), then raw little-endian float64 blocks. Bit-exact on
    round trip."""
    manifest = {
        "meta": params.meta.to_dict(),
        "config": config or {},
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in params.arrays.items()],
    }
    buffer = io.BytesIO()
    buffer.write(_CHECKPOINT_MAGIC)
    buffer.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
    buffer.write(b"\n")
    for arr in params.arrays.values():
        buffer.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    from .util import atomic_write_bytes

    atomic_write_bytes(path, buffer.getvalue())


def load_checkpoint(path: str, expect_meta: ModelMeta | None = None) -> tuple[ModelParams, dict]:
    """Load a checkpoint; optionally validate its shapes against the meta
    derived from the current catalog, naming the first mismatch."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(_CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    body = blob[len(_CHECKPOINT_MAGIC) :]
    newline = body.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: truncated checkpoint (missing manifest)")
    manifest = json.loads(body[:newline].decode("utf-8"))
    meta = ModelMeta.from_dict(manifest["meta"])
    arrays: dict[str, np.ndarray] = {}
    cursor = newline + 1
    for entry in manifest["arrays"]:
        shape = tuple(int(x) for x in entry["shape"])
        nbytes = int(np.prod(shape)) * 8
        block = body[cursor : cursor + nbytes]
        if len(block) != nbytes:
            raise ValueError(f"{path}: truncated checkpoint (array {entry['name']})")
        arrays[entry["name"]] = np.frombuffer(block, dtype="<f8").reshape(shape).copy()
        cursor += nbytes
    params = ModelParams(meta, arrays)
    if expect_meta is not None:
        expected = dict(_array_shapes(expect_meta))
        for name, shape in expected.items():
            if name not in arrays:
                raise ValueError(f"{path}: checkpoint is missing array {name!r}")
            if arrays[name].shape != shape:
                raise ValueError(
                    f"{path}: shape mismatch for {name!r}: checkpoint {arrays[name].shape}, expected {shape}"
                )
        for name in arrays:
            if name not in expected:
                raise ValueError(f"{path}: checkpoint has unexpected array {name!r}")
    return params, manifest["config"]
