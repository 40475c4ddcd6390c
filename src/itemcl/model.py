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
in the slot, so one builder, ``_build_rows``, folds the first layer and
projects a set of table rows once each, and the slots gather the rows.
Table row r holds history entry r - 1; every negative entry is padding,
row 0. A training call builds its histories' distinct rows, found by a
presence array over the table, not a sort; its backward pass sums the
slot gradients per row before the projection weights see them.

A ``UserTrace`` keeps the builder's value ``attn`` (the fold and, per
row, the embedding ``x`` and ``q``, ``k``, ``v``, ``o`` and ``f``),
``slot_item``, the attention weights and the MLP trace; it holds no (m,
window, d) array. The per-slot stage (the gathers, the batched products
and the softmax, ReLU and padding passes, forward and backward) runs
over blocks of ``USER_BLOCK`` users, whose arrays stay in cache; each
block writes its rows of whole arrays allocated once per call. Every
reduction across users stays whole, so that the block size changes no
bit: the first layer's products and each per-item sum of slot
gradients, one sparse product over all slots that adds up an item's
slots in slot order. The backward sums the gradient of ``f`` per item
before it forms those of ``q`` and ``k``, so it holds at most two
slot-gradient arrays at once.

Between attention and the feed-forward ReLU everything is affine, and
every attention row sums to 1 (an all-padding row spreads uniform weight
over padding values), so ``relu(((probs @ v) Wo + bo) Wf1 + bf1)`` equals
``relu(probs @ f)`` with the value chain ``f = ((x Wv + bv) Wo + bo) Wf1
+ bf1``. ``f`` is computed per distinct item like the query and key, so
``attn.Wv``, ``attn.Wo`` and ``attn.Wf1`` never run per slot.

The encoded slots ``valid * (relu(probs @ f) Wf2 + bf2)`` feed only the
user MLP's first layer, so ``attn.Wf2`` and ``attn.bf2`` are folded into
that layer's slot blocks ``W0_s`` as ``Wf2 W0_s`` and ``bf2 W0_s``
(``fold_first_layer``). The tower writes ``relu(probs @ f)`` and
``valid`` straight into the first layer's input, whose first window *
ffn columns then stand for the feed-forward's hidden layer in the trace.

Training builds its rows on every call, since its updates write the
arrays in place. Serving reads one ``Served`` value per model
(``ModelParams.served``): the same builder over all n_items + 1 table
rows, less the ``x``, ``v`` and ``o`` that only the backward reads, so a
served call gathers its slots' rows by ``entry + 1`` and runs no
attention affine. On the OpenBLAS build this was checked on, a row of
a matrix product has the same bits whatever the product's row count (at
two or more), so a served user vector equals the default path's bit for
bit, except for a full window of one item: the default path projects
that single distinct row by a matrix-vector product, which may sum in
another order.
"""

from __future__ import annotations

import io
import json
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from itertools import repeat, zip_longest
from operator import itemgetter

import numpy as np
from scipy import sparse

from .augment import AugmentationPlan, augmentation_masks
from .data import PAD, ItemCatalog, UserProfileTable
from .rng import substream
from .util import atomic_write_bytes

USER_BLOCK = 64  # users per block of the user tower's per-slot stage (module docstring)

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

    @property
    def d_out(self) -> int:
        return self.tower_dims[-1]

    @classmethod
    def from_dict(cls, d: dict) -> "ModelDims":
        # a switch the model has since dropped loads only in its off state
        for key in sorted(d.keys() - {f.name for f in fields(cls)}):
            if d[key] is not False:
                raise ValueError(f"dims.{key} is {d[key]!r}, an option this model does not have")
        return _from_fields(cls, d)


ITEM_FIELDS = ("item_id", "tags", "provider")  # the raw item embedding's d_field-wide slices, in order


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
        return len(ITEM_FIELDS) * self.dims.d_field

    @property
    def user_other_width(self) -> int:
        return len(self.user_field_names) * self.dims.d_field

    @property
    def user_input_width(self) -> int:
        return self.dims.behavior_window * self.dims.d_field + self.user_other_width

    @classmethod
    def from_dict(cls, d: dict) -> "ModelMeta":
        return _from_fields(cls, d)


def _from_fields(cls, d: dict):
    """Rebuild dataclass ``cls`` from its ``dataclasses.asdict`` form read
    back from JSON, each field decoded by its annotation."""
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: _decode(hints[f.name], d[f.name]) for f in fields(cls)})


def _decode(tp, value):
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin is dict:
        return {k: _decode(args[1], v) for k, v in value.items()}
    if origin in (list, tuple):
        return origin(_decode(args[0], v) for v in value)
    return origin.from_dict(value) if is_dataclass(origin) else origin(value)


def build_meta(
    catalog: ItemCatalog,
    profiles: UserProfileTable | None = None,
    dims: ModelDims | None = None,
) -> ModelMeta:
    """Collect vocabularies in first-appearance order (deterministic given
    the input files)."""
    dims = dims or ModelDims()
    names = tuple(profiles.field_names) if profiles is not None else ()
    return ModelMeta(
        dims,
        catalog.item_ids(),
        list(dict.fromkeys(tag for item in catalog.items for tag in item.tags)),
        list(dict.fromkeys(item.provider for item in catalog.items)),
        names,
        {name: list(dict.fromkeys(row[j] for row in profiles.rows.values())) for j, name in enumerate(names)},
    )


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
        if name != "Wk":  # a bias on every key shifts a query's scores alike; softmax ignores it
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


# the arrays a ``Served`` value is computed from: the fold's, then the attention chain's
SERVED_INPUTS = (
    "user_tower.W0", "attn.Wf2", "attn.bf2",
    "emb.item_id", "attn.Wq", "attn.bq", "attn.Wk", "attn.Wv", "attn.bv", "attn.Wo", "attn.bo", "attn.Wf1", "attn.bf1",
)


@dataclass(frozen=True)
class Served:
    """What a served call reads (module docstring): the folded first layer
    and rows ``q``, ``k`` and ``f``, of every table row in ``served()``."""

    w0: np.ndarray
    q: np.ndarray
    k: np.ndarray
    f: np.ndarray


@dataclass(frozen=True)
class AttentionRows(Served):
    """A training call's value: the fold and the attention rows of the
    ascending table rows ``rows``, and what its backward reads besides."""

    rows: np.ndarray
    x: np.ndarray  # item embedding, zero for padding
    v: np.ndarray  # value
    o: np.ndarray  # value through attn.Wo


class ModelParams:
    """All trainable state: a name->float64 ndarray dict plus the meta that
    fixes the shapes. The trainer is the single writer; it writes in place
    and ``train()`` returns fresh arrays, so serving never sees an in-place
    write. ``served`` memoizes on the identity of the ``SERVED_INPUTS``
    arrays, so a new array under one of their names builds it afresh."""

    def __init__(self, meta: ModelMeta, arrays: dict[str, np.ndarray]):
        self.meta = meta
        self.arrays = arrays
        self._served: tuple[list[np.ndarray], Served] | None = None  # (inputs, value)

    def served(self) -> Served:
        """The model's ``Served`` value, built once while the arrays it is
        computed from stay the same objects. Its tables hold (n_items + 1)
        * (2 * d_field + ffn_dim) float64s."""
        inputs = [self.arrays[name] for name in SERVED_INPUTS]
        if self._served is None or any(a is not b for a, b in zip(self._served[0], inputs)):
            every = _build_rows(self, np.arange(self.meta.n_items + 1))
            value = Served(every.w0, every.q, every.k, every.f)
            for arr in (value.w0, value.q, value.k, value.f):
                arr.flags.writeable = False
            self._served = (inputs, value)
        return self._served[1]

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


def _segment_matrix(idx: np.ndarray, n: int) -> sparse.csc_matrix:
    """(n, len(idx)) one-hot matrix with a one at (idx[k], k): its product
    with a (len(idx), w) array sums the rows per index."""
    return sparse.csc_matrix((np.ones(idx.size), idx, np.arange(idx.size + 1)), shape=(n, idx.size))


def _scatter_rows(dst: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """dst[idx[k]] += rows[k] with duplicate indices accumulated."""
    dst += _segment_matrix(idx, dst.shape[0]) @ rows


# ---------------------------------------------------------------------------
# catalog / profile encodings


def _check_item_ids(catalog_ids: list[str], model_ids: list[str], where: str, model: str) -> None:
    """Raise ``ValueError`` after ``where`` naming the first index where the
    catalog's and the ``model``'s item ids differ, and both ids there."""
    for i, (ours, theirs) in enumerate(zip_longest(catalog_ids, model_ids)):
        if ours != theirs:
            raise ValueError(f"{where}: item {i} is {ours!r} in the catalog but {theirs!r} in the {model}")


class EncodedCatalog:
    """Catalog projected onto the meta's vocabularies: per-item provider
    index and a CSR layout of tag indices."""

    def __init__(self, catalog: ItemCatalog, meta: ModelMeta):
        where = "catalog item_ids do not match the model's item vocabulary"
        _check_item_ids(catalog.item_ids(), meta.item_ids, where, "model")
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
    """user_id -> per-field vocabulary indices: one ``table`` row per
    profiled user, then the OOV row, to which unknown users and values map."""

    def __init__(self, profiles: UserProfileTable | None, meta: ModelMeta):
        names = meta.user_field_names
        rows = profiles.rows if profiles is not None and names else {}
        self.row_of = {user_id: i for i, user_id in enumerate(rows)}
        self.table = np.empty((len(rows) + 1, len(names)), dtype=np.int64)
        for j, name in enumerate(names):  # one column per field
            vocab = meta.user_field_vocabs[name]
            index, oov = {v: i for i, v in enumerate(vocab)}.get, len(vocab)
            if rows:
                if name not in profiles.field_names:
                    raise ValueError(f"profile table lacks field {name!r}; its fields: {list(profiles.field_names)}")
                values = map(itemgetter(profiles.field_names.index(name)), rows.values())
                self.table[:-1, j] = list(map(index, values, repeat(oov)))
            self.table[-1, j] = oov
        self.oov_row = self.table[-1]

    def row(self, user_id: str) -> np.ndarray:
        return self.table[self.row_of.get(user_id, len(self.row_of))]

    def rows(self, user_ids: list[str]) -> np.ndarray:
        return self.table[[self.row_of.get(u, len(self.row_of)) for u in user_ids]]


# ---------------------------------------------------------------------------
# raw item embeddings


@dataclass
class EmbedTrace:
    ids: np.ndarray
    flat_tags: np.ndarray  # the tags pooled per item, kept ones only in an augmented view
    tag_lens: np.ndarray
    zero_mask: np.ndarray | None = None  # (m, width) True where an augmented view was zeroed


def _concat_fields(
    params: ModelParams, enc: EncodedCatalog, ids: np.ndarray, flat_tags: np.ndarray, lens: np.ndarray
) -> np.ndarray:
    """[item id | mean of the item's ``lens`` tags in ``flat_tags`` |
    provider] per item; an empty tag set pools to zero."""
    tag_mean = np.zeros((len(ids), params.meta.dims.d_field))
    if flat_tags.size:
        _scatter_rows(tag_mean, np.repeat(np.arange(len(ids)), lens), params.arrays["emb.tags"][flat_tags])
        tag_mean /= np.maximum(lens, 1)[:, None]
    prov_rows = params.arrays["emb.provider"][enc.provider_idx[ids]]
    return np.concatenate([params.arrays["emb.item_id"][ids], tag_mean, prov_rows], axis=1)


def embed_items(params: ModelParams, enc: EncodedCatalog, ids: np.ndarray) -> tuple[np.ndarray, EmbedTrace]:
    """Concatenated raw feature embeddings for a batch of item indices.
    Multi-valued tags are mean-pooled; an empty tag set pools to zero."""
    ids = np.asarray(ids, dtype=np.int64)
    flat_tags, lens = enc.tag_rows(ids)
    return _concat_fields(params, enc, ids, flat_tags, lens), EmbedTrace(ids, flat_tags, lens)


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


def embed_items_augmented(
    params: ModelParams,
    enc: EncodedCatalog,
    ids: np.ndarray,
    plan: AugmentationPlan,
    rng: np.random.Generator,
) -> tuple[np.ndarray, EmbedTrace]:
    """Augmented view of each item's raw embedding under ``plan``.

    Every mask comes from one ``augmentation_masks`` call over the items
    in input order, so two calls with an identically seeded generator
    produce identical views. The non-categorial strategies keep every tag.
    """
    ids = np.asarray(ids, dtype=np.int64)
    flat_tags, lens = enc.tag_rows(ids)
    keep, zero_mask = augmentation_masks(len(ITEM_FIELDS), params.meta.dims.d_field, plan, lens, rng)
    kept_flat = flat_tags[keep]
    kept_lens = np.bincount(np.repeat(np.arange(len(ids)), lens)[keep], minlength=len(ids))
    raw = _concat_fields(params, enc, ids, kept_flat, kept_lens)
    out = np.where(zero_mask, 0.0, raw)
    return out, EmbedTrace(ids, kept_flat, kept_lens, zero_mask)


def embed_items_augmented_backward(
    params: ModelParams,
    enc: EncodedCatalog,
    trace: EmbedTrace,
    grad_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    embed_items_backward(params, enc, trace, np.where(trace.zero_mask, 0.0, grad_out), grads)


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


def _mlp3_forward(
    params: ModelParams, prefix: str, x: np.ndarray, w0: np.ndarray
) -> tuple[np.ndarray, MlpTrace]:
    """Three layers over ``x``, the first applying weight ``w0``."""
    a = params.arrays
    h0 = _affine(x, w0, a[f"{prefix}.b0"], relu=True)
    h1 = _affine(h0, a[f"{prefix}.W1"], a[f"{prefix}.b1"], relu=True)
    y = _affine(h1, a[f"{prefix}.W2"], a[f"{prefix}.b2"])
    return y, MlpTrace(x, h0, h1)


def _mlp3_backward(
    params: ModelParams,
    prefix: str,
    trace: MlpTrace,
    grad_y: np.ndarray,
    grads: dict[str, np.ndarray],
    w0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulates every gradient but that of the first layer's weight
    ``w0``; returns it and the gradient of the input."""
    a = params.arrays
    grads[f"{prefix}.W2"] += trace.h1.T @ grad_y
    grads[f"{prefix}.b2"] += grad_y.sum(axis=0)
    gh1 = grad_y @ a[f"{prefix}.W2"].T
    gh1[trace.h1 <= 0.0] = 0.0
    grads[f"{prefix}.W1"] += trace.h0.T @ gh1
    grads[f"{prefix}.b1"] += gh1.sum(axis=0)
    gh0 = gh1 @ a[f"{prefix}.W1"].T
    gh0[trace.h0 <= 0.0] = 0.0
    grads[f"{prefix}.b0"] += gh0.sum(axis=0)
    return trace.x.T @ gh0, gh0 @ w0.T


def item_tower(params: ModelParams, raw: np.ndarray) -> tuple[np.ndarray, MlpTrace]:
    """Raw concatenated features -> item representation (ReLU hidden
    layers, linear output)."""
    if raw.ndim != 2 or raw.shape[1] != params.meta.raw_item_width:
        raise ValueError(f"raw batch must be (m, {params.meta.raw_item_width})")
    return _mlp3_forward(params, "item_tower", raw, params.arrays["item_tower.W0"])


def item_tower_backward(
    params: ModelParams, trace: MlpTrace, grad_out: np.ndarray, grads: dict[str, np.ndarray]
) -> np.ndarray:
    g_w0, g_raw = _mlp3_backward(params, "item_tower", trace, grad_out, grads, params.arrays["item_tower.W0"])
    grads["item_tower.W0"] += g_w0
    return g_raw


def _user_blocks(m: int) -> typing.Iterator[slice]:
    """Consecutive slices of ``USER_BLOCK`` users covering ``m``."""
    return (slice(lo, lo + USER_BLOCK) for lo in range(0, m, USER_BLOCK))


def pad_histories(histories: list[list[int]], window: int) -> np.ndarray:
    """Right-align each history into a (m, window) int array, ``PAD`` padded.

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


@dataclass
class UserTrace:
    """What ``user_tower_backward`` reads. A served call's ``attn`` is the
    ``Served`` value, which has no backward."""

    valid: np.ndarray
    profile_idx: np.ndarray
    attn: Served  # the fold and attention rows; an ``AttentionRows`` without ``served``
    slot_item: np.ndarray  # (m, window) row of ``attn`` holding each slot's entry
    probs: np.ndarray  # (m, window, window) attention weights
    # ``mlp.x`` is [relu(probs @ f) per slot, (m, window * ffn) | valid | profile]
    mlp: MlpTrace


def fold_first_layer(params: ModelParams) -> np.ndarray:
    """The user MLP's first-layer weight over ``[relu(probs @ f) | valid |
    profile]``: ``user_tower.W0`` with ``attn.Wf2`` and ``attn.bf2`` folded
    into its slot blocks (module docstring)."""
    a = params.arrays
    window, d, h1 = params.meta.dims.behavior_window, params.meta.dims.d_field, params.meta.dims.tower_dims[0]
    w0 = a["user_tower.W0"]
    w0_slots = w0[: window * d].reshape(window, d, h1)
    return np.concatenate([(a["attn.Wf2"] @ w0_slots).reshape(-1, h1), a["attn.bf2"] @ w0_slots, w0[window * d :]])


def _attention_rows(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The query, key, value, value through ``attn.Wo`` and value chain
    ``f`` of item embedding rows ``x`` (module docstring)."""
    a = params.arrays
    q = _affine(x, a["attn.Wq"], a["attn.bq"])
    k = x @ a["attn.Wk"]  # keys take no bias
    v = _affine(x, a["attn.Wv"], a["attn.bv"])
    o = _affine(v, a["attn.Wo"], a["attn.bo"])
    f = _affine(o, a["attn.Wf1"], a["attn.bf1"])
    return q, k, v, o, f


def _build_rows(params: ModelParams, rows: np.ndarray) -> AttentionRows:
    """The fold and the attention rows of ascending table rows ``rows``
    (module docstring); padding, row 0, runs a zero embedding."""
    x = params.arrays["emb.item_id"].take(rows + PAD, axis=0)
    x[: np.searchsorted(rows, 1)] = 0.0  # padding sorts first
    q, k, v, o, f = _attention_rows(params, x)
    return AttentionRows(fold_first_layer(params), q, k, f, rows, x, v, o)


def user_tower(
    params: ModelParams,
    histories: np.ndarray | list[list[int]],
    profile_idx: np.ndarray,
    served: Served | None = None,
) -> tuple[np.ndarray, UserTrace]:
    """Behavior histories + profile fields -> user representation.

    ``histories`` may be a padded (m, window) index array or raw lists.
    Padding keys receive zero attention weight and padding positions are
    zeroed after the feed-forward, so they contribute nothing downstream.

    The slots gather their attention rows and the fold from one value:
    without ``served``, ``_build_rows`` over the call's distinct table
    rows; with it (``params.served()``), the served tables. Padding runs a
    zero row, so its query is exactly ``bq``, its key exactly zero and its
    value chain that of ``bv``, whatever else the call holds.
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
    # each slot's table row, entry + 1; every negative entry is padding, row 0
    slot_item = np.maximum(histories, PAD) + 1
    attn = served
    if attn is None:
        present = np.zeros(meta.n_items + 1, dtype=bool)
        present[slot_item] = True
        attn = _build_rows(params, np.flatnonzero(present))
        row_of = np.empty(meta.n_items + 1, dtype=np.intp)
        row_of[attn.rows] = np.arange(attn.rows.size)
        slot_item = row_of[slot_item]

    n_ffn = window * meta.dims.ffn_dim
    z = np.empty((m, attn.w0.shape[0]))
    z[:, n_ffn : n_ffn + window] = valid
    for j, name in enumerate(meta.user_field_names):
        z[:, n_ffn + window + j * d : n_ffn + window + (j + 1) * d] = a[f"user_emb.{name}"][profile_idx[:, j]]
    ffn_h = z[:, :n_ffn].reshape(m, window, -1)  # a view: the blocks below write into z

    # the per-slot stage, USER_BLOCK users at a time (module docstring)
    probs = np.empty((m, window, window))
    for blk in _user_blocks(m):
        slots, keep = slot_item[blk], valid[blk]
        p = np.matmul(attn.q.take(slots, axis=0), attn.k.take(slots, axis=0).transpose(0, 2, 1), out=probs[blk])
        p /= np.sqrt(d)
        np.copyto(p, -1e30, where=~keep[:, None, :])
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=2, keepdims=True)
        h = np.matmul(p, attn.f.take(slots, axis=0), out=ffn_h[blk])
        np.maximum(h, 0.0, out=h)
        h[~keep] = 0.0  # padding slots feed nothing; the backward's relu mask then masks them too
    u, mlp = _mlp3_forward(params, "user_tower", z, attn.w0)
    return u, UserTrace(valid, profile_idx, attn, slot_item, probs, mlp)


def _ffn_backward(
    params: ModelParams, trace: UserTrace, grad_u: np.ndarray, grads: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The user tower's backward from the user vector through the MLP, the
    profile embeddings, the fold of ``attn.Wf2``, ``relu(probs @ f)`` and
    the softmax. Returns the gradient of the scores, scaled by their 1 /
    sqrt(d), and that of ``f`` per slot, (m * window, ffn). The gradient
    of the first layer's input, the largest array of the backward, lives
    only inside this call."""
    meta = params.meta
    a = params.arrays
    d = meta.dims.d_field
    window = meta.dims.behavior_window
    m = trace.valid.shape[0]
    n_ffn = window * meta.dims.ffn_dim

    g_w0, gz = _mlp3_backward(params, "user_tower", trace.mlp, grad_u, grads, trace.attn.w0)
    offset = gz.shape[1] - len(meta.user_field_names) * d
    for j, name in enumerate(meta.user_field_names):
        g_slice = gz[:, offset + j * d : offset + (j + 1) * d]
        _scatter_rows(grads[f"user_emb.{name}"], trace.profile_idx[:, j], g_slice)

    # back through fold_first_layer to the arrays it is folded from
    h1 = g_w0.shape[1]
    w0_slots = a["user_tower.W0"][: window * d].reshape(window, d, h1)
    g_fold = g_w0[:n_ffn].reshape(window, -1, h1)
    g_bias = g_w0[n_ffn:offset]
    grads["user_tower.W0"][: window * d] += (
        a["attn.Wf2"].T @ g_fold + a["attn.bf2"][:, None] * g_bias[:, None, :]
    ).reshape(window * d, h1)
    grads["user_tower.W0"][window * d :] += g_w0[offset:]
    grads["attn.Wf2"] += np.tensordot(g_fold, w0_slots, axes=([0, 2], [0, 2]))
    grads["attn.bf2"] += np.tensordot(w0_slots, g_bias, axes=([0, 2], [0, 1]))

    # the per-slot stage, USER_BLOCK users at a time (module docstring)
    g_scores = np.empty_like(trace.probs)
    g_f = np.empty((m, window, meta.dims.ffn_dim))
    for blk in _user_blocks(m):
        p = trace.probs[blk]
        g = gz[blk, :n_ffn]
        g *= trace.mlp.x[blk, :n_ffn] > 0.0
        g = g.reshape(p.shape[0], window, -1)
        gs = np.matmul(g, trace.attn.f.take(trace.slot_item[blk], axis=0).transpose(0, 2, 1), out=g_scores[blk])
        np.matmul(p.transpose(0, 2, 1), g, out=g_f[blk])
        gs -= (gs * p).sum(axis=2, keepdims=True)
        gs *= p
        gs /= np.sqrt(d)
    return g_scores, g_f.reshape(m * window, -1)


def user_tower_backward(
    params: ModelParams, trace: UserTrace, grad_u: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    a = params.arrays
    d = params.meta.dims.d_field
    m, window = trace.valid.shape
    attn = trace.attn

    # slot gradients summed per table row, padding included: the biases
    # see every slot, the weights and embeddings the item rows
    per_item = _segment_matrix(trace.slot_item.ravel(), attn.rows.size)
    g_scores, g_f = _ffn_backward(params, trace, grad_u, grads)
    g_f = per_item @ g_f
    g_q = np.empty((m, window, d))
    g_k = np.empty((m, window, d))
    for blk in _user_blocks(m):
        slots, gs = trace.slot_item[blk], g_scores[blk]
        np.matmul(gs, attn.k.take(slots, axis=0), out=g_q[blk])
        np.matmul(gs.transpose(0, 2, 1), attn.q.take(slots, axis=0), out=g_k[blk])
    g_q = per_item @ g_q.reshape(m * window, -1)
    g_k = per_item @ g_k.reshape(m * window, -1)
    grads["attn.Wq"] += attn.x.T @ g_q
    grads["attn.bq"] += g_q.sum(axis=0)
    grads["attn.Wk"] += attn.x.T @ g_k
    grads["attn.Wf1"] += attn.o.T @ g_f
    grads["attn.bf1"] += g_f.sum(axis=0)
    g_o = g_f @ a["attn.Wf1"].T
    grads["attn.Wo"] += attn.v.T @ g_o
    grads["attn.bo"] += g_o.sum(axis=0)
    g_v = g_o @ a["attn.Wo"].T
    grads["attn.Wv"] += attn.x.T @ g_v
    grads["attn.bv"] += g_v.sum(axis=0)
    g_x = g_q @ a["attn.Wq"].T + g_k @ a["attn.Wk"].T + g_v @ a["attn.Wv"].T
    n_pad = np.searchsorted(attn.rows, 1)
    grads["emb.item_id"][attn.rows[n_pad:] + PAD] += g_x[n_pad:]


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
        "meta": asdict(params.meta),
        "config": config or {},
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in params.arrays.items()],
    }
    buffer = io.BytesIO()
    buffer.write(_CHECKPOINT_MAGIC)
    buffer.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
    buffer.write(b"\n")
    for arr in params.arrays.values():
        buffer.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    atomic_write_bytes(path, buffer.getvalue())


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Load a checkpoint; a file that does not parse raises ``ValueError``
    naming ``path``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(_CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    body = blob[len(_CHECKPOINT_MAGIC) :]
    newline = body.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: truncated checkpoint (missing manifest)")
    try:
        manifest = json.loads(body[:newline].decode("utf-8"))
        meta = ModelMeta.from_dict(manifest["meta"])
        entries = [(entry["name"], tuple(int(x) for x in entry["shape"])) for entry in manifest["arrays"]]
        config = manifest["config"]
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint manifest lacks key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:  # bad JSON or UTF-8 are ValueErrors too
        raise ValueError(f"{path}: bad checkpoint manifest: {exc}") from None
    arrays: dict[str, np.ndarray] = {}
    cursor = newline + 1
    for name, shape in entries:
        nbytes = int(np.prod(shape)) * 8
        block = body[cursor : cursor + nbytes]
        if len(block) != nbytes:
            raise ValueError(f"{path}: truncated checkpoint (array {name})")
        arrays[name] = np.frombuffer(block, dtype="<f8").reshape(shape).copy()
        cursor += nbytes
    if cursor != len(body):
        raise ValueError(f"{path}: {len(body) - cursor} bytes after the last array")
    return ModelParams(meta, arrays), config


def check_shapes(params: ModelParams, expect_meta: ModelMeta, path: str) -> None:
    """Validate loaded arrays, the item ids and the tag and provider
    vocabularies against the meta derived from the current catalog; the
    first mismatch raises ``ValueError`` naming ``path``."""
    expected = dict(_array_shapes(expect_meta))
    for name, shape in expected.items():
        if name not in params.arrays:
            raise ValueError(f"{path}: checkpoint is missing array {name!r}")
        if params.arrays[name].shape != shape:
            raise ValueError(
                f"{path}: shape mismatch for {name!r}: checkpoint {params.arrays[name].shape}, expected {shape}"
            )
    for name in params.arrays:
        if name not in expected:
            raise ValueError(f"{path}: checkpoint has unexpected array {name!r}")
    # a vocabulary of the checkpoint's size may still hold other names
    _check_item_ids(expect_meta.item_ids, params.meta.item_ids, path, "checkpoint")
    for kind, known, names in (
        ("tag", set(params.meta.tag_vocab), expect_meta.tag_vocab),
        ("provider", set(params.meta.provider_vocab), expect_meta.provider_vocab),
    ):
        unknown = next((name for name in names if name not in known), None)
        if unknown is not None:
            raise ValueError(f"{path}: the catalog's {kind} {unknown!r} is not in the checkpoint's {kind} vocabulary")
