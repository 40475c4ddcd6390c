"""Forward passes, masking conventions, and checkpoint serialization."""

import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from itemcl import model
from itemcl.config import TrainConfig
from itemcl.data import Item, ItemCatalog, UserProfileTable
from itemcl.model import (
    ITEM_FIELDS,
    EncodedCatalog,
    EncodedProfiles,
    PAD,
    ModelDims,
    _scatter_rows,
    build_meta,
    check_shapes,
    embed_items,
    embed_items_augmented,
    init_params,
    item_tower,
    load_checkpoint,
    pad_histories,
    project,
    save_checkpoint,
    user_tower,
    user_tower_backward,
    zero_grads,
)
from itemcl.synthetic import SyntheticSpec, generate


class TestEmbedItems:
    def test_concatenation_and_tag_mean(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        d = params.meta.dims.d_field
        raw, _ = embed_items(params, enc, np.array([0]))
        assert raw.shape == (1, 3 * d)
        tags = params.arrays["emb.tags"]
        t1, t2 = params.meta.tag_vocab.index("t1"), params.meta.tag_vocab.index("t2")
        np.testing.assert_allclose(raw[0, d : 2 * d], (tags[t1] + tags[t2]) / 2)

    def test_empty_tag_set_pools_to_zero(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        d = params.meta.dims.d_field
        raw, _ = embed_items(params, enc, np.array([4]))  # item "e" has no tags
        np.testing.assert_array_equal(raw[0, d : 2 * d], np.zeros(d))

    def test_tag_pooling_equals_add_at(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        d = params.meta.dims.d_field
        ids = np.random.default_rng(2).integers(0, 6, size=200)
        raw, trace = embed_items(params, enc, ids)
        expected = np.zeros((ids.size, d))
        np.add.at(expected, np.repeat(np.arange(ids.size), trace.tag_lens), params.arrays["emb.tags"][trace.flat_tags])
        expected /= np.maximum(trace.tag_lens, 1)[:, None]
        np.testing.assert_array_equal(raw[:, d : 2 * d], expected)

    def test_lookup_equals_table_rows(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        d = params.meta.dims.d_field
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 6, size=100)
        raw, _ = embed_items(params, enc, ids)
        for row, i in enumerate(ids):
            np.testing.assert_array_equal(raw[row, :d], params.arrays["emb.item_id"][i])
            np.testing.assert_array_equal(
                raw[row, 2 * d :], params.arrays["emb.provider"][enc.provider_idx[i]]
            )


class TestItemTower:
    def test_zero_params_give_zero_output(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        zeroed = params.copy()
        for name in zeroed.arrays:
            if name.startswith("item_tower."):
                zeroed.arrays[name][...] = 0.0
        raw, _ = embed_items(zeroed, enc, np.arange(6))
        out, _ = item_tower(zeroed, raw)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_matches_hand_recomputation(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        raw, _ = embed_items(params, enc, np.arange(6))
        out, _ = item_tower(params, raw)
        a = params.arrays
        h0 = np.maximum(raw @ a["item_tower.W0"] + a["item_tower.b0"], 0)
        h1 = np.maximum(h0 @ a["item_tower.W1"] + a["item_tower.b1"], 0)
        np.testing.assert_allclose(out, h1 @ a["item_tower.W2"] + a["item_tower.b2"], atol=1e-12)

    def test_output_dimension(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        raw, _ = embed_items(params, enc, np.arange(3))
        out, _ = item_tower(params, raw)
        assert out.shape == (3, params.meta.dims.d_out)

    def test_width_mismatch_rejected(self, tiny):
        with pytest.raises(ValueError, match="raw batch"):
            item_tower(tiny["params"], np.zeros((2, 5)))


def slot_hidden(params, trace):
    """relu(probs @ f) per slot, (m, window, ffn): the first window * ffn
    columns of the first layer's input."""
    dims = params.meta.dims
    m = trace.valid.shape[0]
    return trace.mlp.x[:, : dims.behavior_window * dims.ffn_dim].reshape(m, dims.behavior_window, dims.ffn_dim)


class TestUserTower:
    def test_empty_history_driven_by_profile_alone(self, tiny):
        params, prof = tiny["params"], tiny["prof_enc"]
        profile_width = params.meta.user_other_width
        # alone, and first of a batch of four
        for histories in ([[]], [[], [0, 2], [1], [3, 4, 5]]):
            u, trace = user_tower(params, histories, prof.rows(["u1"] * len(histories)))
            np.testing.assert_array_equal(trace.valid[0], False)
            # the behavior part of the first layer's input is exactly zero
            np.testing.assert_array_equal(trace.mlp.x[0, :-profile_width], 0.0)
            assert np.all(np.isfinite(u))

    def test_single_item_history_attention_is_value_projection(self, tiny):
        params = tiny["params"]
        profile_idx = tiny["prof_enc"].rows(["u1"])
        _, trace = user_tower(params, [[2]], profile_idx)
        a = params.arrays
        x = params.arrays["emb.item_id"][2]
        expected_f = ((x @ a["attn.Wv"] + a["attn.bv"]) @ a["attn.Wo"] + a["attn.bo"]) @ a["attn.Wf1"] + a["attn.bf1"]
        np.testing.assert_allclose(trace.attn.f[trace.slot_item[0, -1]], expected_f, atol=1e-12)
        # the one valid key takes all of the slot's attention
        np.testing.assert_allclose(slot_hidden(params, trace)[0, -1], np.maximum(expected_f, 0.0), atol=1e-12)

    def test_attention_matches_hand_computed_softmax(self, tiny):
        params = tiny["params"]
        profile_idx = tiny["prof_enc"].rows(["u2"])
        history = [1, 3, 4]
        _, trace = user_tower(params, [history], profile_idx)
        a = params.arrays
        d = params.meta.dims.d_field
        x = params.arrays["emb.item_id"][history]
        q = x @ a["attn.Wq"] + a["attn.bq"]
        k = x @ a["attn.Wk"]
        v = x @ a["attn.Wv"] + a["attn.bv"]
        scores = q @ k.T / np.sqrt(d)
        probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(trace.probs[0], probs, atol=1e-12)
        # attention output through attn.Wo and the feed-forward's first layer
        ffn_h = np.maximum(((probs @ v) @ a["attn.Wo"] + a["attn.bo"]) @ a["attn.Wf1"] + a["attn.bf1"], 0.0)
        np.testing.assert_allclose(slot_hidden(params, trace)[0], ffn_h, atol=1e-10)

    def test_padding_slot_runs_the_bias_chains(self, tiny):
        # a padding slot runs a zero input: its query is exactly the bias,
        # its key exactly zero (keys take no bias) and its value chain the
        # bias's
        params = tiny["params"]
        _, trace = user_tower(params, [[0, 2]], tiny["prof_enc"].rows(["u1"]))
        assert not trace.valid[0, 0]
        a = params.arrays
        pad = trace.slot_item[0, 0]
        np.testing.assert_array_equal(trace.attn.q[pad], a["attn.bq"])
        np.testing.assert_array_equal(trace.attn.k[pad], 0.0)
        bias_chain = (a["attn.bv"] @ a["attn.Wo"] + a["attn.bo"]) @ a["attn.Wf1"] + a["attn.bf1"]
        np.testing.assert_allclose(trace.attn.f[pad], bias_chain, rtol=1e-12)

    def test_padding_invariance_is_exact(self, tiny):
        params, prof = tiny["params"], tiny["prof_enc"]
        profile_idx = prof.rows(["u1"])
        base, _ = user_tower(params, [[0, 2]], profile_idx)
        padded, _ = user_tower(params, [[-1, 0, 2, -1]], profile_idx)
        np.testing.assert_array_equal(base, padded)

    def test_forward_determinism(self, tiny):
        params, prof = tiny["params"], tiny["prof_enc"]
        profile_idx = prof.rows(["u1", "u2"])
        hist = pad_histories([[0, 2], [1, 3, 4]], params.meta.dims.behavior_window)
        u1, _ = user_tower(params, hist, profile_idx)
        u2, _ = user_tower(params, hist, profile_idx)
        np.testing.assert_array_equal(u1, u2)

    def test_history_clipped_to_window_most_recent_kept(self, tiny):
        params, prof = tiny["params"], tiny["prof_enc"]
        profile_idx = prof.rows(["u1"])
        long_hist = [0, 1, 2, 3, 4]  # window is 3
        clipped = [2, 3, 4]
        u_long, _ = user_tower(params, [long_hist], profile_idx)
        u_clip, _ = user_tower(params, [clipped], profile_idx)
        np.testing.assert_array_equal(u_long, u_clip)


    def test_every_negative_entry_is_padding(self, tiny):
        params = tiny["params"]
        profile_idx = tiny["prof_enc"].rows(["u1", "u2", "u1"])
        odd = np.array([[-2, 0, 2], [-7, -2, -1], [4, -7, 1]])
        runs = []
        for hist in (odd, np.where(odd < 0, PAD, odd)):
            u, trace = user_tower(params, hist, profile_idx)
            grads = zero_grads(params)
            user_tower_backward(params, trace, np.ones_like(u), grads)
            runs.append((u, grads, trace.attn.rows + PAD))  # the history entries of the table rows
        (u, grads, items), (ref_u, ref_grads, ref_items) = runs
        np.testing.assert_array_equal(items, [PAD, 0, 1, 2, 4])
        np.testing.assert_array_equal(items, ref_items)
        assert u.tobytes() == ref_u.tobytes()
        for name in params.arrays:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name


def slot_by_slot_user_tower(params, hist, profile_idx, grad_u):
    """Reference user tower: every history slot builds its own input row
    and runs its own query/key/value projections; the backward pass
    scatters each slot's input gradient into the item table with
    np.add.at. Returns the user vectors and the gradient dict."""
    a = params.arrays
    dims = params.meta.dims
    d, window = dims.d_field, dims.behavior_window
    m = hist.shape[0]
    valid = hist >= 0
    x = np.zeros((m, window, d))
    for i in range(m):
        for s in range(window):
            if valid[i, s]:
                x[i, s] = a["emb.item_id"][hist[i, s]]
    q = x @ a["attn.Wq"] + a["attn.bq"]
    k = x @ a["attn.Wk"]
    v = x @ a["attn.Wv"] + a["attn.bv"]
    scores = np.where(valid[:, None, :], q @ k.transpose(0, 2, 1) / np.sqrt(d), -1e30)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    probs = e / e.sum(axis=2, keepdims=True)
    attn = probs @ v
    o = attn @ a["attn.Wo"] + a["attn.bo"]
    ffn_h = np.maximum(o @ a["attn.Wf1"] + a["attn.bf1"], 0.0)
    encoded = (ffn_h @ a["attn.Wf2"] + a["attn.bf2"]) * valid[:, :, None]
    fields = params.meta.user_field_names
    z = np.concatenate(
        [encoded.reshape(m, window * d)] + [a[f"user_emb.{f}"][profile_idx[:, j]] for j, f in enumerate(fields)],
        axis=1,
    )
    h0 = np.maximum(z @ a["user_tower.W0"] + a["user_tower.b0"], 0.0)
    h1 = np.maximum(h0 @ a["user_tower.W1"] + a["user_tower.b1"], 0.0)
    u = h1 @ a["user_tower.W2"] + a["user_tower.b2"]

    g = zero_grads(params)
    g["user_tower.W2"] += h1.T @ grad_u
    g["user_tower.b2"] += grad_u.sum(axis=0)
    gh1 = (grad_u @ a["user_tower.W2"].T) * (h1 > 0)
    g["user_tower.W1"] += h0.T @ gh1
    g["user_tower.b1"] += gh1.sum(axis=0)
    gh0 = (gh1 @ a["user_tower.W1"].T) * (h0 > 0)
    g["user_tower.W0"] += z.T @ gh0
    g["user_tower.b0"] += gh0.sum(axis=0)
    gz = gh0 @ a["user_tower.W0"].T
    for j, f in enumerate(fields):
        np.add.at(g[f"user_emb.{f}"], profile_idx[:, j], gz[:, window * d + j * d : window * d + (j + 1) * d])
    g_enc = gz[:, : window * d].reshape(m, window, d) * valid[:, :, None]
    g["attn.Wf2"] += np.einsum("msi,msj->ij", ffn_h, g_enc)
    g["attn.bf2"] += g_enc.sum(axis=(0, 1))
    g_ffn = (g_enc @ a["attn.Wf2"].T) * (ffn_h > 0)
    g["attn.Wf1"] += np.einsum("msi,msj->ij", o, g_ffn)
    g["attn.bf1"] += g_ffn.sum(axis=(0, 1))
    g_o = g_ffn @ a["attn.Wf1"].T
    g["attn.Wo"] += np.einsum("msi,msj->ij", attn, g_o)
    g["attn.bo"] += g_o.sum(axis=(0, 1))
    g_attn = g_o @ a["attn.Wo"].T
    g_probs = g_attn @ v.transpose(0, 2, 1)
    g_v = probs.transpose(0, 2, 1) @ g_attn
    g_scores = probs * (g_probs - (g_probs * probs).sum(axis=2, keepdims=True)) / np.sqrt(d)
    g_q = g_scores @ k
    g_k = g_scores.transpose(0, 2, 1) @ q
    g_x = np.zeros_like(x)
    for name, g_part in (("q", g_q), ("k", g_k), ("v", g_v)):
        g[f"attn.W{name}"] += np.einsum("msi,msj->ij", x, g_part)
        if name != "k":
            g[f"attn.b{name}"] += g_part.sum(axis=(0, 1))
        g_x += g_part @ a[f"attn.W{name}"].T
    for i in range(m):
        for s in range(window):
            if valid[i, s]:
                np.add.at(g["emb.item_id"], hist[i, s], g_x[i, s])
    return u, g


def assert_relative(actual, expected, rtol=1e-12):
    scale = np.abs(expected).max() if expected.size else 0.0
    assert np.abs(actual - expected).max(initial=0.0) <= rtol * scale


class TestUserTowerMatchesSlotBySlotReference:
    HISTORIES = {
        # repeats within a user, across users, padding, an empty history
        "batch": [[0, 2, 0, 2, 1], [2, 2, 3, -1, 4], [-1, -1, -1, -1, -1], [5, 5, 5, 5, 5], [-1, -1, 1, 3, 0]],
        "single_user": [[3, -1, 3, 3, 0]],
        # more users than the first hidden layer's 6 units
        "folded": [
            [0, 2, 0, 2, 1], [2, 2, 3, -1, 4], [-1, -1, -1, -1, -1], [5, 5, 5, 5, 5],
            [-1, -1, 1, 3, 0], [3, -1, 3, 3, 0], [1, 1, -1, 4, 4], [0, 5, 2, 3, 1],
        ],
        # every history a full window: no padding slot, so no padding row
        "full_windows": [[0, 2, 0, 2, 1], [5, 5, 5, 5, 5], [0, 5, 2, 3, 1], [4, 4, 1, 3, 3]],
    }

    @classmethod
    def params_and_inputs(cls, tiny, case, reverse_slots=False):
        dims = ModelDims(d_field=4, tower_dims=(6, 4, 4), behavior_window=5, ffn_dim=3, d_proj=2)
        meta = build_meta(tiny["catalog"], UserProfileTable(("seg",), {"u1": ("s1",), "u2": ("s2",)}), dims)
        params = init_params(meta, 0)
        rng = np.random.default_rng(11)
        for arr in params.arrays.values():
            arr[...] = rng.uniform(-0.6, 0.6, size=arr.shape)
        hist = np.asarray(cls.HISTORIES[case], dtype=np.int64)
        if reverse_slots:  # each padding layout also runs mirrored
            hist = hist[:, ::-1].copy()
        profile_idx = rng.integers(0, 3, size=(len(hist), 1))
        grad_u = rng.normal(size=(len(hist), dims.d_out))
        return params, hist, profile_idx, grad_u

    @pytest.mark.parametrize("reverse_slots", [False, True])
    @pytest.mark.parametrize("case", sorted(HISTORIES))
    def test_output_and_every_gradient(self, tiny, case, reverse_slots):
        params, hist, profile_idx, grad_u = self.params_and_inputs(tiny, case, reverse_slots)
        u, trace = user_tower(params, hist, profile_idx)
        assert (trace.attn.rows[0] == 0) == (hist < 0).any()  # a padding row exactly when a slot pads
        grads = zero_grads(params)
        user_tower_backward(params, trace, grad_u, grads)
        ref_u, ref_grads = slot_by_slot_user_tower(params, hist, profile_idx, grad_u)
        assert_relative(u, ref_u)
        for name in params.arrays:
            assert_relative(grads[name], ref_grads[name])
        assert np.abs(grads["emb.item_id"][[0, 1, 2, 3, 5]]).max() > 0.0

    def test_user_alone_matches_user_in_folded_batch(self, tiny):
        # a 150-user call, three blocks of the per-slot stage, holding the
        # case's users at both ends and random histories between them
        params, hist, profile_idx, _ = self.params_and_inputs(tiny, "folded")
        rng = np.random.default_rng(12)
        n = 150 - 2 * len(hist)
        hist = np.concatenate([hist, rng.integers(PAD, params.meta.n_items, size=(n, hist.shape[1])), hist])
        profile_idx = np.concatenate([profile_idx, rng.integers(0, 3, size=(n, 1)), profile_idx])
        u_batch, _ = user_tower(params, hist, profile_idx)
        for row in range(len(hist)):
            u_alone, _ = user_tower(params, hist[row : row + 1], profile_idx[row : row + 1])
            assert_relative(u_alone[0], u_batch[row])


class TestUserTowerBlocks:
    """The per-slot stage runs ``USER_BLOCK`` users at a time; where the
    blocks start and end must not change a bit of the output or of any
    gradient."""

    DIMS = ModelDims(d_field=4, tower_dims=(16, 4, 4), behavior_window=5, ffn_dim=3, d_proj=2)
    EDGES = (0, 2, 3, 6, 7, 13, 14, 15, 63, 64, 127, 128, 149)  # rows next to a block edge

    @staticmethod
    def run(params, histories, profile_idx, grad_u):
        u, trace = user_tower(params, histories, profile_idx)
        grads = zero_grads(params)
        user_tower_backward(params, trace, grad_u, grads)
        return u, grads

    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    @pytest.mark.parametrize("m", [16, 150])  # as many users as h1, and more than two blocks of 64
    def test_bit_equal_to_one_block(self, tiny, monkeypatch, m, block):
        profiles = UserProfileTable(("seg",), {"u1": ("s1",), "u2": ("s2",)})
        meta = build_meta(tiny["catalog"], profiles, self.DIMS)
        params = init_params(meta, 0)
        rng = np.random.default_rng(4)
        for arr in params.arrays.values():
            arr[...] = rng.uniform(-0.6, 0.6, size=arr.shape)
        histories = [list(row) for row in rng.integers(PAD, meta.n_items, size=(m, self.DIMS.behavior_window))]
        for i in self.EDGES[: np.searchsorted(self.EDGES, m)]:
            histories[i] = [] if i % 2 else [PAD] * 3  # empty, and all padding
        profile_idx = rng.integers(0, 3, size=(m, 1))
        grad_u = rng.normal(size=(m, self.DIMS.d_out))

        monkeypatch.setattr(model, "USER_BLOCK", m)
        ref_u, ref_grads = self.run(params, histories, profile_idx, grad_u)
        monkeypatch.setattr(model, "USER_BLOCK", block)
        u, grads = self.run(params, histories, profile_idx, grad_u)
        assert u.tobytes() == ref_u.tobytes()
        for name in params.arrays:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name


def trace_arrays(obj):
    """Every array a trace holds, through nested dataclasses and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from trace_arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from trace_arrays(x)


class TestUserTowerMemory:
    # P is one per-slot array, m * window * d float64 values. A trace that
    # kept the per-slot q, k and f, with a backward that formed every slot
    # gradient before summing any, peaked at 11.1 P above the call's entry
    # here. Per-item tables, per-slot work in blocks of 64 users and at
    # most two slot-gradient arrays at once give 4.8 P (4.4 P at 1745 users).
    BOUND_P = 6.0

    def test_folded_step_stays_under_bound_and_trace_holds_no_per_slot_array(self):
        data = generate(SyntheticSpec(n_users=50, n_items=300, n_clusters=5, n_interactions=2000, seed=0))
        meta = build_meta(data.catalog, data.profiles, ModelDims())
        params = init_params(meta, 0)
        dims = meta.dims
        m = 600
        rng = np.random.default_rng(0)
        hist = rng.integers(-1, meta.n_items, size=(m, dims.behavior_window))
        users = sorted(data.profiles.rows)
        profile_idx = EncodedProfiles(data.profiles, meta).rows([users[i % len(users)] for i in range(m)])
        grad_u = rng.normal(size=(m, dims.d_out))
        grads = zero_grads(params)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _, trace = user_tower(params, hist, profile_idx)
            user_tower_backward(params, trace, grad_u, grads)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        per_slot = m * dims.behavior_window * dims.d_field
        assert peak < self.BOUND_P * per_slot * 8, f"peak {peak / (per_slot * 8):.2f} P"
        assert all(arr.size != per_slot for arr in trace_arrays(trace))


class TestScatterRows:
    def test_duplicates_accumulate_like_add_at(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 7, size=300)
        rows = rng.normal(size=(300, 3))
        dst = rng.normal(size=(7, 3))
        expected = dst.copy()
        np.add.at(expected, idx, rows)
        _scatter_rows(dst, idx, rows)
        np.testing.assert_allclose(dst, expected, rtol=1e-12, atol=1e-12)

    def test_empty_index_leaves_destination(self):
        dst = np.ones((4, 2))
        _scatter_rows(dst, np.empty(0, dtype=np.int64), np.empty((0, 2)))
        np.testing.assert_array_equal(dst, np.ones((4, 2)))


class TestProjectors:
    def test_identity_weight_zero_bias(self, tiny):
        params = tiny["params"]
        p = params.copy()
        p.arrays["proj_t.W"][...] = np.eye(2)
        p.arrays["proj_t.b"][...] = 0.0
        x = np.array([[0.3, -0.7]])
        y, _ = project(p, "t", x)
        np.testing.assert_array_equal(y, x)

    def test_zero_weight_gives_bias(self, tiny):
        p = tiny["params"].copy()
        p.arrays["proj_s.W"][...] = 0.0
        p.arrays["proj_s.b"][...] = np.array([1.5, -2.0])
        y, _ = project(p, "s", np.ones((3, 2)))
        np.testing.assert_array_equal(y, np.tile([1.5, -2.0], (3, 1)))

    def test_matches_hand_multiply(self, tiny):
        params = tiny["params"]
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, params.meta.raw_item_width))
        y, _ = project(params, "f", x)
        np.testing.assert_allclose(
            y, x @ params.arrays["proj_f.W"] + params.arrays["proj_f.b"], atol=1e-12
        )

    def test_dimension_mismatch(self, tiny):
        with pytest.raises(ValueError, match="width"):
            project(tiny["params"], "t", np.zeros((1, 5)))


class TestAugmentedEmbedding:
    @pytest.mark.parametrize("strategy", ["element", "field"])
    def test_non_categorial_keeps_every_tag_and_draws_only_masks(self, tiny, strategy):
        from itemcl.augment import AugmentationPlan, draw_element_mask, draw_field_mask

        params, enc = tiny["params"], tiny["enc"]
        ids = np.arange(enc.n_items)
        rng = np.random.default_rng(3)
        out, trace = embed_items_augmented(params, enc, ids, AugmentationPlan(strategy, 0.5), rng)
        raw, embed_trace = embed_items(params, enc, ids)
        np.testing.assert_array_equal(trace.flat_tags, embed_trace.flat_tags)
        np.testing.assert_array_equal(trace.tag_lens, embed_trace.tag_lens)
        np.testing.assert_array_equal(out, np.where(trace.zero_mask, 0.0, raw))
        # the generator moved by the per-item mask draws alone
        expected = np.random.default_rng(3)
        for _ in ids:
            if strategy == "element":
                draw_element_mask(params.meta.raw_item_width, 0.5, expected)
            else:
                draw_field_mask(len(ITEM_FIELDS), 0.5, expected)
        assert rng.bit_generator.state == expected.bit_generator.state


def rewrite_manifest(path, edit):
    """Replace a checkpoint's manifest line with ``edit`` of its bytes,
    keeping the magic line and the array blocks."""
    magic, manifest, arrays = path.read_bytes().split(b"\n", 2)
    path.write_bytes(magic + b"\n" + edit(manifest) + b"\n" + arrays)


def edit_json(edit):
    """A manifest edit that applies ``edit`` to the parsed manifest."""

    def apply(manifest):
        loaded = json.loads(manifest)
        edit(loaded)
        return json.dumps(loaded, sort_keys=True).encode("utf-8")

    return apply


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tiny, tmp_path):
        params = tiny["params"]
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path, {"note": "fixture"})
        loaded, config = load_checkpoint(path)
        assert config == {"note": "fixture"}
        assert loaded.arrays.keys() == params.arrays.keys()
        for name in params.arrays:
            assert np.array_equal(loaded.arrays[name], params.arrays[name])
            assert loaded.arrays[name].tobytes() == params.arrays[name].tobytes()

    def test_untrained_checkpoint_bytes_pinned(self, tmp_path):
        # the exact bytes of manifest and arrays, which round trips do not
        # pin; init_params runs no BLAS, so the digest holds on any machine
        data = generate(SyntheticSpec(n_users=30, n_items=40, n_clusters=4, n_interactions=300, seed=0))
        config = TrainConfig()
        meta = build_meta(data.catalog, data.profiles, config.model_dims())
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(meta, config.seed), str(path), config.to_dict())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "2874c9f452242700e15b88850aa059132ec472d9aaf0de039991de6ee22c2fb7"

    def test_truncated_file_rejected(self, tiny, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny["params"], str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(str(path))

    def test_vocab_mismatch_named(self, tiny, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(tiny["params"], path)
        bigger = ItemCatalog(
            tiny["catalog"].items + [Item("extra", ("t1",), "p1", None, None)]
        )
        expect = build_meta(
            bigger,
            UserProfileTable(("seg",), {"u1": ("s1",)}),
            tiny["params"].meta.dims,
        )
        with pytest.raises(ValueError, match="emb.item_id"):
            check_shapes(load_checkpoint(path)[0], expect, path)

    def test_key_bias_of_older_checkpoints_named(self, tiny, tmp_path):
        # checkpoints written while the attention keys had a bias hold an
        # array the model no longer has
        params = tiny["params"].copy()
        params.arrays["attn.bk"] = np.zeros(params.meta.dims.d_field)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match="unexpected array 'attn.bk'"):
            check_shapes(load_checkpoint(path)[0], tiny["params"].meta, path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m[:-1], "bad checkpoint manifest"),
            (lambda m: b"\xff" + m, "bad checkpoint manifest"),
            (edit_json(lambda m: m.pop("meta")), "manifest lacks key 'meta'"),
            (edit_json(lambda m: m["meta"]["dims"].pop("ffn_dim")), "manifest lacks key 'ffn_dim'"),
            (edit_json(lambda m: m["meta"].update(user_field_vocabs=[])), "bad checkpoint manifest"),
        ],
        ids=["not-json", "not-utf8", "no-meta", "no-ffn-dim", "vocabs-not-a-dict"],
    )
    def test_malformed_manifest_named(self, tiny, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny["params"], str(path))
        rewrite_manifest(path, edit)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_checkpoint(str(path))

    def test_stray_bytes_after_last_array_rejected(self, tiny, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny["params"], str(path))
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 16 bytes after the last array"):
            load_checkpoint(str(path))

    def test_positional_encoding_off_of_older_checkpoints_loads(self, tiny, tmp_path):
        # checkpoints written while sinusoidal positions were an option
        # carry the switch in their dims; off, it is the model of today
        params = tiny["params"]
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, str(path))
        arrays_before = path.read_bytes().split(b"\n", 2)[2]
        rewrite_manifest(path, edit_json(lambda m: m["meta"]["dims"].update(positional_encoding=False)))
        loaded, _ = load_checkpoint(str(path))
        check_shapes(loaded, params.meta, str(path))
        assert loaded.meta.dims == params.meta.dims
        save_checkpoint(loaded, str(tmp_path / "again.ckpt"))
        assert (tmp_path / "again.ckpt").read_bytes().split(b"\n", 2)[2] == arrays_before
        hist = pad_histories([[0, 2], [1, 3, 4]], params.meta.dims.behavior_window)
        profile_idx = tiny["prof_enc"].rows(["u1", "u2"])
        np.testing.assert_array_equal(
            user_tower(loaded, hist, profile_idx)[0], user_tower(params, hist, profile_idx)[0]
        )

    def test_positional_encoding_on_of_older_checkpoints_named(self, tiny, tmp_path):
        # such a model would otherwise be served without its positions
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny["params"], str(path))
        rewrite_manifest(path, edit_json(lambda m: m["meta"]["dims"].update(positional_encoding=True)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*dims.positional_encoding is True"):
            load_checkpoint(str(path))


class TestEncodings:
    def test_catalog_item_mismatch_rejected(self, tiny):
        other = ItemCatalog([Item("zzz", (), "p", None, None)])
        with pytest.raises(ValueError, match="item_ids"):
            EncodedCatalog(other, tiny["params"].meta)

    @pytest.mark.parametrize("edit", ["renamed", "one-item-fewer", "one-item-more"])
    def test_catalog_item_mismatch_names_the_first_differing_id(self, tiny, edit):
        items = list(tiny["catalog"].items)
        n, ids = len(items), [item.item_id for item in items]
        renamed = dataclasses.replace(items[2], item_id="renamed")
        edited, (i, ours, theirs) = {
            "renamed": (items[:2] + [renamed] + items[3:], (2, "renamed", ids[2])),
            "one-item-fewer": (items[:-1], (n - 1, None, ids[-1])),
            "one-item-more": (items + [Item("extra")], (n, "extra", None)),
        }[edit]
        with pytest.raises(ValueError) as excinfo:
            EncodedCatalog(ItemCatalog(edited), tiny["params"].meta)
        assert str(excinfo.value) == (
            f"catalog item_ids do not match the model's item vocabulary: "
            f"item {i} is {ours!r} in the catalog but {theirs!r} in the model"
        )

    def test_unknown_profile_values_map_to_oov(self, tiny):
        meta = tiny["params"].meta
        prof = EncodedProfiles(
            UserProfileTable(("seg",), {"u9": ("unseen-value",)}), meta
        )
        row = prof.row("u9")
        assert row[0] == len(meta.user_field_vocabs["seg"])
        # missing users fall back to the OOV row too
        np.testing.assert_array_equal(prof.row("nobody"), prof.oov_row)

    def test_profile_table_matches_per_user_lookup(self):
        catalog = ItemCatalog([Item("a", ("t1",), "p1")])
        seen = UserProfileTable(("age", "seg"), {"u1": ("20s", "x"), "u2": ("30s", "y"), "u3": ("20s", "y")})
        meta = build_meta(catalog, seen, ModelDims(d_field=2, tower_dims=(2, 2, 2), behavior_window=2))
        # another table: fields in another order, an unseen value, a new user
        other = UserProfileTable(("seg", "age"), {"u3": ("y", "40s"), "u1": ("x", "20s"), "u9": ("z", "30s")})
        prof = EncodedProfiles(other, meta)
        vocabs = meta.user_field_vocabs
        oov = [len(vocabs["age"]), len(vocabs["seg"])]
        expected = [
            [vocabs["age"].index(age) if age in vocabs["age"] else oov[0],
             vocabs["seg"].index(seg) if seg in vocabs["seg"] else oov[1]]
            for seg, age in other.rows.values()
        ]
        assert prof.row_of == {"u3": 0, "u1": 1, "u9": 2}
        assert prof.table.dtype == np.int64 and prof.table.tolist() == [*expected, oov]
        assert prof.rows(["u9", "nobody", "u1"]).tolist() == [expected[2], oov, expected[1]]
        empty = EncodedProfiles(None, meta)
        assert empty.row_of == {} and empty.table.tolist() == [oov]

    def test_profile_table_lacking_a_model_field_is_named(self):
        catalog = ItemCatalog([Item("a", ("t1",), "p1")])
        seen = UserProfileTable(("age", "seg"), {"u1": ("20s", "x")})
        meta = build_meta(catalog, seen, ModelDims(d_field=2, tower_dims=(2, 2, 2), behavior_window=2))
        with pytest.raises(ValueError, match=r"lacks field 'seg'; its fields: \['age'\]"):
            EncodedProfiles(UserProfileTable(("age",), {"u1": ("20s",)}), meta)

    def test_unknown_tags_map_to_oov(self):
        catalog = ItemCatalog([Item("a", ("t1",), "p1"), Item("b", ("t2",), "p2")])
        meta = build_meta(catalog, None, ModelDims(d_field=2, tower_dims=(2, 2, 2), behavior_window=2))
        renamed = ItemCatalog([Item("a", ("t1",), "p1"), Item("b", ("brand-new",), "p2")])
        enc = EncodedCatalog(renamed, meta)
        flat, lens = enc.tag_rows(np.array([1]))
        assert flat.tolist() == [len(meta.tag_vocab)]
