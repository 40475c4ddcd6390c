"""Forward passes, masking conventions, and checkpoint serialization."""

import numpy as np
import pytest

from itemcl.data import Item, ItemCatalog, UserProfileTable
from itemcl.model import (
    EncodedCatalog,
    EncodedProfiles,
    ModelDims,
    _scatter_rows,
    _sinusoidal_positions,
    build_meta,
    embed_items,
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


class TestUserTower:
    def test_empty_history_driven_by_profile_alone(self, tiny):
        params, prof = tiny["params"], tiny["prof_enc"]
        profile_idx = prof.rows(["u1"])
        u_empty, trace = user_tower(params, [[]], profile_idx)
        np.testing.assert_array_equal(trace.valid, np.zeros_like(trace.valid))
        # the behavior half of the MLP input is exactly zero
        window_width = params.meta.dims.behavior_window * params.meta.dims.d_field
        np.testing.assert_array_equal(trace.mlp.x[:, :window_width], 0.0)
        assert np.all(np.isfinite(u_empty))

    def test_single_item_history_attention_is_value_projection(self, tiny):
        params = tiny["params"]
        profile_idx = tiny["prof_enc"].rows(["u1"])
        _, trace = user_tower(params, [[2]], profile_idx)
        a = params.arrays
        x = params.arrays["emb.item_id"][2]
        expected_v = x @ a["attn.Wv"] + a["attn.bv"]
        np.testing.assert_allclose(trace.attn[0, -1], expected_v, atol=1e-12)

    def test_attention_matches_hand_computed_softmax(self, tiny):
        params = tiny["params"]
        profile_idx = tiny["prof_enc"].rows(["u2"])
        history = [1, 3, 4]
        _, trace = user_tower(params, [history], profile_idx)
        a = params.arrays
        d = params.meta.dims.d_field
        x = params.arrays["emb.item_id"][history]
        q = x @ a["attn.Wq"] + a["attn.bq"]
        k = x @ a["attn.Wk"] + a["attn.bk"]
        v = x @ a["attn.Wv"] + a["attn.bv"]
        scores = q @ k.T / np.sqrt(d)
        probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(trace.attn[0], probs @ v, atol=1e-10)

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
    pos = _sinusoidal_positions(window, d) if dims.positional_encoding else np.zeros((window, d))
    x = np.zeros((m, window, d))
    for i in range(m):
        for s in range(window):
            if valid[i, s]:
                x[i, s] = a["emb.item_id"][hist[i, s]] + pos[s]
    q = x @ a["attn.Wq"] + a["attn.bq"]
    k = x @ a["attn.Wk"] + a["attn.bk"]
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
    }

    @pytest.mark.parametrize("positional", [False, True])
    @pytest.mark.parametrize("case", sorted(HISTORIES))
    def test_output_and_every_gradient(self, tiny, positional, case):
        dims = ModelDims(d_field=4, tower_dims=(6, 4, 4), behavior_window=5, ffn_dim=3, d_proj=2,
                         positional_encoding=positional)
        meta = build_meta(tiny["catalog"], UserProfileTable(("seg",), {"u1": ("s1",), "u2": ("s2",)}), dims)
        params = init_params(meta, 0)
        rng = np.random.default_rng(11)
        for arr in params.arrays.values():
            arr[...] = rng.uniform(-0.6, 0.6, size=arr.shape)
        hist = np.asarray(self.HISTORIES[case], dtype=np.int64)
        profile_idx = rng.integers(0, 3, size=(len(hist), 1))
        grad_u = rng.normal(size=(len(hist), dims.d_out))

        u, trace = user_tower(params, hist, profile_idx)
        grads = zero_grads(params)
        user_tower_backward(params, trace, grad_u, grads)
        ref_u, ref_grads = slot_by_slot_user_tower(params, hist, profile_idx, grad_u)
        assert_relative(u, ref_u)
        for name in params.arrays:
            if name == "attn.bk":
                continue
            assert_relative(grads[name], ref_grads[name])
        # a shared key bias shifts a query's scores alike, which softmax
        # ignores: its true gradient is zero, both computed ones rounding
        scale = max(np.abs(g).max() for g in ref_grads.values())
        assert np.abs(grads["attn.bk"]).max() <= 1e-12 * scale
        assert np.abs(ref_grads["attn.bk"]).max() <= 1e-12 * scale
        assert np.abs(grads["emb.item_id"][[0, 1, 2, 3, 5]]).max() > 0.0


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
            load_checkpoint(path, expect)


class TestEncodings:
    def test_catalog_item_mismatch_rejected(self, tiny):
        other = ItemCatalog([Item("zzz", (), "p", None, None)])
        with pytest.raises(ValueError, match="item_ids"):
            EncodedCatalog(other, tiny["params"].meta)

    def test_unknown_profile_values_map_to_oov(self, tiny):
        meta = tiny["params"].meta
        prof = EncodedProfiles(
            UserProfileTable(("seg",), {"u9": ("unseen-value",)}), meta
        )
        row = prof.row("u9")
        assert row[0] == len(meta.user_field_vocabs["seg"])
        # missing users fall back to the OOV row too
        np.testing.assert_array_equal(prof.row("nobody"), prof.oov_row)

    def test_unknown_tags_map_to_oov(self):
        catalog = ItemCatalog([Item("a", ("t1",), "p1"), Item("b", ("t2",), "p2")])
        meta = build_meta(catalog, None, ModelDims(d_field=2, tower_dims=(2, 2, 2), behavior_window=2))
        renamed = ItemCatalog([Item("a", ("t1",), "p1"), Item("b", ("brand-new",), "p2")])
        enc = EncodedCatalog(renamed, meta)
        flat, lens = enc.tag_rows(np.array([1]))
        assert flat.tolist() == [len(meta.tag_vocab)]

    def test_positional_encoding_changes_output_only_when_enabled(self, tiny):
        import dataclasses

        params = tiny["params"]
        meta_pe = dataclasses.replace(params.meta.dims, positional_encoding=True)
        params_pe = params.copy()
        params_pe.meta = dataclasses.replace(params.meta, dims=meta_pe)
        prof = tiny["prof_enc"].rows(["u1"])
        _, trace_plain = user_tower(params, [[0, 2]], prof)
        _, trace_pe = user_tower(params_pe, [[0, 2]], prof)
        assert not np.array_equal(trace_plain.attn, trace_pe.attn)
        # padding positions project a zero input either way: their query,
        # key and value are exactly the biases, with no positional term
        for got, bias in ((trace_pe.q, "attn.bq"), (trace_pe.k, "attn.bk"), (trace_pe.v, "attn.bv")):
            np.testing.assert_array_equal(got[0, 0], params_pe.arrays[bias])
