"""End-to-end operator pipeline through the command line."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from itemcl.cli import main
from itemcl.config import KEYMAP, TrainConfig

SMALL_MODEL = [
    "--set", "model.d_field=4",
    "--set", "model.hidden1=8",
    "--set", "model.hidden2=4",
    "--set", "model.d_out=4",
    "--set", "model.ffn_dim=4",
    "--set", "model.d_proj=4",
    "--set", "train.behavior_window=5",
    "--set", "loss.negatives=5",
    "--set", "mine.k_sess=5",
    "--set", "mine.k_sem=5",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().split("\n")[-1])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """generate -> prepare once for the whole module."""
    root = tmp_path_factory.mktemp("pipeline")
    code = main(
        [
            "generate",
            "--out-dir", str(root / "data"),
            "--seed", "11",
            "--users", "60",
            "--items", "50",
            "--clusters", "5",
            "--interactions", "2500",
        ]
    )
    assert code == 0
    code = main(
        [
            "prepare",
            "--catalog", str(root / "data" / "catalog.jsonl"),
            "--interactions", str(root / "data" / "interactions.tsv"),
            "--out-dir", str(root / "splits"),
        ]
    )
    assert code == 0
    return root


class TestPipeline:
    def test_generate_report(self, pipeline_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "generate",
            "--out-dir", str(pipeline_dir / "data2"),
            "--seed", "11",
            "--users", "60",
            "--items", "50",
            "--clusters", "5",
            "--interactions", "2500",
        )
        assert code == 0
        payload = last_json(out)
        assert payload["n_items"] == 50
        assert (pipeline_dir / "data2" / "catalog.jsonl").read_bytes() == (
            pipeline_dir / "data" / "catalog.jsonl"
        ).read_bytes()

    def test_mine_sessions(self, pipeline_dir, capsys):
        out_path = pipeline_dir / "cooc.tsv"
        code, out, _ = run_cli(
            capsys,
            "mine-sessions",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--out", str(out_path),
        )
        assert code == 0
        assert last_json(out)["n_pairs"] > 0
        first = out_path.read_text().splitlines()[0].split("\t")
        assert len(first) == 3 and first[0] < first[1]

    def test_mine_semantic(self, pipeline_dir, capsys):
        out_path = pipeline_dir / "pool.tsv"
        code, out, _ = run_cli(
            capsys,
            "mine-semantic",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--out", str(out_path),
            "--set", "mine.k_sem=5",
        )
        assert code == 0
        assert last_json(out)["n_items_with_positives"] == 50

    def test_mine_semantic_taxonomy_dump_equals_the_trainers_pool(self, pipeline_dir, capsys, tmp_path):
        from itemcl.config import TrainConfig
        from itemcl.data import assemble_split, load_catalog
        from itemcl.semantics import dump_semantic_pool
        from itemcl.training import mine_artifacts

        out_path = tmp_path / "pool.tsv"
        code, _, _ = run_cli(
            capsys,
            "mine-semantic",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--out", str(out_path),
            "--set", "mine.semantic_source=taxonomy",
            "--set", "mine.k_sem=3",
            "--seed", "5",
        )
        assert code == 0
        catalog = load_catalog(str(pipeline_dir / "data" / "catalog.jsonl"))
        config = TrainConfig(semantic_source="taxonomy", k_semantic=3, seed=5, lambda_session=0.0)
        pool, _, _ = mine_artifacts(config, assemble_split([], [], behavior_window=1), catalog)
        dump_semantic_pool(pool, catalog, str(tmp_path / "trainer_pool.tsv"))
        assert out_path.read_bytes() == (tmp_path / "trainer_pool.tsv").read_bytes()
        assert max(p.size for p in pool.positives) == 3  # the cap drew from the seeded substream

    @pytest.mark.parametrize("source", ["title_knn", "taxonomy"])
    def test_mine_dumps_equal_the_trainers_tables_under_one_config(self, pipeline_dir, capsys, tmp_path, source):
        # the mine-* commands and train read the same settings, so the dumps
        # are the tables mine_artifacts builds for training; a 120 s window
        # splits this data's sessions (3600 s does not), and the taxonomy
        # cap draws from the seed (mine.k_sess shapes only neighbor rows,
        # which the dump does not hold)
        from itemcl.config import apply_settings, parse_config_file
        from itemcl.data import assemble_split, load_catalog, load_interactions
        from itemcl.semantics import dump_semantic_pool
        from itemcl.sessions import dump_cooccurrence
        from itemcl.training import mine_artifacts

        config_file = tmp_path / "mine.conf"
        config_file.write_text("mine.session_window = 120\nmine.k_sess = 3\ntrain.seed = 9\n", encoding="utf-8")
        settings = ["--config", str(config_file), "--set", f"mine.semantic_source={source}", "--set", "mine.k_sem=4"]
        catalog_path, train_path = str(pipeline_dir / "data" / "catalog.jsonl"), str(pipeline_dir / "splits" / "train.tsv")
        for argv in (
            ["mine-sessions", "--catalog", catalog_path, "--train", train_path, "--out", str(tmp_path / "cooc.tsv")],
            ["mine-semantic", "--catalog", catalog_path, "--out", str(tmp_path / "pool.tsv")],
        ):
            code, _, _ = run_cli(capsys, *argv, *settings)
            assert code == 0

        config = apply_settings(TrainConfig(), {**parse_config_file(str(config_file)),
                                                "mine.semantic_source": source, "mine.k_sem": "4"})
        assert (config.session_window, config.k_session, config.k_semantic, config.seed) == (120, 3, 4, 9)
        catalog = load_catalog(catalog_path)
        split = assemble_split(load_interactions(train_path, catalog), [], behavior_window=config.behavior_window)
        pool, _, table = mine_artifacts(config, split, catalog)
        dump_cooccurrence(table, catalog, str(tmp_path / "trainer_cooc.tsv"))
        dump_semantic_pool(pool, catalog, str(tmp_path / "trainer_pool.tsv"))
        assert (tmp_path / "cooc.tsv").read_bytes() == (tmp_path / "trainer_cooc.tsv").read_bytes()
        assert (tmp_path / "pool.tsv").read_bytes() == (tmp_path / "trainer_pool.tsv").read_bytes()

    def test_train_evaluate_export(self, pipeline_dir, capsys):
        ckpt = pipeline_dir / "model.ckpt"
        report_path = pipeline_dir / "report.jsonl"
        code, out, _ = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--profiles", str(pipeline_dir / "data" / "profiles.jsonl"),
            "--checkpoint", str(ckpt),
            "--report", str(report_path),
            "--seed", "0",
            "--epochs", "1",
            "--batch-size", "512",
            *SMALL_MODEL,
        )
        assert code == 0
        assert ckpt.exists()
        epochs = [json.loads(line) for line in report_path.read_text().splitlines()]
        assert len(epochs) == 1 and epochs[0]["loss_matching"] > 0

        code, out, _ = run_cli(
            capsys,
            "evaluate",
            "--checkpoint", str(ckpt),
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--test", str(pipeline_dir / "splits" / "test.tsv"),
            "--profiles", str(pipeline_dir / "data" / "profiles.jsonl"),
            "--n", "5,10,20",
        )
        assert code == 0
        report = last_json(out)
        assert report["hit@5"] <= report["hit@10"] <= report["hit@20"]
        assert 0.0 < report["coverage@20"] <= 1.0
        assert "item_coverage" not in report

        code, out, _ = run_cli(
            capsys,
            "export",
            "--checkpoint", str(ckpt),
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--out", str(pipeline_dir / "emb.tsv"),
        )
        assert code == 0
        assert len((pipeline_dir / "emb.tsv").read_text().splitlines()) == 50

    def test_report_leaves_the_checkpoint_unchanged(self, pipeline_dir, capsys):
        args = [
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--seed", "0",
            "--epochs", "2",
            "--batch-size", "512",
            *SMALL_MODEL,
        ]
        report_path = pipeline_dir / "report_fields.jsonl"
        code, _, _ = run_cli(capsys, *args, "--checkpoint", str(pipeline_dir / "reported.ckpt"),
                             "--report", str(report_path))
        assert code == 0
        code, _, _ = run_cli(capsys, *args, "--checkpoint", str(pipeline_dir / "unreported.ckpt"))
        assert code == 0
        assert (pipeline_dir / "reported.ckpt").read_bytes() == (pipeline_dir / "unreported.ckpt").read_bytes()
        n_clicks = len((pipeline_dir / "splits" / "train.tsv").read_text().splitlines())
        epochs = [json.loads(line) for line in report_path.read_text().splitlines()]
        assert [e["epoch"] for e in epochs] == [0, 1]
        for e in epochs:
            assert e["clicks_per_s"] == pytest.approx(n_clicks / e["seconds"])
            assert e["minor_page_faults"] >= 0

    def test_train_no_sess_reports_zero_session_loss(self, pipeline_dir, capsys):
        report_path = pipeline_dir / "report_nosess.jsonl"
        code, _, _ = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--checkpoint", str(pipeline_dir / "nosess.ckpt"),
            "--report", str(report_path),
            "--seed", "0",
            "--epochs", "1",
            "--batch-size", "512",
            "--no-sess",
            *SMALL_MODEL,
        )
        assert code == 0
        epochs = [json.loads(line) for line in report_path.read_text().splitlines()]
        assert all(e["loss_session"] == 0.0 for e in epochs)
        assert all(e["loss_feature"] > 0.0 for e in epochs)

        # --no-sess is exactly loss.lambda3 = 0, down to the checkpoint bytes
        code, _, _ = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--checkpoint", str(pipeline_dir / "lambda3_zero.ckpt"),
            "--seed", "0",
            "--epochs", "1",
            "--batch-size", "512",
            "--set", "loss.lambda3=0",
            *SMALL_MODEL,
        )
        assert code == 0
        from itemcl.model import load_checkpoint

        flag_params, flag_config = load_checkpoint(str(pipeline_dir / "nosess.ckpt"))
        set_params, _ = load_checkpoint(str(pipeline_dir / "lambda3_zero.ckpt"))
        assert flag_params.arrays.keys() == set_params.arrays.keys()
        assert all(np.array_equal(flag_params.arrays[k], set_params.arrays[k]) for k in flag_params.arrays)
        assert flag_config["lambda_session"] == 0.0

        # the per-task on/off keys are gone; a config file still using one fails by name
        old_config = pipeline_dir / "old_toggle.conf"
        for task in ("feature", "semantic", "session"):
            old_config.write_text(f"train.seed = 0\ntrain.{task}_cl = false\n", encoding="utf-8")
            code, _, err = run_cli(
                capsys,
                "train",
                "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
                "--train", str(pipeline_dir / "splits" / "train.tsv"),
                "--checkpoint", str(pipeline_dir / "old_toggle.ckpt"),
                "--config", str(old_config),
            )
            assert code == 2
            assert f"{old_config}:2: unknown config key 'train.{task}_cl'" in err


# SHA-256 of the mine-* dumps for one small generated data set, taken before
# mining became columnar; the dump format and the mined tables are a contract.
GOLDEN_MINE_SHA256 = {
    "cooc.tsv": "1f99373833dc81a250919a2d43785fbce3deba2098fe0c8ff721cedca5648cd0",
    "title.tsv": "6ba9badc20644d010bfb59046c4da5df9297c8fd36a55ccb561ce9cd7570a3d0",
    "taxonomy.tsv": "b206fb3e6be69125083832324edb2d52783eeb786d3f26f86f6d0641116ef609",
}


GOLDEN_LARGE_MINE_SHA256 = {
    "cooc.tsv": "9484a0eeae7c659ad705bb6fce303db0defe79f7d6cd106677f860a23c8e6184",
    "title.tsv": "07f5c08e369080e3a9b62b6629cafb5d08bc27d06995bd413c6225e97179b69c",
}


GOLDEN_PREPARE_SHA256 = {
    "train.tsv": "1fc75ac2964f5b91ae6b72904b3ab0ec9bb82df1566a818d503ee62eef46dc69",
    "test.tsv": "0b1895e27af5fe965c9724ebdd2ae54969b3ea5cc71b77cf2b1af9eb1f31764c",
}


class TestGoldenBytes:
    def test_prepare_splits_match_pinned_hashes(self, capsys, tmp_path):
        data, splits = tmp_path / "data", tmp_path / "splits"
        steps = [
            ["generate", "--out-dir", str(data), "--seed", "7", "--users", "80", "--items", "60",
             "--clusters", "6", "--interactions", "4000"],
            ["prepare", "--catalog", str(data / "catalog.jsonl"), "--interactions", str(data / "interactions.tsv"),
             "--out-dir", str(splits)],
        ]
        for argv in steps:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
        assert {key: last_json(out)[key] for key in ("n_train", "n_test", "n_users_with_history", "split_time")} == {
            "n_train": 3164,
            "n_test": 792,
            "n_users_with_history": 80,
            "split_time": 5661686,
        }
        hashes = {name: hashlib.sha256((splits / name).read_bytes()).hexdigest() for name in GOLDEN_PREPARE_SHA256}
        assert hashes == GOLDEN_PREPARE_SHA256

    def test_mine_dumps_match_pinned_hashes(self, capsys, tmp_path):
        data, splits = tmp_path / "data", tmp_path / "splits"
        catalog = str(data / "catalog.jsonl")
        steps = [
            ["generate", "--out-dir", str(data), "--seed", "7", "--users", "80", "--items", "60",
             "--clusters", "6", "--interactions", "4000"],
            ["prepare", "--catalog", catalog, "--interactions", str(data / "interactions.tsv"),
             "--out-dir", str(splits)],
            ["mine-sessions", "--catalog", catalog, "--train", str(splits / "train.tsv"),
             "--out", str(tmp_path / "cooc.tsv"), "--set", "mine.k_sess=5"],
            ["mine-semantic", "--catalog", catalog, "--out", str(tmp_path / "title.tsv"), "--set", "mine.k_sem=5"],
            ["mine-semantic", "--catalog", catalog, "--out", str(tmp_path / "taxonomy.tsv"),
             "--set", "mine.semantic_source=taxonomy", "--set", "mine.k_sem=3", "--seed", "5"],
        ]
        reports = []
        for argv in steps:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            reports.append(last_json(out))
        assert {key: reports[2][key] for key in ("n_sessions", "n_pairs", "n_items_with_neighbors")} == {
            "n_sessions": 963,
            "n_pairs": 1013,
            "n_items_with_neighbors": 60,
        }
        hashes = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_MINE_SHA256}
        assert hashes == GOLDEN_MINE_SHA256

    def test_large_catalog_mine_dumps_match_pinned_hashes(self, capsys, tmp_path):
        # 4000 items, so title k-NN takes top_k's pruned path; the hashes
        # were taken before top_k pruned
        data, splits = tmp_path / "data", tmp_path / "splits"
        catalog = str(data / "catalog.jsonl")
        steps = [
            ["generate", "--out-dir", str(data), "--seed", "0", "--users", "5000", "--items", "4000"],
            ["prepare", "--catalog", catalog, "--interactions", str(data / "interactions.tsv"),
             "--out-dir", str(splits)],
            ["mine-sessions", "--catalog", catalog, "--train", str(splits / "train.tsv"),
             "--out", str(tmp_path / "cooc.tsv")],
            ["mine-semantic", "--catalog", catalog, "--out", str(tmp_path / "title.tsv")],
        ]
        for argv in steps:
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
        hashes = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_LARGE_MINE_SHA256}
        assert hashes == GOLDEN_LARGE_MINE_SHA256


class TestGradcheckCommand:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck")
        assert code == 0
        payload = last_json(out)
        assert payload["pass"] is True
        assert payload["max_rel_err"] < 1e-5
        losses = ("matching", "feature", "semantic", "session", "joint")
        assert set(payload) == {f"max_rel_err_{name}" for name in losses} | {"max_rel_err", "threshold", "pass"}
        assert payload["threshold"] == 1e-5

    @pytest.mark.parametrize("option", [["--seed", "4"], ["--step", "0.01"], ["--threshold", "1"]], ids=lambda o: o[0])
    def test_takes_no_options(self, capsys, option):
        # criterion 1 has one configuration: the fixture's seed, the step
        # and the threshold are not settable
        with pytest.raises(SystemExit) as excinfo:
            main(["gradcheck", *option])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


def unfitting_checkpoint(pipeline_dir, tmp_path, edit):
    """An untrained checkpoint and a catalog file it does not fit: its own
    catalog lacks the last item ("one-item-fewer"), the file gives the
    first item a tag it lacks ("new-tag"), or the file renames the first
    item's first tag or its provider everywhere, so that the vocabulary
    keeps its size ("renamed-tag", "renamed-provider"), or renames item 3
    ("renamed-item")."""
    from itemcl.data import ItemCatalog, load_catalog, load_profiles, save_catalog
    from itemcl.model import ModelDims, build_meta, init_params, save_checkpoint

    data = pipeline_dir / "data"
    items = list(load_catalog(str(data / "catalog.jsonl")).items)
    ckpt_items = items[:-1] if edit == "one-item-fewer" else list(items)
    if edit == "new-tag":
        items[0] = dataclasses.replace(items[0], tags=items[0].tags + ("new-tag",))
    if edit == "renamed-tag":
        old = items[0].tags[0]
        items = [dataclasses.replace(it, tags=tuple("renamed" if t == old else t for t in it.tags)) for it in items]
    if edit == "renamed-provider":
        old = items[0].provider
        items = [dataclasses.replace(it, provider="renamed") if it.provider == old else it for it in items]
    if edit == "renamed-item":
        items[3] = dataclasses.replace(items[3], item_id="renamed")
    dims = ModelDims(d_field=4, tower_dims=(8, 4, 4), behavior_window=5, ffn_dim=4, d_proj=4)
    meta = build_meta(ItemCatalog(ckpt_items), load_profiles(str(data / "profiles.jsonl")), dims)
    ckpt, catalog = tmp_path / "m.ckpt", tmp_path / "catalog.jsonl"
    save_checkpoint(init_params(meta, 0), str(ckpt))
    save_catalog(ItemCatalog(items), str(catalog))
    return ckpt, catalog


def checkpoint_command(pipeline_dir, command, ckpt, catalog, out):
    """The arguments of ``evaluate`` (on the pipeline's splits and
    profiles) or ``export`` (to ``out``) of checkpoint ``ckpt`` over
    catalog file ``catalog``."""
    splits = pipeline_dir / "splits"
    rest = {
        "evaluate": ["--train", str(splits / "train.tsv"), "--test", str(splits / "test.tsv"),
                     "--profiles", str(pipeline_dir / "data" / "profiles.jsonl")],
        "export": ["--out", str(out)],
    }[command]
    return [command, "--checkpoint", str(ckpt), "--catalog", str(catalog), *rest]


class TestErrors:
    def test_unknown_command_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0

    def test_missing_file_one_line_error(self, capsys):
        code, out, err = run_cli(
            capsys, "mine-semantic", "--catalog", "/nonexistent.jsonl", "--out", "/tmp/x.tsv"
        )
        assert code == 2
        payload = json.loads(err.strip().split("\n")[-1])
        assert "error" in payload

    def test_generate_bad_count_names_the_field(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "generate", "--out-dir", str(tmp_path / "data"), "--seed", "0", "--users", "0")
        assert code == 2
        assert "n_users must be positive" in last_json(err)["error"]
        assert not (tmp_path / "data").exists()

    def test_unknown_config_key_rejected(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--checkpoint", str(pipeline_dir / "bad.ckpt"),
            "--seed", "0",
            "--set", "bogus.key=1",
        )
        assert code == 2
        assert "bogus.key" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("train.seed = 0\ntrain.epoch = 2\n", ":2: unknown config key 'train.epoch'"),
            ("train.epochs = two\n", ":1: bad value for config key 'train.epochs': invalid literal"),
            ("train.seed = 0\n\ntrain.seed = 1\n", ":3: config key 'train.seed' repeats line 1"),
            ("augment.mask_ratio = 1.5\n", ":1: augment.mask_ratio: mask_ratio must lie in [0, 1)"),
            # sinusoidal positions were an option once; older config files may still name it
            ("train.seed = 0\nmodel.positional_encoding = false\n", ":2: unknown config key 'model.positional_encoding'"),
            ("train.epochs = 1\ntrain.seed = -1\n", ":2: train.seed must be nonnegative"),
            ("train.seed = 0\n \t \ntrain.seed = 1\n", ":3: config key 'train.seed' repeats line 1"),
        ],
        ids=[
            "unknown-key", "bad-value", "repeated-key", "out-of-range", "removed-key", "negative-seed", "whitespace-line"
        ],
    )
    def test_bad_config_file_names_path_line_and_key(self, pipeline_dir, capsys, tmp_path, body, message):
        config_file = tmp_path / "bad.conf"
        config_file.write_text(body, encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--checkpoint", str(pipeline_dir / "bad.ckpt"),
            "--config", str(config_file),
        )
        assert code == 2
        assert last_json(err)["error"].startswith(f"DataFormatError: {config_file}{message}")

    def test_bad_set_value_names_the_key(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--checkpoint", str(pipeline_dir / "bad.ckpt"),
            "--set", "loss.negatives=many",
        )
        assert code == 2
        assert last_json(err)["error"].startswith("ValueError: bad value for config key 'loss.negatives'")

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("augment.strategy=bogus", "augment.strategy: strategy must be one of"),
            ("mine.k_sem=0", "mine.k_sem must be positive"),
            ("train.epochs=0", "train.epochs must be positive"),
            ("loss.lambda1=nan", "loss.lambda1 must be nonnegative"),
            ("model.d_field=0", "model.d_field must be positive"),
        ],
    )
    def test_out_of_range_setting_fails_before_mining(self, pipeline_dir, capsys, setting, message):
        code, _, err = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--checkpoint", str(pipeline_dir / "bad.ckpt"),
            "--seed", "0",
            "--set", setting,
        )
        assert code == 2
        assert message in json.loads(err.strip().split("\n")[-1])["error"]
        assert "mining" not in err and "training for" not in err

    @pytest.mark.parametrize("setting", [["--seed", "-1"], ["--set", "train.seed=-1"]], ids=["flag", "set"])
    def test_negative_seed_fails_before_mining(self, pipeline_dir, capsys, setting):
        code, _, err = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--checkpoint", str(pipeline_dir / "bad.ckpt"),
            *setting,
        )
        assert code == 2
        assert "ValueError: train.seed must be nonnegative" in last_json(err)["error"]
        assert "mining" not in err

    def test_unknown_semantic_source_names_the_key(self, pipeline_dir, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "mine-semantic",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--out", str(tmp_path / "pool.tsv"),
            "--set", "mine.semantic_source=x",
        )
        assert code == 2
        assert "mine.semantic_source must be title_knn or taxonomy" in last_json(err)["error"]
        assert not (tmp_path / "pool.tsv").exists()

    def test_repeated_set_key_rejected(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--checkpoint", str(pipeline_dir / "bad.ckpt"),
            "--set", "train.epochs=1",
            "--set", "train.epochs=2",
        )
        assert code == 2
        assert "ValueError: --set gives config key 'train.epochs' twice" in err

    def test_evaluate_n_below_one_names_n(self, pipeline_dir, capsys, tmp_path):
        from itemcl.data import load_catalog, load_profiles
        from itemcl.model import ModelDims, build_meta, init_params, save_checkpoint

        data = pipeline_dir / "data"
        dims = ModelDims(d_field=4, tower_dims=(8, 4, 4), behavior_window=5, ffn_dim=4, d_proj=4)
        catalog, profiles = load_catalog(str(data / "catalog.jsonl")), load_profiles(str(data / "profiles.jsonl"))
        meta = build_meta(catalog, profiles, dims)
        ckpt = tmp_path / "untrained.ckpt"
        save_checkpoint(init_params(meta, 0), str(ckpt))
        code, _, err = run_cli(
            capsys,
            "evaluate",
            "--checkpoint", str(ckpt),
            "--catalog", str(data / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--test", str(pipeline_dir / "splits" / "test.tsv"),
            "--profiles", str(data / "profiles.jsonl"),
            "--n", "-5",
        )
        assert code == 2
        assert "ValueError: N = -5 must be at least 1" in last_json(err)["error"]

    def test_evaluate_n_not_an_integer_names_n_before_loading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        code, _, err = run_cli(
            capsys,
            "evaluate",
            "--checkpoint", missing,
            "--catalog", missing,
            "--train", missing,
            "--test", missing,
            "--n", "5,x",
        )
        assert code == 2
        error = last_json(err)["error"]
        assert "--n" in error and "'x'" in error and "FileNotFoundError" not in error

    def test_evaluate_names_a_checkpoint_that_does_not_fit_the_catalog(self, pipeline_dir, capsys, tmp_path):
        ckpt, catalog = unfitting_checkpoint(pipeline_dir, tmp_path, "one-item-fewer")
        code, _, err = run_cli(
            capsys,
            "evaluate",
            "--checkpoint", str(ckpt),
            "--catalog", str(catalog),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--test", str(pipeline_dir / "splits" / "test.tsv"),
            "--profiles", str(pipeline_dir / "data" / "profiles.jsonl"),
        )
        assert code == 2
        assert f"{ckpt}: shape mismatch for 'emb.item_id'" in last_json(err)["error"]

    @pytest.mark.parametrize("edit, array", [("one-item-fewer", "emb.item_id"), ("new-tag", "emb.tags")])
    def test_export_names_a_checkpoint_that_does_not_fit_the_catalog(
        self, pipeline_dir, capsys, tmp_path, edit, array
    ):
        ckpt, catalog = unfitting_checkpoint(pipeline_dir, tmp_path, edit)
        out = tmp_path / "emb.tsv"
        code, _, err = run_cli(capsys, "export", "--checkpoint", str(ckpt), "--catalog", str(catalog), "--out", str(out))
        assert code == 2
        assert f"{ckpt}: shape mismatch for {array!r}" in last_json(err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "export"])
    @pytest.mark.parametrize("edit, kind", [("renamed-tag", "tag"), ("renamed-provider", "provider")])
    def test_names_a_vocabulary_name_the_checkpoint_lacks(self, pipeline_dir, capsys, tmp_path, command, edit, kind):
        # same vocabulary sizes, so every shape fits; the renamed items
        # would otherwise be pooled over the OOV row
        ckpt, catalog = unfitting_checkpoint(pipeline_dir, tmp_path, edit)
        out = tmp_path / "emb.tsv"
        code, _, err = run_cli(capsys, *checkpoint_command(pipeline_dir, command, ckpt, catalog, out))
        assert code == 2
        error = last_json(err)["error"]
        assert f"{ckpt}: the catalog's {kind} 'renamed' is not in the checkpoint's {kind} vocabulary" in error
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "export"])
    def test_names_the_first_item_id_that_differs(self, pipeline_dir, capsys, tmp_path, command):
        from itemcl.data import load_catalog

        ckpt, catalog = unfitting_checkpoint(pipeline_dir, tmp_path, "renamed-item")
        old = load_catalog(str(pipeline_dir / "data" / "catalog.jsonl")).items[3].item_id
        out = tmp_path / "emb.tsv"
        code, _, err = run_cli(capsys, *checkpoint_command(pipeline_dir, command, ckpt, catalog, out))
        assert code == 2
        expected = f"ValueError: {ckpt}: item 3 is 'renamed' in the catalog but {old!r} in the checkpoint"
        assert last_json(err)["error"] == expected
        assert not out.exists()

    def test_config_file_applies(self, pipeline_dir, capsys, tmp_path):
        config_file = tmp_path / "train.conf"
        config_file.write_text(
            "train.epochs = 1\ntrain.seed = 0\nloss.negatives = 5\n"
            "model.d_field = 4\nmodel.hidden1 = 8\nmodel.hidden2 = 4\n"
            "model.d_out = 4\nmodel.ffn_dim = 4\nmodel.d_proj = 4\n"
            "train.behavior_window = 5\nmine.k_sess = 5\nmine.k_sem = 5\n"
            "train.batch_size = 512\n",
            encoding="utf-8",
        )
        ckpt = pipeline_dir / "fromconf.ckpt"
        code, out, _ = run_cli(
            capsys,
            "train",
            "--catalog", str(pipeline_dir / "data" / "catalog.jsonl"),
            "--train", str(pipeline_dir / "splits" / "train.tsv"),
            "--checkpoint", str(ckpt),
            "--config", str(config_file),
        )
        assert code == 0
        from itemcl.model import load_checkpoint

        _, saved = load_checkpoint(str(ckpt))
        assert saved["epochs"] == 1 and saved["d_field"] == 4


def test_flags_override_set_which_overrides_the_config_file(tmp_path):
    from itemcl.cli import _config_from_args, build_parser

    config_file = tmp_path / "layers.conf"
    config_file.write_text("train.batch_size = 100\ntrain.seed = 4\ntrain.epochs = 3\n", encoding="utf-8")
    args = build_parser().parse_args(
        ["train", "--catalog", "c", "--train", "t", "--checkpoint", "k", "--config", str(config_file),
         "--set", "train.seed=5", "--set", "train.epochs=6", "--epochs", "7", "--no-fea"]
    )
    config = _config_from_args(args)
    assert (config.batch_size, config.seed, config.epochs) == (100, 5, 7)
    assert (config.lambda_feature, config.lambda_semantic, config.lambda_session) == (0.0, 0.3, 0.1)


def test_readme_config_table_lists_every_key_with_its_default():
    """The README's "Configuration keys" table names exactly the config
    keys, each with its default. A row naming `a.x` / `y` with default
    `1 / 2` stands for the keys a.x = 1 and a.y = 2."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        key_cell, default_cell = line.strip("|").split("|")[:2]
        names = re.findall(r"`([^`]+)`", key_cell)
        values = [value.strip() for value in default_cell.split(" / ")]
        assert len(names) == len(values), line
        prefix = names[0].rsplit(".", 1)[0]
        rows += [(name if "." in name else f"{prefix}.{name}", value) for name, value in zip(names, values)]
    assert sorted(key for key, _ in rows) == sorted(KEYMAP)
    for key, text in rows:
        attr, parser = KEYMAP[key]
        assert parser(text) == getattr(TrainConfig(), attr), key
