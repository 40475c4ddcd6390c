"""Trainer determinism, descent, ablation consistency, and reporting."""

import dataclasses

import numpy as np
import pytest

from itemcl.config import TrainConfig
from itemcl.data import Interaction, Item, ItemCatalog, assemble_split, chronological_split
from itemcl.synthetic import SyntheticSpec, default_split_time, generate
from itemcl import training
from itemcl.training import TrainingError, mine_artifacts, save_checkpoint, train

SMALL = TrainConfig(
    learning_rate=0.01,
    batch_size=64,
    epochs=3,
    seed=0,
    negatives=5,
    behavior_window=5,
    k_session=5,
    k_semantic=5,
    d_field=4,
    hidden1=8,
    hidden2=4,
    d_out=4,
    ffn_dim=4,
    d_proj=4,
)


def tiny_dataset(seed=1, n_users=20, n_items=30, n_interactions=220):
    spec = SyntheticSpec(
        n_users=n_users,
        n_items=n_items,
        n_clusters=4,
        n_interactions=n_interactions,
        title_dim=6,
        seed=seed,
    )
    data = generate(spec)
    split = chronological_split(
        data.interactions, default_split_time(data.interactions), behavior_window=5
    )
    return data, split


def run(config, data, split):
    pool, sampler, table = mine_artifacts(config, split, data.catalog)
    return train(config, split, data.catalog, data.profiles, pool, sampler, table)


class TestDeterminism:
    def test_same_seed_bitwise_identical_checkpoints(self, tmp_path):
        data, split = tiny_dataset()
        params_a, report_a = run(SMALL, data, split)
        params_b, report_b = run(SMALL, data, split)
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params_a, str(pa), SMALL.to_dict())
        save_checkpoint(params_b, str(pb), SMALL.to_dict())
        assert pa.read_bytes() == pb.read_bytes()
        for ea, eb in zip(report_a.epochs, report_b.epochs):
            assert ea["loss_joint"] == eb["loss_joint"]

    def test_split_replaced_with_a_click_list_trains_like_its_columns(self, tmp_path):
        """Train clicks swapped in as a list of rows, as ``dataclasses.replace``
        does, are held as a ``ClickLog`` equal to the same rows sliced from
        the columns, and train to the same checkpoint bytes."""
        data, split = tiny_dataset()
        rows = np.arange(0, len(split.train_interactions), 3)
        listed = dataclasses.replace(split, train_interactions=[split.train_interactions[i] for i in rows])
        sliced = dataclasses.replace(split, train_interactions=split.train_interactions[rows])
        assert listed.train_interactions.user_ids != sliced.train_interactions.user_ids
        assert listed == sliced
        pool, sampler, table = mine_artifacts(SMALL, split, data.catalog)
        checkpoints = []
        for name, each in (("listed", listed), ("sliced", sliced)):
            params, _ = train(SMALL, each, data.catalog, data.profiles, pool, sampler, table)
            checkpoints.append(tmp_path / f"{name}.ckpt")
            save_checkpoint(params, str(checkpoints[-1]), SMALL.to_dict())
        assert checkpoints[0].read_bytes() == checkpoints[1].read_bytes()

    def test_different_seed_differs(self):
        data, split = tiny_dataset()
        params_a, _ = run(SMALL, data, split)
        params_b, _ = run(dataclasses.replace(SMALL, seed=1), data, split)
        assert any(
            not np.array_equal(params_a.arrays[k], params_b.arrays[k]) for k in params_a.arrays
        )


class TestDescent:
    def test_matching_loss_strictly_decreases_early(self):
        data, split = tiny_dataset()
        config = dataclasses.replace(
            SMALL,
            epochs=12,
            batch_size=4096,  # full-batch steps keep the descent visible
            lambda_feature=0.0,
            lambda_semantic=0.0,
            lambda_session=0.0,
        )
        _, report = run(config, data, split)
        losses = [e["loss_matching"] for e in report.epochs]
        assert all(b < a for a, b in zip(losses[:10], losses[1:11]))


class TestAblationConsistency:
    def test_stream_partition_isolates_other_tasks(self):
        # single-step epoch: the other tasks' first-step values must not
        # move when one task's weight is zeroed
        data, split = tiny_dataset()
        one_step = dataclasses.replace(SMALL, batch_size=4096, epochs=1)
        _, full = run(one_step, data, split)
        _, nofea = run(dataclasses.replace(one_step, lambda_feature=0.0), data, split)
        assert full.epochs[0]["loss_semantic"] == nofea.epochs[0]["loss_semantic"]
        assert full.epochs[0]["loss_session"] == nofea.epochs[0]["loss_session"]
        assert full.epochs[0]["loss_matching"] == nofea.epochs[0]["loss_matching"]


class TestReport:
    def test_joint_equals_weighted_sum(self):
        data, split = tiny_dataset()
        _, report = run(SMALL, data, split)
        for epoch in report.epochs:
            expected = (
                epoch["loss_matching"]
                + SMALL.lambda_feature * epoch["loss_feature"]
                + SMALL.lambda_semantic * epoch["loss_semantic"]
                + SMALL.lambda_session * epoch["loss_session"]
            )
            assert abs(epoch["loss_joint"] - expected) < 1e-9

    def test_epochs_report_throughput_and_page_faults(self, monkeypatch):
        data, split = tiny_dataset()
        _, report = run(SMALL, data, split)
        n_clicks = len(split.train_interactions)
        for epoch in report.epochs:
            assert epoch["clicks_per_s"] == n_clicks / epoch["seconds"]
            if training.resource is not None:
                assert isinstance(epoch["minor_page_faults"], int) and epoch["minor_page_faults"] >= 0
        if training.resource is not None:
            # the high-water mark in MiB, as the benchmark computes it: it
            # never falls and never passes the process's mark after the run
            peaks = [epoch["peak_rss_mb"] for epoch in report.epochs]
            assert 0.0 < peaks[0] and peaks == sorted(peaks)
            assert peaks[-1] <= training.resource.getrusage(training.resource.RUSAGE_SELF).ru_maxrss * 1024 / 2**20

        monkeypatch.setattr(training, "resource", None)
        _, report = run(dataclasses.replace(SMALL, epochs=1), data, split)
        assert "minor_page_faults" not in report.epochs[0]
        assert "peak_rss_mb" not in report.epochs[0]
        assert report.epochs[0]["clicks_per_s"] == n_clicks / report.epochs[0]["seconds"]

    def test_enabling_feature_task_adds_positive_component(self):
        data, split = tiny_dataset()
        _, without = run(dataclasses.replace(SMALL, lambda_feature=0.0), data, split)
        _, with_fea = run(SMALL, data, split)
        assert without.epochs[0]["loss_feature"] == 0.0
        assert with_fea.epochs[0]["loss_feature"] > 0.0


class TestGuards:
    def test_active_semantic_task_requires_pool(self):
        data, split = tiny_dataset()
        with pytest.raises(ValueError, match="semantic"):
            train(SMALL, split, data.catalog, data.profiles, None, None, None)

    def test_one_item_catalog_rejected_before_the_first_step(self):
        # a pair's negatives are drawn from the other items: with none, the
        # matching sampler would redraw forever
        base = dataclasses.replace(SMALL, lambda_feature=0.0, lambda_semantic=0.0, lambda_session=0.0)
        clicks = [Interaction("u", 0, t) for t in range(3)]
        with pytest.raises(ValueError, match="catalog has 1 item"):
            train(base, assemble_split(clicks[:2], clicks[2:], 5), ItemCatalog([Item("a")]))

    def test_nonfinite_loss_aborts_with_component_name(self):
        data, split = tiny_dataset()
        exploding = dataclasses.replace(SMALL, learning_rate=1e150, epochs=3)
        pool, sampler, table = mine_artifacts(exploding, split, data.catalog)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite"):
            train(exploding, split, data.catalog, data.profiles, pool, sampler, table)
