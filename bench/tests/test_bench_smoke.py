"""Every workload end to end at toy size, untraced and traced, plus the
runner's refusal to run without the program's source.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import itemcl  # noqa: E402
import pipeline  # noqa: E402
import tracing  # noqa: E402

TOY_SPEC = {"n_users": 80, "n_items": 150, "n_clusters": 5, "n_interactions": 4000, "n_motif_pairs": 10}


@pytest.fixture
def toy_sizes(monkeypatch):
    for constant, value in (
        ("SETUP_REPS", 2), ("MINE_REPS", 1), ("MIN_ROUNDS", 2), ("EVAL_USERS", 20), ("REQUESTS_PER_ROUND", 10)
    ):
        monkeypatch.setattr(pipeline, constant, value)


def toy(name: str) -> pipeline.Workload:
    workload = pipeline.WORKLOADS[name]
    return dataclasses.replace(
        workload, spec=TOY_SPEC, round_clicks=2 * min(workload.batch_size, 512), chance_gate=False
    )


@pytest.mark.usefixtures("toy_sizes")
@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_workload_untraced_reports_every_end_to_end_metric(name):
    result = pipeline.run(toy(name), seed=0, seconds=0, tracer=tracing.Tracer())
    assert result.problems == []
    assert result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == set(pipeline.END_TO_END)
    assert all(value > 0 for value in result.metrics.values())


@pytest.mark.usefixtures("toy_sizes")
def test_a_gradient_of_the_wrong_sign_fails_the_learning_check(monkeypatch):
    loss_joint = itemcl.training.loss_joint

    def wrong_sign(*args):
        total, components, grads = loss_joint(*args)
        return total, components, {name: -g for name, g in grads.items()}

    monkeypatch.setattr(itemcl.training, "loss_joint", wrong_sign)
    result = pipeline.run(toy("train-small-batch"), seed=0, seconds=0, tracer=tracing.Tracer())
    assert [p for p in result.problems if "did not lower the matching loss" in p]


@pytest.mark.usefixtures("toy_sizes")
@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_workload_traced_reports_every_per_layer_metric(name):
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        result = pipeline.run(toy(name), seed=1, seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert result.problems == [] and tracer.violations == []
    assert tracer.missing == [] and tracer.hook_errors == []
    assert tracer.checked_rows > 0
    assert set(tracing.layer_metrics(tracer)) == set(tracing.PER_LAYER)
    assert set(result.quality) == set(pipeline.QUALITY)
    assert not hasattr(itemcl.model.user_tower, "__wrapped__")
    assert itemcl.losses.user_tower is itemcl.model.user_tower


def test_missing_function_drops_its_metric_not_the_run():
    tracer = tracing.Tracer()
    tracer.install([
        tracing.Target("itemcl.model.no_such_function", "model.gone"),
        tracing.Target("itemcl.no_such_module.f", "gone.too"),
    ])
    tracer.uninstall()
    assert tracer.missing == ["itemcl.model.no_such_function", "itemcl.no_such_module.f"]
    assert tracing.layer_metrics(tracer) == {}


def test_hook_time_is_taken_out_of_the_spans_still_open():
    def slow_hook(tracer, span, args, result):
        time.sleep(0.2)

    tracer = tracing.Tracer()
    wrapped = tracer._wrap(tracing.Target("itemcl.x.f", "inner", on_return=slow_hook), lambda n: n + 1)
    with tracer.stage("outer") as outer:
        assert wrapped(1) == 2
    assert tracer.hook_s >= 0.2
    assert outer.end - outer.start < 0.1


def test_a_check_that_cannot_run_fails_the_run_and_a_counter_only_drops_its_metric():
    def broken(tracer, *rest):
        raise KeyError("renamed_argument")

    tracer = tracing.Tracer()
    tracer._wrap(tracing.Target("itemcl.x.f", "f", on_return=broken), lambda n: n)(1)
    assert len(tracer.hook_errors) == 1 and tracer.violations == []
    tracer._wrap(tracing.Target("itemcl.x.g", "g", check=broken), lambda n: n)(1)
    assert len(tracer.violations) == 1 and "renamed_argument" in tracer.violations[0]


def test_benchmark_json_names_the_metrics_and_workloads_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == pipeline.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**tracing.PER_LAYER, **pipeline.QUALITY}
    assert [w["name"] for w in spec["workloads"]] == list(pipeline.WORKLOADS)


def test_runner_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-default", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
