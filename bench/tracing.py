"""Spans and counters around calls into itemcl, for the traced run.

Wrappers are installed by dotted name: the function found at
``itemcl.<module>.<name>`` is replaced in every itemcl module that holds
it, so ``user_tower`` is wrapped where ``losses`` and ``evaluation`` call
it too. A name that no longer exists is skipped and its metrics are left
out of the result. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import oracles

MIB = float(1 << 20)

# per-layer metric -> unit; BENCHMARK.json lists the same names
PER_LAYER = {
    "synthetic.generate_s": "s",
    "data.split_s": "s",
    "sessions.segment_s": "s",
    "sessions.cooccurrence_s": "s",
    "sessions.pairs": "count",
    "semantics.title_knn_s": "s",
    "training.steps": "count",
    "training.step_ms_p50": "ms",
    "training.step_ms_p90": "ms",
    "training.batch_ms_per_step": "ms",
    "training.update_ms_per_step": "ms",
    "losses.matching_ms_per_step": "ms",
    "losses.feature_ms_per_step": "ms",
    "losses.semantic_ms_per_step": "ms",
    "losses.session_ms_per_step": "ms",
    "losses.anchors_per_step": "count",
    "losses.negatives_ms_per_step": "ms",
    "losses.matching_score_mb": "MB",
    "sampling.exclusion_mask_mb": "MB",
    "sampling.fallback_calls_per_step": "count",
    "model.user_tower.fwd_ms_per_step": "ms",
    "model.user_tower.bwd_ms_per_step": "ms",
    "model.user_tower.rows_per_step": "count",
    "model.item_tower.fwd_ms_per_step": "ms",
    "model.item_tower.bwd_ms_per_step": "ms",
    "model.item_tower.calls_per_step": "count",
    "model.item_tower.rows_per_step": "count",
    "model.embed.ms_per_step": "ms",
    "model.embed_augmented.ms_per_step": "ms",
    "model.project.ms_per_step": "ms",
    "model.scatter_rows.ms_per_step": "ms",
    "model.scatter_rows.rows_per_step": "count",
    "augment.mask_draws_per_step": "count",
    "evaluation.item_matrix_ms": "ms",
    "evaluation.user_encode_ms": "ms",
    "evaluation.topn_ms": "ms",
}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    stage: str | None  # outermost open span when this one opened
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class Tracer:
    """Records spans and counters. Until ``install`` is called it records
    only the stage spans the pipeline opens itself, so the untraced run
    pays for nothing else.

    Span times are read from a clock that stops while hooks run: a hook
    runs after its own span has closed but while the spans of its callers
    are still open, and the sampler checks cost as much as the sampling
    they check. ``hook_s`` is the time taken out, in all and per stage
    span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: Counter = Counter()
        self.hook_errors: list[str] = []  # counting hooks: the metric is dropped
        self.violations: list[str] = []  # failed checks and checks that could not run
        self.checked_rows = 0
        self.hook_s = 0.0
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self.hook_s

    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, parent, self.current_stage(), self.now())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.now()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def stage(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def current_stage(self) -> str | None:
        return self.stack[0].name if self.stack else None

    # -- wrappers ----------------------------------------------------------

    def install(self, targets: list["Target"]) -> None:
        for target in targets:
            module_name, _, attr = target.dotted.rpartition(".")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(target.dotted)
                continue
            wrapper = self._wrap(target, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "itemcl" or mod_name.startswith("itemcl.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def _run_hooks(self, target: "Target", signature, span: Span, args, kwargs, result) -> None:
        started = time.perf_counter()
        bound = signature.bind(*args, **kwargs)  # the call itself succeeded, so this binds
        bound.apply_defaults()
        arguments = bound.arguments
        if target.on_return is not None:
            try:
                target.on_return(self, span, arguments, result)
            except Exception:  # a changed signature drops one metric, not the run
                self.hook_errors.append(traceback.format_exc(limit=2))
        if target.check is not None:
            try:
                target.check(self, arguments, result)
            except Exception:  # a check that cannot run is a failed check
                self.violations.append(
                    f"{target.dotted}: sampler check could not run: {traceback.format_exc(limit=2)}"
                )
        spent = time.perf_counter() - started
        self.hook_s += spent
        if self.stack:  # the stage's own share, for the overhead figures
            self.stack[0].attrs["hook_s"] = self.stack[0].attrs.get("hook_s", 0.0) + spent

    def _wrap(self, target: "Target", original):
        signature = inspect.signature(original)
        tracer = self

        if target.count_only:
            def counting(*args, **kwargs):
                tracer.counts[(target.name, tracer.current_stage())] += 1
                return original(*args, **kwargs)

            return counting

        def traced(*args, **kwargs):
            span = tracer.open(target.name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if target.on_return is not None or target.check is not None:
                tracer._run_hooks(target, signature, span, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def dump(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]


@dataclass(frozen=True)
class Target:
    dotted: str  # where the function lives, e.g. itemcl.model.user_tower
    name: str  # span name
    on_return: object = None  # hook(tracer, span, arguments, result): span attributes
    check: object = None  # hook(tracer, arguments, result): the sampler property
    count_only: bool = False


# -- hooks: counts taken from arguments, and the sampler property checks ----


def _rows_of(arg: str):
    def hook(tracer: Tracer, span: Span, args: dict, result) -> None:
        span.attrs["rows"] = int(len(args[arg]))
    return hook


def _matching_scores(tracer: Tracer, span: Span, args: dict, result) -> None:
    batch = args["batch"]
    distinct = np.unique(np.concatenate([batch.pos_items, np.asarray(batch.neg_items).ravel()])).size
    span.attrs["score_mb"] = batch.pos_items.size * distinct * 8 / MIB


def _joint_anchors(tracer: Tracer, span: Span, args: dict, result) -> None:
    span.attrs["anchors"] = int(args["inputs"].contrastive.anchors.size)


def _pairs(tracer: Tracer, span: Span, args: dict, result) -> None:
    span.attrs["pairs"] = len(result.counts)


def _note(tracer: Tracer, where: str, bad: int, rows: int) -> None:
    tracer.checked_rows += rows
    if bad:
        tracer.violations.append(f"{where}: {bad} of {rows} negative rows break the sampler property")


def _mask_size(tracer: Tracer, span: Span, args: dict, result) -> None:
    mask = args["exclude_mask"]
    span.attrs["mask_mb"] = 0.0 if mask is None else mask.nbytes / MIB


def _check_batched(tracer: Tracer, args: dict, result) -> None:
    exclusions = args["exclusion_lists"]
    bad = oracles.negative_violations(result, exclusions, args["k"], args["n_items"])
    _note(tracer, "_batched_negatives", bad, len(exclusions))


def _check_distinct_rows(tracer: Tracer, args: dict, result) -> None:
    mask = args["exclude_mask"]
    if mask is not None:
        exclusions = [np.flatnonzero(row) for row in mask]
    else:
        exclusions = [np.asarray([x]) for x in args["exclude_single"]]
    bad = oracles.negative_violations(list(result), exclusions, args["k"], args["n_items"])
    _note(tracer, "sample_distinct_rows", bad, len(exclusions))


def _check_uniform(tracer: Tracer, args: dict, result) -> None:
    excluded = np.fromiter(args["excluded"], dtype=np.int64)
    bad = oracles.negative_violations([result], [excluded], args["n"], args["n_items"])
    _note(tracer, "uniform_excluding", bad, 1)


def _check_match(tracer: Tracer, args: dict, result) -> None:
    bad = int((result == np.asarray(args["pos_items"])[:, None]).any(axis=1).sum())
    _note(tracer, "_sample_match_negatives", bad, len(result))


TARGETS = [
    Target("itemcl.synthetic.generate", "synthetic.generate"),
    Target("itemcl.data.chronological_split", "data.split"),
    Target("itemcl.training.mine_artifacts", "training.mine_artifacts"),
    Target("itemcl.sessions.segment_sessions", "sessions.segment"),
    Target("itemcl.sessions.build_cooccurrence", "sessions.cooccurrence", _pairs),
    Target("itemcl.semantics.mine_title_knn", "semantics.title_knn"),
    Target("itemcl.training.train", "training.train"),
    Target("itemcl.training._sample_match_negatives", "training.match_negatives", check=_check_match),
    Target("itemcl.losses.loss_joint", "losses.joint", _joint_anchors),
    Target("itemcl.losses.loss_matching", "losses.matching", _matching_scores),
    Target("itemcl.losses.loss_feature_cl", "losses.feature"),
    Target("itemcl.losses.loss_semantic_cl", "losses.semantic"),
    Target("itemcl.losses.loss_session_cl", "losses.session"),
    Target("itemcl.losses._batched_negatives", "losses.negatives", check=_check_batched),
    Target("itemcl.sampling.sample_distinct_rows", "sampling.distinct_rows", _mask_size, _check_distinct_rows),
    Target("itemcl.sampling.uniform_excluding", "sampling.uniform_excluding", check=_check_uniform),
    Target("itemcl.model.user_tower", "model.user_tower.fwd", _rows_of("histories")),
    Target("itemcl.model.user_tower_backward", "model.user_tower.bwd"),
    Target("itemcl.model.item_tower", "model.item_tower.fwd", _rows_of("raw")),
    Target("itemcl.model.item_tower_backward", "model.item_tower.bwd"),
    Target("itemcl.model.embed_items", "model.embed"),
    Target("itemcl.model.embed_items_backward", "model.embed.bwd"),
    Target("itemcl.model.embed_items_augmented", "model.embed_augmented"),
    Target("itemcl.model.embed_items_augmented_backward", "model.embed_augmented.bwd"),
    Target("itemcl.model.project", "model.project"),
    Target("itemcl.model.project_backward", "model.project.bwd"),
    Target("itemcl.model._scatter_rows", "model.scatter_rows", _rows_of("idx")),
    Target("itemcl.augment.draw_element_mask", "augment.mask_draw", count_only=True),
    Target("itemcl.augment.draw_field_mask", "augment.mask_draw", count_only=True),
    Target("itemcl.augment.draw_value_keep", "augment.mask_draw", count_only=True),
    Target("itemcl.evaluation.evaluate", "evaluation.evaluate"),
    Target("itemcl.evaluation.item_matrix", "evaluation.item_matrix"),
    Target("itemcl.evaluation._top_n", "evaluation.topn"),
    Target("itemcl.evaluation.retrieve_topn", "evaluation.retrieve"),
]


# -- per-layer metrics ------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans. A metric whose spans are
    missing (its function was renamed or removed) is left out."""
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name: str, stage: str | None = None) -> list[Span]:
        return [s for s in by_name.get(name, []) if stage is None or s.stage == stage]

    def installed(name: str) -> bool:
        return any(t.name == name and t.dotted not in tracer.missing for t in TARGETS)

    def seconds(span: Span) -> float:
        return span.end - span.start

    out: dict[str, float] = {}

    def median_s(metric: str, name: str) -> None:
        found = spans(name)
        if found:
            out[metric] = float(np.median([seconds(s) for s in found]))

    median_s("synthetic.generate_s", "synthetic.generate")
    median_s("data.split_s", "data.split")
    median_s("sessions.segment_s", "sessions.segment")
    median_s("sessions.cooccurrence_s", "sessions.cooccurrence")
    median_s("semantics.title_knn_s", "semantics.title_knn")
    pairs = [s.attrs["pairs"] for s in spans("sessions.cooccurrence") if "pairs" in s.attrs]
    if pairs:
        out["sessions.pairs"] = float(pairs[-1])

    train_spans = spans("training.train", "stage.train")
    joints = spans("losses.joint", "stage.train")
    steps = len(joints)
    if train_spans and steps:
        out["training.steps"] = float(steps)
        step_ms, batch_ms, update_ms = [], [], []
        draws = spans("training.match_negatives", "stage.train")
        for run in train_spans:
            inside = [s for s in joints if run.start <= s.start <= run.end]
            starts = [s for s in draws if run.start <= s.start <= run.end]
            for i, joint in enumerate(inside):
                nxt = inside[i + 1].start if i + 1 < len(inside) else run.end
                step_ms.append((nxt - joint.start) * 1e3)
            if len(starts) == len(inside):
                for i, joint in enumerate(inside):
                    batch_ms.append((joint.start - starts[i].start) * 1e3)
                    nxt = starts[i + 1].start if i + 1 < len(starts) else run.end
                    update_ms.append((nxt - joint.end) * 1e3)
        out["training.step_ms_p50"] = float(np.percentile(step_ms, 50))
        out["training.step_ms_p90"] = float(np.percentile(step_ms, 90))
        if batch_ms:
            out["training.batch_ms_per_step"] = float(np.mean(batch_ms))
            out["training.update_ms_per_step"] = float(np.mean(update_ms))

        def per_step_ms(metric: str, *names: str) -> None:
            found = [s for n in names for s in spans(n, "stage.train")]
            if any(installed(n) for n in names):
                out[metric] = sum(seconds(s) for s in found) * 1e3 / steps

        def per_step_attr(metric: str, name: str, attr: str) -> None:
            found = [s.attrs[attr] for s in spans(name, "stage.train") if attr in s.attrs]
            if found:
                out[metric] = float(sum(found)) / steps

        per_step_ms("losses.matching_ms_per_step", "losses.matching")
        per_step_ms("losses.feature_ms_per_step", "losses.feature")
        per_step_ms("losses.semantic_ms_per_step", "losses.semantic")
        per_step_ms("losses.session_ms_per_step", "losses.session")
        per_step_ms("losses.negatives_ms_per_step", "losses.negatives")
        per_step_attr("losses.anchors_per_step", "losses.joint", "anchors")
        scores = [s.attrs["score_mb"] for s in spans("losses.matching", "stage.train") if "score_mb" in s.attrs]
        if scores:
            out["losses.matching_score_mb"] = float(max(scores))
        masks = [s.attrs["mask_mb"] for s in spans("sampling.distinct_rows", "stage.train") if "mask_mb" in s.attrs]
        if masks:
            out["sampling.exclusion_mask_mb"] = float(max(masks))
        if installed("sampling.uniform_excluding"):
            out["sampling.fallback_calls_per_step"] = len(spans("sampling.uniform_excluding", "stage.train")) / steps
        per_step_ms("model.user_tower.fwd_ms_per_step", "model.user_tower.fwd")
        per_step_ms("model.user_tower.bwd_ms_per_step", "model.user_tower.bwd")
        per_step_attr("model.user_tower.rows_per_step", "model.user_tower.fwd", "rows")
        per_step_ms("model.item_tower.fwd_ms_per_step", "model.item_tower.fwd")
        per_step_ms("model.item_tower.bwd_ms_per_step", "model.item_tower.bwd")
        if installed("model.item_tower.fwd"):
            out["model.item_tower.calls_per_step"] = len(spans("model.item_tower.fwd", "stage.train")) / steps
        per_step_attr("model.item_tower.rows_per_step", "model.item_tower.fwd", "rows")
        per_step_ms("model.embed.ms_per_step", "model.embed", "model.embed.bwd")
        per_step_ms("model.embed_augmented.ms_per_step", "model.embed_augmented", "model.embed_augmented.bwd")
        per_step_ms("model.project.ms_per_step", "model.project", "model.project.bwd")
        per_step_ms("model.scatter_rows.ms_per_step", "model.scatter_rows")
        per_step_attr("model.scatter_rows.rows_per_step", "model.scatter_rows", "rows")
        if installed("augment.mask_draw"):
            out["augment.mask_draws_per_step"] = tracer.counts[("augment.mask_draw", "stage.train")] / steps

    evaluations = spans("evaluation.evaluate", "stage.evaluate")
    if evaluations:
        calls = len(evaluations)
        for metric, name in (
            ("evaluation.item_matrix_ms", "evaluation.item_matrix"),
            ("evaluation.user_encode_ms", "model.user_tower.fwd"),
            ("evaluation.topn_ms", "evaluation.topn"),
        ):
            if installed(name):
                out[metric] = sum(seconds(s) for s in spans(name, "stage.evaluate")) * 1e3 / calls
    return out
