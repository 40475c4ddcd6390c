"""The benchmark's workloads: generated inputs to evaluated model, in one process.

The timed stages call the program only through names the ``itemcl``
package exports (``generate``, ``chronological_split``, ``mine_artifacts``,
``train``, ``evaluate``, ``item_matrix``, ``retrieve_topn``), looked up at
call time so that the traced run's wrappers are seen. The untimed checks
afterwards compare outputs with the recounts in ``oracles`` and with
properties the method must have; they also call ``itemcl.model.user_tower``
to score items for a user and ``itemcl.loss_matching`` on a fixed batch.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import itemcl
import oracles
from tracing import Tracer

WINDOW = 20  # behavior window, as in the acceptance suite
TOP_N = 50
MIB = float(1 << 20)

# end-to-end metric -> unit; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "mine_s": "s",
    "train_clicks_per_s": "clicks/s",
    "eval_users_per_s": "users/s",
    "retrieve_p50_ms": "ms",
    "retrieve_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Model quality after the workload's short training. Its spread across
# workload seeds is wider than any bound an end-to-end metric may carry,
# so it is reported with the per-layer metrics and guarded by the checks.
QUALITY = {
    "evaluation.hit_at_50": "fraction",
    "evaluation.coverage_at_50": "fraction",
}


# Every run sets up and mines SETUP_REPS and MINE_REPS times, then repeats
# rounds of (train, evaluate, retrieve) for the run's seconds, at least
# MIN_ROUNDS times. Each time metric is the median over its repetitions or
# rounds. Every round sends the same requests in the same order; a
# request's latency is its median over the rounds, and the latency
# percentiles are taken over the requests. Interleaving the stages spreads each one over the whole run, so a slow
# spell on a shared machine shifts one round rather than one metric.
SETUP_REPS = 3
MINE_REPS = 3
MIN_ROUNDS = 4
EVAL_USERS = 1024  # fixed seeded subset of test users evaluated every round
REQUESTS_PER_ROUND = 1000  # single-user retrievals, one client, closed loop


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SyntheticSpec fields besides the seed
    batch_size: int
    round_clicks: int  # fixed seeded slice of the train split that every round trains on
    chance_gate: bool = False  # require hit@50 of at least twice the chance rate


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="train-default", spec={}, batch_size=4096, round_clicks=4 * 4096, chance_gate=True),
        Workload(name="train-small-batch", spec={}, batch_size=256, round_clicks=8 * 256),
        Workload(
            name="large-catalog",
            spec={"n_items": 4000, "n_users": 5000},
            batch_size=4096,
            round_clicks=4096,
        ),
    )
}


def train_config(workload: Workload, seed: int) -> itemcl.TrainConfig:
    """The acceptance suite's settings: lr 0.01, 20 negatives, one epoch."""
    return itemcl.TrainConfig(
        epochs=1, learning_rate=0.01, negatives=20, batch_size=workload.batch_size, seed=seed
    )


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    quality: dict[str, float]
    details: dict = field(default_factory=dict)


def _median(values: list[float]) -> float:
    return float(np.median(np.asarray(values)))


REF_NOMINAL_S = 0.020  # the reference work's usual time on the 2-core test machine
_REF_RNG = np.random.default_rng(12345)
_REF_BIG = _REF_RNG.random(1 << 22)  # 32 MiB, larger than the caches
_REF_IDX = _REF_RNG.integers(0, 1 << 22, size=1 << 19)
_REF_A = _REF_RNG.random((2048, 64))
_REF_B = _REF_RNG.random((64, 64))
_REF_S = _REF_RNG.random(5000)


def reference_s() -> float:
    """Seconds for fixed work that touches no program code, mixed like the
    pipeline's: object churn, random gathers from memory, small matrix
    products, argsorts and a plain Python loop. The median of three passes,
    so one interruption does not count, with the collector off, so the
    time does not depend on how big the heap is."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            started = time.perf_counter()
            churn = {i: (i, i * 2) for i in range(20_000)}
            total = float(_REF_BIG[_REF_IDX].sum()) + len(churn)
            for _ in range(5):
                total += float((_REF_A @ _REF_B)[0, 0]) + float(np.argsort(_REF_S, kind="stable")[0])
            for i in range(50_000):
                total += i
            times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return float(np.median(times))


class Clock:
    """Times calls, running the reference work on both sides of each.

    The speed of a shared machine drifts by a third within minutes. A
    sample's ``scale`` is REF_NOMINAL_S over the mean reference time
    around it; the sample times the scale is its time at the nominal
    machine speed. Raw and scaled samples both go to the run record.
    """

    def __init__(self):
        reference_s()  # the first call pays for warming up
        self.last = reference_s()

    def __call__(self, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        after = reference_s()
        scale = REF_NOMINAL_S / ((self.last + after) / 2)
        self.last = after
        return result, elapsed, scale


def _generate_and_split(workload: Workload, seed: int):
    data = itemcl.generate(itemcl.SyntheticSpec(seed=seed, **workload.spec))
    split = itemcl.chronological_split(data.interactions, itemcl.default_split_time(data.interactions), WINDOW)
    return data, split


def _serve(params, enc, prof, split, users, items) -> tuple[list[float], list[np.ndarray | None]]:
    """One client, closed loop: each request is sent when the last returns.
    A failed request is timed too, so that latencies stay aligned with
    ``users``; it is counted as failed."""
    latencies, lists = [], []
    for user in users:
        t0 = time.perf_counter()
        try:
            top = itemcl.retrieve_topn(
                params, enc, split.behavior_histories.get(user, []), prof.row(user), TOP_N, items=items
            )
        except ValueError:
            top = None
        latencies.append((time.perf_counter() - t0) * 1e3)
        lists.append(top)
    return latencies, lists


def run(workload: Workload, seed: int, seconds: float, tracer: Tracer) -> RunResult:
    """Run one workload end to end and check its outputs."""
    clock = Clock()
    raw: dict[str, list[float]] = {k: [] for k in ("setup_s", "mine_s", "train_s", "eval_s", "latency_ms")}
    scaled: dict[str, list[float]] = {k: [] for k in raw}

    def record(name: str, values: list[float], scale: float) -> None:
        raw[name].extend(values)
        scaled[name].extend(v * scale for v in values)

    attempted = 0

    data = split = None
    for _ in range(SETUP_REPS):
        data = split = None  # each repetition starts from the same heap
        gc.collect()
        with tracer.stage("stage.setup"):
            (data, split), elapsed, scale = clock(_generate_and_split, workload, seed)
        record("setup_s", [elapsed], scale)
        attempted += 2
    catalog, profiles = data.catalog, data.profiles
    config = train_config(workload, seed)

    pool = sampler = table = None
    for _ in range(MINE_REPS):
        pool = sampler = table = None  # as for set-up: no earlier result alive on the heap
        gc.collect()
        with tracer.stage("stage.mine"):
            (pool, sampler, table), elapsed, scale = clock(itemcl.mine_artifacts, config, split, catalog)
        record("mine_s", [elapsed], scale)
        attempted += 1

    rng = np.random.default_rng([seed, 1])
    train_events = split.train_interactions
    keep = np.sort(rng.choice(len(train_events), size=min(workload.round_clicks, len(train_events)), replace=False))
    train_split = dataclasses.replace(split, train_interactions=[train_events[i] for i in keep])
    test_users = sorted({ev.user_id for ev in split.test_interactions})
    chosen = set(rng.choice(test_users, size=min(EVAL_USERS, len(test_users)), replace=False))
    eval_split = dataclasses.replace(
        split, test_interactions=[ev for ev in split.test_interactions if ev.user_id in chosen]
    )
    round_users = [test_users[i] for i in rng.choice(len(test_users), REQUESTS_PER_ROUND)]

    params = enc = prof = items = None
    served: list[np.ndarray | None] = []  # the first round's lists, property-checked afterwards
    changed = failed = rounds = 0
    started = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        gc.collect()  # every round starts from the same collector state
        with tracer.stage("stage.train"):
            (trained, _), elapsed, scale = clock(
                itemcl.train, config, train_split, catalog, profiles, pool, sampler, table
            )
        record("train_s", [elapsed], scale)
        if params is None:
            params = trained
            enc = itemcl.EncodedCatalog(catalog, params.meta)
            prof = itemcl.EncodedProfiles(profiles, params.meta)
            items = itemcl.item_matrix(params, enc)
        elif not _same_params(params, trained):
            raise RuntimeError("two training rounds from one seed gave different parameters")

        with tracer.stage("stage.evaluate"):
            sub_report, elapsed, scale = clock(itemcl.evaluate, params, enc, prof, eval_split, ns=(TOP_N,))
        record("eval_s", [elapsed], scale)

        with tracer.stage("stage.retrieve"):
            (latencies, lists), _, scale = clock(_serve, params, enc, prof, split, round_users, items)
        record("latency_ms", latencies, scale)
        failed += sum(1 for top in lists if top is None)
        if rounds == 0:
            served = lists
        else:
            changed += sum(1 for a, b in zip(lists, served) if not _same_list(a, b))
        rounds += 1
        attempted += 2 + len(round_users)

    round_clicks = len(train_split.train_interactions)
    # The slow spells of a shared machine last milliseconds and hit runs of
    # consecutive requests; a median over rounds seconds apart drops them
    # but keeps what makes one request slower than another.
    per_request_ms = np.median(np.reshape(scaled["latency_ms"], (rounds, len(round_users))), axis=0)
    metrics = {
        "setup_s": _median(scaled["setup_s"]),
        "mine_s": _median(scaled["mine_s"]),
        "train_clicks_per_s": round_clicks * config.epochs / _median(scaled["train_s"]),
        "eval_users_per_s": sub_report.n_test_users / _median(scaled["eval_s"]),
        "retrieve_p50_ms": float(np.percentile(per_request_ms, 50)),
        "retrieve_p99_ms": float(np.percentile(per_request_ms, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
    }
    details = dict(
        raw=raw,
        scaled=scaled,
        rounds=rounds,
        round_clicks=round_clicks,
        steps_per_round=-(-round_clicks // workload.batch_size),
        eval_users=sub_report.n_test_users,
        requests=rounds * len(round_users),
        n_items=len(catalog),
    )

    with tracer.stage("stage.check"):
        report = itemcl.evaluate(params, enc, prof, split, ns=(TOP_N,))
        problems = check_outputs(
            workload, seed, config, data, split, pool, table, params, enc, prof, items, report,
            list(zip(round_users, served)),
        )
        if changed:
            problems.append(f"retrieve_topn: {changed} later-round lists differ from the first round's")
        problems += check_learning(seed, config, data, split, train_split, pool, sampler, table, params, enc, prof,
                                   details)
    quality = {
        "evaluation.hit_at_50": report.hit[TOP_N],
        "evaluation.coverage_at_50": report.coverage[TOP_N],
    }
    return RunResult(metrics, attempted, failed, problems, quality, details)


def _same_list(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    return (a is None) == (b is None) and (a is None or np.array_equal(a, b))


def _same_params(a, b) -> bool:
    return a.arrays.keys() == b.arrays.keys() and all(
        np.array_equal(a.arrays[name], b.arrays[name]) for name in a.arrays
    )


# -- correctness checks ----------------------------------------------------


def check_outputs(workload, seed, config, data, split, pool, table, params, enc, prof, items, report,
                  served) -> list[str]:
    """Compare the run's outputs with the independent recounts in
    ``oracles``; one message per failed check."""
    rng = np.random.default_rng([seed, 3])
    n_items = len(data.catalog)
    user_tower = itemcl.model.user_tower
    histories = split.behavior_histories
    problems: list[str | None] = []

    train = split.train_interactions
    _, user_code = np.unique([ev.user_id for ev in train], return_inverse=True)
    problems.append(oracles.check_cooccurrence(
        table.count,
        user_code,
        np.asarray([ev.item_index for ev in train], dtype=np.int64),
        np.asarray([ev.timestamp for ev in train], dtype=np.int64),
        config.session_window,
        n_items,
        rng,
    ))

    vectors = np.stack([
        item.title_vector if item.title_vector is not None else np.zeros(data.catalog.title_dim)
        for item in data.catalog.items
    ])
    queries = rng.choice(n_items, size=min(200, n_items), replace=False)
    problems.append(oracles.check_title_knn(pool.positives, vectors, config.k_semantic, queries))

    test_users = sorted({ev.user_id for ev in split.test_interactions})
    user_vecs: dict[str, np.ndarray] = {}
    for lo in range(0, len(test_users), 1024):
        block = test_users[lo : lo + 1024]
        u, _ = user_tower(params, [histories.get(x, []) for x in block], prof.rows(block))
        user_vecs.update(zip(block, u))
    test_pairs = [(ev.user_id, ev.item_index) for ev in split.test_interactions]
    problems.append(oracles.check_hit_coverage(
        report.hit[TOP_N], report.coverage[TOP_N], user_vecs, items, test_pairs, TOP_N
    ))
    if workload.chance_gate and report.hit[TOP_N] < 2 * TOP_N / n_items:
        problems.append(f"hit@50 {report.hit[TOP_N]:.4f} is not clearly above chance {TOP_N / n_items:.4f}")

    for user, top in served:
        if top is None:
            continue
        u, _ = user_tower(params, [histories.get(user, [])], prof.row(user).reshape(1, -1))
        why = oracles.topn_violation(items @ u[0], top, TOP_N)
        if why is not None:
            problems.append(f"retrieve_topn for {user}: {why}")
            break

    initial = initial_params(data, config)
    unchanged = [name for name in initial.arrays if np.array_equal(initial.arrays[name], params.arrays[name])]
    if unchanged:
        problems.append(f"training left these parameters at their initial values: {', '.join(unchanged)}")
    return [p for p in problems if p is not None]


def check_learning(seed, config, data, split, train_split, pool, sampler, table, params, enc, prof,
                   details) -> list[str]:
    """The round's training must lower the matching loss of a fixed batch.

    At the workload's lr of 0.01 the first Adam steps can overshoot and
    raise it on some seeds (see CHANGES.md), so that pair is recorded only.
    The gate trains the same slice again at the program's default lr,
    where a few steps are small enough to descend; a gradient of the wrong
    sign raises the loss there on every workload."""
    gentle = dataclasses.replace(config, learning_rate=itemcl.TrainConfig().learning_rate)
    gentle_params, _ = itemcl.train(gentle, train_split, data.catalog, data.profiles, pool, sampler, table)
    initial, trained, trained_gentle = fixed_batch_losses(
        seed, config, data, split, train_split, enc, prof, [initial_params(data, config), params, gentle_params]
    )
    details["matching_loss_fixed_batch"] = {
        "initial": initial, f"lr_{config.learning_rate}": trained, f"lr_{gentle.learning_rate}": trained_gentle
    }
    if trained_gentle < initial:
        return []
    return [f"training at lr {gentle.learning_rate} did not lower the matching loss of a fixed batch: "
            f"{initial:.6f} -> {trained_gentle:.6f}"]


def initial_params(data, config):
    return itemcl.init_params(itemcl.build_meta(data.catalog, data.profiles, config.model_dims()), config.seed)


def fixed_batch_losses(seed, config, data, split, train_split, enc, prof, models) -> list[float]:
    """Matching loss of each model on one fixed batch of 512 training
    pairs, with negatives from the benchmark's own seeded generator."""
    rng = np.random.default_rng([seed, 4])
    chosen = rng.choice(len(train_split.train_interactions), size=min(512, len(train_split.train_interactions)), replace=False)
    events = [train_split.train_interactions[i] for i in chosen]
    users, rows = np.unique([ev.user_id for ev in events], return_inverse=True)
    pos = np.asarray([ev.item_index for ev in events], dtype=np.int64)
    batch = itemcl.MatchBatch(
        user_rows=rows,
        histories=[split.behavior_histories.get(x, []) for x in users],
        profile_idx=prof.rows(list(users)),
        pos_items=pos,
        neg_items=oracles.draw_match_negatives(pos, len(data.catalog), config.negatives, rng),
    )
    return [float(itemcl.loss_matching(model, enc, batch)[0]) for model in models]
