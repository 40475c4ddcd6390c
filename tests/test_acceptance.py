"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible under ``pytest -v -s tests/test_acceptance.py``).

The directional criterion trains the full model and its ablations on the
default synthetic benchmark across three seeds; it is the slow part and
budgeted to stay under twenty minutes end to end.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from itemcl.augment import AugmentationPlan, augmentation_masks
from itemcl.config import TrainConfig
from itemcl.data import Interaction, Item, ItemCatalog, assemble_split, chronological_split
from itemcl.evaluation import evaluate, item_matrix
from itemcl.gradcheck import build_fixture, gradcheck_suite
from itemcl.losses import ContrastiveBatch, MatchBatch, _batched_negatives, loss_feature_cl, loss_matching
from itemcl.model import (
    EncodedCatalog,
    EncodedProfiles,
    build_meta,
    init_params,
    pad_histories,
    save_checkpoint,
    user_tower,
)
from itemcl.rng import substream
from itemcl.sessions import (
    CooccurrenceTable,
    SessionPositiveSampler,
    build_cooccurrence,
    dump_cooccurrence,
    load_cooccurrence,
    segment_sessions,
)
from itemcl.semantics import mine_taxonomy
from itemcl.synthetic import SyntheticSpec, default_split_time, generate
from itemcl.training import mine_artifacts, train


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# -------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    errors = gradcheck_suite()
    elapsed = time.perf_counter() - started
    worst = max(errors.values())
    ok = worst < 1e-5 and elapsed < 60 and set(errors) == {
        "matching",
        "feature",
        "semantic",
        "session",
        "joint",
    }
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errors.items()) + f"; {elapsed:.1f}s"
    report_line("1 gradient suite", ok, detail)


# -------------------------------------------------------------- criterion 2


def test_criterion_2_loss_value_oracles(monkeypatch):
    import itemcl.losses as losses

    fix = build_fixture()
    params, enc, plan = fix["params"], fix["enc"], fix["plan"]
    # uniform scores through a zeroed projector: every term is ln(K+1)
    zeroed = params.copy()
    zeroed.arrays["proj_f.W"][...] = 0.0
    zeroed.arrays["proj_f.b"][...] = 0.0
    anchors = np.array([0, 1, 4])
    worst_gap = 0.0
    for k in (10, 20, 50):
        # 5 candidates per anchor in the 6-item fixture: substitute a draw
        # that repeats them, k per anchor
        negs = [np.resize([j for j in range(6) if j != a], k) for a in anchors]
        monkeypatch.setattr(losses, "_batched_negatives", lambda n_items, excl, k, rng, negs=negs: negs)
        batch = ContrastiveBatch(anchors=anchors, tau=1.0, num_negatives=k)
        value, _ = loss_feature_cl(zeroed, enc, batch, plan, substream(0, "a2"), substream(0, "a2d"))
        worst_gap = max(worst_gap, abs(value - 3 * math.log(k + 1)))
    ok_infonce = worst_gap < 1e-9

    # two-way uniform sampled softmax = ln 2
    flat = params.copy()
    for name in flat.arrays:
        if name.startswith(("item_tower.", "user_tower.")):
            flat.arrays[name][...] = 0.0
    match = MatchBatch(
        user_rows=np.array([0]),
        histories=fix["match"].histories[:1],
        profile_idx=fix["match"].profile_idx[:1],
        pos_items=np.array([1]),
        neg_items=np.array([[3]]),
    )
    value, _ = loss_matching(flat, enc, match)
    gap_ln2 = abs(value - math.log(2))
    ok = ok_infonce and gap_ln2 < 1e-12
    report_line(
        "2 loss value oracles",
        ok,
        f"max |InfoNCE - ln(K+1)| = {worst_gap:.1e} over K in (10,20,50); |L_S - ln 2| = {gap_ln2:.1e}",
    )


# -------------------------------------------------------------- criterion 3


def test_criterion_3_cooccurrence_oracle(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(33)
    item_lists = [[int(x) for x in rng.integers(0, 50, size=rng.integers(1, 7))] for _ in range(1000)]
    # session s of user u{s % 60}: clicks 1 s apart, sessions two windows apart
    clicks = [
        Interaction(f"u{s % 60}", item, (s // 60) * 7200 + j)
        for s, items in enumerate(item_lists)
        for j, item in enumerate(items)
    ]
    table = build_cooccurrence(segment_sessions(assemble_split(clicks, [], behavior_window=5), 3600), 50)

    recount: dict[tuple[int, int], int] = {}
    for items in item_lists:
        distinct = sorted(set(items))
        for i in range(len(distinct)):
            for j in range(i + 1, len(distinct)):
                key = (distinct[i], distinct[j])
                recount[key] = recount.get(key, 0) + 1
    exact = dict(zip(map(tuple, table.pairs.tolist()), table.counts.tolist())) == recount

    catalog = ItemCatalog([Item(f"it{i:03d}") for i in range(50)])
    p1, p2 = tmp_path / "c1.tsv", tmp_path / "c2.tsv"
    dump_cooccurrence(table, catalog, str(p1))
    dump_cooccurrence(load_cooccurrence(str(p1), catalog), catalog, str(p2))
    roundtrip = p1.read_bytes() == p2.read_bytes()
    elapsed = time.perf_counter() - started
    ok = exact and roundtrip and elapsed < 5.0
    report_line(
        "3 co-occurrence oracle",
        ok,
        f"recount exact={exact}, dump byte-identical={roundtrip}, {elapsed:.2f}s",
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_4_sampler_statistics():
    rng = np.random.default_rng(44)
    table = CooccurrenceTable([(0, 1), (0, 2)], [3, 1], 10, k=10)
    sampler = SessionPositiveSampler(table)
    _, draws = sampler.sample_many(np.zeros(100_000, dtype=np.int64), rng)
    gap_pos = max(abs((draws == 1).mean() - 0.75), abs((draws == 2).mean() - 0.25))

    # negatives as training draws them: 100k rows of the one batched sampler
    draws = np.concatenate(_batched_negatives(10, [table.excluded(0)] * 100_000, 1, rng))
    freq = np.bincount(draws, minlength=10) / 100_000
    gap_sess_neg = float(np.abs(freq[3:] - 1 / 7).max() + freq[:3].sum())

    catalog = ItemCatalog(
        [Item(f"i{i}", (), "p", "g" if i < 3 else None) for i in range(10)]
    )
    pool = mine_taxonomy(catalog)
    draws = np.concatenate(_batched_negatives(10, [pool.excluded(0)] * 100_000, 1, rng))
    freq = np.bincount(draws, minlength=10) / 100_000
    gap_sem_neg = float(np.abs(freq[3:] - 1 / 7).max() + freq[:3].sum())

    plan = AugmentationPlan("element", 0.5)
    _, zero_mask = augmentation_masks(3, 64, plan, np.zeros(10_000, dtype=np.int64), rng)
    fractions = zero_mask.mean(axis=1)
    gap_drop = abs(float(np.mean(fractions)) - 0.5)

    ok = gap_pos < 0.01 and gap_sess_neg < 0.01 and gap_sem_neg < 0.01 and gap_drop < 0.02
    report_line(
        "4 sampler statistics",
        ok,
        f"positive gap={gap_pos:.4f}, session-neg gap={gap_sess_neg:.4f}, "
        f"semantic-neg gap={gap_sem_neg:.4f}, dropout-mean gap={gap_drop:.4f}",
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_5_metric_oracles():
    spec = SyntheticSpec(n_users=50, n_items=300, n_clusters=10, n_interactions=900, title_dim=6, seed=55)
    data = generate(spec)
    config = TrainConfig(behavior_window=5, d_field=4, hidden1=8, hidden2=4, d_out=4, ffn_dim=4, d_proj=4)
    meta = build_meta(data.catalog, data.profiles, config.model_dims())
    params = init_params(meta, 55)
    rng = np.random.default_rng(56)
    for arr in params.arrays.values():
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    enc = EncodedCatalog(data.catalog, meta)
    prof = EncodedProfiles(data.profiles, meta)
    cut = len(data.interactions) * 4 // 5
    split = chronological_split(data.interactions, data.interactions[cut].timestamp, 5)
    ns = (10, 50, 100)
    report = evaluate(params, enc, prof, split, ns=ns)

    items = item_matrix(params, enc)
    lists = {}
    for user in {ev.user_id for ev in split.test_interactions}:
        hist = split.behavior_histories.get(user, [])
        u, _ = user_tower(params, pad_histories([hist], 5), prof.rows([user]))
        lists[user] = np.argsort(-(items @ u[0]), kind="stable")[: max(ns)]
    hit_exact = True
    for n in ns:
        hits = sum(
            1
            for ev in split.test_interactions
            if ev.item_index in set(lists[ev.user_id][:n].tolist())
        )
        hit_exact = hit_exact and report.hit[n] == hits / len(split.test_interactions)
    covered = set()
    for ranking in lists.values():
        covered.update(int(x) for x in ranking)
    coverage_exact = report.coverage[max(ns)] == len(covered) / 300
    monotone = report.hit[10] <= report.hit[50] <= report.hit[100]
    ok = hit_exact and coverage_exact and monotone
    report_line(
        "5 metric oracles",
        ok,
        f"hit recount exact={hit_exact}, coverage recount exact={coverage_exact}, monotone={monotone}",
    )


# -------------------------------------------------------------- criterion 6


BENCH_CONFIG = TrainConfig(epochs=2, learning_rate=0.01, negatives=20)
BENCH_SEEDS = (0, 1, 2)


def _bench_variants(config):
    return {
        "full": config,
        "base": dataclasses.replace(
            config, lambda_feature=0.0, lambda_semantic=0.0, lambda_session=0.0
        ),
        "nofea": dataclasses.replace(config, lambda_feature=0.0),
        "nosem": dataclasses.replace(config, lambda_semantic=0.0),
        "nosess": dataclasses.replace(config, lambda_session=0.0),
    }


@pytest.fixture(scope="module")
def bench_results():
    started = time.perf_counter()
    results = {name: [] for name in _bench_variants(BENCH_CONFIG)}
    for seed in BENCH_SEEDS:
        data = generate(SyntheticSpec(seed=seed))
        split = chronological_split(data.interactions, default_split_time(data.interactions), 20)
        for name, config in _bench_variants(dataclasses.replace(BENCH_CONFIG, seed=seed)).items():
            pool, sampler, table = mine_artifacts(config, split, data.catalog)
            params, _ = train(config, split, data.catalog, data.profiles, pool, sampler, table)
            enc = EncodedCatalog(data.catalog, params.meta)
            prof = EncodedProfiles(data.profiles, params.meta)
            rep = evaluate(params, enc, prof, split, ns=(50, 100, 200, 500))
            results[name].append(rep)
            print(
                f"\n[bench] seed {seed} {name:<6} hit@50={rep.hit[50]:.4f} "
                f"coverage@50={rep.coverage[50]:.3f} coverage@500={rep.coverage[500]:.3f}",
                flush=True,
            )
    results["seconds"] = time.perf_counter() - started
    return results


def _mean(reports, fn):
    return float(np.mean([fn(r) for r in reports]))


def _seed_gaps(bench_results, name):
    """full - ``name`` HIT@50 at each of BENCH_SEEDS, for the report line;
    the gates read only the pooled margins."""
    gaps = [f.hit[50] - r.hit[50] for f, r in zip(bench_results["full"], bench_results[name])]
    return "seeds " + "/".join(map(str, BENCH_SEEDS)) + ": " + " / ".join(f"{g:+.4f}" for g in gaps)


def test_criterion_6a_full_beats_base(bench_results):
    full = _mean(bench_results["full"], lambda r: r.hit[50])
    base = _mean(bench_results["base"], lambda r: r.hit[50])
    ok = full - base >= 0.01
    report_line(
        "6a full vs base HIT@50",
        ok,
        f"full={full:.4f}, base={base:.4f}, margin={full - base:+.4f} (need >= +0.01); "
        f"{_seed_gaps(bench_results, 'base')}",
    )


def test_criterion_6b_session_task_drives_coverage(bench_results):
    # the 1000-item catalog saturates top-500 coverage, so the diversity
    # comparison reads the top-50 prefix of the same retrieval lists
    full = _mean(bench_results["full"], lambda r: r.coverage[50])
    nosess = _mean(bench_results["nosess"], lambda r: r.coverage[50])
    ok = nosess < full
    report_line(
        "6b coverage drop without session task",
        ok,
        f"full coverage@50={full:.3f}, without-session={nosess:.3f}",
    )


def test_criterion_6c_every_ablation_at_most_full(bench_results):
    full = _mean(bench_results["full"], lambda r: r.hit[50])
    gaps = {
        name: full - _mean(bench_results[name], lambda r: r.hit[50])
        for name in ("nofea", "nosem", "nosess")
    }
    ok = all(gap >= 0.0 for gap in gaps.values())
    detail = ", ".join(f"full-{name}={gap:+.4f} ({_seed_gaps(bench_results, name)})" for name, gap in gaps.items())
    report_line("6c single-task ablations <= full", ok, detail)


def test_criterion_6_runtime(bench_results):
    elapsed = bench_results["seconds"]
    ok = elapsed < 20 * 60
    report_line("6 runtime budget", ok, f"{elapsed / 60:.1f} min (< 20 min)")


# -------------------------------------------------------------- criterion 7


def test_criterion_7_pipeline_determinism(tmp_path):
    spec = SyntheticSpec(n_users=300, n_items=200, n_clusters=10, n_interactions=15_000, seed=7)
    config = TrainConfig(epochs=5, seed=7, learning_rate=0.01, negatives=20, batch_size=4096)

    artifacts = []
    for run in range(2):
        data = generate(spec)
        split = chronological_split(data.interactions, default_split_time(data.interactions), 20)
        pool, sampler, table = mine_artifacts(config, split, data.catalog)
        params, _ = train(config, split, data.catalog, data.profiles, pool, sampler, table)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(params, str(path), config.to_dict())
        enc = EncodedCatalog(data.catalog, params.meta)
        prof = EncodedProfiles(data.profiles, params.meta)
        rep = evaluate(params, enc, prof, split, ns=(50, 100, 200))
        artifacts.append((path.read_bytes(), json.dumps(rep.to_dict(), sort_keys=True)))

    same_ckpt = artifacts[0][0] == artifacts[1][0]
    same_eval = artifacts[0][1] == artifacts[1][1]
    ok = same_ckpt and same_eval
    report_line(
        "7 determinism",
        ok,
        f"checkpoints bit-identical={same_ckpt}, eval reports identical={same_eval}",
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_8_padding_invariance():
    spec = SyntheticSpec(n_users=120, n_items=200, n_clusters=10, n_interactions=3000, seed=88)
    data = generate(spec)
    meta = build_meta(data.catalog, data.profiles, TrainConfig().model_dims())
    params = init_params(meta, 88)
    rng = np.random.default_rng(89)
    for arr in params.arrays.values():
        arr[...] = rng.uniform(-0.4, 0.4, size=arr.shape)
    prof = EncodedProfiles(data.profiles, meta)

    users = [f"u{i:05d}" for i in range(100)]
    profile_idx = prof.rows(users)
    histories = [
        [int(x) for x in rng.integers(0, 200, size=rng.integers(0, 26))] for _ in users
    ]
    padded_variants = []
    for history in histories:
        extra_front = [-1] * int(rng.integers(0, 3))
        extra_back = [-1] * int(rng.integers(1, 4))
        padded_variants.append(extra_front + history + extra_back)

    u_base, _ = user_tower(params, histories, profile_idx)
    u_padded, _ = user_tower(params, padded_variants, profile_idx)
    max_diff = float(np.abs(u_base - u_padded).max())
    ok = max_diff == 0.0
    report_line("8 padding invariance", ok, f"max |delta u| over 100 users = {max_diff}")
