"""Operator command line: generate, prepare, mine, train, evaluate,
export, and gradcheck.

Reports go to standard output as JSON; progress notes go to standard
error. Randomized commands take an explicit ``--seed`` (or read one from
the config file); there are no wall-clock default seeds.

``train``, ``mine-sessions`` and ``mine-semantic`` read one ``TrainConfig``
from ``--config``, then ``--set``, then shorthand flags such as ``--seed``
or ``--no-sess``, whose argparse ``dest`` is the config key they set; so a
``mine-*`` dump is the table ``train`` mines from the same settings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import KEYMAP, TrainConfig, apply_settings, parse_config_file
from .data import (
    assemble_split,
    load_catalog,
    load_interactions,
    load_profiles,
    save_catalog,
    save_interactions,
    save_profiles,
    chronological_split,
    write_lines,
)
from .evaluation import DEFAULT_NS, SIMILARITIES, evaluate, export_embeddings
from .gradcheck import DEFAULT_THRESHOLD, gradcheck_suite
from .model import EncodedCatalog, EncodedProfiles, build_meta, check_shapes, load_checkpoint
from .semantics import dump_semantic_pool, mine_semantic_pool
from .sessions import build_cooccurrence, dump_cooccurrence, segment_sessions
from .synthetic import TRAIN_FRACTION, SyntheticSpec, default_split_time, generate
from .training import mine_artifacts, save_checkpoint, train


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _config_from_args(args: argparse.Namespace) -> TrainConfig:
    config = TrainConfig()
    if args.config:
        config = apply_settings(config, parse_config_file(args.config))
    overrides: dict[str, str] = {}
    for assignment in args.set or []:
        key, _, value = assignment.partition("=")
        if not _:
            raise ValueError(f"--set expects key=value, got {assignment!r}")
        key = key.strip()
        if key in overrides:
            raise ValueError(f"--set gives config key {key!r} twice")
        overrides[key] = value.strip()
    config = apply_settings(config, overrides)
    flags = {key: str(value) for key, value in vars(args).items() if key in KEYMAP and value is not None}
    config = apply_settings(config, flags)
    config.validate()
    return config


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        n_users=args.users,
        n_items=args.items,
        n_clusters=args.clusters,
        n_interactions=args.interactions,
        motif_rate=args.motif_rate,
        seed=args.seed,
    )
    _log(f"generating synthetic dataset into {args.out_dir}")
    data = generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    catalog_path = os.path.join(args.out_dir, "catalog.jsonl")
    interactions_path = os.path.join(args.out_dir, "interactions.tsv")
    profiles_path = os.path.join(args.out_dir, "profiles.jsonl")
    save_catalog(data.catalog, catalog_path)
    save_interactions(data.interactions, data.catalog, interactions_path)
    save_profiles(data.profiles, profiles_path)
    _emit(
        {
            "catalog": catalog_path,
            "interactions": interactions_path,
            "profiles": profiles_path,
            "n_items": len(data.catalog),
            "n_users": spec.n_users,
            "n_interactions": len(data.interactions),
            "suggested_split_time": default_split_time(data.interactions),
        }
    )
    return 0


def _cmd_prepare(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    events = load_interactions(args.interactions, catalog)
    split_time = args.split_time
    if split_time is None:
        split_time = default_split_time(events, args.split_frac)
    split = chronological_split(events, split_time)
    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.tsv")
    test_path = os.path.join(args.out_dir, "test.tsv")
    save_interactions(split.train_interactions, catalog, train_path)
    save_interactions(split.test_interactions, catalog, test_path)
    _emit(
        {
            "train": train_path,
            "test": test_path,
            "split_time": split_time,
            "n_train": len(split.train_interactions),
            "n_test": len(split.test_interactions),
            "n_users_with_history": len(split.behavior_histories),
        }
    )
    return 0


def _cmd_mine_sessions(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    catalog = load_catalog(args.catalog)
    events = load_interactions(args.train, catalog)
    split = assemble_split(events, [], behavior_window=1)
    sessions = segment_sessions(split, config.session_window)
    table = build_cooccurrence(sessions, len(catalog), config.k_session)
    dump_cooccurrence(table, catalog, args.out)
    _emit(
        {
            "out": args.out,
            "n_sessions": len(sessions),
            "n_pairs": len(table.counts),
            "n_items_with_neighbors": int((table.indptr[1:] > table.indptr[:-1]).sum()),
        }
    )
    return 0


def _cmd_mine_semantic(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    catalog = load_catalog(args.catalog)
    pool = mine_semantic_pool(catalog, config.semantic_source, config.k_semantic, config.seed)
    dump_semantic_pool(pool, catalog, args.out)
    nonempty = sum(1 for p in pool.positives if p.size)
    _emit({"out": args.out, "source": pool.source, "n_items_with_positives": nonempty})
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    catalog = load_catalog(args.catalog)
    events = load_interactions(args.train, catalog)
    profiles = load_profiles(args.profiles) if args.profiles else None
    split = assemble_split(events, [], behavior_window=config.behavior_window)
    _log("mining contrastive artifacts")
    pool, sampler, table = mine_artifacts(config, split, catalog)
    _log(f"training for {config.epochs} epochs on {len(events)} clicks")
    params, report = train(config, split, catalog, profiles, pool, sampler, table)
    save_checkpoint(params, args.checkpoint, config.to_dict())
    if args.report:
        write_lines(args.report, (json.dumps(e, sort_keys=True) for e in report.epochs))
    _emit({"checkpoint": args.checkpoint, "report": args.report, "final": report.final()})
    return 0


def _parse_ns(text: str) -> tuple[int, ...]:
    ns = []
    for entry in text.split(","):
        try:
            ns.append(int(entry))
        except ValueError:
            raise ValueError(f"--n expects comma-separated integers, got {entry!r} in {text!r}") from None
    return tuple(ns)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ns = _parse_ns(args.n)
    catalog = load_catalog(args.catalog)
    profiles = load_profiles(args.profiles) if args.profiles else None
    params, saved_config = load_checkpoint(args.checkpoint)
    check_shapes(params, build_meta(catalog, profiles, params.meta.dims), args.checkpoint)
    train_events = load_interactions(args.train, catalog)
    test_events = load_interactions(args.test, catalog)
    split = assemble_split(train_events, test_events, params.meta.dims.behavior_window)
    similarity = args.similarity or (saved_config.get("similarity", "dot") if saved_config else "dot")
    enc = EncodedCatalog(catalog, params.meta)
    prof_enc = EncodedProfiles(profiles, params.meta)
    report = evaluate(params, enc, prof_enc, split, ns, similarity)
    _emit(report.to_dict())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    params, _ = load_checkpoint(args.checkpoint)
    # export reads no profile table, so the user side is the checkpoint's own
    expected = build_meta(catalog, None, params.meta.dims)
    expected.user_field_names, expected.user_field_vocabs = params.meta.user_field_names, params.meta.user_field_vocabs
    check_shapes(params, expected, args.checkpoint)
    enc = EncodedCatalog(catalog, params.meta)
    export_embeddings(params, enc, catalog, args.out)
    _emit({"out": args.out, "n_items": len(catalog)})
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    errors = gradcheck_suite()
    worst = max(errors.values())
    payload = {f"max_rel_err_{name}": err for name, err in errors.items()}
    payload["max_rel_err"] = worst
    payload["threshold"] = DEFAULT_THRESHOLD
    payload["pass"] = bool(worst < DEFAULT_THRESHOLD)
    _emit(payload)
    return 0 if payload["pass"] else 1


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="itemcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--users", type=int, default=SyntheticSpec.n_users)
    p.add_argument("--items", type=int, default=SyntheticSpec.n_items)
    p.add_argument("--clusters", type=int, default=SyntheticSpec.n_clusters)
    p.add_argument("--interactions", type=int, default=SyntheticSpec.n_interactions)
    p.add_argument("--motif-rate", type=float, default=SyntheticSpec.motif_rate)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("prepare", help="chronological train/test split")
    p.add_argument("--catalog", required=True)
    p.add_argument("--interactions", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--split-time", type=int, default=None)
    p.add_argument("--split-frac", type=float, default=TRAIN_FRACTION)
    p.set_defaults(handler=_cmd_prepare)

    p = sub.add_parser("mine-sessions", help="build the co-occurrence dump")
    p.add_argument("--catalog", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_mine_sessions)

    p = sub.add_parser("mine-semantic", help="build the semantic positive pool dump")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", dest="train.seed", type=int, help="set train.seed")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_mine_semantic)

    p = sub.add_parser("train", help="train a checkpoint")
    p.add_argument("--catalog", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--profiles")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report")
    p.add_argument("--seed", dest="train.seed", type=int, help="set train.seed")
    p.add_argument("--epochs", dest="train.epochs", type=int, help="set train.epochs")
    p.add_argument("--batch-size", dest="train.batch_size", type=int, help="set train.batch_size")
    p.add_argument("--no-fea", dest="loss.lambda1", action="store_const", const=0, help="ablate the feature-level task: set loss.lambda1 to 0")
    p.add_argument("--no-sem", dest="loss.lambda2", action="store_const", const=0, help="ablate the semantic-level task: set loss.lambda2 to 0")
    p.add_argument("--no-sess", dest="loss.lambda3", action="store_const", const=0, help="ablate the session-level task: set loss.lambda3 to 0")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="HIT@N and coverage on a test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--profiles")
    p.add_argument("--n", default=",".join(map(str, DEFAULT_NS)))
    p.add_argument("--similarity", choices=SIMILARITIES)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("export", help="write item embeddings as TSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("gradcheck", help="criterion 1: finite-difference gradient verification")
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # surface a one-line machine-parseable error
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
