#!/usr/bin/env python3
"""Train the joint objective on a small dataset and verify the analytic
gradients against central finite differences."""

from itemcl import SyntheticSpec, TrainConfig, chronological_split, default_split_time, generate
from itemcl.gradcheck import gradcheck_suite
from itemcl.training import mine_artifacts, train

print("== finite-difference gradient verification (tiny fixture) ==")
for name, err in gradcheck_suite().items():
    print(f"  {name:<9} max relative error = {err:.2e}")

print("\n== joint training on a small synthetic dataset ==")
spec = SyntheticSpec(n_users=150, n_items=120, n_clusters=10, n_interactions=9000, seed=1)
data = generate(spec)
split = chronological_split(data.interactions, default_split_time(data.interactions), 20)

config = TrainConfig(
    epochs=4,
    batch_size=1024,
    learning_rate=0.01,
    seed=0,
    negatives=20,
    # desk-size model so the demo runs in seconds
    d_field=8, hidden1=16, hidden2=8, d_out=8, ffn_dim=8, d_proj=8,
    behavior_window=10, k_session=5, k_semantic=5,
)
pool, sampler, table = mine_artifacts(config, split, data.catalog)
params, report = train(config, split, data.catalog, data.profiles, pool, sampler, table)

print(f"{'epoch':>5} {'matching':>10} {'feature':>9} {'semantic':>9} {'session':>9} {'joint':>10} {'sec':>5}")
for e in report.epochs:
    print(
        f"{e['epoch']:>5} {e['loss_matching']:>10.1f} {e['loss_feature']:>9.1f} "
        f"{e['loss_semantic']:>9.1f} {e['loss_session']:>9.1f} {e['loss_joint']:>10.1f} {e['seconds']:>5.1f}"
    )
print(f"parameter norm after training: {report.epochs[-1]['param_norm']:.2f}")
