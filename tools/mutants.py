"""Re-run the recorded backward-pass mutations against criterion 1.

Usage::

    python tools/mutants.py SRC_ROOT

``SRC_ROOT`` is the directory holding the ``itemcl`` package (``src`` in a
checkout). Each mutation below is one exact text replacement in one file
of the package. It is applied to a temporary copy of ``SRC_ROOT``, never
to ``SRC_ROOT`` itself, and ``itemcl.gradcheck.gradcheck_suite`` runs on
that copy in a fresh process (about 3 s each, one BLAS thread). The
unmutated copy runs first as the control.

For each run the tool prints every closure's maximum relative error and
whether criterion 1 (every error below ``DEFAULT_THRESHOLD``, 1e-5) caught
the mutation. It exits nonzero if the control fails criterion 1, if a
mutation's text is not found exactly once (the source moved on: update the
list), or if a mutation recorded as caught escapes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass


@dataclass(frozen=True)
class Mutation:
    name: str
    path: str  # relative to SRC_ROOT
    old: str
    new: str
    caught: bool  # what criterion 1 did when the mutation was recorded
    note: str


MODEL = os.path.join("itemcl", "model.py")
LOSSES = os.path.join("itemcl", "losses.py")

MUTATIONS = (
    Mutation(
        "fold: drop the bf2 * g_bias term of the user_tower.W0 gradient",
        MODEL,
        'a["attn.Wf2"].T @ g_fold + a["attn.bf2"][:, None] * g_bias[:, None, :]',
        'a["attn.Wf2"].T @ g_fold',
        True,
        "matching and joint errors about 0.636 when recorded",
    ),
    Mutation(
        "fold: drop the attn.bf2 gradient",
        MODEL,
        '    grads["attn.bf2"] += np.tensordot(w0_slots, g_bias, axes=([0, 2], [0, 1]))\n',
        "",
        True,
        "matching and joint errors about 1.0 when recorded",
    ),
    Mutation(
        "augmented view: drop the zero mask in embed_items_augmented_backward",
        MODEL,
        "np.where(trace.zero_mask, 0.0, grad_out)",
        "grad_out",
        True,
        "feature and joint errors about 1.84 and 1.85 when recorded",
    ),
    Mutation(
        "attention: drop the attn.Wq gradient",
        MODEL,
        '    grads["attn.Wq"] += attn.x.T @ g_q\n',
        "",
        True,
        "matching and joint errors about 1.0 when recorded",
    ),
    Mutation(
        "attention: drop the attn.bq gradient",
        MODEL,
        '    grads["attn.bq"] += g_q.sum(axis=0)\n',
        "",
        True,
        "matching and joint errors about 1.0 when recorded",
    ),
    Mutation(
        "attention: drop the attn.Wk gradient",
        MODEL,
        '    grads["attn.Wk"] += attn.x.T @ g_k\n',
        "",
        True,
        "matching and joint errors about 1.0 when recorded",
    ),
    Mutation(
        "attention: drop the g_q term of g_x",
        MODEL,
        'g_x = g_q @ a["attn.Wq"].T + g_k',
        "g_x = g_k",
        True,
        "matching and joint errors about 0.042 and 1.3e-3 when recorded",
    ),
    Mutation(
        "attention: drop the g_k term of g_x",
        MODEL,
        '+ g_k @ a["attn.Wk"].T + g_v',
        "+ g_v",
        True,
        "matching and joint errors about 0.078 and 4.8e-4 when recorded",
    ),
    Mutation(
        "joint: drop the weighted add of each contrastive task's value",
        LOSSES,
        "            total += weight * components[name]\n",
        "",
        True,
        "joint error about 1.31 when recorded",
    ),
)

_RUN_SUITE = """
import json
from itemcl.gradcheck import DEFAULT_THRESHOLD, gradcheck_suite
print(json.dumps({"threshold": DEFAULT_THRESHOLD, "errors": gradcheck_suite()}))
"""


def run_suite(src_root: str) -> dict:
    """``gradcheck_suite()`` of the package under ``src_root``, run in a
    fresh process: the closures' errors and the criterion-1 threshold."""
    env = dict(os.environ, PYTHONPATH=src_root, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _RUN_SUITE], env=env, capture_output=True, text=True, check=False
    )
    if done.returncode:
        raise RuntimeError(done.stderr.strip().splitlines()[-1] if done.stderr.strip() else "no output")
    return json.loads(done.stdout)


def mutated_copy(src_root: str, workdir: str, mutation: Mutation | None) -> str:
    """A copy of ``src_root`` under ``workdir`` with ``mutation`` applied;
    raises ``ValueError`` unless its text occurs exactly once."""
    copy = os.path.join(workdir, "src")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(src_root, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutation is not None:
        target = os.path.join(copy, mutation.path)
        with open(target, encoding="utf-8") as handle:
            text = handle.read()
        if text.count(mutation.old) != 1:
            raise ValueError(f"found {text.count(mutation.old)} times in {mutation.path}, not once")
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text.replace(mutation.old, mutation.new))
    return copy


def report(label: str, result: dict) -> bool:
    """Print one run's errors; whether criterion 1 failed it."""
    errors = result["errors"]
    failed = max(errors.values()) >= result["threshold"]
    print(f"{label}: criterion 1 {'FAILS' if failed else 'passes'}")
    for name, err in errors.items():
        print(f"    {name:9s} {err:.3e}")
    return failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/mutants.py SRC_ROOT", file=sys.stderr)
        return 2
    src_root = os.path.abspath(argv[1])
    problems = []
    with tempfile.TemporaryDirectory() as workdir:
        if report("control (no mutation)", run_suite(mutated_copy(src_root, workdir, None))):
            problems.append("the unmutated source fails criterion 1")
        for mutation in MUTATIONS:
            try:
                copy = mutated_copy(src_root, workdir, mutation)
            except ValueError as exc:
                print(f"{mutation.name}: NOT APPLIED, mutation text {exc}")
                problems.append(f"{mutation.name}: not applied")
                continue
            caught = report(mutation.name, run_suite(copy))
            print(f"    recorded {'caught' if mutation.caught else 'escaped'}; {mutation.note}")
            if mutation.caught and not caught:
                problems.append(f"{mutation.name}: escaped criterion 1")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
