"""The scripts under ``tools/`` stay in step with the source they read.

They run outside this suite (``tools/mutants.py`` takes about 30 s), so
only what they assume of ``src/`` is checked here, without running them.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_recorded_mutation_applies_exactly_once():
    # the condition mutated_copy enforces before it runs the suite: a
    # refactor that moves a recorded line must update the list
    mutations = load_tool("mutants").MUTATIONS
    assert mutations
    counts = {m.name: (ROOT / "src" / m.path).read_text(encoding="utf-8").count(m.old) for m in mutations}
    assert counts == dict.fromkeys(counts, 1)
