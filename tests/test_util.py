"""The process heap policy that importing itemcl sets (``util.keep_freed_heap``)."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from itemcl import util

SRC = Path(util.__file__).resolve().parent.parent

# Allocate and free three 24 MiB arrays, three times, and print each
# round's minor page faults. numpy is imported first on both sides, so
# the only difference between them is the import of itemcl.
FAULT_ROUNDS = """
import json, resource, sys
import numpy as np
if sys.argv[1] == "itemcl":
    import itemcl
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(3 << 20) for _ in range(3)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def fault_rounds(mode: str) -> list[int]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FAULT_ROUNDS, mode], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and util._is_glibc()), reason="the heap policy applies to glibc on Linux"
)
def test_freed_arrays_are_reused_without_faulting_again():
    control = fault_rounds("numpy")
    if min(control[1:]) < 0.5 * control[0]:
        pytest.skip(f"freed memory is reused here without itemcl too (faults per round {control})")
    with_itemcl = fault_rounds("itemcl")
    assert max(with_itemcl[1:]) < 0.05 * with_itemcl[0], (
        f"faults per round: {with_itemcl} with itemcl, {control} without"
    )


def test_does_nothing_off_glibc(monkeypatch):
    def no_libc(*args, **kwargs):
        raise AssertionError("mallopt must not be looked up off glibc")

    monkeypatch.setattr(util, "_is_glibc", lambda: False)
    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert util.keep_freed_heap() is False
