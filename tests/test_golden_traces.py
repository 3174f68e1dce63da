"""Golden chaos traces: the simulated timeline must not drift between
commits.

CI's determinism step re-runs one seed twice on the same commit, which
catches nondeterminism but not a change that moves every run the same
way.  These tests regenerate two traces and diff them against copies
committed under ``tests/golden/``:

* ``harness_seed42.txt`` — eager restart, eager restore, with
  simulated timestamps on every line::

      PYTHONPATH=src python -m repro.sim.harness --seed 42 \\
          > tests/golden/harness_seed42.txt

* ``shard_harness_seed7.txt`` — the sharded harness::

      PYTHONPATH=src python -m repro.sim.shard_harness --seed 7 --trace \\
          > tests/golden/shard_harness_seed7.txt

A change that legitimately moves a trace regenerates the golden with
the command above, and CHANGES.md must say which golden moved and why.
The goldens were produced with CPython 3.11; the 3.12/3.13 CI legs are
expected to match but have not been verified locally.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("golden, argv", [
    ("harness_seed42.txt", ["repro.sim.harness", "--seed", "42"]),
    ("shard_harness_seed7.txt",
     ["repro.sim.shard_harness", "--seed", "7", "--trace"]),
])
def test_trace_matches_golden(golden, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr
    expected = (GOLDEN / golden).read_text()
    assert run.stdout == expected
