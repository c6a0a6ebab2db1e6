"""Rerun identity of every artifact of the CLI, in both precisions.

``tools/artifact_digests.py`` trains every approach under both protocols,
evaluates every checkpoint, augments a PGM tree, trains recipes with an
``[augment]`` section, compares the merge modes, trains on a stereo matrix
fixture and on a PGM face tree, cross-validates under ``--seed``, stops a
run early and prints the digest of each file it wrote.
Two runs from the same source must print the same thing.  No digest is
pinned: a trained artifact's bytes may depend on the BLAS build and the
CPU.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artifact_digests.py"
# gen-synthetic, then train and two evals per approach and protocol, then
# two augments, two augmented trains, compare-merging, a stereo train,
# crossval, a face-tree train and an early-stopped train
RUNS = 28


def digests(out, *precision):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(TOOL), str(out), *precision], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return done.stdout


def checkpoint_digests(stdout):
    return {line.split()[1]: line.split()[0]
            for line in stdout.splitlines() if line.endswith("model.ckpt")}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two runs each in float64 (the tool's default) and float32."""
    tmp = tmp_path_factory.mktemp("digests")
    return {name: [digests(tmp / f"{name}-{i}", *precision) for i in range(2)]
            for name, precision in (("float64", ()), ("float32", ("float32",)))}


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_rerun_prints_the_same_digests(runs, precision):
    first, second = runs[precision]
    assert first == second
    assert first.count("\nexit 0\n") == RUNS


def test_float32_changes_every_checkpoint(runs):
    wide, narrow = (checkpoint_digests(runs[p][0]) for p in ("float64", "float32"))
    assert len(wide) == 18 and wide.keys() == narrow.keys()
    assert all(wide[path] != narrow[path] for path in wide)
