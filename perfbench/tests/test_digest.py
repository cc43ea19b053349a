"""The routing-state digest is canonical and sensitive to routing changes."""

import os
import subprocess
import sys

from conftest import ROOT

SCRIPT = """
import sys
sys.path[:0] = [%r, %r]
from repro import run_experiment, small_internet
from perfbench.digest import lab_digest
import tempfile
print(lab_digest(run_experiment(small_internet(), output_dir=tempfile.mkdtemp()).lab))
""" % (ROOT, os.path.join(ROOT, "src"))


def _digest_with_hash_seed(seed: str, tmp_path) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, TMPDIR=str(tmp_path))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True,
    )
    return completed.stdout.strip().splitlines()[-1]


def test_digest_is_independent_of_hash_seed(tmp_path):
    digests = {_digest_with_hash_seed(seed, tmp_path) for seed in ("0", "1", "4242")}
    assert len(digests) == 1
    assert len(digests.pop()) == 64


def test_digest_moves_with_routing_and_returns_after_repair(tmp_path):
    from repro import run_experiment, small_internet

    from perfbench.digest import lab_digest

    lab = run_experiment(small_internet(), output_dir=str(tmp_path)).lab
    booted = lab_digest(lab)
    lab.link_down("as100r1", "as100r2")
    assert lab_digest(lab) != booted
    lab.link_up("as100r1", "as100r2")
    assert lab_digest(lab) == booted
