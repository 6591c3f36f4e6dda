"""Stdout does not depend on the hash seed: the determinism table of
`tests/hashseed.py`, run in two interpreters with string-hash seeds 0 and 1."""

import os
import subprocess
import sys
from pathlib import Path

import hashseed

ROOT = Path(__file__).resolve().parents[1]


def _table(seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "hashseed.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _fixtures(pattern):
    return len(list((ROOT / "fixtures").glob(pattern)))


def test_table_output_does_not_depend_on_the_hash_seed():
    zero, one = _table("0"), _table("1")
    expected = sum(
        _fixtures(pattern) * (len(commands) + len(notions))
        for pattern, (commands, _, notions) in hashseed.KINDS.items()
    )
    assert zero.count("\n-- exit ") == expected
    assert zero.count("\n== couplings ") == sum(map(_fixtures, hashseed.COUPLINGS))
    assert zero.splitlines() == one.splitlines()
