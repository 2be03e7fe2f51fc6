import os
import subprocess
import sys
from math import comb
from pathlib import Path

from hankelforge import binomial


def test_rows_match_comb():
    walked = list(binomial.rows(70))
    assert walked == [tuple(comb(n, k) for k in range(n + 1)) for n in range(70)]
    assert list(binomial.rows(0)) == []


def test_row_above_old_cap():
    # 1024 was the largest row the removed process-wide cache kept.
    n = 1031
    *_, row = binomial.rows(n + 1)
    assert row[0] == row[-1] == 1
    assert row[3] == comb(n, 3)
    assert row[n // 2] == comb(n, n // 2)
    assert len(row) == n + 1


def test_rows_walk_matches_row():
    # A shorter walk is a prefix of a longer one, and each row is Pascal's
    # rule applied to the one before.
    walked = list(binomial.rows(70))
    assert list(binomial.rows(40)) == walked[:40]
    for prev, cur in zip(walked, walked[1:]):
        assert cur == (1, *(prev[k - 1] + prev[k] for k in range(1, len(prev))), 1)
    assert list(binomial.rows(0)) == []


def test_cache_env_value_is_ignored():
    # The row cache and its size knob are gone; a stale or malformed value
    # left in the environment must not break the import.
    src = Path(binomial.__file__).resolve().parents[1]
    env = dict(os.environ, HF_BINOM_CACHE_MAX="abc", PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "from hankelforge import binomial; print(list(binomial.rows(101))[100][3])"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert int(out.stdout) == comb(100, 3)
