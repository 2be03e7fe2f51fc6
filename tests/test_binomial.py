import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from math import comb

import pytest

from hankelforge import binomial


def test_rows_match_comb():
    for n in range(60):
        assert binomial.row(n) == tuple(comb(n, k) for k in range(n + 1))


def test_binom_outside_range_is_zero():
    assert binomial.binom(5, -1) == 0
    assert binomial.binom(5, 6) == 0
    assert binomial.binom(-1, 0) == 0


def test_binom_matches_comb_spot_checks():
    for n, k in ((0, 0), (10, 4), (100, 37), (513, 200), (2000, 3)):
        assert binomial.binom(n, k) == comb(n, k)


def test_row_above_old_cap():
    # 1024 was the largest row the removed process-wide cache kept.
    n = 1031
    row = binomial.row(n)
    assert row[0] == row[-1] == 1
    assert row[3] == comb(n, 3)
    assert row[n // 2] == comb(n, n // 2)
    assert len(row) == n + 1


def test_rows_walk_matches_row():
    walked = list(binomial.rows(70))
    assert walked == [binomial.row(n) for n in range(70)]
    assert list(binomial.rows(0)) == []


def test_negative_row_rejected():
    with pytest.raises(ValueError):
        binomial.row(-1)


def test_cache_env_value_is_ignored():
    # The row cache and its size knob are gone; a stale or malformed value
    # left in the environment must not break the import.
    env = dict(os.environ, HF_BINOM_CACHE_MAX="abc")
    out = subprocess.run(
        [sys.executable, "-c", "from hankelforge import binomial; print(binomial.binom(100, 3))"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert int(out.stdout) == comb(100, 3)


def test_concurrent_readers_see_consistent_rows():
    with ThreadPoolExecutor(max_workers=8) as pool:
        rows = list(pool.map(binomial.row, list(range(200, 260)) * 4))
    for n, row in zip(list(range(200, 260)) * 4, rows):
        assert row[0] == row[-1] == 1
        assert len(row) == n + 1
        assert row[2] == n * (n - 1) // 2
