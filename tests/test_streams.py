import numpy as np
import pytest

from bellcheck.streams import BLOCK_SIZE, iter_blocks, trial_stream, validate_seed


def test_same_key_same_stream():
    a = trial_stream(42, 2, 5).random(16)
    b = trial_stream(42, 2, 5).random(16)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_streams():
    draws = {
        key: tuple(trial_stream(*key).integers(0, 2**32, size=4))
        for key in [(1, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    }
    assert len(set(draws.values())) == len(draws)


def test_iter_blocks_covers_range():
    for n in (1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 17):
        spans = list(iter_blocks(n))
        assert spans[0][1] == 0
        assert spans[-1][2] == n
        for (b0, _, stop), (b1, start, _) in zip(spans, spans[1:]):
            assert b1 == b0 + 1
            assert start == stop
        assert all(stop - start <= BLOCK_SIZE for _, start, stop in spans)


def test_seed_validation():
    assert validate_seed(0) == 0
    assert validate_seed(2**64 - 1) == 2**64 - 1
    with pytest.raises(ValueError):
        validate_seed(-1)
    with pytest.raises(ValueError):
        validate_seed(2**64)
    with pytest.raises(ValueError):
        validate_seed(1.5)
    with pytest.raises(ValueError):
        validate_seed(True)
