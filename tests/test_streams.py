import dataclasses

import numpy as np
import pytest

from bellcheck import engine
from bellcheck.core import PAIR_CODES, SETTING_PAIRS
from bellcheck.engine import VIOLATION_DELTA, chsh_report, count_experiment, exact_correlation_table, hoeffding_epsilon
from bellcheck.quantum import TSIRELSON_ANGLES, count_quantum_experiment, quantum_correlation_table
from bellcheck.streams import BLOCK_SIZE, check_block_count, draw_counts, iter_blocks, trial_stream, validate_seed
from bellcheck.zoo import get_model

#: Edge seeds (one and two uint32 words, both ends) plus random ones.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [
    int(s) for s in np.random.default_rng(2024).integers(0, 2**64, size=6, dtype=np.uint64)
]

#: Block indices up to the last one a series can reach.
FAR_BLOCKS = [0, 1, 2**16, 2**31, 2**32 - 2, 2**32 - 1]


def seed_sequence_key(seed, pair_code, block):
    """The (state, inc) numpy's own seeding gives a block's PCG64DXSM."""
    return key_of(np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(pair_code, block)))))


def key_of(rng):
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"]


def test_a_block_draws_from_pcg64dxsm():
    assert type(trial_stream(0, 1, 2).bit_generator) is np.random.PCG64DXSM


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


@pytest.mark.parametrize("n_blocks", [0, 1, 2**32])
def test_block_count_accepts_up_to_two_to_the_32(n_blocks):
    check_block_count(n_blocks)


@pytest.mark.parametrize("n_blocks", [-1, 2**32 + 1])
def test_block_count_rejects_block_indices_beyond_one_word(n_blocks):
    with pytest.raises(ValueError, match="n_per_series must be at most 70368744177664 \\(2\\*\\*32 blocks"):
        check_block_count(n_blocks)


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_up_to_the_last_block_index_are_distinct(seed):
    """The blocks a series reaches only after billions of blocks are keyed
    by numpy's own seeding, and no two (pair, block) cells share a stream."""
    firsts = set()
    for code in range(4):
        for block in FAR_BLOCKS:
            rng = trial_stream(seed, code, block)
            assert key_of(rng) == seed_sequence_key(seed, code, block), (code, block)
            firsts.add(tuple(rng.bit_generator.random_raw(2).tolist()))
    assert len(firsts) == 4 * len(FAR_BLOCKS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 7 * BLOCK_SIZE, 15 * BLOCK_SIZE + 1], ids=["1 block", "7 blocks", "16 blocks"])
def test_tag_path_keys_each_block_on_its_own_stream(seed, n):
    """``engine._series`` hands block j of a pair's series the fresh stream
    ``SeedSequence(seed, spawn_key=(pair_code, j))`` and the block's trial
    count, in block order."""
    got = engine._series(lambda pair, rng, count: (key_of(rng), count), list, n, seed)
    assert list(got) == list(SETTING_PAIRS)
    for pair, blocks in got.items():
        want = [(seed_sequence_key(seed, PAIR_CODES[pair], block), stop - start) for block, start, stop in iter_blocks(n)]
        assert blocks == want, pair


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 7 * BLOCK_SIZE, 15 * BLOCK_SIZE + 1], ids=["1 block", "7 blocks", "16 blocks"])
def test_trial_log_keys_each_block_on_its_own_stream(seed, n):
    """``run_experiment`` asks ``sample_lambda`` for block j of a pair's
    series on the fresh stream ``SeedSequence(seed, spawn_key=(pair_code, j))``
    and the block's trial count, in block order, and logs the tags it
    returns in that order."""
    model = get_model("dice-coin")
    calls = {pair: [] for pair in SETTING_PAIRS}
    tags = {pair: [] for pair in SETTING_PAIRS}

    def sample_lambda(rng, count, pair):
        calls[pair].append((key_of(rng), count))
        tags[pair].append(model.sample_lambda(rng, count, pair))
        return tags[pair][-1]

    log = engine.run_experiment(dataclasses.replace(model, sample_lambda=sample_lambda), n, seed)
    for pair in SETTING_PAIRS:
        want = [(seed_sequence_key(seed, PAIR_CODES[pair], block), stop - start) for block, start, stop in iter_blocks(n)]
        assert calls[pair] == want, pair
        assert np.array_equal(log.series[pair].lambdas, np.concatenate(tags[pair])), pair


#: Per-pair weights over 6 for ``draw_counts``: one outcome, two, two
#: among zeros, and more.
DRAW_NUMS = dict(zip(SETTING_PAIRS, [(0, 6, 0), (2, 4), (0, 1, 0, 5, 0), (1, 2, 0, 3)]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, BLOCK_SIZE + 1, BLOCK_SIZE << 32])
def test_draw_counts_is_one_multinomial_on_block_0(seed, n):
    """Each pair's counts sum to n, put nothing on a zero weight and equal
    one multinomial of n over the positive weights on block 0's stream of
    the pair; a sole outcome takes all n."""
    got = draw_counts((DRAW_NUMS, 6), n, seed)
    assert list(got) == list(SETTING_PAIRS)
    for pair, nums in DRAW_NUMS.items():
        counts = got[pair]
        support = [i for i, num in enumerate(nums) if num]
        want = np.zeros(len(nums), dtype=np.int64)
        if len(support) == 1:
            want[support] = n
        else:
            want[support] = trial_stream(seed, PAIR_CODES[pair], 0).multinomial(n, [nums[i] / 6 for i in support])
        assert counts.dtype == np.int64
        assert np.array_equal(counts, want), (pair, nums)
        assert counts.sum() == n


@pytest.mark.parametrize("name", ["dice-coin", "cosine-sign", "conspiracy", "quantum"])
def test_reports_leave_their_bands_at_most_at_the_stated_rate(name):
    """Over 1,000 seeds at n = 1000, each correlation falls outside its
    99% Hoeffding band for at most a delta share of the seeds, and a model
    with measurement independence reports a significant violation for at
    most a delta share."""
    n, seeds = 1000, range(1000)
    if name == "quantum":
        exact = quantum_correlation_table(TSIRELSON_ANGLES)
        reports = [chsh_report(count_quantum_experiment(TSIRELSON_ANGLES, n, seed)) for seed in seeds]
        mi = False
    else:
        model = get_model(name)
        exact = exact_correlation_table(model)
        reports = [chsh_report(count_experiment(model, n, seed)) for seed in seeds]
        mi = model.declares_mi
    band = hoeffding_epsilon(n)
    for pair in SETTING_PAIRS:
        outside = sum(abs(r.table.value(pair) - float(exact.value(pair))) > band for r in reports)
        assert outside <= VIOLATION_DELTA * len(reports), pair
    if mi:
        assert sum(r.violation_significant for r in reports) <= VIOLATION_DELTA * len(reports)
