import dataclasses

import numpy as np
import pytest

from bellcheck import engine, streams
from bellcheck.core import PAIR_CODES, SETTING_PAIRS
from bellcheck.engine import VIOLATION_DELTA, chsh_report, count_experiment, exact_correlation_table, hoeffding_epsilon
from bellcheck.quantum import TSIRELSON_ANGLES, AnglePair, count_quantum_experiment, quantum_correlation_table
from bellcheck.streams import BLOCK_SIZE, check_run, draw_counts, iter_blocks, trial_stream, validate_seed
from bellcheck.zoo import get_model
from trial_reference import DRAW_SEEDS

#: Edge seeds (one and two uint32 words, both ends) plus random ones.
RANDOM_SEEDS = [int(s) for s in np.random.default_rng(2024).integers(0, 2**64, size=6, dtype=np.uint64)]
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + RANDOM_SEEDS

#: Block indices up to the last one a series can reach.
FAR_BLOCKS = [0, 1, 2**16, 2**31, 2**32 - 2, 2**32 - 1]


def seed_sequence_key(seed, pair_code, block):
    """The (state, inc) numpy's own seeding gives a block's PCG64DXSM."""
    return key_of(np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(pair_code, block)))))


def key_of(rng):
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"]


@pytest.mark.parametrize("seed", SEEDS)
def test_pooled_keys_are_block_0s_trial_stream(seed):
    """The count path mixes each pair's key into one ``SeedSequence(seed).pool``
    per run; every such generator must be ``trial_stream(seed, code, 0)``'s,
    in state and in its first raw words, and an np.uint64 seed's pool must
    be its int's."""
    pool = np.random.SeedSequence(seed).pool.tolist()
    assert np.random.SeedSequence(np.uint64(seed)).pool.tolist() == pool
    for code in range(4):
        got, want = streams._pool_stream(pool, code), trial_stream(seed, code, 0)
        assert type(got.bit_generator) is np.random.PCG64DXSM
        assert got.bit_generator.state == want.bit_generator.state, code
        assert got.bit_generator.random_raw(8).tolist() == want.bit_generator.random_raw(8).tolist(), code
    assert draw_counts((DRAW_NUMS, 6), 1000, np.uint64(seed)) == draw_counts((DRAW_NUMS, 6), 1000, seed)


def test_count_runs_equal_the_trial_stream_route(monkeypatch):
    """Binomial, multinomial and singlet runs give the counts of block 0's
    ``trial_stream`` in place of the pooled keys."""
    runs = {
        "dice-coin": lambda seed: count_experiment(get_model("dice-coin"), 49159, seed).classes,
        "cosine-sign": lambda seed: count_experiment(get_model("cosine-sign"), 49159, seed).classes,
        "tsirelson": lambda seed: count_quantum_experiment(TSIRELSON_ANGLES, 49159, seed).agree,
        "custom": lambda seed: count_quantum_experiment(AnglePair(0.3, 1.9, -0.8, 2.6), 49159, seed).agree,
    }
    pooled = {(name, seed): run(seed) for name, run in runs.items() for seed in DRAW_SEEDS}
    for seed in DRAW_SEEDS:
        keyed = []

        def reference(pool, code, seed=seed):
            keyed.append(code)
            return trial_stream(seed, code, 0)

        monkeypatch.setattr(streams, "_pool_stream", reference)
        for name, run in runs.items():
            assert run(seed) == pooled[name, seed], (name, seed)
        assert keyed == list(range(4)) * len(runs), seed


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


@pytest.mark.parametrize("n_blocks", [1, 2**32])
def test_run_check_accepts_up_to_two_to_the_32_blocks(n_blocks):
    for n in (BLOCK_SIZE * (n_blocks - 1) + 1, BLOCK_SIZE * n_blocks):
        assert check_run(n, 7) == (n, 7)


@pytest.mark.parametrize("n_blocks", [2**32 + 1, 2**33])
def test_run_check_rejects_block_indices_beyond_one_word(n_blocks):
    for n in (BLOCK_SIZE * (n_blocks - 1) + 1, BLOCK_SIZE * n_blocks):
        with pytest.raises(ValueError) as info:
            check_run(n, 7)
        assert str(info.value) == (
            f"n_per_series must be at most 70368744177664 (2**32 blocks of 16384 trials), got {n_blocks} blocks"
        )


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
    """``engine._tag_blocks`` asks ``sample_lambda`` for block j of a pair's
    series on the fresh stream ``SeedSequence(seed, spawn_key=(pair_code, j))``
    and the block's trial count, and yields each block's bounds with the
    tags it returned, in block order."""
    model = get_model("dice-coin")
    for pair in SETTING_PAIRS:
        calls, drawn = [], []

        def sample_lambda(rng, count, asked):
            calls.append((key_of(rng), count, asked))
            drawn.append(model.sample_lambda(rng, count, asked))
            return drawn[-1]

        got = list(engine._tag_blocks(dataclasses.replace(model, sample_lambda=sample_lambda), pair, n, seed))
        blocks = list(iter_blocks(n))
        assert calls == [(seed_sequence_key(seed, PAIR_CODES[pair], j), stop - start, pair) for j, start, stop in blocks]
        assert [(start, stop) for start, stop, _ in got] == [(start, stop) for _, start, stop in blocks], pair
        assert all(tags is returned for (_, _, tags), returned in zip(got, drawn, strict=True)), pair


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
        assert type(counts) is tuple and all(type(k) is int for k in counts)
        assert counts == tuple(want.tolist()), (pair, nums)
        assert sum(counts) == n


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
