import time
import tracemalloc

import numpy as np
import pytest

from bellcheck import streams
from bellcheck.core import SETTING_PAIRS
from bellcheck.engine import VIOLATION_DELTA, chsh_report, count_experiment, exact_correlation_table, hoeffding_epsilon
from bellcheck.quantum import TSIRELSON_ANGLES, count_quantum_experiment, quantum_correlation_table
from bellcheck.streams import BLOCK_SIZE, iter_blocks, series_streams, trial_stream, validate_seed
from bellcheck.zoo import get_model

#: Edge seeds (one and two uint32 words, both ends) plus random ones.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [
    int(s) for s in np.random.default_rng(2024).integers(0, 2**64, size=6, dtype=np.uint64)
]


#: Seed words (s0, s1, i0, i1) that take each carry of the 128-bit PCG64DXSM
#: seeding in uint64 lanes: s1 + inc_lo wraps (inc_lo = 1), state_lo wraps
#: (inc_lo = 2**64 - 1), i1's top bit moves into inc_hi, and all at once.
CARRY_WORDS = np.array(
    [(0, 2**64 - 1, 0, 0), (5, 3, 0, 2**63 - 1), (0, 0, 0, 2**63), (2**64 - 1,) * 4, (0,) * 4], dtype=np.uint64
)

#: Block indices up to the last one a series can reach.
FAR_BLOCKS = np.array([0, 2**16, 2**31, 2**32 - 2, 2**32 - 1], dtype=np.uint32)

MASK_64, MASK_128 = (1 << 64) - 1, (1 << 128) - 1


def pcg_state(s0, s1, i0, i1):
    """The reference for ``streams._pcg_keys``: the (state, inc) that
    numpy's PCG64DXSM seeding gives the seed words (s0, s1, i0, i1), in
    Python ints. initstate = s0 * 2**64 + s1 and initseq = i0 * 2**64 + i1,
    then inc = 2 * initseq + 1 and two LCG steps around adding initstate,
    all modulo 2**128."""
    inc = (i0 << 65 | i1 << 1 | 1) & MASK_128
    return ((inc + (s0 << 64 | s1)) * streams._PCG_MULT + inc) & MASK_128, inc


def carries(s0, s1, i0, i1):
    """The carries that ``_pcg_keys`` takes on these seed words."""
    inc_lo = (i1 << 1 | 1) & MASK_64
    t = (pcg_state(s0, s1, i0, i1)[1] + (s0 << 64 | s1)) & MASK_128
    return s1 + inc_lo > MASK_64, (t * streams._PCG_MULT & MASK_64) + inc_lo > MASK_64, i1 >> 63 == 1


class SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands numpy's own PCG64DXSM seeding four given uint64 seed words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return self.words.copy()


@pytest.fixture(params=["in place", "setter"])
def rekey(request, monkeypatch):
    """Each re-key path of ``series_streams``: the setter path is forced by
    a layout check that reports a mismatch."""
    if request.param == "setter":
        monkeypatch.setattr(streams, "_state_views", lambda bit_gen: None)
    return request.param


def seed_sequence_key(seed, pair_code, block):
    """The (state, inc) numpy's own seeding gives a block's PCG64DXSM."""
    return key_of(np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(pair_code, block)))))


def key_of(rng):
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"]


def test_a_block_draws_from_pcg64dxsm():
    assert type(trial_stream(0, 1, 2).bit_generator) is np.random.PCG64DXSM
    assert type(next(series_streams(0, 1, 1)).bit_generator) is np.random.PCG64DXSM


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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_blocks", [1, 7, 16])
def test_series_keys_match_seed_sequence(seed, n_blocks, rekey, monkeypatch):
    # a chunk of 7 blocks: 16 blocks cross two chunk boundaries and end on
    # a partial chunk
    monkeypatch.setattr(streams, "_KEY_CHUNK", 7)
    for pair_code in range(4):
        keys = [key_of(rng) for rng in series_streams(seed, pair_code, n_blocks)]
        assert len(keys) == n_blocks
        for block, key in enumerate(keys):
            assert key == seed_sequence_key(seed, pair_code, block), (seed, pair_code, block)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_series_keys_across_a_full_chunk(seed, rekey):
    n_blocks = streams._KEY_CHUNK + 37
    checked = {0, 1, streams._KEY_CHUNK - 1, streams._KEY_CHUNK, streams._KEY_CHUNK + 1, n_blocks - 1}
    for pair_code in range(4):
        seen = 0
        for block, rng in enumerate(series_streams(seed, pair_code, n_blocks)):
            if block in checked:
                assert key_of(rng) == seed_sequence_key(seed, pair_code, block)
            seen += 1
        assert seen == n_blocks


@pytest.mark.parametrize("seed", SEEDS + ["carries"])
def test_block_keys_up_to_the_last_one_word_index(seed, rekey, monkeypatch):
    """The seed words, the PCG64DXSM keys and the draws of blocks that a
    series reaches only after billions of blocks, and of seed words that
    take each carry of the keys' 128-bit arithmetic."""
    if seed == "carries":
        assert all(map(any, zip(*(carries(*w) for w in CARRY_WORDS.tolist()))))
        cases = [(CARRY_WORDS, [np.random.Generator(np.random.PCG64DXSM(SeedWords(w))) for w in CARRY_WORDS])]
    else:
        cases = []
        for pair_code in range(4):
            words = streams._block_keys(np.random.SeedSequence(seed, spawn_key=(pair_code,)).pool, FAR_BLOCKS)
            blocks = FAR_BLOCKS.tolist()
            want = [np.random.SeedSequence(seed, spawn_key=(pair_code, b)).generate_state(4, np.uint64) for b in blocks]
            assert np.array_equal(words, want)
            cases.append((words, [trial_stream(seed, pair_code, b) for b in blocks]))
    for words, fresh in cases:
        for w, key, rng in zip(words.tolist(), streams._pcg_keys(words).tolist(), fresh):
            state, inc = pcg_state(*w)
            assert key == [state & MASK_64, state >> 64, inc & MASK_64, inc >> 64]
            assert (state, inc) == key_of(rng)
        # a series whose block j takes row j of these words
        monkeypatch.setattr(streams, "_block_keys", lambda pool, blocks: words[blocks])
        for got, want in zip(series_streams(0, 0, len(words)), fresh, strict=True):
            assert np.array_equal(got.bit_generator.random_raw(8), want.bit_generator.random_raw(8))


def test_rekeyed_generator_leaks_no_buffered_half_word(rekey):
    seed, pair_code = 2**40 + 3, 2
    for block, rng in enumerate(series_streams(seed, pair_code, 5)):
        fresh = trial_stream(seed, pair_code, block)
        assert np.array_equal(rng.integers(0, 1000, 5, dtype=np.uint32), fresh.integers(0, 1000, 5, dtype=np.uint32))
        assert rng.bit_generator.state["has_uint32"] == 1  # half a word is buffered
        assert np.array_equal(rng.random(4), fresh.random(4))
        assert np.array_equal(rng.bit_generator.random_raw(3), fresh.bit_generator.random_raw(3))
        assert np.array_equal(rng.integers(0, 7, 3, dtype=np.uint32), fresh.integers(0, 7, 3, dtype=np.uint32))


def test_layout_check_accepts_the_getters_words():
    bit_gen = np.random.PCG64DXSM(3)
    words, half_word = streams._state_views(bit_gen)
    assert bit_gen.state["has_uint32"] == 1  # the check buffered a half word
    words[...] = [1, 2, 3, 4]
    half_word.value = 0
    assert bit_gen.state == {
        "bit_generator": "PCG64DXSM", "state": {"state": 2 << 64 | 1, "inc": 4 << 64 | 3}, "has_uint32": 0, "uinteger": 0
    }


def high_word_first(state):
    state["state"] = {name: (value & MASK_64) << 64 | value >> 64 for name, value in state["state"].items()}
    return state


def other_half_word(state):
    state["uinteger"] ^= 1
    return state


@pytest.mark.parametrize("distort", [high_word_first, other_half_word])
def test_layout_check_refuses_another_layout(distort):
    """A getter that reports the state through ``distort`` stands for a
    layout the in-place write would misread: a build without __uint128_t
    keeps each 128-bit value as (hi, lo)."""

    class Distorted(np.random.PCG64DXSM):
        @property
        def state(self):
            return distort(super().state)

    assert streams._state_views(Distorted(3)) is None


def test_first_stream_of_a_huge_series_keys_one_chunk():
    def first_stream_peak(n_blocks):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rng = next(series_streams(7, 1, n_blocks))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key_of(rng) == seed_sequence_key(7, 1, 0)
        return peak, elapsed

    one_chunk, _ = first_stream_peak(streams._KEY_CHUNK)
    peak, elapsed = first_stream_peak(2**32)
    assert peak <= one_chunk + 4096
    assert elapsed < 2.0


def test_series_rejects_block_indices_beyond_one_word():
    with pytest.raises(ValueError, match="2\\*\\*32 blocks"):
        next(series_streams(0, 0, 2**32 + 1))


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
