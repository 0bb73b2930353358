import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck.engine import estimate_correlation, hoeffding_epsilon
from bellcheck.quantum import (
    TSIRELSON_ANGLES,
    AnglePair,
    quantum_chsh,
    quantum_correlation_table,
    run_quantum_experiment,
    sample_quantum_batch,
    singlet_correlation,
)
from bellcheck.streams import trial_stream

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


class TestSingletCorrelation:
    def test_equal_settings(self):
        assert singlet_correlation(0.0, 0.0) == -1.0

    def test_opposite_settings(self):
        assert singlet_correlation(0.0, math.pi) == pytest.approx(1.0)

    def test_sixty_degrees(self):
        assert singlet_correlation(0.0, math.pi / 3) == pytest.approx(-0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            singlet_correlation(float("nan"), 0.0)


class TestQuantumChsh:
    def test_tsirelson_angles(self):
        assert quantum_chsh(TSIRELSON_ANGLES) == pytest.approx(-2 * math.sqrt(2), abs=1e-12)

    def test_all_zero_angles(self):
        # table (-1,-1,-1,-1): -1 + 1 - 1 - 1
        assert quantum_chsh(AnglePair(0, 0, 0, 0)) == pytest.approx(-2.0)

    def test_orthogonal_angles(self):
        assert quantum_chsh(AnglePair(0, 0, math.pi / 2, math.pi / 2)) == pytest.approx(0.0, abs=1e-12)

    @given(angles, angles, angles, angles)
    @settings(max_examples=500, deadline=None)
    def test_tsirelson_bound(self, a1, a2, b1, b2):
        assert abs(quantum_chsh(AnglePair(a1, a2, b1, b2))) <= 2 * math.sqrt(2) + 1e-9

    def test_tsirelson_bound_sweep(self):
        rng = np.random.default_rng(404)
        limit = 2 * math.sqrt(2) + 1e-9
        for quad in rng.uniform(-2 * math.pi, 2 * math.pi, size=(10_000, 4)):
            assert abs(quantum_chsh(AnglePair(*quad))) <= limit

    def test_angle_pair_validation(self):
        with pytest.raises(ValueError):
            AnglePair(float("inf"), 0, 0, 0)


class TestSampling:
    def test_equal_settings_always_anticorrelated(self):
        rng = trial_stream(0, 0, 0)
        alice, bob = sample_quantum_batch(0.3, 0.3, rng, 2000)
        assert np.all(alice * bob == -1)

    def test_orthogonal_settings_uncorrelated(self):
        n = 100_000
        rng = trial_stream(1, 0, 0)
        alice, bob = sample_quantum_batch(0.0, math.pi / 2, rng, n)
        assert abs(np.mean(alice * bob.astype(np.float64))) <= hoeffding_epsilon(n)

    def test_marginals_unbiased(self):
        n = 100_000
        rng = trial_stream(2, 0, 0)
        alice, bob = sample_quantum_batch(0.7, 1.9, rng, n)
        band = hoeffding_epsilon(n)
        assert abs(np.mean(alice.astype(np.float64))) <= band
        assert abs(np.mean(bob.astype(np.float64))) <= band

    def test_sampled_estimates_match_oracle(self):
        n = 100_000
        log = run_quantum_experiment(TSIRELSON_ANGLES, n, seed=17)
        table = quantum_correlation_table(TSIRELSON_ANGLES)
        band = hoeffding_epsilon(n)
        for pair, exact in zip(((1, 1), (1, 2), (2, 1), (2, 2)), table.as_tuple()):
            est = estimate_correlation(log.series[pair])
            assert abs(est - exact) <= band

    def test_fractional_n_rejected(self):
        with pytest.raises(ValueError, match="n_per_series"):
            run_quantum_experiment(TSIRELSON_ANGLES, 2.5, seed=0)

    def test_log_has_no_tags(self):
        log = run_quantum_experiment(TSIRELSON_ANGLES, 10, seed=0)
        assert not log.has_lambdas

    def test_reproducible(self):
        a = run_quantum_experiment(TSIRELSON_ANGLES, 30_000, seed=5)
        b = run_quantum_experiment(TSIRELSON_ANGLES, 30_000, seed=5, n_workers=4)
        assert a.equals(b)
