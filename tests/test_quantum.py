import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck.engine import empirical_table, hoeffding_epsilon
from bellcheck.quantum import (
    TSIRELSON_ANGLES,
    AnglePair,
    _count_agreements,
    count_quantum_experiment,
    quantum_chsh,
    quantum_correlation_table,
    singlet_correlation,
)
from bellcheck.streams import trial_stream
from trial_reference import assert_same_counts

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

    def test_rejects_a_difference_that_overflows(self):
        # both angles are finite, but a - b is inf
        with pytest.raises(ValueError, match=r"1e\+308 and -1e\+308"):
            singlet_correlation(1e308, -1e308)


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
        assert _count_agreements(0.3, 0.3, trial_stream(0, 0, 0), 2000) == 0

    def test_orthogonal_settings_uncorrelated(self):
        n = 100_000
        agree = _count_agreements(0.0, math.pi / 2, trial_stream(1, 0, 0), n)
        assert abs((2 * agree - n) / n) <= hoeffding_epsilon(n)

    def test_sampled_estimates_match_oracle(self):
        n = 100_000
        estimates = empirical_table(count_quantum_experiment(TSIRELSON_ANGLES, n, seed=17))
        table = quantum_correlation_table(TSIRELSON_ANGLES)
        band = hoeffding_epsilon(n)
        for est, exact in zip(estimates.as_tuple(), table.as_tuple()):
            assert abs(est - exact) <= band

    def test_fractional_n_rejected(self):
        with pytest.raises(ValueError, match="n_per_series"):
            count_quantum_experiment(TSIRELSON_ANGLES, 2.5, seed=0)

    def test_reproducible(self, monkeypatch):
        monkeypatch.setenv("BELLCHECK_THREADS", "1")
        a = count_quantum_experiment(TSIRELSON_ANGLES, 30_000, seed=5)
        monkeypatch.setenv("BELLCHECK_THREADS", "4")
        b = count_quantum_experiment(TSIRELSON_ANGLES, 30_000, seed=5)
        assert_same_counts(a, b)
