import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck.errors import ResourceLimitError
from bellcheck.ghz import (
    MAX_VARIABLES,
    ProductConstraint,
    canonical_angle,
    check_satisfiable,
    evaluate_constraint,
    ghz_constraint_system,
    ghz_correlation,
)

angles = st.floats(min_value=-10.0, max_value=10.0)


class TestGhzCorrelation:
    def test_zero_sum(self):
        assert ghz_correlation(0.3, 0.4, 0.5, 0.2) == pytest.approx(-1.0)

    def test_pi_sum(self):
        assert ghz_correlation(math.pi, 0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_half_pi_sum(self):
        assert ghz_correlation(math.pi / 2, 0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    @given(angles, angles, angles, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, a, b, c, d, t):
        # adding t to one raising slot and one lowering slot cancels
        assert ghz_correlation(a + t, b, c + t, d) == pytest.approx(
            ghz_correlation(a, b, c, d), abs=1e-9
        )


class TestConstraintSystem:
    def test_four_constraints_eight_variables(self):
        cs = ghz_constraint_system(math.pi / 2)
        assert len(cs) == 4
        assert all(c.target == -1 for c in cs)
        variables = {f for c in cs for f in c.canonical_factors()}
        assert len(variables) == 8

    def test_fifth_appended(self):
        cs = ghz_constraint_system(math.pi / 2, include_fifth=True)
        assert len(cs) == 5
        assert cs[4].target == 1

    def test_degenerate_phi_rejected(self):
        with pytest.raises(ValueError):
            ghz_constraint_system(0.0)
        with pytest.raises(ValueError):
            ghz_constraint_system(math.pi)

    def test_fifth_requires_half_pi(self):
        with pytest.raises(ValueError):
            ghz_constraint_system(math.pi / 3, include_fifth=True)

    def test_other_phi_four_system_ok(self):
        cs = ghz_constraint_system(0.7)
        assert len(cs) == 4


class TestCheckSatisfiable:
    def test_empty_system(self):
        result = check_satisfiable([])
        assert result.satisfiable
        assert result.assignments_checked == 1
        assert result.witness == {}

    def test_four_system_satisfiable(self):
        cs = ghz_constraint_system(math.pi / 2)
        result = check_satisfiable(cs)
        assert result.satisfiable
        assert result.assignments_checked == 256
        # soundness: substitute the witness back into every constraint
        for c in cs:
            assert evaluate_constraint(c, result.witness) == c.target

    def test_five_system_unsatisfiable(self):
        result = check_satisfiable(ghz_constraint_system(math.pi / 2, include_fifth=True))
        assert not result.satisfiable
        assert result.witness is None
        assert result.assignments_checked == 256

    def test_five_system_algebraic_cross_check(self):
        # constraints 2,3,4 multiplied: squares drop, leaving
        # A(pi) B(0) C(0) D(0) = (-1)^3 = -1, contradicting the fifth's +1
        cs = ghz_constraint_system(math.pi / 2, include_fifth=True)
        parity = {}
        for c in cs[1:4]:
            for key in c.canonical_factors():
                parity[key] = parity.get(key, 0) ^ 1
        odd = {k for k, v in parity.items() if v}
        assert odd == set(cs[4].canonical_factors())
        target_product = (-1) ** 3
        assert target_product == -1 != cs[4].target

    def test_satisfiable_at_generic_phi(self):
        result = check_satisfiable(ghz_constraint_system(1.1))
        assert result.satisfiable

    @given(st.floats(min_value=0.05, max_value=math.pi - 0.05))
    @settings(max_examples=60, deadline=None)
    def test_four_system_satisfiable_for_every_valid_phi(self, phi):
        cs = ghz_constraint_system(phi)
        result = check_satisfiable(cs)
        assert result.satisfiable
        for c in cs:
            assert evaluate_constraint(c, result.witness) == c.target

    def test_repeated_factor_squares_away(self):
        # X * X = +1 regardless of X, so target -1 is unsatisfiable
        c = ProductConstraint((("A", 0.0), ("A", 0.0)), -1)
        result = check_satisfiable([c])
        assert not result.satisfiable
        assert result.assignments_checked == 2

    def test_lowest_index_witness(self):
        # single free variable with target +1: witness must pick the
        # lowest satisfying assignment index, here A=+1 (index 1)
        c = ProductConstraint((("A", 0.0),), 1)
        result = check_satisfiable([c])
        assert result.witness == {("A", 0.0): 1}

    def test_variable_guard(self):
        constraints = [
            ProductConstraint((("A", 0.01 * i),), 1) for i in range(MAX_VARIABLES + 1)
        ]
        with pytest.raises(ResourceLimitError):
            check_satisfiable(constraints)

    def test_angle_canonicalization_merges_variables(self):
        a = ProductConstraint((("A", 0.0),), 1)
        b = ProductConstraint((("A", 2 * math.pi),), -1)  # same variable as A(0)
        result = check_satisfiable([a, b])
        assert not result.satisfiable
        assert result.assignments_checked == 2

    def test_a_turn_below_the_seam_names_the_zero_variable(self):
        # 165 * 2pi reduces to just under 2pi, and must not name a second variable
        a = ProductConstraint((("A", 0.0),), 1)
        b = ProductConstraint((("A", 165 * 2 * math.pi),), -1)
        result = check_satisfiable([a, b])
        assert not result.satisfiable
        assert result.assignments_checked == 2


class TestValidation:
    def test_empty_factors_rejected(self):
        with pytest.raises(ValueError):
            ProductConstraint((), 1)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            ProductConstraint((("A", 0.0),), 0)

    def test_unknown_party_rejected(self):
        with pytest.raises(ValueError):
            ProductConstraint((("E", 0.0),), 1)

    def test_canonical_angle(self):
        assert canonical_angle(2 * math.pi) == 0.0
        assert canonical_angle(1e-13) == canonical_angle(-1e-13) == 0.0
        assert all(canonical_angle(s * k * 2 * math.pi) == 0.0 for k in range(1, 1001) for s in (1, -1))
        assert canonical_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
        with pytest.raises(ValueError):
            canonical_angle(float("nan"))


def brute_force(constraints):
    """Reference: try every +-1 assignment, bit v of the index giving
    variable v's value (0 -> -1, 1 -> +1), and keep the lowest index that
    meets every product. Returns (satisfiable, witness, assignments)."""
    variables = sorted({f for c in constraints for f in c.canonical_factors()})
    size = 1 << len(variables)
    index = np.arange(size)
    values = {v: np.where((index >> i) & 1, 1, -1) for i, v in enumerate(variables)}
    ok = np.ones(size, dtype=bool)
    for c in constraints:
        product = np.ones(size, dtype=np.int64)
        for f in c.canonical_factors():
            product = product * values[f]
        ok &= product == c.target
    if not ok.any():
        return False, None, size
    first = int(np.argmax(ok))
    return True, {v: 1 if (first >> i) & 1 else -1 for i, v in enumerate(variables)}, size


class TestAgainstBruteForce:
    def _random_system(self, rng):
        pool = [("ABCD"[i % 4], 0.25 * (i // 4)) for i in range(rng.randint(1, 12))]
        rows = []
        for _ in range(rng.randint(1, len(pool) + 3)):
            factors = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.3:
                factors += [rng.choice(factors)]  # a repeated factor
            rows.append(ProductConstraint(tuple(factors), rng.choice((-1, 1))))
        return rows

    def test_random_systems(self):
        rng = random.Random(1212)
        verdicts = set()
        for _ in range(1200):
            constraints = self._random_system(rng)
            result = check_satisfiable(constraints)
            satisfiable, witness, size = brute_force(constraints)
            assert result.satisfiable == satisfiable
            assert result.witness == witness
            assert result.assignments_checked == size
            verdicts.add(satisfiable)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("phi", [math.pi / 2, 0.3, 1.1, 2.5, -0.7])
    def test_ghz_check_systems(self, phi):
        systems = [ghz_constraint_system(phi)]
        if phi == math.pi / 2:
            systems.append(ghz_constraint_system(phi, include_fifth=True))
        for constraints in systems:
            result = check_satisfiable(constraints)
            assert (result.satisfiable, result.witness, result.assignments_checked) == brute_force(
                constraints
            )
