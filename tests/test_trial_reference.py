"""The count path against the per-trial reference of ``trial_reference``.

The two routes share the streams' definition and the models, and nothing
else: the count path draws each block's counts from the model's compiled
class distribution or from the singlet's word limits (or, for a model
without a declared distribution, reduces its tags through batch codes),
and the reference decides one trial at a time. A model without a declared
distribution draws the same tags on both routes, so their counts must be
equal. Otherwise both routes are checked against the exact weights: the
compiled distribution must equal the reference's class weights exactly,
the reference's own counts must follow them, and the count path's counts
over 200 seeds must follow them, at the stated rate (see
``assert_counts_follow``). Sizes: a one-trial series and one that spills
one trial into a second block; the singlet also one trial short of a block
and three blocks and seven trials, at three angle sets (the third puts
cos(a - b) at 1, -1 and 0, where a cell is empty or a limit sits on a
round value).
"""

import math
from fractions import Fraction

import pytest

from batch_models import LHV_ROUTES, route_model
from bellcheck.engine import count_experiment
from bellcheck.quantum import TSIRELSON_ANGLES, AnglePair, count_quantum_experiment
from bellcheck.streams import BLOCK_SIZE
from trial_reference import (
    agreement_runs,
    assert_counts_follow,
    assert_same_counts,
    class_runs,
    lhv_reference_counts,
    reference_class_weights,
    singlet_reference_counts,
    singlet_weights,
)

SIZES = [1, BLOCK_SIZE + 1]
SINGLET_SIZES = [1, BLOCK_SIZE - 1, BLOCK_SIZE + 1, 49159]
SEED = 41
#: Seeds of the count path in each distribution check.
SEEDS = range(200)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("factory", [r[1] for r in LHV_ROUTES], ids=[r[0] for r in LHV_ROUTES])
def test_lhv_counts_equal_the_reference(factory, n):
    model = route_model(factory)
    reference = lhv_reference_counts(model, n, SEED)
    if model.class_distribution is None:
        assert_same_counts(count_experiment(model, n, SEED), reference)
        return
    weights = reference_class_weights(model)
    nums, d = model.class_distribution
    assert {pair: [Fraction(num, d) for num in row] for pair, row in nums.items()} == weights
    assert_counts_follow(class_runs([reference]), weights)
    assert_counts_follow(class_runs(count_experiment(model, n, seed) for seed in SEEDS), weights)


@pytest.mark.parametrize("n", SINGLET_SIZES)
@pytest.mark.parametrize(
    "angles",
    [TSIRELSON_ANGLES, AnglePair(0.3, 1.9, -0.8, 2.6), AnglePair(0.0, math.pi / 2, 0.0, math.pi)],
    ids=["tsirelson", "custom", "cos 1, -1, 0"],
)
def test_singlet_counts_equal_the_reference(angles, n):
    weights = singlet_weights(angles)
    assert_counts_follow(agreement_runs([singlet_reference_counts(angles, n, SEED)]), weights)
    assert_counts_follow(agreement_runs(count_quantum_experiment(angles, n, seed) for seed in SEEDS), weights)
