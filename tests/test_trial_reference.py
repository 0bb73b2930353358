"""The count path against the per-trial reference of ``trial_reference``.

The two routes share the streams' definition and the models, and nothing
else: the count path reduces blocks through class tables, batch codes and
raw-word limits, the reference decides one trial at a time. Their counts
must be equal for every model route and both singlet angle sets, for a
one-trial series and for one that spills one trial into a second block;
the singlet also at one trial short of a block and at three blocks and
seven trials.
"""

import pytest

from batch_models import LHV_ROUTES, route_model
from bellcheck.engine import count_experiment
from bellcheck.quantum import TSIRELSON_ANGLES, AnglePair, count_quantum_experiment
from bellcheck.streams import BLOCK_SIZE
from trial_reference import assert_same_counts, lhv_reference_counts, singlet_reference_counts

SIZES = [1, BLOCK_SIZE + 1]
SINGLET_SIZES = [1, BLOCK_SIZE - 1, BLOCK_SIZE + 1, 49159]
SEED = 41


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("factory", [r[1] for r in LHV_ROUTES], ids=[r[0] for r in LHV_ROUTES])
def test_lhv_counts_equal_the_reference(factory, n):
    model = route_model(factory)
    assert_same_counts(count_experiment(model, n, SEED), lhv_reference_counts(model, n, SEED))


@pytest.mark.parametrize("n", SINGLET_SIZES)
@pytest.mark.parametrize("angles", [TSIRELSON_ANGLES, AnglePair(0.3, 1.9, -0.8, 2.6)], ids=["tsirelson", "custom"])
def test_singlet_counts_equal_the_reference(angles, n):
    assert_same_counts(count_quantum_experiment(angles, n, SEED), singlet_reference_counts(angles, n, SEED))

