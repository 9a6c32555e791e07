"""Properties of the asymptotic EVPI route over a threshold grid.

Samples are small and include all-event and no-event samples and samples
whose risks all lie below every threshold; grids are strictly increasing,
as ``make_thresholds`` requires.  Each threshold's row is computed
elementwise, so it must equal the one-threshold call exactly, and the
moments come from integer counts, so a row permutation of the sample must
change nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbvoi import Threshold, ValidationSample, decision_curve, evpi_threshold_sweep, moments
from nbvoi.voi import evpi_asymptotic

Z_VALUES = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
SETTINGS = settings(max_examples=150, deadline=None)
# Thin thresholds are part of the drawn samples, not a finding.
pytestmark = pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")

risk = st.one_of(st.sampled_from(Z_VALUES + (0.0, 1.0)), st.floats(0.0, 1.0))
grids = st.lists(st.sampled_from(Z_VALUES), min_size=1, max_size=8, unique=True).map(
    lambda zs: tuple(Threshold(z) for z in sorted(zs))
)


@st.composite
def samples(draw):
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(("mixed", "all_events", "no_events")))
    if kind == "mixed":
        y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        y = [int(kind == "all_events")] * n
    p = np.array(draw(st.lists(risk, min_size=n, max_size=n)))
    if draw(st.booleans()):
        p = p * 0.005  # every threshold of the grid lies above every risk
    return ValidationSample(y, p)


def asymptotic_rows(s, ts):
    return evpi_threshold_sweep(s, ts, methods=("asymptotic",))


@SETTINGS
@given(samples(), grids)
def test_evpi_nonnegative_and_p_useful_a_probability(s, ts):
    for _, r in asymptotic_rows(s, ts):
        assert r.evpi >= 0.0
        assert 0.0 <= r.p_useful <= 1.0


@SETTINGS
@given(samples(), grids)
def test_grid_rows_equal_one_threshold_calls(s, ts):
    rows = asymptotic_rows(s, ts)
    assert [t for t, _ in rows] == list(ts)
    for t, r in rows:
        assert r == evpi_asymptotic(moments(s, t))


@SETTINGS
@given(samples(), grids, st.data())
def test_row_permutation_changes_nothing(s, ts, data):
    perm = np.array(data.draw(st.permutations(range(s.n))))
    shuffled = s.subset(perm)
    assert asymptotic_rows(shuffled, ts) == asymptotic_rows(s, ts)
    a = decision_curve(s, ts, n_boot=0)
    b = decision_curve(shuffled, ts, n_boot=0)
    assert a.nb_model.tobytes() == b.nb_model.tobytes()
    assert a.nb_all.tobytes() == b.nb_all.tobytes()
