"""Property tests of the subset walk; skipped when hypothesis is absent."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import oracle_phases  # noqa: E402
from lgphase import enumerate_phases, make_charge_matrix  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def charge_matrices(draw, max_rows=4, max_extra=4):
    """Small charge matrices, often with zero, repeated or rescaled columns,
    so that pruning, singular subsets and rank deficiency all occur."""
    rho = draw(st.integers(1, max_rows))
    column = st.lists(st.integers(-3, 3), min_size=rho, max_size=rho)
    cols = draw(st.lists(column, min_size=1, max_size=rho + max_extra))
    for k in draw(st.lists(st.integers(0, len(cols) - 1), max_size=2)):
        twin = cols[k]
        cols.append(draw(st.sampled_from([[0] * rho, twin, [2 * e for e in twin], [-e for e in twin]])))
    return [list(row) for row in zip(*cols)]


@SETTINGS
@given(charge_matrices())
def test_pruned_walk_equals_unpruned_and_cramer_oracle(rows):
    cm = make_charge_matrix(rows)
    expected = oracle_phases(cm, prune=False)
    for prune in (True, False):
        assert [(w.chosen, w.row_reduced) for w in enumerate_phases(cm, prune)] == expected
