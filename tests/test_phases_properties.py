"""Property tests of the witness search; skipped when hypothesis is absent."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
import random  # noqa: E402
from itertools import product  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import oracle_phases, subset_walk  # noqa: E402
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
    for search in (enumerate_phases, subset_walk):
        assert [(w.chosen, w.row_reduced) for w in search(cm)] == expected


def degenerate_model(rng):
    """A small charge matrix, often with zero, duplicated or rescaled columns
    and with padding rows (integer combinations of the others)."""
    rho = rng.randint(1, 3)
    cols = [[rng.randint(-3, 3) for _ in range(rho)] for _ in range(rng.randint(1, rho + 4))]
    for _ in range(rng.randint(0, 2)):
        twin = rng.choice(cols)
        cols.append(rng.choice([[0] * rho, twin, [2 * e for e in twin], [-e for e in twin]]))
    rows = [list(row) for row in zip(*cols)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        rows.append([sum(rng.randint(-2, 2) * row[j] for row in rows) for j in range(len(cols))])
    return rows


def positive_multiples(g, h):
    """True when the vectors ``g`` and ``h`` span the same ray."""
    parallel = all(a * d == b * c for a, b in zip(g, h) for c, d in zip(g, h))
    return parallel and sum(map(int.__mul__, g, h)) > 0


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1))
def test_witnesses_are_the_product_of_gale_ray_classes(seed):
    # ten models per seed, 5 000 in all.  The Gale vectors are the rows of
    # the saturated kernel, a route that shares no code with the search;
    # the walk is the oracle for the witness list.
    rng = random.Random(seed)
    for _ in range(10):
        cm = make_charge_matrix(degenerate_model(rng))
        walk = [(w.chosen, w.row_reduced) for w in subset_walk(cm)]
        assert [(w.chosen, w.row_reduced) for w in enumerate_phases(cm)] == walk
        if not walk:
            continue
        gale = cm.kernel.rows
        fields = range(cm.num_fields)
        rays = [d for d in fields if d not in walk[0][0]]
        classes = [[i for i in fields if positive_multiples(gale[i], gale[d])] for d in rays]
        expected = sorted(tuple(j for j in fields if j not in combo) for combo in product(*classes))
        assert [chosen for chosen, _ in walk] == expected, cm.matrix
