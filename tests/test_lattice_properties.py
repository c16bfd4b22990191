"""Property tests of the lattice pass and the Hermite form; skipped when hypothesis is absent."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    fraction_rank,
    smith_factors,
    smith_integer_kernel,
    smith_row_space_reduce,
)
from lgphase import IntMatrix, hermite_normal_form, integer_kernel, row_space_reduce  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw, max_rows=5, max_cols=7):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    entry = st.integers(-20, 20) | st.sampled_from((0, 0, 1, -1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return IntMatrix(rows, ncols=ncols)


@st.composite
def row_operations(draw, nrows):
    """A unimodular ``nrows x nrows`` matrix as a product of elementary steps."""
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    for kind, i, j, q in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, nrows - 1),
                                                 st.integers(0, nrows - 1), st.integers(-4, 4)),
                                       max_size=10)):
        if kind == 0 and i != j:
            u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
        elif kind == 2:
            u[i] = [-a for a in u[i]]
    return IntMatrix(u, ncols=nrows)


@SETTINGS
@given(matrices())
def test_equals_smith_route(m):
    assert row_space_reduce(m) == smith_row_space_reduce(m)
    assert integer_kernel(m) == smith_integer_kernel(m)


@SETTINGS
@given(matrices())
def test_kernel_is_saturated(m):
    k = integer_kernel(m)
    assert k.shape == (m.ncols, m.ncols - fraction_rank(m.rows))
    assert m * k == IntMatrix([[0] * k.ncols] * m.nrows, ncols=k.ncols)
    assert smith_factors(k) == (1,) * k.ncols


@SETTINGS
@given(st.data())
def test_row_lattice_invariant_and_idempotent(data):
    m = data.draw(matrices())
    u = data.draw(row_operations(m.nrows))
    reduced = row_space_reduce(m)
    assert row_space_reduce(u * m) == reduced
    assert row_space_reduce(reduced) == reduced
    assert reduced.nrows == fraction_rank(m.rows)
    assert smith_factors(reduced) == (1,) * reduced.nrows


@settings(SETTINGS, max_examples=150)
@given(st.data())
def test_hermite_form_invariant_and_idempotent(data):
    m = data.draw(matrices())
    u = data.draw(row_operations(m.nrows))
    h = hermite_normal_form(m)
    assert hermite_normal_form(u * m) == h
    assert hermite_normal_form(h) == h
    assert h.nrows == fraction_rank(m.rows)
    pivots = [next(j for j, e in enumerate(row) if e) for row in h.rows]
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert h[i, c] > 0
        assert all(0 <= h[k, c] < h[i, c] for k in range(i))
