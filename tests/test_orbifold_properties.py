"""Property tests of the canonical orbifold action; skipped when hypothesis is absent.

The canonical lattice names a quotient of ``C^n`` up to monomial
isomorphism, so it must not move when the coordinates are permuted, when
the same subgroup of the torus is given by other generators, or when a
coordinate is replaced by a power that keeps the quotient.
"""

from math import gcd, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import brute_canonical_torus_action, torus_subgroup_lattice  # noqa: E402
from lgphase import canonical_torus_action  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def actions(draw, max_coords=6):
    """``(rows, orders, n)``: up to three generators, repeated weights and orders likely."""
    n = draw(st.integers(1, max_coords))
    orders = draw(st.lists(st.sampled_from((1, 2, 3, 4, 4, 5, 6, 8, 9, 12)), max_size=3))
    if len(orders) > 1 and draw(st.booleans()):
        orders[1] = orders[0]
    rows = []
    for d in orders:
        pool = draw(st.lists(st.integers(1, d).map(lambda e, d=d: e % d), min_size=1, max_size=n))
        rows.append([draw(st.sampled_from(pool)) for _ in range(n)])
    return rows, orders, n


def canonical(action):
    return canonical_torus_action(*action)


def same_subgroup(a, b):
    return torus_subgroup_lattice(*a) == torus_subgroup_lattice(*b)


@SETTINGS
@given(actions(), st.data())
def test_coordinate_permutation(action, data):
    rows, orders, n = action
    perm = data.draw(st.permutations(range(n)))
    permuted = ([[row[j] for j in perm] for row in rows], orders, n)
    assert canonical(permuted) == canonical(action) == brute_canonical_torus_action(*action)


@SETTINGS
@given(actions(), st.data())
def test_generator_times_unit(action, data):
    rows, orders, n = action
    if not rows:
        return
    a = data.draw(st.integers(0, len(rows) - 1))
    d = orders[a]
    unit = data.draw(st.sampled_from([u for u in range(2, d + 2) if gcd(u, d) == 1]))
    unit += d * data.draw(st.integers(0, 3))
    new_rows = [list(row) for row in rows]
    new_rows[a] = [unit * e % d for e in rows[a]]
    other = (new_rows, orders, n)
    assert same_subgroup(other, action)
    assert canonical(other) == canonical(action) == brute_canonical_torus_action(*action)


@SETTINGS
@given(actions(), st.data())
def test_multiple_of_generator_added(action, data):
    rows, orders, n = action
    pairs = [(a, b) for a in range(len(rows)) for b in range(len(rows))
             if a != b and orders[a] == orders[b]]
    if not pairs:
        return
    a, b = data.draw(st.sampled_from(pairs))
    c = data.draw(st.integers(1, 5))
    new_rows = [list(row) for row in rows]
    new_rows[a] = [(x + c * y) % orders[a] for x, y in zip(rows[a], rows[b])]
    other = (new_rows, orders, n)
    assert same_subgroup(other, action)
    assert canonical(other) == canonical(action) == brute_canonical_torus_action(*action)


@SETTINGS
@given(actions(), st.data())
def test_redundant_generator_appended(action, data):
    # sum_a c_a * row_a / d_a, written over the common order m0
    rows, orders, n = action
    m0 = lcm(*orders)
    coeffs = [data.draw(st.integers(-3, 3)) for _ in rows]
    extra = [sum(c * (m0 // d) * row[j] for c, row, d in zip(coeffs, rows, orders)) % m0
             for j in range(n)]
    other = ([*rows, extra], [*orders, m0], n)
    assert same_subgroup(other, action)
    assert canonical(other) == canonical(action) == brute_canonical_torus_action(*action)


@SETTINGS
@given(actions(), st.data())
def test_coordinate_rescaling(action, data):
    # M, the preimage of L under multiplying coordinate j by k, holds Z_k on
    # coordinate j alone, so C^n / M == C^n / L through w_j = z_j^k.  M is
    # generated by e_j / k and by each row / d with its other coordinates
    # multiplied by k, over the order k * d.
    rows, orders, n = action
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(2, 4))
    new_rows = [[e if i == j else k * e for i, e in enumerate(row)] for row in rows]
    new_rows.append([int(i == j) for i in range(n)])
    new_orders = [k * d for d in orders] + [k]
    other = (new_rows, new_orders, n)
    back = ([[k * e if i == j else e for i, e in enumerate(row)] for row in new_rows], new_orders, n)
    assert same_subgroup(back, action)
    assert canonical(other) == canonical(action) == brute_canonical_torus_action(*action)
