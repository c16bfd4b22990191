"""Moment polyhedra, phase cones, and the simplicial-cone cross-check.

For moment levels ``s`` in the image of the charge matrix the symplectic
quotient is cut out by ``P_s = { m : A(m) + s_lift >= 0 }``, where the
columns of ``A`` span the saturated integer kernel of ``Q`` and ``s_lift``
is any exact lift of ``s`` (``Q * s_lift = s``).  A witness's phase cone is
the simplicial cone spanned by its chosen columns, so the cone coordinates
of ``s`` are the unique ``x`` with ``Q[:, chosen] * x = s``: one exact solve
against the original charges, kept on the charge matrix, gives both the
membership test and the lift.
For levels interior to that cone the polyhedron is a translated simplicial
cone, which :func:`verify_simplicial_cone` checks through the kernel route
alone (``ChargeMatrix.kernel``, computed once per model), independently of
the sign test that produced the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import DimensionMismatch, LevelNotInImage, NotInterior
from .linalg import IntMatrix

__all__ = [
    "INTERIOR",
    "BOUNDARY",
    "OUTSIDE",
    "HalfSpace",
    "MomentPolyhedron",
    "PhaseConeReport",
    "lift_level",
    "moment_polyhedron",
    "is_in_phase_cone",
    "verify_simplicial_cone",
    "phase_cone",
]

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


class HalfSpace(NamedTuple):
    """One inequality ``normal . m + offset >= 0`` over the kernel lattice."""

    normal: tuple
    offset: Fraction


@dataclass(frozen=True)
class MomentPolyhedron:
    """Exact description of ``P_s``: kernel basis, lift, and inequalities.

    Invariants: ``Q * lift == s`` exactly, and the half-space normals are
    the rows of ``kernel_basis`` in field order.
    """

    kernel_basis: IntMatrix
    lift: tuple
    half_spaces: tuple


@dataclass(frozen=True)
class PhaseConeReport:
    """Generators and an interior point of a witness's phase cone.

    ``generators`` holds the chosen columns of the original charges when
    the matrix has full rank; for rank-deficient input the chosen columns
    of the reduced matrix are reported instead and ``reduced_basis`` is
    set.  ``interior_sample`` is always the sum of the original chosen
    columns, a rational vector in the gauge space.
    """

    generators: IntMatrix
    interior_sample: tuple
    reduced_basis: bool


def _as_level(cm, s):
    vec = tuple(linalg._check_fraction(x) for x in s)
    if len(vec) != cm.rho:
        raise DimensionMismatch(f"level has length {len(vec)}, expected {cm.rho}")
    return vec


def _cone_coordinates(cm, support, s):
    """The ``x`` with ``Q[:, support] * x == s``, or ``None`` outside the image.

    The support columns are independent and span the image of ``Q``, so
    ``x`` is unique when it exists.  The latest solve is kept on the
    charge matrix: membership, the simplicial check and the lift of one
    level share it, and a new level replaces it, so the memo never grows.
    """
    key = (tuple(support), s)
    memo = cm._cone_solutions
    if key not in memo:
        memo.clear()
        memo[key] = linalg.solve_exact(cm.matrix.select_columns(support), s)
    return memo[key]


def lift_level(cm, s, witness=None):
    """An exact vector ``s_lift`` with ``Q * s_lift == s``.

    With a witness, the lift is supported on the chosen columns (the cone
    coordinates of ``s``); otherwise it rests on the lexicographically-first
    pivot columns of the reduced matrix.  Raises :class:`LevelNotInImage`
    when ``s`` is outside the image.
    """
    s = _as_level(cm, s)
    support = cm.pivot_columns if witness is None else witness.chosen
    coeffs = _cone_coordinates(cm, support, s)
    if coeffs is None:
        raise LevelNotInImage("level is not in the image of the charge matrix")
    lift = [Fraction(0)] * cm.num_fields
    for j, c in zip(support, coeffs):
        lift[j] = c
    return tuple(lift)


def moment_polyhedron(cm, s, witness=None):
    """The polyhedron ``P_s`` as exact half-space data."""
    a = cm.kernel
    lift = lift_level(cm, s, witness)
    spaces = tuple(
        HalfSpace(normal=tuple(Fraction(e) for e in a.row(i)), offset=lift[i])
        for i in range(cm.num_fields)
    )
    return MomentPolyhedron(kernel_basis=a, lift=lift, half_spaces=spaces)


def is_in_phase_cone(w, s):
    """Classify a level against the witness cone.

    Returns ``"interior"`` when every cone coordinate of ``s`` is positive,
    ``"boundary"`` when all are nonnegative with a zero, ``"outside"``
    otherwise or when ``s`` leaves the image of the charge matrix.
    """
    cm = w.charge
    s = _as_level(cm, s)
    sigma = _cone_coordinates(cm, w.chosen, s)
    if sigma is None:
        return OUTSIDE
    if any(c < 0 for c in sigma):
        return OUTSIDE
    if any(c == 0 for c in sigma):
        return BOUNDARY
    return INTERIOR


def verify_simplicial_cone(w, s):
    """Independent check that ``P_s`` is a translated simplicial cone.

    Works entirely through the kernel matrix: invert its coordinate block
    and test that the rows attached to the chosen fields become
    componentwise nonnegative, which says every remaining inequality has an
    inward normal in the coordinate basis.  Requires a level interior to
    the phase cone (:class:`NotInterior` otherwise).  Returns the verdict
    as a bool; a singular coordinate block refutes simpliciality.
    """
    if is_in_phase_cone(w, s) != INTERIOR:
        raise NotInterior("level is not interior to the phase cone")
    cm = w.charge
    coords = w.coord_columns
    n = len(coords)
    if n == 0:
        return True
    a = cm.kernel
    c_block = IntMatrix(tuple(a.row(j) for j in coords), ncols=n)
    if linalg.determinant(c_block) == 0:
        return False
    c_inv = linalg.invert_rational(c_block)
    cols = tuple(zip(*c_inv.rows))
    for i in w.chosen:
        row = a.row(i)
        for col in cols:
            if sum(x * y for x, y in zip(row, col)) < 0:
                return False
    return True


def phase_cone(w):
    """Cone data of a witness; see :class:`PhaseConeReport`."""
    cm = w.charge
    full = cm.rank == cm.rho
    original = cm.matrix.select_columns(w.chosen)
    generators = original if full else w.vev_block
    sample = tuple(Fraction(sum(original.row(i))) for i in range(cm.rho))
    return PhaseConeReport(
        generators=generators,
        interior_sample=sample,
        reduced_basis=not full,
    )
