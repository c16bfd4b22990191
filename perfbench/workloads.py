"""Seeded inputs and output checks for the four benchmark workloads.

Every input matrix is drawn here with ``random.Random``; nothing in this
file imports ``lgphase``, so a change to the package (its generator
included) cannot change the inputs, and the checks below are an exact
``Fraction`` cross-check that does not reuse the package's linear algebra.

A workload is an endless stream of rounds.  Round ``i`` of a workload is a
pure function of ``(workload, seed, i)`` and holds one op per stratum (one
shape, family member or configuration), shuffled.  A run always measures
whole rounds, so every run sees the same mix of strata and only the drawn
entries differ between seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

WORKLOADS = ("scan", "symmetric", "lattice", "generate")


@dataclass(frozen=True)
class Op:
    """One CLI invocation with what the checker needs to judge its output."""

    stratum: str
    argv: tuple
    expect: dict


class CheckFailed(Exception):
    """An op's output violated an invariant of its workload."""


def build_round(workload, seed, index):
    """The ops of round ``index``, in the order they run."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _ROUND_MAKERS[workload](rng)
    rng.shuffle(ops)
    return ops


def check(op, code, stdout, workload):
    """Raise :class:`CheckFailed` unless the op's exit code and output hold."""
    _CHECKERS[workload](op, code, stdout)


# ---------------------------------------------------------------------------
# exact arithmetic, independent of the package


def _rank(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _det(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _solve_square(rows, vec):
    """``x`` with ``rows * x == vec`` for a nonsingular square ``rows``."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(rows, vec)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n] for row in a]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _columns(rows, idx):
    return [[row[j] for j in idx] for row in rows]


def _nonsingular(rng, n, bound):
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if _det(m):
            return m


def _planted(rng, r, extra, entry_bound, v_bound, mix_bound):
    """``M * [R | -R V]`` with shuffled columns, and where ``R`` went.

    ``R`` is nonsingular and ``V >= 0`` has no zero column, so the columns
    of ``R`` are a witness by construction: ``R^-1 (-R v) = -v <= 0``.
    A nonsingular ``M`` mixes the rows when ``mix_bound`` is set.
    """
    block = _nonsingular(rng, r, entry_bound)
    v = [[rng.randint(0, v_bound) for _ in range(extra)] for _ in range(r)]
    for j in range(extra):
        if not any(v[i][j] for i in range(r)):
            v[rng.randrange(r)][j] = 1
    rest = [[-x for x in row] for row in _matmul(block, v)]
    q = [b + s for b, s in zip(block, rest)]
    if mix_bound:
        q = _matmul(_nonsingular(rng, r, mix_bound), q)
    perm = list(range(r + extra))
    rng.shuffle(perm)
    shuffled = [[row[p] for p in perm] for row in q]
    chosen = sorted(perm.index(j) for j in range(r))
    return shuffled, chosen


def _unimodular(rng, n):
    """A random unimodular ``n x n`` matrix (n <= 2 here), as row lists."""
    if n == 1:
        return [[rng.choice((-1, 1))]]
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    u = _matmul([[1, a], [0, 1]], [[1, 0], [b, 1]])
    if rng.random() < 0.5:
        u.reverse()
    return u


def _strs(values):
    return [str(x) for x in values]


def _str_rows(rows):
    return [_strs(row) for row in rows]


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _int_rows(rows):
    return [[int(x) for x in row] for row in rows]


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _load(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"stdout is not JSON: {e}") from None


def _json_matrix(q):
    return json.dumps(q, separators=(",", ":"))


# ---------------------------------------------------------------------------
# scan: `lgphase phases <Q>` on small random models, half with a planted phase

SCAN_SHAPES = tuple((rho, n) for rho in range(1, 6) for n in range(rho + 1, rho + 8))
SCAN_ENTRY_BOUND = 4


def _scan_round(rng):
    ops = []
    for rho, n in SCAN_SHAPES:
        q, chosen = _planted(rng, rho, n - rho, SCAN_ENTRY_BOUND, 2, 0)
        ops.append(Op(f"planted {rho}x{n}", ("phases", _json_matrix(q)), {"Q": q, "planted": chosen}))
        b = SCAN_ENTRY_BOUND
        q = [[rng.randint(-b, b) for _ in range(n)] for _ in range(rho)]
        ops.append(Op(f"plain {rho}x{n}", ("phases", _json_matrix(q)), {"Q": q, "planted": None}))
    return ops


def _check_scan(op, code, stdout):
    data = _load(stdout)
    q = op.expect["Q"]
    found = data["phases"]
    _expect(code == (0 if found else 1), f"exit code {code} with {len(found)} phases")
    _expect(data["input"]["Q"] == _str_rows(q), "input echo differs from the input")
    rank = int(data["input"]["rank"])
    reduced = _int_rows(data["reduced"])
    n = len(q[0])
    _expect(len(reduced) == rank == _rank(q), "reduced basis has the wrong rank")
    _expect(_rank(reduced + q) == rank, "reduced rows do not span the row space of Q")
    chosen_sets = [_int_rows([p["chosen"]])[0] for p in found]
    planted = op.expect["planted"]
    if planted is not None:
        _expect(planted in chosen_sets, f"planted witness {planted} not reported")
    for p, chosen in zip(found, chosen_sets):
        _expect(len(chosen) == rank and chosen == sorted(set(chosen)), f"bad chosen set {chosen}")
        rest = [j for j in range(n) if j not in chosen]
        _expect(_int_rows([p["lg_fields"]])[0] == rest, "lg fields are not the complement")
        vev = _int_rows(p["vev_block"])
        _expect(vev == _columns(reduced, chosen), "vev block is not the chosen columns")
        rr = _frac_rows(p["row_reduced"])
        for a, row in enumerate(rr):
            for j, x in enumerate(row):
                if j in chosen:
                    _expect(x == (1 if j == chosen[a] else 0), f"row_reduced not identity at column {j}")
                else:
                    _expect(x <= 0, f"row_reduced entry {x} > 0 at ({a}, {j})")
        _expect(_matmul(vev, rr) == reduced, "vev_block * row_reduced != reduced")
        od = p["orbifold"]
        if rank == len(q):
            order = prod(int(d) for d in od["invariant_factors"])
            _expect(int(od["group_order"]) == order == abs(_det(vev)), "group order mismatch")
        else:
            _expect(od is None, "orbifold data on a rank-deficient model")


# ---------------------------------------------------------------------------
# symmetric: `lgphase orbifold <Q> --chosen <witness>` on high-symmetry models

SYMMETRIC_PROJECTIVE = tuple(range(2, 8))  # K over P^(k-1)
SYMMETRIC_DECADES = tuple(range(4, 13))  # [[1, 1, -D]], D ~ 10^e
# Products K over P^a x P^b.  (3, 3) and larger put 8 or more coordinates
# into one permutation class (8! Hermite forms, seconds per op) and are
# left out to keep an op well under a second.
SYMMETRIC_PRODUCTS = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4))
RESOLVED_WP4 = [[0, 0, 1, 1, 1, 1, -4], [1, 1, 0, 0, 0, -2, 0]]


def _symmetric_op(rng, stratum, q, witness, factors):
    rows = _matmul(_unimodular(rng, len(q)), q)
    perm = list(range(len(q[0])))
    rng.shuffle(perm)
    rows = [[row[p] for p in perm] for row in rows]
    chosen = sorted(perm.index(j) for j in witness)
    argv = ("orbifold", _json_matrix(rows), "--chosen", ",".join(map(str, chosen)))
    return Op(stratum, argv, {"chosen": chosen, "factors": factors})


def _symmetric_round(rng):
    ops = []
    for k in SYMMETRIC_PROJECTIVE:
        ops.append(_symmetric_op(rng, f"K_P{k - 1}", [[1] * k + [-k]], [k], (k,)))
    for e in SYMMETRIC_DECADES:
        # the offset moves sqrt(D), and so the trial-division cost, by under 1%
        d = 10**e + rng.randrange(10 ** (e - 2))
        ops.append(_symmetric_op(rng, f"Z_1e{e}", [[1, 1, -d]], [2], (d,)))
    for a, b in SYMMETRIC_PRODUCTS:
        p, s = a + 1, b + 1
        q = [[1] * p + [0] * s + [-p, 0], [0] * p + [1] * s + [0, -s]]
        n = p + s + 2
        ops.append(_symmetric_op(rng, f"K_P{a}xP{b}", q, [n - 2, n - 1], (gcd(p, s), lcm(p, s))))
    ops.append(_symmetric_op(rng, "resolved_WP4", RESOLVED_WP4, [5, 6], (1, 8)))
    return ops


def _check_symmetric(op, code, stdout):
    _expect(code == 0, f"exit code {code}")
    data = _load(stdout)
    _expect(data["chosen"] == _strs(op.expect["chosen"]), "chosen columns differ")
    factors = op.expect["factors"]
    order = prod(factors)
    _expect(int(data["group_order"]) == order, f"group order {data['group_order']} != {order}")
    effective = [int(x) for x in data["effective_factors"]]
    _expect(effective == [d for d in factors if d != 1], f"effective factors {effective}")
    inv = [int(x) for x in data["invariant_factors"]]
    _expect(inv[-len(factors):] == list(factors) and all(d == 1 for d in inv[: -len(factors)]),
            f"invariant factors {inv}")
    smith = data["smith"]
    d = _int_rows(smith["d"])
    diag = [d[i][i] for i in range(len(d))]
    off = [x for i, row in enumerate(d) for j, x in enumerate(row) if i != j]
    _expect(not any(off), "Smith D is not diagonal")
    _expect(diag == inv and all(x > 0 for x in diag), "Smith diagonal differs from the factors")
    _expect(all(b % a == 0 for a, b in zip(diag, diag[1:])), "no divisibility chain")
    for name in ("u", "v"):
        _expect(abs(_det(_int_rows(smith[name]))) == 1, f"Smith {name.upper()} is not unimodular")
    for row, dv in zip(_int_rows(data["action_exponents"]), inv):
        _expect(all(0 <= e < dv for e in row), "action exponent not reduced")


# ---------------------------------------------------------------------------
# lattice: `lgphase polytope <Q> --chosen <witness> --level=<sum of chosen>`

# One op of each size per round, about 0.5 s a round.  Sizes 16 and 18 cost
# 0.3 to 0.7 s an op and would pull a 20 s run toward 200 ops, the least
# that op_p95_ms needs, so the sweep stops at 14.
LATTICE_SIZES = (4, 5, 6, 7, 8, 9, 10, 12, 14)
LATTICE_EXTRA = 4
LATTICE_ENTRY_BOUND = 20


def _lattice_round(rng):
    ops = []
    for r in LATTICE_SIZES:
        q, chosen = _planted(rng, r, LATTICE_EXTRA, LATTICE_ENTRY_BOUND, 2, 1)
        level = [sum(row[j] for j in chosen) for row in q]
        argv = (
            "polytope",
            _json_matrix(q),
            "--chosen",
            ",".join(map(str, chosen)),
            "--level=" + ",".join(map(str, level)),
        )
        ops.append(Op(f"{r}x{r + LATTICE_EXTRA}", argv, {"Q": q, "chosen": chosen, "level": level}))
    return ops


def _check_lattice(op, code, stdout):
    _expect(code == 0, f"exit code {code}")
    data = _load(stdout)
    q, level = op.expect["Q"], op.expect["level"]
    _expect(data["chosen"] == _strs(op.expect["chosen"]), "chosen columns differ")
    _expect(data["level"] == _strs(level), "level echo differs")
    _expect(data["membership"] == "interior", f"membership {data['membership']}")
    _expect(data["simplicial"] is True, "simplicial cone not confirmed")
    lift = [Fraction(x) for x in data["lift"]]
    _expect(_matmul(q, [[x] for x in lift]) == [[x] for x in level], "Q * lift != level")
    spaces = data["half_spaces"]
    _expect(len(spaces) == len(q[0]), "one half-space per field expected")
    _expect([Fraction(h["offset"]) for h in spaces] == lift, "offsets differ from the lift")
    kernel = [[int(x) for x in h["normal"]] for h in spaces]
    n = len(q[0]) - len(q)
    _expect(all(len(row) == n for row in kernel), "kernel has the wrong width")
    _expect(not any(any(row) for row in _matmul(q, kernel)), "normals are not in ker Q")
    _expect(_rank(kernel) == n, "kernel basis is not independent")


# ---------------------------------------------------------------------------
# generate: `lgphase generate --r R --n N --seed S --count C`

# r = 4 is left out: its rejection sampler exhausts the package's documented
# attempt budget on about one column in 10^4 (a thin cone), which would
# fail an op every few runs.  At r <= 3 the estimate is below 10^-12.
GENERATE_SHAPES = tuple((r, n) for r in range(1, 4) for n in range(0, 7))
GENERATE_COUNT = 2
GENERATE_BOUND = 5  # the CLI's default entry and sample bounds


def _generate_round(rng):
    ops = []
    for r, n in GENERATE_SHAPES:
        s = rng.randrange(2**31)
        argv = ("generate", "--r", str(r), "--n", str(n), "--seed", str(s), "--count", str(GENERATE_COUNT))
        ops.append(Op(f"r{r} n{n}", argv, {"r": r, "n": n, "seed": s}))
    return ops


def _check_generate(op, code, stdout):
    _expect(code == 0, f"exit code {code}")
    r, n, seed = op.expect["r"], op.expect["n"], op.expect["seed"]
    lines = stdout.splitlines()
    _expect(len(lines) == GENERATE_COUNT, f"{len(lines)} models emitted")
    for k, line in enumerate(lines):
        data = _load(line)
        cfg = data["config"]
        _expect((cfg["r"], cfg["n"], cfg["seed"]) == (str(r), str(n), str(seed + k)), "config echo differs")
        q = _int_rows(data["Q"])
        _expect(len(q) == r and all(len(row) == r + n for row in q), "wrong shape")
        _expect(all(abs(x) <= GENERATE_BOUND for row in q for x in row), "entry out of bounds")
        block = _columns(q, range(r))
        _expect(_det(block) != 0, "first r columns are singular")
        for j in range(r, r + n):
            col = [row[j] for row in q]
            _expect(any(col), f"zero column {j}")
            _expect(all(x <= 0 for x in _solve_square(block, col)), f"column {j} not in -cone(R)")
        _expect(data["witness"] == _strs(range(r)), "witness is not the first r columns")


_ROUND_MAKERS = {
    "scan": _scan_round,
    "symmetric": _symmetric_round,
    "lattice": _lattice_round,
    "generate": _generate_round,
}
_CHECKERS = {
    "scan": _check_scan,
    "symmetric": _check_symmetric,
    "lattice": _check_lattice,
    "generate": _check_generate,
}
