"""Report assembly and lossless serialization for the command line.

:func:`stringify` is the one number-to-text conversion of every payload:
each ``int`` and ``Fraction`` becomes a decimal string (``"p/q"`` for
rationals), so arbitrarily large values survive a JSON round trip in any
consumer.  Parsing accepts the same forms back.

Output is lossless: the interpreter's digit limit for ``int`` <-> ``str``
conversion is lifted for the whole of :func:`stringify` and restored
afterwards, so parsing still refuses oversized input.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

from . import cones, orbifold, phases
from .errors import ParseError
from .linalg import IntMatrix

__all__ = [
    "parse_charge_matrix",
    "parse_index_list",
    "parse_level",
    "build_phase_report",
    "stringify",
    "render_phase_table",
    "WARN_RANK_DEFICIENT",
]

WARN_RANK_DEFICIENT = "rank_deficient_gauge_group"
# CPython's default digit limit; levels are held to it when the interpreter sets none
_FALLBACK_DIGIT_LIMIT = 4300


def _digit_limit():
    """The interpreter's digit limit for ``int`` <-> ``str``; 0 when there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _int_from_cell(cell, where):
    if isinstance(cell, bool):
        raise ParseError(f"{where}: boolean is not a charge")
    if isinstance(cell, int):
        return cell
    if isinstance(cell, str):
        try:
            return int(cell.strip())
        except ValueError:
            raise ParseError(f"{where}: {cell!r} is not an integer") from None
    raise ParseError(f"{where}: {cell!r} is not an integer")


def _matrix_from_rows(rows, source):
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{source}: expected a nonempty list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"{source}: row {i} is not a list")
        out.append([_int_from_cell(c, f"{source}: row {i}, column {j}") for j, c in enumerate(row)])
    widths = {len(r) for r in out}
    if len(widths) != 1:
        raise ParseError(f"{source}: rows have unequal lengths {sorted(widths)}")
    if not out[0]:
        raise ParseError(f"{source}: rows are empty")
    return IntMatrix(out)


def _decode_json(text, source):
    """``json.loads(text)``, with every way it can refuse the text as a :class:`ParseError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{source}: bad JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError as e:
        # integers past the interpreter's digit limit for str -> int
        raise ParseError(f"{source}: {e}") from None
    except RecursionError:
        raise ParseError(f"{source}: JSON nested too deeply") from None


def parse_charge_matrix(text, source="input"):
    """Charge matrix from JSON (``{"Q": [[...]]}`` or a bare array) or CSV."""
    stripped = text.strip()
    if not stripped:
        raise ParseError(f"{source}: empty input")
    if stripped[0] in "{[":
        data = _decode_json(stripped, source)
        if isinstance(data, dict):
            if "Q" not in data:
                raise ParseError(f"{source}: JSON object lacks the key \"Q\"")
            data = data["Q"]
        return _matrix_from_rows(data, source)
    rows = []
    for lineno, record in enumerate(csv.reader(io.StringIO(stripped)), start=1):
        cells = [c for c in (cell.strip() for cell in record) if c]
        if not cells:
            continue
        rows.append([_int_from_cell(c, f"{source}: line {lineno}") for c in cells])
    if not rows:
        raise ParseError(f"{source}: no rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"{source}: rows have unequal lengths {sorted(widths)}")
    return IntMatrix(rows)


def parse_index_list(text):
    """Comma-separated column indices, e.g. ``"4,5"``."""
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise ParseError(f"bad index list {text!r}") from None


def parse_level(text):
    """Comma-separated rational level, e.g. ``"1,-3/2"`` or ``"2.5e3"``.

    Entries are held to the interpreter's digit limit for integer text
    (4300 digits when the interpreter sets none): an entry whose numerator
    or denominator has more digits is refused.  A decimal exponent larger
    in size than the limit is refused from the text alone, before the
    power of ten is computed, so a short entry cannot stall the parse.
    """
    limit = _digit_limit() or _FALLBACK_DIGIT_LIMIT
    too_long = ParseError(f"bad level {text!r}: an entry exceeds the digit limit")
    level = []
    for p in (p.strip() for p in text.split(",")):
        if not p:
            continue
        try:
            exponent = p.lower().partition("e")[2]
            if exponent and abs(int(exponent)) > limit:
                raise too_long
            x = Fraction(p)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad level {text!r}") from None
        big = max(abs(x.numerator), x.denominator)
        # below 8**limit, no power of ten is needed to show it is under 10**limit
        if big.bit_length() > 3 * limit and big >= 10**limit:
            raise too_long
        level.append(x)
    return tuple(level)


def stringify(value):
    """``value`` with every ``int`` and ``Fraction`` as a decimal string, ready for JSON.

    Matrices become lists of row lists, tuples become lists and dicts keep
    their keys; ``str``, ``bool`` and ``None`` pass through.  The digit
    limit is lifted for the whole conversion and restored afterwards; it is
    interpreter-wide, so another thread parsing meanwhile would see it
    lifted too.
    """
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _text(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _text(value):
    # exact types: the most common leaf is tested first, and a bool is not a number here
    if type(value) in (int, Fraction):
        return str(value)
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, dict):
        return {key: _text(v) for key, v in value.items()}
    return [_text(v) for v in value]


def _orbifold_section(od):
    return {
        "invariant_factors": od.invariant_factors,
        "effective_factors": orbifold.effective_factors(od),
        "group_order": od.group_order,
        "action_exponents": od.action_exponents,
        "canonical_lattice": od.canonical_lattice,
    }


def build_phase_report(cm):
    """Full phase analysis of a charge matrix as a JSON-ready dict."""
    witnesses = phases.enumerate_phases(cm)
    full_rank = cm.rank == cm.rho
    warnings = [] if full_rank else [WARN_RANK_DEFICIENT]
    phase_entries = []
    actions = []
    for w in witnesses:
        cone = cones.phase_cone(w)
        entry = {
            "chosen": w.chosen,
            "vev_fields": w.chosen,
            "lg_fields": w.coord_columns,
            "vev_block": w.vev_block,
            "row_reduced": w.row_reduced,
            "cone": {
                "generators": cone.generators,
                "interior_sample": cone.interior_sample,
                "reduced_basis": cone.reduced_basis,
            },
        }
        if full_rank:
            od = orbifold.orbifold_group(w)
            actions.append(od)
            entry["orbifold"] = _orbifold_section(od)
        else:
            entry["orbifold"] = None
        phase_entries.append(entry)
    if full_rank:
        equivalent = all(
            orbifold.actions_equivalent(actions[0], od) for od in actions[1:]
        ) if actions else True
    else:
        equivalent = None
    return stringify({
        "input": {
            "Q": cm.matrix,
            "gauge_factors": cm.rho,
            "fields": cm.num_fields,
            "rank": cm.rank,
        },
        "reduced": cm.reduced,
        "warnings": warnings,
        "phases": phase_entries,
        "cross_phase": {"all_actions_equivalent": equivalent},
    })


def _items(values):
    """One table cell for a list of strings; ``(none)`` when it is empty."""
    return ", ".join(values) or "(none)"


def _matrix_lines(rows, indent="    "):
    """Table lines of a matrix of strings, right-aligned; ``(empty)`` when it has no entries."""
    if not rows or not rows[0]:
        return [indent + "(empty)"]
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return [indent + "  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows]


def _orbifold_lines(section, indent):
    """Table lines of one stringified :func:`_orbifold_section` (``None`` when rank deficient)."""
    if section is None:
        return [indent + "orbifold: unavailable (rank-deficient gauge group)"]
    eff = section["effective_factors"]
    group = " x ".join(f"Z{d}" for d in eff) if eff else "trivial"
    return [
        f"{indent}orbifold group: {group} "
        f"(invariant factors {_items(section['invariant_factors'])}; "
        f"order {section['group_order']})",
        indent + "action exponents (row a modulo factor a):",
        *_matrix_lines(section["action_exponents"]),
        indent + "canonical action lattice:",
        *_matrix_lines(section["canonical_lattice"]),
    ]


def render_phase_table(report):
    """Human-readable rendering of :func:`build_phase_report` output.

    Numeric content is printed from the same strings the JSON carries.
    """
    inp = report["input"]
    lines = [
        f"charge matrix: {inp['gauge_factors']} x {inp['fields']}, rank {inp['rank']}",
    ]
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    lines.append(f"affine phases: {len(report['phases'])}")
    for k, entry in enumerate(report["phases"], start=1):
        lines.append(f"phase {k}: chosen columns {_items(entry['chosen'])}")
        lines.append(f"  vev fields: {_items(entry['vev_fields'])}")
        lines.append(f"  lg fields: {_items(entry['lg_fields'])}")
        lines.append("  row-reduced matrix:")
        lines.extend(_matrix_lines(entry["row_reduced"]))
        cone = entry["cone"]
        basis = " (reduced basis)" if cone["reduced_basis"] else ""
        lines.append(f"  cone generators{basis}:")
        lines.extend(_matrix_lines(cone["generators"]))
        lines.append(f"  interior sample: {_items(cone['interior_sample'])}")
        lines.extend(_orbifold_lines(entry["orbifold"], "  "))
    eq = report["cross_phase"]["all_actions_equivalent"]
    shown = "n/a" if eq is None else ("yes" if eq else "no")
    lines.append(f"cross-phase: all actions equivalent: {shown}")
    return "\n".join(lines)
