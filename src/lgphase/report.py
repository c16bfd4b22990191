"""Report assembly and lossless serialization for the command line.

Every numeric leaf is serialized as a decimal string (``"p/q"`` for
rationals), so arbitrarily large values survive a JSON round trip in any
consumer.  Parsing accepts the same forms back.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from . import cones, orbifold, phases
from .errors import ParseError
from .linalg import IntMatrix

__all__ = [
    "parse_charge_matrix",
    "parse_index_list",
    "parse_level",
    "build_phase_report",
    "report_matrix",
    "render_phase_table",
]

WARN_RANK_DEFICIENT = "rank_deficient_gauge_group"


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
    return IntMatrix(out)


def parse_charge_matrix(text, source="input"):
    """Charge matrix from JSON (``{"Q": [[...]]}`` or a bare array) or CSV."""
    stripped = text.strip()
    if not stripped:
        raise ParseError(f"{source}: empty input")
    if stripped[0] in "{[":
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as e:
            raise ParseError(f"{source}: bad JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
        except ValueError as e:
            # integers past the interpreter's digit limit for str -> int
            raise ParseError(f"{source}: {e}") from None
        except RecursionError:
            raise ParseError(f"{source}: JSON nested too deeply") from None
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
    """Comma-separated rational level, e.g. ``"1,-3/2"``."""
    try:
        return tuple(Fraction(p.strip()) for p in text.split(",") if p.strip() != "")
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad level {text!r}") from None


def report_matrix(m):
    """Matrix to JSON-ready rows of strings."""
    return [[str(e) for e in row] for row in m.rows]


def _report_vector(v):
    return [str(e) for e in v]


def _orbifold_section(od):
    return {
        "invariant_factors": _report_vector(od.invariant_factors),
        "effective_factors": _report_vector(orbifold.effective_factors(od)),
        "group_order": str(od.group_order),
        "action_exponents": report_matrix(od.action_exponents),
        "canonical_lattice": report_matrix(od.canonical_lattice),
    }


def build_phase_report(cm, prune=True):
    """Full phase analysis of a charge matrix as a JSON-ready dict."""
    witnesses = phases.enumerate_phases(cm, prune=prune)
    full_rank = cm.rank == cm.rho
    warnings = [] if full_rank else [WARN_RANK_DEFICIENT]
    phase_entries = []
    actions = []
    for w in witnesses:
        cone = cones.phase_cone(w)
        entry = {
            "chosen": _report_vector(w.chosen),
            "vev_fields": _report_vector(w.chosen),
            "lg_fields": _report_vector(w.coord_columns),
            "vev_block": report_matrix(w.vev_block),
            "row_reduced": report_matrix(w.row_reduced),
            "cone": {
                "generators": report_matrix(cone.generators),
                "interior_sample": _report_vector(cone.interior_sample),
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
    return {
        "input": {
            "Q": report_matrix(cm.matrix),
            "gauge_factors": str(cm.rho),
            "fields": str(cm.num_fields),
            "rank": str(cm.rank),
        },
        "reduced": report_matrix(cm.reduced),
        "warnings": warnings,
        "phases": phase_entries,
        "cross_phase": {"all_actions_equivalent": equivalent},
    }


def _matrix_lines(rows, indent="    "):
    if not rows:
        return [indent + "(empty)"]
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))] if rows[0] else []
    out = []
    for r in rows:
        out.append(indent + "  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return out


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
        lines.append(f"phase {k}: chosen columns {', '.join(entry['chosen'])}")
        lines.append(f"  vev fields: {', '.join(entry['vev_fields']) or '(none)'}")
        lines.append(f"  lg fields: {', '.join(entry['lg_fields']) or '(none)'}")
        lines.append("  row-reduced matrix:")
        lines.extend(_matrix_lines(entry["row_reduced"]))
        cone = entry["cone"]
        basis = " (reduced basis)" if cone["reduced_basis"] else ""
        lines.append(f"  cone generators{basis}:")
        lines.extend(_matrix_lines(cone["generators"]))
        lines.append(f"  interior sample: {', '.join(cone['interior_sample'])}")
        od = entry["orbifold"]
        if od is None:
            lines.append("  orbifold: unavailable (rank-deficient gauge group)")
        else:
            eff = od["effective_factors"]
            group = " x ".join(f"Z{d}" for d in eff) if eff else "trivial"
            lines.append(
                f"  orbifold group: {group} "
                f"(invariant factors {', '.join(od['invariant_factors']) or '-'}; "
                f"order {od['group_order']})"
            )
            lines.append("  action exponents (row a modulo factor a):")
            lines.extend(_matrix_lines(od["action_exponents"]))
            lines.append("  canonical action lattice:")
            lines.extend(_matrix_lines(od["canonical_lattice"]))
    eq = report["cross_phase"]["all_actions_equivalent"]
    shown = "n/a" if eq is None else ("yes" if eq else "no")
    lines.append(f"cross-phase: all actions equivalent: {shown}")
    return "\n".join(lines)
