"""Command-line interface.

Subcommands: ``phases``, ``orbifold``, ``polytope``, ``generate``,
``check``.  Input is a path to JSON (``{"Q": [[...]]}`` or a bare array)
or CSV, ``-`` for stdin, or an inline JSON array.  Exit codes: 0 when
phases were found or a check passed, 1 when none were found or a check
failed (including mathematical errors on well-formed input), 2 on usage
or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from . import cones, generate, orbifold, phases, report
from .errors import LgPhaseError, ParseError

__all__ = [
    "main",
    "entry_point",
    "cmd_phases",
    "cmd_orbifold",
    "cmd_polytope",
    "cmd_generate",
    "cmd_check",
]


def _read_matrix_argument(spec):
    if spec == "-":
        return report.parse_charge_matrix(sys.stdin.read(), source="stdin")
    if spec.lstrip().startswith(("[", "{")):
        return report.parse_charge_matrix(spec, source="inline matrix")
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {spec!r}: {e.strerror}") from None
    return report.parse_charge_matrix(text, source=spec)


def _emit(args, payload, table_text=None):
    if getattr(args, "quiet", False):
        return
    if getattr(args, "table", False) and table_text is not None:
        print(table_text)
    else:
        print(json.dumps(payload, indent=2))


def cmd_phases(args):
    cm = phases.make_charge_matrix(_read_matrix_argument(args.matrix))
    rep = report.build_phase_report(cm, prune=not args.no_prune)
    _emit(args, rep, report.render_phase_table(rep))
    return 0 if rep["phases"] else 1


def cmd_orbifold(args):
    cm = phases.make_charge_matrix(_read_matrix_argument(args.matrix))
    chosen = report.parse_index_list(args.chosen)
    w = phases.check_witness(cm, chosen)
    od = orbifold.orbifold_group(w)
    payload = {
        "chosen": [str(j) for j in w.chosen],
        "smith": {
            "u": report.report_matrix(od.smith.u),
            "d": report.report_matrix(od.smith.d),
            "v": report.report_matrix(od.smith.v),
        },
        "invariant_factors": [str(d) for d in od.invariant_factors],
        "effective_factors": [str(d) for d in orbifold.effective_factors(od)],
        "group_order": str(od.group_order),
        "action_exponents": report.report_matrix(od.action_exponents),
        "canonical_lattice": report.report_matrix(od.canonical_lattice),
    }
    eff = payload["effective_factors"]
    table = "\n".join(
        [
            f"chosen columns: {', '.join(payload['chosen'])}",
            f"orbifold group: {' x '.join('Z' + d for d in eff) if eff else 'trivial'}",
            f"invariant factors: {', '.join(payload['invariant_factors']) or '-'}",
            f"group order: {payload['group_order']}",
            "action exponents (row a modulo factor a):",
            *report._matrix_lines(payload["action_exponents"]),
            "canonical action lattice:",
            *report._matrix_lines(payload["canonical_lattice"]),
        ]
    )
    _emit(args, payload, table)
    return 0


def cmd_polytope(args):
    cm = phases.make_charge_matrix(_read_matrix_argument(args.matrix))
    chosen = report.parse_index_list(args.chosen)
    level = report.parse_level(args.level)
    w = phases.check_witness(cm, chosen)
    membership = cones.is_in_phase_cone(w, level)
    simplicial = None
    if membership == cones.INTERIOR:
        simplicial = cones.verify_simplicial_cone(w, level)
        poly = cones.moment_polyhedron(cm, level, w)
        spaces = [
            {"normal": [str(e) for e in hs.normal], "offset": str(hs.offset)}
            for hs in poly.half_spaces
        ]
        lift = [str(e) for e in poly.lift]
    else:
        spaces = None
        lift = None
    payload = {
        "chosen": [str(j) for j in w.chosen],
        "level": [str(x) for x in level],
        "membership": membership,
        "lift": lift,
        "half_spaces": spaces,
        "simplicial": simplicial,
    }
    lines = [
        f"chosen columns: {', '.join(payload['chosen'])}",
        f"level: {', '.join(payload['level'])}",
        f"membership: {membership}",
    ]
    if spaces is not None:
        lines.append(f"lift: {', '.join(lift)}")
        lines.append("half-spaces (normal | offset):")
        for hs in spaces:
            lines.append("    " + "  ".join(hs["normal"]) + "  |  " + hs["offset"])
        lines.append(f"simplicial cone: {'yes' if simplicial else 'no'}")
    else:
        lines.append("level is not interior to the phase cone; no verdict")
    _emit(args, payload, "\n".join(lines))
    return 0 if simplicial else 1


def cmd_generate(args):
    code = 0
    for k in range(args.count):
        cfg = generate.GeneratorConfig(
            r=args.r,
            n=args.n,
            seed=args.seed + k,
            entry_bound=args.entry_bound,
            sample_bound=args.sample_bound,
            allow_zero_columns=args.allow_zero_columns,
            pad_dependent_rows=args.pad,
        )
        q = generate.random_lg_model(cfg)
        w = generate.witness_of_construction(q, cfg)
        payload = {
            "config": {key: str(value) for key, value in asdict(cfg).items()},
            "Q": report.report_matrix(q),
            "witness": [str(j) for j in w.chosen],
        }
        if not args.quiet:
            print(json.dumps(payload))
    return code


def cmd_check(args):
    cm = phases.make_charge_matrix(_read_matrix_argument(args.matrix))
    try:
        with open(args.monomials, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {args.monomials!r}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ParseError(
            f"{args.monomials}: bad JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except ValueError as e:
        raise ParseError(f"{args.monomials}: {e}") from None
    except RecursionError:
        raise ParseError(f"{args.monomials}: JSON nested too deeply") from None
    if not isinstance(data, list) or not all(isinstance(m, list) for m in data):
        raise ParseError(f"{args.monomials}: expected a JSON list of exponent vectors")
    monomials = [[report._int_from_cell(c, f"monomial {i}") for c in m] for i, m in enumerate(data)]
    ok = phases.check_superpotential_invariance(cm, monomials)
    payload = {"monomials": str(len(monomials)), "all_invariant": ok}
    table = f"checked {len(monomials)} monomials: " + ("all gauge invariant" if ok else "violation found")
    _emit(args, payload, table)
    return 0 if ok else 1


@functools.cache
def _build_parser():
    """The argument parser, built on first use and reused by later calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output (the default)")
    common.add_argument("--table", action="store_true", help="human-readable output")
    common.add_argument("--quiet", action="store_true", help="suppress output, use the exit code")
    common.add_argument("--seed", type=int, default=0, help="generator seed (generate only)")

    parser = argparse.ArgumentParser(
        prog="lgphase",
        description="Decide and analyze affine Landau-Ginzburg phases of a charge matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phases", parents=[common], help="enumerate all affine phases")
    p.add_argument("matrix", help="path, '-' for stdin, or inline JSON")
    p.add_argument("--no-prune", action="store_true", help="test every column subset")
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("orbifold", parents=[common], help="orbifold group of one witness")
    p.add_argument("matrix")
    p.add_argument("--chosen", required=True, help="comma-separated column indices")
    p.set_defaults(func=cmd_orbifold)

    p = sub.add_parser("polytope", parents=[common], help="moment polyhedron at a level")
    p.add_argument("matrix")
    p.add_argument("--chosen", required=True)
    p.add_argument("--level", required=True, help="comma-separated rational level")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("generate", parents=[common], help="draw random models with a built-in phase")
    p.add_argument("--r", type=int, required=True, help="vacuum columns")
    p.add_argument("--n", type=int, required=True, help="coordinate columns")
    p.add_argument("--entry-bound", type=int, default=5)
    p.add_argument("--sample-bound", type=int, default=5)
    p.add_argument("--pad", type=int, default=0, help="dependent padding rows")
    p.add_argument("--count", type=int, default=1, help="models to emit (seeds seed, seed+1, ...)")
    p.add_argument("--allow-zero-columns", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", parents=[common], help="gauge invariance of superpotential monomials")
    p.add_argument("matrix")
    p.add_argument("--monomials", required=True, help="JSON file with exponent vectors")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LgPhaseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
