"""Command-line interface.

Subcommands: ``phases``, ``orbifold``, ``polytope``, ``generate``,
``check``.  Input is a path to JSON (``{"Q": [[...]]}`` or a bare array)
or CSV, ``-`` for stdin, or an inline JSON array.  Every subcommand
prints JSON (``--json``, the default) or nothing (``--quiet``); all but
``generate`` also print a table under ``--table``.  Exit codes: 0 when
phases were found or a check passed, 1 when none were found or a check
failed (including mathematical errors on well-formed input), 2 on usage
or parse errors, each printed as one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from . import cones, generate, orbifold, phases, report
from .errors import DimensionMismatch, LgPhaseError, ParseError

__all__ = [
    "main",
    "entry_point",
    "cmd_phases",
    "cmd_orbifold",
    "cmd_polytope",
    "cmd_generate",
    "cmd_check",
]


def _read_file(path):
    """The UTF-8 text of the file at ``path``; unreadable files are a :class:`ParseError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: {e}") from None


def _read_matrix_argument(spec):
    if spec == "-":
        return report.parse_charge_matrix(sys.stdin.read(), source="stdin")
    if spec.lstrip().startswith(("[", "{")):
        return report.parse_charge_matrix(spec, source="inline matrix")
    return report.parse_charge_matrix(_read_file(spec), source=spec)


def _usage(label, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; its ``ValueError`` or :class:`DimensionMismatch`, a
    malformed argument, is a :class:`ParseError`."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, DimensionMismatch) as e:
        raise ParseError(f"{label}{e}") from None


def _emit(args, payload, table_text=None):
    if getattr(args, "quiet", False):
        return
    if getattr(args, "table", False) and table_text is not None:
        print(table_text)
    else:
        print(json.dumps(payload, indent=2))


def cmd_phases(args):
    cm = phases.make_charge_matrix(_read_matrix_argument(args.matrix))
    rep = report.build_phase_report(cm)
    _emit(args, rep, report.render_phase_table(rep))
    return 0 if rep["phases"] else 1


def cmd_orbifold(args):
    cm = phases.make_charge_matrix(_read_matrix_argument(args.matrix))
    w = _usage("--chosen: ", phases.check_witness, cm, report.parse_index_list(args.chosen))
    od = orbifold.orbifold_group(w)
    payload = report.stringify({
        "chosen": w.chosen,
        "smith": {"u": od.smith.u, "d": od.smith.d, "v": od.smith.v},
        **report._orbifold_section(od),
    })
    table = None
    if args.table:
        chosen = f"chosen columns: {report._items(payload['chosen'])}"
        table = "\n".join([chosen, *report._orbifold_lines(payload, "")])
    _emit(args, payload, table)
    return 0


def cmd_polytope(args):
    cm = phases.make_charge_matrix(_read_matrix_argument(args.matrix))
    chosen = report.parse_index_list(args.chosen)
    level = report.parse_level(args.level)
    w = _usage("--chosen: ", phases.check_witness, cm, chosen)
    membership = _usage("--level: ", cones.is_in_phase_cone, w, level)
    simplicial = spaces = lift = None
    if membership == cones.INTERIOR:
        simplicial = cones.verify_simplicial_cone(w, level)
        poly = cones.moment_polyhedron(cm, level, w)
        lift = poly.lift
        spaces = [hs._asdict() for hs in poly.half_spaces]
    payload = report.stringify({
        "chosen": w.chosen,
        "level": level,
        "membership": membership,
        "lift": lift,
        "half_spaces": spaces,
        "simplicial": simplicial,
    })
    _emit(args, payload, _polytope_table(payload, simplicial) if args.table else None)
    return 0 if simplicial else 1


def _polytope_table(payload, simplicial):
    """The ``--table`` text of a stringified :func:`cmd_polytope` payload."""
    lines = [
        f"chosen columns: {report._items(payload['chosen'])}",
        f"level: {report._items(payload['level'])}",
        f"membership: {payload['membership']}",
    ]
    if payload["half_spaces"] is not None:
        lines.append(f"lift: {report._items(payload['lift'])}")
        lines.append("half-spaces (normal | offset):")
        for hs in payload["half_spaces"]:
            lines.append(f"    {'  '.join(hs['normal']) or '(empty)'}  |  {hs['offset']}")
        lines.append(f"simplicial cone: {'yes' if simplicial else 'no'}")
    else:
        lines.append("level is not interior to the phase cone; no verdict")
    return "\n".join(lines)


def cmd_generate(args):
    if args.count < 0:
        raise ParseError(f"--count must be nonnegative, got {args.count}")
    for k in range(args.count):
        cfg = _usage(
            "",
            generate.GeneratorConfig,
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
        # the flag prints as the string "False" or "True", like every other config value
        config = {**asdict(cfg), "allow_zero_columns": str(cfg.allow_zero_columns)}
        if not args.quiet:
            print(json.dumps(report.stringify({"config": config, "Q": q, "witness": w.chosen})))
    return 0


def cmd_check(args):
    cm = phases.make_charge_matrix(_read_matrix_argument(args.matrix))
    data = report._decode_json(_read_file(args.monomials), args.monomials)
    if not isinstance(data, list) or not all(isinstance(m, list) for m in data):
        raise ParseError(f"{args.monomials}: expected a JSON list of exponent vectors")
    monomials = [[report._int_from_cell(c, f"monomial {i}") for c in m] for i, m in enumerate(data)]
    ok = _usage(f"{args.monomials}: ", phases.check_superpotential_invariance, cm, monomials)
    payload = report.stringify({"monomials": len(monomials), "all_invariant": ok})
    verdict = "all gauge invariant" if ok else "violation found"
    _emit(args, payload, f"checked {payload['monomials']} monomials: {verdict}")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`ParseError`; subparsers inherit it."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def _build_parser():
    """The argument parser, built on first use and reused by later calls."""
    plain = _Parser(add_help=False)  # generate has no table form
    plain.add_argument("--json", action="store_true", help="JSON output (the default)")
    plain.add_argument("--quiet", action="store_true", help="suppress output, use the exit code")
    common = _Parser(add_help=False, parents=[plain])
    common.add_argument("--table", action="store_true", help="human-readable output")

    parser = _Parser(
        prog="lgphase",
        description="Decide and analyze affine Landau-Ginzburg phases of a charge matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phases", parents=[common], help="enumerate all affine phases")
    p.add_argument("matrix", help="path, '-' for stdin, or inline JSON")
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

    p = sub.add_parser("generate", parents=[plain], help="draw random models with a built-in phase")
    p.add_argument("--r", type=int, required=True, help="vacuum columns")
    p.add_argument("--n", type=int, required=True, help="coordinate columns")
    p.add_argument("--entry-bound", type=int, default=5)
    p.add_argument("--sample-bound", type=int, default=5)
    p.add_argument("--pad", type=int, default=0, help="dependent padding rows")
    p.add_argument("--seed", type=int, default=0, help="generator seed of the first model")
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
        return args.func(args)
    except SystemExit:  # --help, after printing the help text
        return 0
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
