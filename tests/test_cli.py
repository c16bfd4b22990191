"""Command line behavior: exit codes, JSON payloads, and input formats."""

import argparse
import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import lossless_digits
from lgphase import IntMatrix, build_phase_report, cli, enumerate_phases, linalg, make_charge_matrix
from lgphase.cli import main

TWOLG_TEXT = '{"Q": [[0,1,1,1,1,-4],[1,0,0,0,-2,0]]}'
KP1P1_TEXT = '{"Q": [[1,1,0,0,-2],[0,0,1,1,-2]]}'


@pytest.fixture
def twolg_file(tmp_path):
    path = tmp_path / "twolg.json"
    path.write_text(TWOLG_TEXT)
    return str(path)


@pytest.fixture
def kp1p1_file(tmp_path):
    path = tmp_path / "kp1p1.json"
    path.write_text(KP1P1_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def assert_usage_error(capsys, argv):
    """Exit 2 with one ``error:`` line on stderr and nothing on stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestPhasesCommand:
    def test_finds_phases(self, capsys, twolg_file):
        code, out = run(capsys, ["phases", twolg_file, "--json"])
        assert code == 0
        rep = json.loads(out)
        assert [p["chosen"] for p in rep["phases"]] == [["0", "5"], ["4", "5"]]
        assert rep["input"]["rank"] == "2"
        assert rep["cross_phase"]["all_actions_equivalent"] is True

    def test_no_phase_exit_one(self, capsys, kp1p1_file):
        code, out = run(capsys, ["phases", kp1p1_file, "--json"])
        assert code == 1
        assert json.loads(out)["phases"] == []

    def test_quiet_suppresses_output(self, capsys, kp1p1_file):
        code, out = run(capsys, ["phases", kp1p1_file, "--quiet"])
        assert code == 1
        assert out == ""

    def test_values_are_strings(self, capsys, twolg_file):
        code, out = run(capsys, ["phases", twolg_file, "--json"])
        rep = json.loads(out)
        assert rep["input"]["Q"][0][5] == "-4"
        assert rep["phases"][0]["row_reduced"][1][1] == "-1/4"
        assert rep["phases"][1]["orbifold"]["effective_factors"] == ["8"]

    def test_json_round_trip(self, capsys, twolg_file):
        code, out = run(capsys, ["phases", twolg_file, "--json"])
        rep = json.loads(out)
        rows = [[int(e) for e in row] for row in rep["input"]["Q"]]
        again = build_phase_report(make_charge_matrix(rows))
        assert again == rep

    def test_table_contains_key_facts(self, capsys, twolg_file):
        code, out = run(capsys, ["phases", twolg_file, "--table"])
        assert code == 0
        assert "affine phases: 2" in out
        assert "chosen columns 4, 5" in out
        assert "Z8" in out
        assert "all actions equivalent: yes" in out

    def test_inline_json_input(self, capsys):
        code, out = run(capsys, ["phases", TWOLG_TEXT, "--json"])
        assert code == 0

    def test_bare_array_input(self, capsys):
        code, out = run(capsys, ["phases", "[[1,1,-2]]", "--json"])
        assert code == 0
        assert json.loads(out)["phases"][0]["chosen"] == ["2"]

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,1,1,1,-4\n1,0,0,0,-2,0\n")
        code, out = run(capsys, ["phases", str(path), "--json"])
        assert code == 0
        assert len(json.loads(out)["phases"]) == 2

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(TWOLG_TEXT))
        code, out = run(capsys, ["phases", "-", "--json"])
        assert code == 0

    def test_no_prune_is_refused(self, capsys, twolg_file):
        # the Gale search is the only search; the subset walk it replaced
        # lives on as the tests' oracle
        assert_usage_error(capsys, ["phases", twolg_file, "--json", "--no-prune"])

    def test_rank_deficient_warning(self, capsys):
        code, out = run(capsys, ["phases", "[[1,1,-2],[2,2,-4]]", "--json"])
        rep = json.loads(out)
        assert "rank_deficient_gauge_group" in rep["warnings"]
        assert rep["phases"][0]["orbifold"] is None
        assert rep["cross_phase"]["all_actions_equivalent"] is None


class TestErrorPaths:
    def test_unreadable_file_exit_two(self, capsys, tmp_path):
        code, _ = run(capsys, ["phases", str(tmp_path / "missing.json")])
        assert code == 2

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"Q": [[1, ')
        code, _ = run(capsys, ["phases", str(path)])
        assert code == 2

    def test_non_numeric_csv_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,foo\n")
        code, _ = run(capsys, ["phases", str(path)])
        assert code == 2

    def test_huge_json_integer_exit_two(self, capsys):
        # past the interpreter's 4300-digit limit json.loads raises a plain
        # ValueError, not JSONDecodeError
        code = main(["phases", "[[1,1,-" + "9" * 5000 + "]]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: inline matrix:")

    def test_huge_monomial_exponent_exit_two(self, capsys, twolg_file, tmp_path):
        mono = tmp_path / "mono.json"
        mono.write_text("[[" + "9" * 5000 + ",0,0,0,0,0]]")
        code = main(["check", twolg_file, "--monomials", str(mono)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_json_exit_two(self, capsys):
        # the JSON decoder raises RecursionError, not a ValueError
        code = main(["phases", "[" * 100_000])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: inline matrix:")

    def test_deeply_nested_monomials_exit_two(self, capsys, twolg_file, tmp_path):
        mono = tmp_path / "mono.json"
        mono.write_text("[" * 100_000)
        code = main(["check", twolg_file, "--monomials", str(mono)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "nested too deeply" in captured.err

    def test_long_output_values_are_lossless(self, capsys):
        # every input entry is under the interpreter's 4300-digit limit, but
        # the reduced basis holds 4850-digit entries
        q = [[10**2500 + 7, 10**2400 + 3, -1, 0], [10**2450 + 1, 3, 0, -1]]
        text = json.dumps([[str(e) for e in row] for row in q])
        limit = sys.get_int_max_str_digits()
        assert run(capsys, ["phases", text, "--quiet"]) == (0, "")
        code, out = run(capsys, ["phases", text])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        rep = json.loads(out)
        assert max(len(e) for row in rep["reduced"] for e in row) > limit
        with lossless_digits():
            assert IntMatrix([[int(e) for e in row] for row in rep["reduced"]]) == \
                make_charge_matrix(q).reduced
        assert [[int(e) for e in row] for row in rep["input"]["Q"]] == q
        # oversized input is still refused after a lossless run
        code = main(["phases", f"[[1, 1, -{'9' * (limit + 1)}]]"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: inline matrix:")

    @pytest.mark.parametrize("argv", [
        ["orbifold", "--chosen=1,2"],
        ["orbifold", "--chosen=1,2", "--table"],
        ["polytope", "--chosen=1,2", "--level=-1,-1"],
        ["polytope", "--chosen=1,2", "--level=-1,-1", "--table"],
        ["polytope", "--chosen=1,2", "--level=-1,-1", "--quiet"],
    ], ids=lambda argv: " ".join(argv))
    def test_long_orbifold_and_polytope_values_are_lossless(self, capsys, argv):
        # 4001-digit charges; the group order and a kernel entry are their
        # 8001-digit product
        a, b = 10**4000 + 1, 10**4000 + 3
        text = json.dumps([[1, -a, 0], [1, 0, -b]])
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, [argv[0], text, *argv[1:]])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        if "--quiet" in argv:
            assert out == ""
            return
        with lossless_digits():
            if "--table" in argv:
                assert str(a * b) in out
            elif argv[0] == "orbifold":
                rep = json.loads(out)
                assert [int(e) for e in rep["invariant_factors"]] == [1, a * b]
                assert int(rep["group_order"]) == a * b
            else:
                rep = json.loads(out)
                assert [int(hs["normal"][0]) for hs in rep["half_spaces"]] == [a * b, b, a]
                assert [Fraction(x) for x in rep["lift"]] == [0, Fraction(1, a), Fraction(1, b)]

    def test_long_generate_values_are_lossless(self, capsys):
        # the second model's seed echo has one digit more than the limit
        limit = sys.get_int_max_str_digits()
        seed = 10**limit - 1
        code, out = run(capsys, ["generate", "--r", "1", "--n", "2", f"--seed={seed}", "--count", "2"])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        with lossless_digits():
            seeds = [int(json.loads(ln)["config"]["seed"]) for ln in out.splitlines()]
        assert seeds == [seed, seed + 1]

    @pytest.mark.parametrize("level", ["1e5000", "-1e5000", "1e-5000", "2.5e4400",
                                       "-1e10000000", "1,2"])
    def test_malformed_level_exit_two(self, capsys, level):
        # past the digit limit (refused before any power of ten is taken),
        # or of the wrong length
        assert_usage_error(capsys, ["polytope", "[[1,1,-2]]", "--chosen", "2", f"--level={level}"])

    def test_wrong_length_monomial_exit_two(self, capsys, tmp_path):
        mono = tmp_path / "f.json"
        mono.write_text("[[1,0]]")
        assert_usage_error(capsys, ["check", "[[1,1,-2]]", "--monomials", str(mono)])

    @pytest.mark.parametrize("matrix", ["[[]]", '{"Q": [[]]}', "[[], []]"])
    def test_zero_width_rows_exit_two(self, capsys, matrix):
        assert_usage_error(capsys, ["phases", matrix])

    def test_unknown_subcommand_exit_two(self, capsys):
        assert_usage_error(capsys, ["frobnicate"])

    def test_no_subcommand_exit_two(self, capsys):
        assert_usage_error(capsys, [])

    def test_missing_required_option_exit_two(self, capsys, twolg_file):
        assert_usage_error(capsys, ["check", twolg_file])
        assert_usage_error(capsys, ["orbifold", twolg_file])

    @pytest.mark.parametrize("argv", [["--help"], ["polytope", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 0 and out.startswith("usage: lgphase")

    @pytest.mark.parametrize("command", ["orbifold", "polytope"])
    @pytest.mark.parametrize("chosen", ["5", "4,5,0", "5,5", "-1,5", "4,6", ""])
    def test_malformed_chosen_exit_two(self, capsys, twolg_file, command, chosen):
        # wrong length, duplicated, negative or out of range: a usage error
        argv = [command, twolg_file, f"--chosen={chosen}"]
        if command == "polytope":
            argv.append("--level=1,1")
        assert_usage_error(capsys, argv)

    @pytest.mark.parametrize("option", ["--r=0", "--n=-1", "--entry-bound=0",
                                        "--sample-bound=0", "--pad=-1", "--count=-3"])
    def test_out_of_range_generator_option_exit_two(self, capsys, option):
        # the later of two equal options wins
        assert_usage_error(capsys, ["generate", "--r", "1", "--n", "2", option])

    def test_generate_table_exit_two(self, capsys):
        # generate prints JSON lines only; it has no table form to select
        assert_usage_error(capsys, ["generate", "--r", "1", "--n", "0", "--table"])

    def test_zero_count_prints_nothing(self, capsys):
        assert run(capsys, ["generate", "--r", "1", "--n", "2", "--count", "0"]) == (0, "")

    def test_negative_monomial_exponent_exit_two(self, capsys, tmp_path):
        mono = tmp_path / "f.json"
        mono.write_text("[[-1,0,0]]")
        assert_usage_error(capsys, ["check", "[[1,1,-2]]", "--monomials", str(mono)])

    def test_matrix_file_not_utf8_exit_two(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_bytes(b"\xff\xfe[[1,1,-2]]")
        assert_usage_error(capsys, ["phases", str(path)])

    def test_monomials_file_not_utf8_exit_two(self, capsys, twolg_file, tmp_path):
        mono = tmp_path / "mono.json"
        mono.write_bytes(b"\xff\xfe[[1,1,-2]]")
        assert_usage_error(capsys, ["check", twolg_file, "--monomials", str(mono)])

    def test_inner_math_error_exit_one(self, capsys, twolg_file):
        # chosen columns that are linearly dependent
        code, _ = run(capsys, ["orbifold", "[[1,1,0,0,-2],[0,0,1,1,-2]]",
                               "--chosen", "0,1"])
        assert code == 1


class TestGenerateOnlyOptions:
    def test_seed_belongs_to_generate(self, capsys, twolg_file):
        assert main(["phases", twolg_file, "--seed", "7"]) == 2
        code, out = run(capsys, ["generate", "--r", "1", "--n", "2", "--seed", "7"])
        assert code == 0
        assert json.loads(out)["config"]["seed"] == "7"


class TestRepeatedCalls:
    def test_options_do_not_leak_between_calls(self, capsys, twolg_file):
        # the parser is built once per process; every call must start from
        # the defaults again
        code, out = run(capsys, ["phases", twolg_file, "--quiet", "--table"])
        assert (code, out) == (0, "")
        code, out = run(capsys, ["phases", twolg_file])
        assert code == 0
        assert [p["chosen"] for p in json.loads(out)["phases"]] == [["0", "5"], ["4", "5"]]
        code, out = run(capsys, ["generate", "--r", "1", "--n", "2", "--quiet"])
        assert (code, out) == (0, "")
        code, out = run(capsys, ["generate", "--r", "1", "--n", "2"])
        assert json.loads(out)["config"]["seed"] == "0"
        code, out = run(capsys, ["orbifold", twolg_file, "--chosen", "4,5", "--table"])
        assert out.startswith("chosen columns: 4, 5")
        code, out = run(capsys, ["orbifold", twolg_file, "--chosen", "4,5"])
        assert json.loads(out)["effective_factors"] == ["8"]


class TestOrbifoldCommand:
    def test_payload(self, capsys, twolg_file):
        code, out = run(capsys, ["orbifold", twolg_file, "--chosen", "4,5", "--json"])
        assert code == 0
        rep = json.loads(out)
        assert rep["chosen"] == ["4", "5"]
        assert rep["invariant_factors"] == ["1", "8"]
        assert rep["effective_factors"] == ["8"]
        assert rep["group_order"] == "8"
        assert rep["action_exponents"] == [["0", "0", "0", "0"], ["7", "6", "6", "6"]]
        assert rep["canonical_lattice"] == [
            ["1", "1", "1", "1"], ["0", "4", "0", "0"],
            ["0", "0", "4", "0"], ["0", "0", "0", "4"],
        ]

    def test_table_shares_phase_table_lines(self, capsys, twolg_file):
        code, out = run(capsys, ["orbifold", twolg_file, "--chosen", "4,5", "--table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == [
            "chosen columns: 4, 5",
            "orbifold group: Z8 (invariant factors 1, 8; order 8)",
        ]
        _, phase_table = run(capsys, ["phases", twolg_file, "--table"])
        assert "\n".join("  " + ln if ln[0] != " " else ln for ln in lines[1:]) in phase_table

    def test_smith_factors_multiply_back(self, capsys, twolg_file):
        code, out = run(capsys, ["orbifold", twolg_file, "--chosen", "4,5", "--json"])
        rep = json.loads(out)
        u, d, v = (IntMatrix([[int(e) for e in row] for row in rep["smith"][k]])
                   for k in ("u", "d", "v"))
        block = IntMatrix([[-2, 0], [1, -4]])
        assert u * block * v == d


class TestPinnedOutput:
    """The ``--table`` text and the JSON of ``orbifold``, ``polytope`` and ``phases``, byte for byte.

    The table is built only under ``--table``; both renderings must read
    the same as the pinned text and the pinned SHA-256 of the JSON.
    """

    ORBIFOLD = ["orbifold", "[[0,1,1,1,1,-4],[1,0,0,0,-2,0]]", "--chosen", "4,5"]
    POLYTOPE = ["polytope", "[[0,1,1,1,1,-4],[1,0,0,0,-2,0]]", "--chosen", "4,5"]

    @pytest.mark.parametrize("argv, code, table, json_sha256", [
        (ORBIFOLD, 0, """\
chosen columns: 4, 5
orbifold group: Z8 (invariant factors 1, 8; order 8)
action exponents (row a modulo factor a):
    0  0  0  0
    7  6  6  6
canonical action lattice:
    1  1  1  1
    0  4  0  0
    0  0  4  0
    0  0  0  4
""", "0e736b1ab951ed74c64004fe1e5bf1d45ee480a2363a97ece4d58a84b2041d18"),
        (POLYTOPE + ["--level=-1,-1"], 0, """\
chosen columns: 4, 5
level: -1, -1
membership: interior
lift: 0, 0, 0, 0, 1/2, 3/8
half-spaces (normal | offset):
    2  0  0  0  |  0
    0  1  0  0  |  0
    0  0  1  0  |  0
    3  3  3  4  |  0
    1  0  0  0  |  1/2
    1  1  1  1  |  3/8
simplicial cone: yes
""", "2e038895049a41a5adb037d8493b7bd0bc9a9eaabc7f76c707cfa9cc9e4971c3"),
        (POLYTOPE + ["--level=1,-1"], 1, """\
chosen columns: 4, 5
level: 1, -1
membership: outside
level is not interior to the phase cone; no verdict
""", "b1cf7e06e9959d8bba6f9225565865f17ed720d75165bef2e9344a0343579e37"),
        # degenerate shapes: a matrix with no entries reads (empty), an
        # empty list (none), and no line is blank or ends in a space
        (["orbifold", "[[1]]", "--chosen", "0"], 0, """\
chosen columns: 0
orbifold group: trivial (invariant factors 1; order 1)
action exponents (row a modulo factor a):
    (empty)
canonical action lattice:
    (empty)
""", "b378c11e82b04a2e9a454aaaa12861c2940156e5b15e7b531bb4c3ec93eca3aa"),
        (["phases", "[[0]]"], 0, """\
charge matrix: 1 x 1, rank 0
warning: rank_deficient_gauge_group
affine phases: 1
phase 1: chosen columns (none)
  vev fields: (none)
  lg fields: 0
  row-reduced matrix:
    (empty)
  cone generators (reduced basis):
    (empty)
  interior sample: 0
  orbifold: unavailable (rank-deficient gauge group)
cross-phase: all actions equivalent: n/a
""", "5bd2c53d89c4e6c281bc61ddb9e621890aabdfa8bae0c43f59cea508da24aeb9"),
        (["polytope", "[[1]]", "--chosen", "0", "--level", "1"], 0, """\
chosen columns: 0
level: 1
membership: interior
lift: 1
half-spaces (normal | offset):
    (empty)  |  1
simplicial cone: yes
""", "ae0740dc9a5c1c1b62f16f3e1bddd961869b5a6cba461c6b318ca5662fe364c2"),
    ], ids=["orbifold", "polytope-interior", "polytope-outside",
            "orbifold-trivial", "phases-rank-zero", "polytope-point"])
    def test_table_and_json_bytes(self, capsys, argv, code, table, json_sha256):
        assert run(capsys, [*argv, "--table"]) == (code, table)
        for flags in ([], ["--json"]):
            got, out = run(capsys, [*argv, *flags])
            assert got == code
            assert hashlib.sha256(out.encode()).hexdigest() == json_sha256


class TestPolytopeCommand:
    def test_interior_payload(self, capsys, twolg_file):
        code, out = run(capsys, ["polytope", twolg_file, "--chosen", "4,5",
                                 "--level=-3,-2", "--json"])
        assert code == 0
        rep = json.loads(out)
        assert rep["membership"] == "interior"
        assert rep["lift"] == ["0", "0", "0", "0", "1", "1"]
        assert rep["simplicial"] is True
        assert len(rep["half_spaces"]) == 6
        assert rep["half_spaces"][4] == {"normal": ["1", "0", "0", "0"], "offset": "1"}

    def test_outside_exit_one(self, capsys, twolg_file):
        code, out = run(capsys, ["polytope", twolg_file, "--chosen", "4,5",
                                 "--level=0,1", "--json"])
        assert code == 1
        assert json.loads(out)["membership"] == "outside"

    def test_one_kernel_and_one_inverse_per_call(self, capsys, twolg_file, monkeypatch):
        # only the cached ChargeMatrix.kernel takes a kernel; membership, the
        # simplicial check and the lift share one cone-coordinate solve;
        # verify_simplicial_cone takes the one inverse
        calls = {"integer_kernel": 0, "invert_rational": 0, "solve_exact": 0}
        for name in calls:
            def counted(*args, _fn=getattr(linalg, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(linalg, name, counted)
        code, _ = run(capsys, ["polytope", twolg_file, "--chosen", "4,5", "--level=-3,-2"])
        assert code == 0
        assert calls == {"integer_kernel": 1, "invert_rational": 1, "solve_exact": 1}

    def test_fractional_level_accepted(self, capsys):
        code, out = run(capsys, ["polytope", "[[1,1,-2]]", "--chosen", "2",
                                 "--level=-3/2", "--json"])
        assert code == 0
        assert json.loads(out)["membership"] == "interior"


class TestGenerateCommand:
    def test_deterministic_lines(self, capsys):
        argv = ["generate", "--r", "2", "--n", "3", "--seed", "7", "--count", "2",
                "--json"]
        code1, out1 = run(capsys, argv)
        code2, out2 = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = [json.loads(ln) for ln in out1.strip().splitlines()]
        assert len(lines) == 2
        assert lines[0]["Q"] == [["-3", "-5", "2", "4", "2"], ["-5", "-5", "2", "5", "2"]]
        assert lines[0]["witness"] == ["0", "1"]

    def test_entry_bound_beyond_64_bits(self, capsys):
        # the block entries are drawn from a range wider than one 64-bit output
        code, out = run(capsys, ["generate", "--r", "1", "--n", "1", "--entry-bound",
                                 "10000000000000000000", "--json"])
        assert code == 0
        rec = json.loads(out)
        assert rec["witness"] == ["0"]
        assert abs(int(rec["Q"][0][0])) <= 10**19

    def test_count_seeds_differ(self, capsys):
        code, out = run(capsys, ["generate", "--r", "1", "--n", "2", "--seed", "3",
                                 "--count", "3", "--json"])
        lines = [json.loads(ln) for ln in out.strip().splitlines()]
        seeds = [ln["config"]["seed"] for ln in lines]
        assert seeds == ["3", "4", "5"]

    def test_generated_models_reenter_pipeline(self, capsys):
        code, out = run(capsys, ["generate", "--r", "2", "--n", "2", "--seed", "11",
                                 "--count", "3", "--json"])
        for ln in out.strip().splitlines():
            rec = json.loads(ln)
            rows = [[int(e) for e in row] for row in rec["Q"]]
            chosen = tuple(int(i) for i in rec["witness"])
            ws = enumerate_phases(make_charge_matrix(rows))
            assert chosen in [w.chosen for w in ws]


class TestCheckCommand:
    def test_invariant_monomials_pass(self, capsys, twolg_file, tmp_path):
        mono = tmp_path / "mono.json"
        mono.write_text("[[2,0,0,3,1,1]]")
        code, out = run(capsys, ["check", twolg_file, "--monomials", str(mono),
                                 "--json"])
        assert code == 0

    def test_violation_exit_one(self, capsys, twolg_file, tmp_path):
        mono = tmp_path / "mono.json"
        mono.write_text("[[2,0,0,3,1,1],[1,0,0,0,0,0]]")
        code, out = run(capsys, ["check", twolg_file, "--monomials", str(mono),
                                 "--json"])
        assert code == 1


class TestDocumentedOptions:
    def test_every_documented_option_is_accepted(self):
        # every --option in the README, outside the sections that quote pip
        # and pytest, and in the cli docstring, exists on some subcommand
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sections = re.split(r"^## ", readme, flags=re.M)
        text = "".join(s for s in sections if not s.startswith(("Install", "Tests"))) + cli.__doc__
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
        assert {"--table", "--json", "--quiet", "--chosen", "--level"} <= documented
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {opt for p in sub.choices.values() for opt in p._option_string_actions}
        assert sorted(documented - accepted) == []
