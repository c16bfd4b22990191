"""Command line behavior: exit codes, JSON payloads, and input formats."""

import json

import pytest

from lgphase import IntMatrix, build_phase_report, enumerate_phases, make_charge_matrix
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

    def test_no_prune_same_result(self, capsys, twolg_file):
        code1, out1 = run(capsys, ["phases", twolg_file, "--json"])
        code2, out2 = run(capsys, ["phases", twolg_file, "--json", "--no-prune"])
        assert (code1, out1) == (code2, out2)

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

    def test_unknown_subcommand_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_option_exit_two(self, capsys, twolg_file):
        assert main(["check", twolg_file]) == 2

    def test_inner_math_error_exit_one(self, capsys, twolg_file):
        # chosen columns that are linearly dependent
        code, _ = run(capsys, ["orbifold", "[[1,1,0,0,-2],[0,0,1,1,-2]]",
                               "--chosen", "0,1"])
        assert code == 1


class TestRepeatedCalls:
    def test_options_do_not_leak_between_calls(self, capsys, twolg_file):
        # the parser is built once per process; every call must start from
        # the defaults again
        code, out = run(capsys, ["phases", twolg_file, "--quiet", "--no-prune", "--seed", "7"])
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

    def test_smith_factors_multiply_back(self, capsys, twolg_file):
        code, out = run(capsys, ["orbifold", twolg_file, "--chosen", "4,5", "--json"])
        rep = json.loads(out)
        u, d, v = (IntMatrix([[int(e) for e in row] for row in rep["smith"][k]])
                   for k in ("u", "d", "v"))
        block = IntMatrix([[-2, 0], [1, -4]])
        assert u * block * v == d


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
