"""Input parsing and report assembly."""

import sys
from fractions import Fraction

import pytest

from lgphase import (
    IntMatrix,
    ParseError,
    WARN_RANK_DEFICIENT,
    build_phase_report,
    make_charge_matrix,
    parse_charge_matrix,
    parse_index_list,
    parse_level,
    render_phase_table,
)
from lgphase.report import stringify


class TestParsing:
    def test_json_object(self):
        m = parse_charge_matrix('{"Q": [[1, 2], [3, 4]]}', "inline")
        assert m == IntMatrix([[1, 2], [3, 4]])

    def test_bare_json_array(self):
        assert parse_charge_matrix("[[5, -1]]", "inline") == IntMatrix([[5, -1]])

    def test_csv(self):
        text = "0, 1, 1, 1, 1, -4\n1, 0, 0, 0, -2, 0\n"
        m = parse_charge_matrix(text, "m.csv")
        assert m.shape == (2, 6)

    def test_csv_skips_blank_lines(self):
        assert parse_charge_matrix("1,2\n\n3,4\n", "m.csv").shape == (2, 2)

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse_charge_matrix('{"matrix": [[1]]}', "inline")

    def test_truncated_json(self):
        with pytest.raises(ParseError) as exc:
            parse_charge_matrix('{"Q": [[1,', "inline")
        assert "inline" in str(exc.value)

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError):
            parse_charge_matrix("1,x\n", "m.csv")

    def test_fractional_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_charge_matrix("[[1.5, 2]]", "inline")

    def test_index_list(self):
        assert parse_index_list("4,5") == (4, 5)
        assert parse_index_list(" 0 , 2 ") == (0, 2)
        with pytest.raises(ParseError):
            parse_index_list("1,a")

    def test_level_fractions(self):
        assert parse_level("-3,-2") == (Fraction(-3), Fraction(-2))
        assert parse_level("-3/2") == (Fraction(-3, 2),)
        with pytest.raises(ParseError):
            parse_level("1/0")

    def test_level_digit_limit(self):
        # numerator and denominator may have as many digits as integer text
        limit = sys.get_int_max_str_digits()
        assert parse_level(f"1e{limit - 1},-1e-{limit - 1}") == (10**(limit - 1), Fraction(-1, 10**(limit - 1)))
        assert parse_level("2.5e3") == (Fraction(2500),)
        for text in (f"1e{limit}", f"1e-{limit}", f"0.3e-{limit - 1}", "1e5000", "0e5000"):
            with pytest.raises(ParseError):
                parse_level(text)


class TestStringify:
    def test_leaves_and_containers(self):
        value = {"x": (Fraction(-1, 4), 8), "m": IntMatrix([[1, 2]]), "ok": True, "no": None, "s": "a"}
        assert stringify(value) == {"x": ["-1/4", "8"], "m": [["1", "2"]], "ok": True, "no": None, "s": "a"}


class TestReport:
    def test_report_structure(self):
        rep = build_phase_report(make_charge_matrix([[0, 1, 1, 1, 1, -4],
                                                     [1, 0, 0, 0, -2, 0]]))
        assert sorted(rep) == ["cross_phase", "input", "phases", "reduced", "warnings"]
        assert rep["warnings"] == []
        assert len(rep["phases"]) == 2
        assert rep["cross_phase"]["all_actions_equivalent"] is True

    def test_single_phase_vacuously_equivalent(self):
        rep = build_phase_report(make_charge_matrix([[1, 1, -2]]))
        assert len(rep["phases"]) == 1
        assert rep["cross_phase"]["all_actions_equivalent"] is True

    def test_rank_deficient_skips_orbifold(self):
        rep = build_phase_report(make_charge_matrix([[1, 1, -2], [2, 2, -4]]))
        assert rep["warnings"] == [WARN_RANK_DEFICIENT]
        assert all(p["orbifold"] is None for p in rep["phases"])
        assert rep["cross_phase"]["all_actions_equivalent"] is None

    def test_table_matches_json_numbers(self):
        cm = make_charge_matrix([[0, 1, 1, 1, 1, -4], [1, 0, 0, 0, -2, 0]])
        rep = build_phase_report(cm)
        out = render_phase_table(rep)
        # the fraction strings in the JSON payload appear verbatim
        assert "-1/4" in out
        assert rep["phases"][0]["row_reduced"][1][1] == "-1/4"
        assert "-1/8" in out
        assert "all actions equivalent: yes" in out
