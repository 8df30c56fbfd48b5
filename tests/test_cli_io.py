import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistcheck
from twistcheck.cli_io import _build_parser, cli_main, parse_curve_table

README = Path(__file__).resolve().parents[1] / "README.md"

# the least each subcommand needs on its command line to parse
MINIMAL_ARGV = {
    "invariants": ["--family", "15"],
    "lratio": ["--family", "15"],
    "certify": ["--family", "15", "--d", "2", "--p", "7"],
    "deep-certify": ["--family", "15", "--d", "2", "--p", "7"],
    "admissible": ["--family", "15", "--d", "17"],
    "table": ["--which", "1"],
    "crosscheck": ["--file", "-"],
}


def run_cli(capsys, argv):
    rc = cli_main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def readme_option_table() -> dict[str, tuple[list[str], set[str]]]:
    """option -> (its arguments in a test command line, the subcommands the
    README option table lists for it); a default of "off" marks a flag."""
    table = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = re.fullmatch(r"\| `(--[a-z-]+)` \| (.+?) \| .+? \| (.+) \|", line)
        if m:
            args = [m[1]] if m[2] == "off" else [m[1], "5"]
            table[m[1]] = (args, set(re.findall(r"`([a-z-]+)`", m[3])))
    return table


class TestParseCurveTable:
    def test_good_row(self):
        rows, diags = parse_curve_table(["15 A 1 [1,1,1,-10,-10] 0 8"])
        assert not diags
        (row,) = rows
        assert row.conductor == 15
        assert row.ainvs == (1, 1, 1, -10, -10)
        assert row.rank == 0 and row.torsion_order == 8

    def test_blank_and_comment_skipped(self):
        rows, diags = parse_curve_table(["", "   ", "# comment", "15 A 1 [1,1,1,-10,-10]"])
        assert len(rows) == 1 and not diags

    def test_arity_diagnostic(self):
        rows, diags = parse_curve_table(["15 A 1 [1,1,1,-10]"])
        assert not rows
        assert diags == [(1, "expected 5 a-invariants, got 4")]

    def test_spaced_bracket_list(self):
        rows, diags = parse_curve_table(["21 A 1 [1, 0, 0, -4, -1]"])
        assert not diags and rows[0].ainvs == (1, 0, 0, -4, -1)

    def test_bad_numbers_positioned(self):
        rows, diags = parse_curve_table(["x A 1 [1,1,1,-10,-10]", "15 A 1 [1,1,1,-10,-10]"])
        assert len(rows) == 1
        assert diags[0][0] == 1

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=40),
                st.text(alphabet="0123456789-+ [],#Axz_/.", max_size=40),
                st.builds(
                    "{} {} {} [{}] {} {}".format,
                    *(st.text(alphabet="0123456789-x ,[]", max_size=8) for _ in range(6)),
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_fuzz_rows_or_positioned_diagnostics(self, lines):
        rows, diags = parse_curve_table(lines)
        positions = [row.line_no for row in rows] + [line for line, _ in diags]
        assert len(positions) == len(set(positions))
        assert all(1 <= n <= len(lines) for n in positions)
        for row in rows:
            assert len(row.ainvs) == 5 and all(isinstance(a, int) for a in row.ainvs)
        for n in range(1, len(lines) + 1):
            if lines[n - 1].strip() and not lines[n - 1].strip().startswith("#"):
                assert n in positions

    def test_stream_never_aborts(self):
        lines = ["garbage", "15 A 1 [1,1,1,-10,-10]", "[", "21 A 1 [1,0,0,-4,-1] zz"]
        rows, diags = parse_curve_table(lines)
        assert [r.conductor for r in rows] == [15]
        assert [line for line, _ in diags] == [1, 3, 4]


class TestCli:
    def test_certify_applies(self, capsys):
        rc, out, _ = run_cli(capsys, ["certify", "--family", "15", "--d", "2", "--p", "7"])
        assert rc == 0
        assert "verdict: Applies" in out

    def test_certify_strict_failure(self, capsys):
        rc, out, _ = run_cli(capsys, ["certify", "--family", "15", "--d", "5", "--p", "11", "--strict"])
        assert rc == 1
        assert "DoesNotApply" in out

    def test_lratio_zero(self, capsys):
        rc, out, _ = run_cli(capsys, ["lratio", "--family", "21", "--twist", "10"])
        assert rc == 0
        assert "L/omega     0" in out

    def test_lratio_json_keys(self, capsys):
        rc, out, _ = run_cli(capsys, ["lratio", "--family", "15", "--twist", "2", "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert list(obj) == ["l1", "omega", "root_number", "ratio", "n_max"]
        assert obj["ratio"] == "2"

    def test_invariants_json(self, capsys):
        rc, out, _ = run_cli(capsys, ["invariants", "--family", "15", "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["conductor"] == 15
        assert obj["torsion_structure"] == [2, 4]

    def test_explicit_curve_input(self, capsys):
        rc, out, _ = run_cli(capsys, ["invariants", "--curve", "1,1,1,-10,-10", "--json"])
        assert rc == 0
        assert json.loads(out)["conductor"] == 15

    def test_curve_with_a_leading_minus(self, capsys):
        rc, out, _ = run_cli(capsys, ["invariants", "--curve=-1,0,0,-1,0", "--json"])
        assert rc == 0
        rc, same, _ = run_cli(capsys, ["invariants", "--curve", "1,0,0,-1,0", "--json"])
        assert json.loads(out)["conductor"] == json.loads(same)["conductor"]

    def test_table_json_all_match(self, capsys):
        rc, out, _ = run_cli(capsys, ["table", "--which", "1", "--json"])
        assert rc == 0
        lines = out.strip().splitlines()
        rows = [json.loads(line) for line in lines[:-1]]
        summary = json.loads(lines[-1])
        assert len(rows) == 23
        assert all(r["match"] for r in rows)
        assert summary == {"table": 1, "all_match": True}

    def test_table_json_key_order_stable(self, capsys):
        rc1, out1, _ = run_cli(capsys, ["table", "--which", "2", "--json"])
        rc2, out2, _ = run_cli(capsys, ["table", "--which", "2", "--json"])
        assert rc1 == rc2 == 0
        assert out1 == out2
        first = json.loads(out1.splitlines()[0])
        assert list(first) == [
            "table",
            "d",
            "label",
            "expected_conductor",
            "computed_conductor",
            "conductor_match",
            "expected_lratio",
            "computed_lratio",
            "lratio_match",
            "expected_admissible",
            "computed_admissible",
            "admissible_match",
            "erratum",
            "match",
        ]

    def test_admissible(self, capsys):
        rc, out, _ = run_cli(capsys, ["admissible", "--family", "21", "--d", "22", "--json"])
        assert rc == 0
        assert json.loads(out)["excluded"] == [2, 3, 7, 11]

    def test_deep_certify(self, capsys):
        rc, out, _ = run_cli(capsys, ["deep-certify", "--family", "21", "--d", "5", "--p", "11", "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["verdict"] == "Applies"
        assert obj["path"] in ("ordinary", "supersingular")

    def test_invariants_split_a_strong_pseudoprime(self, capsys):
        # 318665857834031151167461 = 399165290221 * 798330580441 passes
        # Miller-Rabin for every base 2..37
        rc, out, _ = run_cli(capsys, ["invariants", "--curve=0,0,0,-318665857834031151167461,0", "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert list(obj["tamagawa"]) == ["2", "399165290221", "798330580441"]
        assert obj["tamagawa_product"] == 8

    def test_deep_certify_at_a_strong_pseudoprime(self, capsys):
        argv = ["deep-certify", "--family", "15", "--d", "2", "--p", "318665857834031151167461", "--json"]
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0
        obj = json.loads(out)
        assert obj["verdict"] == "DoesNotApply"
        assert [c["name"] for c in obj["conditions"] if not c["passed"]] == ["p_prime_outside_base"]

    def test_usage_error_exit_2(self, capsys):
        assert run_cli(capsys, ["bogus"])[0] == 2
        assert run_cli(capsys, [])[0] == 2
        assert run_cli(capsys, ["certify", "--family", "15"])[0] == 2

    def test_options_belong_to_their_subcommand(self, capsys):
        assert run_cli(capsys, ["crosscheck", "--file", "-", "--strict"])[0] == 2
        # the series cap, the recognition tolerance, the admissible range and
        # the surjectivity sampling bound are fixed
        for name, argv in MINIMAL_ARGV.items():
            assert run_cli(capsys, [name, *argv, "--nmax-cap", "2000000"])[0] == 2
            assert run_cli(capsys, [name, *argv, "--pmax", "50"])[0] == 2
            assert run_cli(capsys, [name, *argv, "--tolerance", "1e-8"])[0] == 2
            assert run_cli(capsys, [name, *argv, "--sample-bound", "10000"])[0] == 2

    @pytest.mark.parametrize("command", ["invariants", "lratio"])
    def test_curve_names_the_curve_alone(self, capsys, command):
        # the curve is named once: a family or a twist beside --curve would go unread
        for extra in (["--family", "15"], ["--twist", "5"], ["--d", "5"], ["--family", "21", "--twist", "5"]):
            rc, out, err = run_cli(capsys, [command, "--curve=1,1,1,-10,-10", *extra])
            assert (rc, out) == (2, "")
            assert err.endswith(f"{command}: error: --curve names the curve alone: give it no --family or --twist\n")

    @pytest.mark.parametrize("command", ["invariants", "lratio"])
    def test_curve_or_family_is_required(self, capsys, command):
        for extra in ([], ["--twist", "5"]):
            rc, out, err = run_cli(capsys, [command, *extra])
            assert (rc, out) == (2, "")
            assert err.endswith(f"{command}: error: one of --family and --curve is required\n")

    def test_minimal_argv_covers_every_subcommand(self):
        assert set(subcommand_parsers()) == set(MINIMAL_ARGV)
        for name, parser in subcommand_parsers().items():
            parser.parse_args(MINIMAL_ARGV[name])

    def test_readme_option_table_matches_the_parser(self, capsys):
        table = readme_option_table()
        assert set(table) == {"--strict"}
        for option, (args, listed) in table.items():
            assert listed and listed <= set(MINIMAL_ARGV), option
            for name, parser in subcommand_parsers().items():
                if name in listed:
                    parser.parse_args([*MINIMAL_ARGV[name], *args])
                else:
                    assert run_cli(capsys, [name, *MINIMAL_ARGV[name], *args])[0] == 2, (name, option)

    def test_every_accepted_option_is_in_the_readme(self):
        # an option is either in the option table or, for the arguments that
        # name the curve, the twist, the prime or the input, in the examples
        text = README.read_text(encoding="utf-8")
        examples = text.split("## Command line", 1)[1].split("```")[1]
        documented = {*readme_option_table(), *re.findall(r"--[a-z][a-z-]*", examples), "-h", "--help"}
        for name, parser in subcommand_parsers().items():
            for action in parser._actions:
                for flag in action.option_strings:
                    assert flag in documented, (name, flag)

    def test_value_error_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, ["admissible", "--family", "15", "--d", "5"])
        assert rc == 1
        assert "error:" in err
        rc, _, err = run_cli(capsys, ["invariants", "--curve", "0,0,0,0,1/0"])
        assert rc == 1
        assert "error: a6 = '1/0'" in err

    @pytest.mark.parametrize("flag", ["--twist", "--d"])
    def test_twist_zero_is_refused(self, capsys, flag):
        for command in ("lratio", "invariants"):
            rc, out, err = run_cli(capsys, [command, "--family", "15", flag, "0"])
            assert (rc, out) == (1, "")
            assert "twist parameter must be nonzero" in err

    def test_series_cap_is_an_error(self, capsys):
        # 15A1 twisted by 9998 needs 1,142,411 series terms
        rc, out, err = run_cli(capsys, ["lratio", "--family", "15", "--twist", "9998"])
        assert (rc, out) == (1, "")
        assert err == "error: series needs 1142411 terms, cap is 1000000\n"

    def test_series_cap_at_a_huge_conductor(self, capsys):
        # N ~ 10^38, where exp(-c) rounds to 1 in the series length
        rc, out, err = run_cli(capsys, ["lratio", "--curve=0,0,0,-3000000040000000133,0"])
        assert (rc, out) == (1, "")
        assert re.fullmatch(r"error: series needs \d+ terms, cap is 1000000\n", err)

    def test_certify_past_the_series_cap(self, capsys):
        # the family commands read L/Omega from modular symbols, not the series
        rc, out, _ = run_cli(capsys, ["certify", "--family", "15", "--d", "9998", "--p", "7", "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["verdict"] == "Applies"
        (cond,) = [c for c in obj["conditions"] if c["name"] == "l_ratio_p_unit"]
        assert cond["evidence"]["ratio"] == "8"

    def test_admissible_past_the_series_cap(self, capsys):
        rc, out, _ = run_cli(capsys, ["admissible", "--family", "21", "--d", "9998"])
        assert (rc, out) == (0, "none\n")

    def test_crosscheck(self, capsys, tmp_path):
        good = tmp_path / "ref.txt"
        good.write_text(
            "# reference rows\n"
            "15 A 1 [1,1,1,-10,-10] 0 8\n"
            "21 A 1 [1,0,0,-4,-1] 0 8\n"
        )
        rc, out, _ = run_cli(capsys, ["crosscheck", "--file", str(good)])
        assert rc == 0
        assert out.count(": ok") == 2

        bad = tmp_path / "bad.txt"
        bad.write_text("15 A 1 [1,1,1,-10,-10] 0 4\n960 Z 9 [0,1,0,-641,-3105]\n")
        rc, out, _ = run_cli(capsys, ["crosscheck", "--file", str(bad), "--json"])
        assert rc == 1
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["ok"] is False  # torsion order 4 recomputes to 8
        assert rows[1]["ok"] is True  # conductor 960 confirms

    def test_crosscheck_unreadable_file_exit_1(self, capsys, tmp_path):
        # a missing file and a directory: one error line, no traceback
        for path in (tmp_path / "missing.txt", tmp_path):
            rc, out, err = run_cli(capsys, ["crosscheck", "--file", str(path)])
            assert (rc, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_import_leaves_numpy_out():
    src = Path(twistcheck.__file__).resolve().parents[1]
    code = "import sys, twistcheck.cli_io; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"
