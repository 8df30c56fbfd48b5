"""Frozen CLI --json outputs: each subcommand must keep printing the same bytes.

The expected files in ``cli_corpus/`` hold stdout of one command each; the
exit code is pinned here.
"""

from pathlib import Path

import pytest

from twistcheck.cli_io import cli_main

CORPUS = Path(__file__).with_name("cli_corpus")

CASES = {
    "table_1": (["table", "--which", "1"], 0),
    "table_2": (["table", "--which", "2"], 0),
    "invariants_15": (["invariants", "--family", "15"], 0),
    "invariants_21": (["invariants", "--family", "21"], 0),
    # 11a1 in short form: integral, not minimal at 2 and 3
    "invariants_nonminimal": (["invariants", "--curve", "0,0,0,-13392,-1080432"], 0),
    "invariants_rational": (["invariants", "--curve", "1/2,1/3,0,-1,1/4"], 0),
    "lratio_21_10": (["lratio", "--family", "21", "--twist", "10"], 0),
    "lratio_15_58": (["lratio", "--family", "15", "--twist", "58"], 0),
    "certify_15_2_7": (["certify", "--family", "15", "--d", "2", "--p", "7"], 0),
    "deep_certify_ordinary": (["deep-certify", "--family", "21", "--d", "5", "--p", "11"], 0),
    "deep_certify_supersingular": (["deep-certify", "--family", "15", "--d", "2", "--p", "7"], 0),
    "admissible_15_17": (["admissible", "--family", "15", "--d", "17"], 0),
    # a mismatch row and a malformed line make the exit code 1
    "crosscheck": (["crosscheck", "--file", str(CORPUS / "crosscheck.txt")], 1),
}


@pytest.mark.parametrize("name", list(CASES))
def test_json_output_is_frozen(name, capsys):
    argv, code = CASES[name]
    assert cli_main([*argv, "--json"]) == code
    assert capsys.readouterr().out == (CORPUS / f"{name}.jsonl").read_text(encoding="utf-8")
