import json
from pathlib import Path

import pytest

from fo2words.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schema"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_ranker_worked_example(capsys):
    code, out, _ = run(capsys, "eval-ranker", ">a>c<b", "cababcba")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "eval-ranker", ">a>c<b", "acbbca")
    assert code == 0 and out.strip() == "UNDEFINED"


def test_witness_lines(capsys):
    code, out, _ = run(capsys, "witness", "-m", "2", "-n", "1")
    assert code == 0 and out.splitlines() == ["ababa", "baba"]
    code, out, _ = run(capsys, "witness", "-m", "1", "-n", "1")
    assert code == 0 and out.splitlines() == ["a", ""]


def test_witness_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(capsys, "witness", "-m", "2", "-n", "1", "--format", "json")
    assert code == 0
    record = json.loads(out)
    schema = json.loads((SCHEMA_DIR / "witness_pair.v1.json").read_text())
    jsonschema.validate(record, schema)
    assert record["u"] == "ababa"


def test_equiv_both_agrees(capsys):
    code, out, _ = run(capsys, "equiv", "ab", "ba", "-n", "2", "--method", "both")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] is False
    assert record["methodsAgree"] is True


def test_equiv_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(capsys, "equiv", "ab", "ba", "-n", "2")
    record = json.loads(out)
    schema = json.loads((SCHEMA_DIR / "equiv_report.v1.json").read_text())
    jsonschema.validate(record["ranker"], schema)


def test_equiv_golden_output(capsys):
    code, out, _ = run(capsys, "equiv", "ab", "ba", "-n", "1")
    assert code == 0
    assert json.loads(out) == {
        "u": "ab",
        "v": "ba",
        "n": 1,
        "m": None,
        "signature": "order",
        "method": "ranker",
        "ranker": {
            "n": 1,
            "m": None,
            "signature": "order",
            "verdict": True,
            "failedCondition": "none",
            "witnesses": [],
        },
        "verdict": True,
    }


def test_check_and_metrics(tmp_path, capsys):
    f = tmp_path / "formula.txt"
    f.write_text("Ex.Ay. (y<x | a(y))")
    code, out, _ = run(capsys, "check", str(f), "aba")
    assert code == 0 and out.strip() in ("true", "false")
    code, out, _ = run(capsys, "metrics", str(f))
    assert code == 0
    assert "quantifier depth: 2" in out
    assert "alternation depth: 2" in out


def test_check_with_assignment(tmp_path, capsys):
    f = tmp_path / "formula.txt"
    f.write_text("a(x)")
    code, out, _ = run(capsys, "check", str(f), "bab", "-x", "2")
    assert code == 0 and out.strip() == "true"


def test_synth_commands(capsys):
    code, out, _ = run(capsys, "synth", ">a")
    assert code == 0 and out.strip() == "(Ex.a(x))"
    code, out, _ = run(capsys, "synth", ">a", "--position")
    assert code == 0 and "a(x)" in out


def test_synth_reports_alternation_depth(capsys):
    code, out, _ = run(capsys, "synth", ">a<b>a", "--position", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["rankerBlocks"] == 3
    assert record["quantifierDepth"] <= record["rankerLength"] == 3
    assert isinstance(record["alternationDepth"], int)


def test_method_both_never_disagrees_over_corpus(capsys):
    # the cross-check contract surfaced at the CLI level
    import itertools

    words = ["", "a", "b", "ab", "ba", "aab", "bab", "abab", "baba"]
    for u, v in itertools.product(words, repeat=2):
        for n in ("1", "2"):
            code, out, _ = run(
                capsys, "equiv", u, v, "-n", n, "--method", "both", "--alphabet", "ab"
            )
            assert code == 0, (u, v, n, out)
            assert json.loads(out)["methodsAgree"] is True


def test_rankers_listing(capsys):
    code, out, _ = run(capsys, "rankers", "ababa", "-n", "1")
    assert code == 0
    assert out.splitlines() == [">a\t1", ">b\t2", "<a\t5", "<b\t4"]


def test_sat_command(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    f = tmp_path / "formula.txt"
    f.write_text("Ex. a(x)")
    code, out, _ = run(capsys, "sat", str(f), "--alphabet", "a")
    assert code == 0
    record = json.loads(out)
    schema = json.loads((SCHEMA_DIR / "sat_result.v1.json").read_text())
    del record["alphabet"]
    jsonschema.validate(record, schema)
    assert record["status"] == "sat" and record["witness"] == "a"


def test_shrink_command(capsys):
    code, out, _ = run(capsys, "shrink", "abbbbbbbbba", "-n", "2")
    assert code == 0 and out.strip() == "abbbba"


def test_reduce_cnf_command(tmp_path, capsys):
    f = tmp_path / "cnf.txt"
    f.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    code, out, _ = run(capsys, "reduce-cnf", str(f), "--solve")
    assert code == 0
    record = json.loads(out)
    assert record["variables"] == 2
    assert record["sat"]["status"] == "sat"
    assert record["sat"]["witness"] == "11"


def test_verify_hierarchy_command(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(capsys, "verify-hierarchy", "-m", "2", "-n", "2")
    assert code == 0
    record = json.loads(out)
    schema = json.loads((SCHEMA_DIR / "hierarchy_report.v1.json").read_text())
    jsonschema.validate(record, schema)
    assert record["ok"] is True


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "eval-ranker", "not-a-ranker", "ab")
    assert code == 1
    assert "error[usage]" in err
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1


def test_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, "rankers", "ababab", "-n", "3", "--cap", "2")
    assert code == 2
    assert "error[resource-cap]" in err


def test_verify_hierarchy_over_game_cap_exits_2(capsys):
    # the level's game is far over the cell cap; it must fail fast and cleanly
    code, out, err = run(capsys, "verify-hierarchy", "-m", "3", "-n", "3", "--suc")
    assert code == 2
    assert "error[resource-cap]" in err
    assert "Traceback" not in err and out == ""


def test_stdin_and_file_inputs(tmp_path, capsys, monkeypatch):
    word_file = tmp_path / "word.txt"
    word_file.write_text("cababcba\n")
    code, out, _ = run(capsys, "eval-ranker", ">a>c<b", f"@{word_file}")
    assert code == 0 and out.strip() == "5"

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("cababcba\n"))
    code, out, _ = run(capsys, "eval-ranker", ">a>c<b", "-")
    assert code == 0 and out.strip() == "5"


def test_empty_word_argument(capsys):
    code, out, _ = run(capsys, "equiv", "", "a", "-n", "1", "--method", "game")
    assert code == 0
    assert json.loads(out)["verdict"] is False
