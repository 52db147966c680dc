import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fo2words.cli import main

REPO = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO / "schema"


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


def test_equiv_both_exits_3_on_disagreement(capsys, monkeypatch):
    # a game that answers wrongly stands in for a defect in either decider
    from fo2words import GameVerdict, efgames

    monkeypatch.setattr(efgames, "game_equiv", lambda *args, **kwargs: GameVerdict(True))
    code, out, err = run(capsys, "equiv", "ab", "ba", "-n", "2", "--method", "both", "--format", "text")
    assert code == 3 and err == ""
    assert out.splitlines() == ["ranker: distinguishable", "game: equivalent", "methods agree: False"]


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


def test_metrics_letters_are_what_the_parser_reads(tmp_path, capsys):
    # without --alphabet any visible character can be a letter, '-' too
    f = tmp_path / "formula.txt"
    f.write_text("Ex.-(x)")
    code, out, err = run(capsys, "metrics", str(f), "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["quantifierDepth"] == 1
    f.write_text("")
    code, out, err = run(capsys, "metrics", str(f))
    assert code == 1 and out == ""
    assert err == "error[usage]: unexpected end of input (at position 0)\n"


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
    for flag in ("--max-len", "--exact-len"):
        code, out, err = run(capsys, "sat", str(f), "--alphabet", "a", flag, "-1")
        assert code == 1 and out == ""
        assert "must be >= 0" in err


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


def test_verify_hierarchy_text_prints_json_literals(capsys):
    code, out, _ = run(capsys, "verify-hierarchy", "-m", "2", "-n", "2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert "indistinguishableByRankers: true" in lines
    assert 'separatingRankers: [">a", ">b"]' in lines
    assert "sentenceSeparation: null" in lines
    assert "separationDepth: 2" in lines
    assert "u: ababababa" in lines and "ordU: <" in lines
    assert not any(word in out for word in ("True", "False", "None", "'"))


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
    code, out, err = run(capsys, "verify-hierarchy", "-m", "6", "-n", "6", "--suc")
    assert code == 2
    assert "error[resource-cap]" in err
    assert "Traceback" not in err and out == ""


DEEP_INPUTS = {
    "check-5000-negations": ("check", "!" * 5000 + "Ex.a(x)", "a"),
    "check-3000-parentheses": ("check", "(" * 3000 + "Ex.a(x)" + ")" * 3000, "a"),
    "metrics-1500-quantifiers": ("metrics", "Ex.Ey." * 750 + "a(x)"),
    "reduce-cnf-1500-variables": ("reduce-cnf", "p cnf 1500 1\n1 0\n"),
}


@pytest.mark.parametrize("case", [*DEEP_INPUTS, "synth-1000-steps"])
def test_deep_input_exits_2_without_traceback(case, tmp_path, capsys):
    # the formula walkers are recursive; input nested past the recursion
    # limit is reported as a resource cap, in one line
    if case in DEEP_INPUTS:
        command, source, *rest = DEEP_INPUTS[case]
        f = tmp_path / "input.txt"
        f.write_text(source)
        argv = [command, str(f), *rest]
    else:
        argv = ["synth", ">a" * 1000]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error[resource-cap]: ")
    assert "recursion limit" in err and "Traceback" not in err


def _fresh(code: str) -> str:
    """Runs `code` in a fresh interpreter that imports fo2words from src/."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_imports_without_numpy():
    # the library has no runtime dependency; only the tests' reference solver uses numpy
    _fresh("import fo2words.cli, sys; assert 'numpy' not in sys.modules")


# each command's arguments, and the modules it loads besides cli and errors;
# "import" runs no command
COMMANDS = {
    "import": (None, ""),
    "eval-ranker": (">a ab", "words rankers"),
    "rankers": ("ab -n 2", "words rankers"),
    "equiv": ("ab ba -n 2 --method both", "words rankers equivalence efgames"),
    "check": ("{sentence} ab", "words rankers formulas"),
    "metrics": ("{sentence}", "words rankers formulas"),
    "synth": (">a", "words rankers formulas"),
    "sat": ("{sentence} --alphabet ab", "words rankers formulas solver"),
    "shrink": ("aab -n 1", "words rankers formulas solver"),
    "reduce-cnf": ("{cnf} --solve", "words rankers formulas solver"),
    "witness": ("-m 2 -n 1", "words rankers formulas equivalence efgames hierarchy"),
    "verify-hierarchy": ("-m 2 -n 1", "words rankers formulas equivalence efgames hierarchy"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_the_modules_it_calls(command, tmp_path):
    sentence, cnf = tmp_path / "sentence.txt", tmp_path / "cnf.txt"
    sentence.write_text("Ex.a(x)")
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    args, modules = COMMANDS[command]
    run = "" if args is None else f"main({[command, *args.format(sentence=sentence, cnf=cnf).split()]!r}); "
    out = _fresh("import contextlib, io, sys\nfrom fo2words.cli import main\n"
                 f"with contextlib.redirect_stdout(io.StringIO()): {run}pass\n"
                 "print(*sorted(m for m in sys.modules if m.startswith('fo2words.')))")
    assert out.split() == sorted(f"fo2words.{m}" for m in ["cli", "errors", *modules.split()])


PUBLIC_NAMES = {
    "words": "Alphabet OrderType Segment SucOrderType Word all_words order_type segments suc_order_type",
    "rankers": "AnyRanker BoundaryPos Direction NeighborhoodBoundaryPos Ranker RealizedSet SucRanker "
               "alternation_blocks eval_boundary eval_ranker eval_suc_boundary eval_suc_ranker evaluate "
               "parse_ranker realized_rankers realized_suc_rankers render_ranker",
    "formulas": "And Equal Exists Forall Formula FormulaMetrics Implies LetterAtom Less Not Or Signature "
                "Suc UniquePositionReport formula_metrics free_vars model_check nnf parse_formula "
                "render_formula satisfying_positions synth_comparison synth_definedness synth_position "
                "unique_position_report",
    "efgames": "GameConfig GameVerdict Side game_equiv game_equiv_alt game_equiv_general partial_iso",
    "equivalence": "EquivReport FailedCondition WitnessEntry alphabet_collapse_check ranker_equiv "
                   "ranker_equiv_alt suc_ranker_equiv suc_ranker_equiv_alt",
    "hierarchy": "HierarchyReport SeparatingRankerPair WitnessPair separating_rankers "
                 "verify_hierarchy_level witness_words witness_words_suc",
    "solver": "Cnf SatResult SatStatus cnf_brute_force cnf_to_fo2 parse_dimacs sat_search shrink "
              "small_model_bound",
    "errors": "AlphabetMismatchError EnumerationCapError FormulaError FormulaSyntaxError "
              "FreeVariableError GameResourceError ResourceCapError SearchBudgetError SignatureError "
              "UnknownLetterError",
}


def test_namespace_lists_the_public_names():
    names = json.loads(_fresh("import fo2words, json; print(json.dumps(fo2words.__all__))"))
    want = [name for names in PUBLIC_NAMES.values() for name in names.split()]
    assert len(want) == 92 and sorted(names) == sorted(want)
    assert set(want) <= set(json.loads(_fresh("import fo2words, json; print(json.dumps(dir(fo2words)))")))


def test_namespace_names_are_their_submodules_objects():
    # a star import first, then each name by attribute, each against its submodule
    _fresh("import importlib, fo2words\n"
           "star = {}\n"
           "exec('from fo2words import *', star)\n"
           f"for module, names in {PUBLIC_NAMES!r}.items():\n"
           "    sub = importlib.import_module('fo2words.' + module)\n"
           "    for name in names.split():\n"
           "        assert star[name] is getattr(sub, name), name\n"
           "        assert getattr(fo2words, name) is getattr(sub, name), name\n")


def test_namespace_resolves_submodules_and_rejects_unknown_names():
    _fresh("import fo2words\n"
           f"for module in {list(PUBLIC_NAMES)!r}:\n"
           "    assert getattr(fo2words, module).__name__ == 'fo2words.' + module\n"
           "try:\n"
           "    fo2words.nope\n"
           "except AttributeError:\n"
           "    pass\n"
           "else:\n"
           "    raise AssertionError('fo2words.nope resolved')\n")


def test_negative_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "rankers", "ab", "-n", "2", "--cap", "-1")
    assert code == 1 and out == ""
    assert err == "error[usage]: cap must be >= 0, got -1\n"


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


# --- fuzzed argv -------------------------------------------------------------

FUZZ_WORDS = ("", "a", "ab", "ba", "aab", "-", "@missing.txt")
FUZZ_RANKERS = (">a", "<b", ">a<b", ">b>a<a", "a", "-")
FUZZ_FORMULAS = ("Ex. a(x)", "Ex.Ay.(x<y | b(y))", "Ex.Ey.suc(x,y)", "x<y", "Ex. (a(x)", "", "Ez.a(z)")
FUZZ_DIMACS = ("p cnf 2 2\n1 -2 0\n2 0\n", "p cnf 1 1\n-1 0\n", "p cnf 2 1\n3 0\n", "c only\n", "x")
# flags that take no value, and -n left without its value
FUZZ_FLAGS = ("--suc", "--solve", "--position", "--definedness", "-n")
# options and their values, drawn as pairs
FUZZ_OPTIONS = {
    "-n": "int", "-m": "int", "-x": "int", "-y": "int", "--cap": "int", "--max-len": "int",
    "--exact-len": "int", "--alphabet": "word", "--format": "format", "--method": "method",
}
# each command's positionals and required options, so that many runs get past argparse
FUZZ_SHAPES = {
    "eval-ranker": ("ranker", "word"),
    "rankers": ("word", "-n", "int"),
    "equiv": ("word", "word", "-n", "int"),
    "check": ("formula", "word"),
    "metrics": ("formula",),
    "synth": ("ranker",),
    "witness": ("-m", "int", "-n", "int"),
    "verify-hierarchy": ("-m", "int", "-n", "int"),
    "sat": ("formula", "--alphabet", "word"),
    "shrink": ("word", "-n", "int"),
    "reduce-cnf": ("dimacs",),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    files = {}
    for kind, sources in (("formula", FUZZ_FORMULAS), ("dimacs", FUZZ_DIMACS)):
        files[kind] = ["-"]
        for i, source in enumerate(sources):
            path = folder / f"{kind}{i}.txt"
            path.write_text(source)
            files[kind].append(str(path))
    return files


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_files, data):
    # main runs in this process, so an exception it lets escape fails the test
    pools = {
        "word": st.sampled_from(FUZZ_WORDS),
        "ranker": st.sampled_from(FUZZ_RANKERS),
        "int": st.integers(-2, 6).map(str),
        "formula": st.sampled_from(fuzz_files["formula"]),
        "dimacs": st.sampled_from(fuzz_files["dimacs"]),
        "format": st.sampled_from(("json", "text", "xml")),
        "method": st.sampled_from(("ranker", "game", "both")),
    }
    option = st.sampled_from(sorted(FUZZ_OPTIONS)).flatmap(
        lambda name: pools[FUZZ_OPTIONS[name]].map(lambda value: [name, value])
    )
    extra = st.one_of(option, st.sampled_from(FUZZ_FLAGS).map(lambda flag: [flag]))
    command = data.draw(st.sampled_from(sorted(FUZZ_SHAPES)))
    shape = [data.draw(pools[part]) if part in pools else part for part in FUZZ_SHAPES[command]]
    argv = [command, *shape, *(t for ts in data.draw(st.lists(extra, max_size=2)) for t in ts)]
    stdin = data.draw(st.sampled_from(FUZZ_WORDS[:5] + FUZZ_FORMULAS + FUZZ_DIMACS))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
