"""Command-line front end.

Exit codes: 0 = computed (whatever the verdict), 1 = usage error,
2 = resource cap exceeded (input nested past the recursion limit among
them), 3 = cross-check disagreement (equiv --method both).

Word and ranker arguments are taken inline; `-` reads them from stdin and
`@path` reads them from a file (first line, trailing newline stripped).
Formula and DIMACS arguments name files, with `-` for stdin.

Each command returns its exit code, JSON record and text lines; `main`
alone writes the record or the lines, as `--format` picks, whose default
is declared where the command is registered.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import ResourceCapError

if TYPE_CHECKING:
    from .words import Word

# Each command imports the modules it calls, so a command loads only those.
_Result = tuple[int, dict, list[str]]  # exit code, JSON record, text lines


class _UsageError(ValueError):
    pass


def _read_inline(value: str) -> str:
    if value == "-":
        return sys.stdin.readline().rstrip("\n")
    if value.startswith("@"):
        lines = Path(value[1:]).read_text().splitlines()
        return lines[0] if lines else ""
    return value


def _read_file(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    return Path(value).read_text()


def _word(text: str, extra: Optional[str], *siblings: str) -> Word:
    from .words import Alphabet, Word

    letters = set(text) | set(extra or "")
    for s in siblings:
        letters |= set(s)
    if not letters:
        raise _UsageError("cannot infer an alphabet for the empty word; pass --alphabet")
    return Word(Alphabet(tuple(sorted(letters))), text)


def _cmd_eval_ranker(args) -> _Result:
    from .rankers import evaluate, parse_ranker, ranker_letters, render_ranker

    ranker = parse_ranker(_read_inline(args.ranker))
    text = _read_inline(args.word)
    w = _word(text, args.alphabet, "".join(ranker_letters(ranker)))
    pos = evaluate(ranker, w)
    record = {"ranker": render_ranker(ranker), "word": w.text, "position": pos}
    return 0, record, ["UNDEFINED" if pos is None else str(pos)]


def _cmd_rankers(args) -> _Result:
    from .rankers import DEFAULT_ENUMERATION_CAP, realized_rankers, realized_suc_rankers, render_ranker

    text = _read_inline(args.word)
    w = _word(text, args.alphabet)
    realize = realized_suc_rankers if args.suc else realized_rankers
    cap = DEFAULT_ENUMERATION_CAP if args.cap is None else args.cap
    items = realize(w, args.n, alt_bound=args.m, cap=cap).positions.items()
    record = {
        "word": w.text,
        "n": args.n,
        "m": args.m,
        "signature": "order+successor" if args.suc else "order",
        "rankers": [{"ranker": render_ranker(r), "position": p} for r, p in items],
    }
    return 0, record, [f"{render_ranker(r)}\t{p}" for r, p in items]


def _cmd_equiv(args) -> _Result:
    from .efgames import game_equiv, game_equiv_alt
    from .equivalence import ranker_equiv, ranker_equiv_alt, suc_ranker_equiv, suc_ranker_equiv_alt

    tu = _read_inline(args.u)
    tv = _read_inline(args.v)
    u = _word(tu, args.alphabet, tv)
    v = _word(tv, args.alphabet, tu)
    n, m, suc = args.n, args.m, args.suc
    record: dict = {"u": u.text, "v": v.text, "n": n, "m": m,
                    "signature": "order+successor" if suc else "order",
                    "method": args.method}
    lines = []
    if args.method in ("ranker", "both"):
        if m is None:
            ranker_report = (suc_ranker_equiv if suc else ranker_equiv)(u, v, n)
        else:
            ranker_report = (suc_ranker_equiv_alt if suc else ranker_equiv_alt)(u, v, m, n)
        record["ranker"] = ranker_report.to_json_dict()
        record["verdict"] = ranker_report.verdict
        lines.append(f"ranker: {'equivalent' if ranker_report.verdict else 'distinguishable'}")
    if args.method in ("game", "both"):
        if m is None:
            game_verdict = game_equiv(u, v, n, with_successor=suc)
        else:
            game_verdict = game_equiv_alt(u, v, m, n, with_successor=suc)
        record["game"] = game_verdict.to_json_dict()
        record["verdict"] = game_verdict.delilah_wins
        lines.append(f"game: {'equivalent' if game_verdict.delilah_wins else 'distinguishable'}")
    if args.method == "both":
        agree = ranker_report.verdict == game_verdict.delilah_wins
        record["methodsAgree"] = agree
        lines.append(f"methods agree: {agree}")
        return (0 if agree else 3), record, lines
    return 0, record, lines


def _cmd_check(args) -> _Result:
    from .formulas import Signature, model_check, parse_formula

    text = _read_inline(args.word)
    w = _word(text, args.alphabet)
    signature = Signature.ORDER_SUC if args.suc else Signature.ORDER
    f = parse_formula(_read_file(args.formula_file), w.alphabet, signature)
    result = model_check(f, w, x_pos=args.x, y_pos=args.y)
    record = {"word": w.text, "x": args.x, "y": args.y, "holds": result}
    return 0, record, ["true" if result else "false"]


def _cmd_metrics(args) -> _Result:
    from .formulas import Signature, formula_metrics, parse_formula
    from .words import Alphabet

    source = _read_file(args.formula_file)
    # without --alphabet every visible character is a letter, so the parser
    # alone decides what a letter atom is; a source with none cannot parse
    letters = args.alphabet or [c for c in source if c.isprintable() and not c.isspace()] or "a"
    alphabet = Alphabet(tuple(sorted(set(letters))))
    f = parse_formula(source, alphabet, Signature.ORDER_SUC)
    m = formula_metrics(f)
    record = {
        "quantifierDepth": m.quantifier_depth,
        "alternationDepth": m.alternation_depth,
        "usesSuccessor": m.uses_successor,
        "freeVars": sorted(m.free_vars),
    }
    return 0, record, [
        f"quantifier depth: {m.quantifier_depth}",
        f"alternation depth: {m.alternation_depth}",
        f"uses successor: {str(m.uses_successor).lower()}",
        f"free variables: {' '.join(sorted(m.free_vars)) or '(none)'}",
    ]


def _cmd_synth(args) -> _Result:
    from .formulas import formula_metrics, render_formula, synth_definedness, synth_position
    from .rankers import alternation_blocks, parse_ranker, render_ranker

    ranker = parse_ranker(_read_inline(args.ranker))
    f = synth_position(ranker) if args.position else synth_definedness(ranker)
    rendered = render_formula(f)
    kind = "position" if args.position else "definedness"
    # the achieved alternation depth is reported alongside the ranker's
    # block count, but no relation between the two is promised
    m = formula_metrics(f)
    record = {
        "ranker": render_ranker(ranker),
        "kind": kind,
        "formula": rendered,
        "quantifierDepth": m.quantifier_depth,
        "alternationDepth": m.alternation_depth,
        "rankerLength": len(ranker),
        "rankerBlocks": alternation_blocks(ranker),
    }
    return 0, record, [rendered]


def _cmd_witness(args) -> _Result:
    from .hierarchy import witness_words, witness_words_suc

    pair = witness_words_suc(args.m, args.n) if args.suc else witness_words(args.m, args.n)
    return 0, pair.to_json_dict(), [pair.u.text, pair.v.text]


def _cmd_verify_hierarchy(args) -> _Result:
    from .formulas import Signature
    from .hierarchy import verify_hierarchy_level

    signature = Signature.ORDER_SUC if args.suc else Signature.ORDER
    d = verify_hierarchy_level(args.m, args.n, signature).to_json_dict()
    return 0, d, [f"{k}: {v if isinstance(v, str) else json.dumps(v)}" for k, v in d.items()]


def _cmd_sat(args) -> _Result:
    from .formulas import Signature, parse_formula
    from .solver import sat_search
    from .words import Alphabet

    alphabet = Alphabet(tuple(sorted(set(args.alphabet))))
    f = parse_formula(_read_file(args.formula_file), alphabet, Signature.ORDER)
    result = sat_search(f, alphabet, max_len=args.max_len, exact_len=args.exact_len)
    record = result.to_json_dict()
    record["alphabet"] = str(alphabet)
    lines = [f"status: {result.status.value}"]
    if result.witness is not None:
        lines.append(f"witness: {result.witness.text}")
    return 0, record, lines


def _cmd_shrink(args) -> _Result:
    from .solver import shrink, small_model_bound

    text = _read_inline(args.word)
    w = _word(text, args.alphabet)
    out = shrink(w, args.n)
    k = max(1, len(set(w.text)))
    record = {
        "input": w.text,
        "n": args.n,
        "output": out.text,
        "bound": small_model_bound(args.n, k),
    }
    return 0, record, [out.text]


def _cmd_reduce_cnf(args) -> _Result:
    from .formulas import render_formula
    from .solver import CNF_ALPHABET, cnf_to_fo2, parse_dimacs, sat_search

    cnf = parse_dimacs(_read_file(args.dimacs_file))
    formula, n = cnf_to_fo2(cnf)
    rendered = render_formula(formula)
    record = {"variables": n, "alphabet": "01", "formula": rendered}
    if args.solve:
        result = sat_search(formula, CNF_ALPHABET, exact_len=n)
        record["sat"] = result.to_json_dict()
    return 0, record, [rendered]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fo2words",
        description="Rankers, games, and equivalence for two-variable logic on words.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, default_format, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--format", choices=("text", "json"), default=default_format)
        return sp

    sp = add("eval-ranker", _cmd_eval_ranker, "text", help="evaluate a ranker on a word")
    sp.add_argument("ranker")
    sp.add_argument("word")
    sp.add_argument("--alphabet", help="extra letters beyond those occurring")

    sp = add("rankers", _cmd_rankers, "text", help="list rankers defined on a word")
    sp.add_argument("word")
    sp.add_argument("-n", type=int, required=True, help="max ranker length")
    sp.add_argument("-m", type=int, default=None, help="max alternation blocks")
    sp.add_argument("--suc", action="store_true", help="successor rankers")
    sp.add_argument("--alphabet")
    sp.add_argument("--cap", type=int, default=None)

    sp = add("equiv", _cmd_equiv, "json", help="decide depth-n equivalence of two words")
    sp.add_argument("u")
    sp.add_argument("v")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-m", type=int, default=None, help="alternation block bound")
    sp.add_argument("--suc", action="store_true")
    sp.add_argument("--method", choices=("ranker", "game", "both"), default="ranker")
    sp.add_argument("--alphabet")

    sp = add("check", _cmd_check, "text", help="model-check a formula file on a word")
    sp.add_argument("formula_file")
    sp.add_argument("word")
    sp.add_argument("-x", type=int, default=None)
    sp.add_argument("-y", type=int, default=None)
    sp.add_argument("--suc", action="store_true", help="allow successor atoms")
    sp.add_argument("--alphabet")

    sp = add("metrics", _cmd_metrics, "text", help="depth and alternation metrics of a formula")
    sp.add_argument("formula_file")
    sp.add_argument("--alphabet")

    sp = add("synth", _cmd_synth, "text", help="synthesize the formula of a ranker")
    sp.add_argument("ranker")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--definedness", action="store_true", default=True)
    group.add_argument("--position", action="store_true")

    sp = add("witness", _cmd_witness, "text", help="hierarchy witness words for level m")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--suc", action="store_true")

    sp = add("verify-hierarchy", _cmd_verify_hierarchy, "json", help="verify one hierarchy level")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--suc", action="store_true")

    sp = add("sat", _cmd_sat, "json", help="satisfiability over a bounded alphabet")
    sp.add_argument("formula_file")
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--exact-len", type=int, default=None)

    sp = add("shrink", _cmd_shrink, "text", help="shrink a word preserving depth-n sentences")
    sp.add_argument("word")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--alphabet")

    sp = add("reduce-cnf", _cmd_reduce_cnf, "json", help="translate DIMACS CNF to a sentence")
    sp.add_argument("dimacs_file")
    sp.add_argument("--solve", action="store_true", help="also run the bounded search")

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems; remap to the documented code
        return 0 if e.code == 0 else 1
    try:
        code, record, lines = args.fn(args)
        if args.format == "json":
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return code
    except ResourceCapError as e:
        print(f"error[resource-cap]: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"error[resource-cap]: input nests past the recursion limit ({limit})", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:  # FormulaError and _UsageError among them
        print(f"error[usage]: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
