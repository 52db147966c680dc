"""Self-tests of the benchmark's checks: each must accept the program's real
output and reject a corrupted copy of it (a flipped verdict, a forged witness,
a SAT witness that is not a model).

The benchmark runs these before every measured run; to run them alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import oracles as O
import workloads as W


def _rejects(op: W.Op, corrupted, what: str) -> None:
    try:
        op.check(corrupted)
    except O.CheckFailure:
        return
    raise AssertionError(f"the check accepted {what}")


def run(api) -> int:
    """Run every self-test; return how many corruptions were rejected."""
    word = lambda text: api.Word(api.Alphabet(("a", "b")), text)
    rejected = 0

    # flipped verdicts and forged witnesses of the ranker decider
    u, v = word("abba"), word("baab")
    op = W._decide(api, u, v, 2, None, False, None)
    report = op.run()
    op.check(report)
    _rejects(op, dataclasses.replace(report, verdict=not report.verdict), "a flipped ranker verdict")
    wit = report.witnesses[0]
    forged = dataclasses.replace(wit, pos_u=(wit.pos_u or 0) + 1)
    _rejects(op, dataclasses.replace(report, witnesses=(forged,) + report.witnesses[1:]), "a forged witness position")
    other = api.parse_ranker(">b" if str(wit.ranker) != ">b" else ">a")
    forged = dataclasses.replace(wit, ranker=other)
    _rejects(op, dataclasses.replace(report, witnesses=(forged,) + report.witnesses[1:]), "a forged witness ranker")
    rejected += 3

    # a flipped game verdict, checked against the independent decider
    game = W._game(api, u, v, 2, False, lambda: O.equivalent(u.text, v.text, 2))
    verdict = game.run()
    game.check(verdict)
    _rejects(game, api.GameVerdict(not verdict.delilah_wins, None), "a flipped game verdict")
    rejected += 1

    # a flipped model-checking verdict, checked against the naive evaluator
    f = O.parse("Ex.(a(x) & Ay.(y<x -> b(y)))")
    mc = W._model_check(api, f, word("bbab"), 2)
    truth = mc.run()
    mc.check(truth)
    _rejects(mc, not truth, "a flipped model_check verdict")
    rejected += 1

    # a SAT witness that is not a model, and a forged CNF model
    ab = api.Alphabet(("a", "b"))
    f, model = W._sentence_with_model(random.Random(0), 2, "ab", 4)
    sat = W._sat(api, f, ab, "sat", model, None)
    result = sat.run()
    sat.check(result)
    non_model = next(w for w in O.words_shortlex("ab", 4) if not O.holds(f, w))
    _rejects(sat, dataclasses.replace(result, witness=word(non_model)), "a SAT witness that is not a model")
    clauses = [(1, 2, -3), (-1, 3, 2), (1, -2, 3)]
    cnf = W._cnf(api, 3, clauses)
    result = cnf.run()
    cnf.check(result)
    bad = next(format(b, "03b") for b in range(8) if not O.cnf_satisfied(clauses, format(b, "03b")))
    _rejects(cnf, dataclasses.replace(result, witness=api.Word(api.Alphabet(("0", "1")), bad)), "a non-model CNF witness")
    rejected += 2

    # a shrink result that is not equivalent
    sh = W._shrink(api, word("abbbbbbbbba"), 2)
    out = sh.run()
    sh.check(out)
    _rejects(sh, word("abba"), "a shrunk word that is not ≡_2")
    rejected += 1

    # a wrong CLI answer (no process is started: the check sees the output only)
    cli = W._cli(None, "eval-ranker", ["eval-ranker", ">a>c<b", "cababcba"],
                 lambda out: O.require(out.strip() == "5", "eval-ranker"))
    cli.check((0, "5\n"))
    _rejects(cli, (0, "4\n"), "a wrong CLI answer")
    _rejects(cli, (2, "5\n"), "a failing CLI exit code")
    rejected += 2
    return rejected


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import fo2words

    print(f"selftest: {run(fo2words)} corrupted results rejected")
