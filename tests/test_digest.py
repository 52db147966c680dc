"""Golden digests of the library's answers on fixed seeded corpora.

Every report of a corpus is written as canonical JSON (`to_json_dict()`
with sorted keys; an error as its class and message) and hashed with
SHA-256. A change that keeps every report keeps the hash, so a refactor of
the ranker walk, the game, the hierarchy verifier or the formula layer can
claim identical output by leaving this file as it is. The outcome counts are
asserted too, so the corpus visibly exercises conditions (a), (b) and (c),
true verdicts and cap errors, wins of Delilah and of Samson on each side,
and true and false formulas of each source.
"""

import hashlib
import json
import random
from collections import Counter

from helpers import random_formula

from fo2words import (
    Alphabet,
    BoundaryPos,
    Cnf,
    Direction,
    Ranker,
    ResourceCapError,
    Side,
    Signature,
    SucRanker,
    Word,
    cnf_to_fo2,
    formula_metrics,
    free_vars,
    game_equiv,
    game_equiv_alt,
    game_equiv_general,
    model_check,
    nnf,
    parse_ranker,
    ranker_equiv,
    ranker_equiv_alt,
    realized_rankers,
    realized_suc_rankers,
    render_formula,
    render_ranker,
    satisfying_positions,
    shrink,
    suc_ranker_equiv,
    suc_ranker_equiv_alt,
    synth_comparison,
    synth_definedness,
    synth_position,
    verify_hierarchy_level,
)
from fo2words.efgames import DEFAULT_GAME_CAP

_ALPHABETS = (Alphabet(("a", "b")), Alphabet(("a", "b", "c")))


def _canonical(call):
    try:
        out = call()
    except ResourceCapError as error:
        out = {"error": type(error).__name__, "message": str(error)}
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def _near(rng, u: Word, n: int) -> Word:
    # a word that agrees with u on many sentences: u shrunk at a depth next
    # to n, with one letter inserted half the time
    text = shrink(u, max(1, n + rng.randint(-1, 1))).text if u.text else ""
    if rng.random() < 0.5:
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(u.alphabet.letters) + text[i:]
    return Word(u.alphabet, text)


def _decider_draws(rng, count, lengths=(0, 9), top=8, near=0.6, suc=0.4):
    for _ in range(count):
        alphabet = rng.choice(_ALPHABETS)
        u = Word(alphabet, "".join(rng.choices(alphabet.letters, k=rng.randint(*lengths))))
        n = rng.randint(1, top)
        m = rng.choice([None, *range(1, n + 2)])
        if rng.random() < near:
            v = _near(rng, u, n)
        else:
            v = Word(alphabet, "".join(rng.choices(alphabet.letters, k=rng.randint(*lengths))))
        successor = rng.random() < suc
        if m is None:
            decide = suc_ranker_equiv if successor else ranker_equiv
            yield lambda u=u, v=v, n=n, decide=decide: decide(u, v, n).to_json_dict()
        else:
            decide = suc_ranker_equiv_alt if successor else ranker_equiv_alt
            yield lambda u=u, v=v, m=m, n=n, decide=decide: decide(u, v, m, n).to_json_dict()


def _lengthened(rng, alphabet) -> tuple[Word, Word]:
    # a word of runs and the same word with one run a letter longer
    letters = [rng.choice(alphabet.letters)]
    for _ in range(rng.randint(0, 4)):
        letters.append(rng.choice([a for a in alphabet.letters if a != letters[-1]]))
    lengths = [rng.randint(1, 4) for _ in letters]
    longer = lengths.copy()
    longer[rng.randrange(len(longer))] += 1
    u, v = ("".join(a * k for a, k in zip(letters, ks)) for ks in (lengths, longer))
    return Word(alphabet, u), Word(alphabet, v)


def _game_draws(rng, count):
    # the three games in turn; caps from 400 bits, which the longer words exceed,
    # to one no game here reaches, so cap errors are pinned with their needs
    caps = (400, 2_000, DEFAULT_GAME_CAP, 10**15)
    for i in range(count):
        alphabet = rng.choice(_ALPHABETS)
        n = rng.randint(0, 6)
        if rng.random() < 0.5:
            u = Word(alphabet, "".join(rng.choices(alphabet.letters, k=rng.randint(1, 14))))
            v = _near(rng, u, n)
        else:
            u, v = _lengthened(rng, alphabet)
        if rng.random() < 0.5:
            u, v = v, u
        successor = rng.random() < 0.5
        side = rng.choice([None, Side.U, Side.V])
        cap = rng.choice(caps)
        if i % 3 == 0:
            yield lambda u=u, v=v, n=n, s=successor, cap=cap: game_equiv(u, v, n, s, cap).to_json_dict()
        elif i % 3 == 1:
            m = rng.randint(0, n + 1)
            yield lambda u=u, v=v, m=m, n=n, s=successor, side=side, cap=cap: game_equiv_alt(
                u, v, m, n, s, side, cap
            ).to_json_dict()
        else:
            m = rng.choice([None, *range(0, n + 2)])
            at = [rng.randint(1, len(w)) for w in (u, u, v, v)]  # x and y on u, then on v
            yield lambda u=u, v=v, at=at, n=n, m=m, s=successor, side=side, cap=cap: game_equiv_general(
                u, *at[:2], v, *at[2:], n, m, side, s, cap
            ).to_json_dict()


def _realized_draws(rng, count):
    # small caps let some enumerations raise, so errors are in the digest too
    for _ in range(count):
        alphabet = rng.choice(_ALPHABETS)
        w = Word(alphabet, "".join(rng.choices(alphabet.letters, k=rng.randint(0, 7))))
        n = rng.randint(1, 4)
        m = rng.choice([None, *range(1, n + 2)])
        cap = rng.choice([50, 2_000])
        realize = realized_suc_rankers if rng.random() < 0.4 else realized_rankers

        def call(w=w, n=n, m=m, cap=cap, realize=realize):
            found = realize(w, n, m, cap)
            return [[render_ranker(r), p] for r, p in found.positions.items()]

        yield call


def _hierarchy_levels():
    for signature, top in ((Signature.ORDER, 8), (Signature.ORDER_SUC, 3)):
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                yield lambda m=m, n=n, s=signature: verify_hierarchy_level(m, n, s).to_json_dict()


def _random_ranker(rng, successor: bool) -> Ranker:
    # step i of a successor ranker reads at most i-1 letters a side
    steps = []
    for i in range(rng.randint(1, 3)):
        before, after = ("".join(rng.choices("ab", k=rng.randint(0, i))) for _ in "ba") if successor else ("", "")
        steps.append(BoundaryPos(rng.choice(list(Direction)), rng.choice("ab"), before, after))
    return (SucRanker if successor else Ranker)(tuple(steps))


def _random_cnf(rng) -> Cnf:
    count = rng.randint(1, 4)
    clauses = [
        tuple(rng.choice((1, -1)) * rng.randint(1, count) for _ in range(rng.randint(0, 3)))
        for _ in range(rng.randint(1, 3))
    ]
    return Cnf(count, tuple(clauses))


def _formula_draws(rng, count):
    # five sources in turn: random formulas on each signature, CNF
    # translations, ranker comparisons, and ranker definedness and positions
    alphabets = {"ab": Alphabet(("a", "b")), "01": Alphabet(("0", "1"))}
    for i in range(count):
        source = i % 5
        letters, length = "ab", None
        if source < 2:
            signature = (Signature.ORDER, Signature.ORDER_SUC)[source]
            bound = rng.choice([(), ("x",), ("y",), ("x", "y")])
            f = random_formula(rng, rng.randint(0, 4), alphabets["ab"], signature, bound)
        elif source == 2:
            f, length = cnf_to_fo2(_random_cnf(rng))
            letters = "01"
        elif source == 3:
            relation = rng.choice(["<", "<=", ">", ">="])
            f = synth_comparison(_random_ranker(rng, rng.random() < 0.4), relation, rng.choice("xy"))
        else:
            synth = rng.choice([synth_definedness, synth_position])
            f = synth(_random_ranker(rng, rng.random() < 0.4))
        fv = free_vars(f)
        # a CNF sentence's models have exactly its variable count of letters
        sizes = [length if length and rng.random() < 0.5 else rng.randint(1 if fv else 0, 6) for _ in range(4)]
        words = [Word(alphabets[letters], "".join(rng.choices(letters, k=k))) for k in sizes]
        assignments = [
            tuple(rng.randint(1, len(w)) if v in fv else None for v in "xy") for w in words
        ]

        def call(f=f, words=words, assignments=assignments, source=source):
            m = formula_metrics(f)
            return {
                "source": source,
                "nnf": render_formula(nnf(f)),
                "metrics": {
                    "quantifierDepth": m.quantifier_depth,
                    "alternationDepth": m.alternation_depth,
                    "usesSuccessor": m.uses_successor,
                    "freeVars": sorted(m.free_vars),
                },
                "words": [w.text for w in words],
                "checks": [model_check(f, w, x, y) for w, (x, y) in zip(words, assignments)],
                "positions": [satisfying_positions(f, w) for w in words] if m.free_vars <= {"x"} else None,
            }

        yield call


def _ranker_texts(rng, count):
    # random strings over the syntax's characters, and strings built from
    # steps that are mostly well formed, each parsed with and without an alphabet
    for i in range(count):
        if i % 4 == 0:
            text = "".join(rng.choices("<>[]|ab \n", k=rng.randint(0, 10)))
        else:
            steps = []
            for j in range(rng.randint(0, 4)):
                if rng.random() < 0.4:
                    body = rng.choice("ab") if rng.random() < 0.8 else rng.choice("]|<> \n")
                else:
                    # windows up to the width cap j a side and one past it;
                    # centres and brackets sometimes malformed
                    parts = ["".join(rng.choices("ab", k=rng.randint(0, j + 1))) for _ in "ba"]
                    centre = rng.choice("ab") if rng.random() < 0.8 else rng.choice(["", "aa", "[", "]", "|"])
                    body = "[" + "|".join((parts[0], centre, parts[1])) + rng.choice(["]"] * 8 + ["", "|]"])
                steps.append(rng.choice("<>") + body)
            text = "".join(steps)
        alphabet = Alphabet(("a", "b")) if rng.random() < 0.3 else None

        def call(text=text, alphabet=alphabet):
            try:
                r = parse_ranker(text, alphabet)
            except ValueError as error:  # the class only: the wording is free to change
                return {"text": text, "error": type(error).__name__}
            return {"text": text, "class": type(r).__name__, "rendered": render_ranker(r)}

        yield call


def _report_outcomes(out):
    if isinstance(out, dict) and "error" in out:
        return [out["error"]]
    if isinstance(out, dict) and "failedCondition" in out:
        return [out["failedCondition"]]
    if isinstance(out, dict) and "delilahWins" in out:
        move = out["firstWinningSamsonMove"]  # None where the start already loses
        return ["delilah" if out["delilahWins"] else f"samson {move['side'] if move else 'at start'}"]
    if isinstance(out, dict) and "ok" in out:
        return ["ok" if out["ok"] else "not ok"]
    if isinstance(out, dict) and "class" in out:
        return [out["class"]]
    if isinstance(out, dict):
        return [f"source {out['source']} {check}" for check in out["checks"]]
    return ["realized"]


def _digest(calls):
    digest, outcomes = hashlib.sha256(), Counter()
    for call in calls:
        text = _canonical(call)
        digest.update(text.encode() + b"\n")
        outcomes.update(_report_outcomes(json.loads(text)))
    return digest.hexdigest(), outcomes


def test_decider_reports_match_the_golden_digest():
    digest, outcomes = _digest(_decider_draws(random.Random(1), 4_000))
    assert outcomes == {"definedness": 2493, "none": 1436, "order": 53, "cross-direction": 18}
    assert digest == "247f73cf46fbabe9b7d45136bdaad9aee2ba7ee64026bbb582d431a3ab1b676c"


def test_long_word_reports_match_the_golden_digest():
    # longer words keep near pairs apart, so (b) and (c) fail often enough
    # to pin their witnesses
    draws = _decider_draws(random.Random(3), 4_000, lengths=(8, 24), top=7, near=0.7, suc=0.3)
    digest, outcomes = _digest(draws)
    assert outcomes == {"definedness": 1845, "none": 1822, "order": 244, "cross-direction": 89}
    assert digest == "a788f3937b19ab41efcf85eda2c24b8754ecdf68df1181ea862a604ad3d1bbb5"


def test_realized_sets_match_the_golden_digest():
    digest, outcomes = _digest(_realized_draws(random.Random(2), 600))
    assert outcomes == {"realized": 523, "EnumerationCapError": 77}
    assert digest == "96d06f357fd283f39aac990906864269a97f8da9098421b5382a59751964e68e"


def test_hierarchy_reports_match_the_golden_digest():
    digest, outcomes = _digest(_hierarchy_levels())
    assert outcomes == {"ok": 73}
    assert digest == "b50f14b61d26763b7bea717e1e18115a4284bf4a91adbcb507510ce298945b85"


def test_formula_answers_match_the_golden_digest():
    # the NNF rendering, the metrics, model checks and satisfying positions
    digest, outcomes = _digest(_formula_draws(random.Random(4), 2_000))
    assert outcomes == {
        "source 0 True": 887, "source 0 False": 713, "source 1 True": 772, "source 1 False": 828,
        "source 2 True": 328, "source 2 False": 1272, "source 3 True": 355, "source 3 False": 1245,
        "source 4 True": 368, "source 4 False": 1232,
    }
    assert digest == "935340f711768cb23b98fb5d5e1a3b3497c218713715157284468ca40d26b5f8"


def test_ranker_syntax_matches_the_golden_digest():
    # the error's class is pinned, not its wording
    digest, outcomes = _digest(_ranker_texts(random.Random(5), 4_000))
    assert outcomes == {"Ranker": 396, "SucRanker": 241, "ValueError": 3363}
    assert digest == "bae0905f7fb550574cd997856fa256e0e40f977c4dae2429058d9efe926a5c0f"


def test_game_verdicts_match_the_golden_digest():
    # Samson's first winning move is in each verdict
    digest, outcomes = _digest(_game_draws(random.Random(6), 12_000))
    assert outcomes == {
        "delilah": 4550, "samson u": 4743, "samson v": 1539, "samson at start": 941, "GameResourceError": 227,
    }
    assert digest == "6ef7b2eea14631b0fa9dc1346423fc695343465ec1271ffb839a3319e1c0baef"
