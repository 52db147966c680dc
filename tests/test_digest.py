"""A golden digest of the reports on a fixed seeded corpus.

Every report of the corpus is written as canonical JSON (`to_json_dict()`
with sorted keys; an error as its class and message) and hashed with
SHA-256. A change that keeps every report keeps the hash, so a refactor of
the ranker walk, the game or the hierarchy verifier can claim identical
output by leaving this file as it is. The outcome counts are asserted too,
so the corpus visibly exercises conditions (a), (b) and (c), true verdicts
and cap errors.
"""

import hashlib
import json
import random
from collections import Counter

from fo2words import (
    Alphabet,
    ResourceCapError,
    Signature,
    Word,
    ranker_equiv,
    ranker_equiv_alt,
    realized_rankers,
    realized_suc_rankers,
    render_ranker,
    shrink,
    suc_ranker_equiv,
    suc_ranker_equiv_alt,
    verify_hierarchy_level,
)

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


def _digest(calls):
    digest, outcomes = hashlib.sha256(), Counter()
    for call in calls:
        text = _canonical(call)
        digest.update(text.encode() + b"\n")
        out = json.loads(text)
        if isinstance(out, dict) and "error" in out:
            outcomes[out["error"]] += 1
        elif isinstance(out, dict) and "failedCondition" in out:
            outcomes[out["failedCondition"]] += 1
        elif isinstance(out, dict):
            outcomes["ok" if out["ok"] else "not ok"] += 1
        else:
            outcomes["realized"] += 1
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
