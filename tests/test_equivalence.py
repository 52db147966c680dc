import random

import pytest

from fo2words import (
    Alphabet,
    AlphabetMismatchError,
    Direction,
    FailedCondition,
    Word,
    all_words,
    alphabet_collapse_check,
    evaluate,
    game_equiv,
    game_equiv_alt,
    ranker_equiv,
    ranker_equiv_alt,
    realized_rankers,
    realized_suc_rankers,
    render_ranker,
    suc_ranker_equiv,
    suc_ranker_equiv_alt,
    witness_words_suc,
)

AB = Alphabet(("a", "b"))
ABX = Alphabet(("a", "b", "x"))


def W(text, alphabet=AB):
    return Word(alphabet, text)


def test_ranker_equiv_examples():
    assert ranker_equiv(W("ab"), W("ba"), 1).verdict is True
    report = ranker_equiv(W("ab"), W("ba"), 2)
    assert report.verdict is False
    assert report.failed_condition in (FailedCondition.DEFINEDNESS, FailedCondition.ORDER)
    for w in all_words(AB, 4):
        assert ranker_equiv(w, w, 3).verdict is True


def test_ranker_equiv_alt_examples():
    u, v = W("ababa"), W("baba")
    assert ranker_equiv_alt(u, v, 1, 1).verdict is True
    report = ranker_equiv_alt(u, v, 2, 2)
    assert report.verdict is False
    for w in all_words(AB, 4):
        assert ranker_equiv_alt(w, w, 2, 3).verdict is True


def test_suc_ranker_equiv_examples():
    assert suc_ranker_equiv(W("ab"), W("ba"), 1).verdict is True
    report = suc_ranker_equiv(Word(ABX, "ab"), Word(ABX, "axb"), 2)
    assert report.verdict is False
    for w in all_words(AB, 3):
        assert suc_ranker_equiv(w, w, 2).verdict is True
        assert suc_ranker_equiv_alt(w, w, 2, 2).verdict is True


def test_suc_ranker_equiv_alt_examples():
    from fo2words import witness_words_suc

    pair = witness_words_suc(2, 1)
    assert suc_ranker_equiv_alt(pair.u, pair.v, 1, 1).verdict is True
    report = suc_ranker_equiv_alt(W("ab"), W("ba"), 2, 2)
    assert report.verdict is False


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        ranker_equiv(W("ab"), Word(ABX, "ab"), 1)


def test_witness_validity():
    # reported witnesses re-evaluate to the reported positions
    rng = random.Random(3)
    words = list(all_words(AB, 5))
    seen_conditions = set()
    for _ in range(300):
        u, v = rng.choice(words), rng.choice(words)
        n = rng.randint(1, 3)
        if rng.random() < 0.5:
            report = ranker_equiv(u, v, n)
        else:
            report = ranker_equiv_alt(u, v, rng.randint(1, n), n)
        seen_conditions.add(report.failed_condition)
        assert report.verdict == (report.failed_condition is FailedCondition.NONE)
        assert len(report.witnesses) == (
            0 if report.verdict else (1 if report.failed_condition is FailedCondition.DEFINEDNESS else 2)
        )
        for entry in report.witnesses:
            assert evaluate(entry.ranker, u) == entry.pos_u
            assert evaluate(entry.ranker, v) == entry.pos_v
    assert FailedCondition.NONE in seen_conditions
    assert FailedCondition.DEFINEDNESS in seen_conditions


def test_cross_direction_witness():
    report = ranker_equiv_alt(W("ababa"), W("baba"), 1, 2)
    assert report.verdict is False
    assert report.failed_condition is FailedCondition.CROSS_DIRECTION
    r, s = report.witnesses
    assert r.ranker.last_direction != s.ranker.last_direction


def test_refinement_chain():
    rng = random.Random(8)
    words = list(all_words(AB, 5))
    for _ in range(200):
        u, v = rng.choice(words), rng.choice(words)
        if ranker_equiv(u, v, 3).verdict:
            assert ranker_equiv(u, v, 2).verdict
            assert ranker_equiv(u, v, 1).verdict
            for m in (1, 2, 3):
                assert ranker_equiv_alt(u, v, m, 3).verdict


def test_oracle_agreement_sample():
    # the full exhaustive sweep lives in the acceptance suite
    rng = random.Random(13)
    words = list(all_words(AB, 4))
    for _ in range(250):
        u, v = rng.choice(words), rng.choice(words)
        n = rng.randint(1, 3)
        assert ranker_equiv(u, v, n).verdict == game_equiv(u, v, n).delilah_wins
        m = rng.randint(1, n)
        assert (
            ranker_equiv_alt(u, v, m, n).verdict
            == game_equiv_alt(u, v, m, n).delilah_wins
        )


def test_suc_oracle_agreement_sample():
    rng = random.Random(17)
    words = list(all_words(AB, 3))
    for _ in range(120):
        u, v = rng.choice(words), rng.choice(words)
        n = rng.randint(1, 2)
        assert (
            suc_ranker_equiv(u, v, n).verdict
            == game_equiv(u, v, n, with_successor=True).delilah_wins
        )


def test_suc_oracle_agreement_depth_three():
    # window widths up to 2 appear only from depth 3 on
    words = list(all_words(AB, 3))
    for u in words:
        for v in words:
            r = suc_ranker_equiv(u, v, 3).verdict
            g = game_equiv(u, v, 3, with_successor=True).delilah_wins
            assert r == g, (u.text, v.text)
            for m in (1, 2, 3):
                ra = suc_ranker_equiv_alt(u, v, m, 3).verdict
                ga = game_equiv_alt(u, v, m, 3, with_successor=True).delilah_wins
                assert ra == ga, (u.text, v.text, m)


def test_context_congruence_sample():
    # equivalent subwords stay equivalent inside arbitrary contexts
    rng = random.Random(23)
    words = list(all_words(AB, 4))
    contexts = list(all_words(AB, 2))
    checked = 0
    while checked < 40:
        v, v2 = rng.choice(words), rng.choice(words)
        n = rng.randint(1, 2)
        if not ranker_equiv(v, v2, n).verdict:
            continue
        left, right = rng.choice(contexts), rng.choice(contexts)
        assert ranker_equiv(
            W(left.text + v.text + right.text), W(left.text + v2.text + right.text), n
        ).verdict
        checked += 1


def test_alphabet_collapse_examples():
    a_only = Alphabet(("a",))
    words = [Word(a_only, "a" * k) for k in range(7)]
    for u in words:
        for v in words:
            for n in (1, 2, 3):
                assert alphabet_collapse_check(u, v, n)
    rng = random.Random(31)
    pool = list(all_words(AB, 5))
    for _ in range(200):
        u, v = rng.choice(pool), rng.choice(pool)
        assert alphabet_collapse_check(u, v, rng.randint(1, 3))


def _reference_report(u, v, n, m, successor):
    """The deciders' conditions checked pair by pair, as a JSON report.

    Rows are the common rankers in canonical order; the first row that
    compares differently on u and v with some column, and its first such
    column, are the witnesses.
    """
    realize = realized_suc_rankers if successor else realized_rankers
    ru, rv = dict(realize(u, n).positions), dict(realize(v, n).positions)

    def key(r):
        return (len(r), [(s.direction is Direction.LEFT, s.before, s.letter, s.after) for s in r.steps])

    def blocks(r):
        return 1 + sum(a.direction is not b.direction for a, b in zip(r.steps, r.steps[1:]))

    def see(d):
        return max(-2, min(2, d)) if successor else (d > 0) - (d < 0)

    def entry(r):
        return {"ranker": render_ranker(r), "posU": ru.get(r), "posV": rv.get(r)}

    def report(condition, witnesses):
        return {"n": n, "m": m, "signature": "order+successor" if successor else "order",
                "verdict": not witnesses, "failedCondition": condition, "witnesses": witnesses}

    fam_u = {r for r in ru if m is None or blocks(r) <= m}
    fam_v = {r for r in rv if m is None or blocks(r) <= m}
    if fam_u != fam_v:
        return report("definedness", [entry(min(fam_u ^ fam_v, key=key))])
    common = sorted(fam_u, key=key)
    conditions = [("order", lambda r, c: len(c) < n and (m is None or blocks(c) < m))]
    if m is not None:
        conditions.append(
            ("cross-direction", lambda r, c: len(c) < n and r.last_direction is not c.last_direction)
        )
    for condition, is_column in conditions:
        for r in common:
            for c in common:
                if is_column(r, c) and see(ru[r] - ru[c]) != see(rv[r] - rv[c]):
                    return report(condition, [entry(r), entry(c)])
    return report("none", [])


def test_reports_match_pairwise_reference():
    # Pairs that fail definedness are sampled; every other case is compared.
    rng = random.Random(41)
    corpus = list(all_words(AB, 5)) + list(all_words(Alphabet(("a", "b", "c")), 3))
    cases = [(n, m, False) for n in (1, 2, 3) for m in (None, 1, 2)]
    cases += [(n, m, True) for n in (1, 2) for m in (None, 1, 2)]
    compared = set()
    for u in corpus:
        for v in corpus:
            if u.alphabet != v.alphabet:
                continue
            for n, m, successor in cases:
                if successor:
                    got = suc_ranker_equiv(u, v, n) if m is None else suc_ranker_equiv_alt(u, v, m, n)
                else:
                    got = ranker_equiv(u, v, n) if m is None else ranker_equiv_alt(u, v, m, n)
                if got.failed_condition is FailedCondition.DEFINEDNESS and rng.random() > 0.05:
                    continue
                assert got.to_json_dict() == _reference_report(u, v, n, m, successor), (u, v, n, m)
                compared.add(got.failed_condition)
    assert compared == set(FailedCondition)


def test_large_successor_check_stays_small():
    # about 45k common rankers: a pairwise table would not fit in memory
    import tracemalloc

    pair = witness_words_suc(3, 3)
    tracemalloc.start()
    try:
        report = suc_ranker_equiv_alt(pair.u, pair.v, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict is True
    assert peak < 300_000_000
