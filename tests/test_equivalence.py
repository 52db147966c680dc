import itertools
import random
import signal

import pytest

from fo2words import (
    Alphabet,
    AlphabetMismatchError,
    Direction,
    EnumerationCapError,
    FailedCondition,
    Signature,
    Word,
    all_words,
    alphabet_collapse_check,
    evaluate,
    game_equiv,
    game_equiv_alt,
    model_check,
    parse_formula,
    ranker_equiv,
    ranker_equiv_alt,
    realized_rankers,
    realized_suc_rankers,
    render_ranker,
    shrink,
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
    with pytest.raises(AlphabetMismatchError, match="words use different alphabets"):
        alphabet_collapse_check(W("ab"), Word(ABX, "ab"), 1)


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
    compared = set()

    def compare(u, v, n, m, successor):
        if successor:
            got = suc_ranker_equiv(u, v, n) if m is None else suc_ranker_equiv_alt(u, v, m, n)
        else:
            got = ranker_equiv(u, v, n) if m is None else ranker_equiv_alt(u, v, m, n)
        if got.failed_condition is FailedCondition.DEFINEDNESS and rng.random() > 0.05:
            return
        assert got.to_json_dict() == _reference_report(u, v, n, m, successor), (u, v, n, m)
        compared.add(got.failed_condition)

    corpus = list(all_words(AB, 5)) + list(all_words(Alphabet(("a", "b", "c")), 3))
    cases = [(n, m, False) for n in (1, 2, 3) for m in (None, 1, 2)]
    cases += [(n, m, True) for n in (1, 2) for m in (None, 1, 2)]
    for u in corpus:
        for v in corpus:
            if u.alphabet != v.alphabet:
                continue
            for case in cases:
                compare(u, v, *case)
    assert compared == set(FailedCondition)

    # Longer words, where many rankers land on one state of the decider's
    # walk: shrink pairs and one-letter edits of 6-12 letters.
    compared.clear()
    for _ in range(60):
        letters = rng.choice(("ab", "abc"))
        alphabet = Alphabet(tuple(letters))
        text = "".join(rng.choice(letters) for _ in range(rng.randint(6, 12)))
        u = Word(alphabet, text)
        i = rng.randrange(len(text))
        edits = [text[:i] + text[i + 1 :], text[:i] + rng.choice(letters) + text[i:],
                 text[:i] + rng.choice(letters) + text[i + 1 :]]
        for v in (shrink(u, rng.randint(1, 3)), Word(alphabet, rng.choice(edits))):
            for case in cases:
                compare(u, v, *case)
    assert compared == set(FailedCondition)


def test_successor_states_keep_their_length():
    # the same positions reached by a longer ranker allow wider windows on
    # the next step, so each window width of a successor walk has its own
    # states; the width grows with the depth up to one less than the longer
    # word's length
    u, v = W("abbbbb"), W("abbbb")
    report = suc_ranker_equiv(u, v, 3)
    assert report.to_json_dict() == _reference_report(u, v, 3, None, True)
    assert [render_ranker(e.ranker) for e in report.witnesses] == [">[|a|]>[|b|]>[bb|b|bb]"]


@pytest.mark.parametrize(
    "n",
    [
        pytest.param(n, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 2: the successor ranker decider says equivalent on "
            "runs a^p/a^q that the successor game tells apart",
        ))
        for n in (2, 3, 4)
    ],
)
def test_successor_decider_agrees_with_game_on_runs(n):
    # 6, 21 and 40 pairs disagree at n = 2, 3, 4; the fix for item 2
    # removes the marker
    def agree(p, q):
        u, v = W("a" * p), W("a" * q)
        game = game_equiv(u, v, n, with_successor=True).delilah_wins
        return suc_ranker_equiv(u, v, n).verdict == game

    wrong = [(p, q) for q in range(2, 4 * n + 3) for p in range(1, q) if not agree(p, q)]
    assert wrong == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the successor ranker decider says equivalent on "
    "{a,b} pairs that the successor game tells apart, 14 of them not unary",
)
def test_successor_decider_agrees_with_game_on_short_words():
    # 20 of the 32,385 pairs of {a,b} words up to length 7 disagree at
    # n = 2, among them aaaab/aaaaab, abbbba/abbbbba and bbaaaa/bbaaaaa;
    # the fix for item 2 removes the marker
    words = [W("".join(t)) for k in range(8) for t in itertools.product("ab", repeat=k)]
    wrong = [
        (u.text, v.text)
        for u, v in itertools.combinations(words, 2)
        if suc_ranker_equiv(u, v, 2).verdict != game_equiv(u, v, 2, with_successor=True).delilah_wins
    ]
    assert wrong == []


def test_successor_game_separates_runs_as_a_depth_2_sentence_does():
    # the game side of the check above is right: this sentence (some x has
    # a non-neighbour on each side) holds on aaaaa and fails on aaaa
    sentence = parse_formula(
        "Ex.((Ey.(y<x & !suc(y,x))) & (Ey.(x<y & !suc(x,y))))", AB, Signature.ORDER_SUC
    )
    u, v = W("aaaa"), W("aaaaa")
    assert (model_check(sentence, u), model_check(sentence, v)) == (False, True)
    assert game_equiv(u, v, 2, with_successor=True).delilah_wins is False


@pytest.mark.parametrize("w", ["abab", "aabab"])
def test_unbounded_successor_walk_keeps_one_ranker_per_position_pair(monkeypatch, w):
    # with no alternation bound, blocks and last direction enter no
    # condition, so a word against itself keeps at most |w| rankers per
    # window width, and the walk ends once the width stops growing at |w| - 1
    from fo2words import rankers

    monkeypatch.setattr(rankers, "DEFAULT_ENUMERATION_CAP", 2_000)
    assert suc_ranker_equiv(W(w), W(w), 200).verdict is True


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


def test_walk_over_its_cap_raises(monkeypatch):
    from fo2words import rankers

    # the decider walks 4 states at n=1, 18 at n=4 and 20 with successor at
    # m=2, n=2 on this word; a plain walk of a word against itself has at
    # most one state per position, so the word has more than 17 letters
    monkeypatch.setattr(rankers, "DEFAULT_ENUMERATION_CAP", 17)
    u = W("abaabbab" * 3)
    assert ranker_equiv(u, u, 1).verdict is True
    for check in (lambda: ranker_equiv(u, u, 4), lambda: suc_ranker_equiv_alt(u, u, 2, 2)):
        with pytest.raises(EnumerationCapError):
            check()


def _record_lookups(monkeypatch, record):
    # reports each text search that the walk makes, as (its search
    # arguments, start), before making it
    from fo2words import rankers

    match = rankers._match

    def searched(text, right, window, k, ell, start):
        record((right, window, k, ell), start)
        return match(text, right, window, k, ell, start)

    monkeypatch.setattr(rankers, "_match", searched)


def test_bounded_walk_keeps_a_state_only_with_fewer_blocks(monkeypatch):
    # a bounded state is (position on u, position on v, last direction); a
    # ranker there with no fewer blocks than an earlier one reaches nothing
    # new, so the plain m = 12 witness walk keeps 1,911 rankers, not the
    # 7,545 it kept with blocks in the state. Nor does a ranker reach
    # anything new where one ending the other way has fewer blocks, so the
    # walk makes 49,872 searches, not the 84,216 of extending every one
    from fo2words import rankers, witness_words

    searches = []
    _record_lookups(monkeypatch, lambda args, start: searches.append(start))
    monkeypatch.setattr(rankers, "DEFAULT_ENUMERATION_CAP", 5_000)
    pair = witness_words(12, 12)
    assert ranker_equiv_alt(pair.u, pair.v, 11, 12).verdict is True
    assert len(searches) < 60_000


def test_no_kept_ranker_is_dominated_by_an_earlier_one():
    # in a bounded walk, each kept ranker has fewer blocks than every
    # earlier kept ranker at its positions with its last direction
    from fo2words.rankers import DEFAULT_ENUMERATION_CAP, _walk

    rng = random.Random(5)
    revisits = 0
    for _ in range(300):
        u, v = (W("".join(rng.choices("ab", k=rng.randint(0, 8)))) for _ in range(2))
        n = rng.randint(1, 6)
        m = rng.randint(1, n + 1)
        kept, pos_u, pos_v, blocks, _ = _walk(u, v, n, m, False, DEFAULT_ENUMERATION_CAP)
        least = {}
        for steps, x, y, b in zip(kept, pos_u, pos_v, blocks):
            state = (x, y, steps[-1].direction)
            assert b < least.get(state, b + 1), (u.text, v.text, steps)
            revisits += state in least
            least[state] = b
    assert revisits > 0


@pytest.mark.parametrize("w", ["abab", "aabba", "babbaab"])
def test_walk_of_one_text_makes_one_lookup_per_step(monkeypatch, w):
    # a word walked against itself sits at one position on both copies, so
    # each step's lookup serves both
    calls = []
    _record_lookups(monkeypatch, lambda step, start: calls.append((step, start)))
    realized_rankers(W(w), 3)
    realized_suc_rankers(W(w), 3)
    assert suc_ranker_equiv(W(w), W(w), 3).verdict is True
    assert calls
    assert all(a != b for a, b in zip(calls, calls[1:]))


_U60 = "aaaaabbaaabaaaaabaaabbaababaaabbababaabaabbbabbbaaababaaaabb"


@pytest.mark.parametrize(
    "decide, fails_b",
    [
        (lambda u, v: ranker_equiv(u, v, 3), _U60 + "b"),
        (lambda u, v: ranker_equiv_alt(u, v, 2, 3), _U60 + "b"),
        (lambda u, v: suc_ranker_equiv(u, v, 3), "a" + _U60),
    ],
    ids=["plain", "plain-alt", "successor"],
)
def test_deciders_build_only_the_rankers_they_report(monkeypatch, decide, fails_b):
    # the walk keeps step tuples; a Ranker or SucRanker is built only for a
    # reported witness
    from fo2words import rankers

    post_init, built = rankers.Ranker.__post_init__, [0]

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(rankers.Ranker, "__post_init__", counted)
    u = W(_U60)
    for v in (shrink(u, 3), W(fails_b)):
        built[0] = 0
        report = decide(u, v)
        assert built[0] <= len(report.witnesses)
    assert report.failed_condition is FailedCondition.ORDER


@pytest.mark.parametrize("w", ["", "a", "abab", "aabba", "babbaab", _U60])
def test_a_word_against_itself_is_decided_by_the_walk(monkeypatch, w):
    # equal texts put every ranker at one position on both words, so no
    # row can fail (b) or (c) once the walk finds no one-sided ranker
    from fo2words import equivalence

    def refuse(*args):
        raise AssertionError("the order check ran on one text")

    monkeypatch.setattr(equivalence, "_first_bad", refuse)
    monkeypatch.setattr(equivalence, "_Columns", refuse)
    u, v = W(w), W(w)
    for report in (
        ranker_equiv(u, v, 3),
        ranker_equiv_alt(u, v, 2, 3),
        suc_ranker_equiv(u, v, 3),
        suc_ranker_equiv_alt(u, v, 2, 3),
    ):
        assert report.verdict is True
        assert report.failed_condition is FailedCondition.NONE


def test_tables_of_many_letters_stay_under_the_cap():
    # two words of 1,500 distinct letters give the walk 3,000 candidate
    # steps, and it searches both words for each; its peak memory must not
    # grow with steps times word length
    import tracemalloc

    letters = tuple(chr(0x4E00 + i) for i in range(1500))
    alphabet = Alphabet(letters)
    u, v = Word(alphabet, "".join(letters)), Word(alphabet, "".join(reversed(letters)))
    tracemalloc.start()
    try:
        report = ranker_equiv(u, v, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict is True
    assert peak < 10_000_000


_SUCCESSOR_STOPS = [("abab", "abab"), ("abab", "abba"), ("aabab", "aabab"), ("aaaa", "aaaaa")]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize(
    "u, v, successor, m",
    [
        ("abab", "abab", False, None),
        ("abab", "abba", False, None),
        ("aabab" * 20, "aabab" * 20, False, None),
        ("aabab" * 20, "aabab" * 19 + "ababa", False, None),
        *[(u, v, True, m) for m in (None, 2) for u, v in _SUCCESSOR_STOPS],
    ],
    ids=["abab-abab", "abab-abba", "100-letters-same", "100-letters-differ"]
    + [f"suc-{u}-{v}" + (f"-m{m}" if m else "") for m in (None, 2) for u, v in _SUCCESSOR_STOPS],
)
def test_walk_stops_when_no_state_is_new(monkeypatch, u, v, successor, m):
    # a walk has finitely many states: pairs of positions (with an
    # alternation bound, also blocks and last direction) for each window
    # width, and the width stops growing at max(|u|, |v|) - 1. So its report
    # at a huge n is read off the same walk as at a small one. The lookup
    # counter stops a walk whose states keep growing, the alarm one that
    # steps through every empty depth.
    calls = [0]

    def counted(step, start):
        calls[0] += 1
        if calls[0] > 20_000:
            raise AssertionError("the walk keeps finding new states")

    def alarm(signum, frame):
        raise AssertionError("the walk did not stop at its last new state")

    def decide(n):
        if m is None:
            return (suc_ranker_equiv if successor else ranker_equiv)(W(u), W(v), n)
        return (suc_ranker_equiv_alt if successor else ranker_equiv_alt)(W(u), W(v), m, n)

    _record_lookups(monkeypatch, counted)
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        huge = decide(10**9).to_json_dict()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    small = decide(5).to_json_dict()
    assert huge.pop("n") == 10**9 and small.pop("n") == 5
    assert huge == small
    assert calls[0] > 0
