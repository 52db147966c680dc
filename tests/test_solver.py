import itertools
import random
import re
import tracemalloc
from collections import defaultdict

import pytest

from fo2words import (
    Alphabet,
    And,
    Cnf,
    Formula,
    FreeVariableError,
    Not,
    SatStatus,
    SearchBudgetError,
    SignatureError,
    Signature,
    Word,
    cnf_brute_force,
    cnf_to_fo2,
    eval_ranker,
    formula_metrics,
    game_equiv,
    model_check,
    parse_dimacs,
    parse_formula,
    parse_ranker,
    ranker_equiv,
    render_formula,
    sat_search,
    segments,
    shrink,
    small_model_bound,
    synth_definedness,
)
from fo2words import formulas
from fo2words import solver as solver_module
from fo2words.solver import (
    CNF_ALPHABET,
    _class_key,
    _class_representatives,
    _left_partition,
    _right_partition,
    _same_class,
    _shrink_text,
)
from helpers import random_sentence

A1 = Alphabet(("a",))
AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def test_small_model_bound_examples():
    assert small_model_bound(1, 1) == 2
    assert small_model_bound(2, 1) == 4
    assert small_model_bound(2, 2) == 40
    with pytest.raises(ValueError):
        small_model_bound(0, 1)


def test_shrink_examples():
    assert shrink(Word(A1, "aaaaa"), 1).text == "aa"
    assert shrink(Word(AB, "ab"), 3).text == "ab"
    assert shrink(Word(AB, "a" + "b" * 9 + "a"), 2).text == "a" + "b" * 4 + "a"
    assert shrink(Word(AB, ""), 2).text == ""


def _full(partition, text):
    """A partition scan with no block limit: a text has no more blocks than letters."""
    return partition(text, set(text), len(text) + 1)


def test_left_partition_structure():
    pieces, runs = _full(_left_partition, "aabba")
    # b appears last from the left: first piece "aa", run "bb", then "a"
    assert pieces == ["aa"]
    assert runs == [(2, 4)]
    pieces, runs = _full(_right_partition, "aabba")
    assert pieces == ["a"]
    assert runs == [(2, 4)]


def test_partition_reconstructs_word():
    rng = random.Random(60)
    for _ in range(200):
        text = "".join(rng.choice("ab c".replace(" ", "")) for _ in range(rng.randint(2, 25)))
        if len(set(text)) < 2:
            continue
        pieces, runs = _full(_left_partition, text)
        rebuilt = ""
        for piece, (s, e) in zip(pieces, runs):
            rebuilt += piece + text[s:e]
        # the blocks tile a prefix, and what follows lacks a letter
        assert text.startswith(rebuilt)
        assert len(set(text[len(rebuilt) :])) < len(set(text))


def _left_partition_reference(text):
    """The original quadratic scan, kept to check the linear one against."""
    k = len(set(text))
    pieces, runs = [], []
    pos = 0
    while True:
        suffix = text[pos:]
        if len(set(suffix)) < k:
            return pieces, runs, suffix
        first_at = {c: suffix.index(c) for c in set(suffix)}
        late_letter = max(first_at, key=lambda c: first_at[c])
        f = first_at[late_letter]
        end = f
        while end < len(suffix) and suffix[end] == late_letter:
            end += 1
        pieces.append(suffix[:f])
        runs.append((pos + f, pos + end))
        pos += end


def _right_partition_reference(text):
    pieces, runs, tail = _left_partition_reference(text[::-1])
    L = len(text)
    return [p[::-1] for p in pieces], [(L - e, L - s) for s, e in runs], tail[::-1]


def test_partitions_match_reference_scan():
    # a limited scan returns the first blocks of the full one
    rng = random.Random(61)
    for _ in range(2000):
        letters = rng.choice(("abcd", "]^\\-.a"))[: rng.randint(1, 4)]
        text = "".join(rng.choice(letters) for _ in range(rng.randint(1, 40)))
        for partition, reference in (
            (_left_partition, _left_partition_reference),
            (_right_partition, _right_partition_reference),
        ):
            pieces, runs, _ = reference(text)
            assert _full(partition, text) == (pieces, runs)
            for limit in range(len(runs) + 1):
                assert partition(text, set(text), limit) == (pieces[:limit], runs[:limit])


def test_partition_counts_agree_from_both_ends():
    # Both greedy scans find the most disjoint blocks that each hold every
    # letter, so their full counts are equal; shrink checks them capped at 2n+1.
    def counts(text):
        return len(_left_partition_reference(text)[1]), len(_right_partition_reference(text)[1])

    for length in range(1, 10):
        for combo in itertools.product("abc", repeat=length):
            left, right = counts("".join(combo))
            assert left == right, combo
    rng = random.Random(62)
    for _ in range(2000):
        letters = "abcdef"[: rng.randint(1, 6)]
        text = "".join(rng.choice(letters) for _ in range(rng.randint(1, 400)))
        left, right = counts(text)
        assert left == right, text


def _cut_runs_reference(text, n):
    """The original cut, one segment at a time."""
    return "".join(seg.letter * min(len(seg), 2 * n) for seg in segments(text))


def _shrink_text_reference(text, n):
    """Shrinking with full scans over a cut word, as it was before the scans
    stopped at 2n+1 blocks and only kept runs were cut."""

    def scan(text):
        k = len(set(text))
        pieces, runs, pos, seen = [], [], 0, set()
        for m in re.finditer(r"(.)\1*", text):
            seen.add(m[1])
            if len(seen) == k:
                pieces.append(text[pos : m.start()])
                runs.append(m.span())
                pos, seen = m.end(), set()
        return pieces, runs

    k = len(set(text))
    if k == 0:
        return text
    wp = _cut_runs_reference(text, n)
    lpieces, lruns = scan(wp)
    rev_pieces, rev_runs = scan(wp[::-1])
    rpieces = [p[::-1] for p in rev_pieces]
    rruns = [(len(wp) - e, len(wp) - s) for s, e in rev_runs]
    assert len(lruns) == len(rruns)
    if len(lruns) > 2 * n:
        left = "".join(
            _shrink_text_reference(lpieces[i], n) + wp[lruns[i][0] : lruns[i][1]] for i in range(n)
        )
        right = "".join(
            wp[rruns[i][0] : rruns[i][1]] + _shrink_text_reference(rpieces[i], n)
            for i in range(n - 1, -1, -1)
        )
        return left + right
    out, pos = [], 0
    for s, e in sorted(set(lruns) | set(rruns)):
        out.append(_shrink_text_reference(wp[pos:s], n) + wp[s:e])
        pos = e
    out.append(_shrink_text_reference(wp[pos:], n))
    return "".join(out)


def test_shrink_matches_full_scan_reference():
    # uniform words reach the many-blocks branch; words of long runs and
    # words with one rare letter reach the cut and the few-blocks branch
    rng = random.Random(63)
    pool = "abc]^\\-.xyz"
    for i in range(1500):
        letters = rng.sample(pool, rng.randint(1, 6))
        length = rng.choice((rng.randint(0, 30), rng.randint(0, 300), rng.randint(0, 2000)))
        shape = i % 3
        if shape == 0:
            text = "".join(rng.choice(letters) for _ in range(length))
        elif shape == 1:
            text = "".join(rng.choice(letters) * rng.randint(1, 12) for _ in range(length // 6))
        else:
            common = letters[1:] or letters
            text = "".join(
                letters[0] if rng.random() < 0.01 else rng.choice(common) for _ in range(length)
            )
        n = rng.randint(1, 4)
        assert _shrink_text(text, n, set(text)) == _shrink_text_reference(text, n), (text, n)


class _CountingPattern:
    """Wraps a compiled pattern and counts the matches handed out."""

    def __init__(self, pattern):
        self.pattern, self.matches = pattern, 0

    def match(self, *args):
        self.matches += 1
        return self.pattern.match(*args)

    def finditer(self, *args):
        for m in self.pattern.finditer(*args):
            self.matches += 1
            yield m


def test_shrink_reads_blocks_not_letters(monkeypatch):
    # at each level of two letters each scan stops at 2n+1 blocks, and a
    # one-letter piece reads no run, however long the word
    n = 3
    rng = random.Random(64)
    w = Word(AB, "".join(rng.choices("ab", k=200_000)))
    counting = _CountingPattern(solver_module._RUN)
    monkeypatch.setattr(solver_module, "_RUN", counting)
    out = shrink(w, n)
    assert 0 < counting.matches <= 2 * (2 * n + 1)
    assert len(out) <= small_model_bound(n, 2)


def test_shrink_one_letter_keeps_2n_letters():
    # a one-letter word is one run, which the cut alone shortens
    for n in range(1, 5):
        for length in range(5 * n + 1):
            assert shrink(Word(A1, "a" * length), n).text == "a" * min(length, 2 * n)


def test_shrink_preserves_equivalence_sample():
    rng = random.Random(71)
    for _ in range(60):
        k = rng.randint(1, 3)
        alphabet = (A1, AB, ABC)[k - 1]
        text = "".join(rng.choice(alphabet.letters) for _ in range(rng.randint(0, 25)))
        w = Word(alphabet, text)
        n = rng.randint(1, 2)
        out = shrink(w, n)
        assert len(out) <= len(w)
        occurring = max(1, len(set(text)))
        assert len(out) <= small_model_bound(n, occurring)
        assert ranker_equiv(w, out, n).verdict


def test_shrink_spot_check_by_game():
    w = Word(AB, "aabbbbbaabbbab")
    out = shrink(w, 2)
    assert game_equiv(w, out, 2).delilah_wins


def test_shrink_preserves_models():
    # a sentence of depth <= n keeps its truth value through shrinking
    sentence = parse_formula("Ex.(a(x) & Ey.(x<y & b(y)))", AB)
    rng = random.Random(5)
    for _ in range(30):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(0, 20)))
        w = Word(AB, text)
        assert model_check(sentence, w) == model_check(sentence, shrink(w, 2))


def test_shrink_fuzz_long_words():
    # longer inputs and depth 3 exercise both partition branches; the
    # internal assertion enforces the size bound on every recursion level
    rng = random.Random(314)
    alphabets = (A1, AB, ABC)
    for i in range(500):
        alphabet = rng.choice(alphabets)
        text = "".join(rng.choice(alphabet.letters) for _ in range(rng.randint(0, 80)))
        w = Word(alphabet, text)
        n = rng.randint(1, 3)
        out = shrink(w, n)
        assert len(out) <= len(w)
        if i % 5 == 0:
            assert ranker_equiv(w, out, n).verdict, (text, n)
    for text, n in (("abc" * 25, 2), ("ab" * 40, 3), ("a" * 50 + "b" + "a" * 50, 1)):
        w = Word.from_text(text)
        out = shrink(w, n)
        assert ranker_equiv(w, out, n).verdict, (text, n)


def test_segment_replacement_in_context():
    # shrinking a single maximal run inside a word keeps the whole word
    # equivalent, checked by the game oracle
    rng = random.Random(77)
    checked = 0
    while checked < 10:
        text = "".join(rng.choice("ab") for _ in range(rng.randint(4, 14)))
        w = Word(AB, text)
        segs = segments(w)
        seg = rng.choice(segs)
        n = rng.randint(1, 2)
        inner = Word(AB, w.substring(seg.start, seg.end))
        replaced = (
            w.substring(1, seg.start - 1)
            + shrink(inner, n).text
            + w.substring(seg.end + 1, len(w))
        )
        assert game_equiv(w, Word(AB, replaced), n).delilah_wins
        checked += 1


def test_sat_search_examples():
    f = parse_formula("Ex. a(x)", A1)
    result = sat_search(f, A1)
    assert result.status is SatStatus.SAT and result.witness.text == "a"
    f = parse_formula("Ex.Ay.(y<x & x<y)", A1)
    result = sat_search(f, A1)
    assert result.status is SatStatus.UNSAT_DEFINITIVE
    assert result.explored_bound >= small_model_bound(2, 1)
    f = synth_definedness(parse_ranker(">a>c<b"))
    result = sat_search(f, ABC, max_len=6)
    assert result.status is SatStatus.SAT
    assert eval_ranker(parse_ranker(">a>c<b"), result.witness) is not None


def test_sat_search_is_shortlex_deterministic():
    f = parse_formula("Ex. b(x)", AB)
    result = sat_search(f, AB)
    assert result.witness.text == "b"  # length 1, lexicographically first with b


def test_sat_search_preconditions():
    with pytest.raises(FreeVariableError):
        sat_search(parse_formula("a(x)", A1), A1)
    with pytest.raises(SignatureError):
        sat_search(parse_formula("Ex.Ey.suc(x,y)", AB, Signature.ORDER_SUC), AB)
    with pytest.raises(SearchBudgetError):
        sat_search(parse_formula("Ex.Ay.(y<x & x<y)", ABC), ABC, word_budget=10)
    for bounds in ({"max_len": -1}, {"max_len": -3}, {"exact_len": -1}, {"word_budget": -1}):
        with pytest.raises(ValueError, match="must be >= 0"):
            sat_search(parse_formula("Ex. a(x)", A1), A1, **bounds)


def test_sat_search_matches_model_check_scan():
    # the search against a plain shortlex scan that checks each word afresh
    def scan(f, max_len):
        bound = small_model_bound(max(1, formula_metrics(f).quantifier_depth), len(AB))
        top = min(max_len, bound)
        for length in range(top + 1):
            for combo in itertools.product(AB.letters, repeat=length):
                if model_check(f, Word(AB, "".join(combo))):
                    return {"status": "sat", "witness": "".join(combo), "exploredBound": length}
        status = "unsat-definitive" if top >= bound else "unsat-up-to-bound"
        return {"status": status, "witness": None, "exploredBound": top}

    rng = random.Random(606)
    statuses = set()
    for _ in range(200):
        f = random_sentence(rng, rng.randint(1, 2))
        result = sat_search(f, AB, max_len=6).to_json_dict()
        assert result == scan(f, 6), render_formula(f)
        statuses.add(result["status"])
    assert statuses == {"sat", "unsat-up-to-bound"}


def _shortlex_scan(f, alphabet, max_len, cap):
    """sat_search's verdict by model_check on every word in shortlex order; None past cap words."""
    bound = small_model_bound(max(1, formula_metrics(f).quantifier_depth), len(alphabet))
    top = bound if max_len is None else min(max_len, bound)
    letters = alphabet.letters
    words = ("".join(c) for length in range(top + 1) for c in itertools.product(letters, repeat=length))
    for count, text in enumerate(words):
        if count == cap:
            return None
        if model_check(f, Word(alphabet, text)):
            return {"status": "sat", "witness": text, "exploredBound": len(text)}
    status = "unsat-definitive" if top >= bound else "unsat-up-to-bound"
    return {"status": status, "witness": None, "exploredBound": top}


def test_class_keys_match_game_and_rankers():
    # every {a,b} word up to length 5 at n <= 3, every {a,b,c} word up to length 4 at n <= 2
    for alphabet, top, depths in ((AB, 5, (1, 2, 3)), (ABC, 4, (1, 2))):
        words = [Word(alphabet, "".join(c)) for length in range(top + 1)
                 for c in itertools.product(alphabet.letters, repeat=length)]
        for n in depths:
            # one table for the whole corpus: a table per word would merge classes
            intern = defaultdict(itertools.count().__next__).__getitem__
            keys = {w.text: _class_key(w.text, n, intern) for w in words}
            for u, v in itertools.combinations(words, 2):
                same = keys[u.text] == keys[v.text]
                assert same is game_equiv(u, v, n).delilah_wins, (u.text, v.text, n)
                assert same is ranker_equiv(u, v, n).verdict, (u.text, v.text, n)
                assert same is _same_class(u.text, v.text, n)
                if same:
                    assert _class_key(u.text, n, hash) == _class_key(v.text, n, hash)


def test_sat_search_over_classes_matches_model_check_scan():
    rng = random.Random(1111)
    compared, statuses = 0, set()
    for alphabet in (AB, ABC):
        for depth in (1, 2, 3):
            for max_len in (None, 4, 6):
                for _ in range(12):
                    f = random_sentence(rng, depth, alphabet)
                    expected = _shortlex_scan(f, alphabet, max_len, 1500)
                    if expected is not None:
                        result = sat_search(f, alphabet, max_len=max_len).to_json_dict()
                        assert result == expected, render_formula(f)
                        compared += 1
                        statuses.add(expected["status"])
    assert compared >= 200 and statuses == {"sat", "unsat-up-to-bound"}
    # depth 1 over {a,b} is definitive at 12 letters, so the scan reads all 8,191 words
    for text in ("Ex.(a(x) & !a(x))", "(Ax.a(x)) & Ex.b(x)", "(Ex.a(x)) & (Ex.b(x)) & !(Ex.(a(x) | b(x)))"):
        f = parse_formula(text, AB)
        assert sat_search(f, AB).to_json_dict() == _shortlex_scan(f, AB, None, 8191), text
    psi = random_sentence(random.Random(7), 1, AB)
    f = And(psi, Not(psi))
    assert sat_search(f, AB).to_json_dict() == _shortlex_scan(f, AB, None, 8191)


def test_sat_search_definitive_over_classes():
    cases = [
        ("Ex.(a(x) & Ay.!(y<x)) & Ex.(b(x) & Ay.!(y<x))", {}, 84),  # depth 3
        ("(Ex.(a(x) & Ey.(x<y & b(y)))) & !(Ex.(a(x) & Ey.(x<y & b(y))))", {"word_budget": 2000}, 40),
        ("(Ax.(b(x) -> Ey.(y<x & a(y)))) & !(Ax.(b(x) -> Ey.(y<x & a(y))))", {"word_budget": 2000}, 40),
    ]
    for text, kwargs, bound in cases:
        result = sat_search(parse_formula(text, AB), AB, **kwargs).to_json_dict()
        assert result == {"status": "unsat-definitive", "witness": None, "exploredBound": bound}, text
    # the depth-3 search needs 12,602 children, one per letter for each of its 6,301 classes
    with pytest.raises(SearchBudgetError):
        sat_search(parse_formula(cases[0][0], AB), AB, word_budget=12_601)
    result = sat_search(parse_formula(cases[0][0], AB), AB, word_budget=12_602)
    assert result.status is SatStatus.UNSAT_DEFINITIVE


def test_sat_search_compares_keys_when_hashes_collide(monkeypatch):
    classes = list(_class_representatives(("a", "b"), 2, 40, True, 2000))
    assert len(classes) == 97 and classes[:8] == ["", "a", "b", "aa", "ab", "ba", "bb", "aaa"]
    real_key = solver_module._class_key

    def colliding_key(text, n, intern):  # one hash for all, so every child meets every class
        return frozenset() if intern is hash else real_key(text, n, intern)

    monkeypatch.setattr(solver_module, "_class_key", colliding_key)
    assert list(_class_representatives(("a", "b"), 2, 40, True, 2000)) == classes
    result = sat_search(parse_formula("Ex.(a(x) & Ey.(x<y & b(y))) & !(Ex.(b(x) & Ey.(x<y & a(y))))", AB), AB)
    assert result.witness.text == "ab"


def test_class_search_holds_one_word_per_class():
    # at depth 4 over three letters nearly every word is its own class; a type table
    # shared by the whole search peaks at 17-36 MB over these 3,000 candidates
    f = parse_formula("Ex.(Ex.(Ex.(Ex.x<x)))", ABC)
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetError):
            sat_search(f, ABC, word_budget=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_class_search_checks_the_bound():
    # a^1 ... a^5 are pairwise apart at depth 3, so a bound of 2 letters is too small
    assert list(_class_representatives(("a",), 3, 2, False, 100)) == ["", "a", "aa"]
    with pytest.raises(AssertionError, match="small-model bound"):
        list(_class_representatives(("a",), 3, 2, True, 100))


def test_sat_search_compiles_once(monkeypatch):
    compiled = []
    compile_formula = formulas._Program.__init__

    def counting(self, f):
        compiled.append(f)
        compile_formula(self, f)

    monkeypatch.setattr(formulas._Program, "__init__", counting)
    f = parse_formula("Ex.Ay.(y<x & x<y)", AB)
    result = sat_search(f, AB, max_len=5)
    assert result.status is SatStatus.UNSAT_UP_TO_BOUND and result.explored_bound == 5
    assert len(compiled) == 1 and compiled[0] is f


def test_sat_search_up_to_bound():
    f = parse_formula("Ex.Ay.(y<x & x<y)", A1)
    result = sat_search(f, A1, max_len=2)
    assert result.status is SatStatus.UNSAT_UP_TO_BOUND
    assert result.explored_bound == 2


def test_cnf_to_fo2_examples():
    formula, n = cnf_to_fo2(Cnf(1, ((1,), (-1,))))
    result = sat_search(formula, CNF_ALPHABET, exact_len=n)
    assert result.status is not SatStatus.SAT
    formula, n = cnf_to_fo2(Cnf(1, ((1,),)))
    result = sat_search(formula, CNF_ALPHABET, exact_len=n)
    assert result.status is SatStatus.SAT and result.witness.text == "1"
    formula, n = cnf_to_fo2(Cnf(2, ((1, -2), (2,))))
    result = sat_search(formula, CNF_ALPHABET, exact_len=n)
    assert result.status is SatStatus.SAT and result.witness.text == "11"


def test_cnf_to_fo2_pins_length():
    formula, n = cnf_to_fo2(Cnf(2, ((1,),)))
    for length in (0, 1, 3):
        result = sat_search(formula, CNF_ALPHABET, exact_len=length)
        assert result.status is not SatStatus.SAT
    with pytest.raises(ValueError):
        cnf_to_fo2(Cnf(1, ()))


def test_cnf_to_fo2_renders_pinned():
    # captured before the counting chains were shared
    assert render_formula(cnf_to_fo2(Cnf(2, ((1, -2), (2,))))[0]) == (
        "(((Ex.(Ey.y<x)) & !(Ex.(Ey.(y<x & (Ex.x<y))))) & (((Ex.(1(x) & !(Ey.y<x))) | "
        "!(Ex.(1(x) & ((Ey.y<x) & !(Ey.(y<x & (Ex.x<y))))))) & (Ex.(1(x) & ((Ey.y<x) & "
        "!(Ey.(y<x & (Ex.x<y))))))))"
    )
    assert render_formula(cnf_to_fo2(Cnf(3, ((-1, 3), (), (2,))))[0]) == (
        "(((Ex.(Ey.(y<x & (Ex.x<y)))) & !(Ex.(Ey.(y<x & (Ex.(x<y & (Ey.y<x))))))) & "
        "((!(Ex.(1(x) & !(Ey.y<x))) | (Ex.(1(x) & ((Ey.(y<x & (Ex.x<y))) & "
        "!(Ey.(y<x & (Ex.(x<y & (Ey.y<x))))))))) & ((Ex.x<x) & (Ex.(1(x) & ((Ey.y<x) & "
        "!(Ey.(y<x & (Ex.x<y)))))))))"
    )


def test_cnf_to_fo2_shares_counting_chains():
    def distinct_nodes(n):
        formula, _ = cnf_to_fo2(Cnf(n, (tuple(range(1, n + 1)),)))
        seen, stack = set(), [formula]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack += [c for c in vars(node).values() if isinstance(c, Formula)]
        return len(seen)

    # one chain per variable would make the count quadratic in n
    assert distinct_nodes(200) <= 2.1 * distinct_nodes(100)


def test_cnf_brute_force_examples():
    assert cnf_brute_force(Cnf(1, ((1,), (-1,)))) is False
    assert cnf_brute_force(Cnf(2, ((1, 2),))) is True
    assert cnf_brute_force(Cnf(2, ((1, 2), ()))) is False
    with pytest.raises(ValueError):
        cnf_brute_force(Cnf(21, ((1,),)))


def test_reduction_matches_brute_force_random():
    rng = random.Random(90)
    for _ in range(25):
        nvars = rng.randint(1, 4)
        clauses = tuple(
            tuple(
                rng.choice((1, -1)) * rng.randint(1, nvars)
                for _ in range(rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 6))
        )
        cnf = Cnf(nvars, clauses)
        formula, n = cnf_to_fo2(cnf)
        result = sat_search(formula, CNF_ALPHABET, exact_len=n)
        assert (result.status is SatStatus.SAT) == cnf_brute_force(cnf)
        if result.status is SatStatus.SAT:
            assert len(result.witness) == n
            assert model_check(formula, result.witness)


def test_parse_dimacs():
    cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n-3 0\n")
    assert cnf.variable_count == 3
    assert cnf.clauses == ((1, -2), (-3,))
    cnf = parse_dimacs("p cnf 2 1\n1\n2 0")  # clauses may span lines
    assert cnf.clauses == ((1, 2),)
    cnf = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n")  # SATLIB's layout ends in "%", "0"
    assert cnf.clauses == ((1, -2), (2, 3))
    cnf = parse_dimacs("p cnf 2 2\n1 0\n-1 2")  # the last clause may omit its 0
    assert cnf.clauses == ((1,), (-1, 2))
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 1 2\n1 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 1 1\n5 0\n")


def test_render_size_linear_in_cnf():
    rng = random.Random(91)
    for _ in range(20):
        nvars = rng.randint(1, 4)
        clauses = tuple(
            tuple(
                rng.choice((1, -1)) * rng.randint(1, nvars)
                for _ in range(rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 6))
        )
        cnf = Cnf(nvars, clauses)
        formula, n = cnf_to_fo2(cnf)
        assert len(render_formula(formula)) <= 64 * max(1, cnf.literal_count) * n + 64 * n


def test_exact_length_search_stops_at_its_word_budget():
    # no word satisfies the sentence, so all four words of length 2 are run
    never = parse_formula("Ex. (a(x) & b(x))", AB)
    with pytest.raises(SearchBudgetError):
        sat_search(never, AB, exact_len=2, word_budget=3)
    result = sat_search(never, AB, exact_len=2, word_budget=4)
    assert (result.status, result.witness, result.explored_bound) == (SatStatus.UNSAT_UP_TO_BOUND, None, 2)
