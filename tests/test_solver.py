import itertools
import random

import pytest

from fo2words import (
    Alphabet,
    Cnf,
    Formula,
    FreeVariableError,
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
from fo2words.solver import CNF_ALPHABET, _cut_runs, _left_partition, _right_partition
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


def test_left_partition_structure():
    pieces, runs, tail = _left_partition("aabba")
    # b appears last from the left: first piece "aa", run "bb", tail "a"
    assert pieces == ["aa"]
    assert runs == [(2, 4)]
    assert tail == "a"
    pieces, runs, tail = _right_partition("aabba")
    assert pieces == ["a"]
    assert runs == [(2, 4)]
    assert tail == "aa"


def test_partition_reconstructs_word():
    rng = random.Random(60)
    for _ in range(200):
        text = "".join(rng.choice("ab c".replace(" ", "")) for _ in range(rng.randint(2, 25)))
        if len(set(text)) < 2:
            continue
        pieces, runs, tail = _left_partition(text)
        rebuilt = ""
        for piece, (s, e) in zip(pieces, runs):
            rebuilt += piece + text[s:e]
        rebuilt += tail
        assert rebuilt == text


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


def _cut_runs_reference(text, n):
    """The original cut, one segment at a time, kept to check the regex one against."""
    return "".join(seg.letter * min(len(seg), 2 * n) for seg in segments(text))


def test_partitions_match_reference_scan():
    rng = random.Random(61)
    for _ in range(2000):
        letters = "abcd"[: rng.randint(1, 4)]
        text = "".join(rng.choice(letters) for _ in range(rng.randint(1, 40)))
        for n in (1, 2, 3):
            assert _cut_runs(text, n) == _cut_runs_reference(text, n)
        assert _left_partition(text) == _left_partition_reference(text)
        pieces, runs, tail = _left_partition_reference(text[::-1])
        mirrored = (
            [p[::-1] for p in pieces],
            [(len(text) - e, len(text) - s) for s, e in runs],
            tail[::-1],
        )
        assert _right_partition(text) == mirrored


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
    for bounds in ({"max_len": -1}, {"max_len": -3}, {"exact_len": -1}):
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
