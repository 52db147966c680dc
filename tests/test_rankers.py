import itertools

import pytest
from hypothesis import given, strategies as st

from fo2words import (
    Alphabet,
    BoundaryPos,
    Direction,
    EnumerationCapError,
    NeighborhoodBoundaryPos,
    Ranker,
    SucRanker,
    Word,
    all_words,
    alternation_blocks,
    eval_boundary,
    eval_ranker,
    eval_suc_boundary,
    eval_suc_ranker,
    parse_ranker,
    realized_rankers,
    realized_suc_rankers,
    render_ranker,
)
from fo2words.rankers import sort_key

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def W(text, alphabet=AB):
    return Word(alphabet, text)


R = Direction.RIGHT
L = Direction.LEFT


def test_eval_boundary_examples():
    assert eval_boundary(BoundaryPos(R, "a"), W("bab")) == 2
    assert eval_boundary(BoundaryPos(R, "a"), W("bbb")) is None
    assert eval_boundary(BoundaryPos(L, "b"), W("cababcba", ABC), start=6) == 5


def test_eval_boundary_strictness():
    w = W("aba")
    assert eval_boundary(BoundaryPos(R, "a"), w, start=1) == 3
    assert eval_boundary(BoundaryPos(L, "a"), w, start=3) == 1
    assert eval_boundary(BoundaryPos(R, "a"), w, start=3) is None
    assert eval_boundary(BoundaryPos(L, "a"), w, start=1) is None


def test_left_step_before_the_first_position():
    # nothing lies strictly left of position 0, with or without a window
    assert eval_boundary(BoundaryPos(L, "a"), W("aba"), start=0) is None
    assert eval_boundary(BoundaryPos(L, "a", before="b"), W("abaa"), start=0) is None
    assert eval_boundary(BoundaryPos(L, "a", after="b"), W("aba"), start=0) is None
    assert eval_boundary(BoundaryPos(L, "a", before="b"), W("abaa"), start=4) == 3


def test_evaluation_matches_the_search_formula():
    # eval_boundary answers as the clamped search below does, for every
    # start it accepts, None and starts below 1 included

    def formula(text, right, window, k, ell, start):
        if right:
            idx = text.find(window, 0 if start is None else max(0, start - k))
        else:
            idx = text.rfind(window, 0, len(text) if start is None else max(0, start - 1 + ell))
        return idx + k + 1 if idx >= 0 else None

    windows = [
        ("".join(b), c, "".join(a))
        for k, ell in ((0, 0), (1, 0), (0, 2))
        for b in itertools.product("abc", repeat=k)
        for c in "abc"
        for a in itertools.product("abc", repeat=ell)
    ]
    for w in all_words(ABC, 6):
        text = w.text
        for (before, letter, after), d in itertools.product(windows, (R, L)):
            step, window = BoundaryPos(d, letter, before, after), before + letter + after
            for start in (None, 0, -1, -5, *range(1, len(text) + 2)):
                expected = formula(text, d is R, window, len(before), len(after), start)
                assert eval_boundary(step, w, start) == expected, (step, text, start)


def test_eval_ranker_worked_values():
    r = parse_ranker(">a>c<b")
    assert eval_ranker(r, W("cababcba", ABC)) == 5
    assert eval_ranker(r, W("acbbca", ABC)) is None
    assert eval_ranker(parse_ranker(">a"), W("")) is None


def test_prefix():
    r = parse_ranker(">a>c<b")
    assert render_ranker(r.prefix(2)) == ">a>c"
    assert render_ranker(r.prefix(1)) == ">a"
    assert parse_ranker("<b>a").prefix(1) == parse_ranker("<b")
    with pytest.raises(ValueError):
        r.prefix(0)
    with pytest.raises(ValueError):
        r.prefix(4)


def test_alternation_blocks():
    assert alternation_blocks(parse_ranker(">a>c<b")) == 2
    assert alternation_blocks(parse_ranker(">a")) == 1
    assert alternation_blocks(parse_ranker("<a>b<c>d")) == 4


def test_eval_suc_boundary_examples():
    assert eval_suc_boundary(NeighborhoodBoundaryPos(R, "", "a", "b"), W("cab", ABC)) == 2
    assert eval_suc_boundary(NeighborhoodBoundaryPos(R, "b", "a", ""), W("ab")) is None
    assert eval_suc_boundary(NeighborhoodBoundaryPos(R, "", "a", ""), W("bab")) == 2


def test_eval_suc_ranker_window_growth():
    # a window only fits where it is fully inside the word
    r = SucRanker(
        (
            NeighborhoodBoundaryPos(R, "", "a", ""),
            NeighborhoodBoundaryPos(R, "a", "a", ""),
        )
    )
    assert eval_suc_ranker(r, W("aa")) == 2
    assert eval_suc_ranker(r, W("ab")) is None


def test_suc_ranker_width_invariant():
    with pytest.raises(ValueError):
        SucRanker((NeighborhoodBoundaryPos(R, "", "a", "b"),))
    with pytest.raises(ValueError):
        SucRanker(
            (
                NeighborhoodBoundaryPos(R, "", "a", ""),
                NeighborhoodBoundaryPos(R, "ab", "a", ""),
            )
        )


def test_realized_rankers_examples():
    rs = realized_rankers(W("ab"), 1)
    assert {render_ranker(r): p for r, p in rs.positions.items()} == {
        ">a": 1,
        ">b": 2,
        "<a": 1,
        "<b": 2,
    }
    assert len(realized_rankers(W(""), 2)) == 0
    only_right = realized_rankers(W("ababa"), 1).select(
        length=1, last_direction=Direction.RIGHT
    )
    assert {render_ranker(r): p for r, p in only_right} == {">a": 1, ">b": 2}


def test_realized_suc_rankers_examples():
    rs = realized_suc_rankers(W("ab"), 1)
    assert {render_ranker(r): p for r, p in rs.positions.items()} == {
        ">[|a|]": 1,
        ">[|b|]": 2,
        "<[|a|]": 1,
        "<[|b|]": 2,
    }
    assert len(realized_suc_rankers(W(""), 1)) == 0
    rs = realized_suc_rankers(W("aa"), 2)
    target = SucRanker(
        (
            NeighborhoodBoundaryPos(R, "", "a", ""),
            NeighborhoodBoundaryPos(R, "a", "a", ""),
        )
    )
    assert rs[target] == 2


def test_realized_sets_list_rankers_in_sort_key_order():
    # RealizedSet documents this order and the equivalence walk's witnesses rely on it
    for w in all_words(AB, 5):
        for realize in (realized_rankers, realized_suc_rankers):
            rankers = realize(w, 3).rankers()
            assert rankers == sorted(rankers, key=sort_key), (realize.__name__, w.text)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError) as exc:
        realized_rankers(W("ab" * 3), 3, cap=5)
    assert "5" in str(exc.value)


def test_negative_cap_is_a_usage_error():
    for realize in (realized_rankers, realized_suc_rankers):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            realize(W("ab"), 2, cap=-1)
        with pytest.raises(EnumerationCapError):  # a cap of zero is a cap, not a usage error
            realize(W("ab"), 2, cap=0)


def test_realized_set_invariant_positions_reproduce():
    for w in all_words(AB, 5):
        rs = realized_rankers(w, 3)
        for r, p in rs.positions.items():
            assert eval_ranker(r, w) == p
            assert 1 <= p <= len(w)


def test_prefix_definedness_exhaustive():
    # every prefix of a defined ranker is defined
    for w in all_words(AB, 5):
        for r in realized_rankers(w, 3).rankers():
            for k in range(1, len(r) + 1):
                assert eval_ranker(r.prefix(k), w) is not None


def test_boundary_minimality():
    for w in all_words(AB, 5):
        for q in [None] + list(w.positions()):
            for letter in AB:
                p = eval_boundary(BoundaryPos(R, letter), w, q)
                if p is not None:
                    assert w.letter(p) == letter
                    lo = (q or 0) + 1
                    assert all(w.letter(i) != letter for i in range(lo, p))
                p = eval_boundary(BoundaryPos(L, letter), w, q)
                if p is not None:
                    assert w.letter(p) == letter
                    hi = (q or len(w) + 1) - 1
                    assert all(w.letter(i) != letter for i in range(p + 1, hi + 1))


def test_direction_monotonicity():
    for w in all_words(AB, 5):
        for r in realized_rankers(w, 3).rankers():
            if len(r) < 2:
                continue
            for k in range(2, len(r) + 1):
                prev = eval_ranker(r.prefix(k - 1), w)
                cur = eval_ranker(r.prefix(k), w)
                if r.steps[k - 1].direction is R:
                    assert cur > prev
                else:
                    assert cur < prev


def _naive_realized(w, n):
    """Independent generator: all syntactic rankers filtered by evaluation."""
    out = {}
    steps = [
        BoundaryPos(d, c) for d in (R, L) for c in w.alphabet.letters
    ]
    for length in range(1, n + 1):
        for combo in itertools.product(steps, repeat=length):
            r = Ranker(combo)
            p = eval_ranker(r, w)
            if p is not None:
                out[r] = p
    return out


@pytest.mark.parametrize("alphabet", [AB, ABC])
def test_realized_matches_naive_enumeration(alphabet):
    for w in all_words(alphabet, 6):
        assert realized_rankers(w, 3).positions == _naive_realized(w, 3)


def _syntactic_suc_rankers(letters, n):
    """Every successor ranker of length <= n over the letters, step i with
    windows of at most i-1 letters a side."""
    steps = []
    for i in range(1, n + 1):
        windows = ["".join(t) for k in range(i) for t in itertools.product(letters, repeat=k)]
        steps.append([
            NeighborhoodBoundaryPos(d, before, c, after)
            for d in (R, L) for c in letters for before in windows for after in windows
        ])
        yield from (SucRanker(combo) for combo in itertools.product(*steps))


@pytest.mark.parametrize("alt_bound", [None, 1])
def test_realized_suc_matches_naive_enumeration(alt_bound):
    # independent of the walk: every syntactic ranker, filtered by evaluation
    for max_len, n in ((6, 2), (4, 3)):
        syntactic = [
            r for r in _syntactic_suc_rankers(AB.letters, n)
            if alt_bound is None or alternation_blocks(r) <= alt_bound
        ]
        for w in all_words(AB, max_len):
            defined = [(r, eval_suc_ranker(r, w)) for r in syntactic]
            expected = sorted(((r, p) for r, p in defined if p is not None), key=lambda rp: sort_key(rp[0]))
            for depth in range(1, n + 1):
                realized = realized_suc_rankers(w, depth, alt_bound)
                want = [(r, p) for r, p in expected if len(r) <= depth]
                assert list(realized.positions.items()) == want, (w.text, depth)


def test_realized_alt_bound_filter():
    w = W("abab")
    full = realized_rankers(w, 3)
    bounded = realized_rankers(w, 3, alt_bound=1)
    expected = {r: p for r, p in full.positions.items() if alternation_blocks(r) <= 1}
    assert bounded.positions == expected


def test_suc_ranker_empty_windows_match_plain():
    for w in all_words(AB, 4):
        for r in realized_rankers(w, 2).rankers():
            sr = SucRanker(
                tuple(NeighborhoodBoundaryPos(s.direction, "", s.letter, "") for s in r)
            )
            assert eval_suc_ranker(sr, w) == eval_ranker(r, w)


_plain_step = st.tuples(st.sampled_from(">,<".split(",")), st.sampled_from("abc"))


@given(st.lists(_plain_step, min_size=1, max_size=5))
def test_parse_render_round_trip_plain(steps):
    text = "".join(d + c for d, c in steps)
    r = parse_ranker(text)
    assert isinstance(r, Ranker)
    assert render_ranker(r) == text
    assert parse_ranker(render_ranker(r)) == r


@given(st.data())
def test_parse_render_round_trip_suc(data):
    steps = []
    k = data.draw(st.integers(min_value=1, max_value=4))
    for i in range(1, k + 1):
        d = data.draw(st.sampled_from("><"))
        before = data.draw(st.text(alphabet="ab", min_size=0, max_size=i - 1))
        after = data.draw(st.text(alphabet="ab", min_size=0, max_size=i - 1))
        letter = data.draw(st.sampled_from("ab"))
        steps.append(f"{d}[{before}|{letter}|{after}]")
    text = "".join(steps)
    r = parse_ranker(text)
    assert isinstance(r, SucRanker)
    assert render_ranker(r) == text
    assert parse_ranker(render_ranker(r)) == r


def test_directions_must_be_direction_members():
    # unchecked, ">" would evaluate as a left step, and select would keep nothing
    with pytest.raises(ValueError, match="direction must be"):
        BoundaryPos(">", "a")
    assert eval_ranker(Ranker((BoundaryPos(Direction.RIGHT, "a"),)), W("abab")) == 1
    realized = realized_rankers(W("abab"), 2)
    with pytest.raises(ValueError, match="last_direction must be"):
        realized.select(last_direction=">")
    assert len(realized.select(last_direction=Direction.RIGHT)) == 7


def test_parse_ranker_rejects_bad_input():
    for bad in ["", "a", ">", ">[a|b]", ">[ab|cd|]", "x>a"]:
        with pytest.raises(ValueError):
            parse_ranker(bad)
    with pytest.raises(ValueError):
        parse_ranker(">z", alphabet=AB)
