import random
from collections import Counter
from itertools import accumulate

import pytest

from fo2words import (
    Alphabet,
    GameConfig,
    GameResourceError,
    Side,
    Word,
    all_words,
    game_equiv,
    game_equiv_alt,
    game_equiv_general,
    model_check,
    partial_iso,
    ranker_equiv,
    witness_words_suc,
)
from fo2words.efgames import DEFAULT_GAME_CAP, _answered, _key, _keys, _Solver
import game_reference as reference
from helpers import random_sentence

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
# the reference corpora: all pairs over {a,b} up to length 5 and over
# {a,b,c} up to length 3
CORPORA = {"ab5": (AB, 5), "abc3": (ABC, 3)}


def W(text, alphabet=AB):
    return Word(alphabet, text)


def test_partial_iso_examples():
    assert partial_iso(GameConfig(W("ab"), W("ba"), x_u=1, x_v=2)) is True
    assert partial_iso(GameConfig(W("ab"), W("ba"), x_u=1, x_v=1)) is False
    abx = Alphabet(("a", "b", "x"))
    cfg = GameConfig(
        Word(abx, "ab"), Word(abx, "axb"),
        x_u=1, y_u=2, x_v=1, y_v=3, with_successor=True,
    )
    assert partial_iso(cfg) is False
    # same placements are fine without successor
    cfg_plain = GameConfig(
        Word(abx, "ab"), Word(abx, "axb"), x_u=1, y_u=2, x_v=1, y_v=3
    )
    assert partial_iso(cfg_plain) is True
    # a pebble placed on one word only is not a pairing
    assert partial_iso(GameConfig(W("ab"), W("ba"), x_u=1)) is False


def test_game_equiv_examples():
    assert game_equiv(W("ab"), W("ba"), 1).delilah_wins is True
    verdict = game_equiv(W("ab"), W("ba"), 2)
    assert verdict.delilah_wins is False
    assert verdict.first_winning_samson_move is not None
    a_only = Alphabet(("a",))
    verdict = game_equiv(Word(a_only, "a"), Word(a_only, ""), 1)
    assert verdict.delilah_wins is False
    side, pebble, pos = verdict.first_winning_samson_move
    assert side is Side.U and pos == 1


def test_game_equiv_zero_depth_and_empty():
    assert game_equiv(W("ab"), W("ba"), 0).delilah_wins is True
    assert game_equiv(W(""), W(""), 3).delilah_wins is True


def test_game_equiv_alt_examples():
    u, v = W("ababa"), W("baba")
    # the level-2 witness pair at matching indices
    assert game_equiv_alt(u, v, 1, 1).delilah_wins is True
    # one level deeper the words are distinguishable even without switching
    assert game_equiv_alt(u, v, 1, 2).delilah_wins is False
    assert game_equiv_alt(W("abab"), W("abab"), 2, 3).delilah_wins is True
    assert game_equiv_alt(W("ab"), W("ba"), 1, 2).delilah_wins is False


def test_game_equiv_alt_zero_switch_blocks():
    assert game_equiv_alt(W("ab"), W("ba"), 0, 3).delilah_wins is True


def test_game_equiv_general_examples():
    assert game_equiv_general(W("ab"), 1, 1, W("ab"), 1, 1, n=3).delilah_wins is True
    # initial placements that break the order type lose immediately
    verdict = game_equiv_general(W("ab"), 1, 2, W("ba"), 2, 1, n=1)
    assert verdict.delilah_wins is False
    verdict = game_equiv_general(W("aba"), 1, 1, W("aba"), 3, 3, n=1)
    assert verdict.delilah_wins is False
    with pytest.raises(ValueError):
        game_equiv_general(W("ab"), 0, 1, W("ab"), 1, 1, n=1)
    with pytest.raises(ValueError, match="m must be >= 0"):
        game_equiv_general(W("ab"), 1, 1, W("ab"), 1, 1, 2, m=-1)
    # a lost start reports pebble x on position 1 of the first allowed side
    lost = (W("ab"), 1, 2, W("ba"), 2, 1)
    assert game_equiv_general(*lost, n=1).first_winning_samson_move == (Side.U, "x", 1)
    verdict = game_equiv_general(*lost, n=1, start_side=Side.V)
    assert verdict.first_winning_samson_move == (Side.V, "x", 1)
    for verdict in (game_equiv_general(*lost, n=1, m=0), game_equiv_general(*lost, n=0)):
        assert (verdict.delilah_wins, verdict.first_winning_samson_move) == (False, None)


def test_negative_depths_are_usage_errors():
    u, v = W("ab"), W("ba")
    with pytest.raises(ValueError, match="n must be >= 0"):
        game_equiv(u, v, -1)
    for m, n in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="m and n must be >= 0"):
            game_equiv_alt(u, v, m, n)
    with pytest.raises(ValueError, match="n must be >= 0"):
        game_equiv_general(u, 1, 2, v, 1, 2, -1)


@pytest.mark.parametrize("start_side", ["u", "V", 0])
def test_start_side_must_be_a_side(start_side):
    # unchecked, "u" would count as neither side, so both moves would spend a switch
    with pytest.raises(ValueError, match="start_side must be"):
        game_equiv_alt(W("ab"), W("ba"), 1, 2, start_side=start_side)
    with pytest.raises(ValueError, match="start_side must be"):
        game_equiv_general(W("ab"), 1, 2, W("ba"), 1, 2, n=1, start_side=start_side)


def test_game_equiv_general_matching_placements():
    # letters and order types match, and every single move is answerable
    verdict = game_equiv_general(W("aa"), 1, 2, W("aaa"), 1, 3, n=1)
    assert verdict.delilah_wins is True
    # but a middle letter that exists on one side only is a winning move
    verdict = game_equiv_general(W("aab"), 1, 3, W("ab"), 1, 2, n=1)
    assert verdict.delilah_wins is False
    assert verdict.first_winning_samson_move == (Side.U, "y", 2)


def test_first_winning_move_is_winning():
    # replaying the reported move must leave Delilah without a good reply
    u, v = W("aab"), W("abb")
    verdict = game_equiv(u, v, 2)
    assert verdict.delilah_wins is False
    side, pebble, pos = verdict.first_winning_samson_move
    assert side in (Side.U, Side.V) and pebble in ("x", "y")
    word = u if side is Side.U else v
    assert 1 <= pos <= len(word)


def test_reflexivity_and_symmetry():
    words = list(all_words(AB, 4))
    rng = random.Random(5)
    for w in words:
        assert game_equiv(w, w, 3).delilah_wins is True
    for _ in range(150):
        u, v = rng.choice(words), rng.choice(words)
        n = rng.randint(0, 3)
        assert game_equiv(u, v, n).delilah_wins == game_equiv(v, u, n).delilah_wins


def test_transitivity_on_small_corpus():
    words = list(all_words(AB, 4))
    for n in (1, 2, 3):
        verdict = {}
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                if i <= j:
                    verdict[(i, j)] = game_equiv(u, v, n).delilah_wins

        def eq(i, j):
            return verdict[(min(i, j), max(i, j))]

        classes: list[list[int]] = []
        for i in range(len(words)):
            for cls in classes:
                if eq(cls[0], i):
                    cls.append(i)
                    break
            else:
                classes.append([i])
        # equivalence with any representative must match class membership
        for cls in classes:
            rep = cls[0]
            members = set(cls)
            for i in range(len(words)):
                assert eq(rep, i) == (i in members)


def test_depth_and_switch_monotonicity():
    words = list(all_words(AB, 4))
    rng = random.Random(11)
    for _ in range(80):
        u, v = rng.choice(words), rng.choice(words)
        wins = [game_equiv(u, v, n).delilah_wins for n in range(4)]
        for shallow, deep in zip(wins, wins[1:]):
            assert shallow or not deep  # deep win implies shallow win
        for n in (1, 2, 3):
            alt_wins = [game_equiv_alt(u, v, m, n).delilah_wins for m in range(n + 1)]
            for less, more in zip(alt_wins, alt_wins[1:]):
                assert less or not more


def test_alt_at_full_switches_matches_plain():
    words = list(all_words(AB, 3))
    for u in words:
        for v in words:
            for n in (1, 2, 3):
                assert (
                    game_equiv_alt(u, v, n, n).delilah_wins
                    == game_equiv(u, v, n).delilah_wins
                )


def test_game_soundness_against_sentences():
    # if the duplicator wins at depth n, no depth-n sentence separates
    rng = random.Random(2024)
    words = list(all_words(AB, 4))
    pairs = []
    for _ in range(400):
        u, v = rng.choice(words), rng.choice(words)
        if u != v and game_equiv(u, v, 2).delilah_wins:
            pairs.append((u, v))
        if len(pairs) >= 15:
            break
    assert pairs, "corpus should contain nontrivial equivalent pairs"
    for _ in range(1000):
        sentence = random_sentence(rng, 2)
        for u, v in pairs:
            assert model_check(sentence, u) == model_check(sentence, v)


def test_free_start_decomposes_over_start_sides():
    # winning the free-start game means winning from either fixed first side
    rng = random.Random(77)
    words = list(all_words(AB, 4))
    for _ in range(150):
        u, v = rng.choice(words), rng.choice(words)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        free = game_equiv_alt(u, v, m, n).delilah_wins
        both = (
            game_equiv_alt(u, v, m, n, start_side=Side.U).delilah_wins
            and game_equiv_alt(u, v, m, n, start_side=Side.V).delilah_wins
        )
        assert free == both, (u.text, v.text, m, n)


def test_partial_iso_agrees_with_solver_tables():
    # the reference solver's numpy comparator is independent of partial_iso
    from game_reference import _iso_table

    rng = random.Random(78)
    words = list(all_words(AB, 4))
    for _ in range(500):
        u, v = rng.choice(words), rng.choice(words)
        suc = rng.random() < 0.5
        table = _iso_table(u, v, suc)

        def pick(word):
            return rng.choice([None] + list(word.positions()))

        xu, xv, yu, yv = pick(u), pick(v), pick(u), pick(v)
        cfg = GameConfig(u, v, x_u=xu, y_u=yu, x_v=xv, y_v=yv, with_successor=suc)
        assert partial_iso(cfg) == bool(table[xu or 0, yu or 0, xv or 0, yv or 0])


def test_successor_game_distinguishes_adjacency():
    abx = Alphabet(("a", "b", "x"))
    u, v = Word(abx, "ab"), Word(abx, "axb")
    assert game_equiv(u, v, 2, with_successor=True).delilah_wins is False
    assert game_equiv(W("ab"), W("ba"), 1, with_successor=True).delilah_wins is True


def test_resource_cap():
    u = W("ab" * 40)
    with pytest.raises(GameResourceError):
        game_equiv(u, u, 3, cap=1000)


def test_cap_is_checked_before_any_table_is_built():
    import tracemalloc

    u, v = W("ab" * 30), W("ab" * 29 + "a")
    tracemalloc.start()
    try:
        with pytest.raises(GameResourceError):
            game_equiv(u, v, 2, cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # games in which Samson never moves need no table at all
    long_u, long_v = W("ab" * 150), W("ba" * 150)
    assert game_equiv(long_u, long_v, 0, cap=1000).delilah_wins is True
    assert game_equiv_alt(long_u, long_v, 0, 3, cap=1000).delilah_wins is True
    verdict = game_equiv_general(long_u, 1, 2, long_v, 1, 2, 3, m=0, cap=1000)
    assert verdict.delilah_wins is False and verdict.first_winning_samson_move is None


def _needed(game, *args, **kwargs):
    with pytest.raises(GameResourceError) as caught:
        game(*args, cap=1, **kwargs)
    return caught.value.needed


def _record_cap_checks(monkeypatch):
    """Record the relation count of every _Solver._check_cap, one per level built."""
    seen, check = [], _Solver._check_cap

    def recorded(self, live_relations):
        seen.append(live_relations)
        return check(self, live_relations)

    monkeypatch.setattr(_Solver, "_check_cap", recorded)
    return seen


def test_budget_that_cannot_bind_costs_the_unbounded_game(monkeypatch):
    # with n moves Samson changes sides at most n-1 times, so a game with
    # m >= n alternation blocks holds only the unbounded relations
    u, v = W("abbab"), W("baab")
    counts = _record_cap_checks(monkeypatch)
    for successor in (False, True):
        for n in range(1, 7):
            counts.clear()
            game_equiv(u, v, n, with_successor=successor)
            unbounded = list(counts)
            for m in range(n, n + 4):
                for start_side in (None, Side.U, Side.V):
                    counts.clear()
                    game_equiv_alt(u, v, m, n, with_successor=successor, start_side=start_side)
                    assert counts == unbounded, (successor, n, m, start_side)


@pytest.mark.slow
@pytest.mark.parametrize("successor", [False, True], ids=["plain", "suc"])
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_reports_match_reference_solver(corpus, successor):
    # whole reports, Samson's first winning move included, against the 4-D solver
    words = list(all_words(*CORPORA[corpus]))
    for u in words:
        for v in words:
            for n in range(4):
                got = game_equiv(u, v, n, with_successor=successor)
                want = reference.game_equiv(u, v, n, with_successor=successor)
                assert got.to_json_dict() == want.to_json_dict(), (u.text, v.text, n)
                for m in range(n + 2):
                    for start_side in (None, Side.U, Side.V):
                        args = (u, v, m, n, successor, start_side)
                        got = game_equiv_alt(*args)
                        want = reference.game_equiv_alt(*args)
                        assert got.to_json_dict() == want.to_json_dict(), (u.text, v.text, m, n, start_side)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_general_reports_match_reference_solver(corpus):
    rng = random.Random(4321)
    words = [w for w in all_words(*CORPORA[corpus]) if len(w)]
    wins = 0
    for _ in range(10_000):
        u, v = rng.choice(words), rng.choice(words)
        i1, i2 = rng.randint(1, len(u)), rng.randint(1, len(u))
        j1, j2 = rng.randint(1, len(v)), rng.randint(1, len(v))
        if rng.random() < 0.75:
            # mostly starts that pass the letter check, so that moves are played
            j1 = rng.choice([j for j in v.positions() if v.letter(j) == u.letter(i1)] or [j1])
            j2 = rng.choice([j for j in v.positions() if v.letter(j) == u.letter(i2)] or [j2])
        n = rng.randint(0, 3)
        m = rng.choice([None, *range(n + 2)])
        kwargs = dict(m=m, start_side=rng.choice([None, Side.U, Side.V]),
                      with_successor=rng.random() < 0.5)
        got = game_equiv_general(u, i1, i2, v, j1, j2, n, **kwargs)
        want = reference.game_equiv_general(u, i1, i2, v, j1, j2, n, **kwargs)
        assert got.to_json_dict() == want.to_json_dict(), (u.text, v.text, i1, i2, j1, j2, n, kwargs)
        wins += got.delilah_wins
    assert 1_000 < wins < 9_000


def test_long_words_run_under_default_cap():
    # (|u|+1)(|v|+1) cells per relation: n = 4 on 300-letter words fits the cap
    rng = random.Random(300)
    x, y = ("".join(rng.choice("ab") for _ in range(144)) for _ in range(2))
    u, w = W(x + "b" + "a" * 10 + "b" + y), W("".join(rng.choice("ab") for _ in range(300)))
    assert len(u) == len(w) == 300
    # cutting a run of one letter down to 2n letters preserves ≡_n
    assert game_equiv(u, W(x + "b" + "a" * 8 + "b" + y), 4).delilah_wins is True
    verdict = game_equiv(u, w, 4)
    assert verdict.delilah_wins is ranker_equiv(u, w, 4).verdict is False
    assert verdict.first_winning_samson_move is not None
    assert game_equiv(u, u, 4, with_successor=True).delilah_wins is True


def _transpose(rows, width):
    """The relation with the two words swapped: `width` rows of len(rows) bits."""
    if not rows or not width:
        return [0] * width
    bits = [format(row, f"0{width}b") for row in rows]  # most significant bit first
    return [int("".join(col)[::-1], 2) for col in zip(*bits)][::-1]


def _answered_by_interval(rows, width, successor):
    """A move on u, read off each row's first and last answer."""
    gap = 2 if successor else 1
    n = len(rows)
    max_first = list(accumulate(((r & -r).bit_length() - 1 if r else width for r in rows), max))
    min_last = list(accumulate((r.bit_length() - 1 for r in reversed(rows)), min))[::-1]
    out = []
    for i in range(n):
        lo = max_first[i - gap] + gap if i >= gap else 0
        hi = min_last[i + gap] - gap if i + gap < n else width - 1
        mask = (1 << (hi + 1)) - (1 << lo) if lo <= hi else 0
        if successor:
            if i >= 1:
                mask &= rows[i - 1] << 1
            if i + 1 < n:
                mask &= rows[i + 1] >> 1
        out.append(mask)
    return out


@pytest.mark.parametrize("successor", [False, True], ids=["plain", "suc"])
def test_move_rules_match_the_transposed_relation(successor):
    # a move on v is a move on u with the words swapped
    rng = random.Random(9)
    for _ in range(4_000):
        lu, lv = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.random()
        rows = [sum(1 << j for j in range(lv) if rng.random() < density) for _ in range(lu)]
        assert _answered(rows, lv, successor, Side.U) == _answered_by_interval(rows, lv, successor)
        swapped = _answered_by_interval(_transpose(rows, lv), lu, successor)
        assert _answered(rows, lv, successor, Side.V) == _transpose(swapped, lu), (rows, lv)


def test_relation_keys_match_propagation(monkeypatch):
    # the window rule's keys are those the reference solver reaches by propagating
    # down from the top level. The cap counts at most what a level holds: its
    # keys and the level below
    word = W("ab")
    solver = reference._Solver(word, word, False, DEFAULT_GAME_CAP)
    counts = _record_cap_checks(monkeypatch)
    for n in range(16):
        for budget in [None, *range(n + 2)]:
            for sides in ([Side.U, Side.V], [Side.U], [Side.V]):
                top = n - 1 if budget is None else budget
                got = [set(_keys(n, top, sides, d)) for d in range(n)]
                want = [{_key(d, *key) for key in keys}
                        for d, keys in enumerate(solver._levels_needed(n, budget, sides))]
                assert got == want, (n, budget, sides)
                counts.clear()
                for _ in _Solver(word, word, False, DEFAULT_GAME_CAP).levels(n, budget, sides):
                    pass
                held = [len(want[d]) + (len(want[d - 1]) if d else 0) for d in range(n)]
                assert len(counts) <= n, (n, budget, sides)
                assert all(c <= h for c, h in zip(counts, held)), (n, budget, sides, counts, held)


def _count_builds(monkeypatch, limit, why):
    """Record the arguments after `prev` of every _Solver._build, failing past `limit`."""
    built, build = [], _Solver._build

    def counted(self, prev, *args):
        built.append(args)
        if len(built) > limit:
            raise AssertionError(why)
        return build(self, prev, *args)

    monkeypatch.setattr(_Solver, "_build", counted)
    return built


@pytest.mark.parametrize("successor", [False, True], ids=["plain", "suc"])
@pytest.mark.parametrize("game", [game_equiv, lambda u, v, n, **kw: game_equiv_alt(u, v, n, n, **kw)],
                         ids=["unbounded", "budget-cannot-bind"])
def test_unbounded_game_stops_at_its_fixpoint(game, successor, monkeypatch):
    # M_0 ⊇ M_1 ⊇ … shrinks at most |u|·|v| times before it repeats, so a
    # deep game builds at most |u|·|v|+1 levels, one collapsed relation each
    u, v = W("abab"), W("abba")
    want = game(u, v, 50, with_successor=successor).to_json_dict()
    built = _count_builds(monkeypatch, len(u) * len(v) + 1,
                          "the unbounded chain did not stop at its fixpoint")
    assert game(u, v, 10**9, with_successor=successor).to_json_dict() == want
    assert built == [(d, None, None) for d in range(1, len(built) + 1)]


@pytest.mark.parametrize("successor", [False, True], ids=["plain", "suc"])
def test_budgeted_game_stops_at_its_fixpoint(successor, monkeypatch):
    # past the budget every key binds, and once no budget changes from one level
    # to the next, none changes at any deeper level. Each of the 2(B+1) relations
    # of a level shrinks at most |u|·|v| times, so that happens by level
    # B+3+2(B+1)·|u|·|v| (134 for m = 4 here), below the levels where the depth
    # starts to drop low budgets: n = 10**9 builds what n = 200 builds
    pairs = [(W("abab"), W("abba")), (W("abab"), W("abab"))]
    cases = [(u, v, m, side) for u, v in pairs for m in range(1, 5) for side in (None, Side.U, Side.V)]
    built = _count_builds(monkeypatch, 8 * 135,  # 2(B+1) relations per level, 135 levels
                          "the budgeted game did not stop at its fixpoint")
    for u, v, m, side in cases:
        reports, builds = [], []
        for n in (200, 10**9):
            built.clear()
            reports.append(game_equiv_alt(u, v, m, n, successor, side).to_json_dict())
            builds.append(list(built))
        assert reports[0] == reports[1] and builds[0] == builds[1], (u, v, m, side)


@pytest.mark.parametrize("successor", [False, True], ids=["plain", "suc"])
def test_budget_close_to_half_the_depth_freezes(successor, monkeypatch):
    # with m close to n/2 no level equals the one below, since the top levels
    # drop low budgets; the budgets still freeze one by one from the lowest
    u, v = W("ababa"), W("abbab")
    want = game_equiv_alt(u, v, 300, 10**9, successor).to_json_dict()
    built = _count_builds(monkeypatch, 4_999, "the budgets did not freeze")
    assert game_equiv_alt(u, v, 300, 600, successor).to_json_dict() == want
    assert built


def test_deep_reports_match_reference_solver():
    # whole reports past the exhaustive corpora's depth 3, where budgets freeze
    # at different levels and the top levels drop the low ones
    rng = random.Random(21)
    seen = Counter()
    for _ in range(3_000):
        alphabet = rng.choice([AB, ABC])
        u, v = (W("".join(rng.choice(alphabet.letters) for _ in range(rng.randint(0, 5))), alphabet)
                for _ in range(2))
        n = rng.randint(4, 12)
        m = rng.randint(0, n + 1)
        args = (u, v, m, n, rng.random() < 0.5, rng.choice([None, Side.U, Side.V]))
        got = game_equiv_alt(*args).to_json_dict()
        assert got == reference.game_equiv_alt(*args).to_json_dict(), args
        seen[got["delilahWins"], args[-1], "binds" if 0 < m < n else "free"] += 1
    assert len(seen) == 12, seen


def _first_lost_depth(u, v, m, bound, successor, cap):
    """The per-depth search: a fresh game_equiv_alt at every depth."""
    for depth in range(1, bound + 1):
        if not game_equiv_alt(u, v, m, depth, successor, cap=cap).delilah_wins:
            return depth
    return None


def _outcome(search, *args):
    try:
        return search(*args)
    except GameResourceError as caught:
        return ("cap", caught.needed)


def test_separation_depth_matches_the_per_depth_search():
    # one bottom-up pass up to depth m against a fresh game per depth from
    # depth 1: the same depth, or the same cap error
    rng = random.Random(16)
    seen = Counter()
    for _ in range(2_000):
        alphabet = rng.choice([AB, ABC])
        u, v = ("".join(rng.choice(alphabet.letters) for _ in range(rng.randint(0, 9)))
                for _ in range(2))
        if u and rng.random() < 0.4:  # v repeats a letter of u: deeper, or no, separations
            cut = rng.randrange(len(u))
            v = u[:cut] + u[cut] * rng.randint(1, 2) + u[cut:]
        u, v = W(u, alphabet), W(v, alphabet)
        m, successor = rng.randint(1, 4), rng.random() < 0.5
        cells = (len(u) + 1) * (len(v) + 1)
        # a pass holds at most 2 relations, so only caps below 2 cells can raise
        cap = rng.choice([DEFAULT_GAME_CAP, rng.randrange(2 * cells), cells * rng.randint(2, 12)])
        want = _outcome(_first_lost_depth, u, v, m, m, successor, cap)
        got = _outcome(lambda: _Solver(u, v, successor, cap).separation_depth(m))
        assert got == want, (u, v, m, successor, cap)
        if isinstance(want, tuple):
            kind = "cap at level 0" if want[1] == cells else "cap at level 1"
        else:
            kind = "none" if want is None else "depth"
        seen[kind] += 1
    assert set(seen) == {"depth", "none", "cap at level 0", "cap at level 1"}, seen


def test_unbounded_game_keeps_the_reference_live_count(monkeypatch):
    # whatever n, an unbounded game holds one relation fewer under the cap than
    # the reference solver keeps tables, which include its partial-isomorphism
    # table: its key rule, checked whole. At n = 1 the reference also counts a
    # level below level 0, which holds nothing
    u, v = W("abbab"), W("baab")
    counts = _record_cap_checks(monkeypatch)
    for successor in (False, True):
        for n in [*range(1, 12), 40]:
            counts.clear()
            game_equiv(u, v, n, with_successor=successor)
            want = _needed(reference.game_equiv, u, v, n, with_successor=successor)
            assert max(counts) + 1 + (n == 1) == want // (
                (len(u) + 1) ** 2 * (len(v) + 1) ** 2), (successor, n)


def test_cap_check_builds_no_relation(monkeypatch):
    # the cap is checked on what a level holds before any of its relations is
    # built, so a game over the cap at level d raises with level d's count
    # having built nothing at level d
    u, v = W("abab"), W("abba")
    cells = (len(u) + 1) * (len(v) + 1)
    counts = _record_cap_checks(monkeypatch)
    built = _count_builds(monkeypatch, 99, "the budgeted game did not stop at its fixpoint")
    with pytest.raises(GameResourceError) as caught:
        game_equiv_alt(u, v, 2000, 4002, cap=1)
    assert caught.value.needed == cells and built == []
    counts.clear()
    game_equiv_alt(u, v, 2000, 4002)
    held = list(counts)
    assert max(held) > 2
    for d, count in enumerate(held):
        if count > max(held[:d], default=0):
            built.clear()
            with pytest.raises(GameResourceError) as caught:
                game_equiv_alt(u, v, 2000, 4002, cap=count * cells - 1)
            assert caught.value.needed == count * cells, (d, count)
            assert all(level < d for level, *_ in built), (d, built)


@pytest.mark.parametrize("successor", [False, True], ids=["plain", "suc"])
def test_budgeted_game_stops_once_no_budget_binds(successor, monkeypatch):
    # once the budgets below level d are frozen and M_d = M_{d-1}, every budget
    # of d-1 or more is M from then on, so a budget far above the fixpoint stops
    # the game there, and the default cap holds the few relations it keeps
    u, v = W("abab"), W("abba")
    cases = [(m, n, game_equiv_alt(u, v, m, 10**9, successor).to_json_dict())
             for m, n in ((40_000, 80_000), (100_000, 200_000))]
    built = _count_builds(monkeypatch, 99, "the budgeted game did not stop at its fixpoint")
    for m, n, want in cases:
        built.clear()
        assert game_equiv_alt(u, v, m, n, successor).to_json_dict() == want, (m, n)


def test_successor_level_five_games_run_under_default_cap():
    # the cap counts a level and the level below: two of the successor (5,5)
    # witnesses' relations fit it, where a third for the letters did not
    pair = witness_words_suc(5, 5)
    u, v = pair.u, pair.v
    assert game_equiv_alt(u, v, 4, 5, with_successor=True).delilah_wins
    assert _Solver(u, v, True, DEFAULT_GAME_CAP).separation_depth(5) == 5


def test_negative_cap_is_a_usage_error():
    u = W("abab")
    for game, args in ((game_equiv, (u, u, 2)), (game_equiv_alt, (u, u, 1, 2)),
                       (game_equiv_general, (u, 1, 2, u, 1, 2, 2))):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            game(*args, cap=-1)
        assert game(*args, cap=DEFAULT_GAME_CAP).delilah_wins
