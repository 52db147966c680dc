import random

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
)
from helpers import random_sentence

AB = Alphabet(("a", "b"))


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
    from fo2words.efgames import _iso_table

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
