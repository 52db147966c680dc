import pytest

from fo2words import (
    Signature,
    eval_ranker,
    game_equiv_alt,
    order_type,
    segments,
    separating_rankers,
    verify_hierarchy_level,
    witness_words,
    witness_words_suc,
)


def test_witness_words_examples():
    pair = witness_words(1, 1)
    assert (pair.u.text, pair.v.text) == ("a", "")
    pair = witness_words(2, 1)
    assert (pair.u.text, pair.v.text) == ("ababa", "baba")
    pair = witness_words(3, 1)
    assert (pair.u.text, pair.v.text) == ("abc" + "ababa", "abc" + "baba")
    pair = witness_words(2, 2)
    assert pair.u.text == "a" + "ba" * 4


def test_witness_words_suc_examples():
    pair = witness_words_suc(1, 1)
    assert (pair.u.text, pair.v.text) == ("bb" + "a" + "bb", "bb")
    pair = witness_words_suc(2, 1)
    expected_block = "c" + "bb" + "a" + "bb"
    assert pair.u.text == "bbabb" + expected_block * 2
    assert pair.v.text == "bb" + expected_block * 2
    pair = witness_words_suc(1, 2)
    assert (pair.u.text, pair.v.text) == ("bbbb" + "a" + "bbbb", "bbbb")


def test_one_letter_deletion_invariant():
    for m in range(1, 6):
        for n in range(1, 5):
            pair = witness_words(m, n)
            u, v = pair.u.text, pair.v.text
            assert u.count("a") == v.count("a") + 1
            # deleting one specific occurrence of the first letter gives v
            assert any(u[:i] + u[i + 1 :] == v for i in range(len(u)) if u[i] == "a")


def test_marked_letter_deletion_invariant_successor():
    # the padded family differs by one marked letter plus one adjacent pad run
    for m in range(1, 6):
        for n in range(1, 5):
            pair = witness_words_suc(m, n)
            u, v = pair.u.text, pair.v.text
            assert u.count("a") == v.count("a") + 1
            pad = "b" * (2 * n)
            assert any(
                u[:i] + u[i + 1 + len(pad) :] == v
                for i in range(len(u))
                if u[i] == "a" and u[i + 1 : i + 1 + len(pad) + 1].startswith(pad)
            )


def test_pad_runs_have_exact_length():
    for m in range(1, 6):
        for n in range(1, 5):
            pair = witness_words_suc(m, n)
            for word in (pair.u, pair.v):
                for seg in segments(word):
                    if seg.letter == "b":
                        assert len(seg) == 2 * n


def test_separating_rankers_examples():
    pair = separating_rankers(2)
    assert (str(pair.r), str(pair.s)) == (">a", ">b")
    pair = separating_rankers(3)
    assert (str(pair.r), str(pair.s)) == ("<c>a", "<c>b")
    pair = separating_rankers(4)
    assert (str(pair.r), str(pair.s)) == (">d<c>a", ">d<c>b")
    with pytest.raises(ValueError):
        separating_rankers(1)


def test_separating_rankers_block_structure():
    from fo2words import alternation_blocks

    for m in range(2, 6):
        pair = separating_rankers(m)
        assert alternation_blocks(pair.r) == m - 1
        assert alternation_blocks(pair.s) == m - 1
        assert [p.direction for p in pair.r] == [p.direction for p in pair.s]


def test_ranker_position_recurrence():
    # moving two levels up shifts the inner ranker position by the prepended
    # block length, for the r/s rankers on both witness words
    for n in (1, 2, 3):
        i = 1
        low, mid, high = 2 * i, 2 * i + 1, 2 * i + 2
        shift = (2 * i + 1) * n
        for which in ("r", "s"):
            inner = getattr(separating_rankers(low), which)
            middle = getattr(separating_rankers(mid), which)
            outer = getattr(separating_rankers(high), which)
            for side in ("u", "v"):
                w_low = getattr(witness_words(low, n), side)
                w_mid = getattr(witness_words(mid, n), side)
                w_high = getattr(witness_words(high, n), side)
                assert eval_ranker(outer, w_high) == eval_ranker(middle, w_mid)
                assert eval_ranker(middle, w_mid) == shift + eval_ranker(inner, w_low)


def test_separation_by_order_flip():
    for m in (2, 3, 4):
        for n in (1, 2, 3):
            pair = witness_words(m, n)
            rankers = separating_rankers(m)
            ru, su = eval_ranker(rankers.r, pair.u), eval_ranker(rankers.s, pair.u)
            rv, sv = eval_ranker(rankers.r, pair.v), eval_ranker(rankers.s, pair.v)
            assert order_type(ru, su) != order_type(rv, sv)


def test_indistinguishability_small():
    # holds for every depth parameter, not just n >= m
    for m in (2, 3):
        for n in (1, 2, 3):
            pair = witness_words(m, n)
            assert game_equiv_alt(pair.u, pair.v, m - 1, n).delilah_wins


def test_verify_hierarchy_level_examples():
    report = verify_hierarchy_level(2, 2)
    assert report.ok
    assert report.indist_ranker and report.indist_game
    assert report.ranker_separation
    assert report.separation_depth == 2

    report = verify_hierarchy_level(1, 1)
    assert report.ok and report.sentence_separation

    report = verify_hierarchy_level(3, 3)
    assert report.ok
    assert (str(report.rankers.r), str(report.rankers.s)) == ("<c>a", "<c>b")
    assert report.ord_u != report.ord_v


def test_verify_hierarchy_level_successor():
    report = verify_hierarchy_level(1, 1, Signature.ORDER_SUC)
    assert report.ok and report.sentence_separation
    report = verify_hierarchy_level(2, 1, Signature.ORDER_SUC)
    assert report.indist_ranker and report.indist_game
    assert report.ranker_separation


def test_levels_four_and_three_with_successor():
    # games of (|u|+1)(|v|+1) cells per relation: |u| = 45 and |u| = 160
    report = verify_hierarchy_level(4, 4)
    assert report.ok and report.indist_game and report.indist_ranker
    assert report.separation_depth is not None
    report = verify_hierarchy_level(3, 3, Signature.ORDER_SUC)
    assert report.ok and report.indist_game and report.indist_ranker
    assert report.separation_depth is not None


def test_levels_up_to_eight_and_four_with_successor():
    # each witness word realizes more than 200,000 rankers of length <= n,
    # so only a decider that never enumerates them reaches these levels
    for m, n, signature in ((6, 6, Signature.ORDER), (7, 7, Signature.ORDER),
                            (8, 8, Signature.ORDER), (4, 4, Signature.ORDER_SUC)):
        report = verify_hierarchy_level(m, n, signature)
        assert report.ok and report.indist_game and report.indist_ranker, (m, n, signature)
        assert report.separation_depth is not None


def test_levels_nine_to_eleven_under_the_default_game_cap():
    # with d moves left every alternation budget of d or more is the one
    # unbounded relation, so these levels fit the default cell cap
    for m in (9, 10, 11):
        report = verify_hierarchy_level(m, m)
        assert report.ok and report.indist_game and report.indist_ranker, m
        assert report.separation_depth == m


def test_separation_depth_matches_the_per_depth_search():
    # one bottom-up pass up to depth m reads the depth that a fresh game per
    # depth up to n+m finds: no witness is first separated past depth m
    levels = [(m, n, Signature.ORDER) for m in range(2, 7) for n in range(1, 7)]
    levels += [(m, n, Signature.ORDER_SUC) for m in range(2, 5) for n in range(1, 5)]
    for m, n, signature in levels:
        report = verify_hierarchy_level(m, n, signature)
        u, v = report.pair.u, report.pair.v
        successor = signature is Signature.ORDER_SUC
        want = next((depth for depth in range(1, n + m + 1)
                     if not game_equiv_alt(u, v, m, depth, successor).delilah_wins), None)
        assert report.separation_depth == want, (m, n, signature)
        assert report.separation_search_bound == m


def test_level_four_by_rankers():
    # the ranker decider on its own, without the game
    from fo2words import ranker_equiv_alt

    pair = witness_words(4, 4)
    assert ranker_equiv_alt(pair.u, pair.v, 3, 4).verdict is True
    assert ranker_equiv_alt(pair.u, pair.v, 4, 4).verdict is False


def test_signature_must_be_a_signature_member():
    # unchecked, "order" would get the successor signature's letters
    with pytest.raises(ValueError, match="must be a Signature"):
        verify_hierarchy_level(3, 2, "order")
    with pytest.raises(ValueError, match="must be a Signature"):
        separating_rankers(3, "order")
    pair = separating_rankers(3, Signature.ORDER)
    assert (str(pair.r), str(pair.s)) == ("<c>a", "<c>b")


def test_witness_rejects_bad_parameters():
    with pytest.raises(ValueError):
        witness_words(0, 1)
    with pytest.raises(ValueError):
        witness_words_suc(1, 0)


def test_negative_game_cap_is_a_usage_error():
    for m in (1, 2):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            verify_hierarchy_level(m, 1, game_cap=-1)
