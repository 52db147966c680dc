import itertools

import pytest

from fo2words import (
    Alphabet,
    OrderType,
    SucOrderType,
    Word,
    order_type,
    segments,
    suc_order_type,
)


def test_order_type_examples():
    assert order_type(3, 5) is OrderType.LT
    assert order_type(4, 4) is OrderType.EQ
    assert order_type(7, 2) is OrderType.GT


def test_suc_order_type_examples():
    assert suc_order_type(4, 5) is SucOrderType.PRED
    assert suc_order_type(4, 4) is SucOrderType.EQ
    assert suc_order_type(1, 9) is SucOrderType.FAR_BELOW
    assert suc_order_type(5, 4) is SucOrderType.SUCC
    assert suc_order_type(9, 1) is SucOrderType.FAR_ABOVE


def test_suc_order_refines_order():
    refinement = {
        SucOrderType.FAR_BELOW: OrderType.LT,
        SucOrderType.PRED: OrderType.LT,
        SucOrderType.EQ: OrderType.EQ,
        SucOrderType.SUCC: OrderType.GT,
        SucOrderType.FAR_ABOVE: OrderType.GT,
    }
    for i in range(1, 12):
        for j in range(1, 12):
            assert refinement[suc_order_type(i, j)] is order_type(i, j)


def test_segments_examples():
    segs = segments("aaabb")
    assert [(s.letter, s.start, s.end) for s in segs] == [("a", 1, 3), ("b", 4, 5)]
    assert segments("") == []
    segs = segments("aba")
    assert [(s.letter, s.start, s.end) for s in segs] == [
        ("a", 1, 1),
        ("b", 2, 2),
        ("a", 3, 3),
    ]


def test_segments_round_trip_exhaustive():
    # all words up to length 12 over three letters
    letters = "abc"
    for length in range(13):
        for combo in itertools.product(letters, repeat=length):
            text = "".join(combo)
            segs = segments(text)
            assert "".join(s.letter * len(s) for s in segs) == text
            for left, right in zip(segs, segs[1:]):
                assert left.letter != right.letter
                assert right.start == left.end + 1


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    with pytest.raises(ValueError):
        Alphabet((" ",))


def test_word_validation_and_positions():
    a = Alphabet(("a", "b"))
    w = Word(a, "ab")
    assert len(w) == 2
    assert w.letter(1) == "a" and w.letter(2) == "b"
    assert list(w.positions()) == [1, 2]
    assert w.substring(1, 2) == "ab"
    assert w.substring(2, 1) == ""
    with pytest.raises(ValueError):
        Word(a, "ac")
    with pytest.raises(IndexError):
        w.letter(0)
    assert len(Word(a, "")) == 0


def test_word_names_its_first_foreign_letter():
    # the error names the first letter outside the alphabet in text order,
    # not the first in any set order
    a = Alphabet(("a", "b"))
    for text, bad in (("abzay", "'z'"), ("yzab", "'y'"), ("ab\\", "'\\\\'"), ("b]a^", "']'")):
        with pytest.raises(ValueError) as err:
            Word(a, text)
        assert str(err.value) == f"letter {bad} not in alphabet ab"


def test_word_from_text_infers_alphabet():
    w = Word.from_text("baa")
    assert w.alphabet.letters == ("a", "b")
    with pytest.raises(ValueError):
        Word.from_text("")
