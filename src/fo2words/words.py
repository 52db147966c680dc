"""Words over finite alphabets, 1-indexed positions, and the two order-type comparators."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator


class OrderType(Enum):
    LT = "<"
    EQ = "="
    GT = ">"


class SucOrderType(Enum):
    FAR_BELOW = "<<"
    PRED = "-1"
    EQ = "="
    SUCC = "+1"
    FAR_ABOVE = ">>"


def order_type(i: int, j: int) -> OrderType:
    """Which of <, =, > holds between positions i and j."""
    if i < j:
        return OrderType.LT
    if i == j:
        return OrderType.EQ
    return OrderType.GT


def suc_order_type(i: int, j: int) -> SucOrderType:
    """Like order_type but distinguishing immediate neighbours from farther positions."""
    if i < j - 1:
        return SucOrderType.FAR_BELOW
    if i == j - 1:
        return SucOrderType.PRED
    if i == j:
        return SucOrderType.EQ
    if i == j + 1:
        return SucOrderType.SUCC
    return SucOrderType.FAR_ABOVE


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct single-character letters.

    The ordering is fixed and total; enumeration order everywhere in the
    package follows it, which keeps outputs deterministic.
    """

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be non-empty")
        for c in self.letters:
            if len(c) != 1:
                raise ValueError(f"alphabet letters must be single characters, got {c!r}")
            if not c.isprintable() or c.isspace():
                raise ValueError(f"alphabet letters must be visible characters, got {c!r}")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"duplicate letters in alphabet {self.letters!r}")

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)


@dataclass(frozen=True)
class Word:
    """A finite word over an alphabet. Positions are 1-indexed: i in [1, len(w)]."""

    alphabet: Alphabet
    text: str

    def __post_init__(self):
        if not set(self.text).issubset(self.alphabet.letters):
            bad = next(c for c in self.text if c not in self.alphabet)
            raise ValueError(f"letter {bad!r} not in alphabet {self.alphabet}")

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet | str | None = None) -> "Word":
        """Build a word, inferring the alphabet from its letters unless one is given."""
        if alphabet is None:
            seen = sorted(set(text))
            if not seen:
                raise ValueError("cannot infer an alphabet for the empty word; pass one")
            alphabet = Alphabet(tuple(seen))
        elif isinstance(alphabet, str):
            alphabet = Alphabet.from_text(alphabet)
        return cls(alphabet, text)

    def __len__(self) -> int:
        return len(self.text)

    def letter(self, i: int) -> str:
        """The letter at 1-indexed position i."""
        if not 1 <= i <= len(self.text):
            raise IndexError(f"position {i} out of range [1, {len(self.text)}]")
        return self.text[i - 1]

    def positions(self) -> range:
        return range(1, len(self.text) + 1)

    def substring(self, i: int, j: int) -> str:
        """The letters at positions i..j inclusive; empty when i > j."""
        return self.text[i - 1 : j]

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Segment:
    """A maximal constant run: word positions start..end all carry `letter`."""

    letter: str
    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start + 1


def segments(w: Word | str) -> list[Segment]:
    """Maximal constant runs of w, in order. Joining them reconstructs w."""
    text = w.text if isinstance(w, Word) else w
    out: list[Segment] = []
    start = 0
    for i in range(1, len(text) + 1):
        if i == len(text) or text[i] != text[start]:
            out.append(Segment(text[start], start + 1, i))
            start = i
    return out


def all_words(alphabet: Alphabet, max_length: int) -> Iterable[Word]:
    """Every word over the alphabet up to max_length, in shortlex order."""
    import itertools

    for length in range(max_length + 1):
        for combo in itertools.product(alphabet.letters, repeat=length):
            yield Word(alphabet, "".join(combo))
