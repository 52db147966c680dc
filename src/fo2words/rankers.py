"""Boundary positions and rankers over the signatures {<} and {<, suc}.

A ranker is a little program of "go to the next/previous occurrence" steps.
Evaluation threads a position through the steps; a step with no matching
occurrence makes the whole ranker undefined (returned as None).

Over {<, suc} a step also requires a window of letters around its position.
A plain ranker is a successor ranker whose windows are all empty, so one step
type, one evaluator, one enumerator and one cache serve both signatures.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

from .errors import EnumerationCapError
from .words import Alphabet, Word

DEFAULT_ENUMERATION_CAP = 200_000


class Direction(Enum):
    RIGHT = ">"
    LEFT = "<"


@dataclass(frozen=True)
class BoundaryPos:
    """One step: the next (RIGHT) or previous (LEFT) position of `letter`
    whose surrounding window reads `before + letter + after`.

    The window only matches where it fully fits in the word; empty windows
    make the plain step "next/previous occurrence of a letter".
    """

    direction: Direction
    letter: str
    before: str = ""
    after: str = ""

    def __str__(self) -> str:
        if self.before or self.after:
            return _bracketed(self)
        return f"{self.direction.value}{self.letter}"


def _bracketed(step: BoundaryPos) -> str:
    return f"{step.direction.value}[{step.before}|{step.letter}|{step.after}]"


def NeighborhoodBoundaryPos(
    direction: Direction, before: str, letter: str, after: str
) -> BoundaryPos:
    """A successor-form step, its arguments in the window's reading order."""
    return BoundaryPos(direction, letter, before, after)


@dataclass(frozen=True)
class Ranker:
    """A non-empty sequence of boundary positions."""

    steps: tuple[BoundaryPos, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a ranker needs at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[BoundaryPos]:
        return iter(self.steps)

    def prefix(self, k: int) -> "Ranker":
        """The ranker made of the first k steps."""
        if not 1 <= k <= len(self.steps):
            raise ValueError(f"prefix length {k} out of range [1, {len(self.steps)}]")
        return type(self)(self.steps[:k])

    @property
    def last_direction(self) -> Direction:
        return self.steps[-1].direction

    def __str__(self) -> str:
        return "".join(str(s) for s in self.steps)


class SucRanker(Ranker):
    """A ranker over {<, suc}, written with a bracketed window on every step.

    The i-th step's window widths are capped at i-1 on each side, so the
    first step is always a plain letter step.
    """

    def __post_init__(self):
        super().__post_init__()
        for i, step in enumerate(self.steps, start=1):
            if len(step.before) > i - 1 or len(step.after) > i - 1:
                raise ValueError(
                    f"step {i} window ({len(step.before)},{len(step.after)}) exceeds the cap {i - 1}"
                )

    def __str__(self) -> str:
        return "".join(_bracketed(s) for s in self.steps)


# Every ranker is a Ranker; the name stays for callers typed over both signatures.
AnyRanker = Ranker

_DIR_ORDER = {Direction.RIGHT: 0, Direction.LEFT: 1}


def sort_key(r: Ranker):
    """Deterministic order: by length, then step-wise by direction then window."""
    steps = tuple((_DIR_ORDER[s.direction], s.before, s.letter, s.after) for s in r.steps)
    return (len(r), steps)


def alternation_blocks(r: Ranker) -> int:
    """Number of maximal runs of equal direction in the ranker's step sequence."""
    steps = r.steps
    return 1 + sum(a.direction is not b.direction for a, b in zip(steps, steps[1:]))


def eval_boundary(p: BoundaryPos, w: Word, start: int | None = None) -> int | None:
    """Position of the first/last window match on w, strictly beyond `start`
    when given; None when absent."""
    window = p.before + p.letter + p.after
    return _match(w.text, p.direction, window, len(p.before), len(p.after), start)


def _match(
    text: str, direction: Direction, window: str, k: int, ell: int, start: int | None
) -> int | None:
    # the window's letter sits k characters into it; a match must lie
    # strictly right (left) of `start`, with the whole window inside text
    if direction is Direction.RIGHT:
        idx = text.find(window, 0 if start is None else max(0, start - k))
    else:
        idx = text.rfind(window, 0, len(text) if start is None else max(0, start - 1 + ell))
    return idx + k + 1 if idx >= 0 else None


def eval_ranker(r: Ranker, w: Word) -> int | None:
    """Fold the steps left to right; None as soon as a step has no occurrence."""
    pos: int | None = None
    for step in r.steps:
        pos = eval_boundary(step, w, pos)
        if pos is None:
            return None
    return pos


# One evaluator serves both signatures; the successor names are aliases.
eval_suc_boundary = eval_boundary
eval_suc_ranker = eval_ranker
evaluate = eval_ranker


@dataclass(frozen=True)
class RealizedSet:
    """All rankers of a family that are defined on one fixed word, with their positions.

    `positions` lists the rankers in `sort_key` order, as the enumerator
    builds them.
    """

    word: Word
    positions: Mapping[Ranker, int]

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, r: Ranker) -> bool:
        return r in self.positions

    def __getitem__(self, r: Ranker) -> int:
        return self.positions[r]

    def rankers(self) -> list[Ranker]:
        return list(self.positions)

    @functools.cached_property
    def blocks(self) -> list[int]:
        """`alternation_blocks` of each ranker, in `positions` order."""
        return [alternation_blocks(r) for r in self.positions]

    def select(
        self,
        length: int | None = None,
        max_length: int | None = None,
        blocks: int | None = None,
        max_blocks: int | None = None,
        last_direction: Direction | None = None,
    ) -> list[tuple[Ranker, int]]:
        """Filtered (ranker, position) pairs in deterministic order.

        `length`/`blocks` filter exactly; `max_length`/`max_blocks` filter by
        upper bound. Both axes exist because the equivalence conditions
        quantify over exact and cumulative families.
        """
        out = []
        by_blocks = blocks is not None or max_blocks is not None
        for i, (r, p) in enumerate(self.positions.items()):
            if length is not None and len(r) != length:
                continue
            if max_length is not None and len(r) > max_length:
                continue
            if by_blocks:
                b = self.blocks[i]
                if blocks is not None and b != blocks:
                    continue
                if max_blocks is not None and b > max_blocks:
                    continue
            if last_direction is not None and r.last_direction is not last_direction:
                continue
            out.append((r, p))
        return out


def _windows(text: str, width: int) -> list[tuple[str, str, str]]:
    """The (before, letter, after) windows occurring in text, each side at
    most `width` letters, sorted.

    A window that does not occur in the word is undefined everywhere on it,
    so harvesting from the word loses nothing.
    """
    return sorted({
        (text[i - k : i], text[i], text[i + 1 : i + 1 + ell])
        for k in range(width + 1)
        for ell in range(width + 1)
        for i in range(k, len(text) - ell)
    })


def _realize(w: Word, n: int, alt_bound: int | None, cap: int, successor: bool) -> RealizedSet:
    """All rankers of length <= n (and <= alt_bound direction blocks) defined on w.

    Breadth-first: only rankers whose prefix is defined are extended, since
    an undefined prefix makes every extension undefined. Each depth extends
    the previous depth's rankers in order by candidate steps sorted as
    `sort_key` sorts steps, so the rankers come out in `sort_key` order.
    The i-th step's windows are at most i-1 wide with successor, empty without.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if alt_bound is not None and alt_bound < 1:
        raise ValueError("alt_bound must be >= 1 when given")
    make = SucRanker if successor else Ranker
    text = w.text
    found: dict[Ranker, int] = {}
    # (steps, position of the last step, direction blocks)
    frontier: list[tuple[tuple[BoundaryPos, ...], int | None, int]] = [((), None, 0)]
    for depth in range(1, n + 1):
        if depth == 1 or successor:
            # (step, direction, window, before width, after width)
            candidates = [
                (BoundaryPos(direction, letter, before, after), direction,
                 before + letter + after, len(before), len(after))
                for direction in (Direction.RIGHT, Direction.LEFT)
                for before, letter, after in _windows(text, depth - 1 if successor else 0)
            ]
        next_frontier = []
        for steps, pos, blocks in frontier:
            last = steps[-1].direction if steps else None
            for step, direction, window, k, ell in candidates:
                b = blocks + (direction is not last)
                if alt_bound is not None and b > alt_bound:
                    continue
                new_pos = _match(text, direction, window, k, ell, pos)
                if new_pos is None:
                    continue
                new_steps = steps + (step,)
                found[make(new_steps)] = new_pos
                if len(found) > cap:
                    raise EnumerationCapError(cap, len(w))
                next_frontier.append((new_steps, new_pos, b))
        frontier = next_frontier
    return RealizedSet(w, found)


def realized_rankers(
    w: Word,
    n: int,
    alt_bound: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> RealizedSet:
    """All plain rankers of length <= n (and <= alt_bound direction blocks) defined on w."""
    return _realize(w, n, alt_bound, cap, successor=False)


def realized_suc_rankers(
    w: Word,
    n: int,
    alt_bound: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> RealizedSet:
    """All successor rankers of length <= n defined on w, windows harvested from w."""
    return _realize(w, n, alt_bound, cap, successor=True)


# A process-wide cache, least recently used first: realized sets are immutable
# and the equivalence sweeps revisit the same words many times. Once the sets
# hold more than _CACHE_RANKERS rankers (about 190 MB) the oldest are evicted,
# but the newest set is always kept. Each set also counts one for itself, so
# that many tiny sets are bounded too.
_CACHE_RANKERS = 1_000_000
_cache: dict[tuple[Word, int, bool], RealizedSet] = {}
_cache_held = 0
_cache_lock = threading.Lock()


def _cached_realized(w: Word, n: int, successor: bool) -> RealizedSet:
    global _cache_held
    key = (w, n, successor)
    with _cache_lock:
        realized = _cache.pop(key, None)
        if realized is None:
            # through the public names, so that a wrapper installed on them (as
            # the benchmark's tracer does) sees every miss
            realized = (realized_suc_rankers if successor else realized_rankers)(w, n)
            _cache_held += len(realized) + 1
            while _cache and _cache_held > _CACHE_RANKERS:
                _cache_held -= len(_cache.pop(next(iter(_cache)))) + 1
        _cache[key] = realized
    return realized


def parse_ranker(text: str, alphabet: Alphabet | None = None) -> Ranker:
    """Parse the ASCII ranker syntax.

    Plain steps are `>a` / `<b`; successor steps are `>[before|letter|after]`
    with empty components allowed. A ranker containing any bracketed step is
    a successor ranker, with plain steps promoted to empty windows.
    """
    i = 0
    steps: list[BoundaryPos] = []
    any_window = False
    while i < len(text):
        c = text[i]
        if c == ">":
            direction = Direction.RIGHT
        elif c == "<":
            direction = Direction.LEFT
        else:
            raise ValueError(f"expected '>' or '<' at position {i} in {text!r}")
        i += 1
        if i >= len(text):
            raise ValueError(f"dangling direction at end of {text!r}")
        if text[i] == "[":
            end = text.find("]", i)
            if end < 0:
                raise ValueError(f"unterminated '[' at position {i} in {text!r}")
            parts = text[i + 1 : end].split("|")
            if len(parts) != 3:
                raise ValueError(f"a window needs exactly 'before|letter|after' at position {i}")
            before, letter, after = parts
            if len(letter) != 1:
                raise ValueError(f"window centre must be a single letter, got {letter!r}")
            steps.append(BoundaryPos(direction, letter, before, after))
            any_window = True
            i = end + 1
        else:
            steps.append(BoundaryPos(direction, text[i]))
            i += 1
    if not steps:
        raise ValueError("empty ranker")
    if alphabet is not None:
        for step in steps:
            for ch in step.before + step.letter + step.after:
                if ch not in alphabet:
                    raise ValueError(f"letter {ch!r} not in alphabet {alphabet}")
    return (SucRanker if any_window else Ranker)(tuple(steps))


def render_ranker(r: Ranker) -> str:
    """Inverse of parse_ranker up to structural identity."""
    return str(r)


def ranker_letters(r: Ranker) -> set[str]:
    """Every letter the ranker mentions (including window letters)."""
    return {ch for step in r.steps for ch in step.before + step.letter + step.after}
