"""Boundary positions and rankers over the signatures {<} and {<, suc}.

A ranker is a little program of "go to the next/previous occurrence" steps.
Evaluation threads a position through the steps; a step with no matching
occurrence makes the whole ranker undefined (returned as None).

Over {<, suc} a step also requires a window of letters around its position.
A plain ranker is a successor ranker whose windows are all empty, so one step
type and one evaluator serve both signatures. One breadth-first walk over two
words at once serves both too: over a word and itself it enumerates the
rankers realized on it, and over two words it finds the rankers that their
equivalence check compares. Every step of the walk is one search of each
word for its window.
"""

from __future__ import annotations

import re
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

    def __post_init__(self):
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, not {self.direction!r}")

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
    right = p.direction is Direction.RIGHT
    if start is None:
        start = 0
    elif start < 1 and not right:
        return None
    return _match(w.text, right, p.before + p.letter + p.after, len(p.before), len(p.after), start)


def _match(text: str, right: bool, window: str, k: int, ell: int, start: int) -> int | None:
    # the window's letter sits k characters into it; a match must lie
    # strictly right (left) of `start`, with the whole window inside text.
    # Start 0 is no position yet; going left, any other start is at least 1,
    # so the end offset is never negative
    if right:
        idx = text.find(window, start - k if start > k else 0)
    else:
        idx = text.rfind(window, 0, start - 1 + ell if start else len(text))
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

    def select(
        self,
        length: int | None = None,
        max_length: int | None = None,
        blocks: int | None = None,
        max_blocks: int | None = None,
        last_direction: Direction | None = None,
    ) -> list[tuple[Ranker, int]]:
        """Filtered (ranker, position) pairs in deterministic order.

        `length`/`blocks` keep rankers with exactly that many steps or
        alternation blocks, `max_length`/`max_blocks` those with at most that
        many, and `last_direction` those whose last step goes that way.
        """
        if last_direction is not None and not isinstance(last_direction, Direction):
            raise ValueError(f"last_direction must be a Direction or None, not {last_direction!r}")
        out = []
        by_blocks = blocks is not None or max_blocks is not None
        for r, p in self.positions.items():
            if length is not None and len(r) != length:
                continue
            if max_length is not None and len(r) > max_length:
                continue
            if by_blocks:
                b = alternation_blocks(r)
                if blocks is not None and b != blocks:
                    continue
                if max_blocks is not None and b > max_blocks:
                    continue
            if last_direction is not None and r.last_direction is not last_direction:
                continue
            out.append((r, p))
        return out


def _steps(tu: str, tv: str, width: int) -> list[tuple]:
    """The candidate steps whose window occurs in u or v, each side at most
    `width` letters, in the order `sort_key` sorts steps.

    A window that occurs in neither text is undefined everywhere on them,
    so harvesting from the words loses nothing. A window is a substring of
    the texts split into `before`, `letter` and `after`. Each candidate is
    (step, whether it goes right, window, before width, after width), the
    arguments `_match` searches a text with.
    """
    found = [set(tu + tv)] + [
        {text[i : i + size] for text in (tu, tv) for i in range(len(text) - size + 1)}
        for size in range(2, 2 * width + 2)
    ]
    windows = sorted(
        (s[:k], s[k], s[k + 1 :])
        for k in range(width + 1)
        for ell in range(width + 1)
        for s in found[k + ell]
    )
    return [
        (BoundaryPos(direction, letter, before, after), direction is Direction.RIGHT,
         before + letter + after, len(before), len(after))
        for direction in (Direction.RIGHT, Direction.LEFT)
        for before, letter, after in windows
    ]


def _realize(w: Word, n: int, alt_bound: int | None, cap: int, successor: bool) -> RealizedSet:
    if n < 1:
        raise ValueError("n must be >= 1")
    if alt_bound is not None and alt_bound < 1:
        raise ValueError("alt_bound must be >= 1 when given")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    kept, positions = _walk(w, w, n, alt_bound, successor, cap, every=True)[:2]
    make = SucRanker if successor else Ranker
    return RealizedSet(w, {make(steps): p for steps, p in zip(kept, positions)})


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


def _walk(u: Word, v: Word, n: int, alt_bound: int | None, successor: bool, cap: int,
          every: bool = False):
    """The rankers of length <= n (and <= alt_bound direction blocks) on u
    and v, breadth-first: every one defined on both with `every` (on u = v,
    the rankers realized on the word), else one per state.

    A state is a ranker's positions on u and on v and, with an alternation
    bound, whether its last step goes right. It keeps the least blocks seen
    at it (0 with no bound), and a ranker whose blocks are not below that
    least is skipped; nor is a ranker extended where an earlier one at its
    positions, ending the other way, has fewer blocks. Either way an
    earlier ranker reaches all it reaches, first (the `equivalence` module
    says why no report changes).

    With successor, step `depth` reads windows of min(depth - 1,
    max(|u|, |v|) - 1) letters a side (wider ones fit in neither word), and
    states are kept per width. While the width holds, a shallower visit of
    a state reaches all that a deeper one does, so the walk ends at the
    first depth with no new state, however large n is. Only rankers defined
    on both words are extended, each depth in order by the candidate steps
    in order (`_steps`), so rankers come out in `sort_key` order. The
    root's start is 0. Where u and v are one text, every ranker sits at one
    position on both, so one search serves both words.

    Returns the kept rankers as tuples of steps, their positions on u and
    on v and their blocks, and the least ranker defined on one word only,
    as a `Ranker` or `SucRanker`, with its positions, if any (the lists then
    stop short). More than `cap` kept rankers raise `EnumerationCapError`;
    on states, that trips only where enumerating either word's rankers
    would.
    """
    make = SucRanker if successor else Ranker
    tu, tv = u.text, v.text
    same = tu == tv
    bounded = alt_bound is not None
    widest, width = max(len(tu), len(tv), 1) - 1, None
    kept, pos_u, pos_v, blocks = [], [], [], []
    # (steps, position on u, position on v, direction blocks, last step goes right)
    frontier: list[tuple] = [((), 0, 0, 0, None)]
    for depth in range(1, n + 1):
        if not frontier:
            break
        if width != (width := min(depth - 1, widest) if successor else 0):
            candidates = _steps(tu, tv, width)
            seen = {}  # state -> least blocks; each window width has its own
        next_frontier = []
        for steps, x, y, b0, last in frontier:
            for step, right, window, k, ell in candidates:
                b = b0 + (right is not last)
                if bounded and b > alt_bound:
                    continue
                x2 = _match(tu, right, window, k, ell, x)
                y2 = x2 if same else _match(tv, right, window, k, ell, y)
                if x2 is None and y2 is None:
                    continue
                if x2 is None or y2 is None:
                    return kept, pos_u, pos_v, blocks, (make(steps + (step,)), x2, y2)
                if not every:
                    state, least = ((x2, y2, right), b) if bounded else ((x2, y2), 0)
                    if seen.get(state, least + 1) <= least:
                        continue
                    seen[state] = least
                new_steps = steps + (step,)
                kept.append(new_steps)
                if len(kept) > cap:
                    raise EnumerationCapError(cap, len(u))
                pos_u.append(x2)
                pos_v.append(y2)
                blocks.append(b)
                if depth < n and seen.get((x2, y2, not right), b) >= b:
                    next_frontier.append((new_steps, x2, y2, b, right))
        frontier = next_frontier
    return kept, pos_u, pos_v, blocks, None


# a step: a direction, then a window [before|letter|after] of one centre
# letter, no part holding ']' or '|', or one plain character other than '['
_STEP = re.compile(r"([<>])(?:\[([^]|]*)\|([^]|])\|([^]|]*)\]|([^[]))")


def parse_ranker(text: str, alphabet: Alphabet | None = None) -> Ranker:
    """Parse the ASCII ranker syntax.

    Plain steps are `>a` / `<b`; successor steps are `>[before|letter|after]`
    with empty components allowed. A ranker containing any bracketed step is
    a successor ranker, with plain steps promoted to empty windows.
    """
    steps: list[BoundaryPos] = []
    i, any_window = 0, False
    while i < len(text) or not steps:
        m = _STEP.match(text, i)
        if m is None:
            raise ValueError(f"expected a step >a, <a or >[before|a|after] at position {i} in {text!r}")
        direction, before, letter, after, plain = m.groups()
        steps.append(BoundaryPos(Direction(direction), plain or letter, before or "", after or ""))
        any_window = any_window or plain is None
        i = m.end()
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
