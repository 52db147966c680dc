"""Two-pebble Ehrenfeucht-Fraisse game solver on pair relations.

The solver decides who wins the n-move two-pebble game between Samson
(spoiler) and Delilah (duplicator), optionally limiting how often Samson
may change the word he plays on, and optionally reading positions through
the successor-aware order comparison.

The game state factorizes over the two pebble pairs. With k moves left,
Delilah wins from (x_u, y_u; x_v, y_v) iff the placement is a partial
isomorphism and a one-pair relation M_k holds of (x_u, x_v) and of
(y_u, y_v). M_0 is letter equality. A move level intersects M_{k-1} with
the pairs (i, j) from which every Samson move p on one word has an answer
q with (p, q) in M_{k-1} and q placed relative to j as p is relative to i.
For a move on u that set is an interval of j in every row i: the moves
p < i need j above the first answer of each row p < i, and the moves
p > i need j below the last answer of each row p > i. For a move on v it
is an interval too: the rows p < i together must answer every column
q < j, and the rows p > i every column q > j. With successor the
neighbours (i-1, j-1) and (i+1, j+1) are checked bit by bit, and the far
ranges start two positions away. An alternation budget keeps one
relation per (budget, side of the previous move); a move on the other
side spends one switch. With d moves left Samson changes sides at most d
times, so every budget of d or more is one relation, the unbounded M_d.
The relations do not depend on the total depth, so one bottom-up pass
reads every depth's verdict. It stops once the top budget is frozen, or
once every lower budget and the unbounded relation repeat.

A relation is a list of |u| Python ints, one row per position i of u,
with bit j-1 set when (i, j) is in the relation; moves on both words are
computed from these rows. Before a level is built, the relations then
held (its own and the level below; the letters are level 0), (|u|+1)(|v|+1)
bits each, are checked against a cap, so blowup surfaces as an error.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate
from operator import and_, or_
from typing import Optional

from .errors import GameResourceError
from .words import Word, order_type, suc_order_type

DEFAULT_GAME_CAP = 5_000_000


class Side(Enum):
    U = "u"
    V = "v"


@dataclass(frozen=True)
class GameConfig:
    """A game position: two words and paired pebbles; depth, budget and side
    are arguments of the game functions."""

    u: Word
    v: Word
    x_u: Optional[int] = None
    y_u: Optional[int] = None
    x_v: Optional[int] = None
    y_v: Optional[int] = None
    with_successor: bool = False


@dataclass(frozen=True)
class GameVerdict:
    delilah_wins: bool
    first_winning_samson_move: Optional[tuple[Side, str, int]] = None

    def to_json_dict(self) -> dict:
        move = None
        if self.first_winning_samson_move is not None:
            side, pebble, pos = self.first_winning_samson_move
            move = {"side": side.value, "pebble": pebble, "position": pos}
        return {"delilahWins": self.delilah_wins, "firstWinningSamsonMove": move}


def partial_iso(c: GameConfig) -> bool:
    """Does the pebble map preserve letters and the (successor-)order type?

    Unplaced pebbles impose no constraint; a pebble must be placed on both
    words or on neither.
    """
    for a, b in ((c.x_u, c.x_v), (c.y_u, c.y_v)):
        if (a is None) != (b is None):
            return False
        if a is not None and c.u.letter(a) != c.v.letter(b):
            return False
    if c.x_u is not None and c.y_u is not None:
        cmp = suc_order_type if c.with_successor else order_type
        if cmp(c.x_u, c.y_u) != cmp(c.x_v, c.y_v):
            return False
    return True


def _other(side: Side) -> Side:
    return Side.V if side is Side.U else Side.U


def _key(d: int, budget: Optional[int], last: Optional[Side]) -> tuple:
    """The relation for d moves left: a budget of d or more cannot bind."""
    return (None, None) if budget is None or budget >= d else (budget, last)


def _window(n: int, budget: int, d: int, frontier: int) -> range:
    """The budgets level d of the depth-n game keys on their own: B-k after k switches
    in the n-1-d moves above, below d (d or more cannot bind), not frozen below the frontier."""
    return range(max(frontier, 0, budget - (n - 1 - d)), min(budget, d - 1) + 1)


def _keys(n: int, budget: int, sides: list[Side], d: int, frontier: int = 0) -> list[tuple]:
    """Level d's keys: each window budget on the side parity gives, then (None, None) if d <= B."""
    return [(b, s if (budget - b) % 2 == 0 else _other(s)) for b in _window(n, budget, d, frontier)
            for s in sides] + [(None, None)] * (d <= budget)


def _answered(rows: list[int], width: int, successor: bool, side: Side) -> list[int]:
    """The pairs (i, j) from which every move on `side`, other than onto i or
    j itself, has an answer in `rows` placed relative to (i, j) as the move is.

    The move onto i or j itself needs (i, j) in `rows`; callers intersect with it.
    """
    gap = 2 if successor else 1
    n, full = len(rows), (1 << width) - 1
    if side is Side.U:
        # each move p <= i-gap needs j >= first(row p) + gap, and each move
        # p >= i+gap needs j <= last(row p) - gap; an empty row allows no j
        below = accumulate((full & -((r & -r) << gap) for r in rows), and_, initial=full)
        above = accumulate((((1 << r.bit_length()) - 1) >> gap for r in reversed(rows)),
                           and_, initial=full)
    else:
        # the moves q <= j-gap need answers in the rows p <= i-gap, so their
        # union holds the columns 0..j-gap; likewise above i+gap and j+gap
        below = (full & (((~c & c + 1) << gap) - 1) for c in accumulate(rows, or_, initial=0))
        above = (full & ~(((1 << (full & ~d).bit_length()) - 1) >> gap)
                 for d in accumulate(reversed(rows), or_, initial=0))
    below, above = list(below), list(above)
    if successor:  # row i reads below[i-1] and above[n-i-2], both clamped at 0
        below.insert(0, below[0])
        above.insert(0, above[0])
    out = map(and_, below, reversed(above[:n]))
    if successor and side is Side.U:  # the moves i-1 and i+1
        out = map(and_, out, map(and_, [full] + [r << 1 for r in rows],
                                 [r >> 1 for r in rows[1:]] + [full]))
    elif successor:  # the moves j-1 and j+1, where they exist
        top = (full + 1) >> 1
        out = map(and_, out, map(and_, [1] + [r << 1 | 1 for r in rows],
                                 [r >> 1 | top for r in rows[1:]] + [top]))
    return list(out)


class _Solver:
    """One game instance: fixed words, fixed comparison."""

    def __init__(self, u: Word, v: Word, with_successor: bool, cap: int):
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        self.u, self.v = u, v
        self.lu, self.lv = len(u), len(v)
        self.with_successor = with_successor
        self.cap = cap

    def _check_cap(self, live_relations: int):
        needed = live_relations * (self.lu + 1) * (self.lv + 1)
        if needed > self.cap:
            raise GameResourceError(needed, self.cap)

    def levels(self, n: int, budget: Optional[int], sides: list[Side]) -> Iterator[dict]:
        """The relations of move levels 0..n-1 (d moves left), bottom-up, keyed as the
        depth-n game reads them; the cap counts a level and the level below before it is built.

        A budget is frozen at level d when it and every lower budget equal themselves
        at level d-1: each is built from its own and the next lower budget one level
        down, so they repeat at every deeper level and are not built. The levels stop
        once the top budget is frozen, or once every budget below d is and the collapsed
        key repeats: for b >= d-1, M_d ⊆ R^b_d ⊆ R^b_{d-1} = M_{d-1}, so every budget of
        d-1 or more, the top one too, is M_d from then on.
        """
        budget = n - 1 if budget is None else budget  # n-1 or more cannot bind
        prev, frontier = {}, 0
        for d in range(n):
            keys = _keys(n, budget, sides, d, frontier - 1)  # frontier-1, frozen, is carried up
            self._check_cap(len(keys) + len(prev))
            level = {key: prev[key] if key[0] == frontier - 1 else self._build(prev, d, *key)
                     for key in keys} if d else dict.fromkeys(keys, self._letters())
            yield level
            frontier = next((b for b, s in keys if b is not None
                             and level[b, s] != prev[_key(d - 1, b, s)]), min(budget, d - 1) + 1)
            if frontier > budget or 0 < frontier == d and level[None, None] == prev[None, None]:
                return
            prev = level

    def _letters(self) -> list[int]:
        """M_0, letter equality."""
        masks: dict[str, int] = {}
        for j, ch in enumerate(self.v.text):
            masks[ch] = masks.get(ch, 0) | 1 << j
        return [masks.get(ch, 0) for ch in self.u.text]

    def _build(self, prev: dict, d: int, budget: Optional[int], last: Optional[Side]) -> list[int]:
        rows = [-1] * self.lu
        for side in Side:
            # a move on the last side is free, one on the other spends a switch
            left = budget if side is last or budget is None else budget - 1
            if left != -1:
                child = prev[_key(d - 1, left, side)]
                answered = _answered(child, self.lv, self.with_successor, side)
                rows = map(and_, rows, map(and_, child, answered))
        return list(rows)

    def solve(self, n: int, budget: Optional[int], start: tuple[int, int, int, int],
              start_side: Optional[Side]) -> GameVerdict:
        if start_side is not None and not isinstance(start_side, Side):
            raise ValueError(f"start_side must be a Side or None, not {start_side!r}")
        sides = [Side.U, Side.V] if start_side is None else [start_side]
        i1, i2, j1, j2 = start
        iso = partial_iso(GameConfig(self.u, self.v, i1 or None, i2 or None, j1 or None,
                                     j2 or None, with_successor=self.with_successor))
        if n == 0 or budget == -1:  # Samson never moves
            return GameVerdict(iso)
        if iso:
            level = deque(self.levels(n, budget, sides), maxlen=1).pop()
        else:  # a lost start stays lost after any move, so read it against the empty relation
            level = dict.fromkeys((_key(n - 1, budget, side) for side in sides), [0] * self.lu)
        move = self._first_move(level, n - 1, budget, sides, start)
        return GameVerdict(move is None, move)

    def separation_depth(self, m: int) -> Optional[int]:
        """The least depth <= m at which Samson wins the m-alternation game from
        empty pebbles, or None; m >= 1. With d <= m moves Samson switches sides at
        most m-1 times, so level d-1 of one unbounded pass is the depth-d game."""
        sides = list(Side)
        return next((d + 1 for d, level in enumerate(self.levels(m, None, sides))
                     if self._first_move(level, d, None, sides, (0, 0, 0, 0))), None)

    def _first_move(self, level: dict, d: int, budget: Optional[int], sides: list[Side],
                    start: tuple[int, int, int, int]) -> Optional[tuple[Side, str, int]]:
        """Samson's first move from `start` that Delilah cannot answer within the
        relations of `level`, d moves left after it: sides in the order given,
        then as _first_unanswered orders the moves on one side."""
        for side in sides:
            rows = level.get(_key(d, budget, side), level.get((None, None)))
            move = self._first_unanswered(rows, side, start)
            if move is not None:
                return (side, *move)
        return None

    def _first_unanswered(
        self, rows: list[int], side: Side, start: tuple[int, int, int, int]
    ) -> Optional[tuple[str, int]]:
        """Samson's first move on `side` that Delilah cannot answer within `rows`:
        pebble x before y, then ascending position."""
        i1, i2, j1, j2 = start
        cmp = suc_order_type if self.with_successor else order_type
        for pebble, (i, j) in (("x", (i2, j2)), ("y", (i1, j1))):
            # the other pebble pair stays on (i, j), which must itself stay in
            # the relation; 0 means it is not placed. Answers keep the move's
            # type to the other pebble, so group the columns by type to j.
            if not i:  # every column answers every row
                answers = rows
            else:
                cols: dict = {}
                if rows[i - 1] >> (j - 1) & 1:
                    for q in range(1, self.lv + 1):
                        key = cmp(q, j)
                        cols[key] = cols.get(key, 0) | 1 << (q - 1)
                answers = (row & cols.get(cmp(p, i), 0) for p, row in enumerate(rows, 1))
            if side is Side.U:
                move = next((p for p, a in enumerate(answers, 1) if not a), 0)
            else:
                missing = ~reduce(or_, answers, 0) & ((1 << self.lv) - 1)
                move = (missing & -missing).bit_length()
            if move:
                return (pebble, move)
        return None


def game_equiv(
    u: Word,
    v: Word,
    n: int,
    with_successor: bool = False,
    cap: int = DEFAULT_GAME_CAP,
) -> GameVerdict:
    """Delilah wins the n-move game from empty pebbles iff the words agree on
    all sentences of quantifier depth up to n (with unlimited alternation)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    solver = _Solver(u, v, with_successor, cap)
    return solver.solve(n, None, (0, 0, 0, 0), None)


def game_equiv_alt(
    u: Word,
    v: Word,
    m: int,
    n: int,
    with_successor: bool = False,
    start_side: Optional[Side] = None,
    cap: int = DEFAULT_GAME_CAP,
) -> GameVerdict:
    """The switch-bounded game: Samson changes words at most m-1 times.

    The first move is free (either side) unless start_side fixes it; only
    actual changes of side consume the budget. m = 0 means Samson never
    moves, so Delilah wins every game.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    solver = _Solver(u, v, with_successor, cap)
    return solver.solve(n, m - 1, (0, 0, 0, 0), start_side)


def game_equiv_general(
    u: Word,
    i1: int,
    i2: int,
    v: Word,
    j1: int,
    j2: int,
    n: int,
    m: Optional[int] = None,
    start_side: Optional[Side] = None,
    with_successor: bool = False,
    cap: int = DEFAULT_GAME_CAP,
) -> GameVerdict:
    """The game started with both pebble pairs already placed.

    Delilah loses immediately when the initial placement is not a partial
    isomorphism. With m = 0 the verdict is exactly that initial check,
    since Samson cannot move at all.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m is not None and m < 0:
        raise ValueError("m must be >= 0")
    for pos, word, name in ((i1, u, "i1"), (i2, u, "i2"), (j1, v, "j1"), (j2, v, "j2")):
        if not 1 <= pos <= len(word):
            raise ValueError(f"{name}={pos} out of range [1, {len(word)}]")
    solver = _Solver(u, v, with_successor, cap)
    budget = None if m is None else m - 1
    return solver.solve(n, budget, (i1, i2, j1, j2), start_side)
