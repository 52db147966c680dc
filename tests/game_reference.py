"""Reference oracle: the four-dimensional two-pebble game solver.

Each (remaining moves, switch budget, side of the previous move) gets one
boolean numpy table over all pebble configurations (x_u, y_u, x_v, y_v),
with 0 standing for "pebble pair not placed": (|u|+1)^2 (|v|+1)^2 cells.
It is an exact search that shares nothing with the pair-relation solver in
`fo2words.efgames` beyond the public types, so the tests compare the two.
Its order and successor comparison (`_iso_table`) is likewise independent
of `partial_iso`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from fo2words.efgames import DEFAULT_GAME_CAP, GameConfig, GameVerdict, Side, partial_iso
from fo2words.errors import GameResourceError
from fo2words.words import Word


def _iso_table(u: Word, v: Word, with_successor: bool) -> np.ndarray:
    lu, lv = len(u), len(v)
    cu = np.array([0] + [ord(ch) for ch in u.text], dtype=np.int32)
    cv = np.array([0] + [ord(ch) for ch in v.text], dtype=np.int32)
    placed_u = np.arange(lu + 1) > 0
    placed_v = np.arange(lv + 1) > 0
    pair_ok = (placed_u[:, None] == placed_v[None, :]) & (
        ~placed_u[:, None] | (cu[:, None] == cv[None, :])
    )
    iu = np.arange(lu + 1)
    iv = np.arange(lv + 1)
    du = iu[:, None] - iu[None, :]
    dv = iv[:, None] - iv[None, :]
    if with_successor:
        ou = np.clip(du, -2, 2)
        ov = np.clip(dv, -2, 2)
    else:
        ou = np.sign(du)
        ov = np.sign(dv)
    both_u = placed_u[:, None] & placed_u[None, :]
    order_ok = ~both_u[:, :, None, None] | (ou[:, :, None, None] == ov[None, None, :, :])
    return pair_ok[:, None, :, None] & pair_ok[None, :, None, :] & order_ok


class _Solver:
    """One game instance: fixed words, fixed comparison, shared tables."""

    def __init__(self, u: Word, v: Word, with_successor: bool, cap: int):
        self.u, self.v = u, v
        self.lu, self.lv = len(u), len(v)
        self.with_successor = with_successor
        self.cap = cap
        self.table_size = (self.lu + 1) ** 2 * (self.lv + 1) ** 2
        self.iso: Optional[np.ndarray] = None  # built once the cap check has passed

    def _check_cap(self, live_tables: int):
        needed = live_tables * self.table_size
        if needed > self.cap:
            raise GameResourceError(needed, self.cap)

    @staticmethod
    def _move_masks_u(child: np.ndarray) -> np.ndarray:
        # Samson places x or y on u, Delilah answers on v.
        a = child[1:, :, 1:, :]
        m_x = a.any(axis=2).all(axis=0)  # over (i2, j2)
        b = child[:, 1:, :, 1:]
        m_y = b.any(axis=3).all(axis=1)  # over (i1, j1)
        return m_x[None, :, None, :] & m_y[:, None, :, None]

    @staticmethod
    def _move_masks_v(child: np.ndarray) -> np.ndarray:
        a = child[1:, :, 1:, :]
        m_x = a.any(axis=0).all(axis=1)
        b = child[:, 1:, :, 1:]
        m_y = b.any(axis=1).all(axis=2)
        return m_x[None, :, None, :] & m_y[:, None, :, None]

    def _levels_needed(self, n: int, budget: Optional[int], sides: list[Side]) -> list[set]:
        """Which (budget, last-side) tables each move level requires."""
        if n == 0:
            return []
        needed = [set() for _ in range(n)]
        if budget is None:
            for d in range(n):
                needed[d].add((None, None))
            return needed
        needed[n - 1] = {(budget, s) for s in sides}
        for d in range(n - 1, 0, -1):
            for b, last in needed[d]:
                needed[d - 1].add((b, last))
                if b >= 1:
                    needed[d - 1].add((b - 1, Side.V if last is Side.U else Side.U))
        return needed

    def level_tables(self, n: int, budget: Optional[int], sides: list[Side]) -> dict:
        """Tables for the last move level (remaining depth n-1), built bottom-up."""
        if n == 0:
            return {}
        needed = self._levels_needed(n, budget, sides)
        max_live = max(
            (len(needed[d]) + (len(needed[d - 1]) if d else 1) for d in range(n)),
            default=1,
        )
        self._check_cap(max_live + 1)  # + the iso table
        self.iso = _iso_table(self.u, self.v, self.with_successor)
        prev = {key: self.iso for key in needed[0]}
        for d in range(1, n):
            cur = {}
            for b, last in needed[d]:
                cur[(b, last)] = self._build(prev, b, last)
            prev = cur
        return prev

    def _build(self, prev: dict, budget: Optional[int], last: Optional[Side]) -> np.ndarray:
        w = self.iso
        if budget is None:
            child = prev[(None, None)]
            return w & self._move_masks_u(child) & self._move_masks_v(child)
        if last is Side.U:
            w = w & self._move_masks_u(prev[(budget, Side.U)])
            if budget >= 1:
                w = w & self._move_masks_v(prev[(budget - 1, Side.V)])
        else:
            w = w & self._move_masks_v(prev[(budget, Side.V)])
            if budget >= 1:
                w = w & self._move_masks_u(prev[(budget - 1, Side.U)])
        return w

    def solve(
        self,
        n: int,
        budget: Optional[int],
        start: tuple[int, int, int, int],
        sides: list[Side],
        samson_frozen: bool = False,
    ) -> GameVerdict:
        i1, i2, j1, j2 = start
        placed = GameConfig(self.u, self.v, i1 or None, i2 or None, j1 or None, j2 or None,
                            with_successor=self.with_successor)
        if not partial_iso(placed):
            movable = n >= 1 and not samson_frozen
            return GameVerdict(False, self._first_legal_move(sides) if movable else None)
        if n == 0 or samson_frozen:
            return GameVerdict(True)
        level = self.level_tables(n, budget, sides)
        wins = True
        for side in sides:
            child = level[(budget, side) if budget is not None else (None, None)]
            if side is Side.U:
                ok = bool(
                    child[1:, i2, 1:, j2].any(axis=1).all()
                    and child[i1, 1:, j1, 1:].any(axis=1).all()
                )
            else:
                ok = bool(
                    child[1:, i2, 1:, j2].any(axis=0).all()
                    and child[i1, 1:, j1, 1:].any(axis=0).all()
                )
            wins = wins and ok
        if wins:
            return GameVerdict(True)
        return GameVerdict(False, self._first_winning_move(level, budget, start, sides))

    def _first_legal_move(self, sides: list[Side]) -> Optional[tuple[Side, str, int]]:
        # The start configuration is already lost for Delilah; any legal
        # move keeps it lost, so report the first one.
        for side in sides:
            length = self.lu if side is Side.U else self.lv
            if length >= 1:
                return (side, "x", 1)
        return None

    def _first_winning_move(
        self,
        level: dict,
        budget: Optional[int],
        start: tuple[int, int, int, int],
        sides: list[Side],
    ) -> Optional[tuple[Side, str, int]]:
        i1, i2, j1, j2 = start
        for side in sides:
            child = level[(budget, side) if budget is not None else (None, None)]
            if side is Side.U:
                for pebble, replies in (
                    ("x", lambda p: child[p, i2, 1:, j2]),
                    ("y", lambda p: child[i1, p, j1, 1:]),
                ):
                    for p in range(1, self.lu + 1):
                        if not replies(p).any():
                            return (side, pebble, p)
            else:
                for pebble, replies in (
                    ("x", lambda q: child[1:, i2, q, j2]),
                    ("y", lambda q: child[i1, 1:, j1, q]),
                ):
                    for q in range(1, self.lv + 1):
                        if not replies(q).any():
                            return (side, pebble, q)
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
    return solver.solve(n, None, (0, 0, 0, 0), [Side.U, Side.V])


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
    sides = [start_side] if start_side is not None else [Side.U, Side.V]
    return solver.solve(n, m - 1, (0, 0, 0, 0), sides, samson_frozen=(m == 0))


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
    for pos, word, name in ((i1, u, "i1"), (i2, u, "i2"), (j1, v, "j1"), (j2, v, "j2")):
        if not 1 <= pos <= len(word):
            raise ValueError(f"{name}={pos} out of range [1, {len(word)}]")
    solver = _Solver(u, v, with_successor, cap)
    sides = [start_side] if start_side is not None else [Side.U, Side.V]
    budget = None if m is None else m - 1
    return solver.solve(n, budget, (i1, i2, j1, j2), sides, samson_frozen=(m == 0))
