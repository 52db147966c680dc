"""Ranker-based equivalence deciders with witness reporting.

Each decider checks, over the rankers of length at most n (and, in the
alternation variants, at most m direction blocks):

  (a) the same rankers are defined on both words,
  (b) rankers agree on their relative order with the rankers of length at
      most n-1, of at most m-1 blocks in the alternation variants,
  (c) (alternation variants) rankers agree likewise with the rankers of
      length at most n-1 that end in the opposite direction.

One breadth-first walk over both words at once (`rankers._walk`) finds the
least ranker defined on one word only, which fails (a), or else keeps the
rankers no earlier one dominates. A state is a ranker's positions on u and
v and, with an alternation bound, its last direction; a ranker is kept
only with fewer blocks than every earlier one at its state (with no bound,
a state keeps its first ranker). With successor, states are kept per
window width, which stops at max(|u|, |v|) - 1, so both walks end at their
first depth with no new state. Equal texts are equivalent at every n and m,
so they are answered before any walk. The walk keeps each ranker as its
tuple of steps, and a `Ranker` or `SucRanker` is built only for a reported
witness.

A skipped ranker sits where an earlier kept one does, ends in the same
direction, and has no fewer blocks and no fewer steps. As a row it fails
(b) or (c) only where the earlier one does; as a column it qualifies only
where the earlier one, which comes first, does, since (b) bounds columns'
steps and blocks and (c) splits them by last direction; and each of its
one-sided extensions extends the earlier one, found first. So the
witnesses are those of a check over every ranker. For the same reason the
walk does not extend a ranker where an earlier one at its positions that
ends the other way has fewer blocks: a step adds at most one block to it.

Conditions (b) and (c) compare every row ranker with a set of column rankers
through the comparison the signature sees: `order_type`, or with successor
`suc_order_type`, which also tells immediate neighbours apart. Rather
than comparing every pair, the columns' positions are sorted once on each
word and every row is checked by rank in O(log R), so the check takes
O(R log R) time and O(R) memory. A failing row is then scanned against its
columns in order, so the witness is the first failing (row, column) pair in
row-major canonical order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from . import rankers
from .errors import AlphabetMismatchError
from .rankers import AnyRanker, Direction, Ranker, SucRanker, _walk, render_ranker
from .words import Word, order_type, suc_order_type


class FailedCondition(Enum):
    NONE = "none"
    DEFINEDNESS = "definedness"
    ORDER = "order"
    CROSS_DIRECTION = "cross-direction"


@dataclass(frozen=True)
class WitnessEntry:
    ranker: AnyRanker
    pos_u: Optional[int]
    pos_v: Optional[int]

    def to_json_dict(self) -> dict:
        return {"ranker": render_ranker(self.ranker), "posU": self.pos_u, "posV": self.pos_v}


@dataclass(frozen=True)
class EquivReport:
    verdict: bool
    failed_condition: FailedCondition
    witnesses: tuple[WitnessEntry, ...]
    n: int
    m: Optional[int]
    successor: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "signature": "order+successor" if self.successor else "order",
            "verdict": self.verdict,
            "failedCondition": self.failed_condition.value,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


class _Columns:
    """A set of column rankers, ranked by position on each word.

    A row at (x, y) compares the same way with every column on both words
    iff for each cut c the columns below x + c on u are exactly the columns
    below y + c on v. Cuts 0 and 1 tell <, = and > apart; with successor,
    cuts -1 and 2 also single out the neighbours x - 1 and x + 1.
    """

    def __init__(self, cols: list[int], pos_u: list[int], pos_v: list[int]):
        self.cols = cols
        by_u = sorted(cols, key=pos_u.__getitem__)
        by_v = sorted(cols, key=pos_v.__getitem__)
        self.sorted_u = [pos_u[j] for j in by_u]
        self.sorted_v = [pos_v[j] for j in by_v]
        # same_set[s]: the s lowest columns on u are the s lowest on v, iff their highest v-rank is s - 1
        rank_v = {j: r for r, j in enumerate(by_v)}
        self.same_set, highest = [True], -1
        for s, j in enumerate(by_u):
            if rank_v[j] > highest:
                highest = rank_v[j]
            self.same_set.append(highest == s)


def _first_bad(
    columns_of: Callable[[int], _Columns], pos_u: list[int], pos_v: list[int], successor: bool
) -> Optional[tuple[int, int]]:
    """The first row, in order, that some column tells apart on u and v,
    with its first such column."""
    cuts = (-1, 0, 1, 2) if successor else (0, 1)
    cmp = suc_order_type if successor else order_type
    for i, (x, y) in enumerate(zip(pos_u, pos_v)):
        columns = columns_of(i)
        for c in cuts:
            s = bisect_left(columns.sorted_u, x + c)
            if s != bisect_left(columns.sorted_v, y + c) or not columns.same_set[s]:
                return i, next(j for j in columns.cols if cmp(x, pos_u[j]) != cmp(y, pos_v[j]))
    return None


def _structure_check(u: Word, v: Word, n: int, m: Optional[int], successor: bool) -> EquivReport:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError(
            f"words use different alphabets: {u.alphabet} vs {v.alphabet}"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    if m is not None and m < 1:
        raise ValueError("m must be >= 1")
    if u.text == v.text:
        return EquivReport(True, FailedCondition.NONE, (), n, m, successor)
    common, pos_u, pos_v, blocks, one_sided = _walk(u, v, n, m, successor, rankers.DEFAULT_ENUMERATION_CAP)
    make = SucRanker if successor else Ranker
    if one_sided is not None:
        steps, x, y = one_sided
        entry = WitnessEntry(make(steps), x, y)
        return EquivReport(False, FailedCondition.DEFINEDNESS, (entry,), n, m, successor)

    shorter = [j for j, steps in enumerate(common) if len(steps) <= n - 1]

    def report(condition: FailedCondition, hit: tuple[int, int]) -> EquivReport:
        entries = tuple(WitnessEntry(make(common[k]), pos_u[k], pos_v[k]) for k in hit)
        return EquivReport(False, condition, entries, n, m, successor)

    # (b): rankers vs strictly shorter (and, in alternation mode, strictly
    # less alternating) rankers
    cols_b = shorter if m is None else [j for j in shorter if blocks[j] <= m - 1]
    columns_b = _Columns(cols_b, pos_u, pos_v)
    hit = _first_bad(lambda i: columns_b, pos_u, pos_v, successor)
    if hit is not None:
        return report(FailedCondition.ORDER, hit)

    # (c): only in alternation mode; shorter rankers ending with the
    # opposite direction
    if m is not None:
        ends_right = [steps[-1].direction is Direction.RIGHT for steps in common]
        right = _Columns([j for j in shorter if ends_right[j]], pos_u, pos_v)
        left = _Columns([j for j in shorter if not ends_right[j]], pos_u, pos_v)
        hit = _first_bad(lambda i: left if ends_right[i] else right, pos_u, pos_v, successor)
        if hit is not None:
            return report(FailedCondition.CROSS_DIRECTION, hit)

    return EquivReport(True, FailedCondition.NONE, (), n, m, successor)


def ranker_equiv(u: Word, v: Word, n: int) -> EquivReport:
    """Words agree on all sentences of quantifier depth up to n (order only)."""
    return _structure_check(u, v, n, None, successor=False)


def ranker_equiv_alt(u: Word, v: Word, m: int, n: int) -> EquivReport:
    """Agreement up to depth n with at most m alternating quantifier blocks."""
    return _structure_check(u, v, n, m, successor=False)


def suc_ranker_equiv(u: Word, v: Word, n: int) -> EquivReport:
    """Depth-n agreement over the order+successor signature."""
    return _structure_check(u, v, n, None, successor=True)


def suc_ranker_equiv_alt(u: Word, v: Word, m: int, n: int) -> EquivReport:
    return _structure_check(u, v, n, m, successor=True)


def alphabet_collapse_check(u: Word, v: Word, n: int) -> bool:
    """Probe for the alternation collapse: blocks beyond alphabet-size+1 add nothing.

    Returns the implication "equivalent at (|alphabet|+1, n) implies
    equivalent at n", which is expected to always hold.
    """
    k = len(u.alphabet)
    alt = _structure_check(u, v, n, k + 1, successor=False)
    if not alt.verdict:
        return True
    return ranker_equiv(u, v, n).verdict
