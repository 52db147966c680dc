"""Ranker-based equivalence deciders with witness reporting.

Each decider checks, over ranker families realized on the two words:

  (a) the same rankers are defined on both words,
  (b) rankers agree with shorter rankers on their relative order,
  (c) (alternation variants) rankers agree with equally-deep rankers that
      end in the opposite direction.

Condition (a) is checked over the whole cumulative family first, which
guarantees every ranker appearing in (b) and (c) is defined on both words.

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

from .errors import AlphabetMismatchError
from .rankers import (
    AnyRanker,
    Direction,
    _cached_realized,
    render_ranker,
    sort_key,
)
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
        # same_set[s]: the s columns lowest on u are the s lowest on v
        self.same_set = [True]
        seen_u: set[int] = set()
        seen_v: set[int] = set()
        unmatched = 0
        for ju, jv in zip(by_u, by_v):
            seen_u.add(ju)
            unmatched += -1 if ju in seen_v else 1
            seen_v.add(jv)
            unmatched += -1 if jv in seen_u else 1
            self.same_set.append(unmatched == 0)

    def agree(self, x: int, y: int, cuts: tuple[int, ...]) -> bool:
        for c in cuts:
            s = bisect_left(self.sorted_u, x + c)
            if s != bisect_left(self.sorted_v, y + c) or not self.same_set[s]:
                return False
        return True


def _first_bad(
    columns_of: Callable[[int], _Columns], pos_u: list[int], pos_v: list[int], successor: bool
) -> Optional[tuple[int, int]]:
    """The first row, in order, that some column tells apart on u and v,
    with its first such column."""
    cuts = (-1, 0, 1, 2) if successor else (0, 1)
    cmp = suc_order_type if successor else order_type
    for i, (x, y) in enumerate(zip(pos_u, pos_v)):
        columns = columns_of(i)
        if not columns.agree(x, y, cuts):
            return i, next(j for j in columns.cols if cmp(x, pos_u[j]) != cmp(y, pos_v[j]))
    return None


def _first_difference(a: list[AnyRanker], b: list[AnyRanker]) -> Optional[AnyRanker]:
    """The least ranker in exactly one of two lists in canonical order, or None.

    Up to the first position where the lists differ they hold the same
    rankers; there, the lesser of the two is in one list only, and every
    lesser ranker is in both.
    """
    for r, s in zip(a, b):
        if r != s:
            return min(r, s, key=sort_key)
    if len(a) == len(b):
        return None
    return (a if len(a) > len(b) else b)[min(len(a), len(b))]


def _structure_check(u: Word, v: Word, n: int, m: Optional[int], successor: bool) -> EquivReport:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError(
            f"words use different alphabets: {u.alphabet} vs {v.alphabet}"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    if m is not None and m < 1:
        raise ValueError("m must be >= 1")
    ru = _cached_realized(u, n, successor)
    rv = _cached_realized(v, n, successor)

    def family(realized) -> list[tuple[AnyRanker, int, int]]:
        rows = zip(realized.positions, realized.positions.values(), realized.blocks)
        return [row for row in rows if m is None or row[2] <= m]

    fam_u = family(ru)
    fam_v = family(rv)
    common = [r for r, _, _ in fam_u]
    witness = _first_difference(common, [r for r, _, _ in fam_v])
    if witness is not None:
        entry = WitnessEntry(witness, ru.positions.get(witness), rv.positions.get(witness))
        return EquivReport(False, FailedCondition.DEFINEDNESS, (entry,), n, m, successor)

    pos_u = [p for _, p, _ in fam_u]
    pos_v = [p for _, p, _ in fam_v]
    shorter = [j for j, r in enumerate(common) if len(r) <= n - 1]

    def report(condition: FailedCondition, hit: tuple[int, int]) -> EquivReport:
        entries = tuple(WitnessEntry(common[k], pos_u[k], pos_v[k]) for k in hit)
        return EquivReport(False, condition, entries, n, m, successor)

    # (b): rankers vs strictly shorter (and, in alternation mode, strictly
    # less alternating) rankers
    cols_b = shorter if m is None else [j for j in shorter if fam_u[j][2] <= m - 1]
    columns_b = _Columns(cols_b, pos_u, pos_v)
    hit = _first_bad(lambda i: columns_b, pos_u, pos_v, successor)
    if hit is not None:
        return report(FailedCondition.ORDER, hit)

    # (c): only in alternation mode; shorter rankers ending with the
    # opposite direction
    if m is not None:
        ends_right = [r.last_direction is Direction.RIGHT for r in common]
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
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError(
            f"words use different alphabets: {u.alphabet} vs {v.alphabet}"
        )
    k = len(u.alphabet)
    alt = _structure_check(u, v, n, k + 1, successor=False)
    if not alt.verdict:
        return True
    return ranker_equiv(u, v, n).verdict
