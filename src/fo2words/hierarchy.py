"""Witness families for the strict alternation hierarchy, and their verification.

Level m of the hierarchy is witnessed by a pair of almost-identical words:
deleting a single occurrence of the first letter from u gives v. The pair
is indistinguishable with m-1 alternating quantifier blocks but separated
with m, which verification checks from both the ranker side and the game
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .efgames import game_equiv_alt
from .equivalence import ranker_equiv_alt, suc_ranker_equiv_alt
from .formulas import Signature, model_check, parse_formula
from .rankers import BoundaryPos, Direction, Ranker, eval_ranker
from .words import Alphabet, OrderType, Word, order_type


def _letters(m: int, signature: Signature) -> list[str]:
    """Rendering of the indexed letters: a, b, c, ... for the order signature;
    with successor, b is reserved for the padding letter, so a, c, d, ..."""
    base = "abcdefghijklmnopqrstuvwxyz"
    if signature is not Signature.ORDER:
        base = base.replace(_PAD, "")
    if m > len(base):
        raise ValueError(f"no letter rendering beyond {len(base)} levels")
    return list(base[:m])


_PAD = "b"


@dataclass(frozen=True)
class WitnessPair:
    m: int
    n: int
    u: Word
    v: Word
    signature: Signature

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "u": self.u.text,
            "v": self.v.text,
            "signature": self.signature.value,
            "alphabet": str(self.u.alphabet),
        }


@dataclass(frozen=True)
class SeparatingRankerPair:
    r: Ranker
    s: Ranker


def witness_words(m: int, n: int) -> WitnessPair:
    """The order-signature witness pair for hierarchy level m at depth parameter n."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    a = _letters(m, Signature.ORDER)
    u, v = a[0], ""
    if m >= 2:
        block = (a[1] + a[0]) * (2 * n)
        u, v = a[0] + block, block
    level = 2
    while level < m:
        level += 1
        if level % 2 == 1:
            block = "".join(a[:level]) * n
            u, v = block + u, block + v
        else:
            block = "".join(reversed(a[:level])) * n
            u, v = u + block, v + block
    alphabet = Alphabet(tuple(a[:m]))
    return WitnessPair(m, n, Word(alphabet, u), Word(alphabet, v), Signature.ORDER)


def witness_words_suc(m: int, n: int) -> WitnessPair:
    """The successor-signature witnesses: every letter is padded with b^(2n)
    on both sides, so successor atoms never see two indexed letters adjacent."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    a = _letters(m, Signature.ORDER_SUC)
    pad = _PAD * (2 * n)
    u, v = pad + a[0] + pad, pad
    if m >= 2:
        block = (a[1] + pad + a[0] + pad) * (2 * n)
        u, v = u + block, v + block
    level = 2
    while level < m:
        level += 1
        if level % 2 == 1:
            block = "".join(pad + c for c in a[:level]) * n
            u, v = block + u, block + v
        else:
            block = "".join(c + pad for c in reversed(a[:level])) * n
            u, v = u + block, v + block
    alphabet = Alphabet(tuple(sorted(a[:m] + [_PAD])))
    return WitnessPair(m, n, Word(alphabet, u), Word(alphabet, v), Signature.ORDER_SUC)


def separating_rankers(m: int, signature: Signature = Signature.ORDER) -> SeparatingRankerPair:
    """The ranker pair whose relative order distinguishes level-m witnesses.

    Both rankers share one direction sequence with exactly m-1 alternation
    blocks; they differ only in their innermost letter.
    """
    if m < 2:
        raise ValueError("separating rankers exist for m >= 2")
    a = _letters(m, signature)
    r_steps = [BoundaryPos(Direction.RIGHT, a[0])]
    s_steps = [BoundaryPos(Direction.RIGHT, a[1])]
    for level in range(3, m + 1):
        direction = Direction.LEFT if level % 2 == 1 else Direction.RIGHT
        step = BoundaryPos(direction, a[level - 1])
        r_steps.insert(0, step)
        s_steps.insert(0, step)
    return SeparatingRankerPair(Ranker(tuple(r_steps)), Ranker(tuple(s_steps)))


@dataclass(frozen=True)
class HierarchyReport:
    """Verification record for one hierarchy level.

    Indistinguishability holds at (m-1, n); separation is confirmed by the
    separating rankers' order flip and by a spoiler win at (m, n') for the
    smallest n' found within the search bound. Level 1 separates by a
    sentence instead of a ranker pair.
    """

    m: int
    n: int
    signature: Signature
    pair: WitnessPair
    indist_ranker: Optional[bool]
    indist_game: Optional[bool]
    rankers: Optional[SeparatingRankerPair]
    ord_u: Optional[OrderType]
    ord_v: Optional[OrderType]
    ranker_separation: Optional[bool]
    separation_depth: Optional[int]
    separation_search_bound: int
    sentence_separation: Optional[bool]

    @property
    def ok(self) -> bool:
        if self.indist_game is not True or self.indist_ranker is False:
            return False
        if self.m >= 2:
            return bool(self.ranker_separation) and self.separation_depth is not None
        return bool(self.sentence_separation)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "signature": self.signature.value,
            "u": self.pair.u.text,
            "v": self.pair.v.text,
            "indistinguishableByRankers": self.indist_ranker,
            "indistinguishableByGame": self.indist_game,
            "separatingRankers": None
            if self.rankers is None
            else [str(self.rankers.r), str(self.rankers.s)],
            "ordU": None if self.ord_u is None else self.ord_u.value,
            "ordV": None if self.ord_v is None else self.ord_v.value,
            "rankerSeparation": self.ranker_separation,
            "separationDepth": self.separation_depth,
            "separationSearchBound": self.separation_search_bound,
            "sentenceSeparation": self.sentence_separation,
            "ok": self.ok,
        }


def verify_hierarchy_level(
    m: int,
    n: int,
    signature: Signature = Signature.ORDER,
    game_cap: Optional[int] = None,
) -> HierarchyReport:
    """Check indistinguishability at m-1 alternations and separation at m.

    The game separation search tries depths up to n+m: the ranker flip
    guarantees a spoiler win at some depth, but the witness words at
    parameter n may need a few extra moves beyond the ranker length.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    successor = signature is Signature.ORDER_SUC
    pair = witness_words_suc(m, n) if successor else witness_words(m, n)
    u, v = pair.u, pair.v
    game_kwargs = {"with_successor": successor}
    if game_cap is not None:
        game_kwargs["cap"] = game_cap

    # the game first: over its cell cap it fails before any other work
    indist_game = game_equiv_alt(u, v, m - 1, n, **game_kwargs).delilah_wins
    indist_ranker: Optional[bool] = None
    if m >= 2:
        decider = suc_ranker_equiv_alt if successor else ranker_equiv_alt
        indist_ranker = decider(u, v, m - 1, n).verdict

    rankers = None
    ord_u = ord_v = None
    ranker_separation: Optional[bool] = None
    separation_depth: Optional[int] = None
    sentence_separation: Optional[bool] = None
    bound = n + m
    if m >= 2:
        rankers = separating_rankers(m, signature)
        ru, su = eval_ranker(rankers.r, u), eval_ranker(rankers.s, u)
        rv, sv = eval_ranker(rankers.r, v), eval_ranker(rankers.s, v)
        if None not in (ru, su, rv, sv):
            ord_u = order_type(ru, su)
            ord_v = order_type(rv, sv)
            ranker_separation = ord_u != ord_v
        else:
            ranker_separation = False
        for depth in range(1, bound + 1):
            if not game_equiv_alt(u, v, m, depth, **game_kwargs).delilah_wins:
                separation_depth = depth
                break
    else:
        # Level 1: a sentence tells the words apart. Without successor the
        # witness v is empty, so pure existence separates; with successor
        # both words are padded and only the marked letter differs.
        if successor:
            sentence = parse_formula("Ex.a(x)", u.alphabet, Signature.ORDER_SUC)
        else:
            sentence = parse_formula("Ex.x=x", u.alphabet, Signature.ORDER)
        sentence_separation = model_check(sentence, u) and not model_check(sentence, v)

    return HierarchyReport(
        m=m,
        n=n,
        signature=signature,
        pair=pair,
        indist_ranker=indist_ranker,
        indist_game=indist_game,
        rankers=rankers,
        ord_u=ord_u,
        ord_v=ord_v,
        ranker_separation=ranker_separation,
        separation_depth=separation_depth,
        separation_search_bound=bound,
        sentence_separation=sentence_separation,
    )
