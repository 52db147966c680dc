"""Two-variable first-order logic on words: syntax, semantics, and ranker formulas.

The model checker evaluates a formula on all assignments of the two
variables at once, as an L*L bit table packed into a Python int (bit
(i-1)*L + (j-1) is the truth value under x=i, y=j). Connectives are bit
operations and quantifiers are row/column projections, which keeps
exhaustive sweeps over small corpora cheap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import (
    FormulaSyntaxError,
    FreeVariableError,
    SignatureError,
    UnknownLetterError,
)
from .rankers import AnyRanker, BoundaryPos, Direction
from .words import Alphabet, Word

VARS = ("x", "y")


class Signature(Enum):
    ORDER = "order"
    ORDER_SUC = "order+successor"


class Formula:
    """Base class for AST nodes. Nodes are immutable and compare structurally."""

    __slots__ = ()


def _check_var(v: str):
    if v not in VARS:
        raise ValueError(f"variable must be one of {VARS}, got {v!r}")


@dataclass(frozen=True)
class LetterAtom(Formula):
    letter: str
    var: str

    def __post_init__(self):
        _check_var(self.var)


@dataclass(frozen=True)
class _Relation(Formula):
    """A binary atom between the two variables; the subclass names the relation."""

    left: str
    right: str

    def __post_init__(self):
        _check_var(self.left)
        _check_var(self.right)


# The subclasses take no decorator, so they inherit the dataclass methods:
# __eq__ compares __class__ exactly, and repr names the subclass.
class Less(_Relation):
    """left < right"""


class Equal(_Relation):
    """left = right"""


class Suc(_Relation):
    """suc(left, right): right is the position just after left"""


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula


class And(_Binary):
    """left & right"""


class Or(_Binary):
    """left | right"""


class Implies(_Binary):
    """left -> right"""


@dataclass(frozen=True)
class _Quantifier(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        _check_var(self.var)


class Exists(_Quantifier):
    """E var. body"""


class Forall(_Quantifier):
    """A var. body"""


def other_var(v: str) -> str:
    return "y" if v == "x" else "x"


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, LetterAtom):
        return frozenset((f.var,))
    if isinstance(f, _Relation):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, _Binary):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, _Quantifier):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def uses_successor(f: Formula) -> bool:
    if isinstance(f, Suc):
        return True
    if isinstance(f, (Not, _Quantifier)):
        return uses_successor(f.body)
    if isinstance(f, _Binary):
        return uses_successor(f.left) or uses_successor(f.right)
    return False


# --- truth-value helpers -------------------------------------------------
#
# The AST has no dedicated constants; Equal(v, v) is the canonical "true"
# and Less(v, v) the canonical "false" with a given variable.

def is_true_atom(f: Formula) -> bool:
    return isinstance(f, Equal) and f.left == f.right


def is_false_atom(f: Formula) -> bool:
    return isinstance(f, (Less, Suc)) and f.left == f.right


def _nest(connective: type[_Binary], parts: Iterable[Optional[Formula]]) -> Optional[Formula]:
    items = [p for p in parts if p is not None]
    if not items:
        return None
    out = items[-1]
    for p in reversed(items[:-1]):
        out = connective(p, out)
    return out


def conjoin(parts: Iterable[Optional[Formula]]) -> Optional[Formula]:
    """Right-nested conjunction of the non-None parts; None means "true"."""
    return _nest(And, parts)


def disjoin(parts: Iterable[Optional[Formula]]) -> Optional[Formula]:
    return _nest(Or, parts)


# --- parsing --------------------------------------------------------------

class _Parser:
    """Recursive descent for the ASCII grammar.

    Precedence: ! binds tightest, then &, then |, then -> (right
    associative). A quantifier's scope extends maximally to the right.
    """

    def __init__(self, text: str, alphabet: Alphabet, signature: Signature):
        self.text = text
        self.alphabet = alphabet
        self.signature = signature
        self.pos = 0

    def parse(self) -> Formula:
        f = self._implies()
        self._skip_ws()
        if self.pos < len(self.text):
            raise FormulaSyntaxError(
                f"unexpected {self.text[self.pos]!r} after formula", self.pos
            )
        return f

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def _implies(self) -> Formula:
        left = self._infix()
        self._skip_ws()
        if self._peek() == "-" and self._peek(1) == ">":
            self.pos += 2
            return Implies(left, self._implies())
        return left

    # the left-associative connectives by binding strength, loosest first
    _INFIX = {"|": (0, Or), "&": (1, And)}

    def _infix(self, min_level: int = 0) -> Formula:
        """A chain of the connectives that bind at least as tightly as min_level."""
        f = self._unary()
        while True:
            self._skip_ws()
            level, connective = self._INFIX.get(self._peek(), (-1, None))
            if level < min_level:
                return f
            self.pos += 1
            f = connective(f, self._infix(level + 1))

    def _unary(self) -> Formula:
        self._skip_ws()
        c = self._peek()
        if c == "":
            raise FormulaSyntaxError("unexpected end of input", self.pos)
        if c == "!":
            self.pos += 1
            return Not(self._unary())
        if c in "EA" and self._peek(1) in VARS and self._peek(2) == ".":
            kind, var = c, self._peek(1)
            self.pos += 3
            body = self._implies()  # maximal scope
            return Exists(var, body) if kind == "E" else Forall(var, body)
        if c == "(":
            self.pos += 1
            f = self._implies()
            self._skip_ws()
            if self._peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return f
        return self._atom()

    def _expect(self, ch: str):
        self._skip_ws()
        if self._peek() != ch:
            raise FormulaSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _var(self) -> str:
        self._skip_ws()
        c = self._peek()
        if c not in VARS:
            raise FormulaSyntaxError(f"expected a variable (x or y), got {c!r}", self.pos)
        self.pos += 1
        return c

    def _atom(self) -> Formula:
        self._skip_ws()
        start = self.pos
        if self.text.startswith("suc", self.pos) and self._peek(3) == "(":
            if self.signature is not Signature.ORDER_SUC:
                raise SignatureError(
                    f"suc(...) requires the order+successor signature (at position {start})"
                )
            self.pos += 3
            self._expect("(")
            a = self._var()
            self._expect(",")
            b = self._var()
            self._expect(")")
            return Suc(a, b)
        c = self._peek()
        if c in VARS and self._peek(1) != "(":
            self.pos += 1
            self._skip_ws()
            op = self._peek()
            if op == "<":
                self.pos += 1
                return Less(c, self._var())
            if op == "=":
                self.pos += 1
                return Equal(c, self._var())
            raise FormulaSyntaxError(f"expected '<' or '=' after variable {c!r}", self.pos)
        # letter atom: letter '(' var ')'
        if c == "":
            raise FormulaSyntaxError("unexpected end of input", self.pos)
        if self._peek(1) != "(":
            raise FormulaSyntaxError(f"cannot parse atom starting at {c!r}", start)
        if c not in self.alphabet:
            raise UnknownLetterError(f"letter {c!r} not in alphabet {self.alphabet}", start)
        self.pos += 2
        v = self._var()
        self._expect(")")
        return LetterAtom(c, v)


def parse_formula(text: str, alphabet: Alphabet, signature: Signature = Signature.ORDER) -> Formula:
    """Parse the ASCII grammar; see the module README for the full syntax."""
    return _Parser(text, alphabet, signature).parse()


_SYNTAX = {
    Less: "{}<{}", Equal: "{}={}", Suc: "suc({},{})",
    And: "&", Or: "|", Implies: "->", Exists: "E", Forall: "A",
}


def render_formula(f: Formula) -> str:
    """Fully parenthesized rendering; re-parsing yields a structurally identical AST."""
    if isinstance(f, LetterAtom):
        return f"{f.letter}({f.var})"
    if isinstance(f, _Relation):
        return _SYNTAX[type(f)].format(f.left, f.right)
    if isinstance(f, Not):
        return f"!{render_formula(f.body)}"
    if isinstance(f, _Binary):
        return f"({render_formula(f.left)} {_SYNTAX[type(f)]} {render_formula(f.right)})"
    if isinstance(f, _Quantifier):
        return f"({_SYNTAX[type(f)]}{f.var}.{render_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


# --- negation normal form -------------------------------------------------

def nnf(f: Formula) -> Formula:
    """Push negations to atoms, eliminate Implies, fold trivial constants."""
    return _nnf(f, negate=False)


# The De Morgan dual of each connective and quantifier, and the constant
# that absorbs each connective; the dual's absorbing constant drops out.
_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists}
_ABSORBS = {And: is_false_atom, Or: is_true_atom}


def _fold(connective: type[_Binary], a: Formula, b: Formula) -> Formula:
    """a and b joined by And or Or, with a constant operand folded away."""
    absorbs, drops = _ABSORBS[connective], _ABSORBS[_DUAL[connective]]
    if absorbs(a):
        return a
    if absorbs(b):
        return b
    if drops(a):
        return b
    if drops(b):
        return a
    return connective(a, b)


def _nnf(f: Formula, negate: bool) -> Formula:
    if isinstance(f, Not):
        return _nnf(f.body, not negate)
    if isinstance(f, Implies):  # a -> b == !a | b
        f = Or(Not(f.left), f.right)
    if isinstance(f, (_Binary, _Quantifier)):
        kind = _DUAL[type(f)] if negate else type(f)
        if isinstance(f, _Quantifier):
            return kind(f.var, _nnf(f.body, negate))
        return _fold(kind, _nnf(f.left, negate), _nnf(f.right, negate))
    # atoms
    if not negate:
        return f
    if is_true_atom(f):
        return Less(f.left, f.left)  # type: ignore[union-attr]
    if is_false_atom(f):
        v = f.left  # type: ignore[union-attr]
        return Equal(v, v)
    return Not(f)


# --- metrics ---------------------------------------------------------------

@dataclass(frozen=True)
class FormulaMetrics:
    quantifier_depth: int
    alternation_depth: int
    uses_successor: bool
    free_vars: frozenset[str]


def _qdepth(f: Formula) -> int:
    if isinstance(f, Not):
        return _qdepth(f.body)
    if isinstance(f, _Binary):
        return max(_qdepth(f.left), _qdepth(f.right))
    if isinstance(f, _Quantifier):
        return 1 + _qdepth(f.body)
    return 0


def _alt_depth(f: Formula, last: type[_Quantifier] | None) -> int:
    if isinstance(f, Not):
        return _alt_depth(f.body, last)
    if isinstance(f, _Binary):
        return max(_alt_depth(f.left, last), _alt_depth(f.right, last))
    if isinstance(f, _Quantifier):
        return (0 if last is type(f) else 1) + _alt_depth(f.body, type(f))
    return 0


def formula_metrics(f: Formula) -> FormulaMetrics:
    """Depth metrics are computed on the negation normal form.

    Counting alternation on raw syntax would miscount stacked negations;
    only after negations are pushed to atoms do quantifier blocks line up
    with which structure the spoiler plays on in the game reading.
    """
    nf = nnf(f)
    return FormulaMetrics(
        quantifier_depth=_qdepth(nf),
        alternation_depth=_alt_depth(nf, None),
        uses_successor=uses_successor(f),
        free_vars=free_vars(f),
    )


# --- model checking --------------------------------------------------------

class _BitContext:
    """Per-word tables for the packed truth-table evaluation."""

    def __init__(self, w: Word):
        L = len(w)
        self.L = L
        self.rowbits = (1 << L) - 1
        # the empty word has one assignment, the empty one, in bit 0
        self.full = (1 << (L * L)) - 1 if L else 1
        # REPL * v replicates an L-bit column pattern to every row block
        self.repl = sum(1 << (i * L) for i in range(L))
        text = w.text
        self.letter_rows: dict[str, int] = {}
        self.letter_cols: dict[str, int] = {}
        for a in set(text):
            rows = 0
            cols = 0
            for i, c in enumerate(text):
                if c == a:
                    rows |= self.rowbits << (i * L)
                    cols |= 1 << i
            self.letter_rows[a] = rows
            self.letter_cols[a] = cols * self.repl
        lt_xy = 0
        lt_yx = 0
        eq_xy = 0
        suc_xy = 0
        suc_yx = 0
        for i in range(L):
            above = (self.rowbits >> (i + 1)) << (i + 1)
            below = (1 << i) - 1
            lt_xy |= above << (i * L)
            lt_yx |= below << (i * L)
            eq_xy |= 1 << (i * L + i)
            if i + 1 < L:
                suc_xy |= 1 << (i * L + i + 1)
            if i - 1 >= 0:
                suc_yx |= 1 << (i * L + i - 1)
        self.lt_xy, self.lt_yx, self.eq_xy = lt_xy, lt_yx, eq_xy
        self.suc_xy, self.suc_yx = suc_xy, suc_yx

    def eval(self, f: Formula) -> int:
        L, full = self.L, self.full
        if isinstance(f, LetterAtom):
            table = self.letter_rows if f.var == "x" else self.letter_cols
            return table.get(f.letter, 0)
        if isinstance(f, Less):
            if f.left == f.right:
                return 0
            return self.lt_xy if (f.left, f.right) == ("x", "y") else self.lt_yx
        if isinstance(f, Equal):
            return full if f.left == f.right else self.eq_xy
        if isinstance(f, Suc):
            if f.left == f.right:
                return 0
            return self.suc_xy if (f.left, f.right) == ("x", "y") else self.suc_yx
        if isinstance(f, Not):
            return full ^ self.eval(f.body)
        if isinstance(f, And):
            return self.eval(f.left) & self.eval(f.right)
        if isinstance(f, Or):
            return self.eval(f.left) | self.eval(f.right)
        if isinstance(f, Implies):
            return (full ^ self.eval(f.left)) | self.eval(f.right)
        if isinstance(f, _Quantifier):
            # Av.phi is evaluated as !Ev.!phi
            flip = full if isinstance(f, Forall) else 0
            b = self.eval(f.body) ^ flip
            out = 0
            if f.var == "x":
                for i in range(L):
                    out |= (b >> (i * L)) & self.rowbits
                return (out * self.repl) ^ flip
            for i in range(L):
                if (b >> (i * L)) & self.rowbits:
                    out |= self.rowbits << (i * L)
            return out ^ flip
        raise TypeError(f"not a formula: {f!r}")


@functools.lru_cache(maxsize=4096)
def _bit_context(w: Word) -> _BitContext:
    return _BitContext(w)


def model_check(
    f: Formula,
    w: Word,
    x_pos: int | None = None,
    y_pos: int | None = None,
) -> bool:
    """Tarskian truth of f on w under the given (1-indexed) assignments."""
    fv = free_vars(f)
    if "x" in fv and x_pos is None:
        raise FreeVariableError("free variable x has no assigned position")
    if "y" in fv and y_pos is None:
        raise FreeVariableError("free variable y has no assigned position")
    L = len(w)
    for name, p in (("x", x_pos), ("y", y_pos)):
        if p is not None and not 1 <= p <= L:
            raise ValueError(f"position {p} for {name} out of range [1, {L}]")
    bits = _bit_context(w).eval(f)
    i = (x_pos or 1) - 1
    j = (y_pos or 1) - 1
    return bool((bits >> (i * L + j)) & 1)


def satisfying_positions(f: Formula, w: Word) -> tuple[int, ...]:
    """All positions i with (w, i) |= f, for formulas whose only free variable is x."""
    fv = free_vars(f)
    if not fv <= {"x"}:
        raise FreeVariableError(f"expected free variables within {{x}}, got {set(fv)}")
    L = len(w)
    bits = _bit_context(w).eval(f)
    return tuple(i for i in range(1, L + 1) if (bits >> ((i - 1) * L)) & 1)


# --- ranker formula synthesis ----------------------------------------------

_REL_ALIASES = {
    "<": "<",
    "<=": "<=",
    "≤": "<=",
    ">": ">",
    ">=": ">=",
    "≥": ">=",
}


# The relation between a step's position and the position it starts from.
_TOWARD = {Direction.RIGHT: ">", Direction.LEFT: "<"}


def _beyond(direction: Direction, var: str, u: str) -> tuple[str, str]:
    """The (left, right) of the atoms placing var beyond u in the direction."""
    return (u, var) if direction is Direction.RIGHT else (var, u)


def _chain(outward: str, var: str, direction: Direction) -> Optional[Formula]:
    # outward[0] sits next to var in the direction, outward[1] one further, ...
    if not outward:
        return None
    u = other_var(var)
    chain = _chain(outward[1:], u, direction)
    return Exists(u, conjoin([Suc(*_beyond(direction, u, var)), LetterAtom(outward[0], u), chain]))


def _window(step: BoundaryPos, var: str) -> list[Formula]:
    """Conjuncts stating that var's position matches the step's window.

    The side chains are parallel branches, so they cost max(k, l) depth,
    not k + l; this is what keeps the synthesized depth within the ranker
    length.
    """
    parts = [
        LetterAtom(step.letter, var),
        _chain(step.before[::-1], var, Direction.LEFT),
        _chain(step.after, var, Direction.RIGHT),
    ]
    return [p for p in parts if p is not None]


def _definedness(steps: Sequence[BoundaryPos], var: str) -> Optional[Formula]:
    if not steps:
        return None
    last, prefix = steps[-1], steps[:-1]
    gamma = _comparison(prefix, _TOWARD[last.direction], var)
    return Exists(var, conjoin(_window(last, var) + [gamma]))


def _comparison(steps: Sequence[BoundaryPos], rel: str, var: str) -> Optional[Formula]:
    """Formula meaning "the steps are defined and var `rel` their position".

    None stands for the vacuous comparison against the sentinel before/after
    the word, which is how the empty prefix arises.
    """
    if not steps:
        return None
    last, prefix = steps[-1], steps[:-1]
    u = other_var(var)
    toward = _TOWARD[last.direction]
    if rel.startswith(toward):
        # position = first window match beyond the prefix position, so var
        # is beyond it iff var is beyond some such match u
        lo, hi = _beyond(last.direction, var, u)
        cmp = Less(lo, hi) if rel == toward else Or(Less(lo, hi), Equal(lo, hi))
        inner = _comparison(prefix, toward, u)
        return Exists(u, conjoin(_window(last, u) + [cmp, inner]))
    # var falls short of the position iff the steps are defined and var is
    # not beyond it (not weakly beyond, for a strict rel)
    weak = _comparison(steps, toward if rel.endswith("=") else toward + "=", var)
    return conjoin([_definedness(steps, u), Not(weak)])


def synth_comparison(r: AnyRanker, relation: str, free_var: str = "x") -> Formula:
    """A formula true at exactly the positions standing in `relation` to r's position.

    Holds nowhere when r is undefined on the word. Quantifier depth is at
    most the ranker length.
    """
    rel = _REL_ALIASES.get(relation)
    if rel is None:
        raise ValueError(f"relation must be one of <, <=, >, >=, got {relation!r}")
    _check_var(free_var)
    f = _comparison(r.steps, rel, free_var)
    assert f is not None
    assert formula_metrics(f).quantifier_depth <= len(r)
    return f


def synth_definedness(r: AnyRanker) -> Formula:
    """A sentence true on exactly the words where r is defined."""
    f = _definedness(r.steps, "x")
    assert f is not None
    assert formula_metrics(f).quantifier_depth <= len(r)
    assert not free_vars(f)
    return f


def synth_position(r: AnyRanker) -> Formula:
    """A formula with free x satisfied at exactly the position of r, if any."""
    steps = r.steps
    last, prefix = steps[-1], steps[:-1]
    toward = _TOWARD[last.direction]
    win_x = _window(last, "x")
    win_y = _window(last, "y")
    gamma_x = _comparison(prefix, toward, "x")
    gamma_y = _comparison(prefix, toward, "y")
    earlier = conjoin([Less(*_beyond(last.direction, "x", "y"))] + win_y)
    assert earlier is not None
    if gamma_y is None:
        guard = Forall("y", Not(earlier))
    else:
        guard = Forall("y", Implies(earlier, Not(gamma_y)))
    f = conjoin(win_x + [gamma_x, guard])
    assert f is not None
    assert formula_metrics(f).quantifier_depth <= len(r)
    assert free_vars(f) == {"x"}
    return f


# --- unique position formulas ----------------------------------------------

@dataclass(frozen=True)
class UniquePositionReport:
    """Satisfying positions of a free-x formula over a word corpus.

    `is_unique` holds when no corpus word has two satisfying positions.
    When unique, `ranker_coincidence` records for each satisfied word
    whether its position is realized by some ranker of length up to the
    formula's quantifier depth.
    """

    positions: dict[Word, tuple[int, ...]]
    is_unique: bool
    ranker_coincidence: dict[Word, bool]
    depth: int


def unique_position_report(f: Formula, corpus: Iterable[Word]) -> UniquePositionReport:
    from .rankers import realized_rankers

    fv = free_vars(f)
    if fv != {"x"}:
        raise FreeVariableError(f"expected exactly the free variable x, got {set(fv)}")
    depth = max(1, formula_metrics(f).quantifier_depth)
    positions: dict[Word, tuple[int, ...]] = {}
    for w in corpus:
        positions[w] = satisfying_positions(f, w)
    is_unique = all(len(p) <= 1 for p in positions.values())
    coincidence: dict[Word, bool] = {}
    if is_unique:
        for w, p in positions.items():
            if len(p) == 1:
                realized = realized_rankers(w, depth)
                coincidence[w] = p[0] in set(realized.positions.values())
    return UniquePositionReport(positions, is_unique, coincidence, depth)
