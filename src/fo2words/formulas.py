"""Two-variable first-order logic on words: syntax, semantics, and ranker formulas.

The model checker keeps one |w|-bit column per subformula, set at bit p-1
when the subformula holds with its free variable at p. With two variables,
Ez.psi has at most one free variable, v: its column takes one bitwise
evaluation of psi over z per placement of z against v and per group of v's
positions on which psi's columns over v agree. A formula is compiled once,
equal subformulas sharing a column, and run per word; nothing outlives a run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from operator import and_, or_, xor
from typing import Iterable, Optional, Sequence

from . import rankers
from .errors import (
    FormulaSyntaxError,
    FreeVariableError,
    SignatureError,
    UnknownLetterError,
)
from .rankers import AnyRanker, BoundaryPos, Direction, _walk
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
    return _free_vars(f, {})


def _free_vars(f: Formula, memo: dict[int, frozenset[str]]) -> frozenset[str]:
    """free_vars of f, with each quantifier object's answer kept in memo by id."""
    if isinstance(f, LetterAtom):
        return frozenset((f.var,))
    if isinstance(f, _Relation):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return _free_vars(f.body, memo)
    if isinstance(f, _Binary):
        return _free_vars(f.left, memo) | _free_vars(f.right, memo)
    if isinstance(f, _Quantifier):
        fv = memo.get(id(f))
        if fv is None:
            fv = memo[id(f)] = _free_vars(f.body, memo) - {f.var}
        return fv
    raise TypeError(f"not a formula: {f!r}")


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

# each connective's binding power, loosest first; -> associates to the right
_BINARY = {"->": (0, Implies), "|": (1, Or), "&": (2, And)}

# what may start an operand after ! and (: a quantifier prefix, suc(, a
# variable (unless '(' follows, which makes it a letter) or a letter and '('
_OPERAND = re.compile(r"([EA])([xy])\.|(suc)\(|([xy])(?!\()|(.)\(", re.S)


class _Parser:
    """Precedence climbing for the ASCII grammar.

    `expression(p)` reads an operand, then each connective of `_BINARY` that
    binds at least p, with its right operand read at one power higher (at
    the same power for ->, so that it associates to the right). `_operand`
    reads !, a parenthesized formula, or what `_OPERAND` finds at its start.

    Precedence: ! binds tightest, then &, then |, then ->. & and | associate
    to the left, -> to the right. A quantifier's scope extends maximally to
    the right. The two methods recurse, two frames per parenthesis, so input
    nested past the recursion limit raises RecursionError.
    """

    def __init__(self, text: str, alphabet: Alphabet, signature: Signature):
        self.text = text
        self.alphabet = alphabet
        self.signature = signature
        self.pos = 0

    def parse(self) -> Formula:
        f = self.expression(0)
        self._skip_ws()
        if self.pos < len(self.text):
            raise FormulaSyntaxError(
                f"unexpected {self.text[self.pos]!r} after formula", self.pos
            )
        return f

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expression(self, min_power: int) -> Formula:
        """Operands joined by the connectives that bind at least min_power."""
        f = self._operand()
        while True:
            self._skip_ws()
            op = "->" if self.text.startswith("->", self.pos) else self._peek()
            power, connective = _BINARY.get(op, (-1, None))
            if power < min_power:
                return f
            self.pos += len(op)
            f = connective(f, self.expression(power if connective is Implies else power + 1))

    def _operand(self) -> Formula:
        self._skip_ws()
        start, c = self.pos, self._peek()
        if c == "!":
            self.pos += 1
            return Not(self._operand())
        if c == "(":
            self.pos += 1
            f = self.expression(0)
            self._expect(")")
            return f
        m = _OPERAND.match(self.text, start)
        if m is None:
            message = f"cannot parse atom starting at {c!r}" if c else "unexpected end of input"
            raise FormulaSyntaxError(message, start)
        kind, var, suc, left, letter = m.groups()
        self.pos = m.end()
        if kind:
            body = self.expression(0)  # maximal scope
            return Exists(var, body) if kind == "E" else Forall(var, body)
        if suc:
            if self.signature is not Signature.ORDER_SUC:
                raise SignatureError(
                    f"suc(...) requires the order+successor signature (at position {start})"
                )
            a = self._var()
            self._expect(",")
            b = self._var()
            self._expect(")")
            return Suc(a, b)
        if left:
            self._skip_ws()
            relation = {"<": Less, "=": Equal}.get(self._peek())
            if relation is None:
                raise FormulaSyntaxError(f"expected '<' or '=' after variable {left!r}", self.pos)
            self.pos += 1
            return relation(left, self._var())
        if letter not in self.alphabet:
            raise UnknownLetterError(f"letter {letter!r} not in alphabet {self.alphabet}", start)
        v = self._var()
        self._expect(")")
        return LetterAtom(letter, v)

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


def parse_formula(text: str, alphabet: Alphabet, signature: Signature = Signature.ORDER) -> Formula:
    """Parse the ASCII grammar; see the module README for the full syntax."""
    if not isinstance(signature, Signature):
        raise ValueError(f"signature must be a Signature, not {signature!r}")
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
    return _nnf(f, False, {})[0]


# The De Morgan dual of each connective and quantifier, and the constant
# that absorbs each connective; the dual's absorbing constant drops out.
_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists}
_ABSORBS = {And: is_false_atom, Or: is_true_atom}


_Folded = tuple[Formula, int, int, int, bool]


def _fold(connective: type[_Binary], a: _Folded, b: _Folded) -> _Folded:
    """a and b joined by And or Or, with a constant operand folded away.

    The result keeps the depths of what it keeps, and uses suc where either
    operand as written does.
    """
    absorbs, drops = _ABSORBS[connective], _ABSORBS[_DUAL[connective]]
    suc = a[4] or b[4]
    if absorbs(a[0]):
        kept = a
    elif absorbs(b[0]) or drops(a[0]):
        kept = b
    elif drops(b[0]):
        kept = a
    else:
        return connective(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]), suc
    return (*kept[:4], suc)


def _nnf(f: Formula, negate: bool, memo: dict[tuple[int, bool], _Folded]) -> _Folded:
    """The NNF of f (of !f when negating) with its quantifier depth, its
    alternation depth under an E and under an A, and whether f uses suc.

    Each quantifier object's answer is kept in memo by (id, negate), so a
    subformula shared by object is walked once per polarity.
    """
    if isinstance(f, Not):
        return _nnf(f.body, not negate, memo)
    if isinstance(f, Implies):  # a -> b == !a | b
        f = Or(Not(f.left), f.right)
    if isinstance(f, _Binary):
        connective = _DUAL[type(f)] if negate else type(f)
        return _fold(connective, _nnf(f.left, negate, memo), _nnf(f.right, negate, memo))
    if isinstance(f, _Quantifier):
        key = id(f), negate
        folded = memo.get(key)
        if folded is None:
            body, depth, below_e, below_a, suc = _nnf(f.body, negate, memo)
            if isinstance(f, Exists) is not negate:
                folded = Exists(f.var, body), depth + 1, below_e, below_e + 1, suc
            else:
                folded = Forall(f.var, body), depth + 1, below_a + 1, below_a, suc
            memo[key] = folded
        return folded
    # atoms
    suc = isinstance(f, Suc)
    if not negate:
        return f, 0, 0, 0, suc
    if is_true_atom(f):
        return Less(f.left, f.left), 0, 0, 0, suc  # type: ignore[union-attr]
    if is_false_atom(f):
        v = f.left  # type: ignore[union-attr]
        return Equal(v, v), 0, 0, 0, suc
    return Not(f), 0, 0, 0, suc


# --- metrics ---------------------------------------------------------------

@dataclass(frozen=True)
class FormulaMetrics:
    quantifier_depth: int
    alternation_depth: int
    uses_successor: bool
    free_vars: frozenset[str]


def formula_metrics(f: Formula) -> FormulaMetrics:
    """Depth metrics are computed on the negation normal form.

    Counting alternation on raw syntax would miscount stacked negations;
    only after negations are pushed to atoms do quantifier blocks line up
    with which structure the spoiler plays on in the game reading.
    """
    _, depth, below_e, below_a, suc = _nnf(f, False, {})
    return FormulaMetrics(
        quantifier_depth=depth,
        alternation_depth=max(below_e, below_a),
        uses_successor=suc,
        free_vars=free_vars(f),
    )


# --- model checking --------------------------------------------------------

# each relation's truth at z - v = -2 (or less), -1, 0, 1, 2 (or more), z its right variable
_PLACED = {Less: (0, 0, 0, 1, 1), Equal: (0, 0, 1, 0, 0), Suc: (0, 0, 0, 1, 0)}


def _lift(c: int, d: int) -> int:
    """The positions v with some z in column c at z - v = d (-2, 2: farther), before masking."""
    if d == -2:
        c = -(c & -c)  # every position from the lowest in c up
    elif d == 2:
        c = (1 << c.bit_length()) - 1  # every position up to the highest in c
    return c << -d if d < 0 else c >> d


class _Program:
    """Ey.f compiled apart from any word; `holds` and `positions` run it on one word.

    Nodes are interned bottom-up, keyed by fields and child ids, so equal
    subformulas share one id, register and column; registers 0 and 1 hold
    all ones and 0. A quantifier's body lists its nodes outside nested
    quantifiers by tag: the ids of its letters and quantifiers over x and
    over y, its relations as (id, type, left variable) and its connectives
    as (id, op, a, b), subformulas first, run as op(regs[a], regs[b]) on
    bits exact below |w| (!a is a ^ regs[0]). Quantifiers come innermost
    first, so Ey.f has the last id.
    """

    def __init__(self, f: Formula):
        # A post-order walk, left operand first. An atom is handled when it is
        # popped; any other node first pushes itself as (node,) under its
        # subformulas, opening a quantifier's body, and is handled when that
        # comes back up. A quantifier object met again is not walked again:
        # its (tag, key) is kept in `walked` by id, for this compile alone.
        # Each node finds its subformulas' ids on top of `done` and joins the
        # innermost open body, with the set of ids already in that body.
        interned: dict[tuple, int] = {}
        walked: dict[int, tuple] = {}
        self.letters: dict[int, str] = {}
        self.quantifiers: list[tuple] = []
        done, bodies = [], [({"x": [], "y": [], "rel": [], "op": []}, set())]
        stack: list = [Exists("y", f)]
        while stack:
            node = stack.pop()
            if type(node) is tuple:  # its subformulas are done
                node = node[0]
                if isinstance(node, _Quantifier):
                    body, _ = bodies.pop()
                    tag, key = walked[id(node)] = other_var(node.var), (type(node), node.var, done.pop())
                elif isinstance(node, Not):
                    tag, key = "op", (xor, done.pop(), 0)
                else:
                    b, a = done.pop(), done.pop()
                    tag, key = "op", (and_ if isinstance(node, And) else or_, a, b)
            elif isinstance(node, LetterAtom):
                tag, key = node.var, (node.var, node.letter)
            elif isinstance(node, _Relation) and node.left == node.right:
                done.append(1 - _PLACED[type(node)][2])  # x=x is all ones, x<x and suc(x,x) are 0
                continue
            elif isinstance(node, _Relation):
                tag, key = "rel", (type(node), node.left)
            elif isinstance(node, _Quantifier) and id(node) in walked:
                tag, key = walked[id(node)]
            else:
                stack.append((node,))
                if isinstance(node, Implies):  # a -> b is !a | b
                    stack += (node.right, Not(node.left))
                elif isinstance(node, _Binary):
                    stack += (node.right, node.left)
                elif isinstance(node, Not):
                    stack.append(node.body)
                else:
                    bodies.append(({"x": [], "y": [], "rel": [], "op": []}, set()))
                    stack.append(node.body)
                continue
            new = key not in interned
            n = interned.setdefault(key, len(interned) + 2)
            if new and isinstance(node, _Quantifier):
                self.quantifiers.append(self._compile(node, n, key[2], body))
            elif new and isinstance(node, LetterAtom):
                self.letters[n] = node.letter
            parts, seen = bodies[-1]
            if n not in seen:
                seen.add(n)
                parts[tag].append((n, *key) if tag in ("rel", "op") else n)
            done.append(n)
        self.size = len(interned) + 2

    def _compile(self, q: _Quantifier, n: int, root: int, body: dict[str, list]) -> tuple:
        """What `column` runs for Qz.psi: psi's body split on z, its placement classes."""
        z = q.var
        rows = [_PLACED[kind][:: -1 if left == z else 1] for _, kind, left in body["rel"]]
        placements: dict[tuple[int, ...], list[int]] = {}  # d = z - v by the relations' truths
        for d, truths in zip((-2, -1, 0, 1, 2), zip(*rows) if rows else [()] * 5):
            placements.setdefault(truths, []).append(d)
        return n, isinstance(q, Forall), body[z], body[other_var(z)], body["rel"], placements, body["op"], root

    def column(self, text: str, alphabet: Alphabet, ys: int) -> int:
        """The column of Ey.f over x on text, a word over alphabet, with y confined to the bits of ys."""
        positions = (1 << len(text)) - 1
        full = positions or 1  # the empty word has one assignment, the empty one, in bit 0
        cols, regs = [0] * self.size, [-1] + [0] * (self.size - 1)
        letters, text = "".join(alphabet.letters), text[::-1]
        for n, letter in self.letters.items():
            if letter in letters:
                marks = "".join("1" if c == letter else "0" for c in letters)
                cols[n] = int(text.translate(str.maketrans(letters, marks)) or "0", 2)
        for n, forall, zleaves, vleaves, relations, placements, code, root in self.quantifiers:
            zs = ys if n == self.size - 1 else positions
            for r in zleaves:
                regs[r] = cols[r]
            groups = [full]
            for r in vleaves:
                col = cols[r]
                groups = [part for g in groups for part in (g & col, g & ~col) if part]
            flip = -forall  # Av.phi is !Ev.!phi
            out = 0
            for g in groups:
                for r in vleaves:
                    regs[r] = -1 if g & cols[r] else 0
                for truths, ds in placements.items():
                    for (r, _, _), t in zip(relations, truths):
                        regs[r] = -t
                    for dst, op, a, b in code:
                        regs[dst] = op(regs[a], regs[b])
                    c = (regs[root] ^ flip) & zs
                    for d in ds if c else ():
                        out |= _lift(c, d) & g
            cols[n] = (out ^ flip) & full
        return cols[-1]

    def holds(self, text: str, alphabet: Alphabet, x: int = 1, y: int = 1) -> bool:
        """Whether f holds on text with x at position x and y at y; for a sentence, its truth."""
        return bool(self.column(text, alphabet, 1 << (y - 1)) >> (x - 1) & 1)

    def positions(self, text: str, alphabet: Alphabet) -> tuple[int, ...]:
        """The positions of text at which f, with no free variable but x, holds."""
        bits = format(self.column(text, alphabet, (1 << len(text)) - 1), "b")[::-1]
        return tuple(p for p, bit in enumerate(bits, 1) if bit == "1")


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
    return _Program(f).holds(w.text, w.alphabet, x_pos or 1, y_pos or 1)


def satisfying_positions(f: Formula, w: Word) -> tuple[int, ...]:
    """All positions i with (w, i) |= f, for formulas whose only free variable is x."""
    fv = free_vars(f)
    if not fv <= {"x"}:
        raise FreeVariableError(f"expected free variables within {{x}}, got {{{', '.join(sorted(fv))}}}")
    return _Program(f).positions(w.text, w.alphabet)


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


def _definedness(steps: Sequence[BoundaryPos], var: str, memo: dict) -> Formula:
    last, prefix = steps[-1], steps[:-1]
    gamma = _comparison(prefix, _TOWARD[last.direction], var, memo)
    return Exists(var, conjoin(_window(last, var) + [gamma]))


def _comparison(steps: Sequence[BoundaryPos], rel: str, var: str, memo: dict) -> Optional[Formula]:
    """Formula meaning "the steps are defined and var `rel` their position".

    None stands for the vacuous comparison against the sentinel before/after
    the word, which is how the empty prefix arises. The steps are always a
    prefix of one ranker's, so memo keeps each answer by (len(steps), rel,
    var), and a reversal's two uses of a comparison share one object.
    """
    if not steps:
        return None
    key = len(steps), rel, var
    if key in memo:
        return memo[key]
    last, prefix = steps[-1], steps[:-1]
    u = other_var(var)
    toward = _TOWARD[last.direction]
    if rel.startswith(toward):
        # position = first window match beyond the prefix position, so var
        # is beyond it iff var is beyond some such match u
        lo, hi = _beyond(last.direction, var, u)
        cmp = Less(lo, hi) if rel == toward else Or(Less(lo, hi), Equal(lo, hi))
        inner = _comparison(prefix, toward, u, memo)
        memo[key] = Exists(u, conjoin(_window(last, u) + [cmp, inner]))
    else:
        # var falls short of the position iff the steps are defined and var
        # is not beyond it (not weakly beyond, for a strict rel)
        weak = _comparison(steps, toward if rel.endswith("=") else toward + "=", var, memo)
        memo[key] = conjoin([_definedness(steps, u, memo), Not(weak)])
    return memo[key]


def synth_comparison(r: AnyRanker, relation: str, free_var: str = "x") -> Formula:
    """A formula true at exactly the positions standing in `relation` to r's position.

    Holds nowhere when r is undefined on the word. Quantifier depth is at
    most the ranker length.
    """
    rel = _REL_ALIASES.get(relation)
    if rel is None:
        raise ValueError(f"relation must be one of <, <=, >, >=, got {relation!r}")
    _check_var(free_var)
    f = _comparison(r.steps, rel, free_var, {})
    assert f is not None and formula_metrics(f).quantifier_depth <= len(r)
    return f


def synth_definedness(r: AnyRanker) -> Formula:
    """A sentence true on exactly the words where r is defined."""
    f = _definedness(r.steps, "x", {})
    assert (m := formula_metrics(f)).quantifier_depth <= len(r)
    assert not m.free_vars
    return f


def synth_position(r: AnyRanker) -> Formula:
    """A formula with free x satisfied at exactly the position of r, if any."""
    steps = r.steps
    last, prefix = steps[-1], steps[:-1]
    toward = _TOWARD[last.direction]
    win_x = _window(last, "x")
    win_y = _window(last, "y")
    memo: dict = {}
    gamma_x = _comparison(prefix, toward, "x", memo)
    gamma_y = _comparison(prefix, toward, "y", memo)
    earlier = conjoin([Less(*_beyond(last.direction, "x", "y"))] + win_y)
    assert earlier is not None
    if gamma_y is None:
        guard = Forall("y", Not(earlier))
    else:
        guard = Forall("y", Implies(earlier, Not(gamma_y)))
    f = conjoin(win_x + [gamma_x, guard])
    assert f is not None and (m := formula_metrics(f)).quantifier_depth <= len(r)
    assert m.free_vars == {"x"}
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
    metrics = formula_metrics(f)
    if metrics.free_vars != {"x"}:
        got = ", ".join(sorted(metrics.free_vars))
        raise FreeVariableError(f"expected exactly the free variable x, got {{{got}}}")
    depth = max(1, metrics.quantifier_depth)
    program = _Program(f)
    positions = {w: program.positions(w.text, w.alphabet) for w in corpus}
    is_unique = all(len(p) <= 1 for p in positions.values())
    coincidence: dict[Word, bool] = {}
    if is_unique:
        for w, p in positions.items():
            if len(p) == 1:
                realized = set(_walk(w, w, depth, None, False, rankers.DEFAULT_ENUMERATION_CAP)[1])
                coincidence[w] = p[0] in realized
    return UniquePositionReport(positions, is_unique, coincidence, depth)
