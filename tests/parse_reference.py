"""Reference oracle: the recursive-descent formula parser, kept as it was.

It climbs precedence with one method per level: `_implies` for the
right-associative ->, `_infix` for & and |, and `_unary` and `_atom` for
operands. The tests compare `fo2words.parse_formula` with it on seeded
strings: the same AST, or the same error type, message and position.
"""

from __future__ import annotations

from fo2words.errors import FormulaSyntaxError, SignatureError, UnknownLetterError
from fo2words.formulas import (
    VARS,
    And,
    Equal,
    Exists,
    Forall,
    Formula,
    Implies,
    LetterAtom,
    Less,
    Not,
    Or,
    Signature,
    Suc,
)
from fo2words.words import Alphabet


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


def reference_parse(text: str, alphabet: Alphabet, signature: Signature = Signature.ORDER) -> Formula:
    """What `fo2words.parse_formula` must return or raise on text."""
    return _Parser(text, alphabet, signature).parse()

