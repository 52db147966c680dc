"""Reference oracle: the model checker on L*L bit tables.

A formula is evaluated on all assignments of the two variables at once, as
an L*L bit table packed into a Python int (bit (i-1)*L + (j-1) is the truth
value under x=i, y=j). Connectives are bit operations and quantifiers are
row/column projections. It shares nothing with the column checker in
`fo2words.formulas` beyond the AST types, so the tests compare the two.
"""

from __future__ import annotations

from fo2words.formulas import (
    And,
    Equal,
    Forall,
    Formula,
    Implies,
    LetterAtom,
    Less,
    Not,
    Or,
    Suc,
    _Quantifier,
)
from fo2words.words import Word


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
