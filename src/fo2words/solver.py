"""Bounded-alphabet satisfiability: small models, model shrinking, CNF reduction.

The shrinking procedure recurses on the number of distinct letters k that
actually occur in the word. It splits the word into "k-1-letter piece +
separating run" blocks from the left and from the right, reading at most
2n+1 blocks from each end, then either keeps only the first n blocks from
each end (many blocks) or keeps all separating runs and recurses on the gaps
between them (few blocks). Every run it keeps is cut to at most 2n letters,
all that a one-letter word needs; cutting a run moves no block boundary, so
the runs it drops are never cut. A block costs one `str.find` per letter, so
the Python-level work follows the blocks read, not the length of the word.

Every step preserves depth-n equivalence, and the output length stays
within bound(n, k) = 2n * (4n+2)^(k-1); exceeding that bound is a bug,
not a tolerance issue, and is asserted.

The model search compiles its sentence once. Depth-n truth is constant on
≡_n classes and ≡_n is a congruence, so the search runs the sentence only on
the shortlex-least word of each class, found breadth first. A search by
exact length (the CNF reduction's) runs it on every word of that length: its
sentences have depth close to the length, so almost every word is its own
class.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional

from .errors import FreeVariableError, SearchBudgetError, SignatureError
from .formulas import (
    And,
    Equal,
    Exists,
    Formula,
    LetterAtom,
    Less,
    Not,
    _Program,
    conjoin,
    disjoin,
    formula_metrics,
    other_var,
)
from .words import Alphabet, Word

DEFAULT_WORD_BUDGET = 500_000


def small_model_bound(n: int, k: int) -> int:
    """Max word length the shrinking procedure can leave for depth n over k letters."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return 2 * n * (4 * n + 2) ** (k - 1)


_RUN = re.compile(r"(.)\1*")  # a maximal constant run: letters are visible, so `.` matches each


def _left_partition(
    text: str, letters: set[str], limit: int
) -> tuple[list[str], list[tuple[int, int]]]:
    """Split text into at most limit pieces and separating runs, from the left.

    letters is the set of letters of text. Each piece is a maximal prefix
    of the rest using all but one of them; the run that follows it is the
    first run of the missing letter, the letter whose first occurrence
    comes last. Returns (pieces, run intervals as 0-based [start, end)).
    Unless limit runs were found, the text after the last run uses strictly
    fewer distinct letters than text.
    """
    pieces: list[str] = []
    runs: list[tuple[int, int]] = []
    pos = 0
    while len(runs) < limit:
        firsts = [text.find(c, pos) for c in letters]
        if min(firsts, default=-1) < 0:
            break
        m = _RUN.match(text, max(firsts))
        pieces.append(text[pos : m.start()])
        runs.append(m.span())
        pos = m.end()
    return pieces, runs


def _right_partition(
    text: str, letters: set[str], limit: int
) -> tuple[list[str], list[tuple[int, int]]]:
    """Mirror image of _left_partition: pieces and runs scanning from the right.

    Pieces and runs are returned right-to-left (index 0 is the rightmost).
    """
    rev_pieces, rev_runs = _left_partition(text[::-1], letters, limit)
    L = len(text)
    return [p[::-1] for p in rev_pieces], [(L - e, L - s) for s, e in rev_runs]


def shrink(w: Word, n: int) -> Word:
    """A word of bounded length that agrees with w on all depth-n sentences."""
    if n < 1:
        raise ValueError("n must be >= 1")
    letters = {c for c in w.alphabet if c in w.text}
    out = Word(w.alphabet, _shrink_text(w.text, n, letters))
    k = len(letters)
    if k:
        assert len(out) <= small_model_bound(n, k), (
            f"shrink produced {len(out)} letters, above the bound "
            f"{small_model_bound(n, k)} for n={n}, k={k}"
        )
    assert len(out) <= len(w), "shrink must never grow a word"
    return out


def _shrink_text(text: str, n: int, letters: set[str]) -> str:
    """Shrink text, whose set of letters is letters."""
    k = len(letters)
    if k < 2:
        return text[: 2 * n]  # one run at most, all of which a one-letter word needs
    # 2n+1 blocks from each end tell the two branches apart
    lpieces, lruns = _left_partition(text, letters, 2 * n + 1)
    rpieces, rruns = _right_partition(text, letters, 2 * n + 1)
    r = len(lruns)
    # Both greedy scans find the most disjoint blocks that each hold every
    # letter, so the full counts are equal; this compares them capped at
    # 2n+1, which covers every count the branches below read.
    if len(rruns) != r:
        raise RuntimeError("left and right partitions disagree on the run count")

    def cut(s: int, e: int) -> str:
        return text[s : min(e, s + 2 * n)]

    if r > 2 * n:
        # Keep the first n blocks of each partition; nothing between the
        # n-th left run and the n-th right run is reachable in n steps.
        # Each piece uses every letter but that of the run after it.
        if lruns[n - 1][1] > rruns[n - 1][0]:
            raise RuntimeError("left and right partitions overlap unexpectedly")
        left = "".join(
            _shrink_text(piece, n, letters - {text[s]}) + cut(s, e)
            for piece, (s, e) in zip(lpieces[:n], lruns)
        )
        right = "".join(
            cut(s, e) + _shrink_text(piece, n, letters - {text[s]})
            for piece, (s, e) in zip(rpieces[n - 1 :: -1], rruns[n - 1 :: -1])
        )
        return left + right
    # Few blocks: both scans ran to the end. Keep every separating run from
    # both partitions and recurse on the gaps, which use at most k-1 letters
    # each; the last gap is the rightmost right piece.
    marked = sorted(set(lruns) | set(rruns))
    for (s1, e1), (s2, e2) in zip(marked, marked[1:]):
        if s2 < e1:
            raise RuntimeError("separating runs must be equal or disjoint")
    out = []
    pos = 0
    for s, e in marked + [(len(text), len(text))]:
        gap = text[pos:s]
        gap_letters = {c for c in letters if c in gap}
        if len(gap_letters) >= k:
            raise RuntimeError("a gap between separating runs kept all letters")
        out.append(_shrink_text(gap, n, gap_letters))
        out.append(cut(s, e))
        pos = e
    return "".join(out)


class SatStatus(Enum):
    SAT = "sat"
    UNSAT_DEFINITIVE = "unsat-definitive"
    UNSAT_UP_TO_BOUND = "unsat-up-to-bound"


@dataclass(frozen=True)
class SatResult:
    status: SatStatus
    witness: Optional[Word]
    explored_bound: int

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "witness": None if self.witness is None else self.witness.text,
            "exploredBound": self.explored_bound,
        }


def _sides(types: list) -> list[frozenset]:
    """For each position, the set of types strictly before it."""
    out, seen = [], frozenset()
    for t in types:
        out.append(seen)
        if t not in seen:
            seen = seen | {t}
    return out


def _class_key(text: str, n: int, intern: Callable[[tuple], int]) -> frozenset:
    """The ≡_n class of text: the set of its positions' depth-(n-1) 1-types.

    A depth-0 type is a letter. A depth-k type, k >= 1, is intern applied to
    (depth-(k-1) type, set of depth-(k-1) types strictly left, set strictly
    right). With intern numbering types in one table shared by every word
    compared, keys are equal exactly when classes are; with intern=hash,
    equal classes give equal keys, and unequal ones may collide. The empty
    word alone has the empty key.
    """
    types = list(text)
    for _ in range(n - 1):
        left, right = _sides(types), _sides(types[::-1])[::-1]
        types = list(map(intern, zip(types, left, right)))
    return frozenset(types)


def _same_class(u: str, v: str, n: int) -> bool:
    """u ≡_n v, by keys whose types are numbered in one table for the two words."""
    intern = defaultdict(itertools.count().__next__).__getitem__
    return _class_key(u, n, intern) == _class_key(v, n, intern)


def _class_representatives(
    letters: tuple[str, ...], n: int, top: int, definitive: bool, word_budget: int
) -> Iterator[str]:
    """The shortlex-least member of each ≡_n class with at most top letters, in shortlex order.

    Each level extends the last level's representatives by each letter and
    keeps a child whose class is new: the least member of a class, less its
    last letter, is the least member of its own class, since ≡_n is a
    congruence. Representatives are filed at the hash of their key with
    intern=hash, probing onward past a filed word of another class; a child
    is compared by exact key, in a table for the two words alone, with each
    word on its probe path. So the search holds one word per class and no
    types. Every child whose key is computed counts against word_budget. A
    definitive search checks the small-model bound: the level after top adds
    no class.
    """
    filed: dict[int, str] = {}  # no child shares the class of "", the empty key
    frontier, spent = [""], 0
    yield ""
    for length in range(1, top + 1 + definitive):
        children = []
        for rep in frontier:
            for letter in letters:
                spent += 1
                if spent > word_budget:
                    raise SearchBudgetError(word_budget)
                child = rep + letter
                slot = hash(_class_key(child, n, hash))
                while slot in filed:
                    if _same_class(child, filed[slot], n):
                        break
                    slot += 1  # an equal hash from another class: probe the next slot
                else:
                    assert length <= top, f"a new ≡_{n} class past the small-model bound {top}"
                    filed[slot] = child
                    children.append(child)
                    yield child
        if not children:
            return
        frontier = children


def _words_of_length(letters: tuple[str, ...], length: int, word_budget: int) -> Iterator[str]:
    for spent, combo in enumerate(itertools.product(letters, repeat=length), 1):
        if spent > word_budget:
            raise SearchBudgetError(word_budget)
        yield "".join(combo)


def sat_search(
    formula: Formula,
    alphabet: Alphabet,
    max_len: Optional[int] = None,
    exact_len: Optional[int] = None,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> SatResult:
    """Shortlex search for a model over the alphabet.

    The search runs the sentence on the shortlex-least word of each ≡_n
    class, n the quantifier depth (at least 1), and returns the first model,
    the shortlex-least one; with exact_len, on every word of that length.
    Every word but "" that it keys counts against word_budget; with
    exact_len, every word it runs on.

    The search is definitive when it covers every length up to the small
    model bound for n: a satisfiable sentence has a model within that bound,
    so finding none refutes it. With max_len below the bound, or exact_len,
    the verdict is only "unsatisfiable up to here", even when the classes
    run out first.
    """
    for name, value in (("max_len", max_len), ("exact_len", exact_len), ("word_budget", word_budget)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    metrics = formula_metrics(formula)
    if metrics.free_vars:
        raise FreeVariableError("satisfiability is decided for sentences only")
    if metrics.uses_successor:
        raise SignatureError("satisfiability search supports the order-only signature")
    n = max(1, metrics.quantifier_depth)
    bound = small_model_bound(n, len(alphabet))
    if exact_len is not None:
        candidates = _words_of_length(alphabet.letters, exact_len, word_budget)
        definitive = False
        explored = exact_len
    else:
        explored = bound if max_len is None else min(max_len, bound)
        definitive = explored >= bound
        candidates = _class_representatives(alphabet.letters, n, explored, definitive, word_budget)
    program = _Program(formula)
    for text in candidates:
        if program.holds(text, alphabet):
            return SatResult(SatStatus.SAT, Word(alphabet, text), len(text))
    status = SatStatus.UNSAT_DEFINITIVE if definitive else SatStatus.UNSAT_UP_TO_BOUND
    return SatResult(status, None, explored)


@dataclass(frozen=True)
class Cnf:
    """A CNF formula as signed 1-based variable indices.

    An empty clause is permitted and makes the formula unsatisfiable.
    """

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError("variable count must be >= 1")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"literal {lit} out of range for {self.variable_count} variables")

    @property
    def literal_count(self) -> int:
        return sum(len(c) for c in self.clauses)


def parse_dimacs(text: str) -> Cnf:
    """DIMACS CNF: a `p cnf <vars> <clauses>` header, clauses 0-terminated."""
    variable_count = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("%"):  # SATLIB's end of clauses; a stray "0" follows
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed DIMACS header: {line!r}")
            variable_count = int(parts[2])
            declared_clauses = int(parts[3])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if variable_count is None:
        raise ValueError("missing DIMACS header")
    if current:
        clauses.append(tuple(current))
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise ValueError(
            f"header declares {declared_clauses} clauses but {len(clauses)} were given"
        )
    return Cnf(variable_count, tuple(clauses))


CNF_ALPHABET = Alphabet(("0", "1"))


def _at_least_below(i: int, var: str, memo: dict) -> Optional[Formula]:
    """At least i positions strictly below var, built once per memo; None is the vacuous i = 0."""
    if i == 0:
        return None
    if (i, var) not in memo:
        u = other_var(var)
        memo[i, var] = Exists(u, conjoin([Less(u, var), _at_least_below(i - 1, u, memo)]))
    return memo[i, var]


def _var_is_one(i: int, memo: dict) -> Formula:
    """The i-th position carries letter 1: it has exactly i-1 positions below."""
    exactly = conjoin(
        [
            LetterAtom("1", "x"),
            _at_least_below(i - 1, "x", memo),
            Not(_at_least_below(i, "x", memo)),
        ]
    )
    assert exactly is not None
    return Exists("x", exactly)


def _length_exactly(n: int, memo: dict) -> Formula:
    at_least_n = conjoin([_at_least_below(n - 1, "x", memo)]) or Equal("x", "x")
    return And(Exists("x", at_least_n), Not(Exists("x", _at_least_below(n, "x", memo))))


def cnf_to_fo2(cnf: Cnf) -> tuple[Formula, int]:
    """Translate CNF over n variables into a sentence over the alphabet {0, 1}.

    Models are exactly the length-n words whose i-th letter is 1 precisely
    when variable i is true in a satisfying assignment; the sentence pins
    the model length to n by position counting, with chains shared through
    one memo, so the sentence has O(n + literals) distinct nodes.
    """
    if not cnf.clauses:
        raise ValueError("a CNF with no clauses is trivially satisfiable; nothing to translate")
    n = cnf.variable_count
    memo: dict = {}
    clause_formulas: list[Formula] = []
    for clause in cnf.clauses:
        literals = [
            _var_is_one(lit, memo) if lit > 0 else Not(_var_is_one(-lit, memo)) for lit in clause
        ]
        body = disjoin(literals)
        if body is None:  # empty clause: no assignment satisfies it
            body = Exists("x", Less("x", "x"))
        clause_formulas.append(body)
    translated = conjoin(clause_formulas)
    assert translated is not None
    return And(_length_exactly(n, memo), translated), n


def cnf_brute_force(cnf: Cnf) -> bool:
    """Exhaustive assignment check; the independent oracle for the reduction."""
    if cnf.variable_count > 20:
        raise ValueError("brute force is capped at 20 variables")
    for bits in range(1 << cnf.variable_count):
        ok = True
        for clause in cnf.clauses:
            if not any(
                ((bits >> (abs(lit) - 1)) & 1) == (1 if lit > 0 else 0) for lit in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False
