"""Bounded-alphabet satisfiability: small models, model shrinking, CNF reduction.

The shrinking procedure recurses on the number of distinct letters k that
actually occur in the word:

  k = 1   keep the first n and last n letters;
  k > 1   cut every maximal constant run to at most 2n letters, compute the
          canonical left and right partitions into "k-1-letter piece +
          separating run" blocks, then either keep only the first n blocks
          from each end (many blocks) or keep all separating runs and
          recurse on the gaps between them (few blocks).

Every step preserves depth-n equivalence, and the output length stays
within bound(n, k) = 2n * (4n+2)^(k-1); exceeding that bound is a bug,
not a tolerance issue, and is asserted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import FreeVariableError, SearchBudgetError, SignatureError
from .formulas import (
    And,
    Equal,
    Exists,
    Formula,
    LetterAtom,
    Less,
    Not,
    conjoin,
    disjoin,
    formula_metrics,
    model_check,
    other_var,
)
from .words import Alphabet, Word, segments

DEFAULT_WORD_BUDGET = 500_000


def small_model_bound(n: int, k: int) -> int:
    """Max word length the shrinking procedure can leave for depth n over k letters."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return 2 * n * (4 * n + 2) ** (k - 1)


def _cut_runs(text: str, n: int) -> str:
    out = []
    for seg in segments(text):
        length = min(len(seg), 2 * n)
        out.append(seg.letter * length)
    return "".join(out)


def _left_partition(text: str) -> tuple[list[str], list[tuple[int, int]], str]:
    """Split text into pieces and separating runs, scanning from the left.

    Each piece is a maximal prefix using all but one of the distinct
    letters of text; the run that follows it is the first run of the
    missing letter. Returns (pieces, run intervals as 0-based [start, end),
    tail). The tail uses strictly fewer distinct letters than text.
    """
    letters = set(text)
    pieces: list[str] = []
    runs: list[tuple[int, int]] = []
    pos = 0
    while True:
        # one find per letter: the scan is O(k * len(text)) in total
        firsts = [text.find(c, pos) for c in letters]
        if min(firsts) < 0:
            return pieces, runs, text[pos:]
        f = max(firsts)
        end = f
        while end < len(text) and text[end] == text[f]:
            end += 1
        pieces.append(text[pos:f])
        runs.append((f, end))
        pos = end


def _right_partition(text: str) -> tuple[list[str], list[tuple[int, int]], str]:
    """Mirror image of _left_partition: pieces and runs scanning from the right.

    Pieces and runs are returned right-to-left (index 0 is the rightmost).
    """
    rev_pieces, rev_runs, rev_tail = _left_partition(text[::-1])
    L = len(text)
    pieces = [p[::-1] for p in rev_pieces]
    runs = [(L - e, L - s) for s, e in rev_runs]
    return pieces, runs, rev_tail[::-1]


def shrink(w: Word, n: int) -> Word:
    """A word of bounded length that agrees with w on all depth-n sentences."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = Word(w.alphabet, _shrink_text(w.text, n))
    k = len(set(w.text))
    if k:
        assert len(out) <= small_model_bound(n, k), (
            f"shrink produced {len(out)} letters, above the bound "
            f"{small_model_bound(n, k)} for n={n}, k={k}"
        )
    assert len(out) <= len(w), "shrink must never grow a word"
    return out


def _shrink_text(text: str, n: int) -> str:
    k = len(set(text))
    if k == 0:
        return text
    if k == 1:
        if len(text) <= 2 * n:
            return text
        return text[:n] + text[-n:]
    wp = _cut_runs(text, n)
    lpieces, lruns, _ = _left_partition(wp)
    rpieces, rruns, _ = _right_partition(wp)
    r = len(lruns)
    if len(rruns) != r:
        raise RuntimeError("left and right partitions disagree on the run count")
    if r > 2 * n:
        # Keep the first n blocks of each partition; nothing between the
        # n-th left run and the n-th right run is reachable in n steps.
        if lruns[n - 1][1] > rruns[n - 1][0]:
            raise RuntimeError("left and right partitions overlap unexpectedly")
        left = "".join(
            _shrink_text(lpieces[i], n) + wp[lruns[i][0] : lruns[i][1]] for i in range(n)
        )
        right = "".join(
            wp[rruns[i][0] : rruns[i][1]] + _shrink_text(rpieces[i], n)
            for i in range(n - 1, -1, -1)
        )
        return left + right
    # Few blocks: keep every separating run from both partitions and
    # recurse on the gaps, which use at most k-1 letters each.
    marked = sorted(set(lruns) | set(rruns))
    for (s1, e1), (s2, e2) in zip(marked, marked[1:]):
        if s2 < e1:
            raise RuntimeError("separating runs must be equal or disjoint")
    out = []
    pos = 0
    for s, e in marked:
        gap = wp[pos:s]
        if len(set(gap)) >= k:
            raise RuntimeError("a gap between separating runs kept all letters")
        out.append(_shrink_text(gap, n))
        out.append(wp[s:e])
        pos = e
    out.append(_shrink_text(wp[pos:], n))
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


def sat_search(
    formula: Formula,
    alphabet: Alphabet,
    max_len: Optional[int] = None,
    exact_len: Optional[int] = None,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> SatResult:
    """Shortlex search for a model over the alphabet.

    The search is definitive when it exhausts every length up to the small
    model bound for the sentence's quantifier depth: a satisfiable sentence
    has a model within that bound, so finding none refutes it. With
    max_len or exact_len the verdict is only "unsatisfiable up to here".
    """
    metrics = formula_metrics(formula)
    if metrics.free_vars:
        raise FreeVariableError("satisfiability is decided for sentences only")
    if metrics.uses_successor:
        raise SignatureError("satisfiability search supports the order-only signature")
    n = max(1, metrics.quantifier_depth)
    bound = small_model_bound(n, len(alphabet))
    if exact_len is not None:
        lengths: Sequence[int] = [exact_len]
        definitive = False
        explored = exact_len
    else:
        top = bound if max_len is None else min(max_len, bound)
        lengths = range(top + 1)
        definitive = top >= bound
        explored = top
    seen = 0
    for length in lengths:
        for combo in itertools.product(alphabet.letters, repeat=length):
            seen += 1
            if seen > word_budget:
                raise SearchBudgetError(word_budget)
            w = Word(alphabet, "".join(combo))
            if model_check(formula, w):
                return SatResult(SatStatus.SAT, w, length)
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
        if not line or line.startswith("c") or line.startswith("%"):
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


def _at_least_below(i: int, var: str) -> Optional[Formula]:
    """At least i positions strictly below var; None is the vacuous i = 0."""
    if i == 0:
        return None
    u = other_var(var)
    return Exists(u, conjoin([Less(u, var), _at_least_below(i - 1, u)]))


def _var_is_one(i: int) -> Formula:
    """The i-th position carries letter 1: it has exactly i-1 positions below."""
    exactly = conjoin(
        [
            LetterAtom("1", "x"),
            _at_least_below(i - 1, "x"),
            Not(_at_least_below(i, "x")),
        ]
    )
    assert exactly is not None
    return Exists("x", exactly)


def _length_exactly(n: int) -> Formula:
    at_least_n = conjoin([_at_least_below(n - 1, "x")]) or Equal("x", "x")
    f = And(Exists("x", at_least_n), Not(Exists("x", _at_least_below(n, "x"))))
    return f


def cnf_to_fo2(cnf: Cnf) -> tuple[Formula, int]:
    """Translate CNF over n variables into a sentence over the alphabet {0, 1}.

    Models are exactly the length-n words whose i-th letter is 1 precisely
    when variable i is true in a satisfying assignment; the sentence pins
    the model length to n by position counting.
    """
    if not cnf.clauses:
        raise ValueError("a CNF with no clauses is trivially satisfiable; nothing to translate")
    n = cnf.variable_count
    clause_formulas: list[Formula] = []
    for clause in cnf.clauses:
        literals = [
            _var_is_one(lit) if lit > 0 else Not(_var_is_one(-lit)) for lit in clause
        ]
        body = disjoin(literals)
        if body is None:  # empty clause: no assignment satisfies it
            body = Exists("x", Less("x", "x"))
        clause_formulas.append(body)
    translated = conjoin(clause_formulas)
    assert translated is not None
    return And(_length_exactly(n), translated), n


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
