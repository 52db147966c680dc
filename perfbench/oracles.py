"""Reference computations the benchmark checks fo2words against.

Nothing here imports fo2words: every check that uses these functions is
independent of the code under test.

- a naive two-variable evaluator (direct recursion over assignments, with a
  memo), plus a parser for the ASCII formula grammar, for short words;
- a ranker evaluator built on ``str.find``/``str.rfind``, a realized-family
  enumerator and a rank-based depth-n (and alternation-bounded) decider over
  the order signature;
- a brute-force CNF check.

Formulas are nested tuples: ``("letter", c, v)``, ``("lt"|"eq"|"suc", v1, v2)``,
``("not", f)``, ``("and"|"or"|"imp", f, g)`` and ``("E"|"A", v, f)``.
"""

from __future__ import annotations

import bisect
from typing import Optional


class CheckFailure(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- formulas ----------------------------------------------------------------

def render(f: tuple) -> str:
    """Fully parenthesized text in the fo2words ASCII grammar."""
    op = f[0]
    if op == "letter":
        return f"{f[1]}({f[2]})"
    if op == "lt":
        return f"{f[1]}<{f[2]}"
    if op == "eq":
        return f"{f[1]}={f[2]}"
    if op == "suc":
        return f"suc({f[1]},{f[2]})"
    if op == "not":
        return f"!{render(f[1])}"
    if op in ("and", "or", "imp"):
        sym = {"and": "&", "or": "|", "imp": "->"}[op]
        return f"({render(f[1])} {sym} {render(f[2])})"
    return f"({op}{f[1]}.{render(f[2])})"


def quantifier_depth(f: tuple) -> int:
    op = f[0]
    if op == "not":
        return quantifier_depth(f[1])
    if op in ("and", "or", "imp"):
        return max(quantifier_depth(f[1]), quantifier_depth(f[2]))
    if op in ("E", "A"):
        return 1 + quantifier_depth(f[2])
    return 0


def parse(text: str) -> tuple:
    """Parse the ASCII grammar: ``!`` binds tightest, then ``&``, ``|``, ``->``
    (right associative); a quantifier's scope extends maximally to the right."""
    s = "".join(text.split())
    pos = 0

    def peek(k: int = 0) -> str:
        return s[pos + k] if pos + k < len(s) else ""

    def expect(ch: str) -> None:
        nonlocal pos
        require(peek() == ch, f"expected {ch!r} at {pos} in {text!r}")
        pos += 1

    def implies() -> tuple:
        nonlocal pos
        left = disj()
        if s.startswith("->", pos):
            pos += 2
            return ("imp", left, implies())
        return left

    def disj() -> tuple:
        nonlocal pos
        f = conj()
        while peek() == "|":
            pos += 1
            f = ("or", f, conj())
        return f

    def conj() -> tuple:
        nonlocal pos
        f = unary()
        while peek() == "&":
            pos += 1
            f = ("and", f, unary())
        return f

    def unary() -> tuple:
        nonlocal pos
        c = peek()
        if c == "!":
            pos += 1
            return ("not", unary())
        if c in "EA" and peek(1) in "xy" and peek(2) == ".":
            pos += 3
            return (c, s[pos - 2], implies())
        if c == "(":
            pos += 1
            f = implies()
            expect(")")
            return f
        if s.startswith("suc(", pos):
            pos += 4
            a = s[pos]
            pos += 1
            expect(",")
            b = s[pos]
            pos += 1
            expect(")")
            return ("suc", a, b)
        if c in "xy" and peek(1) in "<=":
            pos += 3
            return ("lt" if s[pos - 2] == "<" else "eq", c, s[pos - 1])
        require(peek(1) == "(" and peek(3) == ")", f"bad atom at {pos} in {text!r}")
        pos += 4
        return ("letter", c, s[pos - 2])

    f = implies()
    require(pos == len(s), f"trailing text at {pos} in {text!r}")
    return f


def holds(f: tuple, text: str, x: Optional[int] = None, y: Optional[int] = None) -> bool:
    """Truth of f on the word under 1-indexed assignments, by recursion over
    every assignment of the quantified variables."""
    L = len(text)
    memo: dict = {}

    def ev(g: tuple, x: Optional[int], y: Optional[int]) -> bool:
        op = g[0]
        if op in ("E", "A"):
            # the bound variable's incoming value is irrelevant
            if g[1] == "x":
                x = None
            else:
                y = None
        key = (id(g), x, y)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if op == "letter":
            p = x if g[2] == "x" else y
            r = text[p] == g[1]
        elif op in ("lt", "eq", "suc"):
            a = x if g[1] == "x" else y
            b = x if g[2] == "x" else y
            r = a < b if op == "lt" else a == b if op == "eq" else b == a + 1
        elif op == "not":
            r = not ev(g[1], x, y)
        elif op == "and":
            r = ev(g[1], x, y) and ev(g[2], x, y)
        elif op == "or":
            r = ev(g[1], x, y) or ev(g[2], x, y)
        elif op == "imp":
            r = (not ev(g[1], x, y)) or ev(g[2], x, y)
        else:
            body = g[2]
            if g[1] == "x":
                values = (ev(body, p, y) for p in range(L))
            else:
                values = (ev(body, x, p) for p in range(L))
            r = any(values) if op == "E" else all(values)
        memo[key] = r
        return r

    return ev(f, None if x is None else x - 1, None if y is None else y - 1)


def words_shortlex(letters: str, max_len: int):
    """Every word over the letters up to max_len, in shortlex order."""
    layer = [""]
    for _ in range(max_len + 1):
        yield from layer
        layer = [w + c for w in layer for c in letters]


def first_model(f: tuple, letters: str, max_len: int) -> Optional[str]:
    """The shortlex-first word of length <= max_len on which sentence f holds."""
    for w in words_shortlex(letters, max_len):
        if holds(f, w):
            return w
    return None


def small_model_bound(n: int, k: int) -> int:
    """The paper's small-model bound 2n(4n+2)^(k-1)."""
    return 2 * n * (4 * n + 2) ** (k - 1)


# --- rankers -----------------------------------------------------------------

def parse_ranker(text: str) -> list[tuple[str, str, str, str]]:
    """Steps (direction, before, letter, after) from ``>a<b`` or ``>[ab|c|]``."""
    steps = []
    i = 0
    while i < len(text):
        d = text[i]
        require(d in "<>", f"bad ranker {text!r}")
        if text[i + 1] == "[":
            end = text.index("]", i)
            before, letter, after = text[i + 2 : end].split("|")
            steps.append((d, before, letter, after))
            i = end + 1
        else:
            steps.append((d, "", text[i + 1], ""))
            i += 2
    return steps


def eval_ranker(steps, text: str) -> Optional[int]:
    """1-indexed position of the ranker on the word, or None when undefined."""
    pos = None
    for d, before, letter, after in steps:
        window = before + letter + after
        k = len(before)
        if d == ">":
            start = 0 if pos is None else max(0, pos - k)
            s = text.find(window, start)
        else:
            end = len(text) if pos is None else pos - 1 + len(after)
            s = text.rfind(window, 0, end) if end >= len(window) else -1
        if s < 0:
            return None
        pos = s + k + 1
    return pos


def blocks(steps) -> int:
    return 1 + sum(1 for a, b in zip(steps, steps[1:]) if a[0] != b[0])


def family(text: str, letters: str, n: int, m: Optional[int] = None) -> dict:
    """Every plain ranker of length <= n (and <= m direction blocks) defined on
    the word, as a map from its step tuple to its position."""
    found: dict = {}
    frontier = [((), None)]
    for _ in range(n):
        nxt = []
        for steps, pos in frontier:
            for d in "><":
                for c in letters:
                    if d == ">":
                        i = text.find(c, 0 if pos is None else pos)
                    else:
                        i = text.rfind(c, 0, len(text) if pos is None else pos - 1)
                    if i < 0:
                        continue
                    new = steps + ((d, "", c, ""),)
                    if m is not None and blocks(new) > m:
                        continue
                    found[new] = i + 1
                    nxt.append((new, i + 1))
        frontier = nxt
    return found


def _orders_agree(rows, cols) -> bool:
    """Whether sign(a - x) == sign(b - y) for every (a, b) in rows, (x, y) in cols."""
    cols = sorted(cols)
    xs = [x for x, _ in cols]
    pref_max, best = [], None
    for _, y in cols:
        best = y if best is None else max(best, y)
        pref_max.append(best)
    suf_min, best = [0] * len(cols), None
    for i in range(len(cols) - 1, -1, -1):
        best = cols[i][1] if best is None else min(best, cols[i][1])
        suf_min[i] = best
    images: dict = {}
    for x, y in cols:
        images.setdefault(x, set()).add(y)
    for a, b in rows:
        i = bisect.bisect_left(xs, a)
        if i and pref_max[i - 1] >= b:
            return False
        j = bisect.bisect_right(xs, a)
        if j < len(xs) and suf_min[j] <= b:
            return False
        if a in images and images[a] != {b}:
            return False
    return True


def equivalent(u: str, v: str, n: int, m: Optional[int] = None) -> bool:
    """u ≡_n v (or ≡_{m,n}) over the order signature, from realized rankers:
    the same rankers are defined on both words; every ranker keeps its order
    relative to each shorter (and, with m, less alternating) ranker; with m,
    also relative to each shorter ranker ending in the other direction."""
    letters = "".join(sorted(set(u) | set(v)))
    fu, fv = family(u, letters, n, m), family(v, letters, n, m)
    if fu.keys() != fv.keys():
        return False
    pairs = {r: (fu[r], fv[r]) for r in fu}
    rows = list(pairs.values())
    cols = [p for r, p in pairs.items() if len(r) <= n - 1 and (m is None or blocks(r) <= m - 1)]
    if not _orders_agree(rows, cols):
        return False
    if m is not None:
        for d in "><":
            cols = [p for r, p in pairs.items() if len(r) <= n - 1 and r[-1][0] == d]
            rows = [p for r, p in pairs.items() if r[-1][0] != d]
            if not _orders_agree(rows, cols):
                return False
    return True


def check_equiv_report(report: dict, u: str, v: str, n: int, m: Optional[int], successor: bool) -> None:
    """Re-check a decider's JSON report: its verdict matches its condition, and
    every witness ranker evaluates, on both words, to the reported positions
    and really violates the reported condition."""
    verdict, cond, wit = report["verdict"], report["failedCondition"], report["witnesses"]
    require((cond == "none") == verdict, f"verdict {verdict} with condition {cond}")
    if verdict:
        require(not wit, "an equivalent verdict carries witnesses")
        return
    steps = [parse_ranker(w["ranker"]) for w in wit]
    for s, w in zip(steps, wit):
        require(len(s) <= n and (m is None or blocks(s) <= m), f"witness {w['ranker']} outside the family")
        require(
            (eval_ranker(s, u), eval_ranker(s, v)) == (w["posU"], w["posV"]),
            f"witness {w['ranker']} does not evaluate to ({w['posU']}, {w['posV']})",
        )
    if cond == "definedness":
        require(len(wit) == 1 and (wit[0]["posU"] is None) != (wit[0]["posV"] is None),
                "definedness witness is defined on both words or on neither")
        return
    require(len(wit) == 2 and None not in (wit[0]["posU"], wit[0]["posV"], wit[1]["posU"], wit[1]["posV"]),
            "order witnesses must be two rankers defined on both words")
    require(len(steps[1]) <= n - 1, "the second order witness must be shorter than n")
    if cond == "order" and m is not None:
        require(blocks(steps[1]) <= m - 1, "the second order witness must be less alternating")
    if cond == "cross-direction":
        require(steps[0][-1][0] != steps[1][-1][0], "cross-direction witnesses end in one direction")

    def compare(a: int, b: int) -> int:
        return max(-2, min(2, a - b)) if successor else (a > b) - (a < b)

    require(
        compare(wit[0]["posU"], wit[1]["posU"]) != compare(wit[0]["posV"], wit[1]["posV"]),
        "order witnesses compare the same way on both words",
    )


# --- CNF -----------------------------------------------------------------------

def cnf_satisfied(clauses, assignment: str) -> bool:
    """Whether the 0/1 word (letter i = variable i) satisfies every clause."""
    return all(any((assignment[abs(l) - 1] == "1") == (l > 0) for l in c) for c in clauses)


def cnf_satisfiable(clauses, variables: int) -> bool:
    return any(
        cnf_satisfied(clauses, format(bits, f"0{variables}b")) for bits in range(1 << variables)
    )
