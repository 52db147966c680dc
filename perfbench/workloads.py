"""The four workloads: seeded inputs, the operations run on them, and the
check of every operation's output.

A run executes whole rounds. Every round has the same operations in the same
order, each on inputs drawn from ``random.Random(f"{workload}/{seed}/{round}")``,
so one seed gives the same inputs in every process and the share of heavy and
of failing operations is the same in every run. The operations that fail
today (``Op.fault``) take inputs that do not depend on the seed.

Operations look fo2words functions up on the package at call time, so the
traced run sees the wrappers that ``tracing`` installs after set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional

import calibrate
import oracles as O
from oracles import require


class Op:
    """One timed operation. ``run`` is timed; ``check`` runs after every
    operation has run. ``fault`` names the exception the operation raises on
    every run because of a known fault in the program."""

    __slots__ = ("kind", "run", "check", "fault")

    def __init__(self, kind: str, run: Callable, check: Callable, fault: Optional[str] = None):
        self.kind, self.run, self.check, self.fault = kind, run, check, fault


def _word(api, rng: random.Random, letters: str, length: int):
    return api.Word(api.Alphabet(tuple(letters)), "".join(rng.choice(letters) for _ in range(length)))


# --- decide-rankers ------------------------------------------------------------

def _decide(api, u, v, n: int, m: Optional[int], successor: bool, expect: Optional[bool]) -> Op:
    name = ("suc_ranker_equiv" if successor else "ranker_equiv") + ("" if m is None else "_alt")
    if m is None:
        run = lambda: getattr(api, name)(u, v, n)
    else:
        run = lambda: getattr(api, name)(u, v, m, n)

    def check(report):
        d = report.to_json_dict()
        O.check_equiv_report(d, u.text, v.text, n, m, successor)
        if expect is not None:
            require(d["verdict"] is expect, f"{name}({u.text}, {v.text}, m={m}, n={n}) is {d['verdict']}")
        if not successor:
            truth = O.equivalent(u.text, v.text, n, m)
            require(d["verdict"] is truth, f"{name}({u.text}, {v.text}, m={m}, n={n}) is not {truth}")

    return Op(name, run, check)


# (alphabet, n, |u|, deepest depth that stays within memory): one decision
# at depth 6 over {a,b,c} realizes ~22k rankers and its O(R^2) arrays exhaust
# an 8 GB machine, so the n+1 decisions stop at depth 6 over {a,b} and 5 over
# {a,b,c}. Fixed lengths keep the realized-set sizes, and so the cost of each
# slot, nearly independent of the seed.
DECIDE_SLOTS = (("ab", 4, 60, 6), ("ab", 5, 90, 6), ("ab", 6, 120, 6),
                ("abc", 3, 40, 5), ("abc", 4, 80, 5), ("abc", 5, 120, 5))


def decide_rankers_round(api, rng: random.Random, ops: list) -> None:
    for letters, n, length, deepest in DECIDE_SLOTS:
        u = _word(api, rng, letters, length)
        s = api.shrink(u, n)
        # u ≡_n shrink(u, n), hence also ≡_{m,n}; the alternation-bounded
        # decisions reuse the two realized sets cached by the first one
        ops.append(_decide(api, u, s, n, None, False, True))
        for m in (1, n - 1):
            ops.append(_decide(api, u, s, n, m, False, True))
        if n + 1 <= deepest:
            # a pair that passes the definedness condition at depth n+1 too,
            # so every decision runs the full structure check; its realized
            # sets are used once and miss the cache
            ops.append(_decide(api, u, api.shrink(u, n + 1), n + 1, None, False, True))
    for length in (8, 10):
        u = _word(api, rng, "ab", length)
        ops.append(_decide(api, u, u, 3, None, True, True))
        ops.append(_decide(api, u, u, 3, 2, True, True))


# --- games-hierarchy -------------------------------------------------------------

def _game(api, u, v, n: int, successor: bool, expect: Callable[[], Optional[bool]], m: Optional[int] = None) -> Op:
    if m is None:
        name, run = "game_equiv", lambda: api.game_equiv(u, v, n, with_successor=successor)
    else:
        name, run = "game_equiv_alt", lambda: api.game_equiv_alt(u, v, m, n, with_successor=successor)

    def check(verdict):
        truth = expect()
        if truth is not None:
            require(verdict.delilah_wins is truth,
                    f"{name}({u.text}, {v.text}, m={m}, n={n}, suc={successor}) is {verdict.delilah_wins}")
        require((verdict.first_winning_samson_move is None) == verdict.delilah_wins,
                "a lost game must name Samson's winning move, and only a lost game")

    return Op(name + ("_suc" if successor else ""), run, check)


def _general(api, u, i1: int, i2: int, j1: int, j2: int, n: int, m: Optional[int]) -> Op:
    # From identical pebbles on one word Delilah copies every move; when the
    # x pebbles sit on different letters she has lost before any move.
    expect = u.text[i1 - 1] == u.text[j1 - 1] and (i1, i2) == (j1, j2)

    def check(verdict):
        require(verdict.delilah_wins is expect, f"game_equiv_general on {u.text} from {(i1, i2, j1, j2)}")

    return Op("game_equiv_general", lambda: api.game_equiv_general(u, i1, i2, u, j1, j2, n, m=m), check)


def _level(api, m: int, n: int, successor: bool, fault: Optional[str]) -> Op:
    sig = api.Signature.ORDER_SUC if successor else api.Signature.ORDER

    def check(report):
        require(report.ok, f"hierarchy level ({m},{n}) suc={successor} is not ok")

    return Op("verify_hierarchy_level", lambda: api.verify_hierarchy_level(m, n, sig), check, fault)


# Levels whose game table, (|u|+1)^2 (|v|+1)^2 cells per live table, exceeds
# DEFAULT_GAME_CAP: they raise GameResourceError on every run.
OVER_CAP_LEVELS = {(3, 4, False), (4, 3, False), (4, 4, False), (2, 2, True), (3, 2, True)}
HIERARCHY_LEVELS = [(m, n, False) for m in range(1, 5) for n in range(1, 5)] + [
    (m, n, True) for m in range(1, 4) for n in (1, 2)
]

# (m, n, |u|): game_equiv_alt sizes that stay below the game cap for any letters.
ALT_GAMES = ((1, 2, 25), (2, 3, 25), (2, 4, 22), (3, 4, 18))


def _run_pair(api, rng: random.Random, n: int, length: int, extra: int):
    """Words u, v with |u| = length, |v| = length - extra and u ≡_n v: one
    random prefix and suffix around a run of one letter, 2n + extra letters
    long in u and 2n in v (cutting a run to 2n letters preserves ≡_n)."""
    rest = length - 2 * n - extra
    x = "".join(rng.choice("ab") for _ in range(rest // 2))
    y = "".join(rng.choice("ab") for _ in range(rest - rest // 2))
    c = rng.choice("ab")
    ab = api.Alphabet(("a", "b"))
    return api.Word(ab, x + c * (2 * n + extra) + y), api.Word(ab, x + c * (2 * n) + y)


def games_hierarchy_round(api, rng: random.Random, ops: list) -> None:
    # A game's cost is set by the word lengths alone (it fills every table),
    # so all lengths are fixed and only the letters depend on the seed.
    for n in (2, 3, 4):
        u, v = _run_pair(api, rng, n, 34, 6)
        ops.append(_game(api, u, v, n, False, lambda: True))
        u, v = _word(api, rng, "ab", 34), _word(api, rng, "ab", 30)
        ops.append(_game(api, u, v, n, False, lambda u=u, v=v, n=n: O.equivalent(u.text, v.text, n)))
    # successor games, checked against the successor ranker decider where it
    # is cheap, and otherwise against reflexivity and "not ≡ without
    # successor implies not ≡ with it"
    u, v = _word(api, rng, "ab", 34), _word(api, rng, "ab", 30)
    ops.append(_game(api, u, v, 2, True, lambda u=u, v=v: api.suc_ranker_equiv(u, v, 2).verdict))
    u, v = _word(api, rng, "ab", 10), _word(api, rng, "ab", 9)
    ops.append(_game(api, u, v, 3, True, lambda u=u, v=v: api.suc_ranker_equiv(u, v, 3).verdict))
    u, v = _word(api, rng, "ab", 34), _word(api, rng, "ab", 32)
    ops.append(_game(api, u, u, 4, True, lambda: True))
    ops.append(_game(api, u, v, 4, True, lambda u=u, v=v: None if O.equivalent(u.text, v.text, 4) else False))
    for m, n, length in ALT_GAMES:
        u, s = _run_pair(api, rng, n, length, 4)
        ops.append(_game(api, u, s, n, False, lambda u=u, s=s, m=m, n=n: O.equivalent(u.text, s.text, n, m), m))
        u, v = _word(api, rng, "ab", length), _word(api, rng, "ab", length)
        ops.append(_game(api, u, v, n, False, lambda u=u, v=v, m=m, n=n: O.equivalent(u.text, v.text, n, m), m))
    for n, m in ((2, None), (3, 2)):
        u = _word(api, rng, "ab", 24)
        i1, i2 = rng.randint(1, len(u)), rng.randint(1, len(u))
        other = [j for j in range(1, len(u) + 1) if u.text[j - 1] != u.text[i1 - 1]] or [i1]
        ops.append(_general(api, u, i1, i2, i1, i2, n, m))
        ops.append(_general(api, u, i1, i2, rng.choice(other), i2, n, m))
    for m, n, successor in HIERARCHY_LEVELS:
        fault = "GameResourceError" if (m, n, successor) in OVER_CAP_LEVELS else None
        ops.append(_level(api, m, n, successor, fault))


# --- formulas-solver --------------------------------------------------------------

def _atom(rng: random.Random, letters: str, free: frozenset) -> tuple:
    if len(free) == 2 and rng.random() < 0.4:
        a, b = rng.sample(("x", "y"), 2)
        return (rng.choice(("lt", "lt", "eq")), a, b)
    return ("letter", rng.choice(letters), rng.choice(sorted(free)))


def _quantified(rng: random.Random, depth: int, letters: str, free: frozenset) -> tuple:
    """A quantified formula of quantifier depth exactly `depth` with `depth` quantifiers."""
    v = rng.choice("xy")
    inner = free | {v}
    left = _atom(rng, letters, inner)
    right = _atom(rng, letters, inner) if depth == 1 else _quantified(rng, depth - 1, letters, inner)
    if rng.random() < 0.3:
        right = ("not", right)
    return (rng.choice("EA"), v, (rng.choice(("and", "or", "imp")), left, right))


def sentence(rng: random.Random, depth: int, letters: str) -> tuple:
    """A sentence of quantifier depth exactly `depth` with a fixed number of quantifiers."""
    a = _quantified(rng, depth, letters, frozenset())
    b = _quantified(rng, max(1, depth - 1), letters, frozenset())
    return (rng.choice(("and", "or")), a, ("not", b) if rng.random() < 0.5 else b)


def _contradiction(rng: random.Random, depth: int, letters: str) -> tuple:
    psi = sentence(rng, depth, letters)
    return ("and", psi, ("not", psi))


def _sentence_with_model(rng: random.Random, depth: int, letters: str, max_len: int):
    """A sentence whose shortlex-first model has length <= max_len, and that model."""
    while True:
        f = sentence(rng, depth, letters)
        model = O.first_model(f, letters, max_len)
        if model is not None:
            return f, model


def _model_check(api, f: tuple, w, depth: int) -> Op:
    text, alphabet = O.render(f), w.alphabet

    def check(result):
        # shrink preserves every sentence of quantifier depth <= depth
        small = api.shrink(w, depth)
        require(result is api.model_check(api.parse_formula(text, alphabet), small),
                f"model_check differs on w and shrink(w, {depth}) for {text}")
        if len(small) <= 24:
            require(result is O.holds(f, small.text), f"model_check is wrong for {text} on {small.text}")

    return Op("model_check", lambda: api.model_check(api.parse_formula(text, alphabet), w), check)


def _shrink(api, w, n: int) -> Op:
    def check(out):
        k = len(set(w.text))
        require(len(out) <= O.small_model_bound(n, k), f"shrink(w, {n}) has {len(out)} letters")
        require(O.equivalent(w.text, out.text, n), f"shrink(w, {n}) = {out.text} is not ≡_{n} w")

    return Op("shrink", lambda: api.shrink(w, n), check)


def _sat(api, f: tuple, alphabet, status: str, witness: Optional[str], explored: Optional[int],
         fault: Optional[str] = None, **kwargs) -> Op:
    text = O.render(f)

    def check(result):
        d = result.to_json_dict()
        require(d["status"] == status and d["witness"] == witness,
                f"sat_search({text}, {kwargs}) gave {d}, expected {status} {witness}")
        if witness is not None:
            require(O.holds(f, witness), f"sat witness {witness} is not a model of {text}")
        if explored is not None:
            require(d["exploredBound"] == explored, f"exploredBound {d['exploredBound']} != {explored}")

    run = lambda: api.sat_search(api.parse_formula(text, alphabet), alphabet, **kwargs)
    return Op("sat_search" if fault is None else "sat_search_definitive_depth2", run, check, fault)


def random_cnf(rng: random.Random, variables: int, clauses: int) -> list[tuple[int, ...]]:
    return [
        tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, variables + 1), 3))
        for _ in range(clauses)
    ]


_SIGNS = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]


def dimacs(variables: int, clauses) -> str:
    return f"p cnf {variables} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)


def _cnf(api, variables: int, clauses) -> Op:
    text = dimacs(variables, clauses)
    bits = api.Alphabet(("0", "1"))

    def run():
        formula, n = api.cnf_to_fo2(api.parse_dimacs(text))
        return api.sat_search(formula, bits, exact_len=n)

    def check(result):
        sat = O.cnf_satisfiable(clauses, variables)
        require((result.status.value == "sat") is sat, f"CNF {clauses} is {'' if sat else 'un'}satisfiable")
        if sat:
            require(len(result.witness) == variables and O.cnf_satisfied(clauses, result.witness.text),
                    f"{result.witness.text} does not satisfy {clauses}")

    return Op("cnf_sat", run, check)


# Unsatisfiable depth-2 sentences asked for a definitive verdict: sat_search
# enumerates every word up to the small-model bound 2*2*(4*2+2) = 40, 2^41
# words, so it raises SearchBudgetError on every run.
DEPTH2_UNSAT = (
    "(Ex.(a(x) & Ey.(x<y & b(y)))) & !(Ex.(a(x) & Ey.(x<y & b(y))))",
    "(Ax.(b(x) -> Ey.(y<x & a(y)))) & !(Ax.(b(x) -> Ey.(y<x & a(y))))",
)


def formulas_solver_round(api, rng: random.Random, ops: list) -> None:
    ab = api.Alphabet(("a", "b"))
    # Model checking costs about L^3 per quantifier, and every sentence of
    # depth d has the same number of quantifiers, but how many rows a
    # quantifier keeps still moves a check's cost by up to 2x with the
    # sentence. So the seven middle-sized checks hold the median latency with
    # nine cheaper and nine dearer operations around them, and the median
    # falls mid-group, not at its edge. The three long checks, with the
    # longest shrink and the depth-1 search, hold the 90th percentile.
    for depth, length in [(2, 200)] * 5 + [(3, 500)] * 7 + [(4, 1200)] * 3:
        ops.append(_model_check(api, sentence(rng, depth, "ab"), _word(api, rng, "ab", length), depth))
    for letters, n, length in (("ab", 2, 2000), ("abc", 3, 4000), ("ab", 4, 8000)):
        ops.append(_shrink(api, _word(api, rng, letters, length), n))
    for depth in (2, 3):
        f, model = _sentence_with_model(rng, depth, "ab", 4)
        ops.append(_sat(api, f, ab, "sat", model, None))
    ops.append(_sat(api, _contradiction(rng, 2, "ab"), ab, "unsat-up-to-bound", None, 10, max_len=10))
    # depth 1: truth depends only on the set of letters, so every class has
    # its shortlex-first member among "", "a", "b", "ab"
    f, model = _sentence_with_model(rng, 1, "ab", 2)
    ops.append(_sat(api, f, ab, "sat", model, None))
    ops.append(_sat(api, _contradiction(rng, 1, "ab"), ab, "unsat-definitive", None, 12))
    # an unsatisfiable CNF (all eight sign patterns over three variables, plus
    # random clauses) makes the search visit every assignment, whatever the
    # seed; the small random one may go either way
    core = rng.sample(range(1, 7), 3)
    unsat = [tuple(v * sign for v, sign in zip(core, signs)) for signs in _SIGNS] + random_cnf(rng, 6, 12)
    ops.append(_cnf(api, 6, unsat))
    ops.append(_cnf(api, 4, random_cnf(rng, 4, 10)))
    for text in DEPTH2_UNSAT:
        ops.append(_sat(api, O.parse(text), ab, "unsat-definitive", None, 40, "SearchBudgetError", word_budget=2000))


# --- cli ----------------------------------------------------------------------------

class CliRunner:
    """Runs one CLI command: as a fresh ``python -m fo2words.cli`` process, or,
    in the traced run, in-process through ``cli.main``."""

    def __init__(self, root: Path, workdir: Path, in_process: bool):
        self.root, self.workdir, self.in_process = root, workdir, in_process
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.files = 0
        self.schemas = {p.stem.split(".")[0]: json.loads(p.read_text()) for p in (root / "schema").glob("*.v1.json")}

    def file(self, text: str) -> str:
        self.files += 1
        path = self.workdir / f"input{self.files}.txt"
        path.write_text(text)
        return str(path)

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            import fo2words.cli as cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            return code, buf.getvalue()
        done = subprocess.run(
            [sys.executable, "-m", "fo2words.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=60,
        )
        return done.returncode, done.stdout

    def validate(self, record: dict, schema: str) -> None:
        import jsonschema

        try:
            jsonschema.validate(record, self.schemas[schema])
        except jsonschema.ValidationError as e:
            raise O.CheckFailure(f"{schema} schema: {e.message}") from None


def _cli(runner: CliRunner, kind: str, argv: list[str], check: Callable[[str], None]) -> Op:
    def checked(result):
        code, out = result
        require(code == 0, f"fo2words {' '.join(argv)} exited {code}")
        check(out)

    return Op(kind, lambda: runner(argv), checked)


def _random_ranker(rng: random.Random, letters: str, steps: int) -> str:
    return "".join(rng.choice("<>") + rng.choice(letters) for _ in range(steps))


# Hierarchy levels for verify-hierarchy, one per round in this order: the
# witness words do not depend on the seed, so neither does the level.
CLI_LEVELS = [(3, 1, True), (2, 1, True), (1, 1, True)] + [(m, n, False) for m in (3, 2, 1) for n in (3, 2, 1)]


def cli_round(api, rng: random.Random, ops: list, runner: CliRunner, index: int) -> None:
    """The eleven documented commands. Round 0 uses the README's examples
    where the README gives an answer, and checks that answer too."""
    ab = "ab"
    readme = index == 0

    # eval-ranker
    ranker, word = (">a>c<b", "cababcba") if readme else (
        _random_ranker(rng, "abc", rng.randint(1, 3)), "".join(rng.choice("abc") for _ in range(rng.randint(6, 12))))
    pos = O.eval_ranker(O.parse_ranker(ranker), word)
    require(not readme or pos == 5, "README: eval-ranker >a>c<b cababcba -> 5")
    ops.append(_cli(runner, "eval-ranker", ["eval-ranker", ranker, word],
                    lambda out, pos=pos: require(out.strip() == ("UNDEFINED" if pos is None else str(pos)),
                                                 f"eval-ranker printed {out.strip()}, expected {pos}")))

    # rankers
    word = "ababa" if readme else "".join(rng.choice(ab) for _ in range(rng.randint(6, 10)))
    fam = O.family(word, "".join(sorted(set(word))), 2)
    expected = {("".join(d + c for d, _, c, _ in r), str(p)) for r, p in fam.items()}
    ops.append(_cli(runner, "rankers", ["rankers", word, "-n", "2"],
                    lambda out, expected=expected: require(
                        {tuple(line.split("\t")) for line in out.splitlines()} == expected,
                        "rankers printed another realized family")))

    # equiv --method both
    u, v, n = ("ab", "ba", 2) if readme else (
        "".join(rng.choice(ab) for _ in range(rng.randint(5, 8))),
        "".join(rng.choice(ab) for _ in range(rng.randint(5, 8))), rng.randint(2, 3))
    truth = O.equivalent(u, v, n)

    def check_equiv(out, u=u, v=v, n=n, truth=truth):
        record = json.loads(out)
        runner.validate(record["ranker"], "equiv_report")
        O.check_equiv_report(record["ranker"], u, v, n, None, False)
        require(record["verdict"] is truth and record["methodsAgree"] is True,
                f"equiv {u} {v} -n {n}: verdict {record['verdict']}, expected {truth}")

    ops.append(_cli(runner, "equiv", ["equiv", u, v, "-n", str(n), "--method", "both"], check_equiv))

    # check
    f = sentence(rng, rng.randint(2, 3), ab)
    word = "".join(rng.choice(ab) for _ in range(rng.randint(6, 10)))
    truth = O.holds(f, word)
    ops.append(_cli(runner, "check", ["check", runner.file(O.render(f)), word, "--alphabet", ab],
                    lambda out, truth=truth: require(out.strip() == str(truth).lower(), "check printed the wrong truth value")))

    # metrics
    f = sentence(rng, rng.randint(1, 4), ab)

    def check_metrics(out, depth=O.quantifier_depth(f)):
        record = json.loads(out)
        require(record["quantifierDepth"] == depth and record["freeVars"] == [] and not record["usesSuccessor"],
                f"metrics gave {record}, expected depth {depth}")

    ops.append(_cli(runner, "metrics", ["metrics", runner.file(O.render(f)), "--alphabet", ab, "--format", "json"],
                    check_metrics))

    # synth
    ranker = ">a<b" if readme else _random_ranker(rng, ab, rng.randint(1, 3))
    position = readme or rng.random() < 0.5
    probes = ["".join(rng.choice(ab) for _ in range(rng.randint(1, 6))) for _ in range(4)]

    def check_synth(out, ranker=ranker, position=position, probes=probes):
        f = O.parse(json.loads(out)["formula"])
        steps = O.parse_ranker(ranker)
        for w in probes:
            at = O.eval_ranker(steps, w)
            if position:
                for i in range(1, len(w) + 1):
                    require(O.holds(f, w, x=i) is (at == i), f"synth {ranker} --position is wrong on {w} at {i}")
            else:
                require(O.holds(f, w) is (at is not None), f"synth {ranker} is wrong on {w}")

    ops.append(_cli(runner, "synth", ["synth", ranker, "--format", "json"] + (["--position"] if position else []),
                    check_synth))

    # witness
    m, n = (2, 1) if readme else (rng.randint(1, 4), rng.randint(1, 3))

    def check_witness(out, m=m, n=n):
        record = json.loads(out)
        runner.validate(record, "witness_pair")
        u, v = record["u"], record["v"]
        require(not readme or (u, v) == ("ababa", "baba"), "README: witness -m 2 -n 1 -> ababa / baba")
        require(any(u[i] == "a" and u[:i] + u[i + 1:] == v for i in range(len(u))),
                "v is not u with one occurrence of the first letter deleted")
        if m >= 2:
            require(O.equivalent(u, v, n, m - 1), f"witness pair ({m},{n}) is distinguishable with m-1 blocks")

    ops.append(_cli(runner, "witness", ["witness", "-m", str(m), "-n", str(n), "--format", "json"], check_witness))

    # verify-hierarchy
    m, n, suc = (3, 3, False) if readme else CLI_LEVELS[(index - 1) % len(CLI_LEVELS)]

    def check_level(out):
        record = json.loads(out)
        runner.validate(record, "hierarchy_report")
        require(record["ok"] is True, f"verify-hierarchy level {record['m']},{record['n']} is not ok")

    ops.append(_cli(runner, "verify-hierarchy",
                    ["verify-hierarchy", "-m", str(m), "-n", str(n)] + (["--suc"] if suc else []), check_level))

    # sat
    f, model = _sentence_with_model(rng, rng.randint(1, 2), ab, 4)

    def check_sat(out, model=model):
        record = json.loads(out)
        runner.validate(record, "sat_result")
        require(record["status"] == "sat" and record["witness"] == model,
                f"sat gave {record['status']} {record['witness']}, expected the model {model}")

    ops.append(_cli(runner, "sat", ["sat", runner.file(O.render(f)), "--alphabet", ab], check_sat))

    # shrink
    letters = rng.choice(("ab", "abc"))
    word, n = ("abbbbbbbbba", 2) if readme else (
        "".join(rng.choice(letters) for _ in range(rng.randint(30, 60))), rng.randint(1, 2))

    def check_shrink(out, word=word, n=n):
        out = out.strip()
        require(not readme or out == "abbbba", "README: shrink abbbbbbbbba -n 2 -> abbbba")
        require(len(out) <= O.small_model_bound(n, len(set(word))) and O.equivalent(word, out, n),
                f"shrink {word} -n {n} printed {out}")

    ops.append(_cli(runner, "shrink", ["shrink", word, "-n", str(n)], check_shrink))

    # reduce-cnf --solve
    variables = rng.randint(3, 4)
    clauses = random_cnf(rng, variables, rng.randint(4, 8))

    def check_cnf(out, clauses=clauses, variables=variables):
        record = json.loads(out)
        runner.validate(record["sat"], "sat_result")
        sat = O.cnf_satisfiable(clauses, variables)
        require((record["sat"]["status"] == "sat") is sat, f"reduce-cnf --solve on {clauses}: {record['sat']}")
        if sat:
            require(O.cnf_satisfied(clauses, record["sat"]["witness"]), "reduce-cnf witness is not a model")

    ops.append(_cli(runner, "reduce-cnf", ["reduce-cnf", runner.file(dimacs(variables, clauses)), "--solve"], check_cnf))


# --- traced runs ---------------------------------------------------------------------

def layer_probe(api) -> None:
    """One small call into every layer. Each traced run ends with it, so every
    per-layer figure is measured on every workload; on a workload that never
    calls a layer, the probe is all that layer shows."""
    import fo2words.cli as cli

    ab = api.Alphabet(("a", "b"))
    u, v = api.Word(ab, "abab"), api.Word(ab, "baba")
    api.ranker_equiv(u, v, 2)
    api.game_equiv(u, v, 2)
    api.verify_hierarchy_level(1, 1)
    api.sat_search(api.parse_formula("Ex.(a(x) & Ey.(x<y & b(y)))", ab), ab)
    api.shrink(api.Word(ab, "aaaaabbbbb"), 1)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["witness", "-m", "2", "-n", "1"])


# --- rounds ----------------------------------------------------------------------------

# Seconds of timed work in one round on the reference machine; a run executes
# seconds / ROUND_SECONDS rounds, and at least enough for 100 operations so
# that the 90th percentile has ten samples beyond it.
ROUND_SECONDS = {"decide-rankers": 3.0, "games-hierarchy": 0.7, "formulas-solver": 3.5, "cli": 3.5}
MIN_OPS = 100
# The calibrate.py kernels that scale each workload's times: the kinds of
# work it does. decide-rankers spends more than half of its time in the
# operating system, faulting in the pages of its R×R arrays, and cli starts
# a fresh interpreter per command; the other two run in user space.
CALIBRATION = {
    "decide-rankers": calibrate.CPU + ("fresh_pages",),
    "games-hierarchy": calibrate.CPU,
    "formulas-solver": calibrate.CPU,
    "cli": calibrate.CPU + ("fresh_pages",),
}


def build(name: str, seed: int, seconds: int, api, root: Path, workdir: Path, traced: bool) -> list[Op]:
    if name == "cli":
        runner = CliRunner(root, workdir, in_process=traced)
        make = lambda rng, ops, r: cli_round(api, rng, ops, runner, r)
    else:
        body = {"decide-rankers": decide_rankers_round, "games-hierarchy": games_hierarchy_round,
                "formulas-solver": formulas_solver_round}[name]
        make = lambda rng, ops, r: body(api, rng, ops)
    first: list[Op] = []
    make(random.Random(f"{name}/{seed}/0"), first, 0)
    rounds = max(math.ceil(MIN_OPS / len(first)), round(seconds / ROUND_SECONDS[name]))
    # One fixed order of a round's operations, the same for every seed, that
    # spreads each kind over the round: the operations that set a percentile
    # then meet the host at many moments of a run, not in one burst per round.
    order = list(range(len(first)))
    random.Random(name).shuffle(order)
    ops: list[Op] = []
    for r in range(rounds):
        this: list[Op] = first if r == 0 else []
        if r:
            make(random.Random(f"{name}/{seed}/{r}"), this, r)
        assert len(this) == len(order), f"round {r} of {name} has {len(this)} operations, not {len(order)}"
        ops.extend(this[i] for i in order)
    return ops


WORKLOADS = tuple(ROUND_SECONDS)
