import itertools
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from fo2words import (
    Alphabet,
    And,
    Cnf,
    Equal,
    Exists,
    Forall,
    FormulaSyntaxError,
    FreeVariableError,
    LetterAtom,
    Less,
    Not,
    Or,
    Implies,
    Signature,
    SignatureError,
    Suc,
    UnknownLetterError,
    Word,
    all_words,
    cnf_to_fo2,
    eval_ranker,
    eval_suc_ranker,
    formula_metrics,
    free_vars,
    model_check,
    nnf,
    parse_formula,
    parse_ranker,
    realized_rankers,
    realized_suc_rankers,
    render_formula,
    satisfying_positions,
    shrink,
    synth_comparison,
    synth_definedness,
    synth_position,
    unique_position_report,
)
from fo2words import formulas
from fo2words.formulas import Formula, _Program
from fo2words.rankers import DEFAULT_ENUMERATION_CAP, _walk

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def W(text, alphabet=AB):
    return Word(alphabet, text)


# --- syntax -----------------------------------------------------------------

def test_node_classes_with_equal_fields_stay_distinct():
    x_y = ("x", "y")
    a, b = LetterAtom("a", "x"), Less("y", "x")
    for group in (
        [Less(*x_y), Equal(*x_y), Suc(*x_y)],
        [And(a, b), Or(a, b), Implies(a, b)],
        [Exists("x", a), Forall("x", a)],
    ):
        for f, g in itertools.combinations(group, 2):
            assert f != g and g != f
        for f in group:
            assert f == type(f)(*(getattr(f, k) for k in f.__dataclass_fields__))
            assert repr(f).startswith(type(f).__name__ + "(")
    assert repr(Suc("x", "y")) == "Suc(left='x', right='y')"
    assert repr(Forall("y", Equal("y", "y"))) == "Forall(var='y', body=Equal(left='y', right='y'))"
    assert len({Less(*x_y), Equal(*x_y), Suc(*x_y), Less(*x_y)}) == 3
    with pytest.raises(ValueError):
        Suc("x", "z")
    with pytest.raises(ValueError):
        Forall("z", a)


# --- parsing ---------------------------------------------------------------

def test_parse_examples():
    f = parse_formula("Ex. a(x)", AB)
    assert f == Exists("x", LetterAtom("a", "x"))
    with pytest.raises(UnknownLetterError):
        parse_formula("Ex. z(x)", AB)
    with pytest.raises(SignatureError):
        parse_formula("Ex.Ey.(x<y & suc(x,y))", AB, Signature.ORDER)
    parse_formula("Ex.Ey.(x<y & suc(x,y))", AB, Signature.ORDER_SUC)


def test_parse_signature_must_be_a_signature_member():
    # unchecked, "order+successor" would be parsed as the order signature
    with pytest.raises(ValueError, match="must be a Signature"):
        parse_formula("Ex.Ey.suc(x,y)", AB, "order+successor")


def test_parse_precedence():
    f = parse_formula("a(x) & b(x) | a(y) -> b(y)", AB)
    assert f == Implies(
        Or(And(LetterAtom("a", "x"), LetterAtom("b", "x")), LetterAtom("a", "y")),
        LetterAtom("b", "y"),
    )
    # quantifier scope extends maximally right
    f = parse_formula("Ex. a(x) & b(x)", AB)
    assert f == Exists("x", And(LetterAtom("a", "x"), LetterAtom("b", "x")))
    # implication is right associative
    f = parse_formula("a(x) -> b(x) -> a(y)", AB)
    assert f == Implies(LetterAtom("a", "x"), Implies(LetterAtom("b", "x"), LetterAtom("a", "y")))


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("Ex. a(x) &", AB)
    assert exc.value.position == 10
    with pytest.raises(FormulaSyntaxError):
        parse_formula("Ex. (a(x)", AB)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("Ez. a(z)", AB)


def test_letter_vs_variable_disambiguation():
    xy = Alphabet(("x", "y"))
    f = parse_formula("Ex. x(x)", xy)
    assert f == Exists("x", LetterAtom("x", "x"))
    f = parse_formula("Ex.Ey. x<y", xy)
    assert f == Exists("x", Exists("y", Less("x", "y")))


from parse_reference import reference_parse  # noqa: E402

# grammar pieces, and letters that the grammar also uses, so that every
# branch between a quantifier, suc, a variable and a letter is taken
PARSER_PIECES = (
    "Ex.", "Ay.", "Ez.", "E(x)", "x(y)", "suc(x,y)", "suc (", "x <  y", "->", "-", "&(x)", "((",
    "\t", "\n", "\u00a0", " ", "!", "(", ")", "&", "|", "a(x)", "y=x", "E", "A", "x", "y", "s", ",",
)
PARSER_LETTERS = ("ab", "aE", "Ay", "xys", "&|", "()-!", "aExAy", "s&|()-!", "EAxys&|()-!")


def _gap(rng):
    return rng.choice(("", "", " ", "\t", "\n", "\u00a0"))


def _formula_text(rng, depth):
    """Text that mostly parses: operands and connectives with random whitespace."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("a(x)", "b(y)", "x<y", "y = x", "suc(x,y)", "E(x)", "x(y)", "&(x)", "s(y)"))
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(("Ex.", "Ay.", "!")) + _gap(rng) + _formula_text(rng, depth - 1)
    if kind == 1:
        return "(" + _gap(rng) + _formula_text(rng, depth - 1) + _gap(rng) + ")"
    op = rng.choice(("&", "|", "->"))
    return _formula_text(rng, depth - 1) + _gap(rng) + op + _gap(rng) + _formula_text(rng, depth - 1)


def _parse_outcome(parse, text, alphabet, signature):
    try:
        return parse(text, alphabet, signature)
    except Exception as e:  # the type, message and position are what must match
        return type(e), str(e), getattr(e, "position", None)


def test_parser_matches_reference_on_fuzzed_text():
    rng = random.Random(1212)
    alphabets = [Alphabet(tuple(letters)) for letters in PARSER_LETTERS]
    kinds = set()
    for _ in range(50_000):
        if rng.random() < 0.5:
            text = "".join(rng.choice(PARSER_PIECES) for _ in range(rng.randint(0, 10)))
        else:
            text = _formula_text(rng, 4)
            if rng.random() < 0.5:
                i = rng.randint(0, len(text))
                text = text[:i] + rng.choice(PARSER_PIECES) + text[i + rng.randint(0, 2) :]
        alphabet, signature = rng.choice(alphabets), rng.choice(list(Signature))
        got = _parse_outcome(parse_formula, text, alphabet, signature)
        assert got == _parse_outcome(reference_parse, text, alphabet, signature), repr(text)
        kinds.add(got[0] if isinstance(got, tuple) else "parsed")
    assert kinds == {"parsed", FormulaSyntaxError, UnknownLetterError, SignatureError}


# --- random formula corpus ---------------------------------------------------

from helpers import random_formula  # noqa: E402
from mc_reference import _BitContext  # noqa: E402


def test_nnf_examples():
    f = nnf(Not(Exists("x", LetterAtom("a", "x"))))
    assert f == Forall("x", Not(LetterAtom("a", "x")))
    assert nnf(Not(Not(LetterAtom("a", "x")))) == LetterAtom("a", "x")
    f = nnf(Not(And(LetterAtom("a", "x"), LetterAtom("b", "y"))))
    assert f == Or(Not(LetterAtom("a", "x")), Not(LetterAtom("b", "y")))


def test_nnf_constant_folding():
    f = nnf(And(Equal("x", "x"), LetterAtom("a", "x")))
    assert f == LetterAtom("a", "x")
    assert nnf(Not(Equal("x", "x"))) == Less("x", "x")


def test_nnf_preserves_truth_random_corpus():
    rng = random.Random(1105)
    words = [W("".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))) for _ in range(40)]
    for _ in range(500):
        f = random_formula(rng, rng.randint(0, 3), bound=("x", "y"))
        g = nnf(f)
        for w in rng.sample(words, 5):
            i = rng.randint(1, len(w))
            j = rng.randint(1, len(w))
            assert model_check(f, w, i, j) == model_check(g, w, i, j)


def test_metrics_idempotent_under_nnf():
    rng = random.Random(7)
    for _ in range(300):
        f = random_formula(rng, rng.randint(0, 4), bound=("x",))
        m1 = formula_metrics(f)
        m2 = formula_metrics(nnf(f))
        assert (m1.quantifier_depth, m1.alternation_depth) == (
            m2.quantifier_depth,
            m2.alternation_depth,
        )


def test_metrics_examples():
    m = formula_metrics(parse_formula("Ex. a(x)", AB))
    assert (m.quantifier_depth, m.alternation_depth) == (1, 1)
    m = formula_metrics(parse_formula("Ex.Ey. x<y", AB))
    assert (m.quantifier_depth, m.alternation_depth) == (2, 1)
    m = formula_metrics(parse_formula("Ex.Ay. (y<x | a(y))", AB))
    assert (m.quantifier_depth, m.alternation_depth) == (2, 2)
    m = formula_metrics(parse_formula("suc(x,y)", AB, Signature.ORDER_SUC))
    assert m.uses_successor and m.free_vars == {"x", "y"}
    assert m.quantifier_depth == 0 and m.alternation_depth == 0


def test_alternation_counted_on_nnf():
    # raw syntax shows two existentials in a row, but pushing the negations
    # to the atoms reveals a forall/exists alternation
    f = parse_formula("!Ex.!Ey. x<y", AB)
    assert nnf(f) == Forall("x", Exists("y", Less("x", "y")))
    m = formula_metrics(f)
    assert m.quantifier_depth == 2
    assert m.alternation_depth == 2


def _two_pass_qdepth(f):
    if isinstance(f, Not):
        return _two_pass_qdepth(f.body)
    if isinstance(f, (And, Or, Implies)):
        return max(_two_pass_qdepth(f.left), _two_pass_qdepth(f.right))
    if isinstance(f, (Exists, Forall)):
        return 1 + _two_pass_qdepth(f.body)
    return 0


def _two_pass_alt_depth(f, last):
    if isinstance(f, Not):
        return _two_pass_alt_depth(f.body, last)
    if isinstance(f, (And, Or, Implies)):
        return max(_two_pass_alt_depth(f.left, last), _two_pass_alt_depth(f.right, last))
    if isinstance(f, (Exists, Forall)):
        return (0 if last is type(f) else 1) + _two_pass_alt_depth(f.body, type(f))
    return 0


def test_metrics_match_two_pass_reference():
    # the depth and the alternation depth were once two walks of the NNF
    rng = random.Random(1213)
    for i in range(3000):
        signature = (Signature.ORDER, Signature.ORDER_SUC)[i % 2]
        bound = ((), ("x",), ("y",), ("x", "y"))[i // 2 % 4]
        f = random_formula(rng, rng.randint(0, 4), signature=signature, bound=bound)
        m, nf = formula_metrics(f), nnf(f)
        assert (m.quantifier_depth, m.alternation_depth) == (
            _two_pass_qdepth(nf),
            _two_pass_alt_depth(nf, None),
        )


@pytest.mark.parametrize(
    "text, depth, alternation",
    [
        ("Ey.((Ex.a(x)) | y=y)", 1, 1),  # the true constant absorbs Ex.a(x)
        ("Ex.(x<x & Ey.a(y))", 1, 1),  # the false constant absorbs Ey.a(y)
        # raw syntax alternates E and A; the NNF is one block of A
        ("!Ex.((Ay.a(y)) -> Ex.b(x))", 2, 1),  # Ax.(Ay.a(y) & Ax.!b(x))
        ("!Ex.((Ay.a(y)) -> (Ay.b(y)) -> Ey.a(y))", 2, 1),  # Ax.(Ay.a(y) & Ay.b(y) & Ay.!a(y))
    ],
)
def test_metrics_after_folding_and_negated_implications(text, depth, alternation):
    m = formula_metrics(parse_formula(text, AB))
    assert (m.quantifier_depth, m.alternation_depth) == (depth, alternation)


def test_model_check_examples():
    assert model_check(parse_formula("Ex. a(x)", AB), W("bab")) is True
    assert model_check(parse_formula("Ex. a(x)", AB), W("")) is False
    assert model_check(parse_formula("a(x)", AB), W("bab"), x_pos=2) is True
    assert model_check(parse_formula("Ax. a(x)", AB), W("")) is True
    # on the empty word every Ev.phi is false and every Av.phi is true
    empty = {
        "Ax.Ey.x<y": True,
        "Ex.Ay.x<y": False,
        "!Ax.a(x)": False,
        "!Ex.a(x)": True,
        "Ax.!Ey.(x=y)": True,
        "!Ex.Ay.(a(x) -> y<x)": True,
        "(Ex.a(x)) | !(Ay.b(y))": False,
        "(Ax.a(x)) & ((Ex.x=x) -> (Ey.y<y))": True,
    }
    for text, holds in empty.items():
        assert model_check(parse_formula(text, AB), W("")) is holds, text
        assert satisfying_positions(parse_formula(text, AB), W("")) == ()


def test_model_check_successor_semantics():
    f = parse_formula("suc(x,y)", AB, Signature.ORDER_SUC)
    w = W("ab")
    assert model_check(f, w, x_pos=1, y_pos=2) is True
    assert model_check(f, w, x_pos=2, y_pos=1) is False
    assert model_check(f, w, x_pos=1, y_pos=1) is False


def test_model_check_requires_assignments():
    with pytest.raises(FreeVariableError):
        model_check(parse_formula("a(x)", AB), W("ab"))
    x_before_y = parse_formula("x < y", AB)
    with pytest.raises(FreeVariableError, match="free variable y"):
        model_check(x_before_y, W("ab"), x_pos=1)
    assert model_check(x_before_y, W("ab"), x_pos=1, y_pos=2) is True
    with pytest.raises(FreeVariableError):
        satisfying_positions(parse_formula("a(y)", AB), W("ab"))
    with pytest.raises(ValueError):
        model_check(parse_formula("a(x)", AB), W("ab"), x_pos=3)


_FREE_VARIABLE_MESSAGES = [
    "expected free variables within {x}, got {x, y}",
    "expected exactly the free variable x, got {x, y}",
]
_PRINT_FREE_VARIABLE_MESSAGES = """
from fo2words import Alphabet, FreeVariableError, Word, parse_formula
from fo2words import satisfying_positions, unique_position_report
f, w = parse_formula("a(x) & b(y)", Alphabet(("a", "b"))), Word(Alphabet(("a", "b")), "ab")
for call in (lambda: satisfying_positions(f, w), lambda: unique_position_report(f, [w])):
    try:
        call()
    except FreeVariableError as e:
        print(e)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_free_variable_messages_do_not_depend_on_hash_seed(hash_seed):
    # the variable names are rendered sorted, whatever order the set holds them in
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", _PRINT_FREE_VARIABLE_MESSAGES],
                            env=env, capture_output=True, text=True)
    assert result.stdout.splitlines() == _FREE_VARIABLE_MESSAGES, result.stderr


def test_model_check_brute_force_agreement():
    # column evaluation against a naive recursive evaluator
    def naive(f, w, env):
        if isinstance(f, LetterAtom):
            return w.letter(env[f.var]) == f.letter
        if isinstance(f, Less):
            return env[f.left] < env[f.right]
        if isinstance(f, Equal):
            return env[f.left] == env[f.right]
        if isinstance(f, Suc):
            return env[f.left] + 1 == env[f.right]
        if isinstance(f, Not):
            return not naive(f.body, w, env)
        if isinstance(f, And):
            return naive(f.left, w, env) and naive(f.right, w, env)
        if isinstance(f, Or):
            return naive(f.left, w, env) or naive(f.right, w, env)
        if isinstance(f, Implies):
            return not naive(f.left, w, env) or naive(f.right, w, env)
        if isinstance(f, Exists):
            return any(naive(f.body, w, {**env, f.var: i}) for i in w.positions())
        if isinstance(f, Forall):
            return all(naive(f.body, w, {**env, f.var: i}) for i in w.positions())
        raise TypeError(f)

    rng = random.Random(42)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 2), signature=Signature.ORDER_SUC, bound=("x", "y"))
        w = W("".join(rng.choice("ab") for _ in range(rng.randint(1, 5))))
        i, j = rng.randint(1, len(w)), rng.randint(1, len(w))
        assert model_check(f, w, i, j) == naive(f, w, {"x": i, "y": j})


def test_model_check_matches_table_reference():
    # every assignment on every {a,b} word up to length 3, the empty word
    # included, and on seeded longer words, against the L*L bit tables
    words = [W("".join(t)) for n in range(4) for t in itertools.product("ab", repeat=n)]
    rng = random.Random(2024)
    words += [W("".join(rng.choice("ab") for _ in range(rng.randint(4, 8)))) for _ in range(6)]
    rng = random.Random(5)
    for signature in Signature:
        for bound in [(), ("x",), ("y",), ("x", "y")]:
            for _ in range(40):
                f = random_formula(rng, 3, AB, signature, bound)
                fv = free_vars(f)
                for w in words:
                    L = len(w)
                    table = _BitContext(w).eval(f)
                    positions = list(range(1, L + 1))
                    xs = positions if "x" in fv else [None] + positions
                    ys = positions if "y" in fv else [None] + positions
                    for x, y in itertools.product(xs, ys):
                        cell = ((x or 1) - 1) * L + (y or 1) - 1
                        expected = bool(table >> cell & 1)
                        assert model_check(f, w, x, y) is expected, (render_formula(f), w.text, x, y)
                    if fv <= {"x"}:
                        expected = tuple(i for i in positions if table >> ((i - 1) * L) & 1)
                        assert satisfying_positions(f, w) == expected, (render_formula(f), w.text)


def test_one_program_matches_reference_across_words():
    # One compiled program per formula runs on a sequence of words whose
    # lengths go up and down, among them the empty word and words that lack a
    # letter. A value kept from an earlier word, or two subformulas wrongly
    # shared, changes some cell against the L*L bit tables.
    def words(letters, seed):
        rng = random.Random(seed)
        out = []
        for n, used in zip([3, 0, 6, 1, 8, 2, 5, 0, 7, 4], itertools.cycle([letters, letters[0], letters, letters[1]])):
            out.append(Word(Alphabet(tuple(letters)), "".join(rng.choice(used) for _ in range(n))))
        return out

    def agrees(f, ws):
        program = _Program(f)
        fv = free_vars(f)
        for w in ws:
            L = len(w)
            table = _BitContext(w).eval(f)
            positions = list(range(1, L + 1))
            xs = positions if "x" in fv else [None] + positions
            ys = positions if "y" in fv else [None] + positions
            for x, y in itertools.product(xs, ys):
                cell = ((x or 1) - 1) * L + (y or 1) - 1
                holds = program.holds(w.text, w.alphabet, x or 1, y or 1)
                assert holds == bool(table >> cell & 1), (render_formula(f), w.text, x, y)
            if fv <= {"x"}:
                expected = tuple(i for i in positions if table >> ((i - 1) * L) & 1)
                assert program.positions(w.text, w.alphabet) == expected, (render_formula(f), w.text)

    ab_words = words("ab", 17)
    rng = random.Random(88)
    for signature in Signature:
        for bound in [(), ("x",), ("y",), ("x", "y")]:
            for _ in range(40):
                agrees(random_formula(rng, 3, AB, signature, bound), ab_words)
    psi = parse_formula("Ex.(a(x) & Ay.(x<y -> b(y)))", AB)
    agrees(And(psi, Not(psi)), ab_words)
    agrees(Or(psi, Not(parse_formula(render_formula(psi), AB))), ab_words)
    # chi has x free: under Ex its letters are columns over the bound
    # variable, under Ey they are columns over the free one
    chi = Or(LetterAtom("a", "x"), Exists("y", And(Less("x", "y"), LetterAtom("b", "y"))))
    agrees(And(Exists("x", chi), Forall("x", Exists("y", And(Less("y", "x"), chi)))), ab_words)
    agrees(Exists("y", And(Equal("x", "y"), chi)), ab_words)
    sentence, _ = cnf_to_fo2(Cnf(3, ((1, -2, 1), (2, 3, 2), (-1, -3, -1), (-2, 3))))
    agrees(sentence, words("01", 23))


def test_model_check_keeps_no_tables():
    rng = random.Random(1500)
    w = W("".join(rng.choice("ab") for _ in range(1500)))
    f = parse_formula("Ax.(a(x) -> Ey.(x<y & b(y) & Ax.(y<x -> Ey.(x<y & a(y) & !b(x)))))", AB)
    assert formula_metrics(f).quantifier_depth == 4
    expected = model_check(f, shrink(w, 4))
    tracemalloc.start()
    try:
        verdict = model_check(f, w)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict is expected
    assert held < 500_000, held
    assert peak < 1_000_000, peak


def test_deep_formulas_still_check():
    # 990 levels of one node kind each; the checker must not nest a Python
    # frame per level beyond what free_vars already uses. The checks run on
    # a fresh thread, whose stack starts as shallow as a script's, because
    # the test runner's own frames would otherwise count against the limit.
    depth = 990
    quantified = Less("x", "y")
    for i in range(depth):
        quantified = (Exists if i % 4 < 2 else Forall)("xy"[i % 2], quantified)
    negated = Exists("x", LetterAtom("a", "x"))
    for _ in range(depth):
        negated = Not(negated)
    conjoined = Exists("x", LetterAtom("b", "x"))
    for i in range(depth):
        conjoined = And(Exists("x", LetterAtom("ab"[i % 2], "x")), conjoined)
    cases = [(quantified, "ab", "a"), (negated, "ba", "bb"), (conjoined, "ab", "aa")]
    verdicts = []

    def check():
        for f, true_on, false_on in cases:
            verdicts.append((model_check(f, W(true_on)), model_check(f, W(false_on))))

    thread = threading.Thread(target=check)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert verdicts == [(True, False)] * len(cases)


def test_render_parse_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 3), signature=Signature.ORDER_SUC, bound=("x", "y"))
        assert parse_formula(render_formula(f), AB, Signature.ORDER_SUC) == f


# --- shared subformulas ----------------------------------------------------------

def _distinct_nodes(f):
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += [c for c in vars(node).values() if isinstance(c, Formula)]
    return len(seen)


def _tree_nodes(f):
    return 1 + sum(_tree_nodes(c) for c in vars(f).values() if isinstance(c, Formula))


def _random_ranker_text(rng, successor):
    # step i of a successor ranker reads at most i letters a side (0-based i)
    steps = []
    for i in range(rng.randint(1, 6)):
        d, c = rng.choice("><"), rng.choice("ab")
        if successor:
            before, after = ("".join(rng.choices("ab", k=rng.randint(0, min(i, 2)))) for _ in "ba")
            steps.append(f"{d}[{before}|{c}|{after}]")
        else:
            steps.append(d + c)
    return "".join(steps)


def _agree_as_shared_and_unshared(f, alphabet, words):
    signature = Signature.ORDER_SUC if formula_metrics(f).uses_successor else Signature.ORDER
    g = parse_formula(render_formula(f), alphabet, signature)
    assert g == f
    assert formula_metrics(g) == formula_metrics(f)
    assert render_formula(nnf(g)) == render_formula(nnf(f))
    shared, unshared = _Program(f), _Program(g)
    assert (shared.size, shared.letters, shared.quantifiers) == (
        unshared.size, unshared.letters, unshared.quantifiers)
    fv = free_vars(f)
    assert free_vars(g) == fv
    for w in words:
        for x, y in itertools.product(*(list(w.positions()) if v in fv else [None] for v in "xy")):
            assert model_check(f, w, x, y) is model_check(g, w, x, y), (render_formula(f), w.text, x, y)


def test_shared_formulas_match_their_unshared_copies():
    # CNF translations and synthesized formulas share subformulas by object;
    # re-parsing their rendering gives the same formula as a tree
    rng = random.Random(36)
    zero_one = Alphabet(("0", "1"))
    bits = [Word(zero_one, "".join(t)) for n in range(5) for t in itertools.product("01", repeat=n)]
    ab_words = [W("".join(rng.choices("ab", k=rng.randint(0, 6)))) for _ in range(12)]
    saved = 0
    for _ in range(30):
        count = rng.randint(1, 4)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, count) for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(1, 4))
        )
        f, _ = cnf_to_fo2(Cnf(count, clauses))
        saved += _tree_nodes(f) - _distinct_nodes(f)
        _agree_as_shared_and_unshared(f, zero_one, bits)
    for _ in range(40):
        r = parse_ranker(_random_ranker_text(rng, rng.random() < 0.4))
        for f in (synth_definedness(r), synth_position(r), synth_comparison(r, rng.choice(["<", "<=", ">", ">="]))):
            saved += _tree_nodes(f) - _distinct_nodes(f)
            _agree_as_shared_and_unshared(f, AB, ab_words)
    assert saved > 1000  # the corpus does share


def test_shared_quantifier_in_two_bodies_and_both_polarities():
    # One Ey object with x free sits in the bodies of Ex, Ax and Ey.Ex, once
    # under a negation and once on an implication's left. Its NNF differs by
    # polarity, and each body that holds it must read its column.
    q = Exists("y", And(Less("x", "y"), LetterAtom("b", "y")))
    f = And(
        Exists("x", And(LetterAtom("a", "x"), q)),
        Or(
            Forall("x", Implies(q, Not(LetterAtom("b", "x")))),
            Exists("y", Exists("x", And(Less("y", "x"), Not(q)))),
        ),
    )
    assert _distinct_nodes(f) < _tree_nodes(f)
    words = [W("".join(t)) for n in range(6) for t in itertools.product("ab", repeat=n)]
    _agree_as_shared_and_unshared(f, AB, words)
    assert {model_check(f, w) for w in words} == {True, False}
    assert render_formula(nnf(Or(q, Not(q)))) == "((Ey.(x<y & b(y))) | (Ay.(!x<y | !b(y))))"


def test_formula_walks_cost_distinct_nodes():
    # The CNF clause 1 ... 300 and the synthesized formulas of an alternating
    # ranker share subformulas by object. Walked as trees, they would take
    # exponentially many calls. A profile hook counts the calls without
    # adding a frame to the clause's 600-deep recursion, and fails past a
    # fixed limit rather than run on.
    walks = {formulas._nnf.__code__: "_nnf", formulas._free_vars.__code__: "_free_vars",
             formulas._comparison.__code__: "_comparison"}
    counts = dict.fromkeys(walks.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in walks:
            counts[walks[frame.f_code]] += 1
            assert counts[walks[frame.f_code]] <= 100_000, "a walk made over 100,000 calls"

    def counted(run):
        counts.update(dict.fromkeys(counts, 0))
        sys.setprofile(count)
        try:
            return run()
        finally:
            sys.setprofile(None)

    r = parse_ranker(">a<b" * 20)
    for build in (
        lambda: cnf_to_fo2(Cnf(300, (tuple(range(1, 301)),)))[0],
        lambda: synth_definedness(r),
        lambda: synth_position(r),
    ):
        f = counted(build)  # synthesis checks its own metrics
        assert counts["_comparison"] <= 8 * len(r)
        nodes = _distinct_nodes(f)
        counted(lambda: formula_metrics(f))
        assert 0 < counts["_nnf"] <= 4 * nodes and 0 < counts["_free_vars"] <= 2 * nodes, (counts, nodes)


# --- synthesis ---------------------------------------------------------------

def all_plain_rankers(alphabet, max_len):
    from fo2words import BoundaryPos, Direction, Ranker

    steps = [
        BoundaryPos(d, c)
        for d in (Direction.RIGHT, Direction.LEFT)
        for c in alphabet.letters
    ]
    for length in range(1, max_len + 1):
        for combo in itertools.product(steps, repeat=length):
            yield Ranker(combo)


def test_synth_comparison_examples():
    r = parse_ranker(">a")
    assert satisfying_positions(synth_comparison(r, ">"), W("bab")) == (3,)
    assert satisfying_positions(synth_comparison(r, ">="), W("bab")) == (2, 3)
    assert satisfying_positions(synth_comparison(r, "<"), W("bbb")) == ()
    with pytest.raises(ValueError, match="relation must be one of"):
        synth_comparison(r, "=")


# Renderings of the parent implementation, pinned: the semantic tests cannot
# see the argument order of Less/Equal atoms or the nesting of conjuncts.
SYNTH_GOLDEN = {
    ("<a", "definedness"): "(Ex.a(x))",
    ("<a", "position"): "(a(x) & (Ay.!(x<y & a(y))))",
    (">a<b", "definedness"): "(Ex.(b(x) & ((Ey.a(y)) & !(Ey.(a(y) & (y<x | y=x))))))",
    (">a<b", "position"): (
        "(b(x) & (((Ey.a(y)) & !(Ey.(a(y) & (y<x | y=x)))) & "
        "(Ay.((x<y & b(y)) -> !((Ex.a(x)) & !(Ex.(a(x) & (x<y | x=y))))))))"
    ),
    (">b<[|a|b]", "definedness"): (
        "(Ex.(a(x) & ((Ey.(suc(x,y) & b(y))) & ((Ey.b(y)) & !(Ey.(b(y) & (y<x | y=x)))))))"
    ),
    (">b<[|a|b]", "position"): (
        "(a(x) & ((Ey.(suc(x,y) & b(y))) & (((Ey.b(y)) & !(Ey.(b(y) & (y<x | y=x)))) & "
        "(Ay.((x<y & (a(y) & (Ex.(suc(y,x) & b(x))))) -> "
        "!((Ex.b(x)) & !(Ex.(b(x) & (x<y | x=y)))))))))"
    ),
    ("<b>[a|b|]", "definedness"): (
        "(Ex.(b(x) & ((Ey.(suc(y,x) & a(y))) & ((Ey.b(y)) & !(Ey.(b(y) & (x<y | x=y)))))))"
    ),
    ("<b>[a|b|]", "position"): (
        "(b(x) & ((Ey.(suc(y,x) & a(y))) & (((Ey.b(y)) & !(Ey.(b(y) & (x<y | x=y)))) & "
        "(Ay.((y<x & (b(y) & (Ex.(suc(x,y) & a(x))))) -> "
        "!((Ex.b(x)) & !(Ex.(b(x) & (y<x | y=x)))))))))"
    ),
    ("<a", "<"): "(Ey.(a(y) & x<y))",
    ("<a", "<="): "(Ey.(a(y) & (x<y | x=y)))",
    ("<a", ">"): "((Ey.a(y)) & !(Ey.(a(y) & (x<y | x=y))))",
    ("<a", ">="): "((Ey.a(y)) & !(Ey.(a(y) & x<y)))",
    (">a", "<"): "((Ey.a(y)) & !(Ey.(a(y) & (y<x | y=x))))",
    (">a", "<="): "((Ey.a(y)) & !(Ey.(a(y) & y<x)))",
    (">a", ">"): "(Ey.(a(y) & y<x))",
    (">a", ">="): "(Ey.(a(y) & (y<x | y=x)))",
}


@pytest.mark.parametrize("ranker,kind", list(SYNTH_GOLDEN))
def test_synthesized_formulas_render_as_pinned(ranker, kind):
    r = parse_ranker(ranker)
    if kind == "definedness":
        f = synth_definedness(r)
    elif kind == "position":
        f = synth_position(r)
    else:
        f = synth_comparison(r, kind)
    assert render_formula(f) == SYNTH_GOLDEN[ranker, kind]


def test_synth_comparison_matches_evaluation():
    rels = {"<": lambda i, p: i < p, "<=": lambda i, p: i <= p,
            ">": lambda i, p: i > p, ">=": lambda i, p: i >= p}
    for r in all_plain_rankers(AB, 2):
        for rel, pred in rels.items():
            f = synth_comparison(r, rel)
            for w in all_words(AB, 4):
                pos = eval_ranker(r, w)
                expected = tuple(
                    i for i in w.positions() if pos is not None and pred(i, pos)
                )
                assert satisfying_positions(f, w) == expected


def test_synth_definedness_examples():
    r = parse_ranker(">a")
    f = synth_definedness(r)
    assert model_check(f, W("ba")) is True
    assert model_check(f, W("bb")) is False
    abc = Alphabet(("a", "b", "c"))
    f = synth_definedness(parse_ranker(">a>c<b"))
    assert model_check(f, Word(abc, "cababcba")) is True
    assert model_check(f, Word(abc, "acbbca")) is False
    f = synth_definedness(parse_ranker("<a"))
    a_only = Alphabet(("a",))
    assert model_check(f, Word(a_only, "a")) is True
    assert model_check(f, Word(a_only, "")) is False


def test_synth_position_examples():
    assert satisfying_positions(synth_position(parse_ranker(">a")), W("bab")) == (2,)
    abc = Alphabet(("a", "b", "c"))
    f = synth_position(parse_ranker(">a>c<b"))
    assert satisfying_positions(f, Word(abc, "cababcba")) == (5,)
    assert satisfying_positions(synth_position(parse_ranker(">a")), W("bbb")) == ()


def test_synthesis_exhaustive_small():
    # definedness and position formulas agree with direct evaluation
    for r in all_plain_rankers(AB, 3):
        phi = synth_definedness(r)
        psi = synth_position(r)
        assert formula_metrics(phi).quantifier_depth <= len(r)
        assert formula_metrics(psi).quantifier_depth <= len(r)
        for w in all_words(AB, 4):
            pos = eval_ranker(r, w)
            assert model_check(phi, w) == (pos is not None)
            expected = () if pos is None else (pos,)
            assert satisfying_positions(psi, w) == expected


def test_synthesis_successor_rankers():
    # windowed rankers synthesize with suc atoms and stay within depth
    for w in all_words(AB, 4):
        realized = realized_suc_rankers(w, 2)
        for r in realized.rankers():
            phi = synth_definedness(r)
            psi = synth_position(r)
            assert formula_metrics(phi).quantifier_depth <= len(r)
            assert formula_metrics(psi).quantifier_depth <= len(r)
            for w2 in all_words(AB, 4):
                pos = eval_suc_ranker(r, w2)
                assert model_check(phi, w2) == (pos is not None)
                expected = () if pos is None else (pos,)
                assert satisfying_positions(psi, w2) == expected


def test_walk_positions_are_realized_positions():
    # unique_position_report reads realized positions off a walk of w against itself
    for alphabet, max_len in ((AB, 7), (ABC, 4)):
        for w in all_words(alphabet, max_len):
            for depth in range(1, 5):
                realized = set(realized_rankers(w, depth).positions.values())
                walked = _walk(w, w, depth, None, False, DEFAULT_ENUMERATION_CAP)
                assert set(walked[1]) == realized, (w.text, depth)


def test_unique_position_report_long_ranker():
    # enumerating the depth-8 rankers of this word passes the enumeration cap
    r = parse_ranker(">a>b>c>a>b>c>a>b")
    rng = random.Random(1)
    w = W("".join(rng.choice("abc") for _ in range(30)), ABC)
    rep = unique_position_report(synth_position(r), [w])
    assert rep.positions[w] == (eval_ranker(r, w),) == (20,)
    assert rep.ranker_coincidence == {w: True}


def test_unique_position_report_examples():
    corpus = list(all_words(AB, 3))
    rep = unique_position_report(synth_position(parse_ranker(">a")), corpus)
    assert rep.is_unique
    assert rep.ranker_coincidence and all(rep.ranker_coincidence.values())
    rep = unique_position_report(parse_formula("a(x)", AB), [W("aa")])
    assert not rep.is_unique
    assert rep.positions[W("aa")] == (1, 2)
    with pytest.raises(FreeVariableError):
        unique_position_report(parse_formula("Ex. a(x)", AB), corpus)
    with pytest.raises(FreeVariableError):
        unique_position_report(parse_formula("a(y)", AB), corpus)
