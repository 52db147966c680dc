import itertools
import random

import pytest

from fo2words import (
    Alphabet,
    And,
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
    eval_ranker,
    eval_suc_ranker,
    formula_metrics,
    model_check,
    nnf,
    parse_formula,
    parse_ranker,
    realized_suc_rankers,
    render_formula,
    satisfying_positions,
    synth_comparison,
    synth_definedness,
    synth_position,
    unique_position_report,
)

AB = Alphabet(("a", "b"))


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


# --- random formula corpus ---------------------------------------------------

from helpers import random_formula  # noqa: E402


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
    with pytest.raises(ValueError):
        model_check(parse_formula("a(x)", AB), W("ab"), x_pos=3)


def test_model_check_brute_force_agreement():
    # packed-table evaluation against a naive recursive evaluator
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


def test_render_parse_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 3), signature=Signature.ORDER_SUC, bound=("x", "y"))
        assert parse_formula(render_formula(f), AB, Signature.ORDER_SUC) == f


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
