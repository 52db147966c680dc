"""Shared test helpers: seeded random formula corpus generation."""

from fo2words import (
    Alphabet,
    And,
    Equal,
    Exists,
    Forall,
    Implies,
    LetterAtom,
    Less,
    Not,
    Or,
    Signature,
    Suc,
)

AB = Alphabet(("a", "b"))


def random_formula(rng, depth, alphabet=AB, signature=Signature.ORDER, bound=(), size=12):
    """Random AST with quantifier depth at most `depth`; atoms only over bound vars."""
    choices = []
    if bound:
        choices += ["atom"] * 3
    if depth > 0 and size > 0:
        choices += ["exists", "forall"]
    if size > 0 and (depth > 0 or bound):
        choices += ["not", "and", "or", "implies"]
    if not choices:  # out of budget without bound variables: force a quantifier
        choices = ["exists"]
    kind = rng.choice(choices)
    if kind == "atom":
        v = rng.choice(bound)
        u = rng.choice(bound)
        opts = [LetterAtom(rng.choice(alphabet.letters), v), Less(v, u), Equal(v, u)]
        if signature is Signature.ORDER_SUC:
            opts.append(Suc(v, u))
        return rng.choice(opts)
    if kind in ("exists", "forall"):
        v = rng.choice("xy")
        body = random_formula(
            rng, depth - 1, alphabet, signature, tuple(sorted(set(bound) | {v})), size - 1
        )
        return Exists(v, body) if kind == "exists" else Forall(v, body)
    if kind == "not":
        return Not(random_formula(rng, depth, alphabet, signature, bound, size - 1))
    left = random_formula(rng, depth, alphabet, signature, bound, size // 2)
    right = random_formula(rng, depth, alphabet, signature, bound, size // 2)
    return {"and": And, "or": Or, "implies": Implies}[kind](left, right)


def random_sentence(rng, depth, alphabet=AB, signature=Signature.ORDER):
    v = rng.choice("xy")
    body = random_formula(rng, depth - 1, alphabet, signature, (v,))
    return rng.choice([Exists, Forall])(v, body)
