"""Two-variable first-order logic on finite words: rankers, games, equivalence,
the alternation hierarchy, and bounded-alphabet satisfiability.

Each public name is loaded from its submodule on first use (PEP 562), so
`import fo2words` compiles none of them.
"""

import importlib

__version__ = "0.1.0"

# the submodule each public name lives in
_SUBMODULE = {name: module for module, names in {
    "words": "Alphabet OrderType Segment SucOrderType Word all_words order_type segments suc_order_type",
    "rankers": "AnyRanker BoundaryPos Direction NeighborhoodBoundaryPos Ranker RealizedSet SucRanker "
               "alternation_blocks eval_boundary eval_ranker eval_suc_boundary eval_suc_ranker evaluate "
               "parse_ranker realized_rankers realized_suc_rankers render_ranker",
    "formulas": "And Equal Exists Forall Formula FormulaMetrics Implies LetterAtom Less Not Or Signature "
                "Suc UniquePositionReport formula_metrics free_vars model_check nnf parse_formula "
                "render_formula satisfying_positions synth_comparison synth_definedness synth_position "
                "unique_position_report",
    "efgames": "GameConfig GameVerdict Side game_equiv game_equiv_alt game_equiv_general partial_iso",
    "equivalence": "EquivReport FailedCondition WitnessEntry alphabet_collapse_check ranker_equiv "
                   "ranker_equiv_alt suc_ranker_equiv suc_ranker_equiv_alt",
    "hierarchy": "HierarchyReport SeparatingRankerPair WitnessPair separating_rankers "
                 "verify_hierarchy_level witness_words witness_words_suc",
    "solver": "Cnf SatResult SatStatus cnf_brute_force cnf_to_fo2 parse_dimacs sat_search shrink "
              "small_model_bound",
    "errors": "AlphabetMismatchError EnumerationCapError FormulaError FormulaSyntaxError "
              "FreeVariableError GameResourceError ResourceCapError SearchBudgetError SignatureError "
              "UnknownLetterError",
}.items() for name in names.split()}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name in _SUBMODULE.values():  # a submodule; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
