"""Shared exception types."""


class ResourceCapError(RuntimeError):
    """A configurable resource cap was exceeded; never a silent truncation."""


class EnumerationCapError(ResourceCapError):
    """Realized-ranker enumeration exceeded its cap."""

    def __init__(self, cap: int, word_length: int):
        self.cap = cap
        super().__init__(
            f"realized-ranker enumeration exceeded cap of {cap} rankers "
            f"on a word of length {word_length}; raise the cap to proceed"
        )


class GameResourceError(ResourceCapError):
    """Game solver state space exceeded its cap."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"game state space needs {needed} bits in relation rows, exceeding the cap of {cap}"
        )


class SearchBudgetError(ResourceCapError):
    """Satisfiability search exceeded its candidate-word budget.

    A candidate is a nonempty word whose ≡_n class the search computes, one
    letter longer than a class representative; with exact_len, a word of
    that length.
    """

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"satisfiability search exceeded its budget of {cap} candidate words")


class AlphabetMismatchError(ValueError):
    """Two words that must share an alphabet do not."""


class FormulaError(ValueError):
    """Base class for formula parsing and evaluation errors."""


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownLetterError(FormulaSyntaxError):
    pass


class SignatureError(FormulaError):
    """A successor atom was used under an order-only signature."""


class FreeVariableError(FormulaError):
    """A free variable has no assigned position."""
