"""Exception types shared across the library."""


class ValidationError(ValueError):
    """Bad argument or unusable input (domain violations, inconsistent parameters)."""


class ParseError(ValidationError):
    """Polynomial text could not be parsed; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"parse error at offset {offset}: {message}")
        self.offset = offset


class BudgetError(RuntimeError):
    """A computation would exceed its size budget; the size it needs (or has
    reached when it stopped) and the budget are attached."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class AnomalyError(RuntimeError):
    """A certified internal contradiction: membership certificates violate the
    classification the exact engine relies on.  This should never fire; if it
    does, the certificates in the message make the contradiction machine-checkable.
    """
