"""Exception taxonomy shared by all nearfields modules."""


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class ResourceLimitError(RuntimeError):
    """A configured search or factorization ceiling was exceeded.

    The message always states the ceiling that was hit, so callers can rerun
    with a larger one; the required ceiling attribute holds it.
    """

    def __init__(self, message: str, *, ceiling: int):
        super().__init__(message)
        self.ceiling = ceiling


class IntegrityError(RuntimeError):
    """A cross-check that theory says cannot fail, failed."""
