"""Exception taxonomy shared by all nearfields modules."""

from functools import partial

__all__ = ["DomainError", "IntegrityError", "ResourceLimitError"]


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

    def __reduce__(self):
        # The default rebuild calls the class with args alone, and the
        # ceiling is keyword-only, so pickle and copy pass it here.
        return partial(type(self), ceiling=self.ceiling), self.args, self.__dict__


class IntegrityError(RuntimeError):
    """A cross-check that theory says cannot fail, failed."""
