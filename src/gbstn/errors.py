"""Exception types shared across the package, and the one size guard."""

# the largest array, in entries, that a dense conversion or a two-site update
# may allocate; past it they raise ResourceLimitError instead
SIZE_LIMIT = 10**7


class UnsupportedConfigurationError(ValueError):
    """A structurally valid input that this implementation does not handle
    (e.g. a lossy gate where a unitary is required, or an odd mode count
    where the closed-form photon distribution is undefined)."""


class ResourceLimitError(RuntimeError):
    """Refusal to allocate an array larger than the size guard."""


class NumericalFailureError(ArithmeticError):
    """A numerically meaningless result (non-finite determinant, probability
    below the roundoff clamp window, ...)."""


def check_size(entries: int, what: str) -> None:
    """Raise :class:`ResourceLimitError` if ``what`` holds more than ``SIZE_LIMIT`` entries."""
    if entries > SIZE_LIMIT:
        raise ResourceLimitError(f"{what} would hold {entries} entries, above the size guard {SIZE_LIMIT}")
