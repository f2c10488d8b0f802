"""Exception types shared across the package, and the rules every engine
applies alike: the size guard, the integer rule, the outcome check and the
probability check.

The tensor-network routes, the dense oracle and the Gaussian engine must
agree on every outcome, so they refuse the same outcomes and finish a
probability the same way, here.  The command-line front end reports every
refusal these raise as one ``error:`` line.
"""

import cmath
import operator

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


def _integral(value, name: str, least: int | None = None) -> int:
    """``value`` as an int: an integer (numpy's and bool too) as it is, an
    integral float converted; ValueError for anything else, such as 1.7 or
    '1', and for a value below ``least``."""
    try:
        number = operator.index(value)
    except TypeError:
        if not (isinstance(value, float) and value.is_integer()):
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        number = int(value)
    if least is not None and number < least:
        raise ValueError(f"{name} must be >= {least}, got {number}")
    return number


def check_outcome(
    outcome, num_modes: int | None = None, cutoff: int | None = None, total: bool = False
) -> tuple[int, ...]:
    """The outcome as a tuple of ints, or ValueError: it needs one integer
    count (:func:`_integral`) per mode (where ``num_modes`` is given), none
    negative and, under a ``cutoff``, none above it.  With ``total`` the
    cutoff bounds the outcome's photon total instead, for a route whose
    circuit can gather every photon in one mode."""
    outcome = tuple(_integral(n, "a photon count") for n in outcome)
    if num_modes is not None and len(outcome) != num_modes:
        raise ValueError("outcome length does not match the mode count")
    if min(outcome, default=0) < 0:
        raise ValueError(f"negative photon count in outcome {outcome}")
    held = sum(outcome) if total else max(outcome, default=0)
    if cutoff is not None and held > cutoff:
        whole = f": {held} photons in all" if total else ""
        raise ValueError(f"outcome {outcome} lies outside the cutoff {cutoff}{whole}")
    return outcome


# the roundoff window of a computed probability
ROUNDOFF = 1e-9


def check_probability(value) -> float:
    """A computed probability as a float in [0, 1].  A value with a
    non-finite part, an imaginary part above 1e-8 max(1, |real part|) or a
    real part below -ROUNDOFF raises :class:`NumericalFailureError`; any
    other real part is clamped."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise NumericalFailureError(f"non-finite probability {value!r}")
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise NumericalFailureError(f"non-real probability {value!r}")
    if value.real < -ROUNDOFF:
        raise NumericalFailureError(f"probability {value.real} below the roundoff window")
    return min(max(value.real, 0.0), 1.0)
