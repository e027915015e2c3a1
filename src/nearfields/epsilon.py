"""The complex epsilon maps, the only floating point in the package. They
hold no tolerance: they refuse an input or a value that is not finite, and
only the tests compare within one (1e-9, acceptance criterion 10)."""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

__all__ = ["eval_epsilon", "epsilon_inverse_param"]


def _finite(x: complex, name: str) -> complex:
    """x as a complex, refused unless both of its parts are finite."""
    x = complex(x)
    if not cmath.isfinite(x):
        raise DomainError(f"{name} is not finite: {x}")
    return x


def eval_epsilon(alpha: complex, z: complex, *, conjugate: bool = False) -> complex:
    """epsilon_alpha(z) = r**alpha * s for z = r*s, r > 0, |s| = 1.

    The conjugate flag gives the mirrored family r**alpha * conj(s). Real
    alpha restricted to real z recovers the signed power map on R. Purely
    imaginary alpha collapses the modulus and is rejected, as are an
    alpha, z or value that is not finite.
    """
    alpha = _finite(alpha, "alpha")
    if alpha.real == 0:
        raise DomainError("alpha must have nonzero real part")
    z = _finite(z, "z")
    if z == 0:
        return 0j
    r = abs(z)
    s = z / r
    try:
        w = cmath.exp(alpha * math.log(r))
    except OverflowError:
        w = complex(math.inf)
    except ValueError:  # an infinite exponent whose angle is undefined
        w = complex(math.nan)
    return _finite(w * (s.conjugate() if conjugate else s), "epsilon_alpha(z)")


def epsilon_inverse_param(alpha: complex, *, conjugate: bool = False) -> complex:
    """The beta with epsilon_beta inverting epsilon_alpha (same flag).

    Plain family: beta = (1 - i Im(alpha)) / Re(alpha). The conjugated
    family flips the sign of the imaginary part. A beta that is not finite
    (Re(alpha) so small that 1/Re(alpha) overflows) is refused.
    """
    alpha = _finite(alpha, "alpha")
    if alpha.real == 0:
        raise DomainError("alpha must have nonzero real part")
    im = alpha.imag
    return _finite(complex(1, im if conjugate else -im) / alpha.real, "beta")
