"""Exact construction and verification of exotic additions on scalar groups.

The package builds a second field addition on the rationals by pulling the
addition of an imaginary quadratic field back through a prime-by-prime
multiplicative bijection, then verifies the result, and every related finite
structure, with exact arithmetic: no floats anywhere except the complex
epsilon maps, which hold no tolerance but refuse any value that is not finite.

Entry points by theme:

- rationals / quadratic: factorization in Z, in Q, and in the quadratic ring.
- maps: the prime correspondence, sigma, endobijections of Q*.
- epsilon: the complex epsilon family.
- induced: the exotic addition on Q, ring-isomorphism and field-axiom
  verifiers.
- rho: near-field addition maps, the characteristic map, additions recovered
  from unary data.
- finite / nvs: complete enumeration of exponent additions on small fields,
  power-map isomorphisms, the modnear-ring, elementary near-vector spaces,
  quasi-multiplicative maps.
- cli: one command per construction, reproducible via seeds and goldens.

Each module's __all__ is its one list of public names. The package root
re-exports every library module's list, and its own __all__ is their
concatenation, so a public name is declared once, in its module.
"""

from . import epsilon, errors, finite, induced, maps, nvs, quadratic, rationals, report, rho
from .errors import *
from .report import *
from .rationals import *
from .quadratic import *
from .maps import *
from .epsilon import *
from .induced import *
from .rho import *
from .finite import *
from .nvs import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *report.__all__, *rationals.__all__, *quadratic.__all__,
           *maps.__all__, *epsilon.__all__, *induced.__all__, *rho.__all__, *finite.__all__, *nvs.__all__]
