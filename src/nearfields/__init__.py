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
"""

from .epsilon import epsilon_inverse_param, eval_epsilon
from .errors import DomainError, IntegrityError, ResourceLimitError
from .finite import (
    AdditionTable,
    EnumerationResult,
    FiniteField,
    addition_from_exponent,
    check_isomorphic_additions,
    enumerate_additions,
    make_field,
    modnear_ring_check,
    native_addition,
    verify_addition_table,
)
from .induced import (
    DEFAULT_SUM_NORM_CEILING,
    StructureOps,
    check_ringisom,
    exotic_add_q,
    find_add_witness,
    verify_exotic_field_axioms,
)
from .maps import (
    DEFAULT_CORRESPONDENCE_CEILING,
    EndoBijectionSpecQ,
    PrimeCorrespondence,
    default_correspondence,
    endo_q_apply,
    sigma_apply,
    sigma_invert,
)
from .nvs import (
    ElementaryNVS,
    QmcResult,
    QuasiMultSpec,
    build_elementary,
    check_elementary_box1,
    check_qmc_equivalence,
    qm_compose,
    qm_invert,
    verify_nvs_axioms,
)
from .quadratic import (
    KFactorization,
    QuadInt,
    QuadRat,
    factor_quad,
    is_canonical_prime,
    primes_above,
    rebuild_quad,
)
from .rationals import (
    Rat,
    SignedFactorization,
    factor_int,
    factor_rat,
    is_prime,
    primes_upto,
)
from .report import Check, Report
from .rho import (
    Carrier,
    CharMapResult,
    RhoMap,
    add_from_rho,
    char_map,
    field_carrier,
    rational_carrier,
    rho_from_add,
    verify_rho_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors and reports
    "DomainError", "IntegrityError", "ResourceLimitError",
    "Check", "Report",
    # integers and rationals
    "Rat", "SignedFactorization", "factor_int", "factor_rat",
    "is_prime", "primes_upto",
    # the quadratic ring
    "QuadInt", "QuadRat", "KFactorization", "factor_quad", "rebuild_quad",
    "is_canonical_prime", "primes_above",
    # multiplicative maps
    "DEFAULT_CORRESPONDENCE_CEILING", "PrimeCorrespondence", "default_correspondence",
    "sigma_apply", "sigma_invert", "EndoBijectionSpecQ", "endo_q_apply",
    "QmcResult", "check_qmc_equivalence",
    "QuasiMultSpec", "qm_compose", "qm_invert", "eval_epsilon", "epsilon_inverse_param",
    # the exotic addition on Q
    "DEFAULT_SUM_NORM_CEILING", "exotic_add_q", "StructureOps",
    "check_ringisom", "find_add_witness", "verify_exotic_field_axioms",
    # near-field addition maps
    "Carrier", "RhoMap", "field_carrier", "rational_carrier",
    "rho_from_add", "add_from_rho", "verify_rho_axioms", "CharMapResult", "char_map",
    # finite fields and enumeration
    "FiniteField", "make_field", "AdditionTable", "native_addition",
    "addition_from_exponent", "verify_addition_table", "EnumerationResult",
    "enumerate_additions", "check_isomorphic_additions", "modnear_ring_check",
    # near-vector spaces
    "ElementaryNVS", "build_elementary", "verify_nvs_axioms", "check_elementary_box1",
]
