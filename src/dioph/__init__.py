"""Diophantine tuples with a shift k: exact verification, Pell-equation
reductions, extension search, and modular non-extendability certificates."""

from .arith import is_perfect_square, legendre
from .extension import (
    ExtensionCandidate,
    ModularCertificate,
    SearchReport,
    brute_force_search,
    certify,
    find_certificate,
    pell_extension_search,
    search_and_certify,
    verify_certificate,
)
from .pell import (
    CFExpansion,
    PellClass,
    PellProblem,
    PellSolution,
    fundamental_solution,
    solve_general,
    sqrt_cf,
    unit_sequence,
)
from .tuples import (
    DiophTuple,
    PairCheck,
    PairReduction,
    VerificationReport,
    enumerate_triples,
    is_regular,
    mod4_quadruple_obstruction,
    reduce_pair,
    residue_obstruction,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "CFExpansion",
    "DiophTuple",
    "ExtensionCandidate",
    "ModularCertificate",
    "PairCheck",
    "PairReduction",
    "PellClass",
    "PellProblem",
    "PellSolution",
    "SearchReport",
    "VerificationReport",
    "brute_force_search",
    "certify",
    "enumerate_triples",
    "find_certificate",
    "fundamental_solution",
    "is_perfect_square",
    "is_regular",
    "legendre",
    "mod4_quadruple_obstruction",
    "pell_extension_search",
    "reduce_pair",
    "residue_obstruction",
    "search_and_certify",
    "solve_general",
    "sqrt_cf",
    "unit_sequence",
    "verify",
    "verify_certificate",
]
