"""Deciding, eliminating, and verifying local redundancy in CNF formulas.

The top level holds the documented entry points; everything else is
imported from its own module (`blockcheck.blocking`, `.asymmetric`,
`.oracle`, `.varelim`, `.reductions`, `.gen`, `.cnf`, `.engine`).
"""

from .blocking import check_super_blocked, is_literal_blocked, is_set_blocked
from .cnf import Assignment, Clause, Formula, parse_dimacs, write_dimacs
from .engine import (
    PROPERTIES,
    EliminationConfig,
    EliminationTrace,
    check_property,
    classify,
    eliminate_clauses,
    reconstruct_model,
)
from .errors import CapExceeded, ParseError, ReconstructionError, ResourceLimit
from .oracle import first_model

__all__ = [
    "Assignment",
    "CapExceeded",
    "Clause",
    "EliminationConfig",
    "EliminationTrace",
    "Formula",
    "PROPERTIES",
    "ParseError",
    "ReconstructionError",
    "ResourceLimit",
    "check_property",
    "check_super_blocked",
    "classify",
    "eliminate_clauses",
    "first_model",
    "is_literal_blocked",
    "is_set_blocked",
    "parse_dimacs",
    "reconstruct_model",
    "write_dimacs",
]
