"""Exact arithmetic for the Romik sequence d(n).

Computes the integer sequences u(n), v(n), d(n) and the triangular tables
s(n, k), r(n, k) in exact arbitrary precision, checks their congruence
structure (parity, the alternating pattern mod 5, vanishing mod primes
p = 3 mod 4) through mutually independent routes, and renders the residue
grids behind those patterns.
"""

from .core import (
    IntegrityError,
    SequenceCache,
    s_table_by_series,
)
from .partitions import (
    PartitionFilter,
    enumerate_partitions,
    multinomial_count,
    s_by_partitions,
)
from .residues import (
    binomial_vanishes,
    build_residue_grid,
    count_fifth_roots,
    digit_sum,
    factorial_valuation,
    factorial_valuation_by_floor_sum,
    five_cycle_class_size,
    is_prime,
    r_mod5_closed_form,
    s_mod5_single_index,
    single_index_term_valuation,
    vanishing_n0,
)
from .verify import (
    Counterexample,
    VerificationReport,
    scan_periodicity,
    verify_even_odd_sums,
    verify_mod5,
    verify_mod_p_vanishing,
    verify_parity,
    verify_uv_structure,
)

__version__ = "0.1.0"

__all__ = [
    "IntegrityError",
    "SequenceCache",
    "s_table_by_series",
    "PartitionFilter",
    "enumerate_partitions",
    "multinomial_count",
    "s_by_partitions",
    "binomial_vanishes",
    "build_residue_grid",
    "count_fifth_roots",
    "digit_sum",
    "factorial_valuation",
    "factorial_valuation_by_floor_sum",
    "five_cycle_class_size",
    "is_prime",
    "r_mod5_closed_form",
    "s_mod5_single_index",
    "single_index_term_valuation",
    "vanishing_n0",
    "Counterexample",
    "VerificationReport",
    "scan_periodicity",
    "verify_even_odd_sums",
    "verify_mod5",
    "verify_mod_p_vanishing",
    "verify_parity",
    "verify_uv_structure",
    "__version__",
]
