"""Exact Hecke operator matrices on vector-valued period functions for the
congruence subgroups Gamma0(n), plus the numeric checks that verify them.
"""

from .exact_core import (
    ExtendedRational,
    FormalSum,
    I,
    INFINITY,
    IntMatrix2,
    MINUS_INFINITY,
    ONE,
    S,
    T,
    T_PRIME,
    ZERO,
    xgcd,
)
from .farey import (
    chain_matrices,
    farey_sequence,
    is_minimal_partition,
    left_neighbor,
    level,
    lns,
    m_of_q,
)
from .congruence import (
    CosetTable,
    PermutationMatrix,
    coset_projection,
    coset_table,
    gamma0_contains,
    gamma0_index,
    rho,
)
from .hecke import (
    HeckeCosetRecord,
    HeckeOperatorMatrix,
    divisors,
    gen_sm,
    gen_xm,
    h_tilde,
    in_sm,
    in_xm,
    phi,
    sigma,
    vector_hecke,
    xm_representative,
)
from .numeric import (
    apply_hecke_numeric,
    constant_lift,
    cusp_solution,
    eta_line_integral,
    hecke_image,
    laplace_fd,
    r_zeta,
    slash_eval,
    three_term_residual,
    transfer_residual,
)

__version__ = "0.1.0"
