"""Exact dimension theory of spin-refined surface state spaces.

Verlinde-type dimensions evaluated exactly from csc power sums and
certified by their residues modulo Phi_n(2^t); Arf-invariant
combinatorics of spin structures as quadratic refinements over GF(2);
the graded spin dimension formulas and their refinement identities; the
twisted group algebra of projections; a finite Heisenberg group with its
monomial representation; and the level-lattice dictionary.
"""

from .dimensions import (
    GradedDimension,
    IdentityViolationError,
    IntegralityError,
    bm_even_dim,
    bm_odd_dim,
    corollary_bases,
    corollary_dims,
    dims_via_traces,
    spin_cs_dims,
    sum_over_spin,
)
from .f2 import DEFAULT_ENUMERATION_CAP, EnumerationCapError, F2Vector, SymplecticF2Space
from .fusion import (
    CertificationError,
    CertifiedInteger,
    twisted_dim,
    twisted_trig_oracle,
    verlinde_dim,
    verlinde_trig_oracle,
)
from .heisenberg import (
    HeisenbergElement,
    HeisenbergGroup,
    MonomialMatrix,
    TwistedAlgebraElement,
    heisenberg_rep,
    orthogonality_check,
    projection,
    trace_functional,
)
from .levels import (
    CorrespondenceTable,
    Lattice,
    LatticeMismatchError,
    LevelValue,
    beta_pullback,
    bhmv_from_su2,
    bhmv_level,
    bm_from_so3,
    bm_level,
    correspondence_table,
    metaplectic_shift,
    so3_from_bm,
    so3_from_su2,
    so3_level,
    su2_from_bhmv,
    su2_level,
)
from .spin import QuadraticRefinement, arf_gauss_sum, count_by_arf, lift_sign

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "CertifiedInteger",
    "CorrespondenceTable",
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationCapError",
    "F2Vector",
    "GradedDimension",
    "HeisenbergElement",
    "HeisenbergGroup",
    "IdentityViolationError",
    "IntegralityError",
    "Lattice",
    "LatticeMismatchError",
    "LevelValue",
    "MonomialMatrix",
    "QuadraticRefinement",
    "SymplecticF2Space",
    "TwistedAlgebraElement",
    "arf_gauss_sum",
    "beta_pullback",
    "bhmv_from_su2",
    "bhmv_level",
    "bm_even_dim",
    "bm_from_so3",
    "bm_level",
    "bm_odd_dim",
    "corollary_bases",
    "corollary_dims",
    "correspondence_table",
    "count_by_arf",
    "dims_via_traces",
    "heisenberg_rep",
    "lift_sign",
    "metaplectic_shift",
    "orthogonality_check",
    "projection",
    "so3_from_bm",
    "so3_from_su2",
    "so3_level",
    "spin_cs_dims",
    "su2_from_bhmv",
    "su2_level",
    "sum_over_spin",
    "trace_functional",
    "twisted_dim",
    "twisted_trig_oracle",
    "verlinde_dim",
    "verlinde_trig_oracle",
]
