"""Mapping-torus invariants over finite gauge groups, SL(2,Z) conjugacy
class enumeration by trace, and the density experiments built on them."""

from .bqf import class_count_with_trace, classes_with_trace
from .census import (
    CensusReport,
    census,
    density_report,
    log_integral,
    theorem_constants,
)
from .csw import (
    ModularData,
    compare_with_rep_trace,
    congruence_level,
    csw_invariant,
    rep_trace,
    su2_modular_data,
    word_in_generators,
)
from .intmat import (
    AbelianGroup,
    IntMatrix,
    SnfResult,
    cokernel,
    is_symplectic,
    mapping_torus_homology,
    smith_normal_form,
)
from .modular import (
    ZETA3,
    anharmonic_orbit,
    lambda_function,
    lemma_cool_report,
    lemma_cool_value,
    mobius,
    theta_constants,
)
from .sl2 import (
    ClassLabel,
    DwValue,
    Sl2Matrix,
    classify_mod_p,
    dw_invariant_genus_g,
    dw_invariant_sl2,
    genus1_homology,
    geodesic_pullback_splitting,
    sl2_snf_entries,
    slp_class_census,
)
from .weight1 import frobenius_trace, is_cube_mod_p, qexpansion_check

__version__ = "0.1.0"
