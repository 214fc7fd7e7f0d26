"""Point counts over finite fields, local zeta functions, eigenvalue
motives, and the prime-counting explicit formula."""

from .finite_field import FFElement, FieldSpec, arith, enumerate_elements, make_field
from .variety import (
    CountSequence,
    PolySystem,
    affine_count_sequence,
    count_affine,
    count_projective_space,
    count_projective_variety,
    parse_poly_system,
)
from .weil import (
    FrobeniusAlpha,
    WeilNumbers,
    correction_term,
    hasse_alpha,
    predict_affine_count,
    verify_weil_rh,
    weil_numbers_from_counts,
)
from .zeta import (
    PowerSeries,
    RationalZeta,
    curve_denominator,
    expand_rational,
    rational_reconstruct,
    trace_formula_count,
    zeta_from_counts,
    zeta_series,
)
from .motive import (
    Motive,
    direct_sum,
    lefschetz_motive,
    make_motive,
    motive_of_elliptic_curve,
    motive_of_projective_space,
    point_count,
    tensor,
    unit_motive,
    zero_motive,
)
from .explicit_formula import (
    PrimeCounter,
    ZeroTable,
    default_zero_table,
    li,
    load_zeros,
    mobius,
    rh_bound_ratio,
    riemann_approx,
    sieve_pi,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
