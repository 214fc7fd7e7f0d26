"""Point counts over finite fields, local zeta functions, eigenvalue
motives, and the prime-counting explicit formula."""

from importlib import import_module as _import_module

# each re-export under the submodule that defines it; both are imported on
# first use (PEP 562), so `import motives` loads no submodule and no numpy
_EXPORTS = {
    "finite_field": (
        "FFElement", "FieldSpec", "enumerate_elements", "make_field", "mobius",
    ),
    "variety": (
        "CountSequence", "PolySystem", "affine_count_sequence", "count_affine",
        "count_projective_space", "count_projective_variety", "parse_poly_system",
    ),
    "weil": (
        "WeilNumbers", "correction_term", "hasse_alpha", "predict_affine_count",
        "weil_numbers_from_counts",
    ),
    "zeta": (
        "RationalZeta", "curve_denominator", "expand_rational", "rational_reconstruct",
        "zeta_from_counts", "zeta_series",
    ),
    "motive": (
        "Motive", "direct_sum", "lefschetz_motive", "make_motive", "motive_of_elliptic_curve",
        "motive_of_projective_space", "point_count", "tensor", "unit_motive",
    ),
    "explicit_formula": (
        "PrimeCounter", "ZeroTable", "default_zero_table", "li", "load_zeros", "rh_bound_ratio",
        "riemann_approx", "sieve_pi",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
