"""Stability-region analysis and behavioral simulation of cascaded one-bit
sigma-delta modulators of order 1-5.

The analytic side works on the characteristic polynomial
``F(z; a) = a*(z-1)**n + D(z)`` of the quasi-static integrator magnitude
``a``: closed-form boundary values, a necessary-and-sufficient unit-circle
root count from the contour image, and independent numeric oracles.  The
behavioral side is a nonlinear time-domain simulator with DC amplitude
sweeps and instability-window extraction.
"""

__version__ = "0.1.0"

from .polynomial import (
    Poly,
    all_roots,
    binom_power,
    cheb_expand,
    chebyshev_t,
    chebyshev_u,
    poly_rem,
    real_roots_open,
)
from .transfer import (
    DCoeffs,
    SdmDesign,
    b_from_g,
    char_poly,
    d_coeffs,
    g_from_b,
    ntf_series,
)
from .winding import (
    CharacteristicPoints,
    RootCountResult,
    SelfIntersection,
    characteristic_points,
    contour_table,
    count_inside_e1,
    count_inside_eig,
    jury_stable,
    winding_oracle,
)
from .boundary import (
    DegenerateBoundaryError,
    StabilityInterval,
    StabilityReport,
    ZeroPointCandidate,
    bisect_boundary,
    classify_intervals,
    crossing_param,
    crossing_value,
    i_max_order3,
    i_min,
    report_to_dict,
    t2_order5,
    zero_point_candidates,
)
from .simulator import (
    DcInput,
    GridPoint,
    SimResult,
    SimState,
    SineInput,
    Window,
    WindowReport,
    extract_windows,
    linearized_impulse,
    run,
    sweep,
    trace_run,
)

__all__ = [
    "__version__",
    "Poly",
    "all_roots",
    "binom_power",
    "cheb_expand",
    "chebyshev_t",
    "chebyshev_u",
    "poly_rem",
    "real_roots_open",
    "DCoeffs",
    "SdmDesign",
    "b_from_g",
    "char_poly",
    "d_coeffs",
    "g_from_b",
    "ntf_series",
    "CharacteristicPoints",
    "RootCountResult",
    "SelfIntersection",
    "characteristic_points",
    "contour_table",
    "count_inside_e1",
    "count_inside_eig",
    "jury_stable",
    "winding_oracle",
    "DegenerateBoundaryError",
    "StabilityInterval",
    "StabilityReport",
    "ZeroPointCandidate",
    "bisect_boundary",
    "classify_intervals",
    "crossing_param",
    "crossing_value",
    "i_max_order3",
    "i_min",
    "report_to_dict",
    "t2_order5",
    "zero_point_candidates",
    "DcInput",
    "GridPoint",
    "SimResult",
    "SimState",
    "SineInput",
    "Window",
    "WindowReport",
    "extract_windows",
    "linearized_impulse",
    "run",
    "sweep",
    "trace_run",
]
