"""Stability-region analysis and behavioral simulation of cascaded one-bit
sigma-delta modulators of order 1-5.

The analytic side works on the characteristic polynomial
``F(z; a) = a*(z-1)**n + D(z)`` of the quasi-static integrator magnitude
``a``: closed-form boundary values and a necessary-and-sufficient
unit-circle root count from the contour image.  The tests cross-check both
with independent numeric oracles; the package needs only the standard
library.
The behavioral side is a nonlinear time-domain simulator with DC amplitude
sweeps and instability-window extraction.

``import sdmstab`` loads no submodule: each exported name is looked up in
``_EXPORTS`` and its module imported on first access (PEP 562), so a
process pays only for the modules it uses.
"""

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "Poly": "polynomial",
    "b_from_g": "transfer",
    "char_poly": "transfer",
    "g_from_b": "transfer",
    "ntf_series": "transfer",
    "CharacteristicPoints": "winding",
    "RootCountResult": "winding",
    "SelfIntersection": "winding",
    "characteristic_points": "winding",
    "contour_table": "winding",
    "count_inside_e1": "winding",
    "DegenerateBoundaryError": "boundary",
    "StabilityInterval": "boundary",
    "StabilityReport": "boundary",
    "ZeroPointCandidate": "boundary",
    "classify_intervals": "boundary",
    "i_max_order3": "boundary",
    "i_min": "boundary",
    "zero_point_candidates": "boundary",
    "DcInput": "simulator",
    "GridPoint": "simulator",
    "SimResult": "simulator",
    "SimState": "simulator",
    "SineInput": "simulator",
    "Window": "simulator",
    "WindowReport": "simulator",
    "extract_windows": "simulator",
    "run": "simulator",
    "sweep": "simulator",
    "trace_run": "simulator",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
