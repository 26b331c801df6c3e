"""Linear-model algebra for the cascaded one-bit modulator.

The noise transfer function is ``C(z)/B(z)`` with ``C(z) = (z-1)**n`` and a
monic degree-``n`` denominator ``B(z)``.  The feedback-difference polynomial
``D(z) = B(z) - C(z)`` has degree at most ``n-1``; its coefficients ``b``
(``b[k-1]`` multiplies ``z**(n-k)``) are the primary analytic input
everywhere.  The internal cascade coefficients ``g`` map onto ``b`` through
the integrator-chain topology fixed in :mod:`sdmstab.simulator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .polynomial import Poly, binom_power, poly_rem

__all__ = [
    "MAX_ORDER",
    "SdmDesign",
    "DCoeffs",
    "b_from_g",
    "g_from_b",
    "char_poly",
    "d_coeffs",
    "ntf_series",
]

MAX_ORDER = 5


def _validate_order(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {n}")


def _as_floats(seq: Sequence[float], name: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in seq)
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"{name} must contain finite values")
    return vals


def b_from_g(g: Sequence[float]) -> tuple[float, ...]:
    """Feedback-difference coefficients for cascade coefficients ``g``.

    The cascade of n delaying integrators with quantizer feedback ``g[j]``
    into stage j+1 yields ``D(z) = sum_j g[j] * (z-1)**j``; the result is
    returned with ``b[k-1]`` multiplying ``z**(n-k)``, zero-padded when the
    degree drops.
    """
    g = _as_floats(g, "g")
    n = len(g)
    _validate_order(n)
    d = Poly()
    for j, gj in enumerate(g):
        d = d + gj * binom_power(j, 1.0)
    asc = list(d.coeffs) + [0.0] * (n - len(d.coeffs))
    return tuple(asc[n - k] for k in range(1, n + 1))


def g_from_b(b: Sequence[float]) -> tuple[float, ...]:
    """Invert :func:`b_from_g`: expand ``D(z)`` in powers of ``(z - 1)``.

    Repeated synthetic division by ``(z - 1)`` peels off one cascade
    coefficient per step.
    """
    b = _as_floats(b, "b")
    n = len(b)
    _validate_order(n)
    d_poly = char_poly(b, n, 0.0)
    shift = Poly([-1.0, 1.0])
    out = []
    for _ in range(n):
        q, r, _ = poly_rem(d_poly, shift)
        out.append(r.coeffs[0] if not r.is_zero else 0.0)
        d_poly = q
    return tuple(out)


def char_poly(b: Sequence[float], n: int, a: float) -> Poly:
    """Characteristic denominator ``a*(z-1)**n + sum(b[k-1] * z**(n-k))``.

    At ``a = 1`` this is the linear-model denominator ``B(z)``; at ``a = 0``
    it degenerates to ``D(z)``.
    """
    b = _as_floats(b, "b")
    _validate_order(n)
    if len(b) != n:
        raise ValueError(f"len(b) must equal order {n}, got {len(b)}")
    a = float(a)
    if a < 0.0:
        raise ValueError("the integrator magnitude a must be nonnegative")
    f = a * binom_power(n, 1.0)
    asc = [0.0] * (n + 1)
    for k in range(1, n + 1):
        asc[n - k] = b[k - 1]
    return f + Poly(asc)


@dataclass(frozen=True)
class DCoeffs:
    """Unit-circle image coefficients ``d[k-1] = b[k-1] + C(n,k)*(-1)**k * a``."""

    d: tuple[float, ...]
    a: float

    @property
    def n(self) -> int:
        return len(self.d)


def d_coeffs(b: Sequence[float], n: int, a: float) -> DCoeffs:
    """Coefficients of ``z**(n-k)`` in the characteristic polynomial.

    Satisfies ``char_poly(b, n, a) == a*z**n + sum(d[k-1] * z**(n-k))``
    exactly (the binomials are exact integers).
    """
    b = _as_floats(b, "b")
    _validate_order(n)
    if len(b) != n:
        raise ValueError(f"len(b) must equal order {n}, got {len(b)}")
    a = float(a)
    d = tuple(b[k - 1] + math.comb(n, k) * (-1.0) ** k * a for k in range(1, n + 1))
    return DCoeffs(d=d, a=a)


@dataclass(frozen=True)
class SdmDesign:
    """Modulator design: order, optional cascade coefficients, and ``b``."""

    n: int
    b: tuple[float, ...]
    g: tuple[float, ...] | None = None

    def __post_init__(self):
        _validate_order(self.n)
        if len(self.b) != self.n:
            raise ValueError("len(b) must equal the order")
        if self.g is not None and len(self.g) != self.n:
            raise ValueError("len(g) must equal the order")

    @classmethod
    def from_g(cls, g: Sequence[float]) -> "SdmDesign":
        g = _as_floats(g, "g")
        return cls(n=len(g), b=b_from_g(g), g=g)

    @classmethod
    def from_b(cls, b: Sequence[float]) -> "SdmDesign":
        b = _as_floats(b, "b")
        return cls(n=len(b), b=b, g=None)


def ntf_series(b: Sequence[float], n: int, terms: int) -> list[float]:
    """Impulse response of ``C(z)/B(z)`` by long division in powers of 1/z.

    ``B`` is monic by construction so the leading coefficient is always 1.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    bden = char_poly(b, n, 1.0)
    cnum = binom_power(n, 1.0)
    beta = [float(v) for v in bden.descending()]  # beta[0] = 1
    cdesc = [float(v) for v in cnum.descending()]
    h = [0.0] * terms
    for m in range(terms):
        acc = cdesc[m] if m < len(cdesc) else 0.0
        for i in range(1, min(m, n) + 1):
            acc -= beta[i] * h[m - i]
        h[m] = acc
    return h
