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
import operator
from typing import Sequence

from .polynomial import MAX_ORDER, SHIFTED_ROWS, Poly

__all__ = [
    "MAX_ORDER",
    "b_from_g",
    "g_from_b",
    "char_poly",
    "ntf_series",
]


# Input validation for every public entry point of transfer, boundary and
# simulator, and for every count (samples, steps, terms); each failure is a
# ValueError (CLI exit 2).  The cap keeps fsum of MAX_ORDER values and
# a*(z-1)**n (binomials <= 10) far from overflow; a positive value is at
# least 1/MAX_MAGNITUDE, so its reciprocal is in range.

MAX_MAGNITUDE = 1e300


def _check_scalar(v: float, name: str, *, nonnegative=False, positive=False) -> float:
    """``v`` as a float, finite with ``|v| <= MAX_MAGNITUDE``."""
    v = float(v)
    if not math.isfinite(v) or abs(v) > MAX_MAGNITUDE:
        raise ValueError(f"{name} must be finite with magnitude <= {MAX_MAGNITUDE:g}, got {v!r}")
    if nonnegative and v < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {v!r}")
    if positive and v < 1.0 / MAX_MAGNITUDE:
        raise ValueError(f"{name} must be positive (>= {1.0 / MAX_MAGNITUDE:g}), got {v!r}")
    return v


def _check_count(v: int, name: str, minimum: int = 1) -> int:
    """``v`` as an int ``>= minimum``; bools and non-integral values are refused."""
    if isinstance(v, bool):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    try:
        v = operator.index(v)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {v!r}") from None
    if v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {v}")
    return v


def _check_coeffs(seq: Sequence[float], name: str, n: int | None = None) -> tuple[float, ...]:
    """``seq`` as 1..MAX_ORDER checked scalars; exactly ``n`` of them when given."""
    vals = tuple(_check_scalar(v, name) for v in seq)
    order = len(vals) if n is None else n
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if len(vals) != order:
        raise ValueError(f"len({name}) must equal order {order}, got {len(vals)}")
    return vals


def _check_result(vals: Sequence[float], name: str) -> None:
    """Refuse a computed value that left the float range."""
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{name} overflows the float range for this input")


def b_from_g(g: Sequence[float]) -> tuple[float, ...]:
    """Feedback-difference coefficients for cascade coefficients ``g``.

    The cascade of n delaying integrators with quantizer feedback ``g[j]``
    into stage j+1 yields ``D(z) = sum_j g[j] * (z-1)**j``, summed here row
    by row of ``SHIFTED_ROWS``; the result is returned with ``b[k-1]``
    multiplying ``z**(n-k)``, zero when the degree drops.  Raises
    ``ValueError``, naming ``g``, when a derived coefficient passes the
    input cap.
    """
    g = _check_coeffs(g, "g")
    d = [0.0] * len(g)  # ascending
    for gj, row in zip(g, SHIFTED_ROWS):
        for k, c in enumerate(row):
            d[k] += gj * c
    return _check_coeffs(d[::-1], "the b derived from g")


def g_from_b(b: Sequence[float]) -> tuple[float, ...]:
    """Invert :func:`b_from_g`: expand ``D(z)`` in powers of ``(z - 1)``.

    Synthetic division by ``(z - 1)`` in place on the descending ``b``
    peels off one cascade coefficient per step, the remainder; a zero one
    is ``+0.0``.  Raises ``ValueError``, naming ``b``, when a derived
    coefficient passes the input cap.
    """
    d, g = list(_check_coeffs(b, "b")), []
    while d:
        for i in range(1, len(d)):
            d[i] += d[i - 1]
        g.append(d.pop() + 0.0)
    return _check_coeffs(g, "the g derived from b")


def char_poly(b: Sequence[float], n: int, a: float) -> Poly:
    """Characteristic denominator ``a*(z-1)**n + sum(b[k-1] * z**(n-k))``.

    At ``a = 1`` this is the linear-model denominator ``B(z)``; at ``a = 0``
    it degenerates to ``D(z)``.  Each coefficient is rounded to a float, so
    for ``a > 0`` this is ``F(z; a)`` rounded, not the exact polynomial that
    ``check`` and ``classify_intervals`` count: with ``|b|`` far below ``a``
    it is ``a*(z-1)**n`` itself, every root at ``z = 1``.
    """
    b = _check_coeffs(b, "b", n)
    return _char_poly(b, n, _check_scalar(a, "the integrator magnitude a", nonnegative=True))


def _char_poly(b: tuple[float, ...], n: int, a: float) -> Poly:
    """:func:`char_poly` for an already checked ``b``; ``a`` may exceed the cap.
    Each coefficient is ``a*C(n,k)*(-1)**(n-k) + D_k``; at ``a = 0`` it is
    ``D`` itself, so the signed zeros of ``b`` stay."""
    d = b[::-1]
    return Poly([a * c + dk for c, dk in zip(SHIFTED_ROWS[n], d)] + [a]) if a else Poly(d)


def ntf_series(b: Sequence[float], n: int, terms: int) -> list[float]:
    """Impulse response of ``C(z)/B(z)`` by long division in powers of 1/z.

    ``B`` is monic by construction so the leading coefficient is always 1.
    """
    b = _check_coeffs(b, "b", n)
    terms = _check_count(terms, "terms")
    beta = _char_poly(b, n, 1.0).coeffs[::-1]  # descending powers, beta[0] = 1
    cdesc = SHIFTED_ROWS[n][::-1]
    h = [0.0] * terms
    for m in range(terms):
        acc = float(cdesc[m]) if m < len(cdesc) else 0.0
        for i in range(1, min(m, n) + 1):
            acc -= beta[i] * h[m - i]
        h[m] = acc
    _check_result(h, "the impulse response")
    return h
