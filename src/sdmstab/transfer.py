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

from .polynomial import MAX_ORDER, Poly, binom_power, poly_rem

__all__ = [
    "MAX_ORDER",
    "record",
    "SdmDesign",
    "DCoeffs",
    "b_from_g",
    "g_from_b",
    "char_poly",
    "d_coeffs",
    "ntf_series",
]


# Every result and input class of the package is a ``record`` rather than a
# frozen dataclass: a command-line process would otherwise spend a large
# share of its start-up importing ``dataclasses`` (and ``inspect``) and
# running their code generation for every class.


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Class decorator: an immutable record with ``__slots__``.

    The annotated names of the class body are the fields, in order, and a
    class-level value is that field's default.  ``__init__`` takes the
    fields positionally or by keyword and then calls ``__post_init__`` when
    the class defines one; it may set fields with ``object.__setattr__``.
    ``==``, ``hash`` and the ``Name(field=value, ...)`` repr are those of
    a frozen dataclass, setting or deleting an attribute raises
    ``AttributeError``, and ``__reduce__`` rebuilds the record through
    ``__init__`` for ``pickle`` and ``copy``.  The field names are in
    ``_fields``.
    """
    fields = tuple(cls.__annotations__)
    body = {k: v for k, v in cls.__dict__.items()
            if k not in fields and k not in ("__dict__", "__weakref__")}
    body.update(__slots__=fields, _fields=fields, __qualname__=cls.__qualname__,
                __setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
    if any(f in cls.__dict__ for f in fields[: len(fields) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    cls = type(cls)(cls.__name__, cls.__bases__, body)

    values = "".join(f"self.{f}," for f in fields)
    others = "".join(f"other.{f}," for f in fields)
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    src = [f"def __init__(self, {', '.join(fields)}):"]
    src += [f"    _set_{f}(self, {f})" for f in fields]
    src += ["    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass"]
    src += [
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({values}) == ({others})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({values}))",
        "def __repr__(self):",
        f'    return f"{{self.__class__.__qualname__}}({shown})"',
        "def __reduce__(self):",
        f"    return self.__class__, ({values})",
    ]
    ns = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
    exec("\n".join(src), ns)
    ns["__init__"].__defaults__ = defaults or None
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__reduce__"):
        setattr(cls, name, ns[name])
    return cls


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
    into stage j+1 yields ``D(z) = sum_j g[j] * (z-1)**j``; the result is
    returned with ``b[k-1]`` multiplying ``z**(n-k)``, zero-padded when the
    degree drops.
    """
    g = _check_coeffs(g, "g")
    n = len(g)
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
    b = _check_coeffs(b, "b")
    n = len(b)
    d_poly = _char_poly(b, n, 0.0)
    shift = Poly([-1.0, 1.0])
    out = []
    for _ in range(n):
        q, r = poly_rem(d_poly, shift)
        out.append(r.coeffs[0] if not r.is_zero else 0.0)
        d_poly = q
    return tuple(out)


def char_poly(b: Sequence[float], n: int, a: float) -> Poly:
    """Characteristic denominator ``a*(z-1)**n + sum(b[k-1] * z**(n-k))``.

    At ``a = 1`` this is the linear-model denominator ``B(z)``; at ``a = 0``
    it degenerates to ``D(z)``.
    """
    b = _check_coeffs(b, "b", n)
    return _char_poly(b, n, _check_scalar(a, "the integrator magnitude a", nonnegative=True))


_SHIFTED = [binom_power(n, 1.0).coeffs for n in range(MAX_ORDER + 1)]  # (z - 1)**n


def _char_poly(b: tuple[float, ...], n: int, a: float) -> Poly:
    """:func:`char_poly` for an already checked ``b``; ``a`` may exceed the cap.
    Bit for bit the Poly sum ``a*(z-1)**n + D(z)``: that adds D's zeros to
    nonzero terms, and at ``a = 0`` the signed zeros of ``b`` stay."""
    d = b[::-1]
    return Poly([a * c + dk for c, dk in zip(_SHIFTED[n], d)] + [a]) if a else Poly(d)


@record
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
    b = _check_coeffs(b, "b", n)
    a = _check_scalar(a, "the integrator magnitude a", nonnegative=True)
    d = tuple(b[k - 1] + math.comb(n, k) * (-1.0) ** k * a for k in range(1, n + 1))
    return DCoeffs(d=d, a=a)


@record
class SdmDesign:
    """Modulator design: order, optional cascade coefficients, and ``b``."""

    n: int
    b: tuple[float, ...]
    g: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "b", _check_coeffs(self.b, "b", self.n))
        if self.g is not None:
            object.__setattr__(self, "g", _check_coeffs(self.g, "g", self.n))

    @classmethod
    def from_g(cls, g: Sequence[float]) -> "SdmDesign":
        g = tuple(g)
        return cls(n=len(g), b=b_from_g(g), g=g)

    @classmethod
    def from_b(cls, b: Sequence[float]) -> "SdmDesign":
        b = tuple(b)
        return cls(n=len(b), b=b)


def ntf_series(b: Sequence[float], n: int, terms: int) -> list[float]:
    """Impulse response of ``C(z)/B(z)`` by long division in powers of 1/z.

    ``B`` is monic by construction so the leading coefficient is always 1.
    """
    b = _check_coeffs(b, "b", n)
    terms = _check_count(terms, "terms")
    beta = _char_poly(b, n, 1.0).coeffs[::-1]  # descending powers, beta[0] = 1
    cdesc = _SHIFTED[n][::-1]
    h = [0.0] * terms
    for m in range(terms):
        acc = cdesc[m] if m < len(cdesc) else 0.0
        for i in range(1, min(m, n) + 1):
            acc -= beta[i] * h[m - i]
        h[m] = acc
    _check_result(h, "the impulse response")
    return h
