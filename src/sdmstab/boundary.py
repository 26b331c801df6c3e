"""Stability region of the quasi-static integrator magnitude ``a = |I|``.

For a design with feedback-difference coefficients ``b`` of order ``n``, the
characteristic polynomial ``F(z; a) = a*(z-1)**n + D(z)`` is stable exactly
when all roots stay inside the unit circle.  Stability flips only where a
root crosses the circle: either at ``z = -1`` (the closed-form lower bound)
or at an interior angle.  Both unit-circle profiles of ``F`` are linear in
``a``, so eliminating ``a`` between them (the paper's elimination with the
variable order swapped) leaves one event polynomial in ``x = cos(phi)``,
of degree at most two and exact in integers; its real roots, each solved
to the float nearest it, are the interior boundary events.  The tests
cross-check them with a direct crossing-parameter scan and eigenvalue
bisection.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .polynomial import MAX_ORDER, Poly, _int_coeffs, cheb_expand, chebyshev_u
from .transfer import DCoeffs, record
from .transfer import _SHIFTED, _char_poly, _check_coeffs, _check_result, _check_scalar
from .winding import count_inside_e1

__all__ = [
    "DegenerateBoundaryError",
    "ZeroPointCandidate",
    "StabilityInterval",
    "StabilityReport",
    "i_min",
    "zero_point_candidates",
    "i_max_order3",
    "t2_order5",
    "crossing_value",
    "classify_intervals",
]


class DegenerateBoundaryError(ValueError):
    """The boundary equation degenerates to a continuum.

    Happens when the event polynomial vanishes identically: the design is
    reciprocal-symmetric, so ``F`` is self-reciprocal for every ``a`` and
    pins a root pair to the unit circle over a whole range of ``a``; there
    is no isolated candidate list.
    """


@record
class ZeroPointCandidate:
    """Value of ``a`` at which the contour image may pass through the origin.

    ``x`` is the associated ``cos(phi)``; ``valid`` means ``F(z; a)`` has a
    root on the unit circle at an interior angle.
    """

    a: float
    x: float
    valid: bool


@record
class StabilityInterval:
    lo: float
    hi: float
    stable: bool
    witness_a: float
    witness_count: int | None


@record
class StabilityReport:
    sum_b: float
    a_min: float
    candidates: tuple[ZeroPointCandidate, ...]
    intervals: tuple[StabilityInterval, ...]


def i_min(b: Sequence[float], n: int) -> float:
    """Lower stability bound: the ``a`` at which a root crosses at ``z = -1``.

    Evaluates ``-sum((-1)**k * b_k) / 2**n`` with an exactly-rounded sum, so
    the value is as accurate as the inputs allow; ``F(-1; a_min) = 0``.
    """
    return _i_min(_check_coeffs(b, "b", n), n)


def _i_min(b: tuple[float, ...], n: int) -> float:
    """:func:`i_min` for an already checked ``b``."""
    alt = math.fsum((-1.0) ** k * b[k - 1] for k in range(1, n + 1))
    return (0.0 - alt) / 2.0**n  # not -alt: +0.0, not -0.0, when alt is 0


# --- boundary events ----------------------------------------------------------
#
# On the unit circle the image ``F(z; a)/z**n`` has real part ``r0`` and
# imaginary part ``sin(phi)*r1`` with, in ``x = cos(phi)``,
#
#     r0 = p0(x) + a*q0(x)      (cheb_expand, cosine kind)
#     r1 = p1(x) + a*q1(x)      (cheb_expand, sine kind)
#
# where ``p`` carries ``b`` and ``q`` the binomials of ``(z-1)**n``.  Both
# are linear in ``a``, so eliminating ``a`` leaves the single polynomial
# ``E = p0*q1 - p1*q0``: a root of ``F`` sits at ``e^{i phi}`` for a real
# ``a`` exactly when ``E(cos(phi)) = 0``.  ``E`` has structural degree
# ``n-1`` and the structural factor ``(1-x)**(n//2)``, since it is
# proportional to ``sin(phi/2)**n * S(phi) / sin(phi)`` with
#
#     S(phi) = sum_k b_k * sin((n/2 - k)*phi - n*pi/2).
#
# Dividing ``S`` by ``sin(phi)`` (even n) or ``cos(phi/2)`` (odd n) gives
# the deflated event polynomial ``R = sum_k b_k * K_k(x)``, of degree at
# most ``(n-1)//2``, with ``E = c_n * (1-x)**(n//2) * R`` for a constant
# ``c_n``.  Each ``K_k`` is ``+-U_j`` (even n) or ``U_j - U_{j-1}`` (odd n), whose
# coefficients are integers, so with ``b`` scaled to integers by one power
# of two (``_int_coeffs``) ``R`` is exact: it vanishes identically exactly
# when ``F`` is self-reciprocal for every ``a``, and its real roots come
# from its exact discriminant.


def _event_basis(n: int) -> tuple[tuple[int, ...], ...]:
    """Columns of the ``K_k(x)`` multiplying ``b_k``: ``[j][k-1]`` is ``[x**j] K_k``."""
    width = (n - 1) // 2 + 1
    rows = []
    for k in range(1, n + 1):
        if n % 2 == 0:
            f = n // 2 - k  # sin(f*phi) = sin(phi) * U_{f-1}(x)
            row = Poly() if f == 0 else (1 if f > 0 else -1) * chebyshev_u(abs(f) - 1)
        else:
            j = (abs(n - 2 * k) - 1) // 2  # cos((j+1/2)*phi) = cos(phi/2) * K(x)
            row = chebyshev_u(j) - (chebyshev_u(j - 1) if j else Poly())
        rows.append([int(c) for c in row.coeffs] + [0] * (width - len(row.coeffs)))
    return tuple(zip(*rows))


_EVENT_BASIS = {n: _event_basis(n) for n in range(1, MAX_ORDER + 1)}


def _event_poly(b: tuple[float, ...], n: int) -> list[int]:
    """``R`` for ``b`` scaled to integers by one power of two, ascending,
    without trailing zeros (empty when ``R`` vanishes identically)."""
    ints = _int_coeffs(b)
    c = [sum(map(operator.mul, ints, column)) for column in _EVENT_BASIS[n]]
    while c and c[-1] == 0:
        c.pop()
    return c


def _div(num: int, den: int) -> float:
    """``num / den`` correctly rounded, signed infinity past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


def _event_roots(c: list[int]) -> list[float]:
    """Real roots of the integer polynomial ``c`` of degree 1 or 2, ascending.

    Each root comes out as the float nearest it, and a double root once;
    roots past the float range are dropped.  The quadratic's roots are
    ``q/c2`` and ``c0/q`` with ``q = -(c1 + sign(c1)*sqrt(disc))/2``, which
    never cancels.  ``sqrt(disc)`` is bracketed with ``math.isqrt`` between
    consecutive multiples of ``2**-k``, and ``k`` doubles until both ends of
    each root round to the same float; an irrational root is never a
    rounding tie, and a perfect-square discriminant is exact at once.
    """
    if len(c) == 2:
        xs = [_div(-c[0], c[1])]
    else:
        c0, c1, c2 = c
        disc = c1 * c1 - 4 * c0 * c2
        if disc <= 0:
            xs = [_div(-c1, 2 * c2)] if disc == 0 else []
        else:
            sign = 1 if c1 >= 0 else -1
            k = max(1, 64 - disc.bit_length() // 2)  # s carries 64 or more bits
            while True:
                scaled = disc << 2 * k
                s = math.isqrt(scaled)
                # 2**(k+1) * q at both ends of the bracket; never 0
                qs = [-(c1 << k) - sign * r for r in (s, s + (s * s != scaled))]
                xs, upper = [(_div(q, c2 << (k + 1)), _div(c0 << (k + 1), q)) for q in qs]
                if xs == upper:
                    break
                k *= 2
    return sorted({x + 0.0 for x in xs if math.isfinite(x)})


def zero_point_candidates(b: Sequence[float], n: int) -> list[ZeroPointCandidate]:
    """Values of ``a`` where the contour image can pass through the origin.

    This is the paper's elimination between the real and imaginary
    unit-circle profiles with the variable order swapped: both profiles are
    linear in ``a``, so eliminating ``a`` instead of ``x = cos(phi)`` leaves
    one event polynomial in ``x`` (degree at most two once its structural
    ``(1-x)`` factor is divided out), exact in integers.  Each real root,
    as the float ``x`` nearest it, gives ``a = -p(x)/q(x)`` from the profile
    with the larger ``|q(x)|``; roots with ``a < 0`` are dropped.  A
    candidate is ``valid`` when ``|x| < 1``: its ``a`` zeroes one profile
    and leaves the other at ``+-E/q = 0``, so ``F`` has a root on the
    circle; other candidates are flagged invalid.  Raises
    :class:`DegenerateBoundaryError` when the event polynomial vanishes
    identically (a continuum, not isolated candidates).
    """
    return _zero_point_candidates(_check_coeffs(b, "b", n), n)


def _zero_point_candidates(b: tuple[float, ...], n: int) -> list[ZeroPointCandidate]:
    """:func:`zero_point_candidates` for an already checked ``b``."""
    event = _event_poly(b, n)
    if not event:
        raise DegenerateBoundaryError(
            "event polynomial vanishes identically: the design pins roots "
            "to the unit circle over a continuum of a values"
        )
    if len(event) < 2:
        return []
    binom = [math.comb(n, k) * (-1.0) ** k for k in range(1, n + 1)]
    p0, q0 = cheb_expand(b), cheb_expand(binom, 1.0)
    p1, q1 = cheb_expand(b, kind="sine"), cheb_expand(binom, kind="sine")
    out: list[ZeroPointCandidate] = []
    for x in _event_roots(event):
        p, q = (p0(x), q0(x)) if abs(q0(x)) >= abs(q1(x)) else (p1(x), q1(x))
        if q == 0.0:
            continue  # x = 1: z = 1 is a root of (z-1)**n for every a
        a = -p / q + 0.0  # +0.0, not -0.0, when p is 0
        if not 0.0 <= a < math.inf:
            continue
        out.append(ZeroPointCandidate(a=a, x=x, valid=abs(x) < 1.0))
    out.sort(key=lambda c: c.a)
    return out


def i_max_order3(b: Sequence[float]) -> tuple[float, bool]:
    """Closed-form order-3 boundary ``(b1*b3 - b3**2) / (b1 + b2 + b3)``.

    The flag reports whether the recovered crossing location
    ``x = -(b2 + 2a) / (2*(b3 - a))`` is a genuine interior self-intersection
    (``|x| < 1`` and ``b3 != a``).  Raises on a zero denominator and when
    the boundary overflows the float range.
    """
    b = _check_coeffs(b, "b", 3)
    s = math.fsum(b)
    if s == 0.0:
        raise ValueError("b1 + b2 + b3 must be nonzero")
    try:
        a = (b[0] * b[2] - b[2] ** 2) / s
    except OverflowError:
        a = math.inf
    if b[2] == a:
        return a, False
    x = -(b[1] + 2.0 * a) / (2.0 * (b[2] - a))
    _check_result((a, x), "the order-3 boundary")
    return a, abs(x) < 1.0


def t2_order5(d: DCoeffs) -> Poly:
    """Closed-form degree-3 factor of the order-5 terminal remainder.

    For order 5 the first remainder of the cosine profile by the sine
    profile equals ``a - T2(x)`` with
    ``T2(x) = 8*d5*x**3 + 4*d4*x**2 + (2*d3 - 4*d5)*x + (d2 - d4)``.
    """
    if d.n != 5:
        raise ValueError(f"order-5 coefficients required, got order {d.n}")
    d1, d2, d3, d4, d5 = d.d
    return Poly([d2 - d4, 2.0 * d3 - 4.0 * d5, 4.0 * d4, 8.0 * d5])


def crossing_value(b: Sequence[float], n: int, phi: float) -> complex:
    """The ``a`` that would place a root at angle ``phi`` on the unit circle.

    Solves ``F(e^{i phi}; a) = 0`` for ``a``: the value is a root-crossing
    parameter only where it comes out real and positive.  At ``phi = pi``
    it reduces exactly to the ``i_min`` formula.  Raises where the value
    leaves the float range (``phi`` at or next to 0).
    """
    b = _check_coeffs(b, "b", n)
    phi = _check_scalar(phi, "phi")
    z = complex(math.cos(phi), math.sin(phi))
    num = 0.0 + 0.0j
    for coeff in b:  # b is ordered descending in z powers
        num = num * z + coeff
    den = (z - 1.0) ** n
    val = -num / den if den != 0.0 else complex(math.inf, math.inf)
    _check_result((val.real, val.imag), "the crossing parameter")
    return val


# Events closer than this (relative) are merged; probes refuse to sit closer
# than this to an event.
EVENT_TOL = 1e-9


def _merge_events(values: list[float]) -> list[float]:
    values = sorted(values)
    out: list[float] = []
    for v in values:
        if out and abs(v - out[-1]) <= EVENT_TOL * max(1.0, abs(v)):
            continue
        out.append(v)
    return out


def _probe(b: tuple[float, ...], n: int, a: float) -> tuple[bool, int | None]:
    """Stability verdict at one ``a`` and its root count; a marginal probe
    (a root within ``2**-30`` of the circle) is unstable with no count."""
    res = count_inside_e1(_char_poly(b, n, a))
    return res.inside == n, res.inside


def classify_intervals(b: Sequence[float], n: int) -> StabilityReport:
    """Partition ``a > 0`` into stable/unstable intervals with witnesses.

    Events are the lower bound (when positive) plus every valid zero-point
    candidate (none for a reciprocal-symmetric design, whose event
    polynomial vanishes identically); each open interval between
    consecutive events is classified at a witness probe.  The linear-model
    point ``a = 1`` is preferred as the witness whenever it lies inside an
    interval.  If ``sum(b) <= 0`` the turning point at ``z = 1`` is never
    positive and every interval is unstable without further search.
    Raises ``ValueError`` when ``F`` at the witness past the last event
    would leave the float range.
    """
    b = _check_coeffs(b, "b", n)
    sum_b = math.fsum(b)
    a_min = _i_min(b, n)

    candidates, events = [], []
    # F(1) = sum(b) <= 0 puts a root at or beyond z = 1 for every a: no a is
    # stable (forced below: the rounded F can count that root inside), and
    # the one interval, probed at a = 1, needs no events.
    if sum_b > 0.0:
        try:
            candidates = _zero_point_candidates(b, n)
        except DegenerateBoundaryError:
            # F is self-reciprocal for every a: there is no isolated interior
            # event, so the only edge is a_min and the probes decide.
            pass
        events = [c.a for c in candidates if c.valid and c.a > EVENT_TOL]
        if a_min > EVENT_TOL:
            events.append(a_min)
        events = _merge_events(events)
    # The witness past the last event is the largest: refuse here, before
    # any probe, when F at it leaves the float range.
    top = 10.0 * events[-1] + 1.0 if events else 1.0
    _check_result([top * c + d for c, d in zip(_SHIFTED[n], b[::-1])], "the stability boundary")

    edges = [0.0] + events + [math.inf]
    intervals: list[StabilityInterval] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        witness = top if math.isinf(hi) else 0.5 * (lo + hi)
        if lo < 1.0 < hi:
            dist = min(1.0 - lo, (hi - 1.0) if not math.isinf(hi) else math.inf)
            if dist > EVENT_TOL:
                witness = 1.0
        stable, count = _probe(b, n, witness)
        intervals.append(
            StabilityInterval(
                lo=lo, hi=hi, stable=stable and sum_b > 0.0, witness_a=witness, witness_count=count
            )
        )
    return StabilityReport(
        sum_b=sum_b,
        a_min=a_min,
        candidates=tuple(candidates),
        intervals=tuple(intervals),
    )
