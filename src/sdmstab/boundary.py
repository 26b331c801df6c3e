"""Stability region of the quasi-static integrator magnitude ``a = |I|``.

For a design with feedback-difference coefficients ``b`` of order ``n``, the
characteristic polynomial ``F(z; a) = a*(z-1)**n + D(z)`` is stable exactly
when all roots stay inside the unit circle.  Stability flips only where a
root crosses the circle: either at ``z = -1`` (the closed-form lower bound)
or at an interior angle.  Both unit-circle profiles of ``F`` are linear in
``a``, so eliminating ``a`` between them (the paper's elimination with the
variable order swapped) leaves one event polynomial in ``x = cos(phi)``,
of degree at most two and exact in integers; its real roots, with the ``a``
of each from a closed form in the same integers, each the float nearest
it, are the interior boundary events.  The event polynomial and that
closed form come from one straight-line integer function per order,
generated on first use from the same Chebyshev columns.  ``b`` is scaled to
integers by one power of two once per design, for ``a_min``, the event
polynomial and every witness probe.

Each interval between events is reported with one witness ``a`` inside it
and the count of roots inside there.  Past the last event that count is its
limit as ``a -> inf``.  Near ``z = 1``, ``D(z) ~ D(1) = sum(b)``, so the
roots gather at ``z = 1 + (sum(b)/a)**(1/n) * w`` with ``w**n = -1``; those
with ``Re w < 0`` are inside: 1, 1, 2, 3 of them at orders 1, 3, 4, 5.
Order 2's pair ``w = +-i`` has ``|z|**2 = 1 + b2/a``, inside when
``b2 < 0`` and outside when ``b2 > 0``.  This holds when (1) ``sum(b) > 0``,
(2) the event polynomial does not vanish identically (at order 2, when
``b2 != 0``), and (3) no valid event lies past the float range, where it
would be no edge.  Each edge below steps the count down by the roots that
cross there as ``a`` grows, each with an exact sign:

* at ``a_min`` the real root at ``z = -1`` enters the circle when
  ``v = sum_k (-1)**(k-1) * (2k - n) * b_k`` is positive and leaves when it
  is negative, from ``dz/da = -(z-1)**n / F'(z)``: ``v`` is
  ``-2*(-1)**n * F'(-1)`` at ``a_min``;
* at an interior event ``x0`` a conjugate pair enters when ``E'(x0) > 0``
  and leaves when ``E'(x0) < 0``, with ``E = p0*q1 - p1*q0 = c_n *
  (1-x)**m * R`` below and ``c_3 = -2``, ``c_4 = -4``, ``c_5 = 4``; as
  ``(1-x)**m > 0`` there, that is the sign of ``c_n`` times that of ``R'``
  at the root, which the root solve already has.

Equal edges sum their crossings.  Witness probes decide the rest: every
interval of a design where ``sum(b) <= 0`` (``F(1)`` is never positive, so
no ``a`` is stable) or where the limit does not hold; every interval below
an edge where a crossing has no sign (a double root at ``z = -1``,
``v = 0``, or a tangent interior event, a double root of ``R``); and an
interval between adjacent floats, which holds no float, so that its
witness is an edge.  A probe counts the exact ``F(z; witness)``, built in
integers by ``winding._exact_f``, on the unit circle itself, as the
``check`` command does.  The tests check every stepped count against that
probe, the events against a direct crossing-parameter scan and eigenvalue
bisection, and the verdicts against exact rational counts.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import zip_longest
from typing import Sequence

from .polynomial import COS_ROWS, MAX_ORDER, SHIFTED_ROWS, SIN_ROWS, record
from .polynomial import _compile, _div, _kernel_source, _scaled, _sum
from .transfer import _check_coeffs, _check_result
from .winding import _count_exact, _exact_f

__all__ = [
    "DegenerateBoundaryError",
    "ZeroPointCandidate",
    "StabilityInterval",
    "StabilityReport",
    "i_min",
    "zero_point_candidates",
    "i_max_order3",
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

    Evaluates ``-sum((-1)**k * b_k) / 2**n`` exactly in integers and rounds
    once, so the value is the float nearest it; ``F(-1; a_min) = 0``.
    """
    return _i_min(*_scaled(_check_coeffs(b, "b", n)), n)


def _i_min(ints: list[int], s: int, n: int) -> float:
    """:func:`i_min` for a checked ``b`` times ``2**s``, the integers ``ints``:
    +0.0 when the sum vanishes, -0.0 when it is negative and rounds to 0."""
    return _div(sum(ints[::2]) - sum(ints[1::2]), 1 << (s + n))


# --- boundary events ----------------------------------------------------------
#
# On the unit circle the image ``F(z; a)/z**n`` has real part
# ``r0 = p0(x) + a*q0(x)`` and imaginary part ``sin(phi)*r1`` with
# ``r1 = p1(x) + a*q1(x)``, in ``x = cos(phi)``, where ``p`` carries ``b``
# and ``q`` the binomials of ``(z-1)**n``.  Eliminating ``a`` leaves
# ``E = p0*q1 - p1*q0``: a root of ``F`` sits at ``e^{i phi}`` for a real
# ``a`` exactly when ``E(cos(phi)) = 0``.  ``E`` has structural degree
# ``n-1`` and the structural factor ``(1-x)**(n//2)``, since it is
# proportional to ``sin(phi/2)**n * S(phi) / sin(phi)`` with
#
#     S(phi) = sum_k b_k * sin((n/2 - k)*phi - n*pi/2).
#
# Dividing ``S`` by ``sin(phi)`` (even n) or ``cos(phi/2)`` (odd n) gives
# the deflated event polynomial ``R = sum_k b_k * K_k(x)``, of degree at
# most ``(n-1)//2``, with ``E = c_n * (1-x)**(n//2) * R``.  Each ``K_k`` is
# ``+-U_j`` (even n) or ``U_j - U_{j-1}`` (odd n), with integer coefficients,
# so with ``b`` scaled to integers by one power of two (``_scaled``) ``R``
# is exact: it vanishes identically exactly when ``F`` is
# self-reciprocal for every ``a``, and its real roots come from its exact
# discriminant.
#
# The ``a`` of an event solves ``F(e^{i phi}; a) = 0``: ``a = -D(z)/(z-1)**n``
# with ``D(z) = sum_k b_k * z**(n-k)``.  Put ``z - 1 = 2i*sin(phi/2)*e^{i phi/2}``,
# keep the real part (the imaginary part vanishes at an event) and use
# ``sin(phi/2)**2 = (1-x)/2``; with ``m = n // 2`` this is
#
#     a = A(x) / (2**(n-m) * (1-x)**m),      A = sum_k b_k * L_k(x),
#
# with ``L_k = -(-1)**m * T_|m-k|`` (even n) or ``-(-1)**m * sign(n-2k) *
# (U_j + U_{j-1})``, ``j = (|n-2k| - 1) // 2`` (odd n), from
# ``sin((j+1/2)*phi) = sin(phi/2) * (U_j + U_{j-1})``.  Reduced modulo ``R``
# by ``_prem``, which gives both the same positive multiplier at the same
# length, ``A`` and the denominator become constants or linear forms: at a
# root of ``R``, ``a`` is a Moebius map of ``x`` in the same integers.  For
# ``b = (3, -3, 1)``, ``a = (5 - 2x) / (4*(1 - x))``, 2 at ``x = 1/2``.


def _event_basis(n: int) -> tuple[tuple, tuple, tuple[int, ...]]:
    """Columns of the ``K_k(x)`` and of the ``L_k(x)`` multiplying ``b_k``
    (``[j][k-1]`` is ``[x**j]`` of each), and ``2**(n-m) * (1-x)**m``."""
    m = n // 2
    sign = -((-1) ** m)
    k_rows, l_rows = [], []
    for k in range(1, n + 1):
        if n % 2 == 0:
            f = m - k  # sin(f*phi) = sin(phi) * U_{f-1}(x)
            k_rows.append([(1 if f > 0 else -1) * c for c in SIN_ROWS[abs(f)]])
            l_rows.append([sign * c for c in COS_ROWS[abs(f)]])
        else:
            j = (abs(n - 2 * k) - 1) // 2  # cos((j+1/2)*phi) = cos(phi/2) * K(x)
            pairs = list(zip_longest(SIN_ROWS[j + 1], SIN_ROWS[j], fillvalue=0))  # U_j, U_{j-1}
            k_rows.append([u - lower for u, lower in pairs])
            l_rows.append([(sign if n > 2 * k else -sign) * (u + lower) for u, lower in pairs])
    k_cols, l_cols = (tuple(zip_longest(*rows, fillvalue=0)) for rows in (k_rows, l_rows))
    return k_cols, l_cols, tuple(math.comb(m, j) * (-1) ** j * 2 ** (n - m) for j in range(m + 1))


# --- the generated solve ------------------------------------------------------
#
# ``R`` has degree at most ``d = (n-1)//2`` (less when ``b_n = 0``), and
# ``A`` and the denominator have length ``n//2 + 1``.  ``_kernel`` writes
# out, for one order, ``R``'s coefficients from ``_event_basis`` and then
# one branch per degree ``R`` can have, from ``d`` down to 1, the first
# whose leading coefficient is nonzero taken: the unrolled ``_prem`` of
# ``A`` and of the denominator modulo ``R``, every coefficient in a local.
# Each step scales by ``|lc R|`` and subtracts the top term times ``R``
# with its sign made positive; the ``2**s`` of the denominator is shifted
# in last, as the remainder is linear in the form.  A constant ``R`` has no
# root, and an ``R`` that vanishes identically gives None.  The kernel is
# compiled on first use; nothing is built at import.

@functools.cache
def _kernel(n: int):
    """``kernel(ints, s)``: at order ``n``, ``R`` without trailing zeros, for
    ``b`` times ``2**s`` the integers ``ints``, with ``A`` and
    ``2**(n-m) * (1-x)**m`` times ``2**s`` reduced modulo ``R`` by
    ``_prem``; ``([r0], [], [])`` for a constant ``R``, None when ``R``
    vanishes identically."""
    k_cols, l_cols, den = _event_basis(n)

    def dot(column):  # sum_k column[k-1] * b_k
        return _sum("b", ((k, c) for k, c in enumerate(column, 1) if c))

    lines = [
        ", ".join(f"b{k}" for k in range(1, n + 1)) + ", = ints",
        *(f"r{j} = {dot(column)}" for j, column in enumerate(k_cols)),
    ]
    for d in range(len(k_cols) - 1, 0, -1):  # R of degree d
        rs, ns, minus = (", ".join(f"{v}{j}" for j in range(d)) for v in ("r", "n", "-r"))
        body = [f"scale, {ns} = (r{d}, {rs}) if r{d} > 0 else (-r{d}, {minus})"]
        forms = []
        for v, init in (("a", list(map(dot, l_cols))), ("e", list(map(str, den)))):
            terms = [f"{v}{j}" for j in range(len(init))]
            body.append(f"{', '.join(terms)} = {', '.join(init)}")
            while len(terms) > d:  # one step of _prem
                top = terms.pop()
                low = len(terms) - d  # top * x**low * R cancels the top term
                body.append(", ".join(terms) + " = " + ", ".join(
                    f"scale * {t}" + (f" - {top} * n{j - low}" if j >= low else "") for j, t in enumerate(terms)))
            forms.append(terms)
        num, rem = forms
        body.append(f"return [{rs}, r{d}], [{', '.join(num)}], [{', '.join(t + ' << s' for t in rem)}]")
        lines += [f"if r{d}:", *(f"    {line}" for line in body)]
    lines.append("return ([r0], [], []) if r0 else None")
    return _compile(_kernel_source("ints, s", lines), f"event kernel n={n}", {})["kernel"]


def _event_roots(c: list[int], num: list[int], den: list[int]) -> list[tuple[float, float, bool, int]]:
    """Events ``(a, x, valid, slope)`` at the real roots of the integer
    polynomial ``c`` of degree 1 or 2, ascending, each once, none past the
    float range: ``a = num(x)/den(x)`` for integer forms of lower degree
    (``inf`` at ``den = 0``: the exact ``x = 1``), ``valid = |x| < 1``, and
    ``slope`` the sign of ``c'`` at the root, all exact; ``slope`` is 0 at a
    double root and where two roots give one event.

    ``x`` and ``a`` are the floats nearest them.  The quadratic's roots are
    ``q/c2`` and ``c0/q`` with ``q = -(c1 + sign(c1)*sqrt(disc))/2``, which
    never cancels; ``math.isqrt`` brackets ``sqrt(disc)`` between multiples
    of ``2**-k``, and ``k`` doubles until both ends of each root give the
    same event and sign of ``den``: ``x`` and ``a``, a Moebius map with no
    pole between the ends, are then monotone on the bracket.  An irrational
    root and its ``a`` (unless constant) are never rounding ties; rational
    roots are exact at once.  The forms are evaluated in place: for a
    linear ``c`` they are constants and ``a`` is ``num0/den0`` rounded
    once, and the quadratic's ``at`` takes the linear forms at one end of
    the bracket with two products each.
    """
    if len(c) == 2:
        # One root, -c0/c1, where the constant forms give a = num0/den0.
        (c0, c1), (n0,), (d0,) = c, num, den
        u, v = (-c0, c1) if c1 > 0 else (c0, -c1)
        a = _div(n0, d0) + 0.0 if d0 else math.inf  # +0.0, not -0.0
        found = [(a, _div(u, v) + 0.0, abs(u) < v, 1 if c1 > 0 else -1)]
    else:
        (n0, n1), (d0, d1) = num, den

        def at(u: int, v: int) -> tuple[float, float, bool, bool]:
            """The event at the root ``u/v`` and whether ``den > 0`` there."""
            if v < 0:
                u, v = -u, -v
            bottom = d0 * v + d1 * u
            a = _div(n0 * v + n1 * u, bottom) + 0.0 if bottom else math.inf
            return a, _div(u, v) + 0.0, abs(u) < v, bottom > 0

        c0, c1, c2 = c
        disc = c1 * c1 - 4 * c0 * c2
        if disc <= 0:
            found = [(*at(-c1, 2 * c2)[:3], 0)] if disc == 0 else []
        else:
            sign = 1 if c1 >= 0 else -1
            k = max(1, 64 - disc.bit_length() // 2)  # root carries 64 or more bits
            while True:
                scaled = disc << 2 * k
                root = math.isqrt(scaled)
                # 2**(k+1) * q at the lower end of the bracket; never 0
                q, w, z = -(c1 << k) - sign * root, c2 << (k + 1), c0 << (k + 1)
                ends = [at(q, w), at(z, q)]
                if root * root == scaled or ends == [at(q - sign, w), at(z, q - sign)]:
                    break
                k *= 2
            # R' is -sign*sqrt(disc) at q/c2 and +sign*sqrt(disc) at c0/q;
            # two roots that round alike merge, their slopes cancelling.
            first, second = ends[0][:3], ends[1][:3]
            found = [(*first, 0)] if first == second else [(*first, -sign), (*second, sign)]
    return sorted(event for event in found if math.isfinite(event[1]))


def zero_point_candidates(b: Sequence[float], n: int) -> list[ZeroPointCandidate]:
    """Values of ``a`` where the contour image can pass through the origin.

    This is the paper's elimination between the real and imaginary
    unit-circle profiles with the variable order swapped: both are linear
    in ``a``, so eliminating ``a`` instead of ``x = cos(phi)`` leaves one
    event polynomial in ``x`` of degree at most two, exact in integers.  At
    each real root, ``x`` and ``a = A(x) / (2**(n-m) * (1-x)**m)`` come out
    as the floats nearest them, and ``valid`` is the exact ``|x| < 1`` (a
    root of ``F`` on the circle); ``a < 0`` and ``x = 1`` are dropped.
    Raises :class:`DegenerateBoundaryError` when the event polynomial
    vanishes identically (a continuum, not isolated candidates).
    """
    return _zero_point_candidates(*_scaled(_check_coeffs(b, "b", n)), n)[0]


def _zero_point_candidates(ints: list[int], s: int, n: int) -> tuple[list[ZeroPointCandidate], bool, list[int]]:
    """:func:`zero_point_candidates` for a checked ``b`` times ``2**s``, the
    integers ``ints``, whether a valid event was dropped past the float
    range, and the sign of ``R'`` at each candidate (see ``_event_roots``).
    The order's generated kernel makes ``R`` and the forms reduced modulo
    it in straight-line integer code."""
    forms = _kernel(n)(ints, s)
    if forms is None:
        raise DegenerateBoundaryError(
            "event polynomial vanishes identically: the design pins roots "
            "to the unit circle over a continuum of a values"
        )
    if len(forms[0]) < 2:
        return [], False, []
    candidates, beyond, slopes = [], False, []
    for a, x, valid, slope in _event_roots(*forms):
        if 0.0 <= a < math.inf:
            candidates.append(ZeroPointCandidate(a, x, valid))
            slopes.append(slope)
        beyond = beyond or valid and a == math.inf
    return candidates, beyond, slopes


def i_max_order3(b: Sequence[float]) -> tuple[float, bool]:
    """Closed-form order-3 boundary ``(b1*b3 - b3**2) / (b1 + b2 + b3)``.

    The flag reports whether the crossing location ``x = (b3 - b1 - b2) /
    (2*b3)``, the root of the order-3 event polynomial, is a genuine
    interior self-intersection (``|x| < 1`` and ``b3 != 0``).  Both are
    exact: with ``b`` scaled to integers by one power of two, ``a`` and
    ``x`` are ratios of integers, each the float nearest it, and the flag
    compares the integers.  Raises on a zero denominator and when the exact
    ``a`` or ``x`` leaves the float range.
    """
    (b1, b2, b3), s = _scaled(_check_coeffs(b, "b", 3))
    total = b1 + b2 + b3
    if not total:
        raise ValueError("b1 + b2 + b3 must be nonzero")
    a = _div(b3 * (b1 - b3), total << s) + 0.0  # +0.0, not -0.0
    top, bottom = b3 - b1 - b2, 2 * b3  # x = top / bottom
    if not bottom:
        return a, False
    _check_result((a, _div(top, bottom)), "the order-3 boundary")
    return a, abs(top) < abs(bottom)


# Per order, the roots of F inside the circle as a -> inf when sum(b) > 0
# (the module docstring derives them); order 2's hangs on the sign of b2.
_LIMIT_COUNTS = (None, 1, None, 1, 2, 3)

# Per order: the roots entering the circle as a grows past an interior event,
# per unit of the sign of R' there, 2*sign(c_n); and the weights
# (-1)**(k-1) * (2k - n) of b_k in v, whose sign is the root entering at a_min.
_PAIR_TURNS = (None, None, None, -2, -2, 2)
_MIN_ROWS = [[(-1) ** (k - 1) * (2 * k - n) for k in range(1, n + 1)] for n in range(MAX_ORDER + 1)]


def _probe(ints: list[int], s: int, n: int, a: float) -> tuple[bool, int | None]:
    """Stability verdict at one ``a > 0`` and its root count, from the exact
    ``F(z; a)`` (``winding._exact_f``) of ``b`` scaled once per design, to
    the integers ``ints`` times ``2**-s``.  A root on the circle makes the
    probe unstable with no count."""
    inside = _count_exact(_exact_f(ints, s, n, a)[0])
    return inside == n, inside


def classify_intervals(b: Sequence[float], n: int) -> StabilityReport:
    """Partition ``a > 0`` into stable/unstable intervals with witnesses.

    Events are the lower bound (when positive) plus every valid zero-point
    candidate (none for a reciprocal-symmetric design, whose event
    polynomial vanishes identically).  Each open interval between
    consecutive events gets a witness ``a`` and the count of roots of
    ``F(z; witness)`` inside the unit circle.  The linear-model point
    ``a = 1`` is the witness whenever it lies inside an interval; an
    interval between adjacent floats holds no float, and its witness is an
    edge.  The last interval's count is the limit ``a -> inf``: ``n - 2``
    at orders 3-5, 1 at order 1, and at order 2 two for ``b2 < 0``, none
    for ``b2 > 0``.  Each edge below steps the count down by the roots
    entering there as ``a`` grows: ``sign(v)`` at ``a_min``, with
    ``v = sum_k (-1)**(k-1) * (2k - n) * b_k``, and ``2*sign(c_n)`` times
    the sign of ``R'`` at each interior event, with ``c_3 = -2``,
    ``c_4 = -4`` and ``c_5 = 4`` (the module docstring derives both).
    Every interval is probed instead, its count that of the exact ``F`` at
    the witness, when ``sum(b) <= 0``, when the event polynomial vanishes
    identically (at order 2, ``b2 = 0``) or when a valid event is past the
    float range; so is every interval below an edge whose crossing has no
    sign (``v = 0`` or a tangent interior event), and an interval whose
    witness is an edge.
    If ``sum(b) <= 0`` the turning point ``F(1) = sum(b)`` is never
    positive: there is no event search, and the one interval is unstable.
    Raises ``ValueError`` when ``F`` at the witness past the last event
    would leave the float range.
    """
    b = _check_coeffs(b, "b", n)
    sum_b = math.fsum(b)
    ints, s = _scaled(b)  # b times 2**s, for a_min, the event search and every probe
    a_min = _i_min(ints, s, n)

    candidates, events = [], []
    limit = None  # the count inside past the last event, when it is the a -> inf limit
    # F(1) = sum(b) <= 0 puts a root at or beyond z = 1 for every a: no a is
    # stable, and the one interval, probed at a = 1, needs no events.
    if sum_b > 0.0:
        # Order 2's pair has |z|**2 = 1 + b2/a: inside for b2 < 0, and on the
        # circle for every a when b2 = 0, the continuum the probes decide.
        limit = _LIMIT_COUNTS[n] if n != 2 else 2 if ints[1] < 0 else 0 if ints[1] else None
        slopes = []
        # Below order 3 the event polynomial is a constant: no interior event.
        if n > 2:
            try:
                candidates, beyond, slopes = _zero_point_candidates(ints, s, n)
            except DegenerateBoundaryError:
                # F is self-reciprocal for every a: there is no isolated
                # interior event, so the only edge is a_min and the probes
                # decide, the last one too.
                limit = None
            else:
                if beyond:
                    # A valid event past the float range is no edge, so the
                    # limit need not hold past the last one: the probe decides.
                    limit = None
        # turns[a]: the roots entering the circle as a grows past the edge a.
        # Exactly equal events meet in one key: an interior event at a_min is
        # one edge.  A crossing with no sign (a tangency, or a double root at
        # z = -1) makes the turn None: the probes decide below that edge.
        v = sum(map(operator.mul, ints, _MIN_ROWS[n]))
        turns = {a_min: (v > 0) - (v < 0) or None}
        for c, slope in zip(candidates, slopes):
            if c.valid:
                turn = turns.get(c.a, 0)
                turns[c.a] = turn + _PAIR_TURNS[n] * slope if slope and turn is not None else None
        events = sorted(a for a in turns if a > 0.0)
    # The witness past the last event is the largest: refuse here, before
    # any probe, when F at it leaves the float range.
    top = 10.0 * events[-1] + 1.0 if events else 1.0
    _check_result([top * c + d for c, d in zip(SHIFTED_ROWS[n], b[::-1])], "the stability boundary")

    edges = [0.0] + events + [math.inf]
    intervals: list[StabilityInterval] = []
    count = limit  # the exact count inside, stepped down across each edge from the limit
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        if count is not None and hi < math.inf:
            count = None if turns[hi] is None else count - turns[hi]
        # Each edge is the float nearest its exact event, so a float strictly
        # between two edges is strictly inside the exact interval.  Between
        # adjacent floats the midpoint rounds to an edge; at 0 it takes hi.
        if lo < 1.0 < hi:
            witness = 1.0
        else:
            witness = top if math.isinf(hi) else 0.5 * (lo + hi) or hi
        if count is not None and lo < witness < hi:
            stable, inside = count == n, count
        else:
            stable, inside = _probe(ints, s, n, witness)
        intervals.append(StabilityInterval(lo, hi, stable, witness, inside))
    intervals.reverse()
    return StabilityReport(sum_b, a_min, tuple(candidates), tuple(intervals))
