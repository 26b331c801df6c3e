"""Unit-circle root counting from the contour image ``W(z) = F(z)/z**n``.

On ``|z| = 1`` the image of a real polynomial ``F`` of degree ``n`` crosses
the real axis only at the turning points ``W(1)``, ``W(-1)`` and at
self-intersection points, the roots in ``x = cos(phi)`` of the sine-kind
profile ``r1`` with ``Im W = -sin(phi)*r1``.  The signed crossings of the
negative real axis give the winding and so the number of roots inside the
circle.  ``count_inside_e1`` reads that sum without locating the points: it
is the Cauchy index of ``Re W / r1`` on (-1, 1) plus end terms, decided
exactly in integers from a signed remainder sequence, walked once.  A count
is refused exactly when a root lies within ``2**-30`` of the circle, and one
radius ``1 -+ 2**-30`` settles it when it finds every root inside the inner
or outside the outer circle.  ``characteristic_points`` locates the points
themselves, and ``contour_table`` samples the image for plotting.
"""

from __future__ import annotations

import math
import operator

from .polynomial import MAX_ORDER, Poly, cheb_expand, chebyshev_t, chebyshev_u
from .polynomial import _cauchy_index, _derivative, _end_signs, _int_coeffs, _primitive
from .polynomial import real_roots_open
from .transfer import _check_count, record

__all__ = [
    "SelfIntersection",
    "CharacteristicPoints",
    "RootCountResult",
    "characteristic_points",
    "count_inside_e1",
    "contour_table",
]


@record
class SelfIntersection:
    """Real-axis crossing of the contour image at an interior angle."""

    x: float      # cos(phi), strictly inside (-1, 1)
    re_w: float   # value of Re W there


@record
class CharacteristicPoints:
    """Turning-point values and self-intersections of the contour image.

    Derived from the sign-normalized polynomial (leading coefficient > 0);
    ``selfx`` is sorted by ``x`` ascending.
    """

    w_plus: float
    w_minus: float
    selfx: tuple[SelfIntersection, ...]


@record
class RootCountResult:
    """Outcome of a unit-circle root count.

    ``inside`` is None when ``marginal`` is set: a root sits too close to the
    circle for any verdict.  No count sets ``points``; the ``check`` command
    adds them from ``characteristic_points`` for its report.
    """

    inside: int | None
    # e1 (exact signed-crossing count) | eig_oracle (oracles.count_inside_eig)
    method: str
    marginal: bool = False
    winding: int | None = None  # inside - degree; set on every e1 count
    points: CharacteristicPoints | None = None


def _normalized(f: Poly) -> Poly:
    if f.is_zero or f.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    return f if f.leading > 0 else -f


def characteristic_points(f: Poly) -> CharacteristicPoints:
    """Characteristic points of ``W(z) = F(z)/z**n`` on the unit circle.

    The polynomial is sign-normalized first (negating ``F`` moves no roots).
    Writing the normalized ``F = a*z**n + sum(d_k * z**(n-k))``, the image is
    ``W = a + sum(d_k / z**k)``, so on the circle ``Re W`` and
    ``Im W / sin(phi)`` become polynomials in ``x = cos(phi)`` through the
    cosine/sine basis conversion; self-intersections are the roots of the
    sine-kind polynomial strictly inside (-1, 1).
    """
    f = _normalized(f)
    n = f.degree
    d = [f.coeffs[n - k] for k in range(1, n + 1)]
    w_plus = float(f(1.0))
    w_minus = float(f(-1.0) * (-1.0) ** n)
    r1 = cheb_expand(d, kind="sine")
    if r1.is_zero:
        # W is the constant a: the image is a single point, no crossings.
        return CharacteristicPoints(w_plus=w_plus, w_minus=w_minus, selfx=())
    r0 = cheb_expand(d, a=f.leading, kind="cosine")
    xs = real_roots_open(r1, -1.0, 1.0)
    selfx = tuple(SelfIntersection(x=x, re_w=float(r0(x))) for x in xs)
    return CharacteristicPoints(w_plus=w_plus, w_minus=w_minus, selfx=selfx)


# Refusal radius: a count is given only when no root lies within 2**-REFUSE_BITS
# of the circle.  A dyadic radius keeps both counts exact.
REFUSE_BITS = 30

_TABLES: dict = {}


def _tables(n: int) -> tuple[list, list, list[int], list[int]]:
    """Order-``n`` tables, built on first use: rows giving each coefficient of
    ``r0`` and ``r1`` as small multiples of ``(a, d_1, .., d_n)``
    (``cos(k*phi) = T_k(x)``, ``sin(k*phi) = sin(phi)*U_(k-1)(x)``), and the
    factors scaling those to ``2**(REFUSE_BITS*n) * F(rho*z)`` at the inner
    and the outer radius ``rho = 1 -+ 2**-REFUSE_BITS``."""
    if n not in _TABLES:
        t = [chebyshev_t(k).coeffs for k in range(n + 1)]
        u = [()] + [chebyshev_u(k - 1).coeffs for k in range(1, n + 1)]
        rows = [[[(k, int(p[j])) for k, p in enumerate(basis) if j < len(p) and p[j]]
                 for j in range(width)] for basis, width in ((t, n + 1), (u, n))]
        one = 1 << REFUSE_BITS
        _TABLES[n] = *rows, *([m ** (n - k) << (REFUSE_BITS * k) for k in range(n + 1)]
                              for m in (one - 1, one + 1))
    return _TABLES[n]


def _count_exact(coeffs: list[int], scale: list[int]) -> int | None:
    """Roots inside ``|z| = 1`` of the polynomial with the integer
    coefficients ``(a, d_1, .., d_n)`` times ``scale``, ``a > 0``; None for a
    root on the circle.  See ``count_inside_e1``."""
    n = len(coeffs) - 1
    t_rows, u_rows, _, _ = _tables(n)
    coeffs = list(map(operator.mul, coeffs, scale))
    r0 = [sum([coeffs[k] * c for k, c in row]) for row in t_rows]
    r1 = [sum([coeffs[k] * c for k, c in row]) for row in u_rows]
    while r0[-1] == 0:  # r0 = a when every d_k is 0, else of degree max{k: d_k != 0}
        r0.pop()
    w_plus, w_minus = sum(r0), sum(r0[::2]) - sum(r0[1::2])  # W(1), W(-1)
    if w_plus == 0 or w_minus == 0:
        return None
    while r1 and r1[-1] == 0:
        r1.pop()
    if not r1:
        return n  # W is constant: the image crosses nothing
    # sRem(r1, r0) is r1 followed by sRem(r0, -r1), and r0 has the signs of
    # W(-1) and W(1) at the ends, so this gives Ind(r0/r1) on (-1, 1).
    s_0, s_m = _end_signs(r1)
    index, gcd = _cauchy_index(r0, _primitive(r1, -1))
    index += (s_0 * w_minus < 0) - (s_m * w_plus < 0)
    if len(gcd) > 1 and _cauchy_index(gcd, _derivative(gcd))[0]:
        return None  # a common root of r0 and r1 in (-1, 1) is on the circle
    w = (s_0 - s_m) // 2 + index
    if w_plus < 0:
        w += s_m
    if w_minus < 0:
        w -= s_0
    return n + w


def count_inside_e1(f: Poly) -> RootCountResult:
    """Count roots strictly inside ``|z| = 1`` from characteristic points.

    The count is ``n + w`` with ``w`` the signed number of times the image
    ``W = F/z**n`` crosses the negative real axis.  With ``Re W = r0(x)``,
    ``Im W = -sin(phi)*r1(x)`` and ``s_0 .. s_m`` the signs of ``r1`` on the
    gaps between its roots in (-1, 1), the self-intersections with
    ``Re W < 0`` add ``(s_0 - s_m)/2 + Ind(r0/r1)``, the Cauchy index of
    ``r0/r1`` on (-1, 1), which sign variations of the signed remainder
    sequence of ``(r1, r0)`` at the ends give without isolating any root;
    ``W(1) < 0`` adds ``s_m`` and ``W(-1) < 0`` adds ``-s_0``.  All of it is
    exact integer arithmetic on the float coefficients scaled by a power of
    two.  The count is taken for ``F(rho*z)`` at ``rho = 1 -+ 2**-30``; if the
    two differ, or either has a root on the circle, a root lies within
    ``2**-30`` of the circle and the result is marginal with no count.  One
    radius settles it when it gives ``n`` at ``1 - 2**-30`` or 0 at
    ``1 + 2**-30``: the other could only agree.  The product of the root
    moduli is ``|F(0)/a|``, so the inner radius comes first if ``|F(0)| < a``
    (no count can be 0) and the outer one otherwise (none can be ``n``).
    """
    f = _normalized(f)
    n = f.degree
    if n > MAX_ORDER:
        raise ValueError(f"need degree 1..{MAX_ORDER}, got {n}")
    coeffs = _int_coeffs(f.coeffs)[::-1]
    _, _, inner, outer = _tables(n)
    first, second, settled = (inner, outer, n) if abs(coeffs[-1]) < coeffs[0] else (outer, inner, 0)
    inside = _count_exact(coeffs, first)
    if inside != settled and (inside is None or inside != _count_exact(coeffs, second)):
        return RootCountResult(inside=None, method="e1", marginal=True)
    return RootCountResult(inside=inside, method="e1", winding=inside - n)


def contour_table(f: Poly, samples: int) -> list[tuple[float, float, float]]:
    """Sampled contour image rows ``(phi, Re W, Im W)`` at uniform angles."""
    samples = _check_count(samples, "samples")
    f = _normalized(f)
    n = f.degree
    step = 2.0 * math.pi / samples
    rows = []
    for k in range(samples):
        phi = k * step
        z = complex(math.cos(phi), math.sin(phi))
        w = f(z) * z.conjugate() ** n
        rows.append((phi, w.real, w.imag))
    return rows
