"""Unit-circle root counting from the contour image ``W(z) = F(z)/z**n``.

On ``|z| = 1`` the image of a real polynomial ``F`` of degree ``n`` crosses
the real axis only at the turning points ``W(1)``, ``W(-1)`` and at
self-intersection points, the roots in ``x = cos(phi)`` of the sine-kind
profile ``r1`` with ``Im W = -sin(phi)*r1``.  The signed crossings of the
negative real axis give the winding and so the number of roots inside the
circle.  ``count_inside_e1`` reads that sum without locating the points: it
is the Cauchy index of ``Re W / r1`` on (-1, 1) plus end terms, decided
exactly in integers from a signed remainder sequence.  A count is refused
when a root lies within ``2**-30`` of the circle.  ``characteristic_points``
locates the points themselves, and ``contour_table`` samples the image
for plotting.
"""

from __future__ import annotations

import math
import operator

from .polynomial import MAX_ORDER, Poly, cheb_expand, chebyshev_t, chebyshev_u
from .polynomial import _cauchy_index, _derivative, _int_coeffs, _primitive, _sign_near, _sturm
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


def _profile_columns(n: int, m: int) -> tuple[list[list[int]], list[list[int]]]:
    """Integer tables giving each coefficient of ``r0`` and ``r1`` of
    ``2**(REFUSE_BITS*n) * F(rho*z)``, ``rho = m / 2**REFUSE_BITS``, as a dot
    product with the coefficients ``(a, d_1, .., d_n)`` of an order-``n``
    ``F``; ``cos(k*phi) = T_k(x)`` and ``sin(k*phi) = sin(phi)*U_(k-1)(x)``."""
    t = [chebyshev_t(k).coeffs for k in range(n + 1)]
    u = [()] + [chebyshev_u(k - 1).coeffs for k in range(1, n + 1)]
    scale = [m ** (n - k) << (REFUSE_BITS * k) for k in range(n + 1)]

    def col(basis, j):
        return [int(p[j]) * s if j < len(p) else 0 for p, s in zip(basis, scale)]

    return [col(t, j) for j in range(n + 1)], [col(u, j) for j in range(n)]


_COLUMNS = [None] + [
    [_profile_columns(n, m) for m in ((1 << REFUSE_BITS) - 1, (1 << REFUSE_BITS) + 1)]
    for n in range(1, MAX_ORDER + 1)
]


def _count_exact(
    coeffs: list[int], t_cols: list[list[int]], u_cols: list[list[int]]
) -> int | None:
    """Roots inside ``|z| = 1`` of the polynomial whose profiles the tables
    make from the integer ``(a, d_1, .., d_n)``, ``a > 0``; None for a root
    on the circle.  See ``count_inside_e1``."""
    r0 = [sum(map(operator.mul, coeffs, col)) for col in t_cols]
    r1 = [sum(map(operator.mul, coeffs, col)) for col in u_cols]
    while r0[-1] == 0:  # r0 = a when every d_k is 0, else of degree max{k: d_k != 0}
        r0.pop()
    w_plus, w_minus = sum(r0), sum(r0[::2]) - sum(r0[1::2])  # W(1), W(-1)
    if w_plus == 0 or w_minus == 0:
        return None
    n = len(t_cols) - 1
    if not any(r1):
        return n  # W is constant: the image crosses nothing
    # deg r1 < deg r0, so sRem(r1, r0) = r1, sRem(r0, -r1).
    seq = [r1, *_sturm(r0, _primitive(r1, -1))]
    gcd = seq[-1]
    if len(gcd) > 1 and _cauchy_index(_sturm(gcd, _derivative(gcd))):
        return None  # a common root of r0 and r1 in (-1, 1) is on the circle
    s_0, s_m = _sign_near(r1, -1.0, 1), _sign_near(r1, 1.0, -1)
    w = (s_0 - s_m) // 2 + _cauchy_index(seq)  # + Ind(r0/r1) on (-1, 1)
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
    ``2**-30`` of the circle and the result is marginal with no count.
    """
    f = _normalized(f)
    if f.degree > MAX_ORDER:
        raise ValueError(f"need degree 1..{MAX_ORDER}, got {f.degree}")
    coeffs = _int_coeffs(f.coeffs)[::-1]
    counts = {_count_exact(coeffs, t, u) for t, u in _COLUMNS[f.degree]}
    if len(counts) != 1 or None in counts:
        return RootCountResult(inside=None, method="e1", marginal=True)
    (inside,) = counts
    return RootCountResult(inside=inside, method="e1", winding=inside - f.degree)


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
