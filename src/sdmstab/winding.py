"""Unit-circle root counting from the contour image ``W(z) = F(z)/z**n``.

On ``|z| = 1`` the image of a real polynomial ``F`` of degree ``n`` crosses
the real axis only at the turning points ``W(1)``, ``W(-1)`` and at
self-intersection points located by a polynomial in ``x = cos(phi)``.  The
signs of those characteristic points, together with the sign of the
sine-kind profile between them, give the winding of the image around the
origin and so the exact number of roots inside the circle, without
extracting any roots.  A numeric winding integral, eigenvalue extraction
and a Jury table are kept as independent oracles.  numpy is imported only
inside the winding integral, the eigenvalue oracle and ``contour_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .polynomial import Poly, all_roots, cheb_expand, real_roots_open

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SelfIntersection",
    "CharacteristicPoints",
    "RootCountResult",
    "characteristic_points",
    "count_inside_e1",
    "count_inside_eig",
    "winding_oracle",
    "jury_stable",
    "contour_table",
]

# Characteristic-point magnitudes below this relative threshold mean the
# contour passes through the origin: the verdict is refused, not guessed.
MARGIN = 1e-9

# Coefficient scale below which count_inside_e1 works on a copy scaled up by
# a power of two: MARGIN * 2**-900 is still a normal float with full precision.
TINY_SCALE = 2.0**-900

# Adaptive refinement cap for the winding integral.
MAX_WINDING_SAMPLES = 2**20


@dataclass(frozen=True)
class SelfIntersection:
    """Real-axis crossing of the contour image at an interior angle."""

    x: float      # cos(phi), strictly inside (-1, 1)
    re_w: float   # value of Re W there


@dataclass(frozen=True)
class CharacteristicPoints:
    """Turning-point values and self-intersections of the contour image.

    Derived from the sign-normalized polynomial (leading coefficient > 0);
    ``selfx`` is sorted by ``x`` ascending.
    """

    w_plus: float
    w_minus: float
    selfx: tuple[SelfIntersection, ...]


@dataclass(frozen=True)
class RootCountResult:
    """Outcome of a unit-circle root count.

    ``inside`` is None when ``marginal`` is set: a root sits too close to the
    circle for any verdict.
    """

    inside: int | None
    # e1 (exact signed-crossing count) | eig_oracle (root extraction)
    method: str
    marginal: bool = False
    points: CharacteristicPoints | None = None
    winding: int | None = None  # inside - degree; set on every e1 count


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
    return _contour(_normalized(f))[0]


def _contour(f: Poly) -> tuple[CharacteristicPoints, Poly]:
    """Characteristic points of a normalized ``f`` and its sine-kind profile
    ``r1``, with ``Im W = -sin(phi) * r1(cos(phi))``."""
    n = f.degree
    a = f.leading
    d = [f.coeffs[n - k] if n - k < len(f.coeffs) else 0.0 for k in range(1, n + 1)]
    w_plus = float(f(1.0))
    w_minus = float(f(-1.0) * (-1.0) ** n)
    r1 = cheb_expand(d, kind="sine")
    if r1.is_zero:
        # W is the constant a: the image is a single point, no crossings.
        return CharacteristicPoints(w_plus=w_plus, w_minus=w_minus, selfx=()), r1
    r0 = cheb_expand(d, a=a, kind="cosine")
    xs = real_roots_open(r1, -1.0, 1.0)
    selfx = tuple(SelfIntersection(x=x, re_w=float(r0(x))) for x in xs)
    return CharacteristicPoints(w_plus=w_plus, w_minus=w_minus, selfx=selfx), r1


def count_inside_e1(f: Poly) -> RootCountResult:
    """Count roots strictly inside ``|z| = 1`` from characteristic points.

    The count is ``n + w`` with ``w`` the signed number of times the image
    crosses the negative real axis.  With ``s_0 .. s_m`` the signs of the
    sine-kind profile ``r1`` on the gaps between its sorted roots in
    ``(-1, 1)`` (``s_0`` next to ``x = -1``), and ``Im W = -sin(phi)*r1``:
    a self-intersection ``x_i`` with ``Re W < 0`` adds ``s_(i-1) - s_i``
    (both conjugate halves; 0 at a tangency), ``W(1) < 0`` adds ``s_m`` and
    ``W(-1) < 0`` adds ``-s_0``.  Each gap sign is read at the gap midpoint,
    so a root of ``r1`` too close to ``x = +-1`` to be isolated does not
    flip it.  If any characteristic value is within ``MARGIN`` (relative)
    of zero, or ``r1`` vanishes at a gap midpoint, the result is flagged
    marginal with no count.  A polynomial whose coefficients all lie below
    ``TINY_SCALE`` is first scaled up by a power of two (exact; no root
    moves), so that neither ``MARGIN * scale`` nor the evaluations lose
    precision to subnormal rounding.
    """
    f = _normalized(f)
    s = f.scale_max()
    if s < TINY_SCALE:
        e = math.frexp(s)[1]
        f = Poly(math.ldexp(c, -e) for c in f.coeffs)
    n = f.degree
    cp, r1 = _contour(f)
    tol = MARGIN * f.scale_max()
    signs = _gap_signs(r1, cp.selfx)
    if (
        signs is None
        or abs(cp.w_plus) < tol
        or abs(cp.w_minus) < tol
        or any(abs(pt.re_w) < tol for pt in cp.selfx)
    ):
        return RootCountResult(inside=None, method="e1", marginal=True, points=cp)
    w = sum(signs[i] - signs[i + 1] for i, pt in enumerate(cp.selfx) if pt.re_w < 0.0)
    if cp.w_plus < 0.0:
        w += signs[-1]
    if cp.w_minus < 0.0:
        w -= signs[0]
    return RootCountResult(inside=n + w, method="e1", points=cp, winding=w)


def _gap_signs(r1: Poly, selfx: tuple[SelfIntersection, ...]) -> list[int] | None:
    """Sign of ``r1`` at the midpoint of each gap between -1, the sorted
    self-intersections and 1; None when ``r1`` vanishes at a midpoint."""
    if r1.is_zero:
        return [0]  # constant image: it crosses nothing
    edges = [-1.0, *(pt.x for pt in selfx), 1.0]
    signs = []
    for lo, hi in zip(edges, edges[1:]):
        v = r1(0.5 * (lo + hi))
        if v == 0.0:
            return None
        signs.append(1 if v > 0.0 else -1)
    return signs


_ANGLE_CACHE: dict[int, np.ndarray] = {}


def _unit_circle(n: int) -> np.ndarray:
    import numpy as np

    z = _ANGLE_CACHE.get(n)
    if z is None:
        phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        z = np.exp(1j * phi)
        _ANGLE_CACHE[n] = z
    return z


def winding_oracle(f: Poly, samples: int = 4096) -> int:
    """Net winding of ``W(z) = F(z)/z**n`` around the origin on ``|z| = 1``.

    The argument increment is accumulated over sampled angles; any arc whose
    jump reaches pi/2 (where the branch would become ambiguous) is bisected
    locally until every sub-jump is small, within a total evaluation budget
    of ``MAX_WINDING_SAMPLES``.  The count of roots inside the circle equals
    ``deg F + winding``.  Raises ``RuntimeError`` when the budget runs out
    or an arc can no longer be halved (a root is effectively on the
    contour).
    """
    import numpy as np

    if f.is_zero or f.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    n = f.degree
    # A positive scale leaves the winding unchanged and keeps the sampled
    # products of W values from overflowing on huge coefficients.
    s = f.scale_max()
    f = Poly(c / s for c in f.coeffs)
    desc = f.descending()
    m = max(16, int(samples))
    z = _unit_circle(m)
    w = np.polyval(desc, z) * np.conj(z) ** n
    if not np.all(w != 0.0):
        raise RuntimeError("winding undefined: W vanishes at a sampled angle")
    ratio = np.empty_like(w)
    ratio[:-1] = w[1:] * np.conj(w[:-1])
    ratio[-1] = w[0] * np.conj(w[-1])
    steps = np.angle(ratio)
    good = np.abs(steps) < 0.5 * np.pi
    total = float(np.sum(steps[good]))
    budget = MAX_WINDING_SAMPLES - m

    def w_at(phi: float) -> complex:
        zz = complex(math.cos(phi), math.sin(phi))
        val = f(zz) * zz ** (-n)
        if val == 0.0:
            raise RuntimeError("winding undefined: W vanishes on the contour")
        return val

    dphi = 2.0 * np.pi / m
    stack = [
        (i * dphi, complex(w[i]), (i + 1) * dphi, complex(w[(i + 1) % m]))
        for i in np.nonzero(~good)[0]
    ]
    while stack:
        pa, wa, pb, wb = stack.pop()
        d = np.angle(wb * wa.conjugate())
        if abs(d) < 0.5 * np.pi:
            total += float(d)
            continue
        pm = 0.5 * (pa + pb)
        if budget <= 0 or not pa < pm < pb:
            raise RuntimeError(
                "winding refinement exhausted: a root is too close to |z| = 1"
            )
        budget -= 1
        wm = w_at(pm)
        stack.append((pa, wa, pm, wm))
        stack.append((pm, wm, pb, wb))
    return int(round(total / (2.0 * np.pi)))


def count_inside_eig(f: Poly, margin: float = MARGIN) -> RootCountResult:
    """Root count via explicit root extraction; the fully independent oracle."""
    roots = all_roots(_normalized(f))
    dist = min(abs(abs(r) - 1.0) for r in roots)
    if dist < margin:
        return RootCountResult(inside=None, method="eig_oracle", marginal=True)
    inside = sum(1 for r in roots if abs(r) < 1.0)
    return RootCountResult(inside=inside, method="eig_oracle")


def jury_stable(f: Poly) -> str:
    """Jury/Schur-Cohn table verdict: ``stable``, ``unstable`` or ``marginal``.

    ``stable`` means every root lies strictly inside the unit circle.  A
    table pivot within 1e-10 (relative) of zero refuses the verdict as
    ``marginal``.
    """
    f = _normalized(f)
    n = f.degree
    c = [x / f.scale_max() for x in f.coeffs]
    tol = 1e-10

    f1 = sum(c)
    fm1 = sum(v * (-1.0) ** k for k, v in enumerate(c)) * (-1.0) ** n
    for edge in (f1, fm1):
        if abs(edge) <= tol:
            return "marginal"
        if edge < 0.0:
            return "unstable"

    while len(c) > 2:
        a0, an = c[0], c[-1]
        pivot = abs(an) - abs(a0)
        if abs(pivot) <= tol:
            return "marginal"
        if pivot < 0.0:
            return "unstable"
        k = len(c) - 1
        nxt = [an * c[j] - a0 * c[k - j] for j in range(1, k + 1)]
        s = max(abs(v) for v in nxt)
        c = [v / s for v in nxt] if s > 0.0 else nxt
    if len(c) == 2:
        pivot = abs(c[1]) - abs(c[0])
        if abs(pivot) <= tol:
            return "marginal"
        if pivot < 0.0:
            return "unstable"
    return "stable"


def contour_table(f: Poly, samples: int) -> list[tuple[float, float, float]]:
    """Sampled contour image rows ``(phi, Re W, Im W)`` at uniform angles."""
    import numpy as np

    if samples < 1:
        raise ValueError("samples must be >= 1")
    f = _normalized(f)
    n = f.degree
    phi = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    z = np.exp(1j * phi)
    w = np.polyval(f.descending(), z) * np.conj(z) ** n
    return [(float(p), float(v.real), float(v.imag)) for p, v in zip(phi, w)]
