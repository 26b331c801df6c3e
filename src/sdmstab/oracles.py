"""Independent numeric oracles: cross-checks for the exact root counts and
boundary events, kept for the tests.

Nothing in the analysis or the command line calls them.  Each reaches its
answer by a different route from the production path: companion-matrix
roots (``all_roots``, ``count_inside_eig``, ``bisect_boundary``), a sampled
winding integral (``winding_oracle``), a Jury table (``jury_stable``) and a
direct scan of the crossing parameter (``crossing_param``).  This is the
only module of the package that imports numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .boundary import ZeroPointCandidate, _crossing_value
from .polynomial import Poly
from .transfer import _char_poly, _check_coeffs, _check_result, _check_scalar
from .winding import RootCountResult, _normalized

__all__ = [
    "all_roots",
    "winding_oracle",
    "count_inside_eig",
    "jury_stable",
    "crossing_param",
    "bisect_boundary",
]

# Default refusal distance of the eigenvalue oracle ``count_inside_eig``.
MARGIN = 1e-9

# Adaptive refinement cap for the winding integral.
MAX_WINDING_SAMPLES = 2**20

# A crossing-parameter candidate is confirmed when the characteristic
# polynomial really does have a root this close to the unit circle at that a.
ON_CIRCLE_TOL = 1e-7


def all_roots(p: Poly) -> list[complex]:
    """All ``deg p`` complex roots via the companion-matrix eigenproblem.

    Each root gets a short Newton polish (kept only when the residual
    improves); output order is deterministic, sorted by real then imaginary
    part.  Raises ``ValueError`` for degree < 1, and when a coefficient
    exceeds the leading one 1e300-fold (the companion matrix would overflow).
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1 to extract roots")
    if not all(abs(c / p.leading) <= 1e300 for c in p.coeffs):
        raise ValueError("roots out of float range: the leading coefficient is too small")
    raw = np.roots(p.coeffs[::-1])
    dp = p.derivative()
    out: list[complex] = []
    for r in raw:
        z = complex(r)
        fz = abs(p(z))
        for _ in range(3):
            d = dp(z)
            if d == 0:
                break
            z2 = z - p(z) / d
            f2 = abs(p(z2))
            if f2 < fz:
                z, fz = z2, f2
            else:
                break
        out.append(z)
    out.sort(key=lambda z: (z.real, z.imag))
    return out


_ANGLE_CACHE: dict[int, np.ndarray] = {}


def _unit_circle(n: int) -> np.ndarray:
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
    if f.is_zero or f.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    n = f.degree
    # A positive scale leaves the winding unchanged and keeps the sampled
    # products of W values from overflowing on huge coefficients.
    s = f.scale_max()
    f = Poly(c / s for c in f.coeffs)
    m = max(16, int(samples))
    z = _unit_circle(m)
    w = np.polyval(f.coeffs[::-1], z) * np.conj(z) ** n
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


def _on_circle_distance(b: tuple[float, ...], n: int, a: float) -> float:
    roots = all_roots(_char_poly(b, n, a))
    return min(abs(abs(z) - 1.0) for z in roots)


def crossing_param(
    b: Sequence[float], n: int, phi_grid: int = 2048
) -> list[ZeroPointCandidate]:
    """Oracle boundary scan: real positive crossings of ``a(phi)`` on (0, pi).

    Scans the imaginary part of the crossing parameter for sign changes,
    bisects each bracket to 1e-12 in ``phi``, and emits ``(a, x=cos(phi))``
    for every real crossing with ``a > 0``.
    """
    b = _check_coeffs(b, "b", n)
    if phi_grid < 2:
        raise ValueError("phi_grid must be >= 2")
    # a(phi) is linear in b: work on b scaled by a power of two (exact), whose
    # values stay in range next to phi = 0, and scale each crossing back.
    scale = math.ldexp(1.0, math.frexp(max(abs(v) for v in b))[1])
    bs = [v / scale for v in b]
    phis = np.linspace(0.0, math.pi, phi_grid + 2)[1:-1]
    z = np.exp(1j * phis)
    vals = -np.polyval(np.asarray(bs, dtype=float), z) / (z - 1.0) ** n
    ims = vals.imag
    signs = np.where(ims >= 0.0, 1.0, -1.0)
    # Rounding noise on a structurally-real parameter (reciprocal designs)
    # must not read as crossings: demand the bracket rise above noise level.
    mags = np.abs(vals)
    out: list[ZeroPointCandidate] = []
    for i in np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]:
        if max(abs(ims[i]), abs(ims[i + 1])) <= 1e-9 * max(mags[i], mags[i + 1]):
            continue
        lo, hi = float(phis[i]), float(phis[i + 1])
        flo = float(ims[i])
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            fm = _crossing_value(bs, n, mid).imag
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm < 0.0) == (flo < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        phi = 0.5 * (lo + hi)
        a = _crossing_value(bs, n, phi).real * scale
        if a <= 0.0:
            continue
        _check_result((a,), "the crossing parameter")
        if any(abs(a - c.a) <= 1e-9 * max(1.0, abs(c.a)) for c in out):
            continue
        valid = _on_circle_distance(b, n, a) <= ON_CIRCLE_TOL
        out.append(
            ZeroPointCandidate(a=a, x=math.cos(phi), valid=valid, source="crossing_param")
        )
    out.sort(key=lambda c: c.a)
    return out


def bisect_boundary(b: Sequence[float], n: int, lo: float, hi: float) -> float:
    """Numeric flip-point search between two ``a`` values of different verdict.

    The verdict at each end comes from explicit root moduli; the bracket is
    bisected to 1e-10, or to float resolution where that is coarser.  Raises
    ``ValueError`` when both ends agree.
    """
    b = _check_coeffs(b, "b", n)
    lo = _check_scalar(lo, "lo", nonnegative=True)
    hi = _check_scalar(hi, "hi", nonnegative=True)
    if not lo < hi:
        raise ValueError("need lo < hi")

    def stable(a: float) -> bool:
        return max(abs(z) for z in all_roots(_char_poly(b, n, a))) < 1.0

    s_lo, s_hi = stable(lo), stable(hi)
    if s_lo == s_hi:
        raise ValueError("stability verdicts at lo and hi must differ")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if stable(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
