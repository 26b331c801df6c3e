"""Independent numeric oracles: cross-checks for the exact root counts and
boundary events of ``sdmstab``, imported by the tests as ``oracles``.

The package never calls them.  Each reaches its answer by a different
route from the production path: companion-matrix roots (``all_roots``,
``count_inside_eig``, ``bisect_boundary``), a sampled winding integral
(``winding_oracle``), a Jury table (``jury_stable``), a direct scan of
the crossing parameter (``crossing_param``) and float unit-circle profiles
from float Chebyshev polynomials (``cheb_expand``).  They need numpy; the
package does not.  The float identities of the acceptance criteria live
here too: the crossing parameter at one angle (``crossing_value``), the
image coefficients ``d_k`` (``d_coeffs``), the order-5 remainder factor
(``t2_order5``) and the simulator loop with its quantizer linearized
(``linearized_impulse``).  So do the per-value references of the one-pass
input checks, ``check_coeffs_per_value`` and ``poly_coeffs_per_value``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from sdmstab.boundary import ZeroPointCandidate
from sdmstab.polynomial import MAX_ORDER, SHIFTED_ROWS, Poly, record
from sdmstab.transfer import _char_poly, _check_coeffs, _check_count, _check_result, _check_scalar
from sdmstab.winding import RootCountResult, _normalized

__all__ = [
    "all_roots",
    "winding_oracle",
    "count_inside_eig",
    "jury_stable",
    "crossing_param",
    "bisect_boundary",
    "cheb_expand",
    "crossing_value",
    "DCoeffs",
    "d_coeffs",
    "t2_order5",
    "linearized_impulse",
    "check_coeffs_per_value",
    "poly_coeffs_per_value",
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
    dp = Poly(k * c for k, c in enumerate(p.coeffs) if k > 0)
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
    s = max(map(abs, f.coeffs))
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
        return RootCountResult(inside=None, marginal=True)
    inside = sum(1 for r in roots if abs(r) < 1.0)
    return RootCountResult(inside=inside)


def jury_stable(f: Poly) -> str:
    """Jury/Schur-Cohn table verdict: ``stable``, ``unstable`` or ``marginal``.

    ``stable`` means every root lies strictly inside the unit circle.  A
    table pivot within 1e-10 (relative) of zero refuses the verdict as
    ``marginal``.
    """
    f = _normalized(f)
    n = f.degree
    s = max(map(abs, f.coeffs))
    c = [x / s for x in f.coeffs]
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


def _crossing_a(b: Sequence[float], n: int, phi: float) -> complex:
    """``-D(z)/(z-1)**n`` at ``z = e^{i phi}``: the ``a`` with ``F(z; a) = 0``."""
    z = complex(math.cos(phi), math.sin(phi))
    num = 0.0 + 0.0j
    for coeff in b:  # descending in z powers
        num = num * z + coeff
    den = (z - 1.0) ** n
    return -num / den if den != 0.0 else complex(math.inf, math.inf)


def crossing_value(b: Sequence[float], n: int, phi: float) -> complex:
    """The ``a`` that would place a root at angle ``phi`` on the unit circle.

    Solves ``F(e^{i phi}; a) = 0`` for ``a``: the value is a root-crossing
    parameter only where it comes out real and positive.  At ``phi = pi``
    it reduces exactly to the ``i_min`` formula.  Raises where the value
    leaves the float range (``phi`` at or next to 0).
    """
    val = _crossing_a(_check_coeffs(b, "b", n), n, _check_scalar(phi, "phi"))
    _check_result((val.real, val.imag), "the crossing parameter")
    return val


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
            fm = _crossing_a(bs, n, mid).imag
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm < 0.0) == (flo < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        phi = 0.5 * (lo + hi)
        a = _crossing_a(bs, n, phi).real * scale
        if a <= 0.0:
            continue
        _check_result((a,), "the crossing parameter")
        if any(abs(a - c.a) <= 1e-9 * max(1.0, abs(c.a)) for c in out):
            continue
        valid = _on_circle_distance(b, n, a) <= ON_CIRCLE_TOL
        out.append(ZeroPointCandidate(a=a, x=math.cos(phi), valid=valid))
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


def _cheb_tables(n: int) -> tuple[list[Poly], list[Poly]]:
    t = [[1.0], [0.0, 1.0]]
    u = [[1.0], [0.0, 2.0]]
    for _ in range(2, n + 1):
        for rows in (t, u):
            rows.append(P.polysub(P.polymulx(2.0 * np.asarray(rows[-1])), rows[-2]) + 0.0)  # no -0.0
    return [Poly(c) for c in t], [Poly(c) for c in u]


# T_k and U_k, k = 0..MAX_ORDER, from the float recurrence.
T_TABLE, U_TABLE = _cheb_tables(MAX_ORDER)


def cheb_expand(d: Sequence[float], a: float = 0.0, kind: str = "cosine") -> Poly:
    """Convert a trigonometric polynomial to an algebraic one in ``x = cos(phi)``.

    ``cosine`` kind returns ``a + sum(d[k-1] * T_k(x))`` — the real part of the
    unit-circle image.  ``sine`` kind returns ``sum(d[k-1] * U_{k-1}(x))`` — the
    imaginary part divided by ``sin(phi)``; the offset ``a`` is ignored there.
    The float reference for the package's integer profiles.
    """
    n = len(d)
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"need 1..{MAX_ORDER} coefficients, got {n}")
    if kind == "cosine":
        acc, basis = [float(a)], T_TABLE[1 : n + 1]
    elif kind == "sine":
        acc, basis = [], U_TABLE[:n]
    else:
        raise ValueError(f"kind must be 'cosine' or 'sine', got {kind!r}")
    # The same sums in the same order as adding the scaled basis Polys one at
    # a time (zero terms skipped, trailing zeros dropped), so the result is
    # bit-identical; padding with -0.0 is exact, as x + -0.0 == x for every x.
    for dk, tk in zip(d, basis):
        while acc and acc[-1] == 0.0:
            acc.pop()
        dk = float(dk)
        if dk != 0.0:
            acc += [-0.0] * (len(tk.coeffs) - len(acc))
            for j, c in enumerate(tk.coeffs):
                acc[j] += dk * c
    return Poly(acc)


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
    d = tuple(bk + c * a for bk, c in zip(b, SHIFTED_ROWS[n][-2::-1]))
    return DCoeffs(d=d, a=a)


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


def linearized_impulse(g: Sequence[float], terms: int) -> list[float]:
    """Impulse response from injected quantizer noise to the output.

    Replaces ``v = sign(I)`` with ``v = I + E`` and drives ``E`` with a unit
    impulse at zero input; the response must match ``ntf_series`` of the
    derived ``b`` coefficients term by term.
    """
    g = _check_coeffs(g, "g")
    n = len(g)
    terms = _check_count(terms, "terms")
    s = [0.0] * n
    v = 0.0
    out: list[float] = []
    for k in range(terms):
        for j in range(n - 1, 0, -1):
            s[j] = s[j] + (s[j - 1] - g[j] * v)
        s[0] = s[0] + (0.0 - g[0] * v)
        v = s[n - 1] + (1.0 if k == 0 else 0.0)
        out.append(v)
    _check_result(out, "the impulse response")
    return out


def check_coeffs_per_value(seq, name: str, n: int | None = None) -> tuple[float, ...]:
    """``transfer._check_coeffs`` one value at a time: each item through
    ``_check_scalar`` in order, so the first bad one is named, then the
    order and the length."""
    vals = tuple(_check_scalar(v, name) for v in seq)
    order = len(vals) if n is None else n
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if len(vals) != order:
        raise ValueError(f"len({name}) must equal order {order}, got {len(vals)}")
    return vals


def poly_coeffs_per_value(coeffs) -> tuple[float, ...]:
    """The coefficients ``Poly(coeffs)`` holds, one value at a time: each a
    float, all finite, trailing zeros dropped."""
    cs = [float(c) for c in coeffs]
    if not all(math.isfinite(c) for c in cs):
        raise ValueError("polynomial coefficients must be finite")
    while cs and cs[-1] == 0.0:
        cs.pop()
    return tuple(cs)
