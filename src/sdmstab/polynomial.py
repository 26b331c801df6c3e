"""Dense real-coefficient polynomial arithmetic, Euclidean remainders,
Chebyshev trig-to-polynomial conversion, and root finding.

Polynomials are stored in ascending powers: ``coeffs[k]`` multiplies ``z**k``.
Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Poly",
    "binom_power",
    "poly_rem",
    "chebyshev_t",
    "chebyshev_u",
    "cheb_expand",
    "real_roots_open",
    "all_roots",
]

# Relative threshold below which a divisor's leading coefficient is
# considered vanishing (the degree of the quotient chain collapses there).
TOL_LEAD = 1e-10

# Degree cap for the exact-binomial constructor; analysis never needs more.
MAX_BINOM_ORDER = 12

# Order cap for the trig-to-polynomial conversion.
MAX_CHEB_ORDER = 5


class Poly:
    """Immutable dense polynomial with real coefficients, ascending powers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float] = ()):
        cs = [float(c) for c in coeffs]
        for c in cs:
            if not math.isfinite(c):
                raise ValueError("polynomial coefficients must be finite")
        while cs and cs[-1] == 0.0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> float:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def scale_max(self) -> float:
        """Largest coefficient magnitude (0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0.0)

    def __call__(self, z):
        """Horner evaluation; works for real, complex and numpy arguments."""
        acc = 0.0 * z if isinstance(z, np.ndarray) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0.0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly(float(other) * c for c in self.coeffs)

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def descending(self) -> np.ndarray:
        """Coefficients in descending powers (numpy convention)."""
        if self.is_zero:
            return np.array([0.0])
        return np.asarray(self.coeffs[::-1], dtype=float)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


def binom_power(n: int, r: float = 1.0) -> Poly:
    """Expand ``(z - r)**n`` with exact binomial coefficients, 0 <= n <= 12."""
    if not 0 <= n <= MAX_BINOM_ORDER:
        raise ValueError(f"order must be in [0, {MAX_BINOM_ORDER}], got {n}")
    return Poly(math.comb(n, k) * (-r) ** (n - k) for k in range(n + 1))


def poly_rem(num: Poly, den: Poly) -> tuple[Poly, Poly, bool]:
    """Euclidean division ``num = q*den + r`` with ``deg r < deg den``.

    Returns ``(quotient, remainder, degenerate)`` where ``degenerate`` flags a
    divisor whose leading coefficient is negligible relative to its largest
    coefficient; such divisions lose a degree of meaningful information.
    Raises ``ValueError`` for an identically-zero divisor.
    """
    if den.is_zero:
        raise ValueError("division by the zero polynomial")
    degenerate = abs(den.leading) < TOL_LEAD * den.scale_max()
    dn, dd = num.degree, den.degree
    if dn < dd:
        return Poly(), num, degenerate
    r = list(num.coeffs)
    q = [0.0] * (dn - dd + 1)
    lead = den.leading
    dc = den.coeffs
    for i in range(dn - dd, -1, -1):
        c = r[i + dd] / lead
        q[i] = c
        if c != 0.0:
            for j in range(dd):
                r[i + j] -= c * dc[j]
        r[i + dd] = 0.0
    # Cancellation residue at the rounding floor is noise; dropping it keeps
    # Sturm chains from dividing by spurious leading terms.  The floor
    # must stay below discriminant-level signals (a root pair split by s
    # leaves a remainder of order s**2) or close pairs read as double roots.
    tiny = 1e-15 * max(num.scale_max(), den.scale_max())
    rem = [0.0 if abs(c) <= tiny else c for c in r[:dd]]
    return Poly(q), Poly(rem), degenerate


def _cheb_tables(n: int) -> tuple[list[Poly], list[Poly]]:
    t = [Poly([1.0]), Poly([0.0, 1.0])]
    u = [Poly([1.0]), Poly([0.0, 2.0])]
    x2 = Poly([0.0, 2.0])
    for _ in range(2, n + 1):
        t.append(x2 * t[-1] - t[-2])
        u.append(x2 * u[-1] - u[-2])
    return t, u


_T_TABLE, _U_TABLE = _cheb_tables(MAX_CHEB_ORDER)


def chebyshev_t(k: int) -> Poly:
    """First-kind basis polynomial: ``cos(k*phi) = T_k(cos(phi))``."""
    if not 0 <= k <= MAX_CHEB_ORDER:
        raise ValueError(f"k must be in [0, {MAX_CHEB_ORDER}], got {k}")
    return _T_TABLE[k]


def chebyshev_u(k: int) -> Poly:
    """Second-kind basis polynomial: ``sin((k+1)*phi) = sin(phi)*U_k(cos(phi))``."""
    if not 0 <= k <= MAX_CHEB_ORDER:
        raise ValueError(f"k must be in [0, {MAX_CHEB_ORDER}], got {k}")
    return _U_TABLE[k]


def cheb_expand(d: Sequence[float], a: float = 0.0, kind: str = "cosine") -> Poly:
    """Convert a trigonometric polynomial to an algebraic one in ``x = cos(phi)``.

    ``cosine`` kind returns ``a + sum(d[k-1] * T_k(x))`` — the real part of the
    unit-circle image.  ``sine`` kind returns ``sum(d[k-1] * U_{k-1}(x))`` — the
    imaginary part divided by ``sin(phi)``; the offset ``a`` is ignored there.
    """
    n = len(d)
    if not 1 <= n <= MAX_CHEB_ORDER:
        raise ValueError(f"need 1..{MAX_CHEB_ORDER} coefficients, got {n}")
    if kind == "cosine":
        acc, basis = [float(a)], _T_TABLE[1 : n + 1]
    elif kind == "sine":
        acc, basis = [], _U_TABLE[:n]
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


# --- real-root isolation ----------------------------------------------------
#
# Sturm-sequence sign variations isolate every real root in an interval, then
# bisection plus a short Newton polish refines each to machine accuracy.  This
# path is deliberately independent of the eigenvalue-based ``all_roots`` so
# the two can cross-check each other.

# Roots this close to an open-interval endpoint are treated as outside.
BOUNDARY_EXCLUSION = 1e-9


def _unit(p: Poly) -> Poly:
    s = p.scale_max()
    return p if s == 0.0 else (1.0 / s) * p


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [_unit(p), _unit(p.derivative())]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, r, _ = poly_rem(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(_unit(-r))
    return chain


def _squarefree(p: Poly) -> tuple[Poly, list[Poly]]:
    """Strip repeated factors so every remaining real root is simple.

    Returns the square-free part and its Sturm chain, whose last member is
    the gcd with the derivative that proved it square-free.
    """
    while True:
        chain = _sturm_chain(p)
        g = chain[-1]
        if g.degree <= 0:
            return p, chain
        q, _, _ = poly_rem(p, g)
        p = _unit(q)


def _variations(chain: list[Poly], t: float) -> int:
    count = 0
    prev = 0.0
    for q in chain:
        v = q(t)
        if abs(v) <= 1e-300:
            continue
        if prev != 0.0 and (v > 0.0) != (prev > 0.0):
            count += 1
        prev = v
    return count


def _refine_bisect(p: Poly, lo: float, hi: float) -> float:
    flo = p(lo)
    if flo == 0.0:
        return lo
    if p(hi) == 0.0:
        return hi
    neg = flo < 0.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = p(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == neg:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    # Newton polish, kept only while the residual improves.
    dp = p.derivative()
    best, fbest = x, abs(p(x))
    for _ in range(4):
        d = dp(x)
        if d == 0.0:
            break
        x = x - p(x) / d
        fx = abs(p(x))
        if fx < fbest:
            best, fbest = x, fx
        else:
            break
    return best


def real_roots_open(p: Poly, lo: float, hi: float) -> list[float]:
    """All real roots of ``p`` strictly inside ``(lo, hi)``, sorted ascending.

    Roots closer than ``BOUNDARY_EXCLUSION`` to an endpoint are excluded, and
    near-coincident roots are reported once.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree < 1 or hi <= lo:
        return []
    q, chain = _squarefree(_unit(p))
    if q.degree < 1:
        return []

    def nudge(t: float, direction: float) -> float:
        # Endpoints must not sit on a root of the square-free part.
        step = 1e-12 * max(1.0, abs(t))
        while q(t) == 0.0:
            t += direction * step
            step *= 2.0
        return t

    a = nudge(lo + BOUNDARY_EXCLUSION, 1.0)
    b = nudge(hi - BOUNDARY_EXCLUSION, -1.0)
    if a >= b:
        return []

    roots: list[float] = []
    stack = [(a, _variations(chain, a), b, _variations(chain, b))]
    while stack:
        xa, va, xb, vb = stack.pop()
        n_roots = va - vb
        if n_roots <= 0:
            continue
        if n_roots == 1:
            roots.append(_refine_bisect(q, xa, xb))
            continue
        mid = nudge(0.5 * (xa + xb), 1.0)
        if mid <= xa or mid >= xb:
            # Interval collapsed to float resolution: treat as one cluster.
            roots.append(0.5 * (xa + xb))
            continue
        vm = _variations(chain, mid)
        stack.append((xa, va, mid, vm))
        stack.append((mid, vm, xb, vb))

    roots.sort()
    out: list[float] = []
    for x in roots:
        if out and abs(x - out[-1]) <= 1e-9:
            continue
        if x <= lo + BOUNDARY_EXCLUSION or x >= hi - BOUNDARY_EXCLUSION:
            continue
        out.append(x)
    return out


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
    raw = np.roots(p.descending())
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
