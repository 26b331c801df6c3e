"""Dense real-coefficient polynomial arithmetic, Euclidean remainders,
Chebyshev trig-to-polynomial conversion, and real-root isolation.

Polynomials are stored in ascending powers: ``coeffs[k]`` multiplies ``z**k``.
Everything here is a pure function on immutable values.  Root counts and
real-root isolation run on an exact integer core: the float coefficients
times a power of two are integers, and signed remainder sequences, Sturm
counts and signs at float points are computed on those in Python ints.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Poly",
    "binom_power",
    "poly_rem",
    "chebyshev_t",
    "chebyshev_u",
    "cheb_expand",
    "real_roots_open",
]

# Degree cap for the exact-binomial constructor; analysis never needs more.
MAX_BINOM_ORDER = 12

# Order cap of the modulators the package analyses (orders 1..5), and so of
# the trig-to-polynomial conversion; transfer re-exports it.
MAX_ORDER = 5


class Poly:
    """Immutable dense polynomial with real coefficients, ascending powers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float] = ()):
        cs = list(map(float, coeffs))
        if not all(map(math.isfinite, cs)):
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
        """Horner evaluation at a real or complex point."""
        acc = 0.0
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

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


def binom_power(n: int, r: float = 1.0) -> Poly:
    """Expand ``(z - r)**n`` with exact binomial coefficients, 0 <= n <= 12."""
    if not 0 <= n <= MAX_BINOM_ORDER:
        raise ValueError(f"order must be in [0, {MAX_BINOM_ORDER}], got {n}")
    return Poly(math.comb(n, k) * (-r) ** (n - k) for k in range(n + 1))


def poly_rem(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Euclidean division ``num = q*den + r`` with ``deg r < deg den``.

    Returns ``(quotient, remainder)``.  Raises ``ValueError`` for an
    identically-zero divisor.
    """
    if den.is_zero:
        raise ValueError("division by the zero polynomial")
    dn, dd = num.degree, den.degree
    if dn < dd:
        return Poly(), num
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
    return Poly(q), Poly(r[:dd])


def _cheb_tables(n: int) -> tuple[list[Poly], list[Poly]]:
    t = [Poly([1.0]), Poly([0.0, 1.0])]
    u = [Poly([1.0]), Poly([0.0, 2.0])]
    x2 = Poly([0.0, 2.0])
    for _ in range(2, n + 1):
        t.append(x2 * t[-1] - t[-2])
        u.append(x2 * u[-1] - u[-2])
    return t, u


_T_TABLE, _U_TABLE = _cheb_tables(MAX_ORDER)


def chebyshev_t(k: int) -> Poly:
    """First-kind basis polynomial: ``cos(k*phi) = T_k(cos(phi))``."""
    if not 0 <= k <= MAX_ORDER:
        raise ValueError(f"k must be in [0, {MAX_ORDER}], got {k}")
    return _T_TABLE[k]


def chebyshev_u(k: int) -> Poly:
    """Second-kind basis polynomial: ``sin((k+1)*phi) = sin(phi)*U_k(cos(phi))``."""
    if not 0 <= k <= MAX_ORDER:
        raise ValueError(f"k must be in [0, {MAX_ORDER}], got {k}")
    return _U_TABLE[k]


def cheb_expand(d: Sequence[float], a: float = 0.0, kind: str = "cosine") -> Poly:
    """Convert a trigonometric polynomial to an algebraic one in ``x = cos(phi)``.

    ``cosine`` kind returns ``a + sum(d[k-1] * T_k(x))`` — the real part of the
    unit-circle image.  ``sine`` kind returns ``sum(d[k-1] * U_{k-1}(x))`` — the
    imaginary part divided by ``sin(phi)``; the offset ``a`` is ignored there.
    """
    n = len(d)
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"need 1..{MAX_ORDER} coefficients, got {n}")
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


# --- exact integer core -----------------------------------------------------
#
# Every float is a dyadic rational, so a float polynomial times one power of
# two has integer coefficients and the same roots.  On those, signed
# remainder sequences, Sturm counts and signs at float points are exact in
# Python ints: no tolerance decides a count.  Integer polynomials are lists
# in ascending powers.

# Roots this close to an open-interval endpoint are treated as outside.
BOUNDARY_EXCLUSION = 1e-9


def _int_coeffs(coeffs: tuple[float, ...]) -> list[int]:
    """Float coefficients times one common power of two, as ints (exact)."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    bits = max(d for _, d in ratios).bit_length()  # every d is a power of two
    return [num << (bits - d.bit_length()) for num, d in ratios]


def _primitive(p: list[int], sign: int = 1) -> list[int]:
    """``sign * p`` without trailing zeros, divided by its positive content."""
    while p and p[-1] == 0:
        p.pop()
    g = sign * math.gcd(*p)
    return [c // g for c in p] if g != 1 else p


def _pdiv(a: list[int], b: list[int]) -> list[int]:
    """Quotient ``q`` of ``|lc b|**(deg a - deg b + 1) * a = q*b + r``,
    ``deg b <= deg a``; the multiplier makes every step divide exactly."""
    m, lead = len(b) - 1, b[-1]
    steps = len(a) - m
    r, q = [abs(lead) ** steps * c for c in a], [0] * steps
    for i in range(steps - 1, -1, -1):
        q[i] = t = r[i + m] // lead
        for j in range(m):
            r[i + j] -= t * b[j]
    return q


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder ``r`` of the same division, which has the sign of the
    true one; each step scales by ``|lc b|`` and cancels the top term."""
    m, scale = len(b) - 1, abs(b[-1])
    b = b[:m] if b[-1] > 0 else [-c for c in b[:m]]
    r = a[:]
    while len(r) > m:
        t = r.pop()
        r = [scale * c for c in r]
        for j, c in enumerate(b, len(r) - m):
            r[j] -= t * c
    return r


def _derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p) if k > 0]


def _sturm(p: list[int], q: list[int]) -> Iterator[list[int]]:
    """Signed remainder sequence ``sRem(p, q)`` up to positive factors, for
    ``p`` nonzero and ``q`` without trailing zeros, member by member.

    Each member after ``q`` is the primitive part of minus the remainder of
    the two before it, so sign variations along it are those of the exact
    signed remainder sequence; the last member is ``gcd(p, q)``.
    """
    yield p
    while q:
        yield q
        if len(q) == 1:  # a constant divides p: the remainder is 0
            return
        p, q = q, _primitive(_prem(p, q), -1)


def _sign_at(p: list[int], x: float) -> int:
    """Exact sign of the integer polynomial ``p`` at the float ``x``."""
    num, den = x.as_integer_ratio()
    acc, dpow = 0, 1
    for c in reversed(p):  # den**deg(p) * p(num/den), den > 0
        acc = acc * num + c * dpow
        dpow *= den
    return (acc > 0) - (acc < 0)


def _sign_near(p: list[int], x: float, side: int) -> int:
    """Sign of a nonzero ``p`` just right (``side = 1``) or left (``-1``)
    of ``x``: that of its first derivative not vanishing at ``x``."""
    s = 1
    while True:
        v = _sign_at(p, x)
        if v:
            return s * v
        p, s = _derivative(p), s * side


def _sign_changes(values: list[int]) -> int:
    """Sign changes along ``values``, skipping zeros."""
    neg = [v < 0 for v in values if v]
    return sum(map(operator.ne, neg, neg[1:]))


def _end_signs(p: list[int]) -> tuple[int, int]:
    """Signs of a nonzero ``p`` just right of -1 and just left of 1."""
    hi = sum(p)
    lo = 2 * sum(p[::2]) - hi
    return ((lo > 0) - (lo < 0) or _sign_near(p, -1.0, 1),
            (hi > 0) - (hi < 0) or _sign_near(p, 1.0, -1))


def _cauchy_index(p: list[int], q: list[int]) -> tuple[int, list[int]]:
    """``Var(-1+) - Var(1-)`` along ``sRem(p, q)``, walked once, and its last
    member ``gcd(p, q)``: the Cauchy index of ``q/p`` on (-1, 1), or for
    ``q = p'`` the number of distinct roots of ``p`` there."""
    index = left = right = 0
    for g in _sturm(p, q):
        lo, hi = _end_signs(g)
        index += (lo == -left) - (hi == -right)  # signs are +-1; 0 before the first
        left, right = lo, hi
    return index, g


def _ordered(x: float) -> int:
    """Integer key of a float, monotone in its value (adjacent floats differ by 1)."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _unordered(k: int) -> float:
    (x,) = struct.unpack("<d", struct.pack("<q", abs(k)))
    return x if k >= 0 else -x


def _bisect_simple(q: list[int], ka: int, kb: int) -> float:
    """The one root of the square-free ``q`` in ``(x_a, x_b]`` (float keys
    ``ka < kb``), bisected on signs of ``q`` to within one float."""
    sa = _sign_near(q, _unordered(ka), 1)
    while kb - ka > 1:
        km = (ka + kb) // 2
        s = _sign_at(q, _unordered(km))
        if s == 0:
            return _unordered(km)
        ka, kb = (km, kb) if s == sa else (ka, km)
    return _unordered(kb)


def real_roots_open(p: Poly, lo: float, hi: float) -> list[float]:
    """All real roots of ``p`` strictly inside ``(lo, hi)``, sorted ascending.

    Roots closer than ``BOUNDARY_EXCLUSION`` to an endpoint are excluded, and
    near-coincident roots are reported once.  The roots are those of the
    exact polynomial the float coefficients denote: its square-free part
    comes from an exact gcd, exact Sturm counts at float points isolate each
    root, and bisection over the ordered float bit patterns (at most about
    64 steps) brings it to one float.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    # An infinite bound acts as the largest float: no float root lies beyond.
    a = max(lo + BOUNDARY_EXCLUSION, -sys.float_info.max)
    b = min(hi - BOUNDARY_EXCLUSION, sys.float_info.max)
    if p.degree < 1 or not a < b:
        return []
    c = _int_coeffs(p.coeffs)
    chain = list(_sturm(c, _derivative(c)))
    if len(chain[-1]) > 1:  # repeated factors: keep the square-free part
        c = _primitive(_pdiv(c, chain[-1]))
        chain = list(_sturm(c, _derivative(c)))

    def var(k: int) -> int:
        x = _unordered(k)
        return _sign_changes([_sign_at(s, x) for s in chain])

    roots: list[float] = []
    ka, kb = _ordered(a), _ordered(b)
    stack = [(ka, var(ka), kb, var(kb))]
    while stack:  # roots in (x_a, x_b] number va - vb
        ka, va, kb, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            roots.append(_bisect_simple(c, ka, kb))
        elif kb - ka == 1:
            roots.append(_unordered(kb))  # a cluster within one float
        else:
            km = (ka + kb) // 2
            vm = var(km)
            stack += [(ka, va, km, vm), (km, vm, kb, vb)]

    roots.sort()
    out: list[float] = []
    for x in roots:
        if out and abs(x - out[-1]) <= 1e-9:
            continue
        if x <= a or x >= b:
            continue
        out.append(x)
    return out
