"""The ``record`` decorator, the ``Poly`` value type, the integer tables of
the package, and the exact integer core under root counting and real-root
isolation.  This bottom layer imports nothing else from the package, so
``record``, which makes ``Poly`` and every other value type, lives here.

Polynomials are stored in ascending powers: ``coeffs[k]`` multiplies ``z**k``.
``Poly`` is the value the public API passes around: validated on
construction and evaluated, with no arithmetic of its own.  The integer
rows of ``(z - 1)**n`` and of the Chebyshev polynomials are the only
polynomial tables; everything here is a pure function.  Root counts and
real-root isolation run on an exact integer core: the float coefficients
times a power of two are integers, and the integer Chebyshev rows turn
unit-circle profiles into integer polynomials in ``x = cos(phi)``; signed
remainder sequences, Sturm counts, signs at float points and the roots in
(-1, 1), each the float nearest it, are computed on those in Python ints.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Iterable, Iterator

__all__ = ["Poly"]

# Order cap of the modulators the package analyses (orders 1..5), and so of
# the integer tables; transfer re-exports it.
MAX_ORDER = 5


# Every value type of the package, ``Poly`` and each result and input class,
# is a ``record`` rather than a frozen dataclass: a command-line process
# would otherwise spend a large share of its start-up importing
# ``dataclasses`` (and ``inspect``) and running their code generation for
# every class.


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Class decorator: an immutable record with ``__slots__``.

    The annotated names of the class body are the fields, in order, and a
    class-level value is that field's default.  ``__init__`` takes the
    fields positionally or by keyword and sets them as given, with no
    validation or conversion: a record holds what its maker computed.
    ``==``, ``hash`` and the ``Name(field=value, ...)`` repr are those of
    a frozen dataclass, setting or deleting an attribute raises
    ``AttributeError``, and ``__reduce__`` rebuilds the record through
    ``__init__`` for ``pickle`` and ``copy``.  Any of these five methods
    that the class body defines stays in place; such an ``__init__`` sets
    the fields with ``object.__setattr__``.  The field names are in
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
    src += [f"    _set_{f}(self, {f})" for f in fields] or ["    pass"]
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
        if name not in body:
            setattr(cls, name, ns[name])
    return cls


@record
class Poly:
    """Immutable dense polynomial with real coefficients, ascending powers;
    its own ``__init__`` makes them finite floats with no trailing zero."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float] = ()):
        cs = list(map(float, coeffs))
        if not all(map(math.isfinite, cs)):
            raise ValueError("polynomial coefficients must be finite")
        while cs and cs[-1] == 0.0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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

    def __call__(self, z):
        """Horner evaluation at a real or complex point."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


def _chebyshev(first: list[int], second: list[int]) -> list[list[int]]:
    """Rows ``0..MAX_ORDER`` of ``P_k = 2x*P_(k-1) - P_(k-2)`` from ``P_0``
    and ``P_1``, as integer coefficient lists in ascending powers."""
    rows = [first, second]
    while len(rows) <= MAX_ORDER:
        row = [0] + [2 * c for c in rows[-1]]
        for j, c in enumerate(rows[-2]):
            row[j] -= c
        rows.append(row)
    return rows


# The Chebyshev basis in x = cos(phi): cos(k*phi) = COS_ROWS[k](x), which is
# T_k, and sin(k*phi) = sin(phi) * SIN_ROWS[k](x), which is U_(k-1) (0 at k = 0).
COS_ROWS = _chebyshev([1], [0, 1])
SIN_ROWS = _chebyshev([], [1])

# (z - 1)**n = sum(SHIFTED_ROWS[n][k] * z**k), n = 0..MAX_ORDER: the binomials
# C(n, k) * (-1)**(n - k), exact integers.
SHIFTED_ROWS = [[math.comb(n, k) * (-1) ** (n - k) for k in range(n + 1)] for n in range(MAX_ORDER + 1)]


# --- exact integer core -----------------------------------------------------
#
# Every float is a dyadic rational, so a float polynomial times one power of
# two has integer coefficients and the same roots.  On those, signed
# remainder sequences, Sturm counts and signs at float points are exact in
# Python ints: no tolerance decides a count.  Integer polynomials are lists
# in ascending powers.

def _scaled(coeffs: tuple[float, ...]) -> tuple[list[int], int]:
    """Float coefficients times ``2**s``, the least power of two making them
    all integers, as ints (exact), and ``s``."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    bits = max(d for _, d in ratios).bit_length()  # every d is a power of two
    return [num << (bits - d.bit_length()) for num, d in ratios], bits - 1


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


def _value(p: list[int], num: int, den: int) -> int:
    """``den**(len(p) - 1) * p(num/den)`` for ``den > 0``, exact."""
    acc, dpow = 0, 1
    for c in reversed(p):
        acc = acc * num + c * dpow
        dpow *= den
    return acc


def _sign_at(p: list[int], x: float) -> int:
    """Exact sign of the integer polynomial ``p`` at the float ``x``."""
    v = _value(p, *x.as_integer_ratio())
    return (v > 0) - (v < 0)


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


def _bisect_simple(q: list[int], ka: int, kb: int) -> int:
    """Key ``k`` of the float with the one root of the square-free ``q`` in
    ``(x_a, x_b]`` (float keys ``ka < kb``) in ``(x_(k-1), x_k]``, bisected
    on signs of ``q``."""
    sa = _sign_near(q, _unordered(ka), 1)
    while kb - ka > 1:
        km = (ka + kb) // 2
        s = _sign_at(q, _unordered(km))
        if s == 0:
            return km
        ka, kb = (km, kb) if s == sa else (ka, km)
    return kb


def _roots_inside(c: list[int]) -> list[float]:
    """The real roots of the integer polynomial ``c`` strictly inside
    (-1, 1), ascending, each the float nearest it (ties to even).

    Its square-free part comes from an exact gcd.  Exact Sturm counts at
    float points, and just inside -1 and 1, isolate each root between two
    floats; bisection over the ordered float bit patterns (at most about 64
    steps) brings it between two adjacent ones, and the count at their
    midpoint rounds it.
    """
    while c and c[-1] == 0:
        c = c[:-1]
    if len(c) < 2:
        return []
    chain = list(_sturm(c, _derivative(c)))
    if len(chain[-1]) > 1:  # repeated factors: keep the square-free part
        c = _primitive(_pdiv(c, chain[-1]))
        chain = list(_sturm(c, _derivative(c)))

    def var(num: int, den: int) -> int:
        return _sign_changes([_value(s, num, den) for s in chain])

    lo, hi = zip(*map(_end_signs, chain))
    roots: list[float] = []
    stack = [(_ordered(-1.0), _sign_changes(lo), _ordered(1.0), _sign_changes(hi))]
    # Roots in (x_a, x_b] number va - vb; at x_b = 1, vb is taken just left
    # of 1, so a root at 1 is not counted.
    while stack:
        ka, va, kb, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            kb = _bisect_simple(c, ka, kb)
            ka, va = kb - 1, vb + 1
        elif kb - ka > 1:
            km = (ka + kb) // 2
            vm = var(*_unordered(km).as_integer_ratio())
            stack += [(ka, va, km, vm), (km, vm, kb, vb)]
            continue
        # Each root in (x_a, x_b] rounds to the nearer end: count those up to
        # the midpoint, and send one sitting on it to the end with even bits.
        (na, da), (nb, db) = _unordered(ka).as_integer_ratio(), _unordered(kb).as_integer_ratio()
        num, den = na * db + nb * da, 2 * da * db
        below = va - var(num, den) - (kb % 2 == 0 and _value(c, num, den) == 0)
        roots += [_unordered(ka)] * below + [_unordered(kb)] * (va - vb - below)
    return sorted(roots)


def _div(num: int, den: int) -> float:
    """``num / den`` correctly rounded, signed infinity past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf
