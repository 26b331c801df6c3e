"""Unit-circle root counting from the contour image ``W(z) = F(z)/z**n``.

On ``|z| = 1`` the image of a real polynomial ``F`` of degree ``n`` crosses
the real axis only at the turning points ``W(1)``, ``W(-1)`` and at
self-intersection points, the roots in ``x = cos(phi)`` of the sine-kind
profile ``r1`` with ``Im W = -sin(phi)*r1``.  The signed crossings of the
negative real axis give the winding and so the number of roots inside the
circle.  ``count_inside_e1`` reads that sum without locating the points: it
is the Cauchy index of ``Re W / r1`` on (-1, 1) plus end terms, decided
exactly in integers from a signed remainder sequence, walked once.  Its
normal case, each remainder one degree lower than the last, runs as one
generated straight-line kernel per order, built on first use; the kernel
leaves ``F(0) = 0``, a member vanishing at -1 or 1, and a zero or
degree-dropping remainder to the generic walk, and makes the very same
integers, so both give the same count.  Each order has two variants of
the kernel, from the same lines: one takes the integers, the other the
float coefficients of a ``Poly``, which its own head scales to integers
and sign-normalizes, so ``count_inside_e1`` is one kernel call, and the
generic walk only where that call returns -1.  The count is taken on the
unit circle itself and refused only for a root exactly on it.  ``_exact_f``
builds ``F(z; a) = a*(z-1)**n + D(z)`` in integers from ``b`` and ``a > 0``;
``boundary``'s witness probes and the ``check`` command count that exact
``F``, so both give one answer for one ``(b, a)``; at ``a = 0`` ``check``
counts ``F = D``, exact as given, so it counts the exact ``F`` at every
``a >= 0``.  ``count_inside_e1`` counts the float polynomial it is given.
``characteristic_points`` locates the points themselves, from the same
integer profiles with their roots isolated exactly, and ``contour_table``
samples the image for plotting.
"""

from __future__ import annotations

import functools
import math

from .polynomial import COS_ROWS, MAX_ORDER, SHIFTED_ROWS, SIN_ROWS, Poly, record
from .polynomial import _cauchy_index, _compile, _derivative, _div, _end_signs, _kernel_source, _primitive
from .polynomial import _roots_inside, _scaled, _sum, _value
from .transfer import _check_count, _check_result

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

    ``inside`` is None when ``marginal`` is set: a root lies exactly on the
    circle, so there is no verdict.  ``count_inside_e1`` sets no ``points``;
    the ``check`` command's count carries those of the polynomial it counts.
    """

    inside: int | None
    marginal: bool = False
    winding: int | None = None  # inside - degree; None when marginal
    points: CharacteristicPoints | None = None


def _normalized(f: Poly) -> Poly:
    if f.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    return f if f.leading > 0 else Poly(-c for c in f.coeffs)


def _degree(f: Poly) -> int:
    """The degree of ``f``, refused outside 1..MAX_ORDER."""
    n = len(f.coeffs) - 1
    if n < 1:
        raise ValueError("need a polynomial of degree >= 1")
    if n > MAX_ORDER:
        raise ValueError(f"need degree 1..{MAX_ORDER}, got {n}")
    return n


def _integers(f: Poly) -> tuple[list[int], int]:
    """The sign-normalized ``f``, of degree 1..MAX_ORDER, as the integers
    ``(a, d_1, .., d_n)`` times ``2**-s``, and ``s``: what the points of a
    float polynomial take, and its count where the float kernel leaves it
    to ``_count_generic``."""
    _degree(f)
    coeffs, s = _scaled(f.coeffs)
    coeffs.reverse()
    return (coeffs if coeffs[0] > 0 else [-c for c in coeffs]), s


def _profiles(coeffs: list[int]) -> tuple[list[int], list[int]]:
    """``r0`` and ``r1`` of the integer ``(a, d_1, .., d_n)``, ascending in
    ``x = cos(phi)``: ``W = r0(x) - i*sin(phi)*r1(x)`` on the circle."""
    t_rows, u_rows = _tables(len(coeffs) - 1)
    return tuple([sum([coeffs[k] * c for k, c in row]) for row in rows] for rows in (t_rows, u_rows))


def characteristic_points(f: Poly) -> CharacteristicPoints:
    """Characteristic points of ``W(z) = F(z)/z**n`` on the unit circle.

    The polynomial is sign-normalized first (negating ``F`` moves no roots).
    Writing the normalized ``F = a*z**n + sum(d_k * z**(n-k))``, the image is
    ``W = a + sum(d_k / z**k)``, so on the circle ``Re W = r0(x)`` and
    ``Im W = -sin(phi)*r1(x)`` in ``x = cos(phi)``.  Both are built in
    integers from the rows ``count_inside_e1`` counts with; the
    self-intersections are the roots of ``r1`` strictly inside (-1, 1).
    ``w_plus``, ``w_minus`` and each ``x`` are the floats nearest the exact
    values, and each ``re_w`` is the float nearest ``r0`` at that ``x``.
    Raises ``ValueError`` when one of them leaves the float range.
    """
    points = _points(*_integers(f))
    _check_result([points.w_plus, points.w_minus, *(p.re_w for p in points.selfx)], "a characteristic point")
    return points


def _points(coeffs: list[int], s: int) -> CharacteristicPoints:
    """:func:`characteristic_points` of the integers ``(a, d_1, .., d_n)``
    times ``2**-s``, ``a > 0``."""
    unit = 1 << s
    r0, r1 = _profiles(coeffs)
    selfx = []
    for x in _roots_inside(r1):
        num, den = x.as_integer_ratio()
        selfx.append(SelfIntersection(x=x, re_w=_div(_value(r0, num, den), den ** (len(r0) - 1) * unit)))
    return CharacteristicPoints(w_plus=_div(sum(r0), unit), w_minus=_div(sum(r0[::2]) - sum(r0[1::2]), unit),
                                selfx=tuple(selfx))


@functools.cache
def _tables(n: int) -> list[list]:
    """Order-``n`` rows, built on first use, giving each coefficient of
    ``r0`` and ``r1`` as small multiples of ``(a, d_1, .., d_n)``
    (``cos(k*phi) = T_k(x)``, ``sin(k*phi) = sin(phi)*U_(k-1)(x)``)."""
    return [[[(k, p[j]) for k, p in enumerate(basis[: n + 1]) if j < len(p) and p[j]]
             for j in range(width)] for basis, width in ((COS_ROWS, n + 1), (SIN_ROWS, n))]


# --- the generated normal case ------------------------------------------------
#
# In the normal case ``F(0) != 0``, so ``r0`` has degree ``n`` and ``r1``
# degree ``n - 1``, no member of the chain vanishes at -1 or 1, and every
# remainder drops the degree by exactly one, down to a nonzero constant.
# ``_kernel`` writes that case out for one order, every coefficient in a
# local, and compiles it on first use; nothing is built at import.  A step
# from ``p`` (degree ``d + 1``) and ``q`` (degree ``d``) is the fused
# pseudo-remainder
#
#     q_d**2 * p - (q_d*p_(d+1)*x + q_d*p_d - p_(d+1)*q_(d-1)) * q,
#
# which is ``_prem``'s, since ``|q_d|**2 = q_d**2``; the next member is it
# divided by minus its content, as in ``_primitive``.  So the kernel makes
# the very integers ``_sturm`` yields, and its count is ``_count_generic``'s.
# It returns -1 where the chain leaves the normal case: ``F(0) = 0``, a
# member that is 0 at -1 or 1, or a remainder that is zero or drops more
# than one degree (a zero one leaves a gcd of degree >= 1, whose roots may
# be on the circle).  ``r1`` and ``-r1`` sit on both sides of ``r0`` in
# ``sRem(r1, r0)``, so their sign changes cancel and the index is read from
# ``-r1`` on.  ``lo``/``hi`` are the last remainder ``r`` at -1 and 1, so
# the member ``-r/content`` is negative there where they are positive.
#
# The integer variant takes ``(a, d_1, .., d_n)``, ``a > 0``, as ``c0 ..
# cn``.  The float variant takes a ``Poly``'s coefficients, ascending, and
# its head makes those integers itself, as ``_integers`` does: it unpacks
# each with ``float.as_integer_ratio``, shifts the numerators to the largest
# denominator, a power of two, names them ``c0 .. cn`` leading first, and
# negates them all when ``c0 < 0``; the body is the same.

def _ends(name: str, size: int, fail: str = "-1") -> list[str]:
    """Source setting ``lo``/``hi`` to the polynomial ``name0 .. name{size-1}``
    at -1 and 1, and returning ``fail`` if either is 0."""
    return ["lo = " + _sum(name, ((j, (-1) ** j) for j in range(size))),
            "hi = " + _sum(name, ((j, 1) for j in range(size))),
            "if not (lo and hi):",
            "    return " + fail]


@functools.cache
def _kernel(n: int, floats: bool):
    """``kernel(coeffs)``: the normal case of ``_count_exact`` at order
    ``n``, -1 outside it.  With ``floats`` it takes a ``Poly``'s float
    coefficients, ascending, and its head makes ``_integers``'s integers
    of them: the count of ``count_inside_e1``."""
    t_rows, u_rows = _tables(n)
    ks = range(n + 1)
    cs = ", ".join(f"c{k}" for k in ks)
    if floats:  # c{k} is the coefficient of z**(n-k), as p{k}/q{k}
        lines = [
            f"{', '.join(f'(p{k}, q{k})' for k in reversed(ks))}, = map(float.as_integer_ratio, coeffs)",
            f"e = max({', '.join(f'q{k}' for k in ks)}).bit_length()",
            f"{cs}, = {', '.join(f'p{k} << (e - q{k}.bit_length())' for k in ks)}",
            "if c0 < 0:",
            f"    {cs}, = {', '.join(f'-c{k}' for k in ks)}",
        ]
    else:
        lines = [f"{cs}, = coeffs"]
    lines += [
        f"if not c{n}:",
        "    return -1",
        *(f"p0_{j} = {_sum('c', row)}" for j, row in enumerate(t_rows)),  # r0
        *_ends("p0_", n + 1, "None"),
        "w_plus, w_minus = hi, lo",
        *(f"r{j} = {_sum('c', row)}" for j, row in enumerate(u_rows)),  # r1
        *_ends("r", n),
        "s_0, s_m = (lo > 0) - (lo < 0), (hi > 0) - (hi < 0)",
        "index = 0",
    ]
    for k in range(1, n):  # p{k+1} from p = p{k-1} and q = p{k}, of degree d
        d, p, q = n - k, f"p{k - 1}_", f"p{k}_"
        rs = ", ".join(f"r{j}" for j in range(d + 1))
        lines += [
            "neg_lo, neg_hi = lo > 0, hi > 0",
            f"g = -gcd({rs})",
            f"{rs.replace('r', q)}, = {rs.replace(',', ' // g,')} // g",
            f"u = {q}{d} * {p}{d} - {p}{d + 1} * {q}{d - 1}",
            *([f"v = {q}{d} * {p}{d + 1}"] if d > 1 else []),
            f"l2 = {q}{d} * {q}{d}",
            f"r0 = l2 * {p}0 - u * {q}0",
            *(f"r{j} = l2 * {p}{j} - v * {q}{j - 1} - u * {q}{j}" for j in range(1, d)),
            f"if not r{d - 1}:",
            "    return -1",
            *_ends("r", d),
            "index += ((lo > 0) != neg_lo) - ((hi > 0) != neg_hi)",
        ]
    lines += [
        "w = (s_0 - s_m) // 2 + index",
        "if w_plus < 0:",
        "    w += s_m",
        "if w_minus < 0:",
        "    w -= s_0",
        f"return {n} + w",
    ]
    name = f"count kernel n={n}" + (" floats" if floats else "")
    return _compile(_kernel_source("coeffs", lines), name, {"gcd": math.gcd})["kernel"]


def _count_exact(coeffs: list[int]) -> int | None:
    """Roots inside ``|z| = 1`` of the polynomial with the integer
    coefficients ``(a, d_1, .., d_n)``, ``a > 0``; None for a root on the
    circle: the count of ``check`` and of ``boundary``'s probes.  See
    ``count_inside_e1``.  The order's integer kernel counts the normal case,
    where each remainder of the chain is one degree lower than the last,
    from the very integers ``_count_generic`` would make; it returns -1 for
    ``F(0) = 0``, a member vanishing at -1 or 1, or a zero or
    degree-dropping remainder, which ``_count_generic`` then counts."""
    inside = _kernel(len(coeffs) - 1, False)(coeffs)
    return _count_generic(coeffs) if inside == -1 else inside


def _count_generic(coeffs: list[int]) -> int | None:
    """``_count_exact`` for any chain, walking ``_sturm`` member by member;
    the kernels leave it the three cases outside the normal one: ``F(0) = 0``,
    a member vanishing at -1 or 1 (its sign beside the end decides), and a
    zero or degree-dropping remainder (a zero one leaves a gcd whose roots
    in (-1, 1) are on the circle).  In the normal case it makes the same
    integers as the kernel."""
    n = len(coeffs) - 1
    r0, r1 = _profiles(coeffs)
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
    two, so a root however close to the circle is counted on its side; the
    result is marginal, with no count, only for a root exactly on it.  One
    call of the order's float kernel scales and counts ``f``; where the
    chain leaves its normal case, ``_count_generic`` counts the same
    integers.  Raises ``ValueError`` for a degree outside 1..MAX_ORDER.

    It counts ``f`` as given.  ``count_inside_e1(char_poly(b, n, a))`` so
    counts ``char_poly``'s rounded coefficients, not the exact ``F(z; a)``
    that ``check`` and ``classify_intervals`` count, and the two can differ:
    with ``|b|`` far below ``a`` every coefficient rounds to those of
    ``a*(z-1)**n``, whose roots are all at ``z = 1``, so it is refused.
    """
    n = _degree(f)
    inside = _kernel(n, True)(f.coeffs)
    if inside == -1:
        inside = _count_generic(_integers(f)[0])
    return RootCountResult(inside, inside is None, None if inside is None else inside - n)


def _result(inside: int | None, n: int, points: CharacteristicPoints | None = None) -> RootCountResult:
    """A degree-``n`` count as a result, marginal when ``inside`` is None."""
    return RootCountResult(inside=inside, marginal=inside is None,
                           winding=None if inside is None else inside - n, points=points)


# Per order: the binomials of (z - 1)**n multiplying a in F's d_1 .. d_n.
_BINOMIALS = [row[-2::-1] for row in SHIFTED_ROWS]


def _exact_f(ints: list[int], s: int, n: int, a: float) -> tuple[list[int], int]:
    """``F(z; a) = a*(z-1)**n + D(z)`` with no rounding: the integers
    ``(a, d_1, .., d_n)`` times ``2**t``, and ``t``, for ``b`` the integers
    ``ints`` times ``2**-s`` and a float ``a > 0``.  ``a`` joins ``b``'s
    scaling, which takes more fractional bits when ``a`` needs them."""
    num, den = a.as_integer_ratio()
    shift = den.bit_length() - 1 - s  # a's fractional bits past b's
    if shift > 0:
        ints, s = [c << shift for c in ints], s + shift
    else:
        num <<= -shift
    return [num] + [num * c + bk for c, bk in zip(_BINOMIALS[n], ints)], s


def _count_at(b: tuple[float, ...], n: int, a: float) -> RootCountResult:
    """The count and the points of the exact ``F(z; a)`` for a checked ``b``
    and ``a``, ``a >= 0``: ``check``'s answer, which ``boundary``'s probes
    give too.  At ``a = 0``, ``F`` is ``D``, whose degree may be below ``n``
    but not 0."""
    coeffs, s = _exact_f(*_scaled(b), n, a) if a else _integers(Poly(b[::-1]))
    return _result(_count_exact(coeffs), len(coeffs) - 1, _points(coeffs, s))


def contour_table(f: Poly, samples: int) -> list[tuple[float, float, float]]:
    """Sampled contour image rows ``(phi, Re W, Im W)`` at uniform angles.
    Raises ``ValueError`` when ``W`` at a sample leaves the float range."""
    samples = _check_count(samples, "samples")
    f = _normalized(f)
    n = f.degree
    step = 2.0 * math.pi / samples
    rows = []
    for k in range(samples):
        phi = k * step
        z = complex(math.cos(phi), math.sin(phi))
        w = f(z) * z.conjugate() ** n
        _check_result((w.real, w.imag), "the contour image")
        rows.append((phi, w.real, w.imag))
    return rows
