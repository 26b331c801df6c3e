"""Every public numeric entry point either returns a result with no NaN in
it or raises ``ValueError``, whatever floats it is given; the CLI exits 0, 1
or 2 without a traceback.  Warnings fail the suite (``filterwarnings``)."""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from oracles import all_roots
from sdmstab import boundary, simulator, transfer
from sdmstab.cli import RunConfig, asdict, execute, main, parse, replace
from sdmstab.polynomial import Poly
from sdmstab.winding import characteristic_points, contour_table, count_inside_e1
from test_acceptance import stable_b_sample

nan, inf = math.nan, math.inf

FUZZ = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Ordinary, huge (up to and beyond the 1e300 cap), tiny, infinite and NaN.
EDGES = (0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, -1e300, 1.5e300, 1e308,
         -1e308, inf, -inf, nan)
ordinary = st.floats(-4.0, 4.0)
floats = st.one_of(
    ordinary,
    ordinary,
    ordinary,
    st.sampled_from(EDGES),
    st.floats(allow_nan=True, allow_infinity=True),
)
# Mostly nonnegative, for magnitudes, thresholds and periods.
magnitudes = st.one_of(st.floats(0.0, 4.0), st.floats(1.0, 1e6), floats)
# Poly takes any finite coefficient.  Half the polynomials have only
# coefficients of +-1e308, so that values summed from them leave the float
# range; these tests draw twice the examples, to keep the other half.
finite_floats = floats.filter(math.isfinite)
polys = st.one_of(st.lists(finite_floats, max_size=7),
                  st.lists(st.sampled_from((1e308, -1e308)), min_size=2, max_size=6)).map(Poly)
POLY_FUZZ = settings(FUZZ, max_examples=2 * FUZZ.max_examples)


def designs():
    """``(b, n)`` with ``n`` usually, but not always, equal to ``len(b)``."""
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(floats, min_size=n, max_size=n).map(tuple),
            st.sampled_from((n, n, n, n + 1)),
        )
    )


def floats_in(obj):
    """Every float inside a (possibly nested) result."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, complex):
        yield from (obj.real, obj.imag)
    elif isinstance(obj, Poly):
        yield from obj.coeffs
    elif hasattr(type(obj), "_fields"):  # a record: every field
        for f in obj._fields:
            yield from floats_in(getattr(obj, f))
    elif isinstance(obj, dict):
        yield from floats_in(list(obj.values()))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from floats_in(item)


def no_nan(obj):
    """Fail on a NaN anywhere inside a (possibly nested) result."""
    assert not any(map(math.isnan, floats_in(obj)))


def finite(obj):
    """Fail on a NaN or an infinity anywhere inside a (possibly nested)
    result: for results that hold no legitimate infinity, unlike an
    interval's upper end or a diverged simulator state."""
    assert all(map(math.isfinite, floats_in(obj)))


def result_or_value_error(fn, *args, **kwargs):
    try:
        out = fn(*args, **kwargs)
    except ValueError:
        return None
    no_nan(out)
    return out


# --- transfer ---------------------------------------------------------------


@FUZZ
@given(designs(), magnitudes, st.integers(1, 12))
def test_transfer_functions(design, a, terms):
    b, n = design
    result_or_value_error(transfer.b_from_g, b)
    result_or_value_error(transfer.g_from_b, b)
    result_or_value_error(transfer.char_poly, b, n, a)
    result_or_value_error(oracles.d_coeffs, b, n, a)
    result_or_value_error(transfer.ntf_series, b, n, terms)


# --- boundary ---------------------------------------------------------------


@FUZZ
@given(designs(), floats, floats, floats)
def test_boundary_functions(design, phi, lo, hi):
    b, n = design
    result_or_value_error(boundary.i_min, b, n)
    result_or_value_error(boundary.zero_point_candidates, b, n)
    result_or_value_error(boundary.i_max_order3, b)
    result_or_value_error(oracles.crossing_value, b, n, phi)
    result_or_value_error(oracles.crossing_param, b, n, 64)
    report = result_or_value_error(boundary.classify_intervals, b, n)
    if report is not None:
        no_nan(asdict(report))
        for iv in report.intervals[1:]:  # brackets around each reported edge
            result_or_value_error(oracles.bisect_boundary, b, n, 0.5 * iv.lo, 2.0 * iv.lo)
    result_or_value_error(oracles.bisect_boundary, b, n, lo, hi)
    if len(b) == 5:
        result_or_value_error(oracles.t2_order5, oracles.DCoeffs(d=b, a=phi))


# --- winding ----------------------------------------------------------------


@POLY_FUZZ
@given(polys, st.integers(1, 8))
def test_winding_functions(f, samples):
    finite(result_or_value_error(count_inside_e1, f))
    finite(result_or_value_error(characteristic_points, f))
    finite(result_or_value_error(contour_table, f, samples))


@POLY_FUZZ
@given(polys, finite_floats)
def test_poly_evaluation(f, phi):
    # On the unit circle, and at its real point cos(phi).
    z = complex(math.cos(phi), math.sin(phi))
    finite(result_or_value_error(f, z))
    finite(result_or_value_error(f, z.real))


# --- simulator --------------------------------------------------------------


@FUZZ
@given(designs(), floats, magnitudes, magnitudes, st.none() | st.lists(floats, max_size=6))
def test_simulator_functions(design, level, period, threshold, state):
    g, _ = design
    for x in (level, simulator.DcInput(level), simulator.SineInput(level, period)):
        result_or_value_error(simulator.run, g, x, 40, threshold, state)
        result_or_value_error(simulator.trace_run, g, x, 40, threshold, state)
    result_or_value_error(oracles.linearized_impulse, g, 32)
    result_or_value_error(simulator.sweep, g, -abs(level), period, 3, 40, threshold)
    result_or_value_error(simulator.extract_windows, [(level, False), (period, True)])


# --- CLI ----------------------------------------------------------------------


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def csv_arg(vals):
    return ",".join(repr(v) for v in vals)


@FUZZ
@given(
    st.sampled_from(("bounds", "check", "contour", "from-g", "simulate", "sweep")),
    st.sampled_from(("--b", "--g")),
    designs(),
    magnitudes,
    magnitudes,
    st.booleans(),
)
def test_cli_commands(command, kind, design, x, y, trace):
    coeffs, _ = design
    if command == "from-g":
        kind = "--g"
    argv = [command, f"{kind}={csv_arg(coeffs)}", "--format", "json"]
    if command in ("check", "contour"):
        argv += [f"--i-abs={x!r}"]
    if command == "contour":
        argv += ["--samples", "8"]
    if command == "simulate":
        argv += ["--samples", "30", f"--threshold={y!r}"]
        argv += [f"--sine-amp={x!r}", f"--sine-period={y!r}"] if trace else [f"--dc={x!r}"]
        argv += ["--trace-len", "5"] if trace else []
    if command == "sweep":
        argv += [f"--amp-lo={x!r}", f"--amp-hi={y!r}", "--amp-steps", "3", "--samples", "30"]
    code, out, err = cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        no_nan(json.loads(out))


# --- regressions: each of these once gave a NaN, a "stable" verdict, a
# non-ValueError exception or no answer at all ---------------------------------


REGRESSIONS = {
    "i_min-nan": lambda: boundary.i_min((nan, 1.0, 1.0), 3),
    "i_max_order3-nan": lambda: boundary.i_max_order3((nan, 1.0, 1.0)),
    "i_max_order3-overflow": lambda: boundary.i_max_order3((-1e300, 1e-300, 1e300)),  # a ~ -2e900
    "crossing_value-nan-phi": lambda: oracles.crossing_value((1.0, 1.0), 2, nan),
    "crossing_value-nan-b": lambda: oracles.crossing_value((nan, 1.0), 2, 1.0),
    "crossing_value-at-z=1": lambda: oracles.crossing_value((1.0,), 1, 0.0),
    "crossing_param-nan": lambda: oracles.crossing_param((nan, 1.0), 2),
    "d_coeffs-nan-a": lambda: oracles.d_coeffs((1.0,), 1, nan),
    "ntf_series-overflow": lambda: transfer.ntf_series((1e100, 1e100), 2, 8),
    "linearized_impulse-overflow": lambda: oracles.linearized_impulse((1e300,) * 3, 16),
    "run-nan-state": lambda: simulator.run((1.0,), 0.0, 10, initial_state=(nan,)),
    "trace_run-nan-state": lambda: simulator.trace_run((1.0,), 0.0, 10, initial_state=(nan,)),
    "trace_run-negative-threshold": lambda: simulator.trace_run((1.0,), 0.0, 10, threshold=-1.0),
    "trace_run-nan-threshold": lambda: simulator.trace_run((1.0,), 0.0, 10, threshold=nan),
    "run-subnormal-period": lambda: simulator.run((1.0,), simulator.SineInput(0.5, 5e-324), 1),
    "run-float-samples": lambda: simulator.run((1.0,), 0.0, 2.5),
    "run-nan-samples": lambda: simulator.run((1.0,), 0.0, nan),
    "run-bool-samples": lambda: simulator.run((1.0,), 0.0, True),
    "trace_run-float-samples": lambda: simulator.trace_run((1.0,), 0.0, 2.5),
    "sweep-float-steps": lambda: simulator.sweep((1.0,), 0.0, 1.0, 2.5, 10),
    "sweep-float-samples": lambda: simulator.sweep((1.0,), 0.0, 1.0, 4, 2.5),
    "linearized_impulse-float-terms": lambda: oracles.linearized_impulse((1.0,), 2.5),
    "ntf_series-float-terms": lambda: transfer.ntf_series((1.0, 1.0, 1.0), 3, 2.5),
    "contour_table-float-samples": lambda: contour_table(Poly([1.0, 2.0]), 2.5),
    "contour_table-overflow": lambda: contour_table(Poly([1e308, 1e308]), 4),  # row (0.0, inf, nan)
    "characteristic_points-overflow": lambda: characteristic_points(Poly([1e308] * 3)),  # w_plus = inf
    "poly-call-overflow-real": lambda: Poly([1e308] * 3)(1.0),  # inf
    "poly-call-overflow-complex": lambda: Poly([1e308] * 3)(1 + 0j),  # (inf+nanj)
    "simulate-negative-trace-len": lambda: execute(parse(["simulate", "--g=1", "--trace-len=-3"])),
    "g_from_b-past-the-cap": lambda: transfer.g_from_b((1e300,) * 5),  # g5 = 5e300
}


@pytest.mark.parametrize("call", REGRESSIONS.values(), ids=REGRESSIONS.keys())
def test_defect_now_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


# simulate flag combinations it cannot honour are usage errors; the first
# two once exited 0 and silently dropped an input.  A format the command
# cannot write is one too: it was refused only after the command's full run.
USAGE_REGRESSIONS = {
    "simulate-dc-with-sine": ["simulate", "--g=1", "--dc=0.05", "--sine-amp=0.1",
                              "--sine-period=64"],
    "simulate-period-without-amp": ["simulate", "--g=1", "--sine-period=64"],
    "simulate-amp-without-period": ["simulate", "--g=1", "--sine-amp=0.1"],
    "bounds-csv": ["bounds", "--b=3,-3,1", "--format=csv"],
    "check-csv": ["check", "--b=3,-3,1", "--i-abs=1.5", "--format=csv"],
    "from-g-csv": ["from-g", "--g=1,3,3", "--format=csv"],
    "simulate-csv-without-trace": ["simulate", "--g=1,3,3", "--format=csv"],
    "simulate-csv-zero-trace": ["simulate", "--g=1,3,3", "--trace-len=0", "--format=csv"],
}


@pytest.mark.parametrize("argv", USAGE_REGRESSIONS.values(), ids=USAGE_REGRESSIONS.keys())
def test_dropped_input_is_now_a_usage_error(argv):
    code, out, err = cli(argv)
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("argv", USAGE_REGRESSIONS.values(), ids=USAGE_REGRESSIONS.keys())
def test_usage_errors_are_found_before_any_work(argv):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        parse(argv)
    assert exc.value.code == 2


def test_no_nan_looks_inside_records():
    with pytest.raises(AssertionError):
        no_nan(simulator.WindowReport((simulator.GridPoint(0.1, True, nan, None),), ()))


def test_counts_accept_index_integers():
    # Any operator.index integer is a count; the result does not depend on its type.
    big = 10**3
    assert simulator.run((1.0,), 0.1, big) == simulator.run((1.0,), 0.1, np.int64(big))
    assert len(transfer.ntf_series((1.0,), 1, np.int32(5))) == 5
    assert len(simulator.sweep((1.0,), 0.0, 1.0, np.int16(3), 10).grid) == 3


def test_huge_design_exits_2():
    code, out, err = cli(["bounds", "--b=1e308,1e308,1e308"])
    assert code == 2 and out == "" and err.startswith("error:")


def test_bisection_stops_at_float_resolution():
    # The flip sits near 1.3e20, where one ulp is far wider than 1e-10.
    b = (2.5e20, -2.25e20, 0.7e20)
    assert oracles.bisect_boundary(b, 3, 1e20, 1e21) == pytest.approx(1.3263157894736843e20)


# --- designs whose coefficients differ by more than 1e300-fold: the event
# polynomial's solve once refused them ("roots out of float range"), and the
# Sturm isolation lost interior roots of their sine-kind profiles ------------


def schur_cohn_inside(coeffs, eps=Fraction(1, 2**40)):
    """Exact number of roots inside ``|z| = 1`` of ``sum c_k z**k``, or None
    when a root lies within ``eps`` of the circle.

    The Schur-Cohn table in rational arithmetic counts the roots inside
    ``|z| < rho`` (the number of negative running products of its leading
    entries); the counts for ``rho = 1 -+ eps`` must agree.  Shares no code
    with the package.
    """

    def count(g):
        while g and g[-1] == 0:
            g.pop()
        prod, neg = Fraction(1), 0
        for m in range(len(g) - 1, 0, -1):
            g = [g[0] * g[k] - g[m] * g[m - k] for k in range(m)]
            if g[0] == 0:
                return None
            prod *= g[0]
            neg += prod < 0
        return neg

    c = [Fraction(v) for v in coeffs]
    inner = count([v * (1 - eps) ** k for k, v in enumerate(c)])
    outer = count([v * (1 + eps) ** k for k, v in enumerate(c)])
    return inner if inner is not None and inner == outer else None


def test_schur_cohn_oracle_matches_root_moduli():
    rng = random.Random(5)
    for _ in range(300):
        c = [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(2, 7))]
        moduli = [abs(z) for z in all_roots(Poly(c))]
        if min(abs(m - 1.0) for m in moduli) > 1e-6:
            assert schur_cohn_inside(c) == sum(m < 1.0 for m in moduli)
    assert schur_cohn_inside([-1.0, 0.0, 1.0]) is None


def assert_witnesses_exact(b, n):
    """Every interval's witness verdict agrees with the exact rational count
    of the exact ``F(z; witness)``.  A witness count is None only where that
    ``F`` has a root on the circle: the oracle is undecided at ``rho = 1``
    (its table singular) and at ``rho = 1 -+ 2**-40`` and ``1 -+ 2**-400``.
    Returns how many witness counts are None."""
    rep = boundary.classify_intervals(b, n)
    assert rep.intervals
    assert all(math.isfinite(c.a) and math.isfinite(c.x) for c in rep.candidates)
    for iv in rep.intervals:
        f = exact_f(b, n, iv.witness_a)
        for eps in (0, Fraction(1, 2**40), Fraction(1, 2**400)):
            want = schur_cohn_inside(f, eps)
            if want is not None:
                break
        assert (iv.witness_count, iv.stable) == (want, want == n), (b, n, iv, want)
    return sum(iv.witness_count is None for iv in rep.intervals)


@pytest.mark.parametrize("kind", ["ordinary", "log-uniform", "small-integer"])
def test_witness_counts_match_exact_count(kind):
    # Half linear-stable and half uniform designs, magnitudes log-uniform
    # over 1e+-6, and b_k in -3..3, whose reciprocal designs pin a root to
    # the circle for every a.
    rng = random.Random(29)
    nones = 0
    for i in range(300):
        n = rng.randint(1, 5)
        if kind == "ordinary":
            b = stable_b_sample(rng, n) if i % 2 else tuple(rng.uniform(-4.0, 4.0) for _ in range(n))
        elif kind == "log-uniform":
            b = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6, 6) for _ in range(n))
        else:
            b = tuple(float(rng.randint(-3, 3)) for _ in range(n))
        nones += assert_witnesses_exact(b, n)
    assert (nones > 0) == (kind == "small-integer")


def exact_f(b, n, a):
    """``F(z; a) = a*(z-1)**n + D(z)`` of the floats ``a`` and ``b``,
    ascending, in Fractions: no rounding."""
    a = Fraction(a)
    return [a * math.comb(n, j) * (-1) ** (n - j) + (Fraction(b[n - j - 1]) if j < n else 0)
            for j in range(n + 1)]


def test_floats_next_to_each_edge_get_its_verdict():
    # The 4 floats nearest each event edge, inside each interval next to it,
    # counted exactly: the count is the interval's witness count, so no root
    # crosses the circle between an edge and the float next to it.
    # Linear-stable, uniform and log-uniform 1e+-6 designs of orders 3..5.
    rng = random.Random(23)
    probes = 0
    for i in range(200):
        n = rng.randint(3, 5)
        if i % 3 == 0:
            b = stable_b_sample(rng, n)
        elif i % 3 == 1:
            b = tuple(rng.uniform(-4.0, 4.0) for _ in range(n))
        else:
            b = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6, 6) for _ in range(n))
        for iv in boundary.classify_intervals(b, n).intervals:
            if iv.witness_count is None:
                continue
            for edge, inward in ((iv.lo, math.inf), (iv.hi, -math.inf)):
                a = edge
                for _ in range(4 if 0.0 < edge < math.inf else 0):
                    a = math.nextafter(a, inward)
                    count = schur_cohn_inside(exact_f(b, n, a), Fraction(1, 2**70))
                    assert count == iv.witness_count, (b, n, iv, a, count)
                    assert iv.stable == (count == n and sum(map(Fraction, b)) > 0), (b, n, iv, a)
                    probes += 1
    assert probes > 1200


WIDE_DESIGNS = {
    "order-3": ((-4.426848985272053e99, 2.4635551020868227e270, -1.0753803945023566e-62), 3),
    "order-5": ((-1.8276155929006336e-205, 8.949011776617805e-246, 1.8061119983006622e235,
                 6.091094214177903e-06, -1.2259613491527848e-132), 5),
    # Its report once called (0, 1.10e196) stable with 5 roots inside; 1 is.
    "order-5-valid-event": ((5087311096.066319, -4.4394282084740137e-10, -8.949268625847037e192,
                             1.101563396972606e196, -2.601584464738454e-125), 5),
}


@pytest.mark.parametrize("b, n", WIDE_DESIGNS.values(), ids=WIDE_DESIGNS.keys())
def test_wide_design_report_matches_exact_count(b, n):
    assert_witnesses_exact(b, n)  # a warning would fail here


def test_wide_design_keeps_its_interior_event():
    # At this a, 400-digit root extraction puts a root pair on |z| = 1.
    b, n = WIDE_DESIGNS["order-5-valid-event"]
    (event,) = boundary.zero_point_candidates(b, n)
    assert event.valid
    assert event.a == pytest.approx(1.1033554342194452e196, rel=1e-9)
    assert event.x == pytest.approx(0.5004062076068632, rel=1e-9)
    rep = boundary.classify_intervals(b, n)
    assert [(iv.stable, iv.witness_count) for iv in rep.intervals] == [(False, 1), (False, 3)]


def test_log_uniform_designs_match_exact_count():
    # Coefficient magnitudes log-uniform over 1e-320..1e300: many of these
    # designs were refused, and others got a wrong witness count.
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 5)
        b = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 300) for _ in range(n))
        assert_witnesses_exact(b, n)


@pytest.mark.parametrize("log_uniform", [False, True], ids=["ordinary", "log-uniform"])
def test_check_count_matches_exact_schur_cohn(log_uniform):
    # The count is the exact Schur-Cohn count at rho = 1 or, where that
    # table is singular, at rho = 1 -+ 2**-40; it is refused only for a
    # root on the circle.  Log-uniform probes have magnitudes over
    # 1e-300..1e299, where char_poly's rounding often leaves a*(z-1)**n,
    # with every root at z = 1.
    rng = random.Random(8)
    checked = compared = 0
    while checked < 2000:
        n = rng.randint(1, 5)
        if log_uniform:
            b = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 299) for _ in range(n))
            a = 10.0 ** rng.uniform(-300, 299)
        else:
            b, a = tuple(rng.uniform(-4.0, 4.0) for _ in range(n)), rng.uniform(0.01, 4.0)
        try:
            f = transfer.char_poly(b, n, a)
        except ValueError:
            continue  # a coefficient beyond the 1e300 cap
        res = count_inside_e1(f)
        assert res.marginal == (res.inside is None)
        for eps in (0, Fraction(1, 2**40)):
            want = schur_cohn_inside(f.coeffs, eps)
            if want is not None:
                assert res.inside == want, (b, n, a, eps)
                compared += 1
                break
        checked += 1
    assert compared > (1400 if log_uniform else 1990), compared


def test_check_next_to_an_edge_gives_the_bounds_verdict():
    # check counts the exact F(z; a) that bounds probes, so at a = edge*(1 -+
    # 2**-k), k = 10..50, next to each edge of seeded log-uniform 1e+-6
    # designs, it answers as the bounds interval holding a, although 44% of
    # these F have a root within 2**-30 of the circle.
    rng = random.Random(7)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        b = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6, 6) for _ in range(n))
        intervals = boundary.classify_intervals(b, n).intervals
        for iv in intervals:
            for edge, side in ((iv.lo, 1.0), (iv.hi, -1.0)):
                for k in range(10, 51) if 0.0 < edge < math.inf else ():
                    a = edge * (1.0 + side * 2.0**-k)
                    (holding,) = [h for h in intervals if h.lo < a < h.hi]
                    report, code = execute(RunConfig("check", b=b, i_abs=a))
                    res = report.payload
                    assert (res.inside, res.inside == n) == (holding.witness_count, holding.stable), (b, n, a)
                    assert code == int(res.marginal) == (res.inside is None)
                    checked += 1
    assert checked > 3000


def test_check_count_beside_a_tiny_self_intersection():
    # A root of the sine-kind profile at 5e-301 once hid another from the
    # float isolation, and the check printed "inside: 2".
    code, out, _ = cli(["check", "--b=1.1503240122765525e-165,-1.4577309830855049e+26,"
                        "5.8802314636240036e-46,-3.2181115366524337e+272",
                        "--i-abs=1.1795976698722593e-113"])
    assert code == 0 and "inside: 0" in out


def test_subnormal_on_circle_check_exits_1():
    # b and |I| build t*(z**2 - 1), t = 2**-1070: both roots on the circle.
    t = 2.0**-1070
    assert transfer.char_poly((2 * t, -2 * t), 2, t) == Poly([-t, 0.0, t])
    code, out, _ = cli(["check", f"--b={2 * t!r},{-2 * t!r}", f"--i-abs={t!r}"])
    assert code == 1 and "marginal: True" in out


def test_check_at_zero_magnitude_counts_d_as_given():
    # At a = 0 check counts F = D on the path of every a > 0.  It answers as
    # count_inside_e1 and characteristic_points do on the float D, whatever
    # D's degree and sign and however wide its coefficients.
    rng = random.Random(23)
    wide = (1e300, 1e-300, 5e-324, 2.0**-1070)
    seen = dict.fromkeys(("leading zero", "negative leading", "b_n = 0", "1e+-300", "subnormal"), 0)
    checked = 0
    while checked < 3000:
        n = rng.randint(1, 5)
        b = [rng.choice((-1.0, 1.0)) * (rng.choice(wide) if rng.random() < 0.3 else rng.uniform(0.0, 4.0))
             for _ in range(n)]
        for k in range(rng.randint(0, n - 1)) if rng.random() < 0.3 else ():
            b[k] = rng.choice((0.0, -0.0))  # D of degree below n - 1
        if rng.random() < 0.2:
            b[-1] = 0.0  # F(0) = 0
        d = Poly(b[::-1])
        cfg = RunConfig("check", b=tuple(b), i_abs=rng.choice((0.0, -0.0)))
        if d.degree < 1:
            with pytest.raises(ValueError, match=r"F\(z; 0\) = D\(z\) is constant"):
                execute(cfg)
            continue
        report, code = execute(cfg)
        want = replace(count_inside_e1(d), points=characteristic_points(d))
        assert repr(report.payload) == repr(want), b
        assert code == int(want.marginal)
        seen["leading zero"] += b[0] == 0.0
        seen["negative leading"] += d.leading < 0
        seen["b_n = 0"] += b[-1] == 0.0
        seen["1e+-300"] += any(abs(v) in (1e300, 1e-300) for v in b)
        seen["subnormal"] += any(0.0 < abs(v) < 2.2250738585072014e-308 for v in b)
        checked += 1
    assert min(seen.values()) > 150, seen
