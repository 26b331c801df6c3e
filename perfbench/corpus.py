"""Seeded input corpora for the four benchmark workloads.

Everything here is plain Python on ``random.Random``: corpus generation never
calls into ``sdmstab``, so the package only ever sees the generated inputs,
and the same ``(workload, seed)`` always yields the same corpus.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

ORDERS = (1, 2, 3, 4, 5)

# Criterion 9 of the acceptance suite: 256 DC points x 10^5 samples on the
# design whose unstable amplitude set is disconnected; 121 points diverge.
CRIT9_G = (0.1, 0.5, 1.0)
CRIT9_SWEEP = (0.0, 0.0999, 256, 10**5)
CRIT9_UNSTABLE = 121

# Criterion 10: the same design at 64 x 20000 has these bit-stable windows.
CRIT10_SWEEP = (0.0, 0.0999, 64, 20000)
CRIT10_WINDOWS = ((0.05708571428571429, 0.061842857142857144), (0.06501428571428572, 0.0999))


@dataclass(frozen=True)
class Scale:
    """Corpus and pass sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    trace_ops: dict       # ops in the traced pass, per workload
    dc_designs: int       # DC-sweep designs per order in one simulate round
    dc_points: int
    dc_samples: int
    sine_runs: int        # sine runs per order in one simulate round
    sine_samples: int
    crit9: tuple          # (amp_lo, amp_hi, steps, samples)
    trace_check: int      # DC grid points cross-checked against trace_run
    cli_sim_samples: int
    setup_repeats: int
    warmup: dict = field(default_factory=dict)


FULL = Scale(
    trace_ops={"bounds": 2000, "check": 6000, "cli": 40},
    dc_designs=2,
    dc_points=16,
    dc_samples=50000,
    sine_runs=4,
    sine_samples=10**5,
    crit9=CRIT9_SWEEP,
    trace_check=12,
    cli_sim_samples=2000,
    setup_repeats=9,
    warmup={"bounds": 200, "check": 500, "cli": 1},
)

TINY = Scale(
    trace_ops={"bounds": 10, "check": 20, "cli": 2},
    dc_designs=1,
    dc_points=3,
    dc_samples=300,
    sine_runs=1,
    sine_samples=300,
    crit9=(0.0, 0.0999, 4, 300),
    trace_check=2,
    cli_sim_samples=200,
    setup_repeats=1,
    warmup={"bounds": 2, "check": 2, "cli": 0},
)


# --- designs -----------------------------------------------------------------


def _mul(p: list, q: list) -> list:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _b_from_monic(f: list[float], n: int) -> tuple[float, ...]:
    """``b`` of the design whose linear-model denominator is the monic ``f``.

    ``f`` is ascending; ``D = f - (z-1)**n`` and ``b[k-1]`` multiplies
    ``z**(n-k)``.
    """
    diff = [f[k] - math.comb(n, k) * (-1.0) ** (n - k) for k in range(n + 1)]
    return tuple(diff[n - k] for k in range(1, n + 1))


def stable_b(rng: random.Random, n: int) -> tuple[float, ...]:
    """Design whose linear model has every pole strictly inside the circle.

    Same draw as ``stable_b_sample`` in the acceptance suite: conjugate pole
    pairs of radius below 0.9 or real poles in (-0.9, 0.9).
    """
    f = [1.0]
    left = n
    while left > 0:
        if left >= 2 and rng.random() < 0.5:
            r = 0.9 * math.sqrt(rng.random())
            th = rng.uniform(0.0, math.pi)
            f = _mul(f, [r * r, -2.0 * r * math.cos(th), 1.0])
            left -= 2
        else:
            f = _mul(f, [-rng.uniform(-0.9, 0.9), 1.0])
            left -= 1
    return _b_from_monic(f, n)


def uniform_b(rng: random.Random, n: int) -> tuple[float, ...]:
    return tuple(rng.uniform(-4.0, 4.0) for _ in range(n))


def design(rng: random.Random, i: int) -> tuple[tuple[float, ...], int]:
    """Design ``i`` of a corpus: even ``i`` linear-stable, odd ``i`` uniform.

    Orders cycle, so every stretch of ten designs holds one stable and one
    uniform design of each order: a run's mix, and so its median, does not
    depend on the seed.
    """
    n = ORDERS[(i // 2) % len(ORDERS)]
    return (stable_b(rng, n) if i % 2 == 0 else uniform_b(rng, n)), n


def lowpass_b(rng: random.Random, n: int, peak: float = 1.5) -> tuple[float, ...]:
    """Design a one-bit loop can run: low-pass poles, NTF gain at most ``peak``.

    Poles of radius 0.3..0.95 near ``z = 1`` are redrawn until the noise
    transfer function ``(z-1)**n / B(z)`` stays below ``peak`` on the circle
    (Lee's rule), so small inputs keep the loop bounded while DC near full
    scale still diverges.
    """
    while True:
        poles: list[complex] = []
        while len(poles) < n:
            r = rng.uniform(0.3, 0.95)
            if n - len(poles) >= 2 and rng.random() < 0.5:
                th = rng.uniform(0.0, 0.6)
                poles += [cmath.rect(r, th), cmath.rect(r, -th)]
            else:
                poles.append(complex(r, 0.0))
        f: list = [1.0]
        for p in poles:
            f = _mul(f, [-p, 1.0])
        f = [c.real for c in f]
        gain = 0.0
        for k in range(65):
            z = cmath.exp(1j * math.pi * k / 64)
            den = sum(c * z**i for i, c in enumerate(f))
            gain = max(gain, abs((z - 1.0) ** n / den))
        if gain <= peak:
            return _b_from_monic(f, n)


def g_from_b(b: tuple[float, ...]) -> tuple[float, ...]:
    """Cascade coefficients: ``D(z)`` expanded in powers of ``(z - 1)``."""
    coeffs = list(b)  # b[k-1] multiplies z**(n-k): already descending
    out = []
    for _ in range(len(b)):
        # Synthetic division by (z - 1); the remainder is the next g.
        acc = 0.0
        quot = []
        for c in coeffs:
            acc += c
            quot.append(acc)
        out.append(quot.pop())
        coeffs = quot
    return tuple(out)


class Stream:
    """An endless corpus: item ``i`` is ``make(rng, i)`` with ``rng`` seeded
    by ``(workload, seed, i)`` alone.

    Any item regenerates on its own, the same seed gives the same items, and
    a run that gets through more operations draws new items instead of
    wrapping round to ones it has already run.
    """

    def __init__(self, workload: str, seed: int, make):
        self.workload, self.seed, self.make = workload, seed, make

    def __getitem__(self, i: int):
        return self.make(random.Random(f"{self.workload}:{self.seed}:{i}"), i)

    def prefix(self, k: int) -> list:
        return [self[i] for i in range(k)]


# --- workloads ---------------------------------------------------------------


def bounds_corpus(seed: int, scale: Scale) -> Stream:
    """``(b, n)`` pairs for ``classify_intervals``."""
    return Stream("bounds", seed, design)


def check_item(rng: random.Random, i: int) -> tuple:
    b, n = design(rng, i)
    return b, n, math.exp(rng.uniform(math.log(0.05), math.log(20.0)))


def check_corpus(seed: int, scale: Scale) -> Stream:
    """``(b, n, a)`` triples for ``count_inside_e1(char_poly(b, n, a))``."""
    return Stream("check", seed, check_item)


@dataclass(frozen=True)
class SimUnit:
    """One simulator call: a DC ``sweep`` (``steps`` ops) or a sine ``run``."""

    kind: str                 # "sweep" | "sine"
    g: tuple[float, ...]
    args: tuple               # sweep: (amp_lo, amp_hi, steps, samples);
                              # sine: (amplitude, period, samples)

    @property
    def ops(self) -> int:
        return self.args[2] if self.kind == "sweep" else 1


def simulate_round(seed: int, scale: Scale, round_no: int) -> list[SimUnit]:
    """One simulate round, shuffled: per-order DC sweeps over
    ``[0, 1.2*g1]`` and sine runs, plus a criterion-9 sweep.

    Each round draws from its own sub-seed, so no unit repeats across
    rounds.  Round 0 holds criterion 9's sweep itself; later rounds hold the
    same design, amplitude range and grid size with the low end raised by a
    seeded fraction of a step, so they cost the same per point without
    repeating it.  The
    criterion-9 sweep holds more than half of the round's ops, so the median
    op is its per-point cost whatever the seed.
    """
    rng = random.Random(f"simulate:{seed}:{round_no}")
    lo, hi, steps, samples = scale.crit9
    shift = 0.0 if round_no == 0 else rng.random() * (hi - lo) / (steps - 1)
    units = [SimUnit("sweep", CRIT9_G, (lo + shift, hi, steps, samples))]
    for n in ORDERS:
        for _ in range(scale.dc_designs):
            g = g_from_b(lowpass_b(rng, n))
            top = 1.2 * abs(g[0])
            units.append(SimUnit("sweep", g, (0.0, top, scale.dc_points, scale.dc_samples)))
        for _ in range(scale.sine_runs):
            g = g_from_b(lowpass_b(rng, n))
            amp = rng.uniform(0.1, 0.3) * abs(g[0])
            period = rng.uniform(16.0, 256.0)
            units.append(SimUnit("sine", g, (amp, period, scale.sine_samples)))
    rng.shuffle(units)
    return units


def simulate_corpus(seed: int, scale: Scale, rounds: int = 1) -> list[SimUnit]:
    """``rounds`` simulate rounds back to back."""
    return [unit for r in range(rounds) for unit in simulate_round(seed, scale, r)]


CLI_COMMANDS = ("bounds", "check", "from-g", "simulate", "sweep")


def cli_corpus(seed: int, scale: Scale) -> Stream:
    """Argument lists for ``python -m sdmstab.cli``, commands in rotation.

    Formats are drawn only where the command defines them (csv exists for
    sweep and for simulate traces), and numbers are attached with ``=`` so a
    negative value is not read as an option: no argv is a usage error.
    """
    def csv(vals) -> str:
        return ",".join(repr(float(v)) for v in vals)

    def argv(rng: random.Random, i: int) -> list[str]:
        b, n = design(rng, i)
        cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        text_or_json = rng.choice(("text", "json"))
        if cmd == "bounds":
            return ["bounds", f"--b={csv(b)}", "--format", text_or_json]
        if cmd == "check":
            a = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            return ["check", f"--b={csv(b)}", f"--i-abs={a!r}", "--format", text_or_json]
        if cmd == "from-g":
            return ["from-g", f"--g={csv(g_from_b(b))}", "--format", text_or_json]
        g = g_from_b(lowpass_b(rng, n))
        if cmd == "simulate":
            out = ["simulate", f"--g={csv(g)}", "--samples", str(scale.cli_sim_samples)]
            if rng.random() < 0.5:
                out += [f"--dc={rng.uniform(-0.5, 0.5) * abs(g[0])!r}"]
            else:
                out += [f"--sine-amp={rng.uniform(0.1, 0.3) * abs(g[0])!r}",
                        f"--sine-period={rng.uniform(16.0, 128.0)!r}"]
            fmt = rng.choice(("text", "json", "csv"))
            if fmt == "csv":
                out += ["--trace-len", "64"]
            return out + ["--format", fmt]
        return ["sweep", f"--g={csv(g)}", "--amp-lo", "0", f"--amp-hi={1.2 * abs(g[0])!r}",
                "--amp-steps", "16", "--samples", str(scale.cli_sim_samples),
                "--format", rng.choice(("text", "json", "csv"))]

    return Stream("cli", seed, argv)


CORPORA = {
    "bounds": bounds_corpus,
    "check": check_corpus,
    "simulate": simulate_corpus,
    "cli": cli_corpus,
}
