"""Command-line front end.

Commands: ``bounds``, ``check``, ``contour``, ``from-g``, ``simulate``,
``sweep``.  Designs enter either as feedback-difference coefficients
(``--b``) or cascade coefficients (``--g``), mutually exclusive, with the
order inferred from the list length.  Formats: ``bounds``, ``check`` and
``from-g`` write text or json; ``contour`` csv (its default), text or json;
``simulate`` and ``sweep`` text, json or csv (``simulate`` csv only for a
trace, ``--trace-len`` > 0); json is strict, each non-finite value (such
as an interval's ``inf`` edge) written as ``null``.  ``check`` counts the
exact ``F(z; a)`` at every ``a >= 0``: ``F = D`` at ``a = 0``, and above
it the ``F`` that ``bounds`` probes, so its answer is the verdict of the
``bounds`` interval holding ``a``.  ``execute`` checks ``a``
(``0 <= a <= 1e300``) before ``check`` counts ``F`` or ``contour`` samples
it.  Exit codes: 0 success, 1 a refusal by ``check`` (a root exactly on
the unit circle), 2 usage and validation errors.

Each command imports the analytic or simulator modules it uses when it
runs, and ``json`` is imported only for ``--format json``, so one process
loads only what its command needs.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

from . import __version__
from .polynomial import record
from .transfer import (MAX_ROWS, _char_poly, _check_coeffs, _check_count, _check_scalar,
                       b_from_g, g_from_b, ntf_series)

__all__ = ["RunConfig", "Report", "asdict", "replace", "parse", "execute", "render", "main"]


@record
class RunConfig:
    command: str
    b: tuple[float, ...] | None = None
    g: tuple[float, ...] | None = None
    format: str = "text"
    out: str = "-"
    i_abs: float | None = None
    samples: int | None = None
    threshold: float = 1e6
    dc: float | None = None
    sine_amp: float | None = None
    sine_period: float | None = None
    amp_lo: float = 0.0
    amp_hi: float = 1.0
    amp_steps: int = 64
    trace_len: int = 0


@record
class Report:
    command: str
    inputs: dict
    payload: object
    version: str = __version__


def asdict(obj):
    """A record as a dict of its fields, with the records and the tuples and
    lists of them inside it converted too; other values as they are."""
    if isinstance(obj, (tuple, list)):
        return type(obj)(asdict(v) for v in obj)
    if hasattr(type(obj), "_fields"):
        return {f: asdict(getattr(obj, f)) for f in obj._fields}
    return obj


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes`` applied, built through
    its ``__init__``."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj._fields}, **changes})


def _csv_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sdmstab",
        description="Stability analysis and behavioral simulation of cascaded "
        "one-bit sigma-delta modulators",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # An option left out stays out of the namespace, so RunConfig supplies
    # every default; argparse keeps only those that differ by command.
    command = partial(argparse.ArgumentParser, argument_default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True, parser_class=command)

    def common(p: argparse.ArgumentParser, formats=("text", "json"), need_g_only=False) -> None:
        """The design and output options; ``formats[0]`` is the default format."""
        grp = p.add_mutually_exclusive_group(required=True)
        if not need_g_only:
            grp.add_argument("--b", type=_csv_list, help="feedback-difference coefficients, e.g. 3,-3,1")
        grp.add_argument("--g", type=_csv_list, help="cascade coefficients, e.g. 1,3,3")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="output path, or - for stdout")

    p = sub.add_parser("bounds", help="stability intervals in the quasi-static magnitude")
    common(p)

    p = sub.add_parser("check", help="root count of the characteristic polynomial at one magnitude")
    common(p)
    p.add_argument("--i-abs", type=float, required=True, help="quasi-static integrator magnitude")

    p = sub.add_parser("contour", help="sampled unit-circle contour image as plot data")
    common(p, formats=("csv", "text", "json"))
    p.add_argument("--i-abs", type=float, required=True)
    p.add_argument("--samples", type=int, default=512)

    p = sub.add_parser("from-g", help="derive the analytic design from cascade coefficients")
    common(p, need_g_only=True)

    p = sub.add_parser("simulate", help="time-domain behavioral run")
    common(p, formats=("text", "json", "csv"))
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--threshold", type=float)
    p.add_argument("--dc", type=float, help="DC input level (default 0)")
    p.add_argument("--sine-amp", type=float)
    p.add_argument("--sine-period", type=float)
    p.add_argument("--trace-len", type=int, help="emit a bounded state trace instead of the summary")

    p = sub.add_parser("sweep", help="DC amplitude sweep with instability-window extraction")
    common(p, formats=("text", "json", "csv"))
    p.add_argument("--amp-lo", type=float)
    p.add_argument("--amp-hi", type=float)
    p.add_argument("--amp-steps", type=int)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--threshold", type=float)
    return top


def parse(argv) -> RunConfig:
    """Parse and validate argv; raises SystemExit(2) on usage errors."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(**vars(ns))
    if cfg.command == "simulate":
        if "sine_amp" in ns and "sine_period" not in ns:
            parser.error("--sine-amp requires --sine-period")
        if "sine_period" in ns and "sine_amp" not in ns:
            parser.error("--sine-period requires --sine-amp")
        if "dc" in ns and "sine_amp" in ns:
            parser.error("--dc and --sine-amp are mutually exclusive")
        if cfg.format == "csv" and cfg.trace_len <= 0:
            parser.error("--format csv requires a positive --trace-len")
    return cfg


def execute(cfg: RunConfig) -> tuple[Report, int]:
    """Dispatch a validated config; returns the report and the exit code."""
    b = b_from_g(cfg.g) if cfg.g is not None else _check_coeffs(cfg.b, "b")
    n = len(b)
    inputs = {"b": list(b), "n": n}
    if cfg.g is not None:
        inputs["g"] = list(cfg.g)
    code = 0
    # simulate and sweep run the cascade, derived from --b when not given
    g = (cfg.g or g_from_b(b)) if cfg.command in ("simulate", "sweep") else None

    if cfg.command == "bounds":
        from .boundary import classify_intervals

        payload: object = classify_intervals(b, n)
    elif cfg.command in ("check", "contour"):
        from .winding import _count_at, contour_table

        inputs["i_abs"] = cfg.i_abs
        a = _check_scalar(cfg.i_abs, "the integrator magnitude a", nonnegative=True)
        if not a and not any(b[:-1]):  # F(z; 0) = D(z) = b_n
            raise ValueError("F(z; 0) = D(z) is constant for this design: give --i-abs > 0")
        if cfg.command == "check":
            payload = _count_at(b, n, a)
            code = int(payload.marginal)
        else:
            inputs["samples"] = cfg.samples
            payload = contour_table(_char_poly(b, n, a), cfg.samples)
    elif cfg.command == "from-g":
        payload = {
            "n": n,
            "g": list(cfg.g),
            "b": list(b),
            "ntf_leading_terms": ntf_series(b, n, 8),
        }
    elif cfg.command == "simulate":
        from .simulator import DcInput, SineInput, run, trace_run

        if cfg.sine_amp is not None:
            signal = SineInput(amplitude=cfg.sine_amp, period=cfg.sine_period)
            inputs["sine_amp"] = cfg.sine_amp
            inputs["sine_period"] = cfg.sine_period
        else:
            signal = DcInput(level=cfg.dc if cfg.dc is not None else 0.0)
            inputs["dc"] = signal.level
        inputs["samples"] = cfg.samples
        inputs["threshold"] = cfg.threshold
        if _check_count(cfg.trace_len, "trace_len", minimum=0) > 0:
            rows = min(cfg.trace_len, cfg.samples)
            if rows > MAX_ROWS:  # so trace_len is past the cap too: name it
                _check_count(cfg.trace_len, "trace_len", rows=True)
            payload = trace_run(g, signal, rows, cfg.threshold)[1]
        else:
            payload = run(g, signal, cfg.samples, cfg.threshold)
    elif cfg.command == "sweep":
        from .simulator import sweep

        inputs.update(
            amp_lo=cfg.amp_lo,
            amp_hi=cfg.amp_hi,
            amp_steps=cfg.amp_steps,
            samples=cfg.samples,
            threshold=cfg.threshold,
        )
        payload = sweep(g, cfg.amp_lo, cfg.amp_hi, cfg.amp_steps, cfg.samples, cfg.threshold)
    else:
        raise ValueError(f"unknown command {cfg.command!r}")
    if g is not None:
        inputs["g"] = list(g)
    return Report(command=cfg.command, inputs=inputs, payload=payload), code


def _text_lines(command: str, payload) -> list[str]:
    if command == "bounds":
        lines = [f"sum_b: {payload.sum_b!r}", f"a_min: {payload.a_min!r}"]
        lines += [f"candidate: {_pairs(c)}" for c in payload.candidates]
        for iv in payload.intervals:
            verdict = "stable" if iv.stable else "unstable"
            lines.append(
                f"interval: ({iv.lo!r}, {iv.hi!r}) {verdict} "
                f"witness_a={iv.witness_a!r} witness_count={iv.witness_count}"
            )
        return lines
    if command == "check":
        lines = [
            f"inside: {payload.inside}",
            f"marginal: {payload.marginal}",
        ]
        if payload.winding is not None:
            lines.append(f"winding: {payload.winding}")
        if payload.points is not None:
            lines.append(f"w_plus: {payload.points.w_plus!r}")
            lines.append(f"w_minus: {payload.points.w_minus!r}")
            lines += [f"selfx: {_pairs(p)}" for p in payload.points.selfx]
        return lines
    if command == "simulate":
        if isinstance(payload, list):  # a trace
            return [f"state: k={st.k} s={list(st.s)!r} v={st.v!r}" for st in payload]
        return [f"{f}: {getattr(payload, f)!r}" for f in payload._fields]
    if command == "sweep":
        lines = [f"grid: {_pairs(p)}" for p in payload.grid]
        for w in payload.windows:
            lines.append(f"window: [{w.lo!r}, {w.hi!r}]")
        if not payload.windows:
            lines.append("window: none")
        return lines
    if command == "from-g":
        return [f"{k}: {v!r}" for k, v in payload.items()]
    return _csv_rows(payload)  # contour


def _pairs(rec) -> str:
    """A record's fields as ``name=repr`` pairs, in field order."""
    return " ".join(f"{f}={getattr(rec, f)!r}" for f in rec._fields)


def _table(command: str, payload) -> tuple[list[str], list]:
    """The ``(header, rows)`` of contour, sweep and state-trace data."""
    if command == "contour":
        return ["phi", "re_w", "im_w"], payload
    if command == "sweep":
        from .simulator import GridPoint

        fields = GridPoint._fields
        return list(fields), [[getattr(p, f) for f in fields] for p in payload.grid]
    if command == "simulate" and isinstance(payload, list):  # a trace
        header = ["k", *(f"s{j + 1}" for j in range(len(payload[0].s))), "v"]
        return header, [[st.k, *st.s, st.v] for st in payload]
    raise ValueError("csv output is only defined for contour, sweep and trace data")


def _cell(v) -> str:
    """``None`` as empty, a bool as ``true``/``false``, anything else its repr."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v)


def _csv_rows(rows) -> list[str]:
    return [",".join(map(_cell, row)) for row in rows]


def _strict(v):
    """``v`` with each non-finite float in it, at any depth of dicts, lists
    and tuples, as ``None``: strict JSON has no ``Infinity`` or ``NaN``."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    return v


def render(report: Report, fmt: str) -> str:
    """Deterministic serialization of a report in the requested format."""
    if fmt == "json":
        import json

        doc = {
            "command": report.command,
            "inputs": report.inputs,
            "version": report.version,
            "result": asdict(report.payload),
        }
        return json.dumps(_strict(doc), indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        header, rows = _table(report.command, report.payload)
        return "\n".join([",".join(header), *_csv_rows(rows)]) + "\n"
    lines = [f"command: {report.command}"]
    lines += [f"input {k}: {v}" for k, v in report.inputs.items()]
    lines += _text_lines(report.command, report.payload)
    return "\n".join(lines) + "\n"


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    cfg = parse(argv)
    try:
        report, code = execute(cfg)
        text = render(report, cfg.format)
        _write_out(cfg.out, text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
