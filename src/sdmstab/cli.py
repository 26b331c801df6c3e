"""Command-line front end.

Commands: ``bounds``, ``check``, ``contour``, ``from-g``, ``simulate``,
``sweep``.  Designs enter either as feedback-difference coefficients
(``--b``) or cascade coefficients (``--g``), mutually exclusive, with the
order inferred from the list length.  Exit codes: 0 success, 1 analysis
refusal (a verdict too close to the unit circle to call), 2 usage errors.

Each command imports the analytic or simulator modules it uses when it
runs, and ``json`` is imported only for ``--format json``, so one process
loads only what its command needs.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .transfer import SdmDesign, _check_count, char_poly, g_from_b, ntf_series, record

__all__ = ["RunConfig", "Report", "asdict", "replace", "parse", "execute", "render", "main"]

COMMANDS = ("bounds", "check", "contour", "from-g", "simulate", "sweep")


@record
class RunConfig:
    command: str
    b: tuple[float, ...] | None
    g: tuple[float, ...] | None
    format: str
    out: str
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
    """A copy of the record ``obj`` with ``changes`` applied, built (and
    validated) through its ``__init__``."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj._fields}, **changes})


def _is(obj, module: str, name: str) -> bool:
    """``isinstance(obj, <module>.<name>)`` for a submodule of this package,
    without importing it: no instance of its classes exists before it is loaded."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return mod is not None and isinstance(obj, getattr(mod, name))


def _csv_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty coefficient list")
    return vals


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sdmstab",
        description="Stability analysis and behavioral simulation of cascaded "
        "one-bit sigma-delta modulators",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, need_g_only: bool = False, default_format: str = "text"
    ) -> None:
        grp = p.add_mutually_exclusive_group(required=True)
        if not need_g_only:
            grp.add_argument("--b", type=_csv_list, help="feedback-difference coefficients, e.g. 3,-3,1")
        grp.add_argument("--g", type=_csv_list, help="cascade coefficients, e.g. 1,3,3")
        p.add_argument("--format", choices=("text", "json", "csv"), default=default_format)
        p.add_argument("--out", default="-", help="output path, or - for stdout")

    p = sub.add_parser("bounds", help="stability intervals in the quasi-static magnitude")
    common(p)

    p = sub.add_parser("check", help="root count of the characteristic polynomial at one magnitude")
    common(p)
    p.add_argument("--i-abs", type=float, required=True, help="quasi-static integrator magnitude")

    p = sub.add_parser("contour", help="sampled unit-circle contour image as plot data")
    common(p, default_format="csv")
    p.add_argument("--i-abs", type=float, required=True)
    p.add_argument("--samples", type=int, default=512)

    p = sub.add_parser("from-g", help="derive the analytic design from cascade coefficients")
    common(p, need_g_only=True)

    p = sub.add_parser("simulate", help="time-domain behavioral run")
    common(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--threshold", type=float, default=1e6)
    p.add_argument("--dc", type=float, default=None, help="DC input level (default 0)")
    p.add_argument("--sine-amp", type=float, default=None)
    p.add_argument("--sine-period", type=float, default=None)
    p.add_argument("--trace-len", type=int, default=0, help="emit a bounded state trace instead of the summary")

    p = sub.add_parser("sweep", help="DC amplitude sweep with instability-window extraction")
    common(p)
    p.add_argument("--amp-lo", type=float, default=0.0)
    p.add_argument("--amp-hi", type=float, default=1.0)
    p.add_argument("--amp-steps", type=int, default=64)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--threshold", type=float, default=1e6)
    return top


def parse(argv) -> RunConfig:
    """Parse and validate argv; raises SystemExit(2) on usage errors."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "simulate":
        if ns.sine_amp is not None and ns.sine_period is None:
            parser.error("--sine-amp requires --sine-period")
        if ns.sine_period is not None and ns.sine_amp is None:
            parser.error("--sine-period requires --sine-amp")
        if ns.dc is not None and ns.sine_amp is not None:
            parser.error("--dc and --sine-amp are mutually exclusive")
    return RunConfig(
        command=ns.command,
        b=getattr(ns, "b", None),
        g=ns.g,
        format=ns.format,
        out=ns.out,
        i_abs=getattr(ns, "i_abs", None),
        samples=getattr(ns, "samples", None),
        threshold=getattr(ns, "threshold", 1e6),
        dc=getattr(ns, "dc", None),
        sine_amp=getattr(ns, "sine_amp", None),
        sine_period=getattr(ns, "sine_period", None),
        amp_lo=getattr(ns, "amp_lo", 0.0),
        amp_hi=getattr(ns, "amp_hi", 1.0),
        amp_steps=getattr(ns, "amp_steps", 64),
        trace_len=getattr(ns, "trace_len", 0),
    )


def _design(cfg: RunConfig) -> SdmDesign:
    if cfg.g is not None:
        return SdmDesign.from_g(cfg.g)
    return SdmDesign.from_b(cfg.b)


def execute(cfg: RunConfig) -> tuple[Report, int]:
    """Dispatch a validated config; returns the report and the exit code."""
    design = _design(cfg)
    inputs = {"b": list(design.b), "n": design.n}
    if design.g is not None:
        inputs["g"] = list(design.g)
    code = 0

    if cfg.command == "bounds":
        from .boundary import classify_intervals

        payload: object = classify_intervals(design.b, design.n)
    elif cfg.command == "check":
        from .winding import characteristic_points, count_inside_e1

        inputs["i_abs"] = cfg.i_abs
        f = char_poly(design.b, design.n, cfg.i_abs)
        payload = replace(count_inside_e1(f), points=characteristic_points(f))
        if payload.marginal:
            code = 1
    elif cfg.command == "contour":
        from .winding import contour_table

        inputs["i_abs"] = cfg.i_abs
        inputs["samples"] = cfg.samples
        payload = contour_table(char_poly(design.b, design.n, cfg.i_abs), cfg.samples)
    elif cfg.command == "from-g":
        payload = {
            "n": design.n,
            "g": list(design.g),
            "b": list(design.b),
            "ntf_leading_terms": ntf_series(design.b, design.n, 8),
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
        g = design.g if design.g is not None else g_from_b(design.b)
        inputs["g"] = list(g)
        if _check_count(cfg.trace_len, "trace_len", minimum=0) > 0:
            _, states = trace_run(g, signal, min(cfg.trace_len, cfg.samples), cfg.threshold)
            payload = states
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
        g = design.g if design.g is not None else g_from_b(design.b)
        inputs["g"] = list(g)
        payload = sweep(g, cfg.amp_lo, cfg.amp_hi, cfg.amp_steps, cfg.samples, cfg.threshold)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown command {cfg.command!r}")
    return Report(command=cfg.command, inputs=inputs, payload=payload), code


def _payload_dict(payload) -> object:
    if _is(payload, "boundary", "StabilityReport"):
        from .boundary import report_to_dict

        return report_to_dict(payload)
    if _is(payload, "winding", "RootCountResult"):
        d = {
            "inside": payload.inside,
            "method": payload.method,
            "marginal": payload.marginal,
            "winding": payload.winding,
        }
        if payload.points is not None:
            d["points"] = {
                "w_plus": payload.points.w_plus,
                "w_minus": payload.points.w_minus,
                "selfx": [{"x": p.x, "re_w": p.re_w} for p in payload.points.selfx],
            }
        return d
    return asdict(payload)


def _text_lines(payload) -> list[str]:
    if _is(payload, "boundary", "StabilityReport"):
        lines = [f"sum_b: {payload.sum_b!r}", f"a_min: {payload.a_min!r}"]
        for c in payload.candidates:
            lines.append(
                f"candidate: a={c.a!r} x={c.x!r} valid={c.valid} source={c.source}"
            )
        for iv in payload.intervals:
            verdict = "stable" if iv.stable else "unstable"
            lines.append(
                f"interval: ({iv.lo!r}, {iv.hi!r}) {verdict} "
                f"witness_a={iv.witness_a!r} witness_count={iv.witness_count}"
            )
        return lines
    if _is(payload, "winding", "RootCountResult"):
        lines = [
            f"inside: {payload.inside}",
            f"method: {payload.method}",
            f"marginal: {payload.marginal}",
        ]
        if payload.winding is not None:
            lines.append(f"winding: {payload.winding}")
        if payload.points is not None:
            lines.append(f"w_plus: {payload.points.w_plus!r}")
            lines.append(f"w_minus: {payload.points.w_minus!r}")
            for p in payload.points.selfx:
                lines.append(f"selfx: x={p.x!r} re_w={p.re_w!r}")
        return lines
    if _is(payload, "simulator", "SimResult"):
        return [
            f"diverged: {payload.diverged}",
            f"first_divergence_sample: {payload.first_divergence_sample}",
            f"max_abs_state: {payload.max_abs_state!r}",
            f"mean_v: {payload.mean_v!r}",
            f"samples_run: {payload.samples_run}",
            f"peak_sample: {payload.peak_sample}",
        ]
    if _is(payload, "simulator", "WindowReport"):
        lines = []
        for p in payload.grid:
            lines.append(
                f"grid: amplitude={p.amplitude!r} stable={p.stable} "
                f"max_abs_state={p.max_abs_state!r} "
                f"first_divergence_sample={p.first_divergence_sample}"
            )
        for w in payload.windows:
            lines.append(f"window: [{w.lo!r}, {w.hi!r}]")
        if not payload.windows:
            lines.append("window: none")
        return lines
    if isinstance(payload, dict):
        return [f"{k}: {v!r}" for k, v in payload.items()]
    if isinstance(payload, list) and payload and hasattr(payload[0], "s"):
        return [
            f"state: k={st.k} s={list(st.s)!r} v={st.v!r}" for st in payload
        ]
    if isinstance(payload, list):
        return [",".join(repr(x) for x in row) for row in payload]
    return [repr(payload)]


def _csv_text(payload) -> str:
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    if isinstance(payload, list) and (not payload or isinstance(payload[0], tuple)):
        rows = ["phi,re_w,im_w"]
        rows += [",".join(cell(v) for v in row) for row in payload]
        return "\n".join(rows) + "\n"
    if _is(payload, "simulator", "WindowReport"):
        rows = ["amplitude,stable,max_abs_state,first_divergence_sample"]
        for p in payload.grid:
            rows.append(
                ",".join(
                    cell(v)
                    for v in (p.amplitude, p.stable, p.max_abs_state, p.first_divergence_sample)
                )
            )
        return "\n".join(rows) + "\n"
    if isinstance(payload, list) and payload and hasattr(payload[0], "s"):
        n = len(payload[0].s)
        rows = ["k," + ",".join(f"s{j+1}" for j in range(n)) + ",v"]
        for st in payload:
            rows.append(",".join([str(st.k)] + [repr(v) for v in st.s] + [repr(st.v)]))
        return "\n".join(rows) + "\n"
    raise ValueError("csv output is only defined for contour, sweep and trace data")


def render(report: Report, fmt: str) -> str:
    """Deterministic serialization of a report in the requested format."""
    if fmt == "json":
        import json

        doc = {
            "command": report.command,
            "inputs": report.inputs,
            "version": report.version,
            "result": _payload_dict(report.payload),
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text(report.payload)
    lines = [f"command: {report.command}"]
    lines += [f"input {k}: {v}" for k, v in report.inputs.items()]
    lines += _text_lines(report.payload)
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
        if _is(exc, "boundary", "DegenerateBoundaryError"):
            print(f"analysis refused: {exc}", file=sys.stderr)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
