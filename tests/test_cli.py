import json
import pathlib
import random

import pytest

from sdmstab.boundary import StabilityReport
from sdmstab.cli import Report, RunConfig, execute, main, parse, render
from sdmstab.simulator import DEFAULT_THRESHOLD, GridPoint, SimResult, Window, WindowReport
from sdmstab.transfer import b_from_g, g_from_b


class TestParse:
    def test_bounds(self):
        cfg = parse(["bounds", "--b", "3,-3,1"])
        assert cfg.command == "bounds"
        assert cfg.b == (3.0, -3.0, 1.0)
        assert cfg.g is None
        assert cfg.format == "text"

    def test_missing_design_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse(["bounds"])
        assert exc.value.code == 2

    def test_check_with_probe(self):
        cfg = parse(["check", "--b", "3,-3,1", "--i-abs", "1.0"])
        assert cfg.command == "check"
        assert cfg.i_abs == 1.0

    def test_mutually_exclusive_design(self):
        with pytest.raises(SystemExit) as exc:
            parse(["bounds", "--b", "1", "--g", "1"])
        assert exc.value.code == 2

    def test_malformed_number(self):
        with pytest.raises(SystemExit) as exc:
            parse(["bounds", "--b", "3,,1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["", ","])
    def test_empty_number_list(self, text, capsys):
        # str.split always yields an item, so an empty list is a malformed one.
        with pytest.raises(SystemExit) as exc:
            parse(["bounds", f"--b={text}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"not a comma-separated number list: {text!r}\n")

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            parse(["bounds", "--b", "1", "--frobnicate"])
        assert exc.value.code == 2

    def test_round_trip_through_argv(self):
        argvs = [
            ["bounds", "--b", "3,-3,1", "--format", "json", "--out", "-"],
            ["check", "--g", "1,3,3", "--i-abs", "1.5", "--format", "text", "--out", "-"],
            ["sweep", "--b", "1", "--amp-lo", "0.0", "--amp-hi", "0.5",
             "--amp-steps", "8", "--samples", "500", "--format", "csv", "--out", "-"],
        ]
        for argv in argvs:
            cfg = parse(argv)
            rebuilt = [cfg.command]
            if cfg.b is not None:
                rebuilt += ["--b", ",".join(repr(v) for v in cfg.b)]
            if cfg.g is not None:
                rebuilt += ["--g", ",".join(repr(v) for v in cfg.g)]
            rebuilt += ["--format", cfg.format, "--out", cfg.out]
            if cfg.command == "check":
                rebuilt += ["--i-abs", repr(cfg.i_abs)]
            if cfg.command == "sweep":
                rebuilt += [
                    "--amp-lo", repr(cfg.amp_lo), "--amp-hi", repr(cfg.amp_hi),
                    "--amp-steps", str(cfg.amp_steps), "--samples", str(cfg.samples),
                ]
            assert parse(rebuilt) == cfg


class TestDefaults:
    def test_omitted_options_take_the_record_defaults(self):
        assert parse(["bounds", "--b=1"]) == RunConfig("bounds", (1.0,))

    def test_threshold_is_the_simulator_default(self):
        for command in ("simulate", "sweep"):
            assert parse([command, "--g=1"]).threshold == DEFAULT_THRESHOLD

    def test_samples_default_per_command(self):
        argvs = {512: ["contour", "--g=1", "--i-abs=1"], 100000: ["simulate", "--g=1"],
                 20000: ["sweep", "--g=1"]}
        for samples, argv in argvs.items():
            assert parse(argv).samples == samples


def golden_cases():
    """``(argv, exit code, stdout)`` for each case of ``cli_golden.txt``."""
    lines = (pathlib.Path(__file__).parent / "cli_golden.txt").read_text().splitlines(True)
    cases, out = [], []
    for line in lines:
        if line.startswith("$ sdmstab "):
            argv, out = line.split()[2:], []
        elif line.startswith("[exit "):
            cases.append(pytest.param(argv, int(line.strip()[6:-1]), "".join(out), id=" ".join(argv)))
        elif not line.startswith("#"):
            out.append(line)
    return cases


@pytest.mark.parametrize("argv,code,stdout", golden_cases())
def test_golden_output(argv, code, stdout, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


def _no_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("argv", [c.values[0] for c in golden_cases() if "--format=json" in c.values[0]],
                         ids=lambda argv: " ".join(argv))
def test_json_output_is_strict(argv, capsys):
    # RFC 8259 has no Infinity or NaN: an interval's inf edge is null.
    assert main(argv) == 0
    json.loads(capsys.readouterr().out, parse_constant=_no_constant)


@pytest.mark.parametrize("g", [(1.0, 3.0, 3.0), (0.5, 0.25, 1.0, -0.125, 2.0)], ids=["order-3", "order-5"])
@pytest.mark.parametrize("argv", [
    ["bounds"],
    ["check", "--i-abs=1.5"],
    ["check", "--i-abs=0"],
    ["contour", "--i-abs=1.5", "--samples=8", "--format=text"],
    ["simulate", "--dc=0.05", "--samples=500"],
    ["sweep", "--amp-hi=0.5", "--amp-steps=4", "--samples=200"],
], ids=lambda a: "-".join(a))
def test_g_prints_what_the_b_it_gives_prints(argv, g, capsys):
    # --g reports g as given, and simulate and sweep with --b report the g
    # they derive: these g round-trip, so only the "input g" lines differ.
    b = b_from_g(g)
    assert g_from_b(b) == g
    runs = []
    for design in ("--g=" + ",".join(map(repr, g)), "--b=" + ",".join(map(repr, b))):
        code = main([argv[0], design, *argv[1:]])
        out, err = capsys.readouterr()
        runs.append((code, [line for line in out.splitlines() if not line.startswith("input g:")], err))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 1) and len(runs[0][1]) > 4


class TestExecute:
    def test_bounds_report(self):
        report, code = execute(parse(["bounds", "--b", "3,-3,1"]))
        assert code == 0
        payload = report.payload
        assert isinstance(payload, StabilityReport)
        assert payload.a_min == 0.875
        valid = [c for c in payload.candidates if c.valid]
        assert len(valid) == 1 and abs(valid[0].a - 2.0) < 1e-9
        stable = [iv for iv in payload.intervals if iv.stable]
        assert len(stable) == 1
        assert stable[0].lo == 0.875

    def test_check_stable_probe(self):
        report, code = execute(parse(["check", "--b", "3,-3,1", "--i-abs", "1.0"]))
        assert code == 0
        assert report.payload.inside == 3
        assert not report.payload.marginal

    def test_check_marginal_refusal(self):
        # at a = i_min the root sits exactly on the circle at z = -1
        report, code = execute(parse(["check", "--b", "1", "--i-abs", "0.5"]))
        assert code == 1
        assert report.payload.marginal

    def test_contour_row_count(self):
        report, code = execute(
            parse(["contour", "--b", "3,-3,1", "--i-abs", "1.5", "--samples", "8"])
        )
        assert code == 0
        assert len(report.payload) == 8

    def test_from_g(self):
        report, code = execute(parse(["from-g", "--g", "1,2,3"]))
        assert code == 0
        assert tuple(report.payload["b"]) == b_from_g((1.0, 2.0, 3.0))

    def test_simulate(self):
        report, code = execute(
            parse(["simulate", "--g", "1", "--dc", "0.25", "--samples", "20000"])
        )
        assert code == 0
        assert isinstance(report.payload, SimResult)
        assert abs(report.payload.mean_v - 0.25) < 1e-2

    def test_sweep(self):
        report, code = execute(
            parse(["sweep", "--g", "1", "--amp-lo", "0", "--amp-hi", "0.5",
                   "--amp-steps", "6", "--samples", "2000"])
        )
        assert code == 0
        assert isinstance(report.payload, WindowReport)
        assert len(report.payload.grid) == 6

    def test_unknown_command(self):
        # execute is public and takes any RunConfig, not only what parse gives.
        with pytest.raises(ValueError, match="^unknown command 'nope'$"):
            execute(RunConfig("nope", b=(1.0,)))


class TestRender:
    def test_empty_window_report_csv_is_header_only(self):
        rep = Report(command="sweep", inputs={}, payload=WindowReport(grid=(), windows=()))
        text = render(rep, "csv")
        assert text == "amplitude,stable,max_abs_state,first_divergence_sample\n"

    def test_window_report_csv_rows(self):
        payload = WindowReport(
            grid=(
                GridPoint(amplitude=0.1, stable=True, max_abs_state=1.5,
                          first_divergence_sample=None),
                GridPoint(amplitude=0.2, stable=False, max_abs_state=2e6,
                          first_divergence_sample=77),
            ),
            windows=(Window(lo=0.2, hi=0.2),),
        )
        text = render(Report(command="sweep", inputs={}, payload=payload), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "amplitude,stable,max_abs_state,first_divergence_sample"
        assert lines[1] == "0.1,true,1.5,"
        assert lines[2] == "0.2,false,2000000.0,77"

    def test_stability_report_json_schema(self):
        report, _ = execute(parse(["bounds", "--b", "3,-3,1", "--format", "json"]))
        doc = json.loads(render(report, "json"))
        res = doc["result"]
        assert set(res) == {"sum_b", "a_min", "candidates", "intervals"}
        assert set(res["candidates"][0]) == {"a", "x", "valid"}
        assert set(res["intervals"][0]) == {
            "lo", "hi", "stable", "witness_a", "witness_count"
        }
        assert res["intervals"][-1]["hi"] is None

    def test_sim_result_text_fields(self):
        report, _ = execute(
            parse(["simulate", "--g", "1", "--dc", "0.0", "--samples", "100"])
        )
        text = render(report, "text")
        for key in ("diverged:", "mean_v:", "samples_run:",
                    "max_abs_state:", "first_divergence_sample:"):
            assert key in text

    def test_sim_result_reports_peak_sample(self):
        argv = ["simulate", "--g=1,3,3", "--sine-amp=0.1", "--sine-period=64", "--samples=2000"]
        report, _ = execute(parse(argv))
        want = report.payload.peak_sample
        assert isinstance(want, int) and 0 <= want < 2000
        assert json.loads(render(report, "json"))["result"]["peak_sample"] == want
        assert f"peak_sample: {want}\n" in render(report, "text")

    def test_root_count_json_key_order(self):
        report, _ = execute(parse(["check", "--b=3,-3,1", "--i-abs=1.5"]))
        res = json.loads(render(report, "json"))["result"]
        assert list(res) == ["inside", "marginal", "winding", "points"]
        assert list(res["points"]) == ["w_plus", "w_minus", "selfx"]
        assert list(res["points"]["selfx"][0]) == ["x", "re_w"]

    def test_json_round_trips_floats(self):
        report, _ = execute(parse(["bounds", "--b", "3,-3,1"]))
        doc = json.loads(render(report, "json"))
        assert doc["result"]["a_min"] == 0.875
        assert doc["result"]["candidates"][0]["a"] == [
            c for c in report.payload.candidates
        ][0].a

    def test_csv_rejected_for_scalar_reports(self):
        report, _ = execute(parse(["bounds", "--b", "3,-3,1"]))
        with pytest.raises(ValueError):
            render(report, "csv")


class TestMain:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bounds", "--b", "3,-3,1", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "bounds"
        assert doc["version"]

    def test_stdout(self, capsys):
        code = main(["check", "--b", "3,-3,1", "--i-abs", "1.0"])
        assert code == 0
        assert "inside: 3" in capsys.readouterr().out

    def test_marginal_exit_code(self, capsys):
        assert main(["check", "--b", "1", "--i-abs", "0.5"]) == 1

    def test_unwritable_output_path(self, capsys):
        code = main(["check", "--b", "3,-3,1", "--i-abs", "1.0",
                     "--out", "/nonexistent-dir/report.txt"])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_degenerate_bounds_still_reports(self, capsys):
        # reciprocal-symmetric design: the probes decide each side of a_min
        assert main(["bounds", "--b", "1,0"]) == 0

    def test_zero_a_min_prints_without_sign(self, capsys):
        assert main(["bounds", "--b=0"]) == 0
        assert "\na_min: 0.0\n" in capsys.readouterr().out
        assert main(["bounds", "--b=1,1", "--format", "json"]) == 0
        assert '"a_min": 0.0,' in capsys.readouterr().out

    def test_zero_candidate_prints_without_sign(self, capsys):
        # A(x) = 0 at the event x = 1/2, so a = A/den is a zero: +0.0, not -0.0.
        assert main(["bounds", "--b=1,1,0,1,1"]) == 0
        assert "\ncandidate: a=0.0 x=0.5 valid=True\n" in capsys.readouterr().out
        assert main(["bounds", "--b=1,1,0,1,1", "--format", "json"]) == 0
        assert '"a": 0.0,\n        "x": 0.5,' in capsys.readouterr().out

    @pytest.mark.parametrize("b, intervals", [
        # a_min = 1e-9: check --i-abs=5e-10 counts no root inside.
        ("2e-9", "interval: (0.0, 1e-09) unstable witness_a=5e-10 witness_count=0\n"
                 "interval: (1e-09, inf) stable witness_a=1.0 witness_count=1\n"),
        # The worked design 3,-3,1 scaled by 1e-10 keeps its stable interval.
        ("3e-10,-3e-10,1e-10",
         "candidate: a=1.9999999999999998e-10 x=0.5 valid=True\n"
         "interval: (0.0, 8.75e-11) unstable witness_a=4.375e-11 witness_count=2\n"
         "interval: (8.75e-11, 1.9999999999999998e-10) stable witness_a=1.4375e-10 witness_count=3\n"
         "interval: (1.9999999999999998e-10, inf) unstable witness_a=1.0 witness_count=1\n"),
    ], ids=["first-order", "worked-times-1e-10"])
    def test_events_below_1e_9_are_edges(self, b, intervals, capsys):
        assert main(["bounds", f"--b={b}"]) == 0
        assert capsys.readouterr().out.endswith(intervals)

    def test_huge_design_writes_no_warnings(self, capsys):
        assert main(["bounds", "--b=1e300,-1e300,1e300"]) == 0
        assert capsys.readouterr().err == ""

    def test_boundary_past_the_float_range_exits_2(self, capsys):
        # An interior event at a ~ 1.0e307: F at the witness past it overflows.
        assert main(["bounds", "--b=2e299,-2.99999999e299,1e299"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the stability boundary overflows the float range for this input\n"

    @pytest.mark.parametrize("argv", [["check", "--b=1"], ["check", "--b=0,1"], ["contour", "--b=1"]],
                             ids=lambda a: "-".join(a))
    def test_constant_design_at_zero_magnitude_exits_2(self, argv, capsys):
        # F(z; 0) = D(z) has degree 0 here: the message names it, not a polynomial never given.
        assert main([*argv, "--i-abs=0"]) == 2
        assert capsys.readouterr() == ("", "error: F(z; 0) = D(z) is constant for this design: give --i-abs > 0\n")

    @pytest.mark.parametrize("x, why", [
        ("-1", "must be nonnegative, got -1.0"),
        ("-1e-300", "must be nonnegative, got -1e-300"),
        ("nan", "must be finite with magnitude <= 1e+300, got nan"),
        ("inf", "must be finite with magnitude <= 1e+300, got inf"),
        ("1.5e300", "must be finite with magnitude <= 1e+300, got 1.5e+300"),
    ])
    def test_check_refuses_a_bad_magnitude(self, x, why, capsys):
        # execute checks a before it counts: the count path itself does not.
        assert main(["check", "--b=3,-3,1", f"--i-abs={x}"]) == 2
        assert capsys.readouterr() == ("", f"error: the integrator magnitude a {why}\n")

    @pytest.mark.parametrize("argv", [["simulate", "--samples=10"], ["from-g"]], ids=lambda a: a[0])
    def test_b_derived_from_g_past_the_cap_names_g(self, argv, capsys):
        # Each g_k is in range, but D(z) = sum g_k*(z-1)**k has a coefficient -5e300.
        assert main([argv[0], "--g=1e300,-1e300,1e300,-1e300,1e300", *argv[1:]]) == 2
        assert capsys.readouterr().err == (
            "error: the b derived from g must be finite with magnitude <= 1e+300, got -5e+300\n"
        )

    @pytest.mark.parametrize("argv, g_k", [(["simulate", "--b=1e300,1e300,1e300,1e300,1e300"], "5e+300"),
                                           (["sweep", "--b=1e300,1e300"], "2e+300")], ids=["simulate", "sweep"])
    def test_g_derived_from_b_past_the_cap_names_b(self, argv, g_k, capsys):
        # Each b_k is in range, but the cascade g the simulator runs has a g_k past the cap.
        assert main([*argv, "--samples=10"]) == 2
        assert capsys.readouterr().err == f"error: the g derived from b must be finite with magnitude <= 1e+300, got {g_k}\n"

    def test_non_finite_simulator_inputs_exit_2(self, capsys):
        for extra in (["--dc", "nan"], ["--dc", "inf"],
                      ["--sine-amp", "inf", "--sine-period", "16"],
                      ["--sine-amp", "0.1", "--sine-period", "nan"]):
            assert main(["simulate", "--g", "1,3,3", "--samples", "10", *extra]) == 2
        assert main(["sweep", "--g", "1", "--amp-lo", "0", "--amp-hi", "inf",
                     "--samples", "10"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_trace_formats(self, capsys):
        code = main(["simulate", "--g", "1,3,3", "--dc", "0.1",
                     "--samples", "100", "--trace-len", "3", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "k,s1,s2,s3,v"
        assert len(lines) == 4
        code = main(["simulate", "--b", "3,-3,1", "--dc", "0.1",
                     "--samples", "50", "--trace-len", "2"])
        assert code == 0
        assert "state: k=0" in capsys.readouterr().out

    def test_contour_csv_stdout(self, capsys):
        # contour defaults to csv: it is plot data
        code = main(["contour", "--b", "3,-3,1", "--i-abs", "1.5",
                     "--samples", "8", "--out", "-"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "phi,re_w,im_w"
        assert len(lines) == 9

    def test_fuzzed_argv_never_crashes(self, capsys):
        rng = random.Random(12345)
        vocab = [
            "bounds", "check", "contour", "from-g", "simulate", "sweep",
            "--b", "--g", "--i-abs", "--samples", "--format", "--out",
            "3,-3,1", "1,2", "x", "-1", "0.5", "json", "csv", "-", "",
            "--amp-lo", "--amp-hi", "--amp-steps", "--threshold",
        ]
        for _ in range(200):
            argv = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            assert code in (0, 1, 2)
        capsys.readouterr()
