"""numpy stays off the analytic and simulation path: ``import sdmstab.cli``
and every command but ``contour`` run without loading it, while the oracles
that need it import it themselves when first called.  Each check runs in a
fresh interpreter, since this test process has numpy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

CLI_ARGVS = [
    ["bounds", "--b=3,-3,1"],
    ["bounds", "--b=1,0.5,0.2,0.1,0.05", "--format", "json"],
    ["bounds", "--b=1e300,-1e300,1e300"],  # a marginal witness probe
    ["check", "--b=3,-3,1", "--i-abs=1.5"],
    ["from-g", "--g=1,3,3"],
    ["simulate", "--g=1,3,3", "--dc=0.05", "--samples", "2000"],
    ["simulate", "--b=3,-3,1", "--sine-amp=0.3", "--sine-period=64", "--samples", "200",
     "--trace-len", "16", "--format", "csv"],
    ["sweep", "--g=0.1,0.5,1", "--amp-lo", "0", "--amp-hi=0.0999", "--amp-steps", "8",
     "--samples", "500"],
    ["sweep", "--g=0.1,0.5,1", "--amp-lo", "0", "--amp-hi=0.0999", "--amp-steps", "8",
     "--samples", "500", "--format", "csv"],
]

CLI_SCRIPT = """
import contextlib, io, json, sys
import sdmstab.cli as cli
assert "numpy" not in sys.modules, "import sdmstab.cli loaded numpy"
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    assert "numpy" not in sys.modules, argv
"""


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_commands_never_import_numpy():
    proc = python(CLI_SCRIPT, json.dumps(CLI_ARGVS))
    assert proc.returncode == 0, proc.stderr


ORACLES = {
    "winding_oracle": "from sdmstab import winding_oracle; assert winding_oracle(F) == 0",
    "count_inside_eig": "from sdmstab import count_inside_eig; assert count_inside_eig(F).inside == 3",
    "crossing_param": "from sdmstab import crossing_param; "
    "assert abs(crossing_param((3.0, -3.0, 1.0), 3)[0].a - 2.0) < 1e-9",
    "contour_table": "from sdmstab import contour_table; assert len(contour_table(F, 8)) == 8",
}


@pytest.mark.parametrize("call", ORACLES.values(), ids=ORACLES.keys())
def test_oracle_works_when_called_first(call):
    # F(z; 1.5) of the worked order-3 design has all three roots inside.
    code = f"from sdmstab import char_poly\nF = char_poly((3.0, -3.0, 1.0), 3, 1.5)\n{call}"
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
