"""numpy is needed only by ``sdmstab.oracles``: with numpy blocked, every
exported name resolves and every command runs.  Each command also loads
only the modules it uses: ``import sdmstab`` loads no submodule, and no
command loads numpy, the oracles, ``dataclasses`` or ``inspect``.  Each
check runs in a fresh interpreter, since this test process has those
modules loaded already."""

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
    ["contour", "--b=3,-3,1", "--i-abs=1.5", "--samples", "16"],
    ["from-g", "--g=1,3,3"],
    ["simulate", "--g=1,3,3", "--dc=0.05", "--samples", "2000"],
    ["simulate", "--b=3,-3,1", "--sine-amp=0.3", "--sine-period=64", "--samples", "200",
     "--trace-len", "16", "--format", "csv"],
    ["sweep", "--g=0.1,0.5,1", "--amp-lo", "0", "--amp-hi=0.0999", "--amp-steps", "8",
     "--samples", "500"],
    ["sweep", "--g=0.1,0.5,1", "--amp-lo", "0", "--amp-hi=0.0999", "--amp-steps", "8",
     "--samples", "500", "--format", "csv"],
]

# numpy is blocked: ``import numpy`` raises ImportError in this interpreter.
CLI_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import sdmstab
for name in sdmstab._EXPORTS:
    getattr(sdmstab, name)
import sdmstab.cli as cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
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


ORACLES = ("all_roots", "winding_oracle", "count_inside_eig", "jury_stable",
           "crossing_param", "bisect_boundary")


def test_oracles_live_only_in_their_module():
    import sdmstab
    import sdmstab.oracles as oracles

    assert all(callable(getattr(oracles, name)) for name in ORACLES)
    assert set(oracles.__all__) == set(ORACLES)
    assert not set(ORACLES) & set(sdmstab._EXPORTS)


ORACLE_CALLS = {
    "winding_oracle": "from sdmstab.oracles import winding_oracle; assert winding_oracle(F) == 0",
    "count_inside_eig": "from sdmstab.oracles import count_inside_eig; "
    "assert count_inside_eig(F).inside == 3",
    "crossing_param": "from sdmstab.oracles import crossing_param; "
    "assert abs(crossing_param((3.0, -3.0, 1.0), 3)[0].a - 2.0) < 1e-9",
    "contour_table": "from sdmstab import contour_table; assert len(contour_table(F, 8)) == 8",
}


@pytest.mark.parametrize("call", ORACLE_CALLS.values(), ids=ORACLE_CALLS.keys())
def test_oracle_works_when_called_first(call):
    # F(z; 1.5) of the worked order-3 design has all three roots inside.
    code = f"from sdmstab import char_poly\nF = char_poly((3.0, -3.0, 1.0), 3, 1.5)\n{call}"
    proc = python(code)
    assert proc.returncode == 0, proc.stderr


# Run one command in a fresh interpreter; print the modules it loaded.
FOOTPRINT_SCRIPT = """
import io, sys
import sdmstab
assert not [m for m in sys.modules if m.startswith("sdmstab.")], "import sdmstab loaded a submodule"
import sdmstab.cli
sys.stdout, stdout = io.StringIO(), sys.stdout
code = sdmstab.cli.main(sys.argv[1:])
sys.stdout = stdout
assert code == 0, code
print("\\n".join(sys.modules))
"""
MODULES = "import sys; print('\\n'.join(sys.modules))"

# The modules each command must never load, besides those in ALWAYS_NEVER.
NEVER = {
    "bounds": {"sdmstab.simulator"},
    "check": {"sdmstab.simulator", "sdmstab.boundary"},
    "contour": {"sdmstab.simulator", "sdmstab.boundary"},
    "from-g": {"sdmstab.simulator", "sdmstab.boundary", "sdmstab.winding"},
    "simulate": {"sdmstab.boundary", "sdmstab.winding"},
    "sweep": {"sdmstab.boundary", "sdmstab.winding"},
}
ALWAYS_NEVER = {"numpy", "sdmstab.oracles", "dataclasses", "inspect"}


@pytest.fixture(scope="module")
def startup():
    """Modules a bare interpreter has loaded (``site`` hooks may add some)."""
    return set(python(MODULES).stdout.split())


def loaded_by(code: str, *args: str) -> set[str]:
    proc = python(code, *args)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("argv", CLI_ARGVS, ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
def test_command_loads_only_what_it_uses(argv, startup):
    loaded = loaded_by(FOOTPRINT_SCRIPT, *argv) - startup
    assert "sdmstab.transfer" in loaded
    assert not loaded & (NEVER[argv[0]] | ALWAYS_NEVER)
    assert ("json" in loaded) == ("json" in argv and "json" not in startup)


def test_cli_import_is_lean(startup):
    loaded = loaded_by(f"import sdmstab.cli; {MODULES}") - startup
    assert not loaded & {"dataclasses", "inspect", "json", "numpy"}
    assert {m for m in loaded if m.startswith("sdmstab.")} == {
        "sdmstab.cli", "sdmstab.transfer", "sdmstab.polynomial"
    }
