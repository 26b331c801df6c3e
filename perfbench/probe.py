"""Set-up probe: a fresh interpreter that imports ``sdmstab``, runs one
operation and prints ``done``.  ``run.py`` times it from process start to
that line.  Usage: ``python3 probe.py <workload> <json operation>``.
"""

import json
import sys

workload, op = sys.argv[1], json.loads(sys.argv[2])

import sdmstab  # noqa: E402  (the import is part of what is timed)

if workload == "bounds":
    sdmstab.classify_intervals(op[0], op[1])
elif workload == "check":
    sdmstab.count_inside_e1(sdmstab.char_poly(op[0], op[1], op[2]))
elif workload == "simulate":
    sdmstab.run(op[0], sdmstab.DcInput(op[1]), op[2])
else:
    raise SystemExit(f"no probe for workload {workload!r}")
print("done", flush=True)
