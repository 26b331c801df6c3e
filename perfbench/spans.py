"""In-memory span tracer that wraps the package's public functions.

``Tracer.install`` rebinds each traced function in every ``sdmstab`` module
namespace that holds it (so ``boundary.count_inside_e1`` and
``cli.classify_intervals`` are caught as well as the defining module), and
``remove`` restores the originals.  A function the package no longer has is
listed in ``absent`` instead of failing the run.

A span is (op, name, start, end, parent); spans live in flat arrays until
``write`` dumps them.  Self time is a span's duration minus the time of its
direct child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs wrapped in the traced pass.
TRACED = (
    ("polynomial", "real_roots_open"),
    ("polynomial", "all_roots"),
    ("polynomial", "cheb_expand"),
    ("transfer", "char_poly"),
    ("winding", "count_inside_e1"),
    ("winding", "characteristic_points"),
    ("winding", "winding_oracle"),
    ("winding", "count_inside_eig"),
    ("boundary", "classify_intervals"),
    ("boundary", "zero_point_candidates"),
    ("boundary", "crossing_param"),
    ("simulator", "run"),
    ("simulator", "sweep"),
    ("cli", "parse"),
    ("cli", "execute"),
    ("cli", "render"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.op = array("l")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.poly_allocs = 0
        self.candidates = [0, 0]  # [valid, all] zero-point candidates returned
        self.runs: list[tuple] = []  # (order, kind, samples_run, diverged, ns)
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._op = -1
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        sid = len(self.start)
        self.op.append(self._op)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        frame = [sid, 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            dur = t1 - t0
            self.start[sid] = t0
            self.end[sid] = t1
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def op_span(self, name: str, fn, *args):
        """A root span for one operation; its spans share the op number."""
        self._op += 1
        return self.span(name, fn, *args)

    # --- installing wrappers ---------------------------------------------

    def _wrap(self, name: str, fn):
        observe = {
            "boundary.zero_point_candidates": self._observe_candidates,
            "boundary.crossing_param": self._observe_candidates,
            "simulator.run": self._observe_run,
        }.get(name)
        span = self.span

        if observe is None:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter_ns()
                out = span(name, fn, *args, **kwargs)
                observe(args, out, time.perf_counter_ns() - t0)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_candidates(self, args, out, ns):
        self.candidates[0] += sum(1 for c in out if c.valid)
        self.candidates[1] += len(out)

    def _observe_run(self, args, out, ns):
        kind = "sine" if type(args[1]).__name__ == "SineInput" else "dc"
        self.runs.append((len(args[0]), kind, out.samples_run, out.diverged, ns))

    def install(self) -> None:
        self.absent = []
        modules = [m for k, m in sys.modules.items() if k == "sdmstab" or k.startswith("sdmstab.")]
        for mod_name, fn_name in TRACED:
            owner = sys.modules.get(f"sdmstab.{mod_name}")
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))
        poly = getattr(sys.modules.get("sdmstab.polynomial"), "Poly", None)
        if poly is None:
            self.absent.append("polynomial.Poly")
            return
        init = poly.__init__

        def counting_init(obj, *args, **kwargs):
            self.poly_allocs += 1
            init(obj, *args, **kwargs)

        poly.__init__ = counting_init
        self._undo.append((poly, "__init__", init))

    def remove(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # --- reading spans ---------------------------------------------------

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` that ran with an ``ancestor`` span open."""
        if name not in self._index or ancestor not in self._index:
            return 0
        target, anc = self._index[name], self._index[ancestor]
        count = 0
        for sid, nid in enumerate(self.name):
            if nid != target:
                continue
            p = self.parent[sid]
            while p >= 0 and self.name[p] != anc:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path) -> None:
        """Spans as gzipped CSV: ``op,id,parent,name,start_ns,end_ns``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start_ns,end_ns\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{self.op[sid]},{sid},{self.parent[sid]},{self.names[self.name[sid]]},"
                    f"{self.start[sid]},{self.end[sid]}\n"
                )
