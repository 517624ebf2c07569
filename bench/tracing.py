"""Spans around siegelkit's public functions, recorded from outside.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever a siegelkit module imported the function,
so calls between modules (``from .exact_linalg import ...``) and calls
inside a module (through its globals) are both timed. Only the traced
run installs it; the untraced run never imports this module.

A span is ``(id, parent, op, name, start, end, raised, value)``; spans
are kept in memory and written out when the run ends. Self time is a
span's duration minus the durations of its direct children, which nest
because the benchmark is single-threaded.
"""

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = (
    "exact_linalg",
    "symplectic_lattices",
    "siegel_group",
    "local_systems",
    "uduality",
    "polarization",
    "field_calculus",
    "jsonio",
    "cli",
)
ALIASES = {
    "exact_linalg.smith_normal_form": "exact_linalg.snf",
    "exact_linalg.rational_solve_many": "exact_linalg.rational_solve",
}
# The single right-hand-side wrapper makes exactly one call to
# rational_solve_many, which is timed as exact_linalg.rational_solve.
SKIP = {"exact_linalg.rational_solve"}
ENUMERATIONS = {"uduality.centralizer_enumerate", "uduality.uduality_fiber_product"}
ROOT_SPAN = "bench.op"


def _max_bits(matrices):
    return max(
        (abs(x).bit_length() for m in matrices for i in range(m.rows) for x in m.row(i)),
        default=0,
    )


MEASURES = {
    "exact_linalg.snf": lambda snf: _max_bits((snf.U, snf.V)),
    "uduality.commutant_lattice": _max_bits,
    "uduality.centralizer_enumerate": len,
    "uduality.uduality_fiber_product": len,
}


class Tracer:
    """Records spans while an operation is active; passes calls through otherwise."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer._op, name, start, end, True, None))
                raise
            end = time.perf_counter()
            tracer._stack.pop()
            value = measure(result) if measure is not None else None
            tracer.spans.append((sid, parent, tracer._op, name, start, end, False, value))
            return result

        return wrapper

    def run(self, op_id, call):
        """Call ``call()`` as operation ``op_id`` under a root span."""
        self._op = op_id
        try:
            return self._wrap(ROOT_SPAN, call)()
        finally:
            self._op = None

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("siegelkit." + layer)
            for attr, fn in vars(mod).items():
                full = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or full in SKIP
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(ALIASES.get(full, full), fn))
        matrix = importlib.import_module("siegelkit.exact_linalg").IntegerMatrix
        self._patch(matrix, "__init__", self._wrap("exact_linalg.matrix_new", matrix.__init__))
        mul = self._wrap("exact_linalg.matmul", matrix.__mul__)
        self._patch(matrix, "__mul__", mul)
        self._patch(matrix, "__rmul__", mul)
        for modname, mod in list(sys.modules.items()):
            if modname != "siegelkit" and not modname.startswith("siegelkit."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\traised\tvalue\n")
            for s in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in s) + "\n")


def derive(spans):
    """Counts, self times and enumeration ratios from a list of spans."""
    child_time = defaultdict(float)
    by_id = {}
    for s in spans:
        sid, parent, _, name, start, end, _, _ = s
        by_id[sid] = s
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    enum_time = 0.0
    for sid, parent, _, name, start, end, raised, value in spans:
        self_s = end - start - child_time[sid]
        if name == ROOT_SPAN:
            out["bench.remainder_s"] += self_s
            out["trace.phase_s"] += end - start
            continue
        module = name.split(".")[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{module}.calls"] += 1
        out[f"{module}.self_s"] += self_s
        out[f"{module}.raised"] += raised
        if name == "exact_linalg.snf":
            out["exact_linalg.snf.max_bits"] = max(out["exact_linalg.snf.max_bits"], value or 0)
        if name == "uduality.commutant_lattice":
            out["uduality.commutant_max_bits"] = max(out["uduality.commutant_max_bits"], value or 0)
        if name in ENUMERATIONS:
            out["uduality.enumerate.self_s"] += self_s
            out["uduality.accepted"] += value or 0
            enum_time += end - start
        if name == "symplectic_lattices.sp_type_membership" and _under(by_id, parent, ENUMERATIONS):
            out["uduality.membership_checks"] += 1
    checks = out["uduality.membership_checks"]
    out["uduality.accept_ratio"] = out["uduality.accepted"] / checks if checks else 0.0
    out["uduality.points_per_s"] = checks / enum_time if enum_time else 0.0
    return dict(out)


def _under(by_id, sid, names):
    while sid is not None:
        s = by_id[sid]
        if s[3] in names:
            return True
        sid = s[1]
    return False


def jsonio_per_request_us(spans, prefix, ops):
    """Median over ``ops`` of the time in outermost ``jsonio.<prefix>*`` spans."""
    by_id = {s[0]: s for s in spans}
    per_op = defaultdict(float)
    for sid, parent, op, name, start, end, _, _ in spans:
        if not name.startswith("jsonio." + prefix):
            continue
        if parent is not None and by_id[parent][3].startswith("jsonio."):
            continue
        per_op[op] += end - start
    return statistics.median(per_op[op] for op in ops) * 1e6
