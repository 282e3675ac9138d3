"""Spans and counters recorded from outside the library.

`Tracer.install()` wraps the public functions of every periodforms module
(and the constructors, `__call__` and public methods of its classes) and
rebinds each wrapped name in every periodforms module that imported it, so
internal calls are seen too.  `sympy.groebner` and `numpy.roots` are wrapped
when those packages are first imported, so a workload that never imports
them pays nothing.  Gaussian and quadratic values are counted, not timed.

A span is (name id, start, end, parent index, op id, raised).  Spans stay
in memory; `write()` saves them at the end and `layer_metrics()` derives
self times: a span's duration minus the time its child spans cover.
"""

import gzip
import importlib
import importlib.abc
import importlib.util
import inspect
import sys
from time import perf_counter

LAYERS = (
    "exact", "intlinalg", "polynomials", "symplectic_lattice", "realizability",
    "covers", "curve_algebra", "jsonio", "cli",
)
EXTERNAL = {"sympy": ("groebner",), "numpy": ("roots",)}

# Trivial accessors called inside every inner loop; their cost stays in
# the caller's self time rather than drowning the trace in spans.
SKIP = {
    "coefficient", "is_zero", "leading_coefficient", "is_rational", "to_pair",
    "to_list", "is_standard", "is_zero_vec", "dot", "vec_add", "vec_sub", "vec_scale",
}
# Private names that the cli metrics need as span boundaries.
CLI_PRIVATE = ("_read_payload", "_emit")
# Exact scalars are counted, not timed: every arithmetic result and every
# parsed input is one constructor call.
COUNTED = {"GaussianRational": "__init__", "QuadraticNumber": "__init__"}
ELIM = ("rational_rank", "rational_kernel", "rational_solve", "rational_det")
HNF = ("row_hnf", "row_hnf_transform", "hnf_rows_nonzero")


def _max_bits(rows):
    best = 0
    for row in rows:
        for x in row:
            b = abs(x).bit_length()
            if b > best:
                best = b
    return best


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Times the first import of each external package under a span named
    <package>.import, then wraps the package's traced functions."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        if name not in EXTERNAL:
            return None
        sys.meta_path.remove(self)
        try:
            spec = importlib.util.find_spec(name)
        finally:
            sys.meta_path.insert(0, self)
        if spec is None or spec.loader is None:
            return spec
        run = self.tracer.span(name + ".import", spec.loader.exec_module)

        def exec_module(module):
            run(module)
            self.tracer.patch_external(module)

        spec.loader.exec_module = exec_module
        return spec


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.op = -1
        self.names = []
        self.counts = {}
        self.hnf_max_bits = 0
        self.witnesses = 0
        self.pairs = 0
        self._undo = []
        self._finder = None
        self._op_spans = {}

    # -- recording ---------------------------------------------------------

    def _sid(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name, fn, observe=None):
        sid = self._sid(name)
        spans, stack, clock, tracer = self.spans, self.stack, perf_counter, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent, tracer.op, raised)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key, fn):
        cell = self.counts.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id, kind, call):
        """Runs one benchmark op under a root span named bench.<kind>."""
        runner = self._op_spans.get(kind)
        if runner is None:
            runner = self._op_spans[kind] = self.span("bench." + kind, lambda fn: fn())
        self.op = op_id
        return runner(call)

    # -- installation ------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _observe_hnf(self, args, result):
        bits = max(_max_bits(args[0]), _max_bits(result[0]), _max_bits(result[1]))
        if bits > self.hnf_max_bits:
            self.hnf_max_bits = bits

    def _observe_pair(self, args, verdict):
        self.pairs += 1
        if verdict.witness is not None:
            self.witnesses += 1

    def install(self):
        modules = {layer: importlib.import_module("periodforms." + layer) for layer in LAYERS}
        observers = {
            "intlinalg.row_hnf_transform": self._observe_hnf,
            "realizability.is_realizable_elliptic_pair": self._observe_pair,
        }
        rebind = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if name in SKIP or (name.startswith("_") and not (layer == "cli" and name in CLI_PRIVATE)):
                        continue
                    key = "%s.%s" % (layer, name)
                    rebind[obj] = self.span(key, obj, observers.get(key))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "periodforms" or mod_name.startswith("periodforms."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in rebind:
                        self._set(module, name, rebind[obj])
        for pkg in EXTERNAL:
            if pkg in sys.modules:
                self.patch_external(sys.modules[pkg])
        self._finder = _PatchOnImport(self)
        sys.meta_path.insert(0, self._finder)

    def _wrap_class(self, layer, cls):
        counted = COUNTED.get(cls.__name__)
        for name, attr in list(vars(cls).items()):
            if counted is not None:
                if name == counted:
                    self._set(cls, name, self.counter("%s.%s" % (layer, cls.__name__), attr))
                continue
            if name in SKIP or (name.startswith("_") and name not in ("__init__", "__call__")):
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self.span(key, attr.__func__)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self.span(key, attr))

    def patch_external(self, module):
        for name in EXTERNAL[module.__name__]:
            self._set(module, name, self.span("%s.%s" % (module.__name__, name), getattr(module, name)))

    def uninstall(self):
        if self._finder is not None:
            sys.meta_path.remove(self._finder)
            self._finder = None
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """(per-name self seconds, per-name calls, per-name raised count)."""
        covered = [0.0] * len(self.spans)
        for sid, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_s, calls, raised = {}, {}, {}
        for i, (sid, t0, t1, _, _, err) in enumerate(self.spans):
            name = self.names[sid]
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - covered[i]
            calls[name] = calls.get(name, 0) + 1
            if err:
                raised[name] = raised.get(name, 0) + 1
        return self_s, calls, raised

    def summary(self):
        """Plain-data totals, mergeable across processes."""
        self_s, calls, raised = self.self_times()
        return {
            "self_s": self_s,
            "calls": calls,
            "raised": raised,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "hnf_max_bits": self.hnf_max_bits,
            "witnesses": self.witnesses,
            "pairs": self.pairs,
        }

    def rows(self):
        return [(self.names[s[0]],) + s[1:] for s in self.spans]


def write_spans(path, header, rows):
    """Saves spans as gzipped CSV; parents index rows of the same op."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("# %s\n# name,start_s,end_s,parent,op,raised\n" % header)
        for name, t0, t1, parent, op, raised in rows:
            out.write("%s,%.9f,%.9f,%d,%d,%d\n" % (name, t0, t1, parent, op, raised))


def merge(summaries):
    out = {"self_s": {}, "calls": {}, "raised": {}, "counts": {}, "hnf_max_bits": 0,
           "witnesses": 0, "pairs": 0}
    for s in summaries:
        for field in ("self_s", "calls", "raised", "counts"):
            for k, v in s[field].items():
                out[field][k] = out[field].get(k, 0) + v
        out["hnf_max_bits"] = max(out["hnf_max_bits"], s["hnf_max_bits"])
        out["witnesses"] += s["witnesses"]
        out["pairs"] += s["pairs"]
    return out


def _sum(table, names):
    return sum(table.get(n, 0) for n in names)


def layer_metrics(s):
    """The per-layer metrics named in BENCHMARK.json, from a summary."""
    self_s, calls, raised, counts = s["self_s"], s["calls"], s["raised"], s["counts"]
    layer_self = {}
    for name, value in self_s.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + value
    sl, il, ca = "symplectic_lattice.", "intlinalg.", "curve_algebra."
    inits = calls.get(ca + "PlaneQuartic.__init__", 0)
    rejects = raised.get(ca + "PlaneQuartic.__init__", 0)
    quartic_init_s = self_s.get(ca + "PlaneQuartic.__init__", 0.0)
    m = {
        sl + "sp_validations": calls.get(sl + "SpMatrix.__init__", 0),
        sl + "sp_validate_s": self_s.get(sl + "SpMatrix.__init__", 0.0),
        sl + "sublattice_init_s": self_s.get(sl + "Sublattice.__init__", 0.0),
        sl + "map_s": _sum(self_s, [sl + "map_rank2_sublattice", sl + "map_rank4_sublattice"]),
        sl + "saturate_s": self_s.get(sl + "saturate", 0.0),
        sl + "det_s": self_s.get(sl + "determinant", 0.0),
        sl + "normal_form_s": self_s.get(sl + "alternating_normal_form", 0.0),
        il + "hnf_calls": calls.get(il + "row_hnf_transform", 0),
        il + "hnf_s": _sum(self_s, [il + n for n in HNF]),
        il + "hnf_max_bits": s["hnf_max_bits"],
        il + "mat_mul_calls": calls.get(il + "mat_mul", 0),
        il + "mat_mul_s": self_s.get(il + "mat_mul", 0.0),
        il + "pfaffian_calls": calls.get(il + "pfaffian", 0),
        il + "pfaffian_s": self_s.get(il + "pfaffian", 0.0),
        il + "rational_elim_calls": _sum(calls, [il + n for n in ELIM]),
        il + "rational_elim_s": _sum(self_s, [il + n for n in ELIM]),
        "realizability.line_s": self_s.get("realizability.is_realizable_line", 0.0),
        "realizability.pair_s": self_s.get("realizability.is_realizable_elliptic_pair", 0.0),
        "realizability.witness_ratio": s["witnesses"] / s["pairs"] if s["pairs"] else 0.0,
        "covers.certificates": calls.get("covers.construct_cover", 0),
        "covers.s": layer_self.get("covers", 0.0),
        "exact.gaussian_ops": counts.get("exact.GaussianRational", 0),
        "exact.quadratic_ops": counts.get("exact.QuadraticNumber", 0),
        "polynomials.rational_roots_calls": calls.get("polynomials.Polynomial.rational_roots", 0),
        "polynomials.rational_roots_s": self_s.get("polynomials.Polynomial.rational_roots", 0.0),
        "polynomials.ternary_eval_s": self_s.get("polynomials.TernaryForm.__call__", 0.0),
        ca + "quartic_inits": inits,
        ca + "quartic_rejects": rejects,
        ca + "quartic_accept_ratio": (inits - rejects) / inits if inits else 0.0,
        ca + "quartic_init_s": quartic_init_s,
        ca + "query_s": layer_self.get("curve_algebra", 0.0) - quartic_init_s,
        "sympy.groebner_calls": calls.get("sympy.groebner", 0),
        "sympy.groebner_s": self_s.get("sympy.groebner", 0.0),
        "numpy.roots_s": self_s.get("numpy.roots", 0.0),
        "sympy.import_s": self_s.get("sympy.import", 0.0),
        "numpy.import_s": self_s.get("numpy.import", 0.0),
    }
    for layer in LAYERS:
        if layer != "covers":
            m[layer + ".self_s"] = layer_self.get(layer, 0.0)
    return {k: float(v) if k.endswith(("_s", ".s")) else v for k, v in m.items()}
