"""Per-layer tracing from outside grskit.

Tracer.install() replaces each traced public function by a wrapper at
every name under which a grskit module looks it up (linalg.echelonize as
grsid reads it, is_mds as imported into constructions, and so on).  A
wrapper records one span: name, start, end and the span that was open
when it was called.  The public Field arithmetic methods get a counter
each instead, since a span per field operation would cost more than the
operation.  Spans stay in memory until write_spans() at the end of the
pass.  A span's self time is its duration minus the durations of its
direct children; spans nest, since nothing in grskit runs concurrently.
"""

from __future__ import annotations

import random
import sys
import time
from array import array

# module -> traced public functions
TRACED = {
    "linalg": ("echelonize", "rref", "det", "matmul", "right_kernel"),
    "codes": ("is_mds", "min_distance", "grs_generator", "dual", "puncture",
              "shorten", "parse_matrix_file", "format_matrix_file"),
    "families": ("mgrs_generator", "emgrs_generator", "c_code_generator",
                 "d_code_generator", "tgrs_generator", "roth_lempel_generator",
                 "col_twisted_generator"),
    "grsid": ("is_grs", "recover", "cauchy_test"),
    "constructions": ("table1", "ngrs_q2_3", "char2_k4", "plus_modified",
                      "tgrs_punctured", "odd_k3", "star_modified"),
    "cli": ("main",),
}
GF_METHODS = ("mul", "add", "sub", "neg", "inv", "pow")
# microbenchmark fields, one per kind, with grskit's default modulus
GF_BENCH_FIELDS = {"prime": (257, 1), "char2": (2, 8), "oddext": (3, 5)}
GF_BENCH_OPS = 2000
GF_BENCH_REPEATS = 5


def span_name(module, fn):
    # every family builder is one layer operation, and so is every builder
    # of a length-table record
    if module == "families":
        return "families.build"
    if module == "constructions" and fn != "table1":
        return "constructions.build"
    return f"{module}.{fn}"


class Tracer:
    def __init__(self, grskit):
        self.grskit = grskit
        self.names = []          # span name id -> name
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.tags = {}           # span index -> verdict (is_grs) or record count (table1)
        self.stack = [-1]
        self.gf_calls = dict.fromkeys(GF_METHODS, 0)
        self._undo = []

    # -- wrappers --

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        tag = {"grsid.is_grs": lambda r: r.grs,
               "constructions.table1": lambda r: len(r.records)}.get(name)
        stack, names, parents = self.stack, self.span_name, self.span_parent
        starts, ends, tags, clock = self.span_start, self.span_end, self.tags, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tag is not None:
                tags[idx] = tag(result)
            return result

        return wrapper

    def _counted(self, method, name):
        calls = self.gf_calls

        def counted(self_, *args):
            calls[name] += 1
            return method(self_, *args)

        return counted

    def install(self):
        gk = self.grskit
        wrappers = {}
        for mod, fns in TRACED.items():
            module = getattr(gk, mod)
            for fn in fns:
                orig = getattr(module, fn)
                wrappers[id(orig)] = (orig, self._wrap(orig, span_name(mod, fn)))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "grskit" or modname.startswith("grskit.")):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, val))
        field_cls = gk.gf.Field
        for name in GF_METHODS:
            orig = field_cls.__dict__[name]
            setattr(field_cls, name, self._counted(orig, name))
            self._undo.append((field_cls, name, orig))

    def uninstall(self):
        for obj, attr, val in reversed(self._undo):
            setattr(obj, attr, val)
        self._undo.clear()

    # -- gf microbenchmark --

    def gf_microbench(self, seed):
        """Nanoseconds per call of Field.mul/add/inv on seeded nonzero
        operands, the least of a few repeats, for one field of each kind."""
        rng = random.Random(f"gf:{seed}")
        out = {}
        for kind, (p, s) in GF_BENCH_FIELDS.items():
            F = self.grskit.gf.Field(p, s)
            xs = [rng.randrange(1, F.q) for _ in range(GF_BENCH_OPS)]
            ys = [rng.randrange(1, F.q) for _ in range(GF_BENCH_OPS)]
            for op in ("mul", "add", "inv"):
                fn = getattr(F, op)
                best = float("inf")
                for _ in range(GF_BENCH_REPEATS):
                    t0 = time.perf_counter()
                    if op == "inv":
                        for x in xs:
                            fn(x)
                    else:
                        for x, y in zip(xs, ys):
                            fn(x, y)
                    best = min(best, time.perf_counter() - t0)
                out[f"gf.{op}_ns.{kind}"] = best / GF_BENCH_OPS * 1e9
        return out

    # -- aggregation --

    def _ancestor(self, idx, nid):
        parents, names = self.span_parent, self.span_name
        idx = parents[idx]
        while idx >= 0:
            if names[idx] == nid:
                return idx
            idx = parents[idx]
        return -1

    def metrics(self):
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]

        def nid(name):
            return self.name_ids.get(name, -2)

        def nested(inner, outer):
            return sum(1 for i in range(n) if self.span_name[i] == nid(inner)
                       and self._ancestor(i, nid(outer)) >= 0)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                name = span_name(mod, fn)
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in GF_METHODS:
            out[f"gf.{name}.calls"] = self.gf_calls[name]
        is_grs = nid("grsid.is_grs")
        out["codes.is_mds.det_per_call"] = ratio(nested("linalg.det", "codes.is_mds"),
                                                 calls.get("codes.is_mds", 0))
        out["grsid.is_grs.eliminations_per_verdict"] = ratio(
            nested("linalg.echelonize", "grsid.is_grs"), calls.get("grsid.is_grs", 0))
        out["grsid.is_grs.grs_s"] = sum(dur[i] for i in range(n)
                                        if self.span_name[i] == is_grs and self.tags.get(i))
        out["grsid.is_grs.nongrs_s"] = sum(dur[i] for i in range(n)
                                           if self.span_name[i] == is_grs
                                           and self.tags.get(i) is False)
        # records come from table1 calls and from builders called alone
        table, build = nid("constructions.table1"), nid("constructions.build")
        alone = [i for i in range(n) if self.span_name[i] == build
                 and self._ancestor(i, table) < 0
                 and self._ancestor(i, build) < 0]
        records = sum(self.tags[i] for i in range(n) if self.span_name[i] == table) + len(alone)
        out["constructions.records"] = records
        out["constructions.record_s"] = ratio(
            sum(dur[i] for i in range(n) if self.span_name[i] == table)
            + sum(dur[i] for i in alone), records)
        return out

    def write_spans(self, path):
        """One line per span: index, name, parent index, start and end (s)."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
