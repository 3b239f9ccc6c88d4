"""One pass: a fresh interpreter that imports grskit and runs every
operation of a workload once.

    python3 grsbench/worker.py <plan.json> <result.json> <mode> <spawned_at>

mode is "setup" (stop after set-up), "pass" (time every operation) or
"trace" (a pass with the tracing wrappers of tracer.py installed, plus the
gf microbenchmark).  spawned_at is the parent's time.monotonic() reading
taken just before it started this process; CLOCK_MONOTONIC is shared by
all processes, so set-up time counts interpreter start-up too.

Set-up is: start the interpreter, import grskit (from the checkout's src
directory and nowhere else) and load the plan's input matrices through
grskit.codes.parse_matrix_file, which builds each file's field, and build
the plan's other fields with grskit.gf.field_new.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_grskit():
    """Import grskit from <checkout>/src; refuse any other copy."""
    sys.path.insert(0, SRC)
    import grskit
    import grskit.cli
    where = os.path.dirname(os.path.abspath(grskit.__file__))
    if where != os.path.join(SRC, "grskit"):
        raise ImportError(f"grskit imported from {where}, not from {SRC}")
    return grskit


def _verdict(v):
    out = {"grs": v.grs, "reason": v.reason, "stage": v.stage}
    if v.grs:
        out["alpha"] = [a if isinstance(a, int) else "inf" for a in v.spec.alpha]
        out["v"] = list(v.spec.v)
        out["k"] = v.spec.k
    return out


def run_op(grskit, op, matrices, fields):
    """Run one operation; return its output for the checks."""
    if "input" in op:
        return _verdict(grskit.grsid.is_grs(matrices[op["input"]]))
    if "record" in op:
        r = op["record"]
        builder = getattr(grskit.constructions, r["builder"])
        rec = builder(fields[r["field"]], *r["args"], **r["kwargs"])
        return {"family": rec.family, "q": rec.q, "k": rec.k, "n": rec.n,
                "mds": rec.mds, "grs": rec.grs_verdict}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = grskit.cli.main(op["argv"])
    return {"rc": rc, "out": buf.getvalue()}


def main(argv):
    plan_path, result_path, mode, spawned_at = argv[1], argv[2], argv[3], float(argv[4])
    grskit = import_grskit()
    tracer, result = None, {}
    if mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(grskit)
    with open(plan_path) as fh:
        plan = json.load(fh)
    if tracer is not None:
        result["gf_ns"] = tracer.gf_microbench(plan["seed"])
        tracer.install()
    matrices = {}
    for name, path in plan["inputs"].items():
        with open(path) as fh:
            matrices[name] = grskit.codes.parse_matrix_file(fh.read())
    fields = {name: grskit.gf.field_new(p, s, mod)
              for name, (p, s, mod) in plan.get("fields", {}).items()}
    setup_s = time.monotonic() - spawned_at
    result.update(setup_s=setup_s, ops=[])
    if mode != "setup":
        for op in plan["ops"]:
            t0 = time.perf_counter()
            try:
                out = run_op(grskit, op, matrices, fields)
                failed = out.get("rc", 0) != 0
            except Exception:  # an operation that raises is counted as failed
                out, failed = {"error": traceback.format_exc()}, True
            dt = time.perf_counter() - t0
            result["ops"].append({"id": op["id"], "s": dt, "failed": failed, "out": out})
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            tracer.write_spans(os.path.join(os.path.dirname(result_path), "trace_spans.tsv"))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
