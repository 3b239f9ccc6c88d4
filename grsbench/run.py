"""Benchmark entry point for grskit.

    python3 grsbench/run.py --workload {identify,table,verify} --seed N
                            --seconds S --trace {0,1}

Run from the root of a grskit checkout: grskit is imported from ./src.
A run is a sequence of passes.  Each pass is a fresh interpreter
(worker.py) that imports grskit, loads the workload's inputs and runs
every operation once; passes repeat until S seconds have gone by, and at
least MIN_PASSES times.  Between passes, extra interpreters stop after
set-up, so that set-up is sampled often.  One interpreter runs at a time.

--trace 0 prints the end-to-end metrics:
  setup_s      median set-up time over all interpreters of the run
  work_s       sum over operations of each operation's least time
  prime_s, char2_s, oddext_s
               the parts of work_s on GF(p), on GF(2^s) with s > 1 and
               on GF(p^s) with p odd and s > 1
  peak_rss_mb  the largest ru_maxrss of any pass
--trace 1 runs one plain pass and one traced pass and prints the
per-layer metrics: the traced pass's spans and counts (tracer.py), and
the operation time of both passes (trace.plain_work_s, trace.work_s).
Every output is checked (checks.py) and the last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks      # noqa: E402
import selftest    # noqa: E402
import workloads   # noqa: E402

MIN_PASSES = 3
SETUP_ONLY_PER_PASS = 3
SETUP_SAMPLES = 20
KINDS = ("prime", "char2", "oddext")
WORKER_TIMEOUT_S = 150


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def spawn(plan_path, result_path, mode):
    """Run one fresh interpreter to completion and return its result."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path,
         mode, repr(spawned_at)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    with open(result_path) as fh:
        return json.load(fh)


def check_outputs(workload, truth, plan, passes):
    """Check every output of every pass; return failure messages."""
    outs = [{o["id"]: o["out"] for o in p["ops"] if not o["failed"]} for p in passes]
    errors = checks.check_consistent(outs)
    if workload == "identify":
        errors += checks.check_identify(truth, outs[0], plan["inputs"])
    elif workload == "table":
        errors += checks.check_table(truth, outs[0])
    else:
        errors += checks.check_verify(truth, outs[0])
    return errors


def end_to_end(plan, passes, setups):
    best = {}
    for p in passes:
        for o in p["ops"]:
            best[o["id"]] = min(best.get(o["id"], float("inf")), o["s"])
    kind = {op["id"]: op["kind"] for op in plan["ops"]}
    values = {f"{k}_s": sum(s for i, s in best.items() if kind[i] == k) for k in KINDS}
    values.update(setup_s=statistics.median(setups), work_s=sum(best.values()),
                  peak_rss_mb=max(p["maxrss_kb"] for p in passes) / 1024)
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "grskit", "__init__.py")):
        print("error: no grskit sources under ./src", file=sys.stderr)
        return 2
    e2e_specs, layer_specs = metric_specs()
    workdir = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    errors = selftest.run(os.path.join(workdir, "selftest"))
    if errors:
        print("error: the output checks failed their self-test:\n" + "\n".join(errors),
              file=sys.stderr)
        return 1
    plan, truth = workloads.build(args.workload, args.seed, workdir)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    result_path = os.path.join(workdir, "result.json")

    passes, setups = [], []
    if args.trace:
        passes.append(spawn(plan_path, result_path, "pass"))
        passes.append(spawn(plan_path, result_path, "trace"))
        plain, traced = passes
        values = dict(traced["layers"], **traced["gf_ns"])
        values["trace.plain_work_s"] = sum(o["s"] for o in plain["ops"])
        values["trace.work_s"] = sum(o["s"] for o in traced["ops"])
        specs = layer_specs
    else:
        start = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
            for _ in range(min(SETUP_ONLY_PER_PASS, SETUP_SAMPLES - len(setups))):
                setups.append(spawn(plan_path, result_path, "setup")["setup_s"])
            passes.append(spawn(plan_path, result_path, "pass"))
            setups.append(passes[-1]["setup_s"])
        values = end_to_end(plan, passes, setups)
        specs = e2e_specs

    errors = check_outputs(args.workload, truth, plan, passes)
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    for p in passes:
        for o in p["ops"]:
            if o["failed"]:
                print(f"operation failed: {o['id']}: {o['out']}", file=sys.stderr)
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    result = {
        "correct": not errors,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": sum(o["failed"] for p in passes for o in p["ops"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
