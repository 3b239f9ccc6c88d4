"""Write the ROADMAP's end-to-end rows (cli.main, is_grs, table1), its
field arithmetic rows and its min_distance row to a BENCH JSON file.

The cli.main row times `check --kind is-grs` on one small GRS file,
[10,4] over GF(16): the median over --repeat fresh Python processes of
each one's first call, which builds the parser and the field, and the
median of CLI_CALLS later calls in this process, which reuse them: what
a call pays once per process and what it pays every time.  Each field
row times Field.mul/add/inv on seeded nonzero operands over GF(257),
GF(256) and GF(3^5), in nanoseconds a call, the least of --repeat runs.
Each is_grs row times is_grs and one rref on the same input, the
canonical generator of a seeded random GRS spec (dense, not systematic),
for [256,128] over GF(257) and [200,50] over GF(256) and GF(3^5).  Wall
times are the median of --repeat runs, the two calls taking turns to go
first; field-operation counts come from one more run of each over
grsid.CountingField.  The min_distance row times min_distance on the
generator of a seeded GRS [16,6] code over GF(16), whose weight walk
updates one row per node (median of --repeat runs), and counts its
field operations over grsid.CountingField.  Each table1 row, for q =
16, 25, 32, 64, 125, 243, 512, 1024, 8191 and 8192, times
`table1 --q <q> --format kv` through cli.main
(median of --repeat runs) and takes the record count, the
field-operation count and whether every record reads MDS and non-GRS
from one more table1 over grsid.CountingField.  The rows are stored
under --side in --out, and the other sides already in that file are
kept, so one file holds a parent tree's numbers next to a change's.

The writer uses only grskit's public names, so it runs against any tree
that has them:

    PYTHONPATH=src python tools/bench_rows.py --side change --out BENCH_23.json
    PYTHONPATH=<other tree>/src python tools/bench_rows.py --side parent --out BENCH_23.json

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from statistics import median

import grskit
from grskit.cli import main as cli_main
from grskit.codes import LinearCode, grs_generator, min_distance, write_matrix_file
from grskit.constructions import table1
from grskit.gf import Field, field_from_order
from grskit.grsid import CountingField, is_grs, random_grs_spec
from grskit.linalg import Matrix, rref

# (q, n, k): the two is_grs rows of the ROADMAP's north star, and the
# [200,50] row again over the odd extension field GF(3^5)
SHAPES = ((257, 256, 128), (256, 200, 50), (243, 200, 50))
# (q, n, k) of the min_distance row: a GRS code, so d = n - k + 1; its
# walk takes 0.3-0.4 s on a shared 2-vCPU x86-64 host, [16,5] only 0.03 s
DIST_SHAPE = (16, 16, 6)
# field orders of the table1 rows: the ROADMAP's north star, 64, 125, the
# largest odd-extension table up to 128, 243, the largest below 256 and
# the slowest table up to 256 while every record built its generator,
# 512 and 1024, the char-2 tables whose plus rows dominate the largest q,
# 8191, the largest prime table, about 4,100 star records, and 8192, the
# table cap, whose k = 4 row's subset DP takes most of its time
TABLE_QS = (16, 25, 32, 64, 125, 243, 512, 1024, 8191, 8192)
# (p, s, n, k) of the GRS file behind the cli.main row, and the number of
# calls after the first whose median it reports
CLI_SHAPE = (2, 4, 10, 4)
CLI_CALLS = 60
# a fresh process's first cli.main call on argv[1:]: prints its wall time
FIRST_CALL = """
import contextlib, io, sys, time
from grskit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    rc = main(sys.argv[1:])
    t = time.perf_counter() - t0
print(rc, t)
"""
# field orders of the field arithmetic rows: prime, char-2 and odd extension
FIELD_QS = (257, 256, 243)
# operand pairs per timed run of a field row
FIELD_OPS = 4000
# seed of the random GRS specs and operands behind every row, recorded in
# the JSON
SEED = 13


def _timed(fn, arg):
    t0 = time.perf_counter()
    out = fn(arg)
    return time.perf_counter() - t0, out


def _first_call(argv: list) -> float:
    # the subprocess imports the grskit this process imported
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(grskit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", FIRST_CALL, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    if out[0] != "0":
        raise SystemExit(f"{' '.join(argv[:3])} exited {out[0]} in a fresh process")
    return float(out[1])


def cli_row(repeat: int) -> dict:
    p, s, n, k = CLI_SHAPE
    spec = random_grs_spec(Field(p, s), n, k, random.Random(SEED))
    times, outs = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grs.txt")
        write_matrix_file(path, grs_generator(spec).gen)
        argv = ["check", "--kind", "is-grs", "--in", path]
        first = [_first_call(argv) for _ in range(repeat)]
        for _ in range(1 + CLI_CALLS):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t, rc = _timed(cli_main, argv)
            if rc != 0:
                raise SystemExit(f"{' '.join(argv[:3])} exited {rc}")
            times.append(t)
            outs.add(buf.getvalue())
    return {
        "name": f"cli.main check --kind is-grs [{n},{k}]/GF({p ** s})",
        "calls": 1 + CLI_CALLS,
        "first_runs": repeat,
        "first_s": round(median(first), 5),
        "median_s": round(median(times[1:]), 5),
        "grs": len(outs) == 1 and outs.pop().startswith("verdict=grs "),
    }


def field_row(q: int, repeat: int) -> dict:
    F = field_from_order(q)
    rng = random.Random(f"{SEED}:{q}")
    xs = [rng.randrange(1, q) for _ in range(FIELD_OPS)]
    ys = [rng.randrange(1, q) for _ in range(FIELD_OPS)]
    row = {"name": f"gf {F!r}", "ops": FIELD_OPS, "repeat": repeat}
    for op in ("mul", "add", "inv"):
        fn = getattr(F, op)
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            if op == "inv":
                for x in xs:
                    fn(x)
            else:
                for x, y in zip(xs, ys):
                    fn(x, y)
            best = min(best, time.perf_counter() - t0)
        row[f"{op}_ns"] = round(best / FIELD_OPS * 1e9, 1)
    return row


def bench_row(q: int, n: int, k: int, repeat: int) -> dict:
    F = field_from_order(q)
    g = grs_generator(random_grs_spec(F, n, k, random.Random(SEED))).gen
    times = {rref: [], is_grs: []}
    for r in range(repeat):
        # the calls take turns to go first: on a host that slows down under
        # sustained load the second call of a pair would pay for the first
        for fn in (rref, is_grs) if r % 2 == 0 else (is_grs, rref):
            t, out = _timed(fn, g)
            times[fn].append(t)
            if fn is is_grs:
                verdict = out
    rref_s, is_grs_s = times[rref], times[is_grs]
    cf = CountingField(F)
    rref(Matrix(cf, g.data, cols=n))
    rref_ops, cf.ops = cf.ops, 0
    is_grs(Matrix(cf, g.data, cols=n))
    return {
        "name": f"is_grs [{n},{k}]/GF({q})",
        "grs": verdict.grs,
        "repeat": repeat,
        "rref_s": round(median(rref_s), 4),
        "is_grs_s": round(median(is_grs_s), 4),
        "ratio": round(median(is_grs_s) / median(rref_s), 3),
        "rref_ops": rref_ops,
        "is_grs_ops": cf.ops,
        "ops_ratio": round(cf.ops / rref_ops, 3),
    }


def distance_row(repeat: int) -> dict:
    q, n, k = DIST_SHAPE
    F = field_from_order(q)
    code = grs_generator(random_grs_spec(F, n, k, random.Random(SEED)))
    times, dists = [], set()
    for _ in range(repeat):
        t, d = _timed(min_distance, code)
        times.append(t)
        dists.add(d)
    cf = CountingField(F)
    counted = LinearCode(cf, Matrix(cf, code.gen.data))
    cf.ops = 0  # count min_distance only, not the constructor's rank check
    dists.add(min_distance(counted))
    return {
        "name": f"min_distance GRS [{n},{k}]/GF({q})",
        "repeat": repeat,
        "min_distance_s": round(median(times), 4),
        "ops": cf.ops,
        "mds": dists == {n - k + 1},
    }


def table_row(q: int, repeat: int) -> dict:
    argv = ["table1", "--q", str(q), "--format", "kv"]
    times = []
    for _ in range(repeat):
        with contextlib.redirect_stdout(io.StringIO()):
            t, rc = _timed(cli_main, argv)
        if rc != 0:
            raise SystemExit(f"table1 --q {q} exited {rc}")
        times.append(t)
    cf = CountingField(field_from_order(q))
    records = table1(cf).records
    return {
        "name": f"table1 --q {q}",
        "repeat": repeat,
        "table1_s": round(median(times), 4),
        "records": len(records),
        "ops": cf.ops,
        "all_mds": all(r.mds for r in records),
        "all_non_grs": not any(r.grs_verdict for r in records),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--side", required=True, help="label of the measured tree, e.g. parent or change")
    ap.add_argument("--out", required=True, help="JSON file to update")
    ap.add_argument("--repeat", type=int, default=4, help="timed runs per call (default 4)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    rows = [cli_row(args.repeat)]
    rows += [field_row(q, args.repeat) for q in FIELD_QS]
    rows += [bench_row(q, n, k, args.repeat) for q, n, k in SHAPES]
    rows.append(distance_row(args.repeat))
    rows += [table_row(q, args.repeat) for q in TABLE_QS]
    try:
        with open(args.out) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc[args.side] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in rows:
        print(args.side, " ".join(f"{key}={str(val).lower() if isinstance(val, bool) else val}"
                                  for key, val in r.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
