"""Write the end-to-end is_grs and table1 rows of the ROADMAP to a BENCH
JSON file.

Each is_grs row times is_grs and one rref on the same input, the
canonical generator of a seeded random GRS spec (dense, not systematic),
for [256,128] over GF(257) and [200,50] over GF(256).  Wall times are the
median of --repeat runs, the two calls taking turns to go first;
field-operation counts come from one more run of each over
grsid.CountingField.  Each table1 row, for q = 16, 25 and 32, times
`table1 --q <q> --format kv` through cli.main (median of --repeat runs)
and takes the record count, the field-operation count and whether every
record reads MDS and non-GRS from one more table1 over
grsid.CountingField.  The rows are stored under
--side in --out, and the other sides already in that file are kept, so
one file holds a parent tree's numbers next to a change's.

The writer uses only grskit's public names, so it runs against any tree
that has them:

    PYTHONPATH=src python tools/bench_rows.py --side change --out BENCH_13.json
    PYTHONPATH=<other tree>/src python tools/bench_rows.py --side parent --out BENCH_13.json

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
import sys
import time
from statistics import median

from grskit.cli import main as cli_main
from grskit.codes import grs_generator
from grskit.constructions import table1
from grskit.gf import field_from_order
from grskit.grsid import CountingField, is_grs, random_grs_spec
from grskit.linalg import Matrix, rref

# (q, n, k): the two is_grs rows of the ROADMAP's north star
SHAPES = ((257, 256, 128), (256, 200, 50))
# field orders of the table1 rows of the ROADMAP's north star
TABLE_QS = (16, 25, 32)
# seed of the random GRS spec behind every is_grs row, recorded in the JSON
SEED = 13


def _timed(fn, arg):
    t0 = time.perf_counter()
    out = fn(arg)
    return time.perf_counter() - t0, out


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
    rref(Matrix(cf, g.data, cols=n, check=False))
    rref_ops, cf.ops = cf.ops, 0
    is_grs(Matrix(cf, g.data, cols=n, check=False))
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
    rows = [bench_row(q, n, k, args.repeat) for q, n, k in SHAPES]
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
