"""Self-test of the output checks: each must accept a right answer and
reject a flipped verdict and a wrong spec.

    python3 grsbench/selftest.py

run.py calls run() before every measurement, so a check that has gone
blind stops the benchmark instead of reporting correct outputs.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks   # noqa: E402
from gfref import RefField, grs_rows, systematic_block, dual_multipliers  # noqa: E402


def _write(path, F, rows):
    with open(path, "w") as fh:
        fh.write(F.header() + f"\nmatrix {len(rows)} {len(rows[0])}\n")
        fh.write("".join(" ".join(map(str, r)) + "\n" for r in rows))


def _write_spec(path, F, alpha, v, k):
    with open(path, "w") as fh:
        fh.write(f"{F.header()}\nalpha: {' '.join(map(str, alpha))}\n"
                 f"v: {' '.join(map(str, v))}\nk: {k}\n")


def run(workdir):
    """Return a message for each check that failed to behave."""
    os.makedirs(workdir, exist_ok=True)
    problems = []

    def expect(name, errors, should_fail):
        if bool(errors) != should_fail:
            problems.append(f"{name}: {'accepted' if should_fail else 'rejected'} "
                            f"({errors or 'no errors'})")

    F = RefField(11, 1, (0, 1))
    alpha, v, k = [3, 1, 4, 5, 9, 2, 6], [1, 2, 3, 4, 5, 6, 7], 3
    block = systematic_block(F, alpha, v, k)
    sysrows = [[int(i == j) for j in range(k)] + block[i] for i in range(k)]
    code = os.path.join(workdir, "code.txt")
    _write(code, F, sysrows)
    wrong_v = [v[0] + 1] + v[1:]

    # identify
    truth = {"c": {"class": "grs", "k": k}}
    good = {"grs": True, "alpha": alpha, "v": v, "k": k}
    expect("identify/right", checks.check_identify(truth, {"c": good}, {"c": code}), False)
    expect("identify/flipped", checks.check_identify(
        truth, {"c": {"grs": False, "reason": "code-mismatch"}}, {"c": code}), True)
    expect("identify/wrong-spec", checks.check_identify(
        truth, {"c": dict(good, v=wrong_v)}, {"c": code}), True)
    expect("identify/flipped-corrupt", checks.check_identify(
        {"c": {"class": "late", "k": k, "site": (3, 6)}}, {"c": good}, {"c": code}), True)

    # table
    def kv(rows, mds="true", grs="false"):
        return "\n\n".join(f"family=x\nq=8\nk={a}\nn={b}\nis_mds={mds}\nis_grs={grs}"
                           for a, b in rows)
    rows8 = checks.paper_table_rows(8, 2)
    tt = {"q8": {"q": 8, "p": 2}}
    expect("table/right", checks.check_table(tt, {"q8": {"out": kv(rows8)}}), False)
    expect("table/flipped-mds", checks.check_table(tt, {"q8": {"out": kv(rows8, mds="false")}}),
           True)
    expect("table/flipped-grs", checks.check_table(tt, {"q8": {"out": kv(rows8, grs="true")}}),
           True)
    expect("table/wrong-row", checks.check_table(
        tt, {"q8": {"out": kv(rows8[:-1] + [(rows8[-1][0], rows8[-1][1] - 1)])}}), True)
    rt = {"r": {"q": 19, "p": 19, "k": 5}}
    rec = {"family": "x", "q": 19, "k": 5, "n": 11, "mds": True, "grs": False}
    expect("table/record-right", checks.check_table(rt, {"r": rec}), False)
    expect("table/record-flipped-mds", checks.check_table(rt, {"r": dict(rec, mds=False)}), True)
    expect("table/record-flipped-grs", checks.check_table(rt, {"r": dict(rec, grs=True)}), True)
    expect("table/record-wrong-length", checks.check_table(rt, {"r": dict(rec, n=12)}), True)
    expect("table/record-wrong-k", checks.check_table(rt, {"r": dict(rec, k=4)}), True)

    # verify
    spec_path = os.path.join(workdir, "spec.txt")
    dual_path = os.path.join(workdir, "dual.txt")
    _write(dual_path, F, grs_rows(F, alpha, dual_multipliers(F, alpha, v), len(alpha) - k))
    spec = {"alpha": alpha, "v": v, "k": k}
    vt = {"code": {"path": code}, "_ops": {
        "mds": {"expect": "mds"},
        "mindist": {"expect": "mindist", "n": 7, "k": 3, "pair": "mds"},
        "cauchy": {"expect": "cauchy"},
        "recover": {"expect": "grs", "src": "code", "spec_out": spec_path},
        "dual": {"expect": "dual", "path": dual_path, "spec": spec},
    }}
    right = {"mds": "verdict=mds", "mindist": "min_distance=5 n=7 k=3",
             "cauchy": "verdict=cauchy", "dual": "wrote",
             "recover": "verdict=grs k=3 alpha=%s v=%s" % (" ".join(map(str, alpha)),
                                                         " ".join(map(str, v)))}

    def verify(outs, spec_v=v):
        _write_spec(spec_path, F, alpha, spec_v, k)
        return checks.check_verify(vt, {i: {"out": o} for i, o in outs.items()})

    expect("verify/right", verify(right), False)
    expect("verify/flipped-mds", verify(dict(right, mds="verdict=not-mds")), True)
    expect("verify/wrong-distance", verify(dict(right, mindist="min_distance=4 n=7 k=3")), True)
    expect("verify/flipped-cauchy", verify(dict(right, cauchy="verdict=non-cauchy")), True)
    expect("verify/flipped-recover", verify(dict(right, recover="verdict=non-grs")), True)
    expect("verify/wrong-spec-file", verify(right, spec_v=wrong_v), True)
    wrong_printed = right["recover"].rsplit("v=", 1)[0] + "v=" + " ".join(map(str, wrong_v))
    expect("verify/wrong-spec", verify(dict(right, recover=wrong_printed), spec_v=wrong_v), True)
    _write(dual_path, F, grs_rows(F, alpha, wrong_v, len(alpha) - k))
    expect("verify/wrong-dual", verify(right), True)
    return problems


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    found = run(os.path.join(here, "_work", "selftest"))
    for msg in found:
        print(f"FAIL {msg}")
    print("self-test: " + ("FAILED" if found else "every check rejects a flipped verdict "
                           "and a wrong spec"))
    sys.exit(1 if found else 0)
