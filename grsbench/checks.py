"""Output checks.

Every check uses a computation made apart from the method under test, or
a property the output must have; none compares against a stored copy of
an earlier output.  GRS claims are checked as G H^T = 0 with H the
closed-form parity-check matrix of the claimed (alpha, v), computed with
the benchmark's own arithmetic (gfref) from the modulus in the file
header.  Each check function returns a list of failure messages.
"""

from __future__ import annotations

import os
import re
import sys

from gfref import (INF, RefField, all_minors_nonzero, construct_rows, dual_multipliers,
                   generates_grs, orthogonal, parity_rows, spec_is_valid)

_FIELDS = {}


def ref_field(p, s, modulus):
    key = (p, s, tuple(modulus))
    if key not in _FIELDS:
        _FIELDS[key] = RefField(p, s, modulus)
    return _FIELDS[key]


def read_matrix(path):
    """(field, rows) from a matrix file, parsed without grskit."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    head = dict(kv.split("=", 1) for kv in lines[0][1:])
    F = ref_field(int(head["p"]), int(head["s"]), [int(c) for c in head["mod"].split(",")])
    k, n = int(lines[1][1]), int(lines[1][2])
    rows = [[int(t) for t in ln] for ln in lines[2:]]
    if len(rows) != k or any(len(r) != n for r in rows):
        raise ValueError(f"{path}: shape does not match its header")
    return F, rows


def read_spec(path):
    """(field, alpha, v, k) from a spec file, parsed without grskit."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    head = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
    F = ref_field(int(head["p"]), int(head["s"]), [int(c) for c in head["mod"].split(",")])
    alpha = parse_points(lines[1].split(":", 1)[1].split())
    v = [int(t) for t in lines[2].split(":", 1)[1].split()]
    return F, alpha, v, int(lines[3].split(":", 1)[1])


def parse_points(tokens):
    return [INF if t == "inf" else int(t) for t in tokens]


# ---------------- identify ----------------

def check_identify(truth, outputs, inputs):
    """outputs: op id -> is_grs verdict; inputs: op id -> matrix file."""
    errors = []
    for op_id, t in truth.items():
        out = outputs.get(op_id)
        if out is None:
            continue  # the operation failed and is counted as such
        if t["class"] != "grs":
            if out["grs"]:
                errors.append(f"{op_id}: corrupted code (entry {t['site']}) called GRS")
            continue
        if not out["grs"]:
            errors.append(f"{op_id}: GRS code called non-GRS ({out['reason']})")
            continue
        F, rows = read_matrix(inputs[op_id])
        alpha, v, k = parse_points(out["alpha"]), out["v"], out["k"]
        if k != t["k"] or not spec_is_valid(F, alpha, v, k):
            errors.append(f"{op_id}: recovered spec is not a valid [n,{t['k']}] GRS spec")
        elif not orthogonal(F, rows, parity_rows(F, alpha, v, k)):
            errors.append(f"{op_id}: recovered spec fails G H^T = 0")
    return errors


# ---------------- table ----------------

def paper_table_rows(q, p):
    """(k, n) of every row of the paper's length table for GF(q), q >= 8."""
    rows = []
    if p == 2:
        rows.append((3, q + 2))
        rows.append((4, (q + 6) // 2))
        rows += [(k, (q + 4) // 2) for k in range(5, (q - 4) // 2 + 1)]
        if (q - 2) // 2 != 4:
            rows.append(((q - 2) // 2, (q + 6) // 2))
        rows += [(k, k + 3) for k in range(q // 2, q - 1)]
        rows.append((q - 1, q + 2))
    else:
        rows.append((3, (q + 5) // 2))
        rows += [(k, (q + 3) // 2) for k in range(4, (q - 3) // 2 + 1)]
        if (q - 1) // 2 != 3:
            rows.append(((q - 1) // 2, (q + 5) // 2))
    return sorted(rows)


def parse_kv_records(text):
    records = []
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if not sep or key == "note":
            continue
        if key == "family":
            records.append({})
        if records:
            records[-1][key] = val
    return records


def check_table(truth, outputs):
    """A whole table (table1 through the CLI) must have exactly the paper's
    rows; a single record (a builder called alone, truth with "k") must
    have the asked-for q and k and the length of one of the paper's rows."""
    errors = []
    for op_id, t in truth.items():
        out = outputs.get(op_id)
        if out is None:
            continue
        if "k" in t:
            rows = paper_table_rows(t["q"], t["p"])
            if (out["q"], out["k"]) != (t["q"], t["k"]) or (out["k"], out["n"]) not in rows:
                errors.append(f"{op_id}: record q={out['q']} k={out['k']} n={out['n']} "
                              f"is not a row of the paper's table for q={t['q']}: {rows}")
            if out["mds"] is not True or out["grs"] is not False:
                errors.append(f"{op_id}: record {out['family']} k={out['k']} reads "
                              f"is_mds={out['mds']} is_grs={out['grs']}")
            continue
        recs = parse_kv_records(out["out"])
        got = sorted((int(r["k"]), int(r["n"])) for r in recs)
        want = paper_table_rows(t["q"], t["p"])
        if got != want:
            errors.append(f"{op_id}: table rows {got} differ from the paper's {want}")
        for r in recs:
            if r.get("q") != str(t["q"]) or r.get("is_mds") != "true" or r.get("is_grs") != "false":
                errors.append(f"{op_id}: record {r.get('family')} k={r.get('k')} "
                              f"reads is_mds={r.get('is_mds')} is_grs={r.get('is_grs')}")
    return errors


# ---------------- verify ----------------

def mds_predicate(info):
    """The paper's subset predicate for a constructed code (grskit's
    families.mgrs_is_mds / emgrs_is_mds, which never build a generator)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if os.path.join(root, "src") not in sys.path:
        sys.path.insert(0, os.path.join(root, "src"))
    from grskit import Field, MgrsParams, EmgrsParams, mgrs_is_mds, emgrs_is_mds
    p, s, mod = info["field"]
    F = Field(p, s, tuple(mod))
    n, k, t, eta = info["n"], info["k"], info["t"], info["eta"]
    if info["family"] == "mgrs":
        return mgrs_is_mds(MgrsParams(F, tuple(range(n - 1)), (1,) * n, eta, t, k))
    return emgrs_is_mds(EmgrsParams(F, tuple(range(n - 2)), (1,) * (n - 1), 1, eta, t, k))


_MINDIST = re.compile(r"min_distance=(\d+) n=(\d+) k=(\d+)$")
_PRINTED_SPEC = re.compile(r"verdict=grs k=(\d+) alpha=(.*) v=(.*)$")


def _spec_from_text(spec):
    return parse_points(spec["alpha"]), spec["v"], spec["k"]


def _recovered(out, spec_path, F, rows, errors, op_id):
    """Check a recover output: grs verdict, a spec file equal to the
    printed spec, and that spec generating the code of rows."""
    first = out.splitlines()[0] if out else ""
    if not first.startswith("verdict=grs"):
        errors.append(f"{op_id}: GRS code recovered as {first!r}")
        return
    try:
        Fs, alpha, v, k = read_spec(spec_path)
    except (OSError, ValueError, IndexError, KeyError) as e:
        errors.append(f"{op_id}: unreadable spec file ({e})")
        return
    printed = _PRINTED_SPEC.match(first)
    if (not printed or Fs.modulus != F.modulus or int(printed.group(1)) != k
            or parse_points(printed.group(2).split()) != alpha
            or [int(x) for x in printed.group(3).split()] != v):
        errors.append(f"{op_id}: spec file disagrees with the printed verdict")
    elif not generates_grs(F, rows, alpha, v, k):
        errors.append(f"{op_id}: recovered spec fails G H^T = 0")


def check_verify(truth, outputs):
    """outputs: op id -> {"rc", "out"}; files are read where the
    operations left them."""
    errors = []
    ops = truth["_ops"]

    def text(op_id):
        out = outputs.get(op_id)
        return None if out is None else out["out"].strip()

    def verdict_is_mds(op_id):
        return text(op_id) == "verdict=mds"

    for op_id, c in ops.items():
        out = text(op_id)
        if out is None:
            continue
        exp = c["expect"]
        if exp in ("mds", "cauchy", "non-cauchy"):
            want = {"mds": "verdict=mds", "cauchy": "verdict=cauchy",
                    "non-cauchy": "verdict=non-cauchy"}[exp]
            if out != want:
                errors.append(f"{op_id}: expected {want}, got {out!r}")
        elif exp == "mds?":
            F, rows = read_matrix(truth[op_id]["path"])
            if verdict_is_mds(op_id) != all_minors_nonzero(F, rows):
                errors.append(f"{op_id}: MDS verdict {out!r} disagrees with minor enumeration")
        elif exp in ("mindist", "mindist?"):
            m = _MINDIST.match(out)
            if not m:
                errors.append(f"{op_id}: unreadable output {out!r}")
                continue
            d, n, k = map(int, m.groups())
            bound = c["n"] - c["k"] + 1
            pair = text(c["pair"])
            if (n, k) != (c["n"], c["k"]) or d > bound or d < 1:
                errors.append(f"{op_id}: d={d} breaks the Singleton bound {bound}")
            elif exp == "mindist" and d != bound:
                errors.append(f"{op_id}: GRS code has d={d}, not {bound}")
            elif pair is not None and (d == bound) != verdict_is_mds(c["pair"]):
                errors.append(f"{op_id}: d={d} but the MDS check says {pair!r}")
        elif exp == "non-grs":
            if not out.startswith("verdict=non-grs"):
                errors.append(f"{op_id}: corrupted code recovered as {out!r}")
        elif exp == "grs":
            F, rows = read_matrix(truth[c["src"]]["path"])
            _recovered(out, c["spec_out"], F, rows, errors, op_id)
        elif exp == "grs-of-output":
            F, rows = read_matrix(ops[c["of"]]["path"])
            _recovered(out, c["spec_out"], F, rows, errors, op_id)
        elif exp in ("dual", "puncture", "shorten"):
            alpha, v, k = _spec_from_text(c["spec"])
            F, rows = read_matrix(c["path"])
            if exp == "dual":
                v, k = dual_multipliers(F, alpha, v), len(alpha) - k
            else:
                pos = c["pos"] - 1
                if exp == "shorten":
                    ap = alpha[pos]
                    v = [x if a is INF or ap is INF else F.mul(x, F.sub(a, ap))
                         for a, x in zip(alpha, v)]
                    k -= 1
                alpha = alpha[:pos] + alpha[pos + 1:]
                v = v[:pos] + v[pos + 1:]
            if not generates_grs(F, rows, alpha, v, k):
                errors.append(f"{op_id}: output is not the {exp} of the GRS input")
        elif exp == "construct":
            F, rows = read_matrix(c["path"])
            if rows != construct_rows(F, c):
                errors.append(f"{op_id}: constructed generator differs from its definition")
        elif exp == "mds-predicate":
            info = ops[c["construct"]]
            F, rows = read_matrix(info["path"])
            want = mds_predicate(info)
            if verdict_is_mds(op_id) != want or all_minors_nonzero(F, rows) != want:
                errors.append(f"{op_id}: MDS verdict {out!r} disagrees with the "
                              f"{info['family']} subset predicate ({want})")
        else:
            errors.append(f"{op_id}: unknown check {exp!r}")
    return errors


def check_consistent(passes):
    """Every pass must produce the same outputs."""
    errors = []
    first = passes[0]
    for other in passes[1:]:
        for op_id, out in first.items():
            if op_id in other and other[op_id] != out:
                errors.append(f"{op_id}: output differs between passes")
    return errors
