"""Seeded inputs for the three workloads.

build(workload, seed, workdir) writes the input files and returns
(plan, truth).  The plan is all a pass needs: the matrix files to load at
set-up and the operations to run.  The truth holds what the checks need
to know about the inputs (verdict class, evaluation points and
multipliers, construction parameters) and is read only by the checks.

Every seed gives the same shapes, fields and verdict classes; the seed
picks the values: evaluation points, multipliers, mixing matrices,
corruption positions, construction knobs and the modulus of each
extension field.  The work of a pass therefore changes little from seed
to seed.  All generation uses the benchmark's own arithmetic (gfref).
"""

from __future__ import annotations

import os
import random

from gfref import (INF, RefField, all_minors_nonzero, construct_rows, irreducible_moduli,
                   primitive_moduli, systematic_block)

WORKLOADS = ("identify", "table", "verify")

# (label, p, s, n, k, class, with_inf).  class is grs, early or late:
# an early corruption zeroes B entry (i, k+1) for a row i >= 4, which the
# recovery equations read and reject at once; a late one adds a nonzero
# value to an entry in row >= 3 and column >= k+3, which only the
# regenerate-and-compare step reads.  Either way the verdict takes the same
# path on every seed: one elimination for early, two for late.
#
# Every call is short (about 2-30 ms on the machine of the README's
# figures) and each shape comes IDENTIFY_INSTANCES times with its own
# values.  The machine of the reference figures runs at full speed only
# in spells shorter than a tenth of a second, so only a short call's least
# time over a run repeats from run to run; the ROADMAP's [256,128]/GF(257)
# and [200,50]/GF(256) calls take seconds and are left out (README).
IDENTIFY_SHAPES = (
    ("prime-60x20", 257, 1, 60, 20, "grs", False),
    ("prime-258x3-inf", 257, 1, 258, 3, "grs", True),
    ("prime-60x20-early", 257, 1, 60, 20, "early", False),
    ("prime-60x20-late", 257, 1, 60, 20, "late", False),
    ("char2-28x8", 2, 8, 28, 8, "grs", False),
    ("char2-60x4-inf", 2, 8, 60, 4, "grs", True),
    ("char2-33x3-inf", 2, 5, 33, 3, "grs", True),
    ("char2-32x12", 2, 5, 32, 12, "grs", False),
    ("char2-24x8-early", 2, 8, 24, 8, "early", False),
    ("char2-24x8-late", 2, 8, 24, 8, "late", False),
    ("oddext-16x5", 3, 5, 16, 5, "grs", False),
    ("oddext-40x3-inf", 3, 5, 40, 3, "grs", True),
    ("oddext-60x3-inf", 5, 3, 60, 3, "grs", True),
    ("oddext-20x6-early", 5, 3, 20, 6, "early", False),
    ("oddext-16x5-late", 3, 5, 16, 5, "late", False),
)
IDENTIFY_INSTANCES = 3

# The length table, as operations of at most about 50 ms on the machine
# of the README's figures (see IDENTIFY_SHAPES for why).  TABLE_CLI runs
# `table1 --format kv` through cli.main for whole fields whose table is
# that quick; GF(9), the only odd extension field quick enough, runs
# under every modulus.  TABLE_RECORDS builds single records through the
# public builders of grskit.constructions (the calls table1 makes, each
# with its own is_mds and is_grs verification), for (p, s, largest k):
# every record of GF(8) (under both moduli) and GF(17), the records of
# GF(16), GF(19) and GF(23) up to that k.  The larger records take 40 ms
# to 1 s each (GF(16) from k = 6, GF(19) from k = 7, GF(23) from k = 4),
# and those of q >= 25 0.1-30 s; they are left out (README).
TABLE_CLI = ((13, 1), (11, 1), (3, 2))
TABLE_RECORDS = ((2, 3, None), (2, 4, 5), (17, 1, None), (19, 1, 6), (23, 1, 3))
TABLE_ALL_MODULI = ((2, 3), (3, 2))


def table_records(q, p):
    """(builder, args, kwargs, k) for each record of table1 on GF(q), in
    table1's order, except the dual of the Roth-Lempel code, which table1
    builds with a private helper."""
    if p == 2:
        yield "ngrs_q2_3", [], {}, 3
        yield "char2_k4", [4], {}, 4
        for k in range(5, (q - 4) // 2 + 1):
            yield "plus_modified", [k], {"extended": True}, k
        if (q - 2) // 2 != 4:
            yield "char2_k4", [(q - 2) // 2], {}, (q - 2) // 2
        for k in range(q // 2, q - 1):
            yield "tgrs_punctured", [k], {}, k
    else:
        yield "odd_k3", [3], {}, 3
        for k in range(4, (q - 3) // 2 + 1):
            yield "star_modified", [k], {}, k
        if (q - 1) // 2 != 3:
            yield "odd_k3", [(q - 1) // 2], {}, (q - 1) // 2


def _kind(p, s):
    return "prime" if s == 1 else "char2" if p == 2 else "oddext"


# field kind -> (small field, medium field), as (p, s)
VERIFY_FIELDS = {
    "prime": ((11, 1), (61, 1)),
    "char2": ((2, 3), (2, 6)),
    "oddext": ((3, 2), (7, 2)),
}
# (n, k) of the small GRS and corrupted codes (min_distance enumerates q^k
# messages), of the GRS code given to cauchy_test (which enumerates the
# 2x2 and 3x3 minors of a k x (n-k) block) and of the medium GRS code
# that is recovered and transformed.  n = q + 1 puts a point at infinity.
VERIFY_SMALL = {"prime": (10, 3), "char2": (8, 3), "oddext": (6, 3)}
VERIFY_CAUCHY = {"prime": (12, 5), "char2": (10, 4), "oddext": (8, 4)}
# (family, k, n) of the constructed codes.  t and eta are drawn among the
# values that make the code MDS (by minor enumeration with gfref), so that
# `check --kind mds` enumerates every minor on every seed; a non-MDS code
# would stop at a first vanishing minor that moves with t and eta.  At
# these small fields no choice is MDS beyond n = 7 (mgrs) or 8 (emgrs),
# and n = 6 and 5 leave several choices in each of them.
VERIFY_CONSTRUCT = (("mgrs", 4, 6), ("emgrs", 3, 5))
VERIFY_MEDIUM = {"prime": (40, 12), "char2": (65, 4), "oddext": (20, 6)}


def _field(rng, p, s):
    """GF(p^s) under a seeded modulus for which x is primitive.  grskit
    looks for a primitive element from 1 upwards whenever it reads a field
    header, so this keeps set-up work the same for every seed."""
    if s == 1:
        return RefField(p, 1, (0, 1))
    return RefField(p, s, rng.choice(primitive_moduli(p, s)))


def _fmt_alpha(alpha):
    return ["inf" if a is INF else a for a in alpha]


def _matmul(F, a, b):
    bt = list(zip(*b))
    return [[F.dot(row, col) for col in bt] for row in a]


def _random_invertible(F, rng, k):
    """L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, both uniformly filled otherwise."""
    q = F.q
    low = [[(1 if i == j else rng.randrange(q)) if j <= i else 0 for j in range(k)]
           for i in range(k)]
    up = [[(rng.randrange(1, q) if i == j else rng.randrange(q)) if j >= i else 0
           for j in range(k)] for i in range(k)]
    return _matmul(F, low, up)


def _random_spec(F, rng, n, k, with_inf):
    """Distinct points (all of F and infinity when n = q + 1), infinity
    kept out of the first k positions so that [I | B] exists."""
    n_finite = n - 1 if with_inf else n
    alpha = rng.sample(range(F.q), n_finite)
    if with_inf:
        alpha.insert(rng.randrange(k, n), INF)
    v = [rng.randrange(1, F.q) for _ in range(n)]
    return alpha, v


def _systematic(F, alpha, v, k):
    block = systematic_block(F, alpha, v, k)
    return [[1 if j == i else 0 for j in range(k)] + block[i] for i in range(k)]


def _corrupt(F, rng, rows, k, where):
    """Change one B entry.  By Roth-Seroussi a GRS block is the entrywise
    inverse of a generalized Cauchy matrix, all of whose 2x2 minors are
    nonzero, so any one-entry change leaves a 3x3 minor nonzero when
    k >= 3 and n - k >= 3: the result is not GRS.  (A zero entry alone
    already rules GRS out.)"""
    n = len(rows[0])
    rows = [list(r) for r in rows]
    if where == "early":
        i, j = rng.randrange(3, k), k
        rows[i][j] = 0
    else:
        i, j = rng.randrange(2, k), rng.randrange(k + 2, n)
        rows[i][j] = F.add(rows[i][j], rng.randrange(1, F.q))
    return rows, (i + 1, j + 1)


def _write_matrix(path, F, rows):
    lines = [F.header(), f"matrix {len(rows)} {len(rows[0])}"]
    lines += [" ".join(map(str, r)) for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _mixed(F, rng, rows):
    return _matmul(F, _random_invertible(F, rng, len(rows)), rows)


def build(workload, seed, workdir):
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    plan, truth = {"identify": _identify, "table": _table,
                   "verify": _verify}[workload](rng, workdir)
    plan["seed"] = seed
    return plan, truth


def _identify(rng, workdir):
    fields = {}
    inputs, ops, truth = {}, [], {}
    shapes = [(f"{label}-{i}", *rest) for i in range(1, IDENTIFY_INSTANCES + 1)
              for label, *rest in IDENTIFY_SHAPES]
    for label, p, s, n, k, cls, with_inf in shapes:
        if (p, s) not in fields:
            fields[p, s] = _field(rng, p, s)
        F = fields[p, s]
        alpha, v = _random_spec(F, rng, n, k, with_inf)
        sysrows = _systematic(F, alpha, v, k)
        site = None
        if cls != "grs":
            sysrows, site = _corrupt(F, rng, sysrows, k, cls)
        gen = _mixed(F, rng, sysrows)
        path = os.path.join(workdir, f"{label}.txt")
        _write_matrix(path, F, gen)
        inputs[label] = path
        ops.append({"id": label, "kind": F.kind(), "input": label})
        truth[label] = {"class": cls, "k": k, "site": site}
    plan = {"workload": "identify", "inputs": inputs, "ops": ops}
    return plan, truth


def _moduli(rng, p, s):
    if s == 1:
        return [None]
    if (p, s) in TABLE_ALL_MODULI:
        moduli = irreducible_moduli(p, s)
        rng.shuffle(moduli)
        return moduli
    return [_field(rng, p, s).modulus]


def _table(rng, workdir):
    ops, truth, fields = [], {}, {}
    for p, s in TABLE_CLI:
        q = p ** s
        for mod in _moduli(rng, p, s):
            if mod is None:
                argv, op_id = ["table1", "--q", str(q), "--format", "kv"], f"q{q}"
            else:
                mod_arg = ",".join(map(str, mod))
                argv = ["table1", "--p", str(p), "--s", str(s), "--mod", mod_arg,
                        "--format", "kv"]
                op_id = f"q{q}-mod{mod_arg}"
            ops.append({"id": op_id, "kind": _kind(p, s), "argv": argv})
            truth[op_id] = {"q": q, "p": p}
    for p, s, max_k in TABLE_RECORDS:
        q = p ** s
        for mod in _moduli(rng, p, s):
            fname = f"q{q}" if mod is None else f"q{q}-mod{','.join(map(str, mod))}"
            fields[fname] = [p, s, None if mod is None else list(mod)]
            for builder, args, kwargs, k in table_records(q, p):
                if max_k is not None and k > max_k:
                    continue
                op_id = f"{fname}-{builder}-k{k}"
                ops.append({"id": op_id, "kind": _kind(p, s),
                            "record": {"builder": builder, "field": fname, "args": args,
                                       "kwargs": kwargs}})
                truth[op_id] = {"q": q, "p": p, "k": k}
    return {"workload": "table", "inputs": {}, "fields": fields, "ops": ops}, truth


def _field_args(F):
    return ["--p", str(F.p), "--s", str(F.s), "--mod", ",".join(map(str, F.modulus))]


def _verify(rng, workdir):
    """CLI operations per field kind, each on its own file: writes first
    (construct, transform), then reads of what was written."""
    inputs, writes, reads, truth = {}, [], [], {}

    def put(name, F, rows):
        path = os.path.join(workdir, f"{name}.txt")
        _write_matrix(path, F, rows)
        inputs[name] = path
        truth[name] = {"path": path}

    def out(name):
        return os.path.join(workdir, f"{name}.out.txt")

    def op(bucket, op_id, kind, argv, **check):
        bucket.append({"id": op_id, "kind": kind, "argv": argv})
        truth.setdefault("_ops", {})[op_id] = check

    for kind, ((ps, ss), (pm, sm)) in VERIFY_FIELDS.items():
        Fs, Fm = _field(rng, ps, ss), _field(rng, pm, sm)

        # small GRS code, one generator per operation
        n, k = VERIFY_SMALL[kind]
        alpha, v = _random_spec(Fs, rng, n, k, False)
        base = _systematic(Fs, alpha, v, k)
        spec = dict(alpha=_fmt_alpha(alpha), v=v, k=k)
        g = f"{kind}-grs"
        for tag in ("mds", "mindist", "cauchy", "dual"):
            put(f"{g}-{tag}", Fs, _mixed(Fs, rng, base))
        op(reads, f"{g}-mds", kind, ["check", "--kind", "mds", "--in", inputs[f"{g}-mds"]],
           expect="mds", pair=f"{g}-mindist")
        op(reads, f"{g}-mindist", kind,
           ["check", "--kind", "min-dist", "--in", inputs[f"{g}-mindist"]],
           expect="mindist", n=n, k=k, pair=f"{g}-mds")
        op(reads, f"{g}-cauchy", kind,
           ["check", "--kind", "cauchy", "--in", inputs[f"{g}-cauchy"]], expect="cauchy")
        op(writes, f"{g}-dual", kind,
           ["transform", "--op", "dual", "--in", inputs[f"{g}-dual"], "--out", out(f"{g}-dual")],
           expect="dual", path=out(f"{g}-dual"), spec=spec)
        op(reads, f"{g}-dual-mds", kind,
           ["check", "--kind", "mds", "--in", out(f"{g}-dual")], expect="mds")

        # the same shape with its last entry zeroed, so that each verdict
        # stops at the same minor and the same codeword weights on every
        # seed.  A GRS block has no zero entry, and a zero in B leaves a
        # k x k minor zero: the code is neither GRS nor MDS.
        c = f"{kind}-bad"
        bad = [list(r) for r in base]
        bad[-1][-1] = 0
        for tag in ("mds", "mindist", "cauchy", "recover"):
            put(f"{c}-{tag}", Fs, _mixed(Fs, rng, bad))
        op(reads, f"{c}-mds", kind, ["check", "--kind", "mds", "--in", inputs[f"{c}-mds"]],
           expect="mds?", pair=f"{c}-mindist")
        op(reads, f"{c}-mindist", kind,
           ["check", "--kind", "min-dist", "--in", inputs[f"{c}-mindist"]],
           expect="mindist?", n=n, k=k, pair=f"{c}-mds")
        op(reads, f"{c}-cauchy", kind,
           ["check", "--kind", "cauchy", "--in", inputs[f"{c}-cauchy"]], expect="non-cauchy")
        op(reads, f"{c}-recover", kind, ["recover", "--in", inputs[f"{c}-recover"]],
           expect="non-grs")

        # a larger GRS code for the Cauchy test
        n, k = VERIFY_CAUCHY[kind]
        alpha, v = _random_spec(Fm, rng, n, k, False)
        name = f"{kind}-cauchy"
        put(name, Fm, _mixed(Fm, rng, _systematic(Fm, alpha, v, k)))
        op(reads, name, kind, ["check", "--kind", "cauchy", "--in", inputs[name]],
           expect="cauchy")

        # constructed modified GRS codes, checked against the subset predicates
        q = Fs.q
        for fam, kk, nn in VERIFY_CONSTRUCT:
            t, eta = rng.choice([
                (t, eta) for t in range(1, kk) for eta in range(1, q)
                if all_minors_nonzero(Fs, construct_rows(
                    Fs, {"family": fam, "n": nn, "k": kk, "t": t, "eta": eta}))])
            name = f"{kind}-{fam}"
            op(writes, name, kind,
               ["construct"] + _field_args(Fs) + ["--family", fam, "--n", str(nn),
                                                   "--k", str(kk), "--t", str(t),
                                                   "--eta", str(eta), "--out", out(name)],
               expect="construct", path=out(name), family=fam, field=(Fs.p, Fs.s, Fs.modulus),
               n=nn, k=kk, t=t, eta=eta)
            op(reads, f"{name}-mds", kind, ["check", "--kind", "mds", "--in", out(name)],
               expect="mds-predicate", construct=name)

        # medium GRS code: recovery, transforms, and recovery of the results
        n, k = VERIFY_MEDIUM[kind]
        alpha, v = _random_spec(Fm, rng, n, k, n == Fm.q + 1)
        base = _systematic(Fm, alpha, v, k)
        spec = dict(alpha=_fmt_alpha(alpha), v=v, k=k)
        m = f"{kind}-med"
        for tag in ("recover", "dual", "puncture", "shorten"):
            put(f"{m}-{tag}", Fm, _mixed(Fm, rng, base))
        finite = [j + 1 for j, a in enumerate(alpha) if a is not INF]
        pos_p, pos_s = rng.choice(finite), rng.choice(finite)
        op(reads, f"{m}-recover", kind,
           ["recover", "--in", inputs[f"{m}-recover"], "--out", out(f"{m}-recover")],
           expect="grs", src=f"{m}-recover", spec_out=out(f"{m}-recover"))
        op(writes, f"{m}-dual", kind,
           ["transform", "--op", "dual", "--in", inputs[f"{m}-dual"], "--out", out(f"{m}-dual")],
           expect="dual", path=out(f"{m}-dual"), spec=spec)
        op(writes, f"{m}-puncture", kind,
           ["transform", "--op", "puncture", "--pos", str(pos_p), "--in",
            inputs[f"{m}-puncture"], "--out", out(f"{m}-puncture")],
           expect="puncture", path=out(f"{m}-puncture"), spec=spec, pos=pos_p)
        op(writes, f"{m}-shorten", kind,
           ["transform", "--op", "shorten", "--pos", str(pos_s), "--in",
            inputs[f"{m}-shorten"], "--out", out(f"{m}-shorten")],
           expect="shorten", path=out(f"{m}-shorten"), spec=spec, pos=pos_s)
        for tr in ("puncture", "shorten"):
            op(reads, f"{m}-{tr}-recover", kind,
               ["recover", "--in", out(f"{m}-{tr}"), "--out", out(f"{m}-{tr}-spec")],
               expect="grs-of-output", of=f"{m}-{tr}", spec_out=out(f"{m}-{tr}-spec"))

    # the operations read their files through the CLI, so set-up loads none
    plan = {"workload": "verify", "inputs": {}, "ops": writes + reads}
    return plan, truth
