"""GRS identification and recovery from generator matrices.

Given a systematic generator [I | B] of an [n, k] code, the recovery
routine reconstructs evaluation points and column multipliers in O(nk)
field operations and O(n) inversions, assuming the code is (extended)
GRS.  It checks every denominator before dividing and every
distinctness/nonzero condition after, in order, turning the first
failure into a deterministic non-GRS verdict.  It then checks each
entry of B against its closed form under the recovered spec, which
decides GRS-ness exactly for every 0 <= k <= n: every GRS verdict
carries a spec that regenerates the code.

Only the recovery equations depend on k.  For k >= 3 and n - k >= 2
they work in the chart alpha_1 = 0, alpha_2 = 1, alpha_3 = inf, with one
multiplier formula: a GRS block has b_ij = v_j l_i(alpha_j) / v_i for
the Lagrange basis l_i on the information points, so column k+1 gives
v_2..v_k for v_1 = 1, and since the finite l_i sum to 1 every later
column gives v_j = sum of v_i b_ij over i != 3.  For k = 2 each column
is v_j times a point of PG(1, q).  Then x -> 1/(x - c) sends c to
infinity and infinity to 0: up to length q c is no point, so all points
become finite; at length q+1 c is the last point.  Longer inputs fail
the distinctness guard.  For k <= 1 and k >= n-1 a code is GRS iff it
is MDS and n <= q+1, so the points are fixed and only v is read.

is_grs is one elimination plus recover: the pivot columns separate a
rank-deficient input (an error) from a singular leading block (a
non-GRS verdict), and recover decides [I | B] in O(nk) operations on
top of that elimination.  cauchy_test is is_grs's verdict.
brute_force_recover is the exhaustive oracle for small codes of length
at most q.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations

from .gf import Field, INF, is_finite, proj_inv
from . import linalg
from .linalg import Matrix
from .codes import LinearCode, GrsSpec, grs_generator, grs_dual_multipliers, code_eq

ECHELON_FAIL = "echelon-fail"
ZERO_DENOMINATOR = "zero-denominator"
REPEATED_ALPHA = "repeated-alpha"
ZERO_MULTIPLIER = "zero-multiplier"
CODE_MISMATCH = "code-mismatch"
ENTRY_ZERO = "entry-zero"


class _Guard(Exception):
    def __init__(self, reason, stage=""):
        self.reason = reason
        self.stage = stage


@dataclass(frozen=True)
class GrsVerdict:
    """Outcome of identification: a regenerable spec, or a reason code."""

    grs: bool
    spec: GrsSpec | None = None
    reason: str | None = None
    stage: str = ""

    def format(self) -> str:
        if self.grs:
            alpha = " ".join(map(str, self.spec.alpha))
            v = " ".join(map(str, self.spec.v))
            return f"verdict=grs k={self.spec.k} alpha={alpha} v={v}"
        out = f"verdict=non-grs reason={self.reason}"
        if self.stage:
            out += f" stage={self.stage}"
        return out


def trans_to_grs(field: Field, alpha, k: int, v):
    """Rewrite an evaluation-point vector containing the point at infinity
    into an all-finite one generating the same code.

    The chart change is x -> 1/(x - c) with c the smallest field element
    outside the point set (c = 0 whenever 0 is not a point); the multiplier
    at each finite point is scaled by (alpha - c)^(k-1).  A vector without
    infinity is returned unchanged.  Returns (alpha, v).
    """
    if not any(a is INF for a in alpha):
        return tuple(alpha), tuple(v)
    taken = {a for a in alpha if is_finite(a)}
    c = next((e for e in range(field.q) if e not in taken), None)
    if c is None:
        raise ValueError("no shift element available (length q+1 with 0 present)")
    return _recentre(field, alpha, k, c, v)


def _recentre(F: Field, alpha, k: int, c, v):
    """Apply x -> 1/(x - c), which keeps the code fixed: c goes to
    infinity and infinity to 0.  The multiplier at each point sent to a
    finite nonzero value is scaled by (alpha - c)^(k-1); the others keep
    theirs.  Returns (alpha, v)."""
    shifted = [F.sub(a, c) if is_finite(a) else INF for a in alpha]
    return (tuple(proj_inv(F, a) for a in shifted),
            tuple(vj if a is INF or a == 0 else F.mul(vj, F.pow(a, k - 1))
                  for a, vj in zip(shifted, v)))


def _validate_systematic(m: Matrix):
    if any(row[j] != (i == j) for i, row in enumerate(m.data) for j in range(m.rows)):
        raise ValueError("matrix is not in systematic form [I | B]")


def _recover_parts(m: Matrix):
    """Run the recovery equations on a systematic matrix.

    Returns (alpha, v) in the output chart; the recovery equations work
    in the chart 0, 1, inf.  Raises _Guard on any failed check.
    """
    F = m.field
    k, n = m.rows, m.cols
    b = m.data

    def B(i, j):  # 1-based, matching the display conventions
        return b[i - 1][j - 1]

    b1k1, b2k1, b3k1 = B(1, k + 1), B(2, k + 1), B(3, k + 1)
    b1k2, b2k2, b3k2 = B(1, k + 2), B(2, k + 2), B(3, k + 2)
    num = F.sub(F.mul(F.mul(b1k2, b2k2), F.mul(b1k1, b3k1)),
                F.mul(F.mul(b1k1, b2k1), F.mul(b1k2, b3k2)))
    den = F.sub(F.mul(F.mul(b1k1, b2k1), F.mul(b2k2, b3k2)),
                F.mul(F.mul(b1k2, b2k2), F.mul(b2k1, b3k1)))
    if den == 0:
        raise _Guard(ZERO_DENOMINATOR, "v2")
    v2 = F.mul(num, F.inv(den))
    if v2 == 0:
        raise _Guard(ZERO_MULTIPLIER, "v2")

    alpha = [None, 0, 1, INF] + [None] * (k - 3)  # 1-based
    for j in range(k + 1, n + 1):
        t = F.mul(v2, B(2, j))
        d = F.add(B(1, j), t)
        if d == 0:
            raise _Guard(ZERO_DENOMINATOR, f"alpha[{j}]")
        alpha.append(F.mul(t, F.inv(d)))

    # alpha_i = (r2 - r1) alpha_{k+1} alpha_{k+2} / (r2 alpha_{k+2} - r1 alpha_{k+1})
    # for r1 = b_{1,k+1} / b_{i,k+1} and r2 = b_{1,k+2} / b_{i,k+2}; both
    # sides are multiplied by b_{i,k+1} b_{i,k+2} to leave one division
    prod = F.mul(alpha[k + 1], alpha[k + 2])
    for i in range(4, k + 1):
        bik1, bik2 = B(i, k + 1), B(i, k + 2)
        if bik1 == 0:
            raise _Guard(ENTRY_ZERO, f"b[{i}][{k + 1}]")
        if bik2 == 0:
            raise _Guard(ENTRY_ZERO, f"b[{i}][{k + 2}]")
        r1, r2 = F.mul(b1k1, bik2), F.mul(b1k2, bik1)
        d = F.sub(F.mul(r2, alpha[k + 2]), F.mul(r1, alpha[k + 1]))
        if d == 0:
            raise _Guard(ZERO_DENOMINATOR, f"alpha[{i}]")
        alpha[i] = F.mul(F.mul(F.sub(r2, r1), prod), F.inv(d))
    _check_distinct(alpha[1:])

    # v_i = D_1 / D_i for v_1 = 1, from column k+1.  l_3 is the monic
    # product P over the finite information points and l_i is
    # P / ((x - alpha_i) P'(alpha_i)) otherwise, so D_3 = b_{3,k+1} and
    # D_i = b_{i,k+1} (alpha_{k+1} - alpha_i) P'(alpha_i).  Each b_{i,k+1}
    # is nonzero here: rows 1-3 by the v2 and alpha[k+2] guards, the
    # others by the loop above.
    finite = [i for i in range(1, k + 1) if i != 3]

    def D(i):
        if i == 3:
            return b3k1
        acc = F.mul(B(i, k + 1), F.sub(alpha[k + 1], alpha[i]))
        for j in finite:
            if j != i:
                acc = F.mul(acc, F.sub(alpha[i], alpha[j]))
        return acc

    d1 = D(1)
    v = [None, 1] + [F.mul(d1, F.inv(D(i))) for i in range(2, k + 1)]
    # the finite l_i sum to 1, so every later column is v_j = sum v_i b_ij
    for j in range(k + 1, n + 1):
        acc = B(1, j)
        for i in finite[1:]:
            acc = F.add(acc, F.mul(v[i], B(i, j)))
        v.append(acc)
    _check_multipliers(v[1:])
    return _chart(F, tuple(alpha[1:]), k, v[1:])


def _chart(F: Field, raw, k: int, v):
    """(alpha, v) in the output chart: all finite up to length q, else inf last."""
    if len(raw) > F.q:
        return _recentre(F, raw, k, raw[-1], v)
    return trans_to_grs(F, raw, k, v)


def _recover_line(m: Matrix):
    """k = 2: column j of [I | B] is v_j (1, alpha_j), or v_j (0, 1) at
    alpha_j = inf, so each column reads off its point of PG(1, q)."""
    F = m.field
    alpha, v = [], []
    for b1, b2 in zip(*m.data):
        alpha.append(F.mul(b2, F.inv(b1)) if b1 else INF)
        v.append(b1 or b2)
    _check_distinct(alpha)
    _check_multipliers(v)
    return _chart(F, tuple(alpha), 2, v)


def _recover_fixed(m: Matrix):
    """k <= 1 or k >= n-1: the code is GRS iff it is MDS and n <= q+1, on
    the points 0..n-1, or 0..q-1 and inf at length q+1 (a longer input
    repeats inf).  v is the row for k = 1, all ones for k = 0 or n, and
    for k = n-1 the dual multipliers of the dual row (-b, 1)."""
    F = m.field
    k, n = m.rows, m.cols
    alpha = tuple(range(min(n, F.q))) + (INF,) * (n - F.q)
    _check_distinct(alpha)
    if k in (0, n):
        return alpha, (1,) * n
    if k == 1:
        _check_multipliers(m.data[0])
        return alpha, m.data[0]
    u = tuple(F.neg(r[-1]) for r in m.data) + (1,)
    _check_multipliers(u)
    return alpha, grs_dual_multipliers(GrsSpec(F, alpha, u, 1))


def _check_distinct(alpha):
    if len(set(alpha)) != len(alpha):  # INF is one object
        raise _Guard(REPEATED_ALPHA)


def _check_multipliers(v):
    if any(x == 0 for x in v):
        raise _Guard(ZERO_MULTIPLIER, "v-final")


def recover(m: Matrix) -> GrsVerdict:
    """Recover (alpha, v) from a systematic generator [I | B] and decide
    whether it is GRS.

    Any failed denominator, distinctness or nonzero check yields a
    GrsVerdict with grs=False and the first failing reason.  Otherwise
    every entry of B is checked against its closed form under the
    recovered spec, in O(nk) field operations, and a mismatch is
    CODE_MISMATCH.  The recovered information points are finite, so that
    closed form is exactly the systematic form of grs_generator(spec):
    a GRS verdict's spec regenerates the code.
    """
    k, n = m.rows, m.cols
    _validate_systematic(m)
    try:
        if k <= 1 or k >= n - 1:
            alpha, v = _recover_fixed(m)
        elif k == 2:
            alpha, v = _recover_line(m)
        else:
            alpha, v = _recover_parts(m)
    except _Guard as g:
        return GrsVerdict(False, reason=g.reason, stage=g.stage)
    spec = GrsSpec(m.field, alpha, v, k)
    # k = n has no B
    if k < n and not _spec_gives_block(m, spec):
        return GrsVerdict(False, reason=CODE_MISMATCH)
    return GrsVerdict(True, spec=spec)


def _spec_gives_block(m: Matrix, spec: GrsSpec) -> bool:
    """True iff B in m = [I | B] is the B of grs_generator(spec)'s
    systematic form, for 0 <= k < n and finite information points
    (for k = 0, B has no rows and is trivially accepted).

    A GRS block has b_ij = v_j L_i(alpha_j) / v_i for the Lagrange basis
    L_i on alpha_1..alpha_k (Roth and Seroussi 1985), and the leading
    coefficient of L_i in place of L_i(alpha_j) at alpha_j = inf.  With
    w_i = v_i prod_{t != i} (alpha_i - alpha_t) and
    P_j = v_j prod_t (alpha_j - alpha_t) that reads
    b_ij (alpha_j - alpha_i) w_i = P_j, and b_ij w_i = v_j at infinity:
    about 2k^2 + 4k(n-k) field operations and no inversion.
    """
    F, k = m.field, m.rows
    mul, sub = F.mul, F.sub
    info, v = spec.alpha[:k], spec.v
    w = []
    for i, ai in enumerate(info):
        acc = v[i]
        for t, at in enumerate(info):
            if t != i:
                acc = mul(acc, sub(ai, at))
        w.append(acc)
    for j, col in enumerate(zip(*(row[k:] for row in m.data)), k):
        aj = spec.alpha[j]
        if aj is INF:
            if any(mul(b, wi) != v[j] for b, wi in zip(col, w)):
                return False
            continue
        d = [sub(aj, ai) for ai in info]
        pj = v[j]
        for x in d:
            pj = mul(pj, x)
        if any(mul(mul(b, x), wi) != pj for b, x, wi in zip(col, d, w)):
            return False
    return True


def is_grs(g: Matrix) -> GrsVerdict:
    """Decide whether the code generated by g is an (extended) GRS code.

    Reduces g to [I | B] in one elimination (its pivots tell a
    rank-deficient g, which is an error, from a singular leading block,
    which is a verdict) and returns recover's verdict on [I | B].
    """
    k = g.rows
    m, pivots = linalg.rref(g)
    if len(pivots) < k:
        raise ValueError("generator matrix is not full rank")
    if pivots != tuple(range(k)):
        return GrsVerdict(False, reason=ECHELON_FAIL)
    return recover(m)


def cauchy_test(g: Matrix) -> bool:
    """True iff [I | A] generates a GRS code, which by Roth and Seroussi
    (1985) holds iff A is a generalized Cauchy matrix: for k, n-k >= 2,
    all entries of A nonzero, all 2x2 minors of the entrywise inverse C
    nonzero and all 3x3 minors of C zero.  So the verdict is is_grs's:
    False on a singular leading block, ValueError on a rank-deficient g.
    """
    return is_grs(g).grs


def brute_force_recover(code: LinearCode):
    """Exhaustive independent search for a GRS spec of a small code.

    Scans normalized candidates (alpha_1 = 0, alpha_2 = 1, v_1 = 1,
    remaining points over ordered tuples), solving the multipliers per
    column and verifying every entry.  Returns the first spec whose code
    equals the input, or None.  Budget-limited to q <= 13 and n <= 8.

    Only finite evaluation points are searched.  For n <= q that is
    complete: trans_to_grs rewrites any spec with a point at infinity
    into an all-finite one for the same code.  A GRS code of length q+1
    needs the point at infinity, so n > q raises ValueError instead of
    returning a false None.
    """
    F = code.field
    q, n, k = F.q, code.n, code.k
    if q > 13 or n > 8:
        raise ValueError("search budget is q <= 13 and n <= 8")
    if n > q:
        raise ValueError(f"finite-point search needs n <= q, got n={n}, q={q}")
    m, ok = linalg.echelonize(code.gen)
    if not ok:
        return None
    b = m.data
    if any(e == 0 for row in b for e in row[k:]):
        return None  # a GRS systematic block has no zero entries

    others = [e for e in range(q) if e not in (0, 1)]
    for rest in permutations(others, n - 2):
        alpha = (0, 1) + rest
        g_self = []
        ok_cand = True
        for i in range(k):
            acc = 1
            for j in range(k):
                if j != i:
                    acc = F.mul(acc, F.sub(alpha[i], alpha[j]))
            g_self.append(acc)
        ga = [1] * k  # g_i evaluated at alpha_{k+1}
        for i in range(k):
            acc = 1
            for j in range(k):
                if j != i:
                    acc = F.mul(acc, F.sub(alpha[k], alpha[j]))
            ga[i] = acc
        v = [0] * n
        v[0] = 1
        v_next = F.mul(b[0][k], F.mul(g_self[0], F.inv(ga[0])))
        v[k] = v_next
        for i in range(1, k):
            v[i] = F.mul(v_next, F.mul(ga[i], F.inv(F.mul(g_self[i], b[i][k]))))
        for j in range(k + 1, n):
            gj = 1
            for t in range(1, k):
                gj = F.mul(gj, F.sub(alpha[j], alpha[t]))
            g1aj = gj  # g_1(alpha_j): product over roots alpha_2..alpha_k
            v[j] = F.mul(b[0][j], F.mul(g_self[0], F.inv(g1aj)))
        for i in range(k):
            vi_inv = F.inv(v[i])
            gii_inv = F.inv(g_self[i])
            for j in range(k, n):
                gij = 1
                for t in range(k):
                    if t != i:
                        gij = F.mul(gij, F.sub(alpha[j], alpha[t]))
                expect = F.mul(F.mul(v[j], vi_inv), F.mul(gij, gii_inv))
                if expect != b[i][j]:
                    ok_cand = False
                    break
            if not ok_cand:
                break
        if not ok_cand:
            continue
        spec = GrsSpec(F, alpha, tuple(v), k)
        if code_eq(grs_generator(spec), code):
            return spec
    return None


# ---------------- instrumentation and benchmarking ----------------

class CountingField(Field):
    """A field whose public arithmetic calls are counted.

    No public operation of a Field calls another, so ops grows by exactly
    one per call of add, sub, neg, mul, inv or pow, on every field, and by
    2 for each nonzero entry of y per axpy(x, f, y): the sub and mul per
    entry that the row operation replaces.  Since it overrides axpy,
    elimination over it keeps list rows updated by axpy on every field
    (Field._rows), prime fields included, so those updates are counted.
    """

    __slots__ = ("ops",)

    def __init__(self, base: Field):
        # copy the base field rather than rebuild it, so its arithmetic
        # tables are shared, not built again
        for name in Field.__slots__:
            setattr(self, name, getattr(base, name))
        self.ops = 0

    def add(self, a, b):
        self.ops += 1
        return super().add(a, b)

    def sub(self, a, b):
        self.ops += 1
        return super().sub(a, b)

    def neg(self, a):
        self.ops += 1
        return super().neg(a)

    def mul(self, a, b):
        self.ops += 1
        return super().mul(a, b)

    def inv(self, a):
        self.ops += 1
        return super().inv(a)

    def pow(self, a, e):
        self.ops += 1
        return super().pow(a, e)

    def axpy(self, x, f, y):
        self.ops += 2 * (len(y) - y.count(0))
        return super().axpy(x, f, y)


def random_grs_spec(field: Field, n: int, k: int, rng: random.Random,
                    with_inf: bool = False, force_zero: bool = False) -> GrsSpec:
    """A uniformly drawn spec: distinct evaluation points (optionally with
    the point at infinity and/or 0 forced in) and nonzero multipliers."""
    q = field.q
    n_finite = n - 1 if with_inf else n
    if n_finite > q:
        raise ValueError("too many finite points")
    pts = rng.sample(range(q), n_finite)
    if force_zero and 0 not in pts:
        pts[rng.randrange(n_finite)] = 0
    alpha = list(pts)
    if with_inf:
        alpha.insert(rng.randrange(n), INF)
    v = [rng.randrange(1, q) for _ in range(n)]
    return GrsSpec(field, tuple(alpha), tuple(v), k)


def bench_recover(field: Field, k: int, n_list, trials: int, seed: int = 0):
    """Time and count recover on fresh random GRS instances.

    Echelonization is done outside the instrumented field, so the counts
    cover exactly recover: the recovery equations and the check of B.
    Every call of a public field operation (add, sub, neg, mul, inv, pow)
    counts once, on every field: no operation calls another, so an inv or
    a pow is one operation whatever it costs inside.  Returns one row per
    n with median wall time and median operation count.
    """
    # imported here, not at module level: statistics pulls in fractions,
    # decimal and numbers, about 4 ms of every import of grskit
    from statistics import median

    rng = random.Random(seed)
    rows = []
    if trials <= 0:
        return rows
    for n in n_list:
        if n > field.q:
            raise ValueError(f"n={n} exceeds q={field.q}")
        times = []
        counts = []
        for _ in range(trials):
            spec = random_grs_spec(field, n, k, rng)
            m, ok = linalg.echelonize(grs_generator(spec).gen)
            assert ok  # GRS codes are MDS
            cf = CountingField(field)
            mc = linalg._matrix(cf, m.data, n)
            t0 = time.perf_counter()
            verdict = recover(mc)
            times.append(time.perf_counter() - t0)
            assert verdict.grs
            counts.append(cf.ops)
        rows.append({
            "n": n,
            "k": k,
            "trials": trials,
            "median_ops": int(median(counts)),
            "median_seconds": median(times),
        })
    return rows
