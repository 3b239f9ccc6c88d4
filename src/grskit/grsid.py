"""GRS identification and recovery from generator matrices.

Given a systematic generator [I | B] of an [n, k] code, the recovery
routine reconstructs evaluation points and column multipliers in O(nk)
field operations, assuming the code is (extended) GRS.  The guarded
variant checks every denominator before dividing and every
distinctness/nonzero condition after, turning any failure into a
deterministic non-GRS verdict; combined with a final regenerate-and-
compare step this decides GRS-ness exactly.

Supported shapes are 3 <= k <= n-2 (the equations need the three leading
identity columns and two parity columns).  One chart change,
x -> 1/(x - c), moves the recovered points off infinity: up to length q
c is a field element that is no point, so all points become finite; at
length q+1 c is the last point, which keeps the point at infinity, now in
the last coordinate.  Longer inputs fail the distinctness guard, which is
the correct verdict.

is_grs eliminates its input once; the pivot columns separate a
rank-deficient input (an error) from a singular leading block (a
non-GRS verdict).  cauchy_test decides the Roth-Seroussi Cauchy form of
[I | A], which for 3 <= k <= n-2 is is_grs's verdict; on the other shapes
only the nonzero entries and, for k = 2, distinct column ratios remain.
brute_force_recover is the exhaustive oracle for small codes of length
at most q.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations
from statistics import median

from .gf import Field, INF, is_finite, proj_inv, format_element
from . import linalg
from .linalg import Matrix
from .codes import LinearCode, GrsSpec, grs_generator, code_eq

ECHELON_FAIL = "echelon-fail"
ZERO_DENOMINATOR = "zero-denominator"
REPEATED_ALPHA = "repeated-alpha"
ZERO_MULTIPLIER = "zero-multiplier"
CODE_MISMATCH = "code-mismatch"
ENTRY_ZERO = "entry-zero"


class RecoveryError(ValueError):
    """A guard condition tripped in strict mode."""


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
            alpha = " ".join(format_element(a) for a in self.spec.alpha)
            v = " ".join(str(x) for x in self.spec.v)
            return f"verdict=grs k={self.spec.k} alpha={alpha} v={v}"
        out = f"verdict=non-grs reason={self.reason}"
        if self.stage:
            out += f" stage={self.stage}"
        return out


def trans_to_grs(field: Field, alpha, k: int, v=None):
    """Rewrite an evaluation-point vector containing the point at infinity
    into an all-finite one generating the same code.

    The chart change is x -> 1/(x - c) with c the smallest field element
    outside the point set (c = 0 whenever 0 is not a point); the multiplier
    at each finite point is scaled by (alpha - c)^(k-1).  A vector without
    infinity is returned unchanged.  Returns (alpha, v); v is None when not
    supplied.
    """
    if not any(a is INF for a in alpha):
        return tuple(alpha), None if v is None else tuple(v)
    taken = {a for a in alpha if is_finite(a)}
    c = next((e for e in range(field.q) if e not in taken), None)
    if c is None:
        raise ValueError("no shift element available (length q+1 with 0 present)")
    return _recentre(field, alpha, k, c, v)


def _recentre(F: Field, alpha, k: int, c, v=None):
    """Apply x -> 1/(x - c), which keeps the code fixed: c goes to
    infinity and infinity to 0.  The multiplier at each point sent to a
    finite nonzero value is scaled by (alpha - c)^(k-1); the others keep
    theirs.  Returns (alpha, v); v is None when not supplied."""
    shifted = [F.sub(a, c) if is_finite(a) else INF for a in alpha]
    out_a = tuple(proj_inv(F, a) for a in shifted)
    if v is None:
        return out_a, None
    return out_a, tuple(vj if a is INF or a == 0 else F.mul(vj, F.pow(a, k - 1))
                        for a, vj in zip(shifted, v))


def _validate_systematic(m: Matrix):
    k, n = m.rows, m.cols
    for i in range(k):
        for j in range(k):
            if m.data[i][j] != (1 if i == j else 0):
                raise ValueError("matrix is not in systematic form [I | B]")


def _recover_parts(m: Matrix):
    """Run the recovery equations on a systematic matrix.

    Returns (alpha, v, raw_alpha) where raw_alpha is the evaluation vector
    before the infinity point is transformed away (its first three entries
    are always 0, 1, inf).  Raises _Guard on any failed check.
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

    alpha = [None] * (n + 1)  # 1-based
    alpha[1], alpha[2], alpha[3] = 0, 1, INF
    for j in range(k + 1, n + 1):
        t = F.mul(v2, B(2, j))
        d = F.add(B(1, j), t)
        if d == 0:
            raise _Guard(ZERO_DENOMINATOR, f"alpha[{j}]")
        alpha[j] = F.mul(t, F.inv(d))

    if k == 3:
        d3 = F.mul(b3k1, F.add(b1k1, F.mul(v2, b2k1)))
        if d3 == 0:
            raise _Guard(ZERO_DENOMINATOR, "v3")
        v3 = F.neg(F.mul(F.mul(b1k1, F.mul(v2, b2k1)), F.inv(d3)))
        v = [None] * (n + 1)
        v[1], v[2], v[3] = 1, v2, v3
        for i in range(4, n + 1):
            v[i] = F.add(B(1, i), F.mul(v2, B(2, i)))
        _check_distinct(alpha[1:])
        _check_multipliers(v[1:])
        raw = tuple(alpha[1:])
        if n > F.q:  # every element is a point: send alpha_n to infinity
            return _recentre(F, raw, k, raw[-1], v[1:]) + (raw,)
        return trans_to_grs(F, raw, k, v[1:]) + (raw,)

    for i in range(4, k + 1):
        bik1, bik2 = B(i, k + 1), B(i, k + 2)
        if bik1 == 0:
            raise _Guard(ENTRY_ZERO, f"b[{i}][{k + 1}]")
        if bik2 == 0:
            raise _Guard(ENTRY_ZERO, f"b[{i}][{k + 2}]")
        r1 = F.mul(b1k1, F.inv(bik1))
        r2 = F.mul(b1k2, F.inv(bik2))
        d = F.sub(F.mul(r2, alpha[k + 2]), F.mul(r1, alpha[k + 1]))
        if d == 0:
            raise _Guard(ZERO_DENOMINATOR, f"alpha[{i}]")
        prod = F.mul(alpha[k + 1], alpha[k + 2])
        alpha[i] = F.mul(F.mul(F.sub(r2, r1), prod), F.inv(d))

    _check_distinct(alpha[1:])
    raw = tuple(alpha[1:])
    if n > F.q:
        a_new, _ = _recentre(F, raw, k, raw[-1])
    else:
        a_new, _ = trans_to_grs(F, raw, k)

    # multipliers via the Lagrange structure at columns 1..k and column k+1,
    # normalized to v_{k+1} = 1
    v = [None] * (n + 1)
    for i in range(1, k + 1):
        bik1 = B(i, k + 1)
        if bik1 == 0:
            raise _Guard(ENTRY_ZERO, f"b[{i}][{k + 1}]")
        g_at_next = 1
        g_at_self = 1
        ai = a_new[i - 1]
        anext = a_new[k]
        for j in range(1, k + 1):
            if j != i:
                aj = a_new[j - 1]
                g_at_next = F.mul(g_at_next, F.sub(anext, aj))
                g_at_self = F.mul(g_at_self, F.sub(ai, aj))
        v[i] = F.mul(g_at_next, F.inv(F.mul(g_at_self, bik1)))

    d0 = 1
    for j in range(2, k + 1):
        d0 = F.mul(d0, F.sub(a_new[0], a_new[j - 1]))
    d0 = F.inv(F.mul(v[1], d0))
    for i in range(k + 1, n + 1):
        ai = a_new[i - 1]
        if ai is INF:
            h = d0  # top coefficient of the degree k-1 row polynomial
        else:
            h = d0
            for j in range(2, k + 1):
                h = F.mul(h, F.sub(ai, a_new[j - 1]))
        if B(1, i) == 0:
            raise _Guard(ZERO_MULTIPLIER, f"v[{i}]")
        v[i] = F.mul(B(1, i), F.inv(h))
    _check_multipliers(v[1:])
    return tuple(a_new), tuple(v[1:]), raw


def _check_distinct(alpha):
    finite = [a for a in alpha if is_finite(a)]
    n_inf = len(alpha) - len(finite)
    if len(set(finite)) != len(finite) or n_inf > 1:
        raise _Guard(REPEATED_ALPHA)


def _check_multipliers(v):
    if any(x == 0 for x in v):
        raise _Guard(ZERO_MULTIPLIER, "v-final")


def recover(m: Matrix, strict: bool = False) -> GrsVerdict:
    """Recover (alpha, v) from a systematic generator [I | B].

    In guarded mode (the default) any failed denominator, distinctness or
    nonzero check yields a NotGrs verdict with the first failing reason;
    strict mode raises RecoveryError instead and otherwise trusts the
    input to be a GRS generator.
    """
    k, n = m.rows, m.cols
    if not 3 <= k <= n - 2:
        raise ValueError(f"recovery needs 3 <= k <= n-2, got k={k}, n={n}")
    _validate_systematic(m)
    try:
        alpha, v, _raw = _recover_parts(m)
    except _Guard as g:
        if strict:
            raise RecoveryError(f"{g.reason}" + (f" at {g.stage}" if g.stage else "")) from None
        return GrsVerdict(False, reason=g.reason, stage=g.stage)
    spec = GrsSpec(m.field, alpha, v, k)
    return GrsVerdict(True, spec=spec)


def is_grs(g: Matrix) -> GrsVerdict:
    """Decide whether the code generated by g is an (extended) GRS code.

    Reduces g to echelon form once (its pivots tell a rank-deficient g,
    which is an error, from a singular leading block, which is a verdict),
    runs guarded recovery, regenerates the candidate code and compares
    reduced echelon forms bit-exactly.  The verdict is the spec on
    success, else the first failing reason.
    """
    k, n = g.rows, g.cols
    if not 3 <= k <= n - 2:
        raise ValueError(f"identification needs 3 <= k <= n-2, got k={k}, n={n}")
    m, pivots = linalg.rref(g)
    if len(pivots) < k:
        raise ValueError("rank-deficient generator matrix")
    if pivots != tuple(range(k)):
        return GrsVerdict(False, reason=ECHELON_FAIL)
    verdict = recover(m, strict=False)
    if not verdict.grs:
        return verdict
    regen = grs_generator(verdict.spec)
    m1, ok1 = linalg.echelonize(regen.gen)
    if not ok1 or m1.data != m.data:
        return GrsVerdict(False, reason=CODE_MISMATCH)
    return verdict


def cauchy_test(g: Matrix) -> bool:
    """True iff the systematic form [I | A] has A of Cauchy type (Roth and
    Seroussi): all entries of A nonzero, all 2x2 minors of the entrywise
    inverse C nonzero, all 3x3 minors of C zero.

    By Roth and Seroussi (1985) that holds iff [I | A] generates a GRS
    code, so for 3 <= k <= n-2 the verdict is is_grs's.  The other shapes
    have no 3x3 minor of C, and a 2x2 minor only for k = 2, where the one
    on columns j, j' vanishes iff a_2j / a_1j = a_2j' / a_1j'.  A singular
    leading block has no systematic form, so the verdict is False; a
    rank-deficient g raises ValueError.
    """
    k, n = g.rows, g.cols
    if 3 <= k <= n - 2:
        return is_grs(g).grs
    m, pivots = linalg.rref(g)
    if len(pivots) < k:
        raise ValueError("rank-deficient generator matrix")
    if pivots != tuple(range(k)):
        return False
    a = [row[k:] for row in m.data]
    if any(e == 0 for row in a for e in row):
        return False
    if k == 2:
        F = m.field
        return len({F.mul(y, F.inv(x)) for x, y in zip(*a)}) == n - k
    return True


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
    """A field whose public arithmetic calls are counted."""

    __slots__ = ("ops",)

    def __init__(self, base: Field):
        # copy the base field rather than rebuild it: construction calls
        # pow, which would count before ops exists
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
    """Time and count the recovery step on fresh random GRS instances.

    Echelonization is done outside the instrumented field, so the counts
    cover exactly the recovery equations.  Every call of a public field
    operation (add, sub, neg, mul, inv, pow) counts once.  On prime fields
    inv and pow compute directly, so each is one operation.  On extension
    fields pow multiplies through the public mul, and inv is pow(a, q-2),
    so their inner multiplications are counted too.  Returns one row per n
    with median wall time and median operation count.
    """
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
            mc = Matrix(cf, m.data, cols=n, check=False)
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
