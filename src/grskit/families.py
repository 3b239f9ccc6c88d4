"""Builders, MDS predicates and a GRS rule for the GRS-derived code families.

Families covered: modified GRS (one generator entry changed), extended
modified GRS, the row-removed subcode families (c/d), twisted GRS with a
constant-coefficient or top-degree hook, Roth-Lempel, and column-twisted
codes.  The MDS predicates (mgrs_is_mds, emgrs_is_mds and
roth_lempel_is_mds) decide a subset condition on the evaluation points
exactly, without building generator matrices.  The first two are one
certificate over a point set, _certificate, which settles the point 0 up
front for the products (t = m) and the reciprocal sums (t = 1) and folds
the nonzero points once per target.  They and the Roth-Lempel point sums
end in one tail, _fold_tail: a closure check first (no fold leaves the
group that the values generate), then for pairs (m = 2) one lookup of
target - x (sums) or target / x (products) among the values already
seen, and for any other size one DP over the values that subsets reach,
O(n·m·q) field operations within a budget (_SUBSET_CAP).  These
certificates are the only MDS verdicts of the length table.  The GRS
rule (mgrs_is_grs, emgrs_is_grs) decides every modified-GRS code from
its parameters alone: GRS iff eta = 0 and 0 is not a point where
min(k, n-k) >= 3, and iff MDS and n <= q+1 elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import Field, INF
from .linalg import Matrix
from .codes import (LinearCode, GrsSpec, grs_dual_multipliers, _eval_columns, _cols_to_code,
                    _check_distinct_finite, _check_nonzero)

TWIST_ZERO = "zero"
TWIST_TOP = "top"


@dataclass(frozen=True)
class MgrsParams:
    """Modified GRS: n-1 finite evaluation points plus one special column
    whose row-0 entry is 1 and row-t entry is eta."""

    field: Field
    alpha: tuple      # n-1 distinct finite points
    v: tuple          # n nonzero multipliers
    eta: int
    t: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "v", tuple(self.v))
        if len(self.v) != len(self.alpha) + 1:
            raise ValueError("need len(v) = len(alpha) + 1")
        _check_distinct_finite(self.field, self.alpha)
        _check_nonzero(self.field, self.v)
        self.field.check(self.eta)
        if not 1 <= self.t <= self.k - 1:
            raise ValueError("need 1 <= t <= k-1")
        if self.k > self.n:
            raise ValueError("k > n")

    @property
    def n(self) -> int:
        return len(self.v)


@dataclass(frozen=True)
class EmgrsParams:
    """Extended modified GRS: MgrsParams plus a top-coefficient column."""

    field: Field
    alpha: tuple
    v: tuple          # n nonzero multipliers
    v_ext: int        # multiplier of the appended top-coefficient column
    eta: int
    t: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "v", tuple(self.v))
        if self.k > self.n - 1:
            raise ValueError("need k <= n-1")
        # validates the fields shared with MgrsParams
        MgrsParams(self.field, self.alpha, self.v, self.eta, self.t, self.k)
        _check_nonzero(self.field, (self.v_ext,))

    @property
    def n(self) -> int:
        return len(self.v) + 1


@dataclass(frozen=True)
class TgrsParams:
    """Twisted GRS of length n+1 and dimension k: n evaluation points and a
    degree-k twist hooked to the constant (zero) or top-degree coefficient."""

    field: Field
    alpha: tuple      # n distinct finite points
    v: tuple          # n+1 nonzero multipliers
    lam: int
    hook: str
    k: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "v", tuple(self.v))
        if self.hook not in (TWIST_ZERO, TWIST_TOP):
            raise ValueError(f"unknown hook {self.hook!r}")
        if len(self.v) != len(self.alpha) + 1:
            raise ValueError("need len(v) = len(alpha) + 1")
        _check_distinct_finite(self.field, self.alpha)
        _check_nonzero(self.field, self.v)
        self.field.check(self.lam)
        if self.lam == 0:
            raise ValueError("twist coefficient must be nonzero")
        if not 1 <= self.k <= len(self.alpha):
            raise ValueError("need 1 <= k <= n")

    @property
    def n(self) -> int:
        return len(self.alpha) + 1


@dataclass(frozen=True)
class RothLempelParams:
    """Roth-Lempel code: a Vandermonde block with two appended columns."""

    field: Field
    a: tuple          # n-2 distinct points
    delta: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        _check_distinct_finite(self.field, self.a)
        self.field.check(self.delta)
        if self.k < 3:
            raise ValueError("need k >= 3")
        if not self.k + 3 <= self.n <= self.field.q + 2:
            raise ValueError("need k+3 <= n <= q+2")

    @property
    def n(self) -> int:
        return len(self.a) + 2


# ---------------- generator builders ----------------
#
# Every builder is codes._eval_columns on its evaluation points (INF for a
# top-coefficient column) plus at most two columns of its own.

def _mgrs_cols(field, alpha, v, eta, t, k):
    cols = _eval_columns(field, alpha, k, v)
    special = [0] * k
    special[0] = v[-1]
    special[t] = field.mul(v[-1], eta)
    cols.append(special)
    return cols


def mgrs_generator(p: MgrsParams) -> LinearCode:
    F = p.field
    return _cols_to_code(F, _mgrs_cols(F, p.alpha, p.v, p.eta, p.t, p.k), p.k)


def emgrs_generator(p: EmgrsParams) -> LinearCode:
    F = p.field
    cols = _mgrs_cols(F, p.alpha, p.v, p.eta, p.t, p.k)
    cols += _eval_columns(F, (INF,), p.k, (p.v_ext,))
    return _cols_to_code(F, cols, p.k)


def c_code_generator(field: Field, alpha, t: int, k: int) -> LinearCode:
    """Dimension-k subcode of a GRS code of dimension k+1: Vandermonde rows
    with exponent t removed, exponents running over {0..k} minus {t}."""
    alpha = tuple(alpha)
    _check_distinct_finite(field, alpha)
    if not 1 <= t < k - 1:
        raise ValueError("need 1 <= t < k-1")
    if k > len(alpha):
        raise ValueError("k > n")
    cols = [col[:t] + col[t + 1:] for col in _eval_columns(field, alpha, k + 1)]
    return _cols_to_code(field, cols, k)


def d_code_generator(field: Field, alpha, t: int, k: int) -> LinearCode:
    """Vandermonde block on n-1 points with a unit column at row t appended;
    shortening at the last position recovers the c-code family."""
    alpha = tuple(alpha)
    _check_distinct_finite(field, alpha)
    if not 1 <= t < k - 1:
        raise ValueError("need 1 <= t < k-1")
    if k > len(alpha) + 1:
        raise ValueError("k > n")
    cols = _eval_columns(field, alpha, k)
    unit = [0] * k
    unit[t] = 1
    cols.append(unit)
    return _cols_to_code(field, cols, k)


def tgrs_generator(p: TgrsParams) -> LinearCode:
    """Length n+1 generator with the twist lam * x^k folded into row 0
    (zero hook) or row k-1 (top-degree hook); the final column is the unit
    evaluation of the hooked row."""
    F = p.field
    k = p.k
    hook_row = 0 if p.hook == TWIST_ZERO else k - 1
    # row k of the (k+1)-row evaluation is v_j * a_j^k
    cols = _eval_columns(F, p.alpha, k + 1, p.v)
    for col in cols:
        col[hook_row] = F.add(col[hook_row], F.mul(p.lam, col.pop()))
    last = [0] * k
    last[hook_row] = p.v[-1]
    cols.append(last)
    return _cols_to_code(F, cols, k)


def tgrs_dual_parity(p: TgrsParams) -> Matrix:
    """Closed-form parity-check matrix of the twisted code, built from the
    standard dual multipliers u_i = 1/prod_(j != i)(alpha_i - alpha_j) of
    the evaluation points.

    Its denominators never vanish: sum u_i * alpha_i^(n-1) = 1, so the
    top hook divides by lam, and sum u_i / alpha_i = -1/prod(-alpha_j),
    nonzero for the zero hook's nonzero points.
    """
    F = p.field
    alpha = p.alpha
    n = len(alpha)
    k = p.k
    rows = n - k + 1
    if rows < 2:
        raise ValueError("parity-check form needs k <= n-1")
    u = grs_dual_multipliers(GrsSpec(F, alpha, (1,) * n, k))

    if p.hook == TWIST_ZERO:
        if any(a == 0 for a in alpha):
            raise ValueError("zero-hook closed form needs nonzero points")
        s_inv = 0
        for ui, ai in zip(u, alpha):
            s_inv = F.add(s_inv, F.mul(ui, F.inv(ai)))
        w = [F.mul(ui, F.inv(F.mul(ai, vi)))
             for ui, ai, vi in zip(u, alpha, p.v)]
        w_last = F.mul(F.neg(s_inv), F.inv(p.v[n]))
        eta = F.mul(p.lam, F.inv(s_inv))
        last = [0] * rows
        last[0] = 1
        last[rows - 1] = eta
    else:
        s_mix = 0
        for ui, ai in zip(u, alpha):
            term = F.add(F.pow(ai, n - 1), F.mul(p.lam, F.pow(ai, n)))
            s_mix = F.add(s_mix, F.mul(ui, term))
        w = [F.mul(ui, F.inv(vi)) for ui, vi in zip(u, p.v)]
        w_last = F.mul(F.neg(p.lam), F.inv(p.v[n]))
        delta = F.mul(s_mix, F.inv(p.lam))
        last = [0] * rows
        last[rows - 2] = 1
        last[rows - 1] = delta

    cols = _eval_columns(F, alpha, rows, w)
    cols.append([F.mul(w_last, e) for e in last])
    return _cols_to_code(F, cols, rows).gen


def roth_lempel_generator(p: RothLempelParams) -> LinearCode:
    """Vandermonde block on n-2 points plus the two columns e_{k-1} and
    e_{k-2} + delta * e_{k-1}."""
    F = p.field
    k = p.k
    cols = _eval_columns(F, p.a + (INF,), k)
    last = [0] * k
    last[k - 2] = 1
    last[k - 1] = p.delta
    cols.append(last)
    return _cols_to_code(F, cols, k)


def col_twisted_generator(field: Field, a, b: int, c: int, lam: int, k: int,
                          extended: bool = False) -> LinearCode:
    """Vandermonde block on a_1..a_{n-1} plus one twisted column evaluating
    b^i - lam * c^i; the extended variant appends a top-coefficient column."""
    a = tuple(a)
    _check_distinct_finite(field, a + (b, c))
    field.check(lam)
    if k < 0:
        raise ValueError("need k >= 0")
    if k > len(a) + 1:
        raise ValueError("k > n")
    F = field
    cols = _eval_columns(F, a, k)
    eb, ec = _eval_columns(F, (b, c), k, (1, lam))
    cols.append([F.sub(x, y) for x, y in zip(eb, ec)])
    if extended:
        cols += _eval_columns(F, (INF,), k)
    return _cols_to_code(F, cols, k)


# ---------------- MDS predicates ----------------
#
# A modified-GRS minor that uses the special column degenerates exactly
# when eta * pi_t(S) = (-1)^(m+1) * prod(S) for the (size-m) subset S of
# evaluation points it meets, where pi_t(S) is the coefficient of x^t in
# prod_{a in S}(x - a).  One DP over reachable folded values,
# _no_subset_reaches, decides every size with early exit (but the pairs
# of a field-element fold, which _fold_tail looks up).  Its t = 1
# (reciprocal sum) and t = m (product) folds are one field element each,
# so a layer holds at most q values; the general fold of the coefficients
# up to x^t is a tuple, and its layers can grow towards C(n, j).

_SUBSET_CAP = 1 << 18


def _no_subset_reaches(vals, m, op, unit, hit) -> bool:
    """True iff no m-subset of vals, folded with op from unit, satisfies hit.

    After the i-th value, layer j holds the distinct folds of the j-subsets
    of the values seen so far; a fold is kept once however many subsets
    reach it, so with at most q distinct folds the cost is O(n·m·q) instead
    of C(n, m).  Each new size-m fold is tested at once, so a hit stops the
    DP, and a layer that the remaining values can no longer complete to
    size m is dropped.  Holding more than _SUBSET_CAP folds raises
    ValueError.
    """
    n = len(vals)
    if m == 0:
        return not hit(unit)
    layers = [{unit}] + [set() for _ in range(m - 1)]
    held = 1
    for i, x in enumerate(vals):
        if any(hit(op(acc, x)) for acc in layers[m - 1]):
            return False
        low = m - (n - 1 - i)  # the values after x complete no layer below low
        for j in range(min(i + 1, m - 1), max(low, 1) - 1, -1):
            before = len(layers[j])
            layers[j].update(op(acc, x) for acc in layers[j - 1])
            held += len(layers[j]) - before
            if held > _SUBSET_CAP:
                raise ValueError(f"subset budget exceeded: more than {_SUBSET_CAP} "
                                 f"folded values held for m={m}, n={n}")
        for j in range(low):
            held -= len(layers[j])
            layers[j].clear()
    return True


def _outside_closure(vals, op, unit, target) -> bool:
    """True iff target is nonzero and outside the group that vals generate
    under op: the subgroup of the nonzero points under F.mul, or the
    F_p-span of the values under F.add.  Every fold of vals lies in it
    (a product may also be 0), so such a target is never reached; a
    target 0 is left to the DP.  The group grows by one generator at a
    time, coset by coset, so building it costs O(|group|) operations; past
    _SUBSET_CAP elements, the DP's own budget, the DP decides."""
    if target == 0:
        return False
    group = {unit}
    for x in vals:
        if x in group:
            continue
        # <group, x> is the union of the cosets x^j * group, j < i, for the
        # least i with x^i in group (x^j is x folded j times by op)
        grown, coset, power = set(group), list(group), x
        while power not in group:
            coset = [op(x, h) for h in coset]
            grown.update(coset)
            if len(grown) > _SUBSET_CAP:
                return False
            power = op(power, x)
        group = grown
    return target not in group


def _fold_tail(vals, op, unit, target, undo):
    """misses(m): no m-subset of vals folds with op from unit to target.
    The closure check runs once; a pair (m = 2) looks up undo(target, x)
    among the values before x, and any other m runs the DP."""
    if _outside_closure(vals, op, unit, target):
        return lambda m: True

    def misses(m):
        if m != 2:
            return _no_subset_reaches(vals, m, op, unit, target.__eq__)
        seen = set()
        for x in vals:
            if undo(target, x) in seen:
                return False
            seen.add(x)
        return True
    return misses


def _coefficient_condition_holds(F: Field, alpha, m, t, eta) -> bool:
    # any t: fold c_0..c_t of prod(x - a), multiplying by (x - a) and
    # truncating at degree t; c_0 = (-1)^m * prod(S), so S defeats MDS iff
    # eta * c_t + c_0 = 0 (c_t stays 0 when t > m, as pi_t does).
    add, mul = F.add, F.mul

    def times(c, na):
        return (mul(c[0], na), *(add(lo, mul(hi, na)) for lo, hi in zip(c, c[1:])))

    return _no_subset_reaches([F.neg(a) for a in alpha], m, times, (1,) + (0,) * t,
                              lambda c: add(mul(eta, c[t]), c[0]) == 0)


def _certificate(F: Field, alpha):
    """is_mds(p) for every MgrsParams or EmgrsParams p on the points alpha;
    each t = 1 or t = m fold and its closure are built once per target."""
    rest = [a for a in alpha if a != 0]
    tails = {}

    def holds(m, t, eta):
        if m <= 0:
            return True
        if t not in (1, m):
            return _coefficient_condition_holds(F, alpha, m, t, eta)
        # an m-subset defeats MDS iff its fold is the target: 1/eta for the
        # sum of reciprocals (t = 1), (-1)^(m+1) * eta for the product (t = m,
        # pi_m = 1).  Through 0 they are inf and 0, the target iff eta = 0,
        # and the parameters hold at least k-1 >= m points
        if eta == 0:
            return 0 not in alpha
        sums = t == 1
        target = F.inv(eta) if sums else eta if m % 2 else F.neg(eta)
        if (sums, target) not in tails:
            tails[sums, target] = (
                _fold_tail([F.inv(a) for a in rest], F.add, 0, target, F.sub) if sums
                else _fold_tail(rest, F.mul, 1, target, lambda y, x: F.mul(y, F.inv(x))))
        return tails[sums, target](m)

    def is_mds(p) -> bool:
        sizes = (p.k - 1, p.k - 2) if isinstance(p, EmgrsParams) else (p.k - 1,)
        return all(holds(m, p.t, p.eta) for m in sizes)
    return is_mds


def mgrs_is_mds(p: MgrsParams) -> bool:
    """MDS iff eta * pi_t(S) != (-1)^k * prod(S) for every (k-1)-subset S
    of the evaluation points."""
    return _certificate(p.field, p.alpha)(p)


def emgrs_is_mds(p: EmgrsParams) -> bool:
    """MDS iff the modified-GRS subset condition holds at sizes k-1 and k-2
    (the second size accounts for the appended top-coefficient column)."""
    return _certificate(p.field, p.alpha)(p)


def roth_lempel_is_mds(p: RothLempelParams) -> bool:
    """MDS iff no (k-1)-subset of the points sums to delta (Roth and
    Lempel 1989): a k-subset of columns made of e_(k-2) + delta * e_(k-1)
    and k-1 point columns S has minor +-V(S) * (delta - sum(S)), and every
    other k-subset has a nonzero Vandermonde minor."""
    return _fold_tail(p.a, p.field.add, 0, p.delta, p.field.sub)(p.k - 1)


# ---------------- GRS rule ----------------
#
# Where min(k, n-k) <= 2 a code is GRS iff it is MDS and n <= q+1: with
# k = 2 an MDS code's columns are distinct points of PG(1, q), and n-k <= 2
# follows by duality (k >= 2, as t >= 1).  Elsewhere n-1 >= k+2 columns
# (the finite points, and inf for emgrs) lie on the normal rational curve
# (1, x, ..., x^(k-1)), and with k >= 3 a GRS code on them has its points
# and multipliers fixed up to PGL(2, q) (Dür 1987).  So the code is GRS iff
# its special column e_0 + eta * e_t is a multiple of a further point of
# the curve: row 0 reads 1, so the point is finite; a row 1 <= i <= k-1
# other than t reads 0, so the point is 0; then row t reads eta = 0, and 0
# must not be a point already.


def _curve_rule(p, is_mds) -> bool:
    if min(p.k, p.n - p.k) <= 2:
        return p.n <= p.field.q + 1 and is_mds(p)
    return p.eta == 0 and 0 not in p.alpha


def mgrs_is_grs(p: MgrsParams) -> bool:
    """GRS iff eta = 0 and 0 is not a point, where min(k, n-k) >= 3;
    elsewhere GRS iff MDS (mgrs_is_mds) and n <= q+1."""
    return _curve_rule(p, mgrs_is_mds)


def emgrs_is_grs(p: EmgrsParams) -> bool:
    """GRS iff eta = 0 and 0 is not a point, where min(k, n-k) >= 3;
    elsewhere GRS iff MDS (emgrs_is_mds) and n <= q+1."""
    return _curve_rule(p, emgrs_is_mds)
