"""Reference arithmetic for the benchmark's input generation and output checks.

This module shares no code with grskit.  It reads a field from the same
(p, s, modulus) triple that grskit's matrix files carry and rebuilds the
arithmetic from it: an element encoding's base-p digits are polynomial
coefficients, constant term least significant, reduced modulo the monic
modulus.  Products go through log/antilog tables built here, so a fault in
grskit's arithmetic cannot hide itself in a check.

INF (None) marks the point at infinity of an extended GRS code.
"""

from __future__ import annotations

INF = None


def _digits(e, p, s):
    out = []
    for _ in range(s):
        out.append(e % p)
        e //= p
    return out


def _undigits(d, p):
    e = 0
    for c in reversed(d):
        e = e * p + c
    return e


class RefField:
    """GF(p^s) given by an explicit monic modulus (ascending coefficients)."""

    def __init__(self, p, s, modulus):
        modulus = tuple(modulus)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree s")
        self.p, self.s, self.q = p, s, p ** s
        self.modulus = modulus
        q = self.q
        if s == 1:
            self._add = None
        else:
            digits = [_digits(e, p, s) for e in range(q)]
            self._add = [[_undigits([(x + y) % p for x, y in zip(da, db)], p)
                          for db in digits] for da in digits]
        self._neg = [self._add_neg(e) for e in range(q)]
        gen = next(g for g in range(2, q) if self._order(g) == q - 1) if q > 2 else 1
        exp = [1] * (2 * q)
        for i in range(1, 2 * q):
            exp[i] = self._mul_slow(exp[i - 1], gen)
        log = [0] * q
        for i in range(q - 1):
            log[exp[i]] = i
        self._exp, self._log = exp, log

    def _add_neg(self, e):
        if self.s == 1:
            return (-e) % self.p
        return _undigits([(-d) % self.p for d in _digits(e, self.p, self.s)], self.p)

    def _mul_slow(self, a, b):
        p, s, m = self.p, self.s, self.modulus
        if s == 1:
            return a * b % p
        da, db = _digits(a, p, s), _digits(b, p, s)
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * s - 2, s - 1, -1):
            c = prod[top]
            if c:
                for i in range(s):
                    prod[top - s + i] = (prod[top - s + i] - c * m[i]) % p
        return _undigits(prod[:s], p)

    def _order(self, g):
        x, n = g, 1
        while x != 1:
            x = self._mul_slow(x, g)
            n += 1
        return n

    # -- arithmetic --

    def add(self, a, b):
        if self._add is None:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self._neg[b])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self.s == 1:
            return a * b % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def dot(self, xs, ys):
        """Sum of xs[i] * ys[i]."""
        if self.s == 1:
            return sum(map(int.__mul__, xs, ys)) % self.p
        exp, log, add = self._exp, self._log, self._add
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = add[acc][exp[log[x] + log[y]]]
        return acc

    def scale_row(self, c, row):
        if self.s == 1:
            p = self.p
            return [c * x % p for x in row]
        return [self.mul(c, x) for x in row]

    def add_rows(self, r1, r2):
        if self.s == 1:
            p = self.p
            return [(x + y) % p for x, y in zip(r1, r2)]
        add = self._add
        return [add[x][y] for x, y in zip(r1, r2)]

    def header(self):
        return f"field p={self.p} s={self.s} mod={','.join(map(str, self.modulus))}"

    def kind(self):
        if self.s == 1:
            return "prime"
        return "char2" if self.p == 2 else "oddext"


def irreducible_moduli(p, s):
    """Every monic irreducible of degree s over GF(p), ascending coefficients."""
    out = []
    for low in range(p ** s):
        cand = tuple(_digits(low, p, s)) + (1,)
        if all(_root_free(cand, p, d) for d in range(1, s // 2 + 1)):
            out.append(cand)
    return out


def primitive_moduli(p, s):
    """The irreducible moduli of degree s under which x (encoding p) has
    order p^s - 1."""
    return [m for m in irreducible_moduli(p, s) if _x_order(p, s, m) == p ** s - 1]


def _x_order(p, s, m):
    # multiply by x repeatedly: shift the digits up and reduce the top one
    e, n = [0, 1] + [0] * (s - 2), 1
    one = [1] + [0] * (s - 1)
    while e != one:
        top = e[-1]
        e = [0] + e[:-1]
        e = [(c - top * mi) % p for c, mi in zip(e, m)]
        n += 1
    return n


def _root_free(m, p, d):
    # no monic factor of degree d
    for low in range(p ** d):
        f = tuple(_digits(low, p, d)) + (1,)
        r = list(m)
        for top in range(len(r) - 1, d - 1, -1):
            c = r[top]
            if c:
                for i in range(d + 1):
                    r[top - d + i] = (r[top - d + i] - c * f[i]) % p
        if not any(r[:d]):
            return False
    return True


# ---------------- GRS closed forms ----------------

def grs_rows(F, alpha, v, k):
    """Canonical generator: row i is v_j alpha_j^i; the column at infinity
    evaluates the top coefficient."""
    rows = [[0] * len(alpha) for _ in range(k)]
    for j, (a, vj) in enumerate(zip(alpha, v)):
        if a is INF:
            rows[k - 1][j] = vj
            continue
        x = vj
        for i in range(k):
            rows[i][j] = x
            x = F.mul(x, a)
    return rows


def dual_multipliers(F, alpha, v):
    """u with GRS_{n-k}(alpha, u) = GRS_k(alpha, v)^perp:
    u_i = (v_i prod_{j != i, alpha_j finite} (alpha_i - alpha_j))^-1 at
    finite points, u_inf = -1/v_inf."""
    out = []
    for i, (ai, vi) in enumerate(zip(alpha, v)):
        if ai is INF:
            out.append(F.neg(F.inv(vi)))
            continue
        prod = vi
        for j, aj in enumerate(alpha):
            if j != i and aj is not INF:
                prod = F.mul(prod, F.sub(ai, aj))
        out.append(F.inv(prod))
    return out


def parity_rows(F, alpha, v, k):
    """An (n-k) x n parity-check matrix of GRS_k(alpha, v)."""
    return grs_rows(F, alpha, dual_multipliers(F, alpha, v), len(alpha) - k)


def spec_is_valid(F, alpha, v, k):
    finite = [a for a in alpha if a is not INF]
    return (len(v) == len(alpha) and 0 <= k <= len(alpha)
            and len(set(finite)) == len(finite) >= len(alpha) - 1
            and all(0 <= a < F.q for a in finite)
            and all(0 < x < F.q for x in v))


def systematic_block(F, alpha, v, k):
    """B with [I | B] generating GRS_k(alpha, v); alpha_0..alpha_{k-1} finite.

    Entry (i, j) is v_j L_i(alpha_j) / v_i for the Lagrange basis L_i on the
    first k points, and v_j [x^{k-1}] L_i / v_i at the point at infinity.
    """
    info = alpha[:k]
    if any(a is INF for a in info):
        raise ValueError("the first k points must be finite")
    w = []
    for i, ai in enumerate(info):
        prod = 1
        for l, al in enumerate(info):
            if l != i:
                prod = F.mul(prod, F.sub(ai, al))
        w.append(F.inv(prod))
    rows = []
    for i, ai in enumerate(info):
        scale = F.mul(w[i], F.inv(v[i]))
        row = []
        for aj, vj in zip(alpha[k:], v[k:]):
            if aj is INF:
                row.append(F.mul(vj, scale))
                continue
            pj = 1
            for l, al in enumerate(info):
                if l != i:
                    pj = F.mul(pj, F.sub(aj, al))
            row.append(F.mul(F.mul(vj, scale), pj))
        rows.append(row)
    return rows


def rank(F, rows):
    a = [list(r) for r in rows]
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = F.inv(a[r][c])
        a[r] = F.scale_row(inv, a[r])
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = F.add_rows(a[i], F.scale_row(F.neg(a[i][c]), a[r]))
        r += 1
        if r == len(a):
            break
    return r


def orthogonal(F, rows, parity):
    """True iff every row is orthogonal to every parity row."""
    return all(F.dot(r, h) == 0 for r in rows for h in parity)


def generates_grs(F, rows, alpha, v, k):
    """True iff rows generate exactly GRS_k(alpha, v)."""
    if not spec_is_valid(F, alpha, v, k) or len(rows) != k:
        return False
    if any(len(r) != len(alpha) for r in rows):
        return False
    return orthogonal(F, rows, parity_rows(F, alpha, v, k)) and rank(F, rows) == k


def all_minors_nonzero(F, rows):
    """MDS test for small codes: every k x k minor of the k x n generator
    is nonzero, by elimination on each column subset."""
    from itertools import combinations
    k = len(rows)
    n = len(rows[0])
    for cols in combinations(range(n), k):
        if rank(F, [[r[c] for c in cols] for r in rows]) < k:
            return False
    return True


def construct_rows(F, info):
    """The CLI's deterministic completion of mgrs/emgrs: points 0..m-1,
    multipliers all one; the special column has 1 in row 0 and eta in
    row t; emgrs appends the top-coefficient column."""
    n, k, t, eta = info["n"], info["k"], info["t"], info["eta"]
    m = n - 1 if info["family"] == "mgrs" else n - 2
    cols = []
    for a in range(m):
        col, x = [], 1
        for _ in range(k):
            col.append(x)
            x = F.mul(x, a)
        cols.append(col)
    special = [0] * k
    special[0] = 1
    special[t] = F.add(special[t], eta)
    cols.append(special)
    if info["family"] == "emgrs":
        cols.append([0] * (k - 1) + [1])
    return [list(r) for r in zip(*cols)]
