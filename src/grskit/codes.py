"""Generic linear-code operations, the GRS evaluation-code carrier and the
evaluation map behind every generator builder.

A LinearCode is a field plus a full-rank generator matrix.  A GrsSpec is
the pair (alpha, v) of evaluation points and nonzero column multipliers
defining a (possibly extended) generalized Reed-Solomon code; at most one
evaluation point may be the point at infinity, whose column evaluates the
top coefficient.

Coordinate positions are 1-based in every public signature and in the
file formats; internally everything is 0-based.

A matrix or spec file takes its field from gf.field_new, so the files of
one field share one interned Field.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .gf import (Field, INF, is_finite, field_new, parse_element, _parse_decimal,
                 _parse_modulus)
from . import linalg
from .linalg import Matrix


class FormatError(ValueError):
    """A malformed matrix or spec file."""


class LinearCode:
    """An [n, k] linear code given by a rank-k generator matrix: full rank
    is the type's invariant, and the constructor refuses any other."""

    __slots__ = ("field", "gen")

    def __init__(self, field: Field, gen: Matrix):
        if gen.field != field:
            raise ValueError("generator field mismatch")
        if gen.rows > gen.cols:
            raise ValueError("k > n")
        if linalg.rank(gen) != gen.rows:
            raise ValueError("generator matrix is not full rank")
        self.field = field
        self.gen = gen

    @property
    def n(self) -> int:
        return self.gen.cols

    @property
    def k(self) -> int:
        return self.gen.rows

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over {self.field!r})"


def _check_distinct_finite(field: Field, alpha):
    if len(set(map(field.check, alpha))) != len(alpha):
        raise ValueError("evaluation points must be distinct")


def _check_nonzero(field: Field, v):
    if 0 in map(field.check, v):
        raise ValueError("multipliers must be nonzero")


@dataclass(frozen=True)
class GrsSpec:
    """Evaluation points and column multipliers of a (possibly extended) GRS code."""

    field: Field
    alpha: tuple
    v: tuple
    k: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "v", tuple(self.v))
        n = len(self.alpha)
        if len(self.v) != n:
            raise ValueError("alpha and v must have the same length")
        if not 0 <= self.k <= n:
            raise ValueError("need 0 <= k <= n")
        finite = [a for a in self.alpha if is_finite(a)]
        _check_distinct_finite(self.field, finite)
        if len(finite) < n - 1:
            raise ValueError("at most one evaluation point may be inf")
        _check_nonzero(self.field, self.v)

    @property
    def n(self) -> int:
        return len(self.alpha)


def _eval_columns(F: Field, alpha, k, v=None) -> list:
    """The evaluation map: column j is v_j * (1, a, ..., a^(k-1)) for a
    finite point a = alpha_j and v_j * e_(k-1) (the top coefficient) for
    a = INF; v defaults to all ones."""
    cols = []
    for j, a in enumerate(alpha):
        x = 1 if v is None else v[j]
        if a is INF:
            cols.append([0] * (k - 1) + [x])
            continue
        col = []
        for _ in range(k):
            col.append(x)
            x = F.mul(x, a)
        cols.append(col)
    return cols


def _full_rank_code(field: Field, gen: Matrix) -> LinearCode:
    """A LinearCode on a generator its caller proves full rank: no elimination."""
    code = object.__new__(LinearCode)
    code.field, code.gen = field, gen
    return code


def _cols_to_code(F: Field, cols, k) -> LinearCode:
    # Rank is checked iff the generator is square (n < k is refused as
    # k > n): with n > k the columns of every caller hold k distinct
    # points, or k-1 points and inf, or span the twisted-GRS rows (a message
    # vanishing on the n-1 points has a nonzero hook coefficient, which the
    # last column reads), so rank is k.
    rows = [[c[i] for c in cols] for i in range(k)]
    gen = linalg._matrix(F, rows, len(cols))
    return LinearCode(F, gen) if len(cols) <= k else _full_rank_code(F, gen)


def grs_generator(spec: GrsSpec) -> LinearCode:
    """Canonical k × n generator: row i is v_j * alpha_j^i, and the column
    at infinity is v_j * e_{k-1} (the top-coefficient evaluation)."""
    F = spec.field
    return _cols_to_code(F, _eval_columns(F, spec.alpha, spec.k, spec.v), spec.k)


def grs_dual_multipliers(spec: GrsSpec) -> tuple:
    """Multipliers u with GRS(alpha, u) of dimension n-k equal to the dual
    of GRS(alpha, v): u_i = v_i^-1 * prod_{j != i} (alpha_i - alpha_j)^-1,
    the product over the finite alpha_j, and u = -1/v at infinity."""
    F = spec.field
    u = []
    for i, ai in enumerate(spec.alpha):
        prod = 1 if is_finite(ai) else F.neg(1)
        for j, aj in enumerate(spec.alpha):
            if j != i and is_finite(ai) and is_finite(aj):
                prod = F.mul(prod, F.sub(ai, aj))
        u.append(F.inv(F.mul(spec.v[i], prod)))
    return tuple(u)


def dual(code: LinearCode) -> LinearCode:
    # a kernel basis is independent, and has n - k rows for a rank-k code
    return _full_rank_code(code.field, linalg.right_kernel(code.gen))


def _check_positions(code: LinearCode, positions):
    pos = sorted(set(positions))
    if not pos:
        raise ValueError("empty position set")
    if pos[0] < 1 or pos[-1] > code.n:
        raise ValueError(f"positions must lie in 1..{code.n}")
    return [p - 1 for p in pos]


def puncture(code: LinearCode, positions) -> LinearCode:
    """Delete the 1-based coordinates and re-derive a full-rank generator."""
    drop = set(_check_positions(code, positions))
    keep = [j for j in range(code.n) if j not in drop]
    if not keep:
        raise ValueError("puncturing removed every coordinate")
    sub = linalg.submatrix(code.gen, range(code.k), keep)
    red, pivots = linalg.rref(sub)
    if not pivots:
        raise ValueError("punctured code is empty")
    gen = linalg._matrix(code.field, red.data[:len(pivots)], len(keep))
    return _full_rank_code(code.field, gen)


def shorten(code: LinearCode, positions) -> LinearCode:
    """Restrict to codewords that vanish on the 1-based coordinates, then
    delete those coordinates."""
    posn = _check_positions(code, positions)
    F = code.field
    restr = linalg.submatrix(code.gen, range(code.k), posn)
    msgs = linalg.right_kernel(restr.transpose())
    if msgs.rows == 0:
        raise ValueError("shortened code is empty")
    sub_gen = linalg.matmul(msgs, code.gen)
    keep = [j for j in range(code.n) if j not in set(posn)]
    gen = linalg.submatrix(sub_gen, range(sub_gen.rows), keep)
    # independent kernel rows times a full-rank generator, all zero on the
    # deleted coordinates, so the kept columns have full rank
    return _full_rank_code(F, gen)


_MIN_DISTANCE_CAP = 1 << 24


def min_distance(code: LinearCode) -> int:
    """Exact minimum Hamming weight of a nonzero codeword; n + 1 for k = 0.

    Reads the weight distribution of the smaller of the code and its
    dual (MacWilliams–Sloane ch. 5): the [n, k] code itself when
    k <= n - k, else the [n, n-k] dual, mapped back by the MacWilliams
    identity; a LinearCode has full rank, so its dual has exactly n - k
    rows.  The walk costs about n·q^(k'-1) field operations on the side of
    dimension k' = min(k, n-k); past _MIN_DISTANCE_CAP it raises
    ValueError before any walking.
    """
    F, n, k = code.field, code.n, code.k
    q, kw = F.q, min(k, n - k)
    if n * q ** kw > _MIN_DISTANCE_CAP * q:
        side = "code" if k <= n - k else "dual"
        raise ValueError(f"enumeration budget exceeded: n*q^(k-1) = {n}*{q}^{kw - 1} "
                         f"> {_MIN_DISTANCE_CAP} for the [{n},{kw}] {side}")
    if k <= n - k:
        dist = _weight_distribution(F, code.gen.data, n)
    else:
        dist = _macwilliams(_weight_distribution(F, dual(code).gen.data, n), q)
    return next((w for w in range(1, n + 1) if dist[w]), n + 1)


def _weight_distribution(F: Field, rows, n: int) -> list:
    """A_0..A_n of the row space of rows, counted over messages: A_w is the
    number of messages m with wt(m·G) = w, so the A_w sum to q^k and
    A_0 > 1 iff the rows are dependent.

    Every nonzero message is a nonzero scalar times (m', a), where m' on
    the first k - 1 rows is zero or has leading coefficient 1, and a
    scalar keeps the weight.  The prefixes m' are walked depth first, one
    row update c - m·r_i per node, one Field.axpy call; m runs over every
    nonzero element, so the children are those of c + m·r_i.  At a
    prefix codeword c the weights of all q words c + a·r_k come from one
    histogram of the roots a = -c_j/r_kj; a position with r_kj = 0 is
    zero iff c_j = 0.
    Scaling column j by -1/r_kj and moving the support of r_k to the
    front keeps every weight and makes each root the entry c_j itself.
    """
    q = F.q
    dist = [1] + [0] * n
    if not rows:
        return dist
    *head, last = rows
    front = [j for j in range(n) if last[j]]
    w = len(front)
    dist[w] += q - 1
    scale = [F.neg(F.inv(last[j])) for j in front]
    head = [[F.mul(r[j], t) if r[j] else 0 for j, t in zip(front, scale)]
            + [r[j] for j in range(n) if not last[j]] for r in head]
    axpy = F.axpy

    def walk(c, i):
        if i == len(head):
            roots = Counter(c[:w])
            base = n - c[w:].count(0)
            for h in roots.values():
                dist[base - h] += q - 1
            dist[base] += (q - 1) * (q - len(roots))
            return
        r = head[i]
        walk(c, i + 1)
        for m in range(1, q):
            walk(axpy(c, m, r), i + 1)

    for i, r in enumerate(head):
        walk(r, i + 1)
    return dist


def _macwilliams(dist, q: int) -> list:
    """The weight distribution of the dual of a full-rank code C whose
    distribution is dist = (B_0..B_n): A_j = |C|^-1 · Σ_i B_i·K_j(i), with
    the Krawtchouk sum K_j(i) = Σ_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s),
    in exact integers."""
    n, size = len(dist) - 1, sum(dist)
    out = []
    for j in range(n + 1):
        t = sum(b * sum((-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
                        for s in range(min(i, j) + 1))
                for i, b in enumerate(dist) if b)
        assert t % size == 0, "MacWilliams sum not divisible by |C|"
        out.append(t // size)
    return out


_MDS_CAP = 1 << 24


def is_mds(code: LinearCode) -> bool:
    """True iff every k columns of the generator are linearly independent,
    i.e. every k × k minor is nonzero (equivalently d = n - k + 1).

    The code is MDS iff its dual is, so when 2k > n the [n, n-k] dual is
    walked instead; a LinearCode has full rank, so that dual has exactly
    n - k rows.  The walk ends in C(n, k) = C(n, n-k) leaves; more than
    _MDS_CAP raises ValueError before any walking.  A zero column (k >= 1)
    lies in a dependent k-subset, so it answers False before that budget,
    in O(nk).
    """
    n, k = code.n, code.k
    if k and not all(any(col) for col in zip(*code.gen.data)):
        return False
    if comb(n, k) > _MDS_CAP:
        raise ValueError(f"MDS budget exceeded: C({n},{k}) > {_MDS_CAP} "
                         f"column subsets for n={n}, k={k}")
    if 2 * k > n:
        code = dual(code)
    return _columns_independent(code.field, code.gen.transpose().data, code.k)


def _columns_independent(F: Field, cols, k: int) -> bool:
    """True iff every k of the k-vectors in cols are linearly independent.

    Walks increasing column subsets depth first, so subsets that share a
    prefix share their elimination.  A node at depth d holds the columns
    after its last choice, each reduced modulo the span of the d chosen
    columns, in the k - d coordinates that have no pivot yet: the Schur
    complement.  Choosing the next column picks its first nonzero
    coordinate p as a pivot, scales it by one inverse and eliminates p
    from each later column, one Field.axpy call each.  A later column
    that reduces to zero closes a dependent set of at most k columns,
    which lies in some k-subset, so the walk stops there.  At depth
    k - 1 that zero check is the leaf.
    """
    if k == 0:
        return True
    if not all(any(g) for g in cols):
        return False
    mul, axpy = F.mul, F.axpy

    def walk(rest, left):
        for i in range(len(rest) - left + 1):
            r = rest[i]
            p = next(c for c, x in enumerate(r) if x)
            inv = F.inv(r[p])
            r = [mul(inv, x) if x else 0 for x in r[:p] + r[p + 1:]]
            later = []
            for g in rest[i + 1:]:
                c = g[p]
                g = g[:p] + g[p + 1:]
                if c:
                    g = axpy(g, c, r)
                    if not any(g):
                        return False
                later.append(g)
            if left > 2 and not walk(later, left - 1):
                return False
        return True

    return k == 1 or walk(cols, k)


def code_eq(c1: LinearCode, c2: LinearCode) -> bool:
    """Equality of codes as sets of codewords.

    Compares reduced row echelon forms bit-exactly: a row space has
    exactly one, whatever its pivot columns.
    """
    if c1.field != c2.field:
        raise ValueError("codes over different fields")
    if c1.n != c2.n or c1.k != c2.k:
        return False
    return linalg.rref(c1.gen)[0].data == linalg.rref(c2.gen)[0].data


# ---------------- file formats ----------------

def _field_header(field: Field) -> str:
    mod = ",".join(str(c) for c in field.modulus)
    return f"field p={field.p} s={field.s} mod={mod}"


def _parse_field_header(line: str) -> Field:
    parts = line.split()
    if len(parts) != 4 or parts[0] != "field":
        raise FormatError(f"bad field header: {line!r}")
    try:
        kv = dict(p.split("=", 1) for p in parts[1:])
        p = _parse_decimal(kv["p"])
        s = _parse_decimal(kv["s"])
        mod = _parse_modulus(kv["mod"])
    except (ValueError, KeyError) as e:
        raise FormatError(f"bad field header: {line!r}") from e
    try:
        return field_new(p, s, mod)
    except ValueError as e:
        raise FormatError(str(e)) from e


def format_matrix_file(m: Matrix) -> str:
    lines = [_field_header(m.field), f"matrix {m.rows} {m.cols}"]
    for r in m.data:
        lines.append(" ".join(str(e) for e in r))
    return "\n".join(lines) + "\n"


def parse_matrix_file(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise FormatError("matrix file too short")
    field = _parse_field_header(lines[0])
    head = lines[1].split()
    if len(head) != 3 or head[0] != "matrix":
        raise FormatError(f"bad matrix header: {lines[1]!r}")
    try:
        k, n = _parse_decimal(head[1]), _parse_decimal(head[2])
    except ValueError:
        raise FormatError(f"bad matrix header: {lines[1]!r}") from None
    if len(lines) != 2 + k:
        raise FormatError(f"expected {k} matrix rows, found {len(lines) - 2}")
    rows = []
    for ln in lines[2:]:
        toks = ln.split()
        if len(toks) != n:
            raise FormatError(f"expected {n} entries per row, found {len(toks)}")
        try:
            rows.append([parse_element(field, t) for t in toks])
        except ValueError as e:
            raise FormatError(str(e)) from e
    return linalg._matrix(field, rows, n)


def format_spec_file(spec: GrsSpec) -> str:
    lines = [
        _field_header(spec.field),
        "alpha: " + " ".join(map(str, spec.alpha)),
        "v: " + " ".join(map(str, spec.v)),
        f"k: {spec.k}",
    ]
    return "\n".join(lines) + "\n"


def parse_spec_file(text: str) -> GrsSpec:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 4:
        raise FormatError("spec file must have exactly 4 lines")
    field = _parse_field_header(lines[0])
    def body(line, tag):
        if not line.startswith(tag + ":"):
            raise FormatError(f"expected {tag!r} line, got {line!r}")
        return line[len(tag) + 1:].split()
    try:
        alpha = [parse_element(field, t, allow_inf=True) for t in body(lines[1], "alpha")]
        v = [parse_element(field, t) for t in body(lines[2], "v")]
        k_toks = body(lines[3], "k")
        if len(k_toks) != 1:
            raise ValueError(f"expected one token on the k line, got {len(k_toks)}")
        return GrsSpec(field, tuple(alpha), tuple(v), _parse_decimal(k_toks[0]))
    except ValueError as e:
        raise FormatError(str(e)) from e


def _read_ascii(path) -> str:
    # every token is an ASCII decimal or "inf": any other byte is malformed
    with open(path, encoding="ascii") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise FormatError(f"non-ASCII byte at offset {e.start}") from e


def write_matrix_file(path, m: Matrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix_file(m))


def read_matrix_file(path) -> Matrix:
    return parse_matrix_file(_read_ascii(path))


def write_spec_file(path, spec: GrsSpec) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_spec_file(spec))


def read_spec_file(path) -> GrsSpec:
    return parse_spec_file(_read_ascii(path))
