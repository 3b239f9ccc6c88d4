"""Generic linear-code operations and the GRS evaluation-code carrier.

A LinearCode is a field plus a full-rank generator matrix.  A GrsSpec is
the pair (alpha, v) of evaluation points and nonzero column multipliers
defining a (possibly extended) generalized Reed-Solomon code; at most one
evaluation point may be the point at infinity, whose column evaluates the
top coefficient.

Coordinate positions are 1-based in every public signature and in the
file formats; internally everything is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .gf import Field, INF, is_finite, format_element, parse_element, _parse_decimal
from . import linalg
from .linalg import Matrix


class FormatError(ValueError):
    """A malformed matrix or spec file."""


class LinearCode:
    """An [n, k] linear code given by a rank-k generator matrix."""

    __slots__ = ("field", "gen")

    def __init__(self, field: Field, gen: Matrix, check: bool = True):
        if gen.field != field:
            raise ValueError("generator field mismatch")
        if gen.rows > gen.cols:
            raise ValueError("k > n")
        if check and linalg.rank(gen) != gen.rows:
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
        F = self.field
        finite = [a for a in self.alpha if is_finite(a)]
        for a in finite:
            F.check(a)
        if len(set(finite)) != len(finite) or len(finite) < n - 1:
            raise ValueError("evaluation points must be pairwise distinct "
                             "with at most one point at infinity")
        for x in self.v:
            F.check(x)
            if x == 0:
                raise ValueError("column multipliers must be nonzero")

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def extended(self) -> bool:
        return any(a is INF for a in self.alpha)


def grs_generator(spec: GrsSpec) -> LinearCode:
    """Canonical k × n generator: row i is v_j * alpha_j^i, and the column
    at infinity is v_j * e_{k-1} (the top-coefficient evaluation)."""
    F = spec.field
    k = spec.k
    cols = []
    for a, vj in zip(spec.alpha, spec.v):
        if a is INF:
            col = [0] * k
            col[k - 1] = vj
        else:
            col = []
            x = vj
            for _ in range(k):
                col.append(x)
                x = F.mul(x, a)
        cols.append(col)
    rows = [[cols[j][i] for j in range(spec.n)] for i in range(k)]
    return LinearCode(F, Matrix(F, rows, cols=spec.n, check=False), check=False)


def grs_dual_multipliers(spec: GrsSpec) -> tuple:
    """Multipliers u with GRS(alpha, u) of dimension n-k equal to the dual
    of GRS(alpha, v): u_i = v_i^-1 * prod_{j != i} (alpha_i - alpha_j)^-1.
    All evaluation points must be finite."""
    if spec.extended:
        raise ValueError("dual multipliers need all-finite evaluation points")
    F = spec.field
    out = []
    for i, ai in enumerate(spec.alpha):
        prod = 1
        for j, aj in enumerate(spec.alpha):
            if j != i:
                prod = F.mul(prod, F.sub(ai, aj))
        out.append(F.inv(F.mul(spec.v[i], prod)))
    return tuple(out)


def dual(code: LinearCode) -> LinearCode:
    kern = linalg.right_kernel(code.gen)
    return LinearCode(code.field, kern, check=False)


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
    gen = Matrix(code.field, red.data[:len(pivots)], cols=len(keep), check=False)
    return LinearCode(code.field, gen, check=False)


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
    return LinearCode(F, gen)


_MIN_DISTANCE_CAP = 1 << 24


def min_distance(code: LinearCode) -> int:
    """Exact minimum Hamming weight by enumerating all q^k messages; more
    than _MIN_DISTANCE_CAP messages raises ValueError before any."""
    F = code.field
    q, k, n = F.q, code.k, code.n
    if q ** k > _MIN_DISTANCE_CAP:
        raise ValueError(f"enumeration budget exceeded: {q}^{k} > {_MIN_DISTANCE_CAP}")
    rows = code.gen.data
    best = n + 1
    for msg in product(range(q), repeat=k):
        if not any(msg):
            continue
        w = 0
        for j in range(n):
            acc = 0
            for i in range(k):
                m = msg[i]
                if m:
                    acc = F.add(acc, F.mul(m, rows[i][j]))
            if acc:
                w += 1
                if w >= best:
                    break
        if w < best:
            best = w
            if best == 1:
                break
    return best


_MDS_CAP = 1 << 24


def is_mds(code: LinearCode) -> bool:
    """True iff every k columns of the generator are linearly independent,
    i.e. every k × k minor is nonzero (equivalently d = n - k + 1).

    The code is MDS iff its dual is, so when 2k > n the [n, n-k] dual is
    walked instead; its generator has n - rank rows, so a rank-deficient
    input (every k × k minor zero) is caught there by the row count.  The
    walk ends in C(n, k) = C(n, n-k) leaves; more than _MDS_CAP raises
    ValueError before any walking, so an input past the budget gets no
    verdict even when an early column subset is dependent.
    """
    n, k = code.n, code.k
    if comb(n, k) > _MDS_CAP:
        raise ValueError(f"MDS budget exceeded: C({n},{k}) > {_MDS_CAP} "
                         f"column subsets for n={n}, k={k}")
    if 2 * k > n:
        code = dual(code)
        if code.k != n - k:
            return False
    return _columns_independent(code.field, code.gen.transpose().data, code.k)


def _columns_independent(F: Field, cols, k: int) -> bool:
    """True iff every k of the k-vectors in cols are linearly independent.

    Walks increasing column subsets depth first, so subsets that share a
    prefix share its elimination.  A node holds the span of its columns
    as a reduced echelon basis: (pivot, row) pairs, each row 1 at its own
    pivot and 0 at the others.  A new column is reduced against it and,
    if nonzero, joins it as one more pivot; a zero reduction is a
    dependent set of at most k columns, which lies in some k-subset, so
    the walk stops.  At depth k - 1 the span is a hyperplane with one
    free coordinate f, and h = e_f - sum_i row_i[f] e_{pivot_i} is normal
    to it, so each leaf is the one dot product h . g.
    """
    n = len(cols)
    if k == 0:
        return True
    mul, sub = F.mul, F.sub

    def walk(basis, start):
        d = len(basis)
        if d == k - 1:
            pivots = {p for p, _ in basis}
            f = next(c for c in range(k) if c not in pivots)
            h = [(p, row[f]) for p, row in basis if row[f]]
            for j in range(start, n):
                g = cols[j]
                acc = g[f]
                for p, c in h:
                    if g[p]:
                        acc = sub(acc, mul(c, g[p]))
                if not acc:
                    return False
            return True
        for j in range(start, n - k + d + 1):
            r = list(cols[j])
            for p, row in basis:
                c = r[p]
                if c:
                    r = [sub(x, mul(c, y)) if y else x for x, y in zip(r, row)]
            p = next((i for i, x in enumerate(r) if x), None)
            if p is None:
                return False
            if r[p] != 1:
                inv = F.inv(r[p])
                r = [mul(inv, x) if x else 0 for x in r]
            child = [(q, [sub(x, mul(row[p], y)) if y else x
                          for x, y in zip(row, r)]) if row[p] else (q, row)
                     for q, row in basis]
            child.append((p, r))
            if not walk(child, j + 1):
                return False
        return True

    return walk([], 0)


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
        mod = tuple(_parse_decimal(c) for c in kv["mod"].split(","))
    except (ValueError, KeyError) as e:
        raise FormatError(f"bad field header: {line!r}") from e
    try:
        return Field(p, s, mod)
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
    return Matrix(field, rows, cols=n, check=False)


def format_spec_file(spec: GrsSpec) -> str:
    lines = [
        _field_header(spec.field),
        "alpha: " + " ".join(format_element(a) for a in spec.alpha),
        "v: " + " ".join(str(x) for x in spec.v),
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
        k = _parse_decimal(body(lines[3], "k")[0])
        return GrsSpec(field, tuple(alpha), tuple(v), k)
    except (ValueError, IndexError) as e:
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
