"""Dense exact linear algebra over a finite field.

Matrices are immutable: entries live in a tuple of row tuples and every
operation returns a fresh Matrix.  All arithmetic goes through the
field's methods, so an instrumented field that overrides axpy (which
keeps elimination on list rows) sees every operation.

One elimination kernel, _eliminate (forward elimination to a unit-pivot
echelon form), serves everything: rank is its pivot count, det its signed
pivot product, rref adds back-substitution, and echelonize is rref plus
the check that the pivots fill the leading columns.  It works on the
rows through the field's row primitives (Field._rows), so each row
update, row i minus f times the pivot row, is on a prime field one
big-integer multiply-add of rows packed one int each, and elsewhere one
Field.axpy call, which skips the zero entries of the pivot row.  matmul
builds each output row with Field.axpy on every field, one axpy by -x per
nonzero entry x of a's row.
"""

from __future__ import annotations

from .gf import Field


class Matrix:
    """A rows × cols matrix of field-element encodings."""

    __slots__ = ("field", "data", "cols")

    def __init__(self, field: Field, rows, cols: int | None = None):
        data = tuple(tuple(r) for r in rows)
        if data:
            cols = len(data[0])
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            for e in r:
                field.check(e)
        self.field, self.data, self.cols = field, data, cols

    @property
    def rows(self) -> int:
        return len(self.data)

    def column(self, j):
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Matrix":
        return _matrix(self.field, zip(*self.data), self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data, self.cols))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def _matrix(field: Field, rows, cols: int) -> Matrix:
    """A Matrix on rows of cols field elements each, which its caller
    built: no validation."""
    m = object.__new__(Matrix)
    m.field, m.data, m.cols = field, tuple(tuple(r) for r in rows), cols
    return m


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    F = a.field
    neg, axpy = F.neg, F.axpy
    zero = [0] * b.cols
    out = []
    for ar in a.data:
        row = zero
        for x, bi in zip(ar, b.data):
            if x:
                row = axpy(row, neg(x), bi)
        out.append(row)
    return _matrix(F, out, b.cols)


def submatrix(m: Matrix, row_idx, col_idx) -> Matrix:
    rows = [[m.data[i][j] for j in col_idx] for i in row_idx]
    return _matrix(m.field, rows, len(col_idx))


def _eliminate(m: Matrix):
    """Forward Gaussian elimination, the one pivoting loop of this module.

    Scans the columns left to right, swaps the first row with a nonzero
    entry into place, scales it to a leading 1 and clears the entries
    below.  Returns (rows, pivot_columns, d, primitives): the echelon rows
    in the working form of the field's row primitives (Field._rows), d,
    the product of the pivots negated once per swap, which is the
    determinant when m is square and every column has a pivot, and the
    primitives themselves, which rref goes on with.
    """
    F = m.field
    mul = F.mul
    k = m.rows
    primitives = F._rows(k, m.cols)
    encode, entry, pivot, update, _ = primitives
    a = [encode(r) for r in m.data]
    pivots = []
    d = 1
    for c in range(m.cols):
        r = len(pivots)
        if r == k:
            break
        for piv in range(r, k):
            p = entry(a[piv], c)
            if p:
                break
        else:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            d = F.neg(d)
        d = mul(d, p)
        row = a[r] = pivot(a[r], F.inv(p) if p != 1 else 1)
        for i in range(r + 1, k):
            f = entry(a[i], c)
            if f:
                a[i] = update(a[i], f, row)
        pivots.append(c)
    return a, tuple(pivots), d, primitives


def rref(m: Matrix):
    """General reduced row echelon form.  Returns (M, pivot_columns)."""
    a, pivots, _, (_, entry, pivot, update, decode) = _eliminate(m)
    # back-substitution, bottom pivot first, so that no cleared entry
    # refills; the pivots below a pivot row may have updated it since
    # _eliminate reduced it, so it is reduced again before it serves
    for r in range(len(pivots) - 1, 0, -1):
        c, row = pivots[r], pivot(a[r], 1)
        for i in range(r):
            f = entry(a[i], c)
            if f:
                a[i] = update(a[i], f, row)
    return _matrix(m.field, map(decode, a), m.cols), pivots


def echelonize(m: Matrix):
    """Reduced row echelon form with pivots forced into columns 0..rows-1.

    Returns (M, ok).  ok is True iff the leading rows × rows block is
    invertible; then M = [I | B].  No column permutation is ever applied,
    so a failure is itself a verdict about the leading block.  On failure
    the returned matrix is the unmodified input.
    """
    if m.rows > m.cols:
        raise ValueError("more rows than columns")
    red, pivots = rref(m)
    if pivots != tuple(range(m.rows)):
        return m, False
    return red, True


def rank(m: Matrix) -> int:
    return len(_eliminate(m)[1])


def det(m: Matrix):
    """Determinant by Gaussian elimination; exact over the field."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d, _ = _eliminate(m)
    return d if len(pivots) == m.rows else 0


def right_kernel(m: Matrix) -> Matrix:
    """Basis matrix K with m @ K^T = 0 and rank(K) = cols - rank(m)."""
    F = m.field
    n = m.cols
    red, pivots = rref(m)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for i, pc in enumerate(pivots):
            e = red.data[i][f]
            if e != 0:
                vec[pc] = F.neg(e)
        basis.append(vec)
    return _matrix(F, basis, n)
