import random
from itertools import permutations, product

import pytest

from grskit.gf import Field, field_from_order
from grskit.grsid import CountingField
from grskit.linalg import (Matrix, matmul, submatrix,
                           echelonize, rref, rank, det, right_kernel)
from .conftest import COUNTEREXAMPLE_ROWS


def random_matrix(field, rows, cols, rng):
    return Matrix(field, [[rng.randrange(field.q) for _ in range(cols)]
                          for _ in range(rows)])


def test_echelonize_identity(f11):
    m = Matrix(f11, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    out, ok = echelonize(m)
    assert ok and out.data == m.data


def test_echelonize_already_systematic_is_fixed_point(f11):
    m = Matrix(f11, COUNTEREXAMPLE_ROWS)
    out, ok = echelonize(m)
    assert ok and out.data == m.data


def test_echelonize_rank_deficient_leading_block(f11):
    m = Matrix(f11, [[1, 1, 3], [2, 2, 5]])  # first two columns proportional
    out, ok = echelonize(m)
    assert not ok


def test_echelonize_idempotent(f11):
    rng = random.Random(0)
    for _ in range(25):
        m = random_matrix(f11, 3, 6, rng)
        out, ok = echelonize(m)
        if ok:
            again, ok2 = echelonize(out)
            assert ok2 and again.data == out.data


def test_det_basics(f11):
    assert det(Matrix(f11, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    a, b = 4, 9
    vdm = Matrix(f11, [[1, 1], [a, b]])
    assert det(vdm) == f11.sub(b, a)


@pytest.mark.parametrize("q", [5, 8, 16])
def test_det_multiplicative(q):
    f = field_from_order(q)
    rng = random.Random(q)
    for _ in range(100):
        a = random_matrix(f, 4, 4, rng)
        b = random_matrix(f, 4, 4, rng)
        assert f.mul(det(a), det(b)) == det(matmul(a, b))


def leibniz_det(m):
    """Sum over permutations of signed entry products, independent of any
    elimination."""
    F = m.field
    total = 0
    for perm in permutations(range(m.rows)):
        term = 1
        for i, j in enumerate(perm):
            term = F.mul(term, m.data[i][j])
        inversions = sum(1 for a in range(len(perm)) for b in range(a)
                         if perm[b] > perm[a])
        total = F.add(total, F.neg(term) if inversions % 2 else term)
    return total


@pytest.mark.parametrize("q", [13, 16, 27])
def test_det_matches_leibniz(q):
    f = field_from_order(q)
    rng = random.Random(q)
    assert det(Matrix(f, [], cols=0)) == 1 == leibniz_det(Matrix(f, [], cols=0))
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = random_matrix(f, n, n, rng)
        if n >= 2 and rng.random() < 0.3:  # a singular case: repeat a scaled row
            rows = [list(r) for r in m.data]
            c = rng.randrange(f.q)
            rows[-1] = [f.mul(c, e) for e in rows[0]]
            m = Matrix(f, rows)
        assert det(m) == leibniz_det(m)


def row_space(m):
    F = m.field
    out = set()
    for coeffs in product(range(F.q), repeat=m.rows):
        v = [0] * m.cols
        for c, row in zip(coeffs, m.data):
            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
        out.add(tuple(v))
    return out


@pytest.mark.parametrize("q", [4, 5, 9])
def test_rref_reproduces_row_space(q):
    f = field_from_order(q)
    rng = random.Random(100 + q)
    for _ in range(30):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 7)
        m = random_matrix(f, rows, cols, rng)
        if rows >= 2 and rng.random() < 0.4:
            data = [list(r) for r in m.data]
            data[-1] = [f.add(x, y) for x, y in zip(data[0], data[1])]
            m = Matrix(f, data)
        red, pivots = rref(m)
        assert row_space(red) == row_space(m)
        r = len(pivots)
        assert list(pivots) == sorted(set(pivots))
        assert all(not any(row) for row in red.data[r:])
        for i, c in enumerate(pivots):
            assert not any(red.data[i][:c])
            assert [row[c] for row in red.data] == [int(j == i) for j in range(rows)]


def test_rank_plus_nullity(f11):
    rng = random.Random(1)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(rows, 8)
        m = random_matrix(f11, rows, cols, rng)
        k = right_kernel(m)
        assert rank(m) + k.rows == cols
        if k.rows:
            assert not any(map(any, matmul(m, k.transpose()).data))
            assert rank(k) == k.rows


def test_minor_and_submatrix(f11):
    m = Matrix(f11, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert det(submatrix(m, (0, 1), (0, 1))) == f11.sub(f11.mul(1, 5), f11.mul(2, 4))
    with pytest.raises(ValueError):
        det(submatrix(m, (0, 1), (0,)))
    s = submatrix(m, (0, 2), (1, 2))
    assert s.data == ((2, 3), (8, 10))


def test_matmul_shape_errors(f11):
    a = Matrix(f11, [[1, 2]])
    b = Matrix(f11, [[1, 2]])
    with pytest.raises(ValueError):
        matmul(a, b)
    f5 = Field(5)
    with pytest.raises(ValueError):
        matmul(a, Matrix(f5, [[1], [2]]))


def _sparse_matrix(field, rows, cols, rng):
    # about a third of the entries zero, and row 0 (when there is one) all zero
    data = [[rng.randrange(1, field.q) if rng.random() < 2 / 3 else 0 for _ in range(cols)]
            for _ in range(rows)]
    if data:
        data[0] = [0] * cols
    return Matrix(field, data, cols=cols)


def _matmul_oracle(a, b):
    F = a.field
    out = []
    for ar in a.data:
        row = []
        for j in range(b.cols):
            acc = 0
            for x, bi in zip(ar, b.data):
                acc = F.add(acc, F.mul(x, bi[j]))
            row.append(acc)
        out.append(row)
    return Matrix(F, out, cols=b.cols)


# GF(8209), GF(2^14) and GF(3^9) lie above the table cap
@pytest.mark.parametrize("p,s", [(11, 1), (2, 4), (3, 2), (8209, 1), (2, 14), (3, 9)])
def test_matmul_matches_entrywise_sums(p, s):
    f = Field(p, s)
    rng = random.Random(f"matmul:{f.q}")
    for r, m, c in ((3, 4, 5), (1, 1, 1), (4, 2, 3), (2, 6, 1), (3, 0, 4), (0, 3, 2)):
        a = _sparse_matrix(f, r, m, rng)
        b = _sparse_matrix(f, m, c, rng)
        assert matmul(a, b) == _matmul_oracle(a, b), (r, m, c)


def test_matmul_counts_one_neg_and_one_axpy_per_nonzero_entry():
    # each nonzero a_ri costs one neg and an axpy by b's row i, which
    # counts 2 per nonzero entry of that row
    rng = random.Random(7)
    for q in (11, 16, 9):
        cf = CountingField(field_from_order(q))
        a = _sparse_matrix(cf, 5, 6, rng)
        b = _sparse_matrix(cf, 6, 7, rng)
        want = sum(1 + 2 * sum(1 for y in b.data[i] if y)
                   for ar in a.data for i, x in enumerate(ar) if x)
        cf.ops = 0
        matmul(a, b)
        assert cf.ops == want


def test_rref_pivots(f11):
    m = Matrix(f11, [[0, 1, 2], [0, 2, 4]])
    red, pivots = rref(m)
    assert pivots == (1,)
    assert red.data[0] == (0, 1, 2)


def test_matrix_validation(f11):
    with pytest.raises(ValueError):
        Matrix(f11, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(f11, [[1, 12]])
    with pytest.raises(ValueError):
        Matrix(f11, [], cols=None)
