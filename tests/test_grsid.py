import random
from itertools import combinations
from unittest import mock

import pytest

from grskit.gf import Field, field_from_order, INF
from grskit import linalg
from grskit.linalg import Matrix, matmul, rank, det, echelonize, rref, submatrix
from grskit.codes import (LinearCode, GrsSpec, grs_generator, puncture, shorten,
                          is_mds, code_eq)
from grskit.families import MgrsParams, mgrs_generator
from grskit import grsid
from grskit.grsid import (trans_to_grs, recover, is_grs, cauchy_test,
                          brute_force_recover, bench_recover, random_grs_spec,
                          CountingField, GrsVerdict, ECHELON_FAIL,
                          CODE_MISMATCH, ENTRY_ZERO, ZERO_DENOMINATOR)


# ---------------- trans_to_grs ----------------

def test_trans_identity_without_infinity():
    f5 = Field(5)
    a, v = trans_to_grs(f5, (0, 1, 3), 2, (1, 2, 3))
    assert a == (0, 1, 3) and v == (1, 2, 3)


def test_trans_worked_f5_case():
    # shift by 2 (smallest element outside {0,1}), then invert
    f5 = Field(5)
    a, v = trans_to_grs(f5, (0, 1, INF), 2, (1, 1, 1))
    assert a == (2, 4, 0)
    assert v == (3, 4, 1)


def test_trans_preserves_code():
    rng = random.Random(21)
    for _ in range(100):
        q = rng.choice((7, 8, 9, 11, 13))
        f = field_from_order(q)
        n = rng.randrange(4, min(q, 10) + 1)
        k = rng.randrange(2, n)
        spec = random_grs_spec(f, n, k, rng, with_inf=True,
                               force_zero=rng.random() < 0.5)
        a, v = trans_to_grs(f, spec.alpha, k, spec.v)
        assert all(x is not INF for x in a)
        assert code_eq(grs_generator(spec),
                       grs_generator(GrsSpec(f, a, v, k)))


def test_trans_no_shift_element_available():
    f5 = Field(5)
    alpha = (0, 1, 2, 3, 4, INF)
    with pytest.raises(ValueError):
        trans_to_grs(f5, alpha, 3, (1,) * 6)


# ---------------- recover ----------------

@pytest.mark.parametrize("k", [3, 4])
def test_recover_single_instance(k):
    f13 = Field(13)
    spec = random_grs_spec(f13, 10, k, random.Random(23))
    code = grs_generator(spec)
    m, ok = grsid.linalg.echelonize(code.gen)
    assert ok
    verdict = recover(m)
    assert verdict.grs
    assert code_eq(grs_generator(verdict.spec), code)


def test_recover_quick_tour_k3_line(f11):
    # the README quick tour's spec: for k = 3 the exact v is pinned, not
    # only v up to a common factor
    spec = GrsSpec(f11, (0, 1, 2, 3, 4, 5), (1,) * 6, 3)
    assert is_grs(grs_generator(spec).gen).format() == \
        "verdict=grs k=3 alpha=7 5 0 9 2 10 v=9 1 1 9 3 5"


def test_recover_requires_systematic_form(f11):
    m = Matrix(f11, [[1, 1, 0, 0, 1, 2], [0, 1, 0, 0, 3, 4], [0, 0, 1, 0, 5, 6]])
    with pytest.raises(ValueError):
        recover(m)


def test_recover_range_check(f11):
    # every shape gets a verdict: [3,2] and [3,0] are GRS
    for m in (Matrix(f11, [[1, 0, 1], [0, 1, 1]]), Matrix(f11, [], cols=3)):
        verdict = recover(m)
        assert verdict.grs and code_eq(grs_generator(verdict.spec), LinearCode(f11, m))
    # a zero entry at k = 1 and k = n-1, a repeated point at k = 2
    for rows in ([[1, 0, 3]], [[1, 0, 0], [0, 1, 2]], [[1, 0, 1, 2], [0, 1, 1, 2]]):
        assert not recover(Matrix(f11, rows)).grs


def test_guarded_recover_never_raises():
    rng = random.Random(25)
    crafted = [
        [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
        [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1]],
        [[1, 0, 0, 1, 2, 3], [0, 1, 0, 1, 2, 3], [0, 0, 1, 0, 0, 0]],
    ]
    f11 = Field(11)
    for rows in crafted:
        v = recover(Matrix(f11, rows))
        assert not v.grs and v.reason is not None
    for _ in range(400):
        q = rng.choice((7, 8, 9, 11))
        f = field_from_order(q)
        n = rng.randrange(5, min(q + 2, 11))
        k = rng.randrange(3, n - 1)
        b = [[rng.randrange(q) for _ in range(n - k)] for _ in range(k)]
        rows = [[1 if i == j else 0 for j in range(k)] + b[i] for i in range(k)]
        verdict = recover(Matrix(f, rows))
        if verdict.grs:
            assert verdict.spec is not None


def test_recover_reports_first_failing_guard():
    # with two failing guards in one loop the verdict names the earlier.
    # A column j that is a multiple of e_3 has alpha_j denominator
    # b_1j + v2 b_2j = 0.  A row i whose B part is row 3's has
    # b_1j / b_ij = c / alpha_j, as at alpha_3 = inf, so alpha_i's
    # denominator is 0.
    f = Field(13)
    k, n = 5, 10
    m, ok = echelonize(grs_generator(random_grs_spec(f, n, k, random.Random(24))).gen)
    assert ok and recover(m).grs

    def first_guard(*edits):
        rows = [list(r) for r in m.data]
        for i, j, x in edits:  # 1-based, as in the stages
            rows[i - 1][j - 1] = x
        verdict = recover(Matrix(f, rows, cols=n))
        return verdict.reason, verdict.stage

    def copy_row3(i):
        return [(i, j, m.data[2][j - 1]) for j in range(k + 1, n + 1)]

    assert first_guard(*[(i, j, 0) for i in (1, 2) for j in (k + 4, k + 3)]) == \
        (ZERO_DENOMINATOR, f"alpha[{k + 3}]")
    assert first_guard((5, k + 1, 0), (4, k + 1, 0)) == (ENTRY_ZERO, f"b[4][{k + 1}]")
    # row 4 is checked in full before row 5
    assert first_guard((5, k + 1, 0), (4, k + 2, 0)) == (ENTRY_ZERO, f"b[4][{k + 2}]")
    assert first_guard(*copy_row3(5), *copy_row3(4)) == (ZERO_DENOMINATOR, "alpha[4]")
    # every alpha_j is found before any alpha_i
    assert first_guard(*copy_row3(4), (1, n, 0), (2, n, 0)) == \
        (ZERO_DENOMINATOR, f"alpha[{n}]")


def test_recover_grs_inputs():
    rng = random.Random(34)
    for q, n, k in ((11, 9, 3), (11, 12, 3), (13, 10, 4), (8, 9, 5), (9, 10, 6)):
        f = field_from_order(q)
        spec = random_grs_spec(f, n, k, rng, with_inf=n > q)
        code = grs_generator(spec)
        m, ok = grsid.linalg.echelonize(code.gen)
        assert ok
        verdict = recover(m)
        assert verdict.grs
        assert code_eq(grs_generator(verdict.spec), code)


# ---------------- is_grs ----------------

def is_grs_by_regeneration(g):
    """Reference is_grs: the same elimination and guarded recovery with
    recover's check of B switched off, then the candidate code regenerated
    from the spec and its reduced echelon form compared bit for bit with
    the input's, where recover reads each entry of B from its closed form."""
    k = g.rows
    m, pivots = rref(g)
    if len(pivots) < k:
        raise ValueError("generator matrix is not full rank")
    if pivots != tuple(range(k)):
        return GrsVerdict(False, reason=ECHELON_FAIL)
    with mock.patch.object(grsid, "_spec_gives_block", lambda m, spec: True):
        verdict = recover(m)
    if not verdict.grs:
        return verdict
    m1, ok1 = echelonize(grs_generator(verdict.spec).gen)
    if not ok1 or m1.data != m.data:
        return GrsVerdict(False, reason=CODE_MISMATCH)
    return verdict


def test_counterexample_verdicts(counterexample):
    v = is_grs(counterexample.gen)
    assert not v.grs
    p = puncture(counterexample, [7])
    s = shorten(counterexample, [7])
    vp = is_grs(p.gen)
    vs = is_grs(s.gen)
    assert vp.grs and vs.grs
    assert code_eq(grs_generator(vp.spec), p)
    assert code_eq(grs_generator(vs.spec), s)


def test_worked_example_codes_are_non_grs(f11, f8):
    m1 = mgrs_generator(MgrsParams(f11, (2, 4, 8, 5, 10, 1, 0), (1,) * 8,
                                   f11.neg(1), 2, 3))
    assert not is_grs(m1.gen).grs
    # the README's [8,3] code: recover on its systematic form checks B too
    assert recover(rref(m1.gen)[0]).format() == "verdict=non-grs reason=code-mismatch"
    w = f8.primitive
    m2 = mgrs_generator(MgrsParams(f8, (f8.pow(w, 5), f8.pow(w, 3),
                                        f8.pow(w, 2), w, 0, 1),
                                   (1,) * 7, 1, 1, 4))
    assert not is_grs(m2.gen).grs


def test_is_grs_roundtrip_sweep():
    rng = random.Random(26)
    for q in (7, 8, 9, 11, 13, 16, 25, 32):
        f = field_from_order(q)
        for _ in range(8):
            n = rng.randrange(6, min(q, 14) + 1)
            k = rng.randrange(3, n - 2)
            spec = random_grs_spec(f, n, k, rng,
                                   with_inf=rng.random() < 0.5,
                                   force_zero=rng.random() < 0.5)
            code = grs_generator(spec)
            verdict = is_grs(code.gen)
            assert verdict.grs, (q, n, k)
            assert code_eq(grs_generator(verdict.spec), code)


def test_is_grs_full_projective_line():
    # length q+1 keeps one point at infinity in the returned spec
    rng = random.Random(27)
    for q, ks in ((7, (3, 4, 5)), (8, (3, 4))):
        f = field_from_order(q)
        for k in ks:
            v = tuple(rng.randrange(1, q) for _ in range(q + 1))
            spec = GrsSpec(f, tuple(range(q)) + (INF,), v, k)
            code = grs_generator(spec)
            verdict = is_grs(code.gen)
            assert verdict.grs
            assert any(a is INF for a in verdict.spec.alpha)
            assert code_eq(grs_generator(verdict.spec), code)


def test_is_grs_beyond_projective_line_is_negative(f8):
    # no [q+2, k] code has q+2 distinct evaluation points
    from grskit.constructions import ngrs_q2_3
    rec = ngrs_q2_3(f8)
    verdict = is_grs(rec.code.gen)
    assert not verdict.grs


def test_no_grs_code_longer_than_q_plus_1():
    # every shape below is MDS, but has more than q+1 coordinates
    f2, f3 = Field(2), Field(3)
    for g in (Matrix(f2, [[1, 1, 1, 1]]),
              Matrix(f2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]),
              Matrix(f2, [[int(i == j) for j in range(4)] for i in range(4)]),
              Matrix(f3, [[1, 2, 1, 1, 2]])):
        assert is_mds(LinearCode(g.field, g))
        assert not is_grs(g).grs
        assert cauchy_test(g) is False


def _sweep_codes(f, n, k, rng):
    """GRS codes with and without infinity, one-entry-corrupted GRS codes
    and sparse full-rank uniform codes of shape [n, k] over f."""
    q = f.q
    specs = []
    if n <= q:
        specs.append(random_grs_spec(f, n, k, rng))
    if 1 <= n <= q + 1:
        specs.append(random_grs_spec(f, n, k, rng, with_inf=True))
    for spec in specs:
        code = grs_generator(spec)
        yield code, True
        if 0 < k < n:
            m, _ = echelonize(code.gen)
            rows = [list(r) for r in m.data]
            r, c = rng.randrange(k), rng.randrange(k, n)
            rows[r][c] = rng.choice([e for e in range(q) if e != rows[r][c]])
            yield LinearCode(f, Matrix(f, rows)), None
    while True:
        g = Matrix(f, [[rng.randrange(q) if rng.random() < 0.5 else 0
                        for _ in range(n)] for _ in range(k)], cols=n)
        if rank(g) == k:
            yield LinearCode(f, g), None
            return


def test_is_grs_every_shape_sweep():
    rng = random.Random(35)
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field_from_order(q)
        for n in range(1, q + 3):
            for k in range(n + 1):
                for code, want in _sweep_codes(f, n, k, rng):
                    verdict = is_grs(code.gen)
                    assert verdict == is_grs_by_regeneration(code.gen), (q, n, k)
                    m, pivots = rref(code.gen)
                    if pivots == tuple(range(k)):
                        assert recover(m) == verdict, (q, n, k)
                    if want is not None:
                        assert verdict.grs, (q, n, k)
                    if verdict.grs:
                        assert code_eq(grs_generator(verdict.spec), code)
                    assert cauchy_test(code.gen) == verdict.grs
                    if k <= 2 or k >= n - 1:
                        assert verdict.grs == (is_mds(code) and n <= q + 1), (q, n, k)


def test_is_grs_every_one_entry_corruption():
    # every entry of B of a few GRS codes, with and without infinity and
    # at length q+1, changed to every other value: the corruptions that
    # recovery does not read are left to the check of B
    rng = random.Random(36)
    mismatches = 0
    for q in (8, 9, 11, 13):
        f = field_from_order(q)
        for n, k, with_inf in ((q - 1, 3, False), (q - 1, 4, True), (q + 1, 4, True)):
            spec = random_grs_spec(f, n, k, rng, with_inf=with_inf)
            m, _ = echelonize(grs_generator(spec).gen)
            assert is_grs(m) == is_grs_by_regeneration(m) and is_grs(m).grs
            for i in range(k):
                for j in range(k, n):
                    for e in range(q):
                        if e == m.data[i][j]:
                            continue
                        rows = [list(r) for r in m.data]
                        rows[i][j] = e
                        bad = Matrix(f, rows)
                        verdict = is_grs(bad)
                        assert verdict == is_grs_by_regeneration(bad), (q, n, k, i, j, e)
                        assert recover(bad) == verdict, (q, n, k, i, j, e)
                        # k, n - k >= 3 and every 2x2 minor of the entrywise
                        # inverse is nonzero, so a changed entry is zero or
                        # makes a 3x3 minor nonzero
                        assert not verdict.grs
                        mismatches += verdict.reason == CODE_MISMATCH
    assert mismatches > 0


def test_is_grs_eliminates_once(monkeypatch):
    # a GRS input, an early corruption (a zero at b[4][k+1], which recovery
    # rejects) and a late one (b[3][k+3] changed, which only the check of
    # B reads)
    f, k = Field(13), 5
    grs, _ = echelonize(grs_generator(random_grs_spec(f, 12, k, random.Random(37))).gen)
    early, late = [list(r) for r in grs.data], [list(r) for r in grs.data]
    early[3][k] = 0
    late[2][k + 2] = f.add(late[2][k + 2], 1)
    early, late = Matrix(f, early), Matrix(f, late)
    calls = {"eliminate": 0, "echelonize": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "_eliminate", counted("eliminate", linalg._eliminate))
    monkeypatch.setattr(linalg, "echelonize", counted("echelonize", linalg.echelonize))
    for g, reason in ((grs, None), (early, ENTRY_ZERO), (late, CODE_MISMATCH)):
        calls.update(eliminate=0, echelonize=0)
        verdict = is_grs(g)
        assert verdict.reason == reason and verdict.grs == (reason is None)
        assert calls == {"eliminate": 1, "echelonize": 0}


def test_is_grs_ops_ceiling():
    # The check of B costs exactly 2k(k-1) for the w_i, then 4k per finite
    # column and k per column at infinity.  is_grs adds at most 10kn
    # operations to its rref: that 4kn, 2kn in recovery's two Lagrange
    # loops, and a few per point for the guards, the inversions and the
    # chart's power of each point.
    rng = random.Random(38)
    for q, n, k, with_inf in ((41, 40, 12, False), (32, 30, 8, True), (27, 24, 6, True),
                              (13, 14, 3, True), (243, 16, 5, False), (9, 10, 4, True)):
        f = field_from_order(q)
        g = grs_generator(random_grs_spec(f, n, k, rng, with_inf=with_inf)).gen
        cf = CountingField(f)
        m, _ = rref(Matrix(cf, g.data, cols=n))
        rref_ops, cf.ops = cf.ops, 0
        verdict = is_grs(Matrix(cf, g.data, cols=n))
        assert verdict.grs
        assert cf.ops <= rref_ops + 10 * k * n, (q, n, k, cf.ops - rref_ops)
        cf.ops = 0
        assert grsid._spec_gives_block(m, verdict.spec)
        at_inf = sum(a is INF for a in verdict.spec.alpha[k:])
        assert cf.ops == 2 * k * (k - 1) + 4 * k * (n - k - at_inf) + k * at_inf


@pytest.mark.parametrize("q,n,k,rref_ops,is_grs_ops", [
    (257, 256, 128, 5587203, 5752693),
    (256, 200, 50, 826593, 882629),
    (243, 200, 50, 827659, 883695),
])
def test_bench_row_op_counts_are_pinned(q, n, k, rref_ops, is_grs_ops):
    # the is_grs rows of tools/bench_rows.py (SHAPES, SEED = 13): rows
    # updated through Field.axpy count 2 per nonzero entry of the pivot
    # row, exactly the sub and mul per entry of the scalar loop before it
    f = field_from_order(q)
    g = grs_generator(random_grs_spec(f, n, k, random.Random(13))).gen
    cf = CountingField(f)
    rref(Matrix(cf, g.data, cols=n))
    assert cf.ops == rref_ops
    cf.ops = 0
    assert is_grs(Matrix(cf, g.data, cols=n)).grs
    assert cf.ops == is_grs_ops


def test_is_grs_echelon_failure_verdict(f11):
    rows = [[0, 1, 0, 2, 3, 4], [0, 0, 1, 5, 6, 7], [0, 0, 0, 1, 1, 1]]
    m = Matrix(f11, rows)
    assert rank(m) == 3
    verdict = is_grs(m)
    assert not verdict.grs and verdict.reason == ECHELON_FAIL


def test_cauchy_singular_leading_block_is_false(f11):
    # full rank, but no systematic form [I | A]: a verdict, not an error
    rows = [[0, 1, 0, 2, 3, 4], [0, 0, 1, 5, 6, 7], [0, 0, 0, 1, 1, 1]]
    assert cauchy_test(Matrix(f11, rows)) is False


def test_is_grs_rank_deficient_is_error(f11):
    for rows in ([[1, 0, 0, 1, 1, 1], [0, 1, 0, 2, 2, 2], [1, 1, 0, 3, 3, 3]],
                 [[0, 0, 0]], [[1, 2, 3], [2, 4, 6]]):
        with pytest.raises(ValueError):
            is_grs(Matrix(f11, rows))


def test_is_grs_stable_under_presentation():
    rng = random.Random(28)
    for _ in range(20):
        q = rng.choice((9, 11, 13))
        f = field_from_order(q)
        n = rng.randrange(6, min(q, 11) + 1)
        k = rng.randrange(3, n - 2)
        if rng.random() < 0.5:
            code = grs_generator(random_grs_spec(f, n, k, rng))
        else:
            alpha = tuple(rng.sample(range(q), n - 1))
            code = mgrs_generator(MgrsParams(f, alpha, (1,) * n,
                                             rng.randrange(1, q),
                                             rng.randrange(1, k), k))
        base = is_grs(code.gen).grs
        while True:
            t = Matrix(f, [[rng.randrange(q) for _ in range(k)] for _ in range(k)])
            if rank(t) == k:
                break
        scale = [rng.randrange(1, q) for _ in range(n)]
        g2 = matmul(t, code.gen)
        g3 = Matrix(f, [[f.mul(e, scale[j]) for j, e in enumerate(r)]
                        for r in g2.data])
        assert is_grs(g3).grs == base


# ---------------- cauchy test ----------------

def _cauchy_systematic(field, k, nk, rng):
    while True:
        xs = rng.sample(range(field.q), k)
        pool = [y for y in range(field.q)
                if all(field.add(x, y) != 0 for x in xs)]
        if len(pool) < nk:
            continue
        ys = rng.sample(pool, nk)
        cs = [rng.randrange(1, field.q) for _ in range(k)]
        ds = [rng.randrange(1, field.q) for _ in range(nk)]
        a = [[field.mul(field.mul(cs[i], ds[j]),
                        field.inv(field.add(xs[i], ys[j])))
              for j in range(nk)] for i in range(k)]
        rows = [[1 if i == j else 0 for j in range(k)] + a[i] for i in range(k)]
        return Matrix(field, rows)


def test_cauchy_positive_construction():
    rng = random.Random(29)
    f13 = Field(13)
    for _ in range(15):
        m = _cauchy_systematic(f13, rng.randrange(3, 6), rng.randrange(3, 6), rng)
        assert cauchy_test(m)


def test_cauchy_counterexample_and_zero_entry(counterexample, f11):
    assert not cauchy_test(counterexample.gen)
    z = Matrix(f11, [[1, 0, 0, 1, 0, 2], [0, 1, 0, 1, 1, 3], [0, 0, 1, 2, 3, 4]])
    assert not cauchy_test(z)


def test_cauchy_agrees_with_is_grs_on_mds_inputs():
    # Roth-Seroussi, checked against the minor-enumeration oracle: cauchy_test
    # itself answers from is_grs on these shapes
    rng = random.Random(30)
    seen = 0
    while seen < 30:
        q = rng.choice((8, 9, 11, 13))
        f = field_from_order(q)
        n = rng.randrange(6, min(q, 12) + 1)
        k = rng.randrange(3, n - 2)
        if rng.random() < 0.5:
            code = grs_generator(random_grs_spec(f, n, k, rng))
        else:
            alpha = tuple(rng.sample(range(q), n - 1))
            try:
                code = mgrs_generator(MgrsParams(
                    f, alpha, tuple(rng.randrange(1, q) for _ in range(n)),
                    rng.randrange(q), rng.randrange(1, k), k))
            except ValueError:
                continue
        if not is_mds(code):
            continue
        assert cauchy_by_minors(code.gen) == is_grs(code.gen).grs
        seen += 1


def cauchy_by_minors(g):
    """Reference Cauchy test by minor enumeration: [I | A] with A free of
    zeros, every 2x2 minor of C = (1/a_ij) nonzero and every 3x3 minor of
    C zero.  For k = 1 or n - k = 1 C has no 2x2 minor, and only n <= q+1
    is left of a generalized Cauchy matrix's distinct points."""
    m, ok = echelonize(g)
    assert ok
    F = m.field
    k, n = m.rows, m.cols
    a = [row[k:] for row in m.data]
    if any(e == 0 for row in a for e in row) or n > F.q + 1:
        return False
    c = Matrix(F, [[F.inv(e) for e in row] for row in a], cols=n - k)
    for size, want_zero in ((2, False), (3, True)):
        for ri in combinations(range(k), size):
            for ci in combinations(range(n - k), size):
                if (det(submatrix(c, ri, ci)) == 0) != want_zero:
                    return False
    return True


def test_cauchy_matches_minor_enumeration():
    rng = random.Random(33)
    verdicts = []
    for i in range(300):
        f = field_from_order(rng.choice((4, 5, 7, 8, 9, 11, 13, 16)))
        k = rng.randrange(1, min(5, f.q) + 1)
        nk = rng.randrange(1, 6)
        kind = i % 4
        if kind in (0, 3):  # GRS, so Cauchy; kind 3 then changes one entry
            # length q+1 needs the point at infinity
            n = min(k + nk, f.q + 1)
            spec = random_grs_spec(f, n, k, rng,
                                   with_inf=n > f.q or rng.random() < 0.5)
            m, _ = echelonize(grs_generator(spec).gen)
            if kind == 3:
                rows = [list(r) for r in m.data]
                r, c = rng.randrange(k), rng.randrange(k, m.cols)
                rows[r][c] = rng.choice([e for e in range(f.q) if e != rows[r][c]])
                m = Matrix(f, rows)
        elif kind == 1 and k + nk <= f.q:  # Cauchy matrix built directly
            m = _cauchy_systematic(f, k, nk, rng)
        else:  # uniform entries: zeros, 2x2 and 3x3 failures
            m = Matrix(f, [[int(r == j) for j in range(k)]
                           + [rng.randrange(f.q) for _ in range(nk)]
                           for r in range(k)])
        want = cauchy_by_minors(m)
        assert cauchy_test(m) == want, (f, m.data)
        verdicts.append(want)
    assert 60 <= sum(verdicts) <= 240


# ---------------- brute force oracle ----------------

def test_brute_force_finds_grs(f11):
    rng = random.Random(31)
    for _ in range(5):
        spec = random_grs_spec(f11, 7, 3, rng)
        code = grs_generator(spec)
        found = brute_force_recover(code)
        assert found is not None
        assert code_eq(grs_generator(found), code)


def test_brute_force_counterexample_none(counterexample):
    assert brute_force_recover(counterexample) is None


def test_brute_force_budget(f11):
    with pytest.raises(ValueError):
        brute_force_recover(grs_generator(
            random_grs_spec(f11, 9, 3, random.Random(0))))


def test_brute_force_length_q_plus_1_raises():
    # [8,4] over GF(7) on the whole projective line: GRS, but only with the
    # point at infinity, which the finite search cannot produce
    f7 = Field(7)
    code = grs_generator(GrsSpec(f7, tuple(range(7)) + (INF,), (1,) * 8, 4))
    verdict = is_grs(code.gen)
    assert verdict.grs and code_eq(grs_generator(verdict.spec), code)
    with pytest.raises(ValueError):
        brute_force_recover(code)
    # up to length q an extended code has an all-finite spec, so it is found
    short = grs_generator(GrsSpec(f7, (0, 1, 2, 3, 4, 5, INF), (1,) * 7, 3))
    found = brute_force_recover(short)
    assert found is not None and code_eq(grs_generator(found), short)


def test_brute_force_agrees_with_is_grs():
    rng = random.Random(32)
    f7 = Field(7)
    for i in range(20):
        n = rng.choice((6, 7))
        if i % 2 == 0:
            code = grs_generator(random_grs_spec(f7, n, 3, rng))
        else:
            alpha = tuple(rng.sample(range(7), n - 1))
            code = mgrs_generator(MgrsParams(
                f7, alpha, tuple(rng.randrange(1, 7) for _ in range(n)),
                rng.randrange(7), rng.randrange(1, 3), 3))
        assert (brute_force_recover(code) is not None) == is_grs(code.gen).grs


# ---------------- bench ----------------

def test_bench_empty_when_no_trials():
    assert bench_recover(Field(29), 3, [12, 16], trials=0) == []


def test_bench_counts_are_deterministic_and_affine():
    f29 = Field(29)
    rows = bench_recover(f29, 3, [12, 16, 20, 24], trials=5, seed=1)
    again = bench_recover(f29, 3, [12, 16, 20, 24], trials=5, seed=1)
    assert [r["median_ops"] for r in rows] == [r["median_ops"] for r in again]
    ops = {r["n"]: r["median_ops"] for r in rows}
    assert ops[24] <= 2.5 * ops[12]
    diffs = [ops[16] - ops[12], ops[20] - ops[16], ops[24] - ops[20]]
    assert max(diffs) - min(diffs) <= 0.25 * max(diffs)


def test_bench_counts_affine_in_k():
    # one multiplier formula for every k >= 3, so k = 3 lies on the same line
    f29 = Field(29)
    counts = []
    for k in (3, 4, 5, 6):
        rows = bench_recover(f29, k, [24], trials=5, seed=2)
        counts.append(rows[0]["median_ops"])
    diffs = [b - a for a, b in zip(counts, counts[1:])]
    assert max(diffs) - min(diffs) <= 0.35 * max(diffs)


def test_counting_field_counts(f11):
    cf = CountingField(f11)
    cf.add(1, 2)
    cf.mul(3, 4)
    cf.inv(5)
    cf.pow(2, 7)
    assert cf.ops == 4
    assert cf == f11  # same field, instrumentation aside


def test_counting_field_on_extension_field(f8):
    cf = CountingField(f8)
    assert cf == f8 and cf.primitive == f8.primitive and cf.ops == 0
    assert [cf.inv(a) for a in f8.nonzero()] == [f8.inv(a) for a in f8.nonzero()]
    # no public operation calls another, so each inv counts once
    assert cf.ops == 7
    cf.ops = 0
    assert cf.sub(5, 3) == f8.sub(5, 3) and cf.neg(5) == f8.neg(5)
    assert cf.ops == 2


def test_bench_rejects_overlong(f11):
    with pytest.raises(ValueError):
        bench_recover(f11, 3, [12], trials=1)
