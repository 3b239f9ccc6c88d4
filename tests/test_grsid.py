import random
from itertools import combinations

import pytest

from grskit.gf import Field, field_from_order, INF
from grskit.linalg import Matrix, matmul, rank, det, echelonize, submatrix
from grskit.codes import (GrsSpec, grs_generator, puncture, shorten, is_mds,
                          code_eq)
from grskit.families import MgrsParams, mgrs_generator
from grskit import grsid
from grskit.grsid import (trans_to_grs, recover, is_grs, cauchy_test,
                          brute_force_recover, bench_recover, random_grs_spec,
                          CountingField, RecoveryError, ECHELON_FAIL)


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

def test_recover_raw_chart_starts_at_0_1_inf(f11):
    rng = random.Random(22)
    spec = random_grs_spec(f11, 9, 4, rng)
    m, ok = grsid.linalg.echelonize(grs_generator(spec).gen)
    assert ok
    _, _, raw = grsid._recover_parts(m)
    assert raw[0] == 0 and raw[1] == 1 and raw[2] is INF


def test_recover_single_instance_f13():
    f13 = Field(13)
    spec = random_grs_spec(f13, 10, 4, random.Random(23))
    code = grs_generator(spec)
    m, ok = grsid.linalg.echelonize(code.gen)
    assert ok
    verdict = recover(m)
    assert verdict.grs
    assert code_eq(grs_generator(verdict.spec), code)


def test_recover_k3_branch(f11):
    spec = random_grs_spec(f11, 8, 3, random.Random(24))
    code = grs_generator(spec)
    m, ok = grsid.linalg.echelonize(code.gen)
    verdict = recover(m)
    assert verdict.grs
    assert code_eq(grs_generator(verdict.spec), code)


def test_recover_requires_systematic_form(f11):
    m = Matrix(f11, [[1, 1, 0, 0, 1, 2], [0, 1, 0, 0, 3, 4], [0, 0, 1, 0, 5, 6]])
    with pytest.raises(ValueError):
        recover(m)


def test_recover_range_check(f11):
    m = Matrix(f11, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError):
        recover(m)


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


def test_strict_mode_raises_on_guard():
    f11 = Field(11)
    zero_b = Matrix(f11, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    with pytest.raises(RecoveryError):
        recover(zero_b, strict=True)


# ---------------- is_grs ----------------

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
    rows = [[1, 0, 0, 1, 1, 1], [0, 1, 0, 2, 2, 2], [1, 1, 0, 3, 3, 3]]
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
    C zero."""
    m, ok = echelonize(g)
    assert ok
    F = m.field
    k, n = m.rows, m.cols
    a = [row[k:] for row in m.data]
    if any(e == 0 for row in a for e in row):
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
    # within the k > 3 code path; k = 3 takes a structurally cheaper branch
    f29 = Field(29)
    counts = []
    for k in (4, 5, 6):
        rows = bench_recover(f29, k, [24], trials=5, seed=2)
        counts.append(rows[0]["median_ops"])
    d1 = counts[1] - counts[0]
    d2 = counts[2] - counts[1]
    assert abs(d2 - d1) <= 0.35 * max(d1, d2)


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
    # inv is pow(a, q-2), whose multiplications go through the counted mul
    assert cf.ops > 7
    cf.ops = 0
    assert cf.sub(5, 3) == f8.sub(5, 3) and cf.neg(5) == f8.neg(5)
    assert cf.ops == 2


def test_bench_rejects_overlong(f11):
    with pytest.raises(ValueError):
        bench_recover(f11, 3, [12], trials=1)
