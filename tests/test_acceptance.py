"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its wall-clock budget.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines."""

import random
import time

from grskit.gf import Field, field_from_order
from grskit.linalg import Matrix, matmul, echelonize
from grskit.codes import (LinearCode, GrsSpec, grs_generator,
                          grs_dual_multipliers, puncture, shorten,
                          min_distance, is_mds, code_eq)
from grskit.families import (MgrsParams, EmgrsParams, TgrsParams, TWIST_ZERO,
                             TWIST_TOP, mgrs_generator, emgrs_generator,
                             mgrs_is_mds, emgrs_is_mds, tgrs_generator,
                             tgrs_dual_parity)
from grskit.constructions import table1
from grskit.grsid import (is_grs, cauchy_test, brute_force_recover,
                          bench_recover, random_grs_spec)
from .conftest import COUNTEREXAMPLE_ROWS


def criterion(num, name, budget_seconds):
    def wrap(body):
        def runner(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                body(*args, **kwargs)
            except BaseException:
                dt = time.perf_counter() - t0
                print(f"[acceptance] criterion {num} ({name}): FAIL after {dt:.2f}s")
                raise
            dt = time.perf_counter() - t0
            print(f"[acceptance] criterion {num} ({name}): PASS in {dt:.2f}s")
            assert dt < budget_seconds, f"budget exceeded: {dt:.2f}s >= {budget_seconds}s"
        runner.__name__ = body.__name__
        return runner
    return wrap


@criterion(1, "F11 worked example", 1.0)
def test_criterion_1_f11_example():
    f = Field(11)
    params = MgrsParams(f, (2, 4, 8, 5, 10, 1, 0), (1,) * 8, f.neg(1), 2, 3)
    code = mgrs_generator(params)
    assert code.gen.data == ((1, 1, 1, 1, 1, 1, 1, 1),
                             (2, 4, 8, 5, 10, 1, 0, 0),
                             (4, 5, 9, 3, 1, 1, 0, 10))
    assert min_distance(code) == 6
    assert not is_grs(code.gen).grs


@criterion(2, "F8 worked example", 1.0)
def test_criterion_2_f8_example():
    f = Field(2, 3)
    w = f.primitive
    assert f.mul(w, f.mul(w, w)) == f.add(w, 1)  # w^3 = w + 1
    alpha = (f.pow(w, 5), f.pow(w, 3), f.pow(w, 2), w, 0, 1)
    code = mgrs_generator(MgrsParams(f, alpha, (1,) * 7, 1, 1, 4))
    assert code.gen.data == ((1, 1, 1, 1, 1, 1, 1),
                             (7, 3, 4, 2, 0, 1, 1),
                             (3, 5, 6, 4, 0, 1, 0),
                             (2, 4, 5, 3, 0, 1, 0))
    assert min_distance(code) == 4
    assert not is_grs(code.gen).grs


@criterion(3, "puncture/shorten counterexample", 1.0)
def test_criterion_3_counterexample():
    f = Field(11)
    code = LinearCode(f, Matrix(f, COUNTEREXAMPLE_ROWS))
    assert not is_grs(code.gen).grs
    p = puncture(code, [7])
    s = shorten(code, [7])
    vp = is_grs(p.gen)
    vs = is_grs(s.gen)
    assert vp.grs and vs.grs
    assert code_eq(grs_generator(vp.spec), p)
    assert code_eq(grs_generator(vs.spec), s)


def _expected_table_rows(q, p):
    if p == 2:
        rows = [(3, q + 2), (4, (q + 6) // 2)]
        rows += [(k, (q + 4) // 2) for k in range(5, (q - 4) // 2 + 1)]
        if (q - 2) // 2 != 4:
            rows.append(((q - 2) // 2, (q + 6) // 2))
        rows += [(k, k + 3) for k in range(q // 2, q - 1)]
        rows.append((q - 1, q + 2))
    else:
        rows = [(3, (q + 5) // 2)]
        rows += [(k, (q + 3) // 2) for k in range(4, (q - 3) // 2 + 1)]
        if (q - 1) // 2 != 3:
            rows.append(((q - 1) // 2, (q + 5) // 2))
    return sorted(rows)


@criterion(4, "length table at desk scale", 60.0)
def test_criterion_4_table1():
    for q in (8, 11, 13, 16):
        f = field_from_order(q)
        report = table1(f)
        got = sorted((rec.k, rec.n) for rec in report.records)
        assert got == _expected_table_rows(q, f.p), (q, got)
        for rec in report.records:
            assert rec.mds, rec.summary()
            assert rec.grs_verdict is False, rec.summary()
            assert cauchy_test(rec.code.gen) == rec.grs_verdict


@criterion(5, "recovery roundtrip property", 120.0)
def test_criterion_5_roundtrip():
    rng = random.Random(20250810)
    combos = [(False, False), (True, False), (False, True), (True, True)]
    total = 0
    for q in (7, 8, 9, 11, 13, 16, 25, 32):
        f = field_from_order(q)
        for i in range(64):
            with_inf, with_zero = combos[i % 4]
            n = rng.randrange(6, min(q, 14) + 1)
            k = rng.randrange(3, n - 2)
            spec = random_grs_spec(f, n, k, rng, with_inf=with_inf,
                                   force_zero=with_zero)
            code = grs_generator(spec)
            verdict = is_grs(code.gen)
            assert verdict.grs, (q, n, k, spec)
            assert code_eq(grs_generator(verdict.spec), code)
            total += 1
    assert total >= 500


@criterion(6, "dual identities", 30.0)
def test_criterion_6_duals():
    rng = random.Random(606)
    for hook in (TWIST_ZERO, TWIST_TOP):
        for _ in range(100):
            q = rng.choice((7, 8, 9, 11, 13, 16))
            f = field_from_order(q)
            n = rng.randrange(4, min(q - 1, 10) + 1)
            k = rng.randrange(1, n)
            pool = range(1, q) if hook == TWIST_ZERO else range(q)
            alpha = tuple(rng.sample(pool, n))
            v = tuple(rng.randrange(1, q) for _ in range(n + 1))
            params = TgrsParams(f, alpha, v, rng.randrange(1, q), hook, k)
            g = tgrs_generator(params)
            h = tgrs_dual_parity(params)
            assert not any(map(any, matmul(g.gen, h.transpose()).data))
    for _ in range(100):
        q = rng.choice((7, 8, 9, 11, 13, 16))
        f = field_from_order(q)
        n = rng.randrange(3, min(q, 12) + 1)
        k = rng.randrange(1, n)
        spec = random_grs_spec(f, n, k, rng)
        u = grs_dual_multipliers(spec)
        g = grs_generator(spec)
        h = grs_generator(GrsSpec(f, spec.alpha, u, n - k))
        assert not any(map(any, matmul(g.gen, h.gen.transpose()).data))


def _mds_oracle(builder):
    try:
        return is_mds(builder())
    except ValueError:
        return False  # rank-deficient generator


@criterion(7, "predicate-oracle equivalence", 60.0)
def test_criterion_7_predicates():
    for q in (5, 7, 8, 11):
        f = field_from_order(q)
        n = min(q, 8)
        for alpha in (tuple(range(n - 1)), tuple(range(1, n))):
            for k in (3, 4):
                if k > len(alpha) + 1:
                    continue
                for t in range(1, k):
                    for eta in range(q):
                        p = MgrsParams(f, alpha, (1,) * (len(alpha) + 1), eta, t, k)
                        assert mgrs_is_mds(p) == _mds_oracle(lambda: mgrs_generator(p))
        m = min(q - 1, 6)
        for alpha in (tuple(range(m)), tuple(range(1, m + 1))):
            for k in (3, 4):
                if k > len(alpha) + 1:
                    continue
                for t in range(1, k):
                    for eta in range(q):
                        p = EmgrsParams(f, alpha, (1,) * (len(alpha) + 1), 1, eta, t, k)
                        assert emgrs_is_mds(p) == _mds_oracle(lambda: emgrs_generator(p))
    rng = random.Random(707)
    for _ in range(100):
        q = rng.choice((11, 13))
        f = field_from_order(q)
        n = rng.randrange(6, 11)
        k = rng.randrange(2, n)
        alpha = tuple(rng.sample(range(q), n - 1))
        v = tuple(rng.randrange(1, q) for _ in range(n))
        p = MgrsParams(f, alpha, v, rng.randrange(q), rng.randrange(1, k), k)
        assert mgrs_is_mds(p) == _mds_oracle(lambda: mgrs_generator(p))
    for _ in range(100):
        q = rng.choice((11, 13))
        f = field_from_order(q)
        nb = rng.randrange(5, 9)
        k = rng.randrange(2, nb)
        alpha = tuple(rng.sample(range(q), nb - 1))
        v = tuple(rng.randrange(1, q) for _ in range(nb))
        p = EmgrsParams(f, alpha, v, rng.randrange(1, q), rng.randrange(q),
                        rng.randrange(1, k), k)
        assert emgrs_is_mds(p) == _mds_oracle(lambda: emgrs_generator(p))


@criterion(8, "recovery cost grows affinely", 60.0)
def test_criterion_8_complexity():
    f = Field(29)
    k = 3
    ns = [12, 16, 20, 24]
    rows = bench_recover(f, k, ns, trials=5, seed=8)
    ops = {r["n"]: r["median_ops"] for r in rows}
    assert ns[0] >= 4 * k
    assert ops[24] / ops[12] <= 2.5
    ys = [float(ops[n]) for n in ns]
    nbar = sum(ns) / len(ns)
    ybar = sum(ys) / len(ys)
    slope = (sum((n - nbar) * (y - ybar) for n, y in zip(ns, ys))
             / sum((n - nbar) ** 2 for n in ns))
    intercept = ybar - slope * nbar
    resid = [y - (slope * n + intercept) for n, y in zip(ns, ys)]
    rel = (sum(r * r for r in resid) ** 0.5) / (sum(y * y for y in ys) ** 0.5)
    assert rel < 0.10, rel


@criterion(9, "cross-oracle soundness", 120.0)
def test_criterion_9_brute_force_agreement():
    rng = random.Random(909)
    f = Field(7)
    checked = 0
    while checked < 50:
        n = rng.choice((5, 6, 7))
        kind = checked % 3
        if kind == 0:
            code = grs_generator(random_grs_spec(f, n, 3, rng))
        elif kind == 1:
            alpha = tuple(rng.sample(range(7), n - 1))
            code = mgrs_generator(MgrsParams(
                f, alpha, tuple(rng.randrange(1, 7) for _ in range(n)),
                rng.randrange(7), rng.randrange(1, 3), 3))
        else:
            while True:
                m = Matrix(f, [[rng.randrange(7) for _ in range(n)]
                               for _ in range(3)])
                _, ok = echelonize(m)
                if ok and is_mds(code := LinearCode(f, m)):
                    break
        found = brute_force_recover(code)
        verdict = is_grs(code.gen)
        assert (found is not None) == verdict.grs, code.gen.data
        if found is not None:
            assert code_eq(grs_generator(found), code)
        checked += 1
    assert checked == 50
