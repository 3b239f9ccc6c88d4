import functools
import random
from collections import Counter
from itertools import combinations

import pytest

from grskit.gf import Field, INF, field_from_order
from grskit.linalg import Matrix, matmul, rank
from grskit.codes import (LinearCode, GrsSpec, grs_generator, dual, puncture,
                          shorten, min_distance, is_mds, code_eq)
from grskit.families import (MgrsParams, EmgrsParams, TgrsParams,
                             RothLempelParams, TWIST_ZERO, TWIST_TOP,
                             mgrs_generator, emgrs_generator, mgrs_is_mds,
                             emgrs_is_mds, mgrs_is_grs, emgrs_is_grs, roth_lempel_is_mds,
                             c_code_generator, d_code_generator,
                             tgrs_generator, tgrs_dual_parity,
                             roth_lempel_generator, col_twisted_generator)
from grskit.grsid import is_grs
from grskit import families


def mds_or_rank_deficient(builder):
    # a rank-deficient generator certainly is not MDS
    try:
        return is_mds(builder())
    except ValueError:
        return False


@functools.cache
def subset_polys(f, alpha, m):
    # (coefficients of prod_{a in S}(x - a), prod(S)) for every m-subset S,
    # each product rebuilt from scratch
    out = []
    for sub in combinations(alpha, m):
        coeffs = [1]
        prod = 1
        for a in sub:
            na = f.neg(a)
            coeffs = ([f.mul(coeffs[0], na)]
                      + [f.add(lo, f.mul(hi, na)) for lo, hi in zip(coeffs, coeffs[1:])]
                      + [1])
            prod = f.mul(prod, a)
        out.append((coeffs, prod))
    return out


def condition_by_subsets(f, alpha, m, t, eta):
    # the paper's subset condition by its definition:
    # eta * pi_t(S) != (-1)^(m+1) * prod(S) for every m-subset S
    sign = f.neg(1) if (m + 1) % 2 else 1
    return all(f.mul(eta, coeffs[t] if t <= m else 0) != f.mul(sign, prod)
               for coeffs, prod in subset_polys(f, alpha, m))


def test_mgrs_f11_worked_matrix(f11):
    p = MgrsParams(f11, (2, 4, 8, 5, 10, 1, 0), (1,) * 8, f11.neg(1), 2, 3)
    g = mgrs_generator(p)
    assert g.gen.data == ((1, 1, 1, 1, 1, 1, 1, 1),
                          (2, 4, 8, 5, 10, 1, 0, 0),
                          (4, 5, 9, 3, 1, 1, 0, 10))
    assert mgrs_is_mds(p)


def test_mgrs_f8_worked_matrix(f8):
    w = f8.primitive
    alpha = (f8.pow(w, 5), f8.pow(w, 3), f8.pow(w, 2), w, 0, 1)
    p = MgrsParams(f8, alpha, (1,) * 7, 1, 1, 4)
    g = mgrs_generator(p)
    assert g.gen.data == ((1, 1, 1, 1, 1, 1, 1),
                          (7, 3, 4, 2, 0, 1, 1),
                          (3, 5, 6, 4, 0, 1, 0),
                          (2, 4, 5, 3, 0, 1, 0))
    assert mgrs_is_mds(p)


def test_mgrs_eta_zero_nonzero_points_is_grs(f11):
    alpha = (1, 2, 3, 4, 5)
    p = MgrsParams(f11, alpha, (1,) * 6, 0, 1, 3)
    g = mgrs_generator(p)
    grs = grs_generator(GrsSpec(f11, alpha + (0,), (1,) * 6, 3))
    assert code_eq(g, grs)


def test_mgrs_param_validation(f11):
    with pytest.raises(ValueError):
        MgrsParams(f11, (1, 1), (1, 1, 1), 0, 1, 2)
    with pytest.raises(ValueError):
        MgrsParams(f11, (1, 2), (1, 0, 1), 0, 1, 2)
    with pytest.raises(ValueError):
        MgrsParams(f11, (1, 2), (1, 1, 1), 0, 2, 2)  # t > k-1
    with pytest.raises(ValueError):
        MgrsParams(f11, (1, 2), (1, 1, 1), 0, 0, 2)
    with pytest.raises(ValueError, match="^multipliers must be nonzero$"):
        EmgrsParams(f11, (1, 2), (1, 1, 1), 0, 0, 1, 2)  # v_ext = 0


def test_emgrs_names_its_own_length_bound(f11):
    # n = k is past the extended bound k <= n-1, not past k <= n
    with pytest.raises(ValueError, match=r"^need k <= n-1$"):
        EmgrsParams(f11, (0, 1), (1, 1, 1), 1, 1, 1, 4)
    assert EmgrsParams(f11, (0, 1), (1, 1, 1), 1, 1, 1, 3).n == 4


def test_at_runs_the_checks_that_depend_on_k(f11):
    # families._at moves checked params to another k, t or eta through the
    # k-dependent checks of a direct construction, with the same texts
    m = MgrsParams(f11, (1, 2, 3), (1,) * 4, 5, 1, 2)
    e = EmgrsParams(f11, (1, 2, 3), (1,) * 4, 1, 5, 1, 2)
    assert families._at(m, k=4, t=3, eta=0) == MgrsParams(f11, (1, 2, 3), (1,) * 4, 0, 3, 4)
    assert families._at(e, k=4) == EmgrsParams(f11, (1, 2, 3), (1,) * 4, 1, 5, 1, 4)
    for p, changes, text in ((m, {"k": 5}, r"^k > n$"), (e, {"k": 5}, r"^need k <= n-1$"),
                             (m, {"t": 2}, r"^need 1 <= t <= k-1$"),
                             (m, {"k": 3, "t": 0}, r"^need 1 <= t <= k-1$"),
                             (m, {"eta": 11}, r"^11 is not an element encoding of GF\(11\)$")):
        with pytest.raises(ValueError, match=text):
            families._at(p, **changes)
        with pytest.raises(ValueError, match=text):
            type(p)(**{**vars(p), **changes})


def test_emgrs_tiny_read_off():
    f3 = Field(3)
    p = EmgrsParams(f3, (1,), (1, 1), 1, 0, 1, 2)
    g = emgrs_generator(p)
    assert g.gen.data == ((1, 1, 0), (1, 0, 1))


def test_emgrs_f5_hand_evaluated():
    f5 = Field(5)
    p = EmgrsParams(f5, (1, 2), (1, 1, 1), 1, 1, 1, 3)
    g = emgrs_generator(p)
    assert g.gen.data == ((1, 1, 1, 0), (1, 2, 1, 0), (1, 4, 0, 1))


def test_emgrs_puncture_last_recovers_mgrs(f11):
    rng = random.Random(0)
    for _ in range(10):
        alpha = tuple(rng.sample(range(11), 5))
        v = tuple(rng.randrange(1, 11) for _ in range(6))
        eta = rng.randrange(11)
        t = rng.randrange(1, 3)
        try:
            e = emgrs_generator(EmgrsParams(f11, alpha, v, 3, eta, t, 3))
            m = mgrs_generator(MgrsParams(f11, alpha, v, eta, t, 3))
        except ValueError:
            continue
        assert code_eq(puncture(e, [e.n]), m)


def test_mgrs_is_mds_threshold_case():
    # F_7, alpha = (1,2,3,4), k = 3, t = 1: the subset {1,2} has
    # pi_1 = -3, and eta = (-1)^3 * (1*2) / pi_1 = 3 defeats MDS-ness
    f7 = Field(7)
    bad = MgrsParams(f7, (1, 2, 3, 4), (1,) * 5, 3, 1, 3)
    assert not mgrs_is_mds(bad)
    assert not is_mds(mgrs_generator(bad))


def test_emgrs_reciprocal_sum_threshold():
    # 1/eta = 1/1 + 1/2 = 5 over F_7, so eta = inv(5) = 3 defeats k=3, t=1
    f7 = Field(7)
    bad = EmgrsParams(f7, (1, 2, 3, 4), (1,) * 5, 1, 3, 1, 3)
    assert not emgrs_is_mds(bad)


def test_emgrs_k2_condition():
    f7 = Field(7)
    alpha = (1, 2, 3)
    for eta in range(7):
        p = EmgrsParams(f7, alpha, (1,) * 4, 1, eta, 1, 2)
        want = all(f7.inv(eta) != f7.inv(a) for a in alpha) if eta else True
        assert emgrs_is_mds(p) == want == is_mds(emgrs_generator(p))


@pytest.mark.parametrize("q", [5, 7, 8, 11])
def test_mgrs_predicate_exhaustive_eta(q):
    f = field_from_order(q)
    n = min(q, 8)
    for alpha in (tuple(range(n - 1)), tuple(range(1, n))):
        for k in (3, 4):
            if k > len(alpha) + 1:
                continue
            for t in range(1, k):
                for eta in range(q):
                    p = MgrsParams(f, alpha, (1,) * (len(alpha) + 1), eta, t, k)
                    assert mgrs_is_mds(p) == mds_or_rank_deficient(
                        lambda: mgrs_generator(p))


@pytest.mark.parametrize("q", [5, 7, 8, 11])
def test_emgrs_predicate_exhaustive_eta(q):
    f = field_from_order(q)
    m = min(q - 1, 6)
    for alpha in (tuple(range(m)), tuple(range(1, m + 1))):
        for k in (3, 4):
            if k > len(alpha) + 1:
                continue
            for t in range(1, k):
                for eta in range(q):
                    p = EmgrsParams(f, alpha, (1,) * (len(alpha) + 1), 1, eta, t, k)
                    assert emgrs_is_mds(p) == mds_or_rank_deficient(
                        lambda: emgrs_generator(p))


def test_predicates_agree_on_random_draws():
    rng = random.Random(11)
    for _ in range(100):
        q = rng.choice((7, 9, 11, 13))
        f = field_from_order(q)
        n = rng.randrange(5, min(q, 10) + 1)
        k = rng.randrange(2, n + 1)
        t = rng.randrange(1, k)
        alpha = tuple(rng.sample(range(q), n - 1))
        v = tuple(rng.randrange(1, q) for _ in range(n))
        p = MgrsParams(f, alpha, v, rng.randrange(q), t, k)
        assert mgrs_is_mds(p) == mds_or_rank_deficient(lambda: mgrs_generator(p))
    for _ in range(100):
        q = rng.choice((7, 9, 11, 13))
        f = field_from_order(q)
        nb = rng.randrange(4, min(q, 8) + 1)
        k = rng.randrange(2, nb + 1)
        t = rng.randrange(1, k)
        alpha = tuple(rng.sample(range(q), nb - 1))
        v = tuple(rng.randrange(1, q) for _ in range(nb))
        p = EmgrsParams(f, alpha, v, rng.randrange(1, q), rng.randrange(q), t, k)
        assert emgrs_is_mds(p) == mds_or_rank_deficient(lambda: emgrs_generator(p))


def test_mgrs_is_mds_or_almost_mds(f11):
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randrange(5, 9)
        k = rng.randrange(2, n - 1)
        alpha = tuple(rng.sample(range(11), n - 1))
        p = MgrsParams(f11, alpha, (1,) * n, rng.randrange(11),
                       rng.randrange(1, k), k)
        d = min_distance(mgrs_generator(p))
        assert d in (n - k, n - k + 1)


def test_d_code_non_grs_and_shorten_to_c_code(f11):
    d = d_code_generator(f11, tuple(range(1, 8)), 1, 4)
    assert (d.n, d.k) == (8, 4)
    assert not is_grs(d.gen).grs
    c = c_code_generator(f11, tuple(range(1, 8)), 1, 3)
    assert code_eq(shorten(d, [8]), c)


def test_c_code_hand_evaluated_rows():
    # F_5, alpha = (0,1,2,3), k = 3, t = 1: exponents {0, 2, 3}
    f5 = Field(5)
    c = c_code_generator(f5, (0, 1, 2, 3), 1, 3)
    assert c.gen.data == ((1, 1, 1, 1), (0, 1, 4, 4), (0, 1, 3, 2))


def test_cd_code_range_enforced(f11):
    with pytest.raises(ValueError):
        c_code_generator(f11, (0, 1, 2, 3), 2, 3)  # t = k-1 rejected
    with pytest.raises(ValueError):
        d_code_generator(f11, (0, 1, 2, 3), 0, 3)


def test_tgrs_tiny_zero_hook():
    f2 = Field(2)
    p = TgrsParams(f2, (1,), (1, 1), 1, TWIST_ZERO, 1)
    g = tgrs_generator(p)
    assert g.gen.data == ((0, 1),)


def test_tgrs_top_hook_hand_evaluated():
    f5 = Field(5)
    p = TgrsParams(f5, (1, 2), (1, 1, 1), 1, TWIST_TOP, 2)
    g = tgrs_generator(p)
    assert g.gen.data == ((1, 1, 0), (2, 1, 1))


@pytest.mark.parametrize("hook", [TWIST_ZERO, TWIST_TOP])
def test_tgrs_dual_parity_orthogonal(hook):
    rng = random.Random(13)
    for _ in range(60):
        q = rng.choice((7, 8, 9, 11, 13))
        f = field_from_order(q)
        n = rng.randrange(4, min(q - 1, 9) + 1)
        k = rng.randrange(1, n)
        pool = range(1, q) if hook == TWIST_ZERO else range(q)
        alpha = tuple(rng.sample(pool, n))
        v = tuple(rng.randrange(1, q) for _ in range(n + 1))
        p = TgrsParams(f, alpha, v, rng.randrange(1, q), hook, k)
        g = tgrs_generator(p)
        h = tgrs_dual_parity(p)
        assert not any(map(any, matmul(g.gen, h.transpose()).data))
        assert code_eq(LinearCode(f, h), dual(g))


def test_tgrs_zero_hook_rejects_zero_point(f11):
    p = TgrsParams(f11, (0, 1, 2), (1, 1, 1, 1), 1, TWIST_ZERO, 2)
    with pytest.raises(ValueError):
        tgrs_dual_parity(p)


def test_tgrs_top_hook_is_non_grs():
    rng = random.Random(14)
    for _ in range(10):
        q = rng.choice((11, 13))
        f = field_from_order(q)
        n = rng.randrange(5, 9)
        k = rng.randrange(3, n - 1)
        alpha = tuple(rng.sample(range(q), n))
        v = tuple(rng.randrange(1, q) for _ in range(n + 1))
        p = TgrsParams(f, alpha, v, rng.randrange(1, q), TWIST_TOP, k)
        assert not is_grs(tgrs_generator(p).gen).grs


def test_roth_lempel_appended_columns(f11):
    p = RothLempelParams(f11, (0, 1, 2, 3, 4), 0, 3)
    g = roth_lempel_generator(p)
    assert g.gen.column(5) == (0, 0, 1)
    assert g.gen.column(6) == (0, 1, 0)
    with pytest.raises(ValueError):
        RothLempelParams(f11, (0, 1, 2), 0, 3)  # n < k+3
    with pytest.raises(ValueError):
        RothLempelParams(f11, (0, 1, 2, 3), 0, 2)  # k < 3


def test_roth_lempel_is_mds_matches_column_walk():
    # the point-sum certificate against the is_mds column walk, with both
    # verdicts seen often enough for either direction of a wrong rule to show
    rng = random.Random(14)
    seen = Counter()
    for _ in range(400):
        q = rng.choice((7, 8, 9, 11, 13, 16))
        f = field_from_order(q)
        k = rng.randrange(3, 6)
        n = rng.randrange(k + 3, min(q + 2, k + 8) + 1)
        p = RothLempelParams(f, tuple(rng.sample(range(q), n - 2)), rng.randrange(q), k)
        verdict = roth_lempel_is_mds(p)
        assert verdict == is_mds(roth_lempel_generator(p)), p
        seen[verdict] += 1
    assert min(seen[True], seen[False]) >= 20, seen


def test_roth_lempel_equals_mgrs_transform():
    rng = random.Random(15)
    for _ in range(20):
        q = rng.choice((8, 9, 11, 13))
        f = field_from_order(q)
        k = rng.randrange(3, 6)
        n = rng.randrange(k + 3, min(q + 1, k + 6) + 1)
        a = tuple(rng.sample(range(1, q), n - 2))
        delta = rng.randrange(1, q)
        rl = roth_lempel_generator(RothLempelParams(f, a, delta, k))
        alpha = tuple(f.inv(x) for x in a) + (0,)
        v = tuple(f.pow(x, k - 1) for x in a) + (1, delta)
        mg = mgrs_generator(MgrsParams(f, alpha, v, f.inv(delta), 1, k))
        assert code_eq(rl, mg)


def test_col_twisted_equals_mgrs_transform():
    rng = random.Random(16)
    for _ in range(20):
        q = rng.choice((8, 9, 11, 13))
        f = field_from_order(q)
        n = rng.randrange(4, min(q - 1, 9))
        k = rng.randrange(2, n)
        pts = rng.sample(range(q), n + 1)
        a, b, c = tuple(pts[:n - 1]), pts[n - 1], pts[n]
        lam = rng.randrange(1, q)
        ct = col_twisted_generator(f, a, b, c, lam, k)
        cb = f.sub(c, b)
        alpha = tuple(f.sub(f.inv(f.sub(ai, b)), f.inv(cb)) for ai in a)
        v = tuple(f.pow(f.sub(ai, b), k - 1) for ai in a)
        vn = f.neg(f.mul(lam, f.pow(cb, k - 1)))
        eta = f.neg(f.inv(f.mul(lam, f.pow(cb, k - 1))))
        mg = mgrs_generator(MgrsParams(f, alpha, v + (vn,), eta, k - 1, k))
        assert code_eq(ct, mg)


def test_col_twisted_lambda_zero_is_grs(f11):
    a = (2, 3, 4, 5)
    ct = col_twisted_generator(f11, a, 0, 1, 0, 3)
    g = grs_generator(GrsSpec(f11, a + (0,), (1,) * 5, 3))
    assert code_eq(ct, g)


def test_col_twisted_extended_shape(f11):
    ct = col_twisted_generator(f11, (2, 3, 4), 0, 1, 5, 3, extended=True)
    assert (ct.n, ct.k) == (5, 3)
    assert ct.gen.column(4) == (0, 0, 1)
    # a negative k would build a 0-row generator; the bound is k >= 0
    with pytest.raises(ValueError, match=r"^need k >= 0$"):
        col_twisted_generator(f11, (2, 3, 4), 0, 1, 5, -1)


def test_predicates_match_subset_oracle():
    # the subset DP against the definition, in small fields where many
    # draws hit and beyond the fields where is_mds can serve as the oracle:
    # every t in 1..k-1 (t = 1 sums, t = m products, the general fold, and
    # t = k-1 > k-2 on the second emgrs size), 0 among the points on half
    # the draws and eta = 0 on a fifth
    rng = random.Random(18)
    tally = Counter()
    for _ in range(150):
        q = rng.choice((7, 8, 9, 11, 13, 16, 25, 27, 32))
        f = field_from_order(q)
        k = rng.randrange(2, min(10, q + 1))
        nb = rng.randrange(k, min(k + 4, q) + 1)
        alpha = tuple(rng.sample(range(1, q), nb - 1))
        if rng.random() < 0.5:
            alpha = alpha[1:] + (0,)
        eta = 0 if rng.random() < 0.2 else rng.randrange(1, q)
        v = (1,) * nb
        for t in range(1, k):
            want = condition_by_subsets(f, alpha, k - 1, t, eta)
            assert mgrs_is_mds(MgrsParams(f, alpha, v, eta, t, k)) == want
            want = want and condition_by_subsets(f, alpha, k - 2, t, eta)
            assert emgrs_is_mds(EmgrsParams(f, alpha, v, 1, eta, t, k)) == want
            fold = "sum" if t == 1 else "product" if t == k - 1 else "general"
            tally[fold, want] += 1
    assert len(tally) == 6 and min(tally.values()) >= 20, tally


def test_builders_match_entry_formulas():
    # every builder, with random multipliers and parameters, against its
    # entries written out with F.pow; [c] is 1 if c holds, else 0
    rng = random.Random(19)
    built = dict.fromkeys(("grs", "mgrs", "emgrs", "c", "d", "tgrs", "rl", "ct"), 0)

    def assert_entries(code, k, n, entry):
        assert (code.k, code.n) == (k, n)
        for i in range(k):
            for j in range(n):
                assert code.gen.data[i][j] == entry(i, j), (i, j)

    for _ in range(40):
        q = rng.choice((7, 8, 9, 11, 13, 16, 25))
        f = field_from_order(q)
        pw, mul, add, sub = f.pow, f.mul, f.add, f.sub
        nz = lambda: rng.randrange(1, q)
        m = rng.randrange(4, min(q - 2, 9) + 1)
        pts = rng.sample(range(q), m + 2)
        alpha, b, c = tuple(pts[:m]), pts[m], pts[m + 1]
        v = tuple(nz() for _ in range(m + 1))
        k = rng.randrange(3, m + 1)
        t = rng.randrange(1, k)
        eta, v_ext, lam, delta = rng.randrange(q), nz(), nz(), rng.randrange(q)

        def ev(a, i, mult=1):
            # v * a^i, and v * [i = k-1] at infinity
            return mul(mult, int(i == k - 1) if a is INF else pw(a, i))

        ga = alpha[:-1] + (INF,)
        assert_entries(grs_generator(GrsSpec(f, ga, v[:m], k)), k, m,
                       lambda i, j: ev(ga[j], i, v[j]))
        built["grs"] += 1

        def mgrs_entry(i, j):
            if j < m:
                return ev(alpha[j], i, v[j])
            return mul(v[m], add(int(i == 0), mul(eta, int(i == t))))

        assert_entries(mgrs_generator(MgrsParams(f, alpha, v, eta, t, k)),
                       k, m + 1, mgrs_entry)
        built["mgrs"] += 1
        assert_entries(emgrs_generator(EmgrsParams(f, alpha, v, v_ext, eta, t, k)),
                       k, m + 2,
                       lambda i, j: ev(INF, i, v_ext) if j == m + 1 else mgrs_entry(i, j))
        built["emgrs"] += 1
        if t < k - 1:
            exps = [e for e in range(k + 1) if e != t]
            assert_entries(c_code_generator(f, alpha, t, k), k, m,
                           lambda i, j: pw(alpha[j], exps[i]))
            assert_entries(d_code_generator(f, alpha, t, k), k, m + 1,
                           lambda i, j: pw(alpha[j], i) if j < m else int(i == t))
            built["c"] += 1
            built["d"] += 1
        for hook, h in ((TWIST_ZERO, 0), (TWIST_TOP, k - 1)):
            def tgrs_entry(i, j):
                if j == m:
                    return mul(v[m], int(i == h))
                twist = mul(lam, pw(alpha[j], k)) if i == h else 0
                return mul(v[j], add(pw(alpha[j], i), twist))
            try:
                g = tgrs_generator(TgrsParams(f, alpha, v, lam, hook, k))
            except ValueError:
                continue
            assert_entries(g, k, m + 1, tgrs_entry)
            built["tgrs"] += 1
        if m + 2 >= k + 3:
            def rl_entry(i, j):
                if j < m:
                    return pw(alpha[j], i)
                if j == m:
                    return int(i == k - 1)
                return add(int(i == k - 2), mul(delta, int(i == k - 1)))
            assert_entries(roth_lempel_generator(RothLempelParams(f, alpha, delta, k)),
                           k, m + 2, rl_entry)
            built["rl"] += 1
        for ext in (False, True):
            def ct_entry(i, j):
                if j < m:
                    return pw(alpha[j], i)
                if j == m:
                    return sub(pw(b, i), mul(lam, pw(c, i)))
                return int(i == k - 1)
            assert_entries(col_twisted_generator(f, alpha, b, c, lam, k, extended=ext),
                           k, m + 1 + ext, ct_entry)
            built["ct"] += 1
    assert min(built.values()) >= 20, built


def test_subset_dp_matches_subset_enumeration():
    # _no_subset_reaches folds each subset in index order, so any op, even a
    # non-commutative one, must give the verdict of folding every m-subset
    # from scratch; hits scans the last layer, and m runs over 1..n+1
    rng = random.Random(20)
    op = lambda acc, x: (3 * acc + x) % 101
    verdicts = set()
    for _ in range(60):
        vals = [rng.randrange(101) for _ in range(rng.randrange(0, 9))]
        for m in range(1, len(vals) + 2):
            targets = set(rng.sample(range(101), rng.randrange(1, 6)))
            want = True
            for sub in combinations(vals, m):
                acc = 5
                for x in sub:
                    acc = op(acc, x)
                want = want and acc not in targets
            got = families._no_subset_reaches(
                vals, m, op, 5, lambda layer, x: any(op(acc, x) in targets for acc in layer))
            assert got == want, (vals, m, targets)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_subset_dp_budget_raises_on_general_t():
    # eta = 0 and no zero point: no subset hits, so the verdict is True,
    # but the degree-3 folds of the subsets of 39 points in GF(101) are
    # almost all distinct and outgrow the budget long before C(39, 11)
    f = Field(101)
    alpha = tuple(range(1, 40))
    p = MgrsParams(f, alpha, (1,) * 40, 0, 3, 12)
    with pytest.raises(ValueError, match="subset budget exceeded"):
        mgrs_is_mds(p)


def test_subset_dp_fast_folds_stay_far_below_budget(monkeypatch):
    # t = 1 sums and t = m products are field elements, so each of the m
    # layers holds at most q of them: at q = 128 that bound is far below
    # the budget, and a budget of exactly m*q still decides both.  The sums
    # are those of the largest plus-extended table row (reciprocals of a
    # hyperplane); the products run to the end because eta = 0 and no
    # point is 0
    f = field_from_order(128)
    beta = [x for x in f.powers_of_primitive() if x < 64]
    alpha = tuple(f.inv(b) for b in beta) + (0,)
    eta = f.inv(f.pow(f.primitive, 6))
    plus = EmgrsParams(f, alpha, (1,) * (len(alpha) + 1), 1, eta, 1, 62)
    alpha = tuple(range(1, 66))
    product = MgrsParams(f, alpha, (1,) * (len(alpha) + 1), 0, 32, 33)
    for p, check in ((plus, emgrs_is_mds), (product, mgrs_is_mds)):
        bound = (p.k - 1) * f.q
        assert bound <= families._SUBSET_CAP // 32
        monkeypatch.setattr(families, "_SUBSET_CAP", bound)
        # the plus row's target is outside the reciprocals' span, so the
        # closure check alone would decide it; the DP must decide it here
        monkeypatch.setattr(families, "_outside_closure", lambda *args: False)
        assert check(p)
        monkeypatch.undo()


def test_builders_check_full_rank_iff_square(monkeypatch):
    # every builder raises "not full rank" iff the columns it hands to
    # _cols_to_code have rank < k; only square (n = k) draws are checked,
    # and only they fall short: with n > k the columns hold a nonsingular
    # Vandermonde block, or span the twisted-GRS rows
    short = []
    real = families._cols_to_code

    def recorded(F, cols, k):
        short.append(rank(Matrix(F, cols)) < k)
        return real(F, cols, k)

    monkeypatch.setattr(families, "_cols_to_code", recorded)
    rng = random.Random(23)
    drawn, deficient = Counter(), Counter()

    def build(name, n, k, make):
        short.clear()
        try:
            make()
            raised = False
        except ValueError as e:
            assert str(e) == "generator matrix is not full rank", (name, n, k)
            raised = True
        assert short == [raised], (name, n, k)
        drawn[name, n == k] += 1
        deficient[name, n == k] += raised

    for _ in range(400):
        q = rng.choice((4, 5, 7, 8, 9, 11, 13, 16))
        f = field_from_order(q)
        k = rng.randrange(2, min(q, 7))
        n = k + rng.choice((0, 0, 1, 2, 3))
        nz = lambda: rng.randrange(1, q)
        pts = lambda m: tuple(rng.sample(range(q), m))
        t, eta, lam = rng.randrange(1, k), rng.randrange(q), nz()
        builds = []
        if n - 1 <= q:
            builds.append(("mgrs", functools.partial(mgrs_generator, MgrsParams(
                f, pts(n - 1), tuple(nz() for _ in range(n)), eta, t, k))))
        if k >= 3 and n - 1 <= q:
            ct = rng.randrange(1, k - 1)
            if n <= q:
                builds.append(("c-code", functools.partial(c_code_generator, f, pts(n), ct, k)))
            builds.append(("d-code", functools.partial(d_code_generator, f, pts(n - 1), ct, k)))
        if n + 1 <= q:
            *a, b, c = pts(n + 1)
            builds.append(("col-twisted", functools.partial(
                col_twisted_generator, f, a, b, c, rng.randrange(q), k)))
        if n > k:
            if n - 2 <= q:
                builds.append(("emgrs", functools.partial(emgrs_generator, EmgrsParams(
                    f, pts(n - 2), tuple(nz() for _ in range(n - 1)), nz(), eta, t, k))))
            if n <= q:
                *a, b, c = pts(n)
                builds.append(("col-twisted ext", functools.partial(
                    col_twisted_generator, f, a, b, c, rng.randrange(q), k, extended=True)))
            if n - 1 <= q:
                for hook in (TWIST_ZERO, TWIST_TOP):
                    builds.append((f"tgrs {hook}", functools.partial(tgrs_generator, TgrsParams(
                        f, pts(n - 1), tuple(nz() for _ in range(n)), lam, hook, k))))
            if k >= 3 and k + 3 <= n <= q + 2:
                builds.append(("roth-lempel", functools.partial(roth_lempel_generator,
                    RothLempelParams(f, pts(n - 2), rng.randrange(q), k))))
        for name, make in builds:
            build(name, n, k, make)

    names = {name for name, _ in drawn}
    assert len(names) == 9 and all(drawn[name, False] >= 20 for name in names), drawn
    assert not any(deficient[name, False] for name in names), deficient
    square = {"mgrs", "c-code", "d-code", "col-twisted"}
    assert all(deficient[name, True] > 0 for name in square), deficient


def test_curve_rule_matches_is_grs():
    # the GRS rule of the modified-GRS families against is_grs on the built
    # code, which it decides on every draw: with min(k, n-k) >= 3 (at least
    # k+2 curve columns: finite points, and inf for emgrs) GRS iff eta = 0
    # and 0 is not a point, and elsewhere GRS iff MDS and n <= q+1.  eta = 0
    # on a third of the draws and 0 among the points on half, so a rule that
    # ignores either condition fails; a quarter of the draws have n-k <= 2
    # (k = n among them) and a tenth k = 2
    rng = random.Random(21)
    tally = Counter()
    for _ in range(600):
        q = rng.choice((7, 8, 9, 11, 13, 16))
        f = field_from_order(q)
        k = 2 if rng.random() < 0.1 else rng.randrange(3, min(8, q - 1))
        # m finite points
        m = rng.randrange(k - 1, k + 2) if rng.random() < 0.25 else rng.randrange(k + 2, q + 1)
        zero = m == q or rng.random() < 0.5
        alpha = tuple(rng.sample(range(1, q), m - zero)) + (0,) * zero
        eta = 0 if rng.random() < 1 / 3 else rng.randrange(1, q)
        t = rng.randrange(1, k)
        v = tuple(rng.randrange(1, q) for _ in range(m + 1))
        if rng.random() < 0.5:
            p = EmgrsParams(f, alpha, v, rng.randrange(1, q), eta, t, k)
            rule, build = emgrs_is_grs(p), emgrs_generator
        else:
            p = MgrsParams(f, alpha, v, eta, t, k)
            rule, build = mgrs_is_grs(p), mgrs_generator
        assert type(rule) is bool
        try:
            code = build(p)
        except ValueError:
            # a rank-deficient [k, k] generator: no code, and not GRS
            assert p.n == k and rule is False, (q, alpha, eta, t, k)
            tally["deficient"] += 1
            continue
        assert rule == is_grs(code.gen).grs, (q, type(p).__name__, alpha, eta, t, k)
        if min(k, p.n - k) <= 2:
            tally["small", rule, p.n == k] += 1
        else:
            tally[rule, eta == 0, zero] += 1
    small = sum(n for key, n in tally.items() if key[0] == "small")
    assert small >= 150 and 600 - small - tally["deficient"] >= 300, tally
    # GRS draws, and eta = 0 draws with 0 among the points, which are not
    assert tally[True, True, False] >= 20 and tally[False, True, True] >= 20, tally
    # below the curve rule's hypotheses: GRS, non-GRS and k = n draws
    assert (tally["small", True, False] >= 20 and tally["small", False, False] >= 20
            and tally["small", True, True] >= 10), tally
    # emgrs on every point with k = n-1 = q+1: MDS on some draws, but of
    # length q+2 > q+1, so never GRS
    mds = 0
    for q in (4, 5, 7) * 20:
        f = field_from_order(q)
        p = EmgrsParams(f, tuple(rng.sample(range(q), q)),
                        tuple(rng.randrange(1, q) for _ in range(q + 1)), rng.randrange(1, q),
                        rng.randrange(q), rng.randrange(1, q + 1), q + 1)
        assert emgrs_is_grs(p) is False and not is_grs(emgrs_generator(p).gen).grs, p
        mds += emgrs_is_mds(p)
    assert mds >= 5, mds
    # a Roth-Lempel code has n-1 >= k+2 curve columns (its points and inf)
    # and e_(k-2) + delta * e_(k-1), which is 0 in row 0 and not e_(k-1), so
    # a multiple of no point of the curve: never GRS, MDS or not
    for _ in range(150):
        q = rng.choice((8, 9, 11, 13, 16))
        f = field_from_order(q)
        k = rng.randrange(3, q - 1)
        n = rng.randrange(k + 3, q + 3)
        p = RothLempelParams(f, tuple(rng.sample(range(q), n - 2)), rng.randrange(q), k)
        assert not is_grs(roth_lempel_generator(p).gen).grs, (q, p.a, p.delta, k)


def _span(f, basis):
    # every F_p-combination of basis, built from scratch
    out = {0}
    for b in basis:
        out = {f.add(x, f.mul(c, b)) for x in out for c in range(f.p)}
    return out


def test_closure_checks_match_subset_oracle():
    # every product of points lies in the subgroup H of the nonzero points,
    # or is 0, and every sum of values lies in their F_p-span V; a target
    # outside is never reached, and inside the DP decides.  Points drawn
    # from a proper subgroup or subspace, and targets inside and outside
    # it (0 included), for the product (t = m), reciprocal-sum (t = 1) and
    # Roth-Lempel folds, each verdict against every subset folded from
    # scratch
    rng = random.Random(22)
    tally = Counter()
    for _ in range(900):
        fold = rng.choice(("product", "sum", "sum", "roth-lempel"))
        if fold == "product":
            q = rng.choice((11, 13, 16, 25, 27, 31))
            f = field_from_order(q)
            d = rng.choice([d for d in range(2, q - 1) if (q - 1) % d == 0 and (q - 1) // d >= 4])
            closure = set(f.powers_of_primitive()[::d]) | {0}
        else:
            q = rng.choice((8, 9, 16, 25, 27, 32))
            f = field_from_order(q)
            closure = _span(f, rng.sample(range(1, q), rng.randrange(1, f.s)))
            if len(closure) < 5:
                continue
        pts = rng.sample(sorted(closure - {0}), min(len(closure - {0}), rng.randrange(4, 9)))
        target = rng.choice((0, rng.choice(sorted(closure)), rng.randrange(q)))
        if fold == "roth-lempel":
            k = rng.randrange(3, len(pts))
            want = all(functools.reduce(f.add, sub) != target
                       for sub in combinations(pts, k - 1))
            got = roth_lempel_is_mds(RothLempelParams(f, tuple(pts), target, k))
        elif fold == "sum":
            # 1/eta is the target, so eta = 0 (target inf) is left out
            if target == 0:
                continue
            alpha = tuple(f.inv(b) for b in pts) + (0,) * (rng.random() < 0.3)
            k = rng.randrange(2, len(alpha) + 1)
            eta = f.inv(target)
            want = condition_by_subsets(f, alpha, k - 1, 1, eta)
            got = mgrs_is_mds(MgrsParams(f, alpha, (1,) * (len(alpha) + 1), eta, 1, k))
        else:
            alpha = tuple(pts) + (0,) * (rng.random() < 0.3)
            k = rng.randrange(3, len(alpha) + 2)
            m = k - 1
            sign = f.neg(1) if (m + 1) % 2 else 1
            eta = f.mul(sign, target)  # the DP's target is sign * eta
            want = condition_by_subsets(f, alpha, m, m, eta)
            got = mgrs_is_mds(MgrsParams(f, alpha, (1,) * (len(alpha) + 1), eta, m, k))
        assert got == want, (fold, q, pts, target, k)
        tally[fold, target in closure, want] += 1
    for fold in ("product", "sum", "roth-lempel"):
        # outside the closure every verdict is True; inside, both occur
        assert tally[fold, False, True] >= 5 and not tally[fold, False, False], tally
        assert tally[fold, True, True] >= 5 and tally[fold, True, False] >= 5, tally


def test_closure_stays_within_the_dp_budget(monkeypatch):
    # 4 generates the squares of GF(13)*, six elements, and 2 is not one;
    # 1 and 2 span {0, 1, 2, 3} in GF(8), and 4 is not in it; a target 0
    # is left to the DP, and so is any target once the group outgrows
    # _SUBSET_CAP
    f13, f8 = Field(13), Field(2, 3)
    assert families._outside_closure((4,), f13.mul, 1, 2)
    assert not families._outside_closure((4,), f13.mul, 1, 3)
    assert families._outside_closure((1, 2), f8.add, 0, 4)
    assert not families._outside_closure((1, 2), f8.add, 0, 3)
    assert not families._outside_closure((4,), f13.mul, 1, 0)
    monkeypatch.setattr(families, "_SUBSET_CAP", 5)
    assert not families._outside_closure((4,), f13.mul, 1, 2)
    assert families._outside_closure((1, 2), f8.add, 0, 4)
