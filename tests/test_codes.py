import random
from collections import Counter
from itertools import combinations, product

import pytest

from grskit.gf import Field, field_from_order, INF
from grskit.linalg import Matrix, matmul, rank, det, submatrix
from grskit.codes import (LinearCode, GrsSpec, FormatError, grs_generator,
                          grs_dual_multipliers, dual, puncture, shorten,
                          min_distance, is_mds, code_eq,
                          _weight_distribution, _macwilliams,
                          format_matrix_file, parse_matrix_file,
                          format_spec_file, parse_spec_file,
                          read_matrix_file, read_spec_file)
from grskit.grsid import CountingField, random_grs_spec


def test_grs_generator_vandermonde():
    f3 = Field(3)
    g = grs_generator(GrsSpec(f3, (0, 1, 2), (1, 1, 1), 2))
    assert g.gen.data == ((1, 1, 1), (0, 1, 2))


def test_grs_generator_infinity_column():
    f3 = Field(3)
    g = grs_generator(GrsSpec(f3, (0, 1, INF), (1, 1, 1), 2))
    assert g.gen.data == ((1, 1, 0), (0, 1, 1))


def test_grs_generator_f11_power_columns(f11):
    # the power columns used by the length-(q+5)/2 construction over F_11
    g = grs_generator(GrsSpec(f11, (2, 4, 8, 5, 10, 1, 0), (1,) * 7, 3))
    assert g.gen.data == ((1, 1, 1, 1, 1, 1, 1),
                          (2, 4, 8, 5, 10, 1, 0),
                          (4, 5, 9, 3, 1, 1, 0))


def test_spec_invariants(f11):
    with pytest.raises(ValueError):
        GrsSpec(f11, (0, 0, 1), (1, 1, 1), 2)
    with pytest.raises(ValueError):
        GrsSpec(f11, (INF, 0, INF), (1, 1, 1), 2)
    with pytest.raises(ValueError):
        GrsSpec(f11, (0, 1, 2), (1, 0, 1), 2)
    with pytest.raises(ValueError):
        GrsSpec(f11, (0, 1, 2), (1, 1), 2)


def test_dual_of_repetition_code(f11):
    rep = LinearCode(f11, Matrix(f11, [[1] * 5]))
    d = dual(rep)
    assert (d.n, d.k) == (5, 4)
    # every row sums to zero
    for row in d.gen.data:
        acc = 0
        for e in row:
            acc = f11.add(acc, e)
        assert acc == 0


def test_dual_involution(f11):
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randrange(4, 9)
        k = rng.randrange(1, n)
        spec = random_grs_spec(f11, n, k, rng)
        c = grs_generator(spec)
        assert code_eq(dual(dual(c)), c)


def test_dual_multipliers_small_cases():
    f3 = Field(3)
    u = grs_dual_multipliers(GrsSpec(f3, (0, 1), (1, 1), 1))
    assert u == (2, 1)
    f5 = Field(5)
    spec = GrsSpec(f5, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    # independent oracle: plain-integer arithmetic mod 5
    expect = []
    for i, ai in enumerate(spec.alpha):
        prod = 1
        for j, aj in enumerate(spec.alpha):
            if j != i:
                prod = prod * (ai - aj) % 5
        expect.append(pow(prod, -1, 5))
    assert list(grs_dual_multipliers(spec)) == expect == [4, 3, 2, 1]


def test_dual_multipliers_orthogonality_and_dual_code(f11):
    # with and without the point at infinity, whose multiplier is -1/v
    rng = random.Random(3)
    for i in range(40):
        n = rng.randrange(4, 10) if i % 2 == 0 else rng.randrange(2, 13)
        k = rng.randrange(1, n)
        spec = random_grs_spec(f11, n, k, rng, with_inf=i % 2 == 1)
        u = grs_dual_multipliers(spec)
        g = grs_generator(spec)
        h = grs_generator(GrsSpec(f11, spec.alpha, u, n - k))
        assert not any(map(any, matmul(g.gen, h.gen.transpose()).data))
        assert code_eq(dual(g), h)


def test_kernel_of_grs_generator_is_dual_grs(f11):
    spec = GrsSpec(f11, (0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6), 3)
    g = grs_generator(spec)
    u = grs_dual_multipliers(spec)
    h = grs_generator(GrsSpec(f11, spec.alpha, u, 3))
    assert code_eq(dual(g), h)


def test_puncture_and_shorten_shapes(counterexample):
    p = puncture(counterexample, [7])
    s = shorten(counterexample, [7])
    assert (p.n, p.k) == (6, 4)
    assert (s.n, s.k) == (6, 3)


def test_puncture_of_grs_is_grs_on_reduced_points(f11):
    spec = GrsSpec(f11, (0, 1, 2, 3, 4), (1, 2, 3, 4, 5), 2)
    c = grs_generator(spec)
    p = puncture(c, [3])
    reduced = GrsSpec(f11, (0, 1, 3, 4), (1, 2, 4, 5), 2)
    assert code_eq(p, grs_generator(reduced))


def test_puncture_shorten_duality(f11):
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(5, 10)
        k = rng.randrange(2, n - 1)
        spec = random_grs_spec(f11, n, k, rng)
        c = grs_generator(spec)
        pos = sorted(rng.sample(range(1, n + 1), rng.randrange(1, k)))
        lhs = shorten(c, pos)
        rhs_inner = puncture(dual(c), pos)
        rhs = dual(rhs_inner)
        assert code_eq(lhs, rhs)


def test_position_validation(counterexample):
    with pytest.raises(ValueError):
        puncture(counterexample, [0])
    with pytest.raises(ValueError):
        puncture(counterexample, [8])
    with pytest.raises(ValueError):
        puncture(counterexample, [])


def test_min_distance_repetition(f11):
    rep = LinearCode(f11, Matrix(f11, [[1] * 6]))
    assert min_distance(rep) == 6


def test_min_distance_budget():
    # [4,3]/GF(257) walks its [4,1] dual: 4 words, where its 257^3 messages
    # were once refused.  [20,10]/GF(257) walks itself: 20*257^9 > 2^24
    f257 = Field(257)
    c = grs_generator(GrsSpec(f257, (0, 1, 2, 3), (1,) * 4, 3))
    assert min_distance(c) == 2
    c = grs_generator(GrsSpec(f257, tuple(range(20)), (1,) * 20, 10))
    with pytest.raises(ValueError, match=r"enumeration budget exceeded: "
                       r"n\*q\^\(k-1\) = 20\*257\^9 > 16777216 for the \[20,10\] code"):
        min_distance(c)


def test_is_mds_duplicate_columns(f11):
    g = Matrix(f11, [[1, 1, 2], [3, 3, 4]])
    assert not is_mds(LinearCode(f11, g))


def test_grs_codes_are_mds(f11):
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(4, 10)
        k = rng.randrange(1, n)
        c = grs_generator(random_grs_spec(f11, n, k, rng,
                                          with_inf=rng.random() < 0.3))
        assert is_mds(c)


def test_is_mds_agrees_with_min_distance():
    rng = random.Random(6)
    # exhaustive-ish small sweep plus random draws
    for q in (5, 7, 8):
        f = field_from_order(q)
        for _ in range(35):
            n = rng.randrange(3, 8)
            k = rng.randrange(1, min(n, 3) + 1)
            while True:
                m = Matrix(f, [[rng.randrange(q) for _ in range(n)]
                               for _ in range(k)])
                if rank(m) == k:
                    break
            c = LinearCode(f, m)
            assert is_mds(c) == (min_distance(c) == n - k + 1)


def mds_by_minors(code):
    """Oracle: every k × k minor of the generator is nonzero."""
    g, k = code.gen, code.k
    return all(det(submatrix(g, range(k), ci)) != 0
               for ci in combinations(range(code.n), k))


def _draw_generator(f, n, k, kind, rng):
    """A k × n generator of the given kind; a GRS kind longer than q + 1
    falls back to a random full-rank generator."""
    q = f.q
    if kind in ("grs", "grs-changed") and n <= q + 1:
        with_inf = n == q + 1 or rng.random() < 0.5
        rows = [list(r) for r in
                grs_generator(random_grs_spec(f, n, k, rng, with_inf)).gen.data]
        if kind == "grs-changed":
            i, j = rng.randrange(k), rng.randrange(n)
            x = rng.randrange(q - 1)
            rows[i][j] = x + (x >= rows[i][j])
        return Matrix(f, rows)
    if kind == "sparse":
        # uniform with 20% zeros, full rank or not
        return Matrix(f, [[rng.randrange(1, q) if rng.random() < 0.8 else 0
                           for _ in range(n)] for _ in range(k)], cols=n)
    if kind == "deficient":
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k - 1)]
        last = [0] * n
        for r in rows:
            c = rng.randrange(q)
            last = [f.add(x, f.mul(c, y)) for x, y in zip(last, r)]
        return Matrix(f, rows + [last])
    while True:
        m = Matrix(f, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        if rank(m) == k:
            return m


def _refused_if_deficient(f, m, kind):
    """Whether m is rank deficient, having checked that LinearCode then
    refuses it; every "deficient" draw is."""
    if rank(m) == m.rows:
        assert kind != "deficient", m.data
        return False
    with pytest.raises(ValueError, match="generator matrix is not full rank"):
        LinearCode(f, m)
    return True


def test_is_mds_matches_minor_enumeration():
    # every shape with n <= 8 and 1 <= k <= n (so k = n and 2k = n too),
    # four kinds each: GRS with and without infinity, GRS with one entry
    # changed, random full rank, and rank-deficient, which LinearCode refuses
    rng = random.Random(8)
    kinds = ("grs", "grs-changed", "random", "deficient")
    draws = mds = 0
    for q in (4, 7, 8, 9, 11, 13, 16, 25):
        f = field_from_order(q)
        for n in range(1, 9):
            for k in range(1, n + 1):
                for kind in kinds:
                    for _ in range(2 if kind.startswith("grs") else 1):
                        m = _draw_generator(f, n, k, kind, rng)
                        draws += 1
                        if _refused_if_deficient(f, m, kind):
                            continue
                        c = LinearCode(f, m)
                        want = mds_by_minors(c)
                        assert is_mds(c) == want, (q, m.data)
                        mds += want
    assert draws >= 1500
    assert 0.3 * draws < mds < 0.9 * draws


def test_is_mds_rank_deficient(f11):
    # a rank-deficient generator never becomes a LinearCode, so is_mds
    # never sees one: with 2k > n and with 2k <= n
    m = Matrix(f11, [[1, 2, 3, 4], [0, 1, 5, 7], [1, 3, 8, 0]])
    assert rank(m) == 2
    with pytest.raises(ValueError, match="generator matrix is not full rank"):
        LinearCode(f11, m)
    m = Matrix(f11, [[1, 2, 3, 4, 5, 6], [2, 4, 6, 8, 10, 1]])
    assert rank(m) == 1
    with pytest.raises(ValueError, match="generator matrix is not full rank"):
        LinearCode(f11, m)


def test_is_mds_budget():
    # C(40, 20) ~ 1.4e11 column subsets: refused before any walking
    f = field_from_order(41)
    c = grs_generator(random_grs_spec(f, 40, 20, random.Random(9)))
    with pytest.raises(ValueError, match=r"C\(40,20\) > 16777216 .* n=40, k=20"):
        is_mds(c)
    # a zero column decides not-MDS before the budget is asked
    g = [row[:7] + (0,) + row[8:] for row in c.gen.data]
    assert is_mds(LinearCode(f, Matrix(f, g))) is False


def test_is_mds_op_ceiling_extended_grs():
    # the extended GRS [17,14] code over GF(16) walks its [17,3] dual:
    # 5,317 field operations, against 973,333 for the 680 minors.  The
    # [17,8] code is walked directly (2k <= n): 355,078 operations
    f = field_from_order(16)
    for k, ceiling in ((14, 13_356), (8, 710_156)):
        cf = CountingField(f)
        g = grs_generator(GrsSpec(f, tuple(range(16)) + (INF,), (1,) * 17, k)).gen
        code = LinearCode(cf, Matrix(cf, g.data))
        cf.ops = 0  # count is_mds only, not the constructor's rank check
        assert is_mds(code)
        assert cf.ops <= ceiling, (k, cf.ops)


def min_distance_by_messages(code):
    """Oracle: the least weight of m·G over all q^k - 1 nonzero messages m."""
    F = code.field
    q, k, n = F.q, code.k, code.n
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
        best = min(best, w)
    return best


def schur_square_dim(code):
    """Oracle: dim of C*C, the span of the k(k+1)/2 entrywise products of
    generator rows.  GRS_k(a, v) * GRS_k(a, v) = GRS_(2k-1)(a, v^2), ∞
    included, so a GRS code gives min(n, 2k-1) and a larger value proves
    the code non-GRS."""
    F, rows = code.field, code.gen.data
    prods = [[F.mul(x, y) for x, y in zip(r, s)] for i, r in enumerate(rows) for s in rows[i:]]
    return rank(Matrix(F, prods))


def test_schur_square_of_grs_has_dim_2k_minus_1():
    rng = random.Random(22)
    for _ in range(60):
        q = rng.choice((8, 9, 11, 13, 16, 25))
        f = field_from_order(q)
        with_inf = rng.random() < 0.5
        n = rng.randrange(4, q + 1 + with_inf)
        k = rng.randrange(1, n // 2 + 3)  # both sides of 2k - 1 = n
        code = grs_generator(random_grs_spec(f, n, k, rng, with_inf=with_inf))
        assert schur_square_dim(code) == min(n, 2 * k - 1)


def test_min_distance_matches_message_enumeration():
    # every shape with n <= 9 and 0 <= k <= n whose q^k messages the oracle
    # can afford, four kinds each: GRS with and without infinity (length
    # q+1 always with it), GRS with one entry changed, uniform with 20%
    # zeros, and rank-deficient, which LinearCode refuses
    rng = random.Random(10)
    kinds = ("grs", "grs-changed", "sparse", "deficient")
    branches = Counter()
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        f = field_from_order(q)
        for n in range(1, 10):
            for k in range(n + 1):
                if q ** k > 2048:
                    break
                for kind in kinds if k else ("sparse",):
                    m = _draw_generator(f, n, k, kind, rng)
                    side = "code" if 2 * k <= n else "dual"
                    branches[side, rank(m) == k] += 1
                    if _refused_if_deficient(f, m, kind):
                        continue
                    c = LinearCode(f, m)
                    assert min_distance(c) == min_distance_by_messages(c), (q, m.data)
    # (side walked, full rank): 630, 264, 180 and 132 of 1206 draws
    assert branches[("code", True)] >= 600 and branches[("dual", True)] >= 250, branches
    assert branches[("code", False)] >= 150 and branches[("dual", False)] >= 100, branches


def test_weight_distribution_macwilliams():
    # the code's own distribution equals the MacWilliams transform of its
    # dual's, on seeded full-rank draws (156 of the 200); each counts all
    # q^k messages
    rng = random.Random(11)
    for _ in range(200):
        f = field_from_order(rng.choice((2, 3, 4, 5, 7, 8, 9)))
        q = f.q
        n = rng.randrange(1, 9)
        k = rng.randrange(1, n + 1)
        if q ** max(k, n - k) > 4096:
            continue
        m = _draw_generator(f, n, k, rng.choice(("grs", "grs-changed", "random")), rng)
        if rank(m) < k:
            continue
        a = _weight_distribution(f, m.data, n)
        assert sum(a) == q ** k and a[0] == 1
        d = dual(LinearCode(f, m))
        b = _weight_distribution(f, d.gen.data, n)
        assert sum(b) == q ** (n - k)
        assert _macwilliams(b, q) == a, (q, m.data)
        assert _macwilliams(a, q) == b, (q, m.data)


def test_min_distance_op_ceiling(f11):
    # GRS [10,3]/GF(11) walks itself: 216 field operations, against 63,606
    # for the message loop over its 11^3 messages.  GRS [8,6]/GF(11) walks
    # its [8,2] dual: 270 operations, most of them in dual's elimination,
    # against 63,585,972 for 11^6 messages
    for n, k, d, ceiling in ((10, 3, 8, 432), (8, 6, 3, 540)):
        cf = CountingField(f11)
        g = grs_generator(GrsSpec(f11, tuple(range(n)), (1,) * n, k)).gen
        code = LinearCode(cf, Matrix(cf, g.data))
        cf.ops = 0  # count min_distance only, not the constructor's rank check
        assert min_distance(code) == d
        assert cf.ops <= ceiling, (n, k, cf.ops)


def test_code_eq_row_permutation(f11):
    m = Matrix(f11, [[1, 2, 3, 4], [5, 6, 7, 9]])
    m2 = Matrix(f11, [[5, 6, 7, 9], [1, 2, 3, 4]])
    assert code_eq(LinearCode(f11, m), LinearCode(f11, m2))


def test_code_eq_affine_point_transform(f11):
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(4, 9)
        k = rng.randrange(1, n)
        spec = random_grs_spec(f11, n, k, rng)
        a = rng.randrange(1, 11)
        b = rng.randrange(11)
        c = rng.randrange(1, 11)
        alpha2 = tuple(f11.add(f11.mul(a, x), b) for x in spec.alpha)
        v2 = tuple(f11.mul(c, x) for x in spec.v)
        assert code_eq(grs_generator(spec),
                       grs_generator(GrsSpec(f11, alpha2, v2, k)))


def test_code_eq_detects_single_column_scaling(f11):
    ones = LinearCode(f11, Matrix(f11, [[1, 1, 1, 1]]))
    other = LinearCode(f11, Matrix(f11, [[1, 2, 3, 4]]))
    assert not code_eq(ones, other)


def test_code_eq_equivalence_relation(f11):
    rng = random.Random(8)
    for _ in range(10):
        spec = random_grs_spec(f11, 6, 3, rng)
        c1 = grs_generator(spec)
        c2 = grs_generator(GrsSpec(f11, spec.alpha,
                                   tuple(f11.mul(2, x) for x in spec.v), 3))
        c3 = grs_generator(random_grs_spec(f11, 6, 3, rng))
        assert code_eq(c1, c1)
        assert code_eq(c1, c2) == code_eq(c2, c1)
        if code_eq(c1, c2) and code_eq(c2, c3):
            assert code_eq(c1, c3)


def test_code_eq_singular_leading_block(f11):
    # a zero first column leaves the leading block singular in every presentation
    rng = random.Random(9)
    seen = 0
    while seen < 20:
        rows = [[0] + [rng.randrange(11) for _ in range(5)] for _ in range(3)]
        mix = Matrix(f11, [[rng.randrange(11) for _ in range(3)] for _ in range(3)])
        other = [list(r) for r in rows]
        other[2][5] = f11.add(other[2][5], 1)
        if rank(Matrix(f11, rows)) < 3 or rank(mix) < 3 or rank(Matrix(f11, rows + other)) < 4:
            continue
        code = LinearCode(f11, Matrix(f11, rows))
        assert code_eq(code, LinearCode(f11, matmul(mix, code.gen)))
        assert not code_eq(code, LinearCode(f11, Matrix(f11, other)))
        seen += 1


def test_code_eq_field_mismatch(f11):
    f13 = Field(13)
    a = LinearCode(f11, Matrix(f11, [[1, 2]]))
    b = LinearCode(f13, Matrix(f13, [[1, 2]]))
    with pytest.raises(ValueError):
        code_eq(a, b)


def test_matrix_file_roundtrip(f8):
    m = Matrix(f8, [[1, 2, 3, 0], [4, 5, 6, 7]])
    text = format_matrix_file(m)
    back = parse_matrix_file(text)
    assert back == m
    assert back.field == f8


def test_spec_file_roundtrip(f11):
    spec = GrsSpec(f11, (0, 5, INF, 3), (1, 2, 3, 4), 2)
    text = format_spec_file(spec)
    assert "alpha: 0 5 inf 3" in text
    back = parse_spec_file(text)
    assert back == spec


@pytest.mark.parametrize("text", [
    "",
    "field p=11 s=1\nmatrix 1 1\n5",
    "field p=11 s=1 mod=0,1\nmatrix 1 2\n5",
    "field p=11 s=1 mod=0,1\nmatrix 1 2\n5 11",
    "field p=11 s=1 mod=0,1\nmatrix 2 2\n5 1",
    "field p=4 s=1 mod=0,1\nmatrix 1 1\n1",
    # header integers are canonical ASCII decimals, as element tokens are
    "field p=1_1 s=1 mod=0,1\nmatrix 1 1\n5",
    "field p=11 s=+1 mod=0,1\nmatrix 1 1\n5",
    "field p=11 s=1 mod=0,+1\nmatrix 1 1\n5",
    "field p=11 s=1 mod=0,1\nmatrix +1 1\n5",
    "field p=11 s=1 mod=0,1\nmatrix 1 01\n5",
    "field p=11 s=1 mod=0,1\nmatrix 1 1\n1_0",
    "field p=11 s=1 mod=0,1\nmatrix 1 1\n\u0661",
    # a modulus coefficient is below p, not reduced mod p (22,12 would read as x)
    "field p=11 s=1 mod=22,12\nmatrix 1 1\n5",
])
def test_malformed_matrix_files(text):
    with pytest.raises(FormatError):
        parse_matrix_file(text)


def test_malformed_spec_file(f11):
    with pytest.raises(FormatError):
        parse_spec_file("field p=11 s=1 mod=0,1\nalpha: 0 1\nv: 1 1\n")
    with pytest.raises(FormatError):
        parse_spec_file("field p=11 s=1 mod=0,1\nalpha: 0 0\nv: 1 1\nk: 1\n")
    with pytest.raises(FormatError):
        parse_spec_file("field p=11 s=1 mod=0,1\nalpha: 0 1\nv: 1 1\nk: +1\n")
    with pytest.raises(FormatError):
        parse_spec_file("field p=11 s=1 mod=0,1\nalpha: 0 +1\nv: 1 1\nk: 1\n")
    with pytest.raises(FormatError):
        parse_spec_file("field p=11 s=1 mod=0,1\nalpha: 0 1 2\nv: 1 1 1\nk: 3 junk 9\n")


def test_undecodable_files(tmp_path):
    # the last token is the byte 0xff, which no ASCII token contains
    cases = ((read_matrix_file, b"field p=11 s=1 mod=0,1\nmatrix 1 2\n5 \xff\n"),
             (read_spec_file, b"field p=11 s=1 mod=0,1\nalpha: 0 1\nv: 1 1\nk: \xff\n"))
    for i, (read, data) in enumerate(cases):
        path = tmp_path / f"bad{i}.txt"
        path.write_bytes(data)
        with pytest.raises(FormatError):
            read(path)
