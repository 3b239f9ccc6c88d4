import random
from functools import partial

import pytest

from grskit.gf import Field, field_from_order
from grskit.codes import min_distance, is_mds, dual
from grskit.families import EmgrsParams, MgrsParams, emgrs_generator, mgrs_generator
from grskit.constructions import (star_modified, odd_k3, plus_modified,
                                  char2_k4, ngrs_q2_3, tgrs_punctured, table1)
from grskit.families import RothLempelParams, roth_lempel_generator, roth_lempel_is_mds
from grskit.grsid import cauchy_test, is_grs
from grskit.linalg import det, submatrix

from .test_acceptance import _expected_table_rows
from .test_codes import schur_square_dim


def assert_nongrs_record(rec):
    assert rec.mds
    assert rec.grs_verdict is False


def test_star_modified_lengths_and_verdicts():
    rec = star_modified(Field(11), 4)
    assert rec.n == 7
    assert_nongrs_record(rec)
    rec = star_modified(Field(13), 4)
    assert rec.n == 8
    assert_nongrs_record(rec)


def test_star_modified_q9_is_short_length():
    # k = n-2 here, so GRS-ness is adjudicated and comes out positive;
    # only the length and MDS-ness are construction guarantees
    rec = star_modified(Field(3, 2), 4)
    assert rec.n == 6
    assert rec.mds


def test_star_modified_threshold_is_non_square():
    f = Field(13)
    rec = star_modified(f, 4)
    eta = int(rec.params["eta"])
    eta_prime = eta if 4 % 2 == 0 else f.neg(eta)
    # the defeating products all lie in the squares subgroup or are 0
    assert f.pow(eta_prime, (f.q - 1) // 2) == f.neg(1)
    assert mgrs_is_mds_from_record(f, rec)


def mgrs_is_mds_from_record(f, rec):
    from grskit.families import mgrs_is_mds
    alpha = tuple(int(t) for t in rec.params["alpha"].split(","))
    v = tuple(int(t) for t in rec.params["v"].split(","))
    return mgrs_is_mds(MgrsParams(f, alpha, v, int(rec.params["eta"]),
                                  int(rec.params["t"]), rec.k))


def test_odd_k3_is_exactly_the_worked_f11_code(f11):
    rec = odd_k3(f11, 3)
    assert (rec.n, rec.k) == (8, 3)
    assert_nongrs_record(rec)
    worked = mgrs_generator(MgrsParams(f11, (2, 4, 8, 5, 10, 1, 0), (1,) * 8,
                                       f11.neg(1), 2, 3))
    assert rec.code.gen.data == worked.gen.data
    assert min_distance(rec.code) == 6


def test_odd_k3_dual_row(f11):
    rec = odd_k3(f11, 5)
    assert (rec.n, rec.k) == (8, 5)
    assert_nongrs_record(rec)
    assert min_distance(rec.code) == 4


def test_odd_k3_q13():
    rec = odd_k3(Field(13), 3)
    assert (rec.n, rec.k) == (9, 3)
    assert_nongrs_record(rec)
    assert min_distance(rec.code) == 7


def test_plus_modified_lengths():
    f16 = Field(2, 4)
    rec = plus_modified(f16, 5, extended=True)
    assert rec.n == 10
    assert_nongrs_record(rec)
    rec = plus_modified(f16, 5, extended=False)
    assert rec.n == 9
    assert_nongrs_record(rec)


def test_plus_modified_q32_extended():
    rec = plus_modified(Field(2, 5), 6, extended=True)
    assert rec.n == 18
    assert_nongrs_record(rec)


def test_plus_modified_eta_outside_hyperplane_when_x_not_primitive():
    # under this modulus the primitive element is w = x^2 + x + 1, and
    # w^7 lies in V, the span of 1, x, ..., x^6; with 1/eta = w^7 all 122
    # plus records read non-MDS, and the k = 5 record has singular minors
    # through its special column (index 128) such as the first three
    # below, on four reciprocals in V summing to w^7; the last minor also
    # takes the top-coefficient column (index 129)
    f = Field(2, 8, (1, 0, 1, 1, 1, 1, 0, 1, 1))
    assert f.primitive == 7 and f.pow(7, 7) < 128
    plus = [rec for rec in table1(f).records if rec.family.startswith("modified-grs-plus")]
    assert len(plus) == 122 and all(rec.mds for rec in plus)
    rec = next(rec for rec in plus if rec.k == 5)
    for cols in ((13, 17, 72, 108, 128), (8, 46, 97, 102, 128), (6, 15, 32, 63, 128),
                 (0, 1, 2, 3, 128), (0, 1, 2, 128, 129)):
        assert det(submatrix(rec.code.gen, range(5), cols)) != 0, cols


def test_plus_modified_mds_under_every_modulus():
    # 1/eta lies outside V for every irreducible modulus, x primitive or not
    for s in range(4, 10):
        for low in range(1, 1 << s, 2):
            mod = tuple((low >> i) & 1 for i in range(s)) + (1,)
            try:
                f = Field(2, s, mod)
            except ValueError:  # reducible
                continue
            for extended in (False, True):
                assert plus_modified(f, 5, extended).mds, (mod, extended)


def test_records_above_256_have_nonzero_minors_through_special_columns():
    # is_mds cannot walk codes this long, so explicit minors are the
    # oracle: k-subsets of columns through the special column (the last,
    # or the second-to-last before a top-coefficient column), and through
    # it and the top-coefficient column, each of nonzero det.  Per column
    # set, two seeded prefixes of points are each completed by every other
    # point, so a point that would make the subset singular is never missed
    rng = random.Random(22)
    records = [plus_modified(field_from_order(q), 5, extended)
               for q in (512, 1024) for extended in (False, True)]
    records.append(star_modified(field_from_order(729), 6))
    for rec in records:
        assert rec.mds and rec.n == rec.code.n, rec.summary()
        n, k = rec.n, rec.k
        if rec.family == "modified-grs-plus-extended":
            special, throughs = n - 2, ((n - 2,), (n - 2, n - 1))
        else:
            special, throughs = n - 1, ((n - 1,),)
        for through in throughs:
            for _ in range(2):
                prefix = rng.sample(range(special), k - 1 - len(through))
                for last in sorted(set(range(special)) - set(prefix)):
                    cols = sorted(prefix + [last]) + list(through)
                    assert det(submatrix(rec.code.gen, range(k), cols)) != 0, (rec.summary(), cols)


def test_char2_k4_is_exactly_the_worked_f8_code(f8):
    rec = char2_k4(f8, 4)
    assert (rec.n, rec.k) == (7, 4)
    assert_nongrs_record(rec)
    w = f8.primitive
    worked = mgrs_generator(MgrsParams(
        f8, (f8.pow(w, 5), f8.pow(w, 3), f8.pow(w, 2), w, 0, 1),
        (1,) * 7, 1, 1, 4))
    assert rec.code.gen.data == worked.gen.data
    assert min_distance(rec.code) == 4


def test_char2_k4_dual_row(f8):
    rec = char2_k4(f8, 3)
    assert (rec.n, rec.k) == (7, 3)
    assert_nongrs_record(rec)
    assert min_distance(rec.code) == 5


def test_char2_k4_q16():
    rec = char2_k4(Field(2, 4), 4)
    assert (rec.n, rec.k) == (11, 4)
    assert_nongrs_record(rec)  # MDS with these parameters means d = 8


def test_ngrs_q4_exhaustive():
    rec = ngrs_q2_3(Field(2, 2))
    assert (rec.n, rec.k) == (6, 3)
    assert_nongrs_record(rec)
    assert min_distance(rec.code) == 4


def test_ngrs_equals_roth_lempel_on_all_points(f8):
    rec = ngrs_q2_3(f8)
    rl = roth_lempel_generator(RothLempelParams(f8, tuple(range(8)), 0, 3))
    assert rec.code.gen.data == rl.gen.data


def test_each_record_verified_once(monkeypatch):
    # both verdicts come from the parameters: MDS from a certificate, so
    # no columns are walked, and GRS from the curve rule or, for a
    # Roth-Lempel or twisted-GRS row, the curve argument, so no is_grs runs
    # in any builder or in table1, below the rule's hypotheses included
    # (star_modified at k = n-2, odd_k3 on GF(5)); a dual row takes both
    # verdicts of its primal, and a twisted-GRS row the MDS verdict of its
    # [q+2, 3] code
    from grskit import codes, constructions, grsid
    calls = {"rl": 0}

    def no_walk(*args):
        raise AssertionError("column walk")

    def no_is_grs(*args):
        raise AssertionError("is_grs")

    def counted_rl(p):
        calls["rl"] += 1
        return roth_lempel_is_mds(p)

    monkeypatch.setattr(codes, "_columns_independent", no_walk)
    monkeypatch.setattr(constructions, "roth_lempel_is_mds", counted_rl)
    monkeypatch.setattr(grsid, "is_grs", no_is_grs)
    assert not any(v is grsid or getattr(v, "__module__", None) == grsid.__name__
                   for v in vars(constructions).values())
    # (k, n, GRS): the [6, 4] and [5, 3] codes, of length q+1 or less and
    # with n-k = 2, are MDS and so GRS
    for build, shape in ((lambda: odd_k3(Field(11), 3), (3, 8, False)),
                         (lambda: odd_k3(Field(13), 6), (6, 9, False)),
                         (lambda: odd_k3(Field(5), 3), (3, 5, True)),
                         (lambda: char2_k4(Field(2, 3), 3), (3, 7, False)),
                         (lambda: char2_k4(Field(2, 4), 4), (4, 11, False)),
                         (lambda: star_modified(Field(13), 4), (4, 8, False)),
                         (lambda: star_modified(Field(3, 2), 4), (4, 6, True)),
                         (lambda: plus_modified(Field(2, 5), 5, extended=False),
                          (5, 17, False)),
                         (lambda: plus_modified(Field(2, 5), 6, extended=True),
                          (6, 18, False)),
                         (lambda: ngrs_q2_3(Field(2, 3)), (3, 10, False)),
                         (lambda: tgrs_punctured(Field(2, 4), 9), (9, 12, False))):
        calls.update(rl=0)
        rec = build()
        assert (rec.k, rec.n, rec.grs_verdict) == shape and rec.mds, rec.summary()
        assert calls["rl"] == (rec.family in ("roth-lempel", "twisted-grs")), rec.summary()
    for q in (8, 9, 11, 16, 25, 32, 64):
        calls.update(rl=0)
        report = table1(field_from_order(q))
        assert calls["rl"] == (q % 2 == 0) and report.records


@pytest.mark.parametrize("q, rows", [(25, 2), (27, 2), (64, 3)])
def test_one_closure_per_fold_row(monkeypatch, q, rows):
    # every record of a row folds the same values towards the same target,
    # so table1 computes each fold row's closure once: the k = 3 and star
    # rows at odd q, the Roth-Lempel, k = 4 and plus rows in characteristic
    # 2; a single builder call computes at most one
    from grskit import constructions, families
    calls = []
    real = families._outside_closure

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(families, "_outside_closure", counted)
    monkeypatch.setattr(constructions, "_outside_closure", counted, raising=False)
    f = field_from_order(q)
    assert len(table1(f).records) > 2 * rows
    assert len(calls) == rows
    if f.p == 2:
        builds = [partial(plus_modified, f, k, extended=ext)
                  for k in (5, (q - 4) // 2) for ext in (False, True)]
    else:
        # k = n-2 = (q-1)/2, a GRS record, takes its GRS verdict from the
        # same certificate
        builds = [partial(star_modified, f, k) for k in (4, (q - 1) // 2)]
    for build in builds:
        calls.clear()
        assert build().mds
        assert len(calls) <= 1


def test_pair_folds_take_one_pass():
    # an m = 2 fold is decided by looking up target - x (or target / x)
    # among the values already seen, O(q) field operations, not a DP that
    # tests every held fold against each new value: the k = 3 row's
    # products at GF(729) (its closure is the whole group) and the [q+2, 3]
    # Roth-Lempel sums at GF(512) (target 0, so no closure); for m >= 3 the
    # DP looks target - x up in its last layer the same way, so the k = 4
    # row's m = 3 sums at GF(512) cost 34,186 ops (94,326 when each new
    # value was folded into every held value and tested)
    from grskit.grsid import CountingField
    for build, f, bound in ((partial(odd_k3, k=3), field_from_order(729), 4 * 729),
                            (ngrs_q2_3, Field(2, 9), 2 * 512),
                            (partial(char2_k4, k=4), Field(2, 9), 40_000)):
        cf = CountingField(f)
        assert build(cf).mds
        assert cf.ops <= bound, (f, cf.ops)


@pytest.mark.parametrize("q, rows", [(37, 2), (64, 3), (81, 2)])
def test_one_points_check_per_row(monkeypatch, q, rows):
    # every record of a row has the row's points, so table1 checks them
    # once a row: the k = 3 and star rows at odd q, the Roth-Lempel, k = 4
    # and plus rows in characteristic 2 (15, 28 and 37 checks when every
    # record checked its own)
    from grskit import families
    calls = []
    real = families._check_distinct_finite

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(families, "_check_distinct_finite", counted)
    assert table1(field_from_order(q)).records
    assert len(calls) == rows


@pytest.mark.parametrize("q", [16, 25, 27, 32])
def test_record_params_match_a_direct_construction(q):
    # a record's params, derived from its row's base by families._at, equal
    # MgrsParams or EmgrsParams built from the record's own kv fields, which
    # run every check; the first record of each row also has their generator
    f = field_from_order(q)
    rows = set()
    for rec in table1(f).records:
        if not rec.family.startswith("modified-grs") or "derived" in rec.params:
            continue
        alpha, v = ([int(x) for x in rec.params[key].split(",")] for key in ("alpha", "v"))
        eta, t = int(rec.params["eta"]), int(rec.params["t"])
        derived = rec._build.args[0]
        if rec.family.endswith("-extended"):
            direct = EmgrsParams(f, alpha, v[:-1], v[-1], eta, t, rec.k)
            build = emgrs_generator
        else:
            direct = MgrsParams(f, alpha, v, eta, t, rec.k)
            build = mgrs_generator
        assert direct == derived, rec.summary()
        if rec.family not in rows:
            rows.add(rec.family)
            assert build(direct).gen == rec.code.gen, rec.summary()
    assert len(rows) == 2, rows


def test_twisted_grs_records_keep_no_position_list():
    # a twisted-GRS record makes its puncture positions again when its code
    # is built; at GF(2048) its 1,023 records held about 17 MB of position
    # lists when each kept its own
    import tracemalloc
    f = Field(2, 11)
    tracemalloc.start()
    try:
        report = table1(f)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.records) > 1000
    assert held < 6_000_000, held


def test_records_carry_their_certificate(monkeypatch):
    # with every certificate forced to False, every record, dual and
    # punctured rows included, must read mds=False; a modified-GRS record's
    # certificate is its row's families._certificate
    from grskit import constructions
    monkeypatch.setattr(constructions, "roth_lempel_is_mds", lambda *args: False)
    monkeypatch.setattr(constructions, "_certificate", lambda *args: lambda p: False)
    for q in (8, 11, 16):
        records = table1(field_from_order(q)).records
        assert records and not any(rec.mds for rec in records)
    assert not tgrs_punctured(Field(2, 3), 5).mds
    assert not ngrs_q2_3(Field(2, 3)).mds
    assert not plus_modified(Field(2, 4), 5, extended=False).mds


@pytest.mark.parametrize("q", [8, 9, 16, 25])
def test_table1_runs_no_rank(monkeypatch, q):
    # every generator the table builds has n > k, so its full rank holds by
    # construction and no builder eliminates to check it
    from grskit import linalg
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda m: calls.append(m) or real(m))
    assert table1(field_from_order(q)).records
    assert calls == []



@pytest.mark.parametrize("q", [8, 9, 16, 25, 27, 32])
def test_record_shape_matches_its_code(q):
    # q, k and n are stated from the parameters; the code, built on its
    # first read and kept, must agree with them on every row, dual and
    # twisted-GRS rows included
    for rec in table1(field_from_order(q)).records:
        code = rec.code
        assert code is rec.code
        assert (rec.q, rec.k, rec.n) == (code.field.q, code.k, code.n), rec.summary()


@pytest.mark.parametrize("q", [8, 9, 16, 25, 64])
def test_table1_builds_no_generator(monkeypatch, q):
    # every record states its shape and verdicts from its parameters
    from grskit import codes, constructions

    def no_build(*args):
        raise AssertionError("generator built")

    for name in ("mgrs_generator", "emgrs_generator", "roth_lempel_generator",
                 "dual", "puncture"):
        monkeypatch.setattr(constructions, name, no_build)
    monkeypatch.setattr(codes, "_eval_columns", no_build)
    f = field_from_order(q)
    records = table1(f).records
    assert sorted((rec.k, rec.n) for rec in records) == _expected_table_rows(q, f.p)


@pytest.mark.parametrize("q", [8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 49, 64])
def test_table1_inherited_grs_verdicts_match_is_grs(q):
    # every record's GRS verdict, whether the curve rule's, inherited by a
    # dual or punctured row, or is_grs on the code a row is built from,
    # against is_grs on the record's own code
    for rec in table1(field_from_order(q)).records:
        assert rec.grs_verdict == is_grs(rec.code.gen).grs, rec.summary()


@pytest.mark.parametrize("q", [8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32])
def test_table1_certificates_match_column_walk(q):
    # each record's verdict is a certificate (the paper's subset condition,
    # or the verdict of the code it derives from); the column walk of
    # codes.is_mds is the oracle
    for rec in table1(field_from_order(q)).records:
        assert rec.mds == is_mds(rec.code), rec.summary()


@pytest.mark.parametrize("q", [8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 49, 64])
def test_table1_large_q_rows_mds_and_schur_non_grs(q):
    # the paper's rows, every record MDS, and non-GRS twice over: by
    # is_grs and, independently, by the Schur square of the smaller of the
    # code and its dual, whose dimension exceeds the GRS value 2k'-1 < n
    f = field_from_order(q)
    report = table1(f)
    assert sorted((rec.k, rec.n) for rec in report.records) == _expected_table_rows(q, f.p)
    for rec in report.records:
        _assert_mds_and_schur_non_grs(rec)


def _assert_mds_and_schur_non_grs(rec):
    assert rec.mds and rec.grs_verdict is False, rec.summary()
    side = rec.code if 2 * rec.k <= rec.n else dual(rec.code)
    assert 2 * side.k - 1 < rec.n
    assert schur_square_dim(side) > 2 * side.k - 1, rec.summary()


@pytest.mark.parametrize("q", [512, 729, 1024])
def test_large_q_records_mds_and_schur_non_grs(q):
    # records with 2k <= n, so no dual is built: the k = 3 and k = 4
    # primal rows and the two k = 5 plus rows in characteristic 2, the
    # k = 3 row and the k = 4 and 5 star rows at q = 729; each is also
    # non-GRS by is_grs on its own generator
    f = field_from_order(q)
    if f.p == 2:
        records = [ngrs_q2_3(f), char2_k4(f, 4), plus_modified(f, 5, extended=True),
                   plus_modified(f, 5, extended=False)]
    else:
        records = [odd_k3(f, 3), star_modified(f, 4), star_modified(f, 5)]
    for rec in records:
        assert 2 * rec.k <= rec.n
        _assert_mds_and_schur_non_grs(rec)
        assert not is_grs(rec.code.gen).grs, rec.summary()


def test_tgrs_punctured_rows(f8):
    rec = tgrs_punctured(f8, 4)
    assert (rec.n, rec.k) == (7, 4)
    assert_nongrs_record(rec)
    assert min_distance(rec.code) == 4
    rec = tgrs_punctured(f8, 6)
    assert (rec.n, rec.k) == (9, 6)
    assert_nongrs_record(rec)


def test_tgrs_punctured_checks_k_before_building(monkeypatch):
    # an out-of-range k is refused before the [q+2, 3] record and its
    # O(q^2) certificate are built
    from grskit import constructions

    def refuse(*args):
        raise AssertionError("certificate built for an out-of-range k")
    monkeypatch.setattr(constructions, "roth_lempel_is_mds", refuse)
    for k in (7, 15):
        with pytest.raises(ValueError, match="need 8 <= k <= 14"):
            tgrs_punctured(Field(2, 4), k)


def test_parameter_range_errors():
    with pytest.raises(ValueError):
        star_modified(Field(2, 4), 5)       # even characteristic
    with pytest.raises(ValueError):
        odd_k3(Field(11), 4)                # k not in {3, (q-1)/2}
    with pytest.raises(ValueError):
        plus_modified(Field(11), 5, False)  # odd characteristic
    with pytest.raises(ValueError):
        plus_modified(Field(2, 4), 4, False)  # k below the table range
    with pytest.raises(ValueError):
        char2_k4(Field(2, 2), 4)            # needs s > 2
    with pytest.raises(ValueError):
        tgrs_punctured(Field(2, 3), 7)      # k = q-1 is the dual table row
    with pytest.raises(ValueError):
        table1(Field(5))


@pytest.mark.parametrize("q", [8, 9, 11, 13, 16])
def test_table1_rows_verified(q):
    f = field_from_order(q)
    report = table1(f)
    assert report.records
    for rec in report.records:
        assert rec.mds, rec.summary()
        assert rec.grs_verdict is False, rec.summary()
        assert cauchy_test(rec.code.gen) is False


def test_table1_q11_row_set(f11):
    report = table1(f11)
    rows = sorted((rec.k, rec.n) for rec in report.records)
    assert rows == [(3, 8), (4, 7), (5, 8)]
    assert not report.notes


def test_table1_q8_rows_and_notes(f8):
    report = table1(f8)
    rows = sorted((rec.k, rec.n) for rec in report.records)
    assert rows == [(3, 7), (3, 10), (4, 7), (4, 7), (5, 8), (6, 9), (7, 10)]
    assert any("5<=k<=(q-4)/2" in note for note in report.notes)


def test_table1_q9_notes():
    report = table1(Field(3, 2))
    rows = sorted((rec.k, rec.n) for rec in report.records)
    assert rows == [(3, 7), (4, 7)]
    assert any("4<=k<=(q-3)/2" in note for note in report.notes)


def test_q32_spot_records():
    f32 = Field(2, 5)
    # lengths q+2, (q+6)/2, (q+4)/2 and k+3
    for rec, n in ((ngrs_q2_3(f32), 34), (char2_k4(f32, 4), 19),
                   (plus_modified(f32, 6, extended=True), 18), (tgrs_punctured(f32, 16), 19)):
        assert rec.n == n, rec.summary()
        assert_nongrs_record(rec)


def test_q25_q27_spot_records():
    rec = star_modified(Field(5, 2), 4)
    assert rec.n == 14
    assert_nongrs_record(rec)
    rec = odd_k3(Field(3, 3), 3)
    assert rec.n == 16
    assert_nongrs_record(rec)


def test_record_serialization(f11):
    rec = odd_k3(f11, 3)
    block = rec.kv_block()
    assert "family=modified-grs" in block
    assert "is_mds=true" in block
    assert "is_grs=false" in block
    assert "alpha=2,4,8,5,10,1,0" in block
    assert "q=11 k=3 n=8" in rec.summary()
