import contextlib
import hashlib
import importlib.resources
import io
import os
import re
import subprocess
import sys
import time

import pytest

from grskit import cli
from grskit.cli import main
from grskit.codes import read_matrix_file, read_spec_file, parse_matrix_file, write_matrix_file
from grskit.codes import LinearCode
from grskit.codes import code_eq, grs_generator
from grskit.linalg import Matrix


def fixture_path(name):
    return str(importlib.resources.files("grskit.data") / name)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_field_command(capsys):
    rc, out, _ = run(capsys, "field", "--q", "8")
    assert rc == 0
    assert out.strip() == "p=2 s=3 q=8 mod=1,1,0,1 primitive=2"
    rc, out2, _ = run(capsys, "field", "--p", "2", "--s", "3", "--mod", "1,1,0,1")
    assert rc == 0 and out2 == out


def test_construct_and_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "m.txt"
    rc, out, _ = run(capsys, "construct", "--q", "11", "--family", "mgrs",
                     "--n", "7", "--k", "3", "--t", "1", "--eta", "4",
                     "--out", str(path))
    assert rc == 0
    m = read_matrix_file(path)
    assert (m.rows, m.cols) == (3, 7)
    rc, out, _ = run(capsys, "check", "--kind", "mds", "--in", str(path))
    assert rc == 0 and out.strip() == "verdict=mds"
    rc, out, _ = run(capsys, "check", "--kind", "min-dist", "--in", str(path))
    assert rc == 0 and out.strip() == "min_distance=5 n=7 k=3"
    rc, out, _ = run(capsys, "check", "--kind", "is-grs", "--in", str(path))
    assert rc == 0 and out.startswith("verdict=non-grs")
    rc, out, _ = run(capsys, "check", "--kind", "cauchy", "--in", str(path))
    assert rc == 0 and out.strip() == "verdict=non-cauchy"


def test_check_counterexample_fixture(capsys):
    path = fixture_path("f11_puncture_shorten_7_4.txt")
    rc, out, _ = run(capsys, "check", "--kind", "is-grs", "--in", path)
    assert rc == 0
    assert out.startswith("verdict=non-grs")


def test_fixture_golden_verdicts(capsys):
    for name in ("f11_modified_8_3.txt", "f8_modified_7_4.txt"):
        rc, out, _ = run(capsys, "check", "--kind", "is-grs", "--in", fixture_path(name))
        assert rc == 0 and out.startswith("verdict=non-grs")
        rc, out, _ = run(capsys, "check", "--kind", "mds", "--in", fixture_path(name))
        assert rc == 0 and out.strip() == "verdict=mds"


def test_transform_then_recover(tmp_path, capsys):
    src = fixture_path("f11_puncture_shorten_7_4.txt")
    punct = tmp_path / "p.txt"
    spec_out = tmp_path / "spec.txt"
    rc, out, _ = run(capsys, "transform", "--op", "puncture", "--pos", "7",
                     "--in", src, "--out", str(punct))
    assert rc == 0 and "n=6 k=4" in out
    rc, out, _ = run(capsys, "recover", "--in", str(punct), "--out", str(spec_out))
    assert rc == 0 and out.startswith("verdict=grs")
    spec = read_spec_file(spec_out)
    m = read_matrix_file(punct)
    assert code_eq(grs_generator(spec), LinearCode(m.field, m))


def test_extended_grs_k2_verdicts(tmp_path, capsys):
    # k = 2 on the whole projective line of GF(4): every check agrees
    path, spec_out = tmp_path / "e.txt", tmp_path / "spec.txt"
    rc, _, _ = run(capsys, "construct", "--q", "4", "--family", "egrs",
                   "--n", "5", "--k", "2", "--out", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "check", "--kind", "is-grs", "--in", str(path))
    assert rc == 0 and out.startswith("verdict=grs k=2 ")
    rc, out, _ = run(capsys, "recover", "--in", str(path), "--out", str(spec_out))
    assert rc == 0 and out.startswith("verdict=grs k=2 ")
    m = read_matrix_file(path)
    assert code_eq(grs_generator(read_spec_file(spec_out)), LinearCode(m.field, m))
    rc, out, _ = run(capsys, "check", "--kind", "cauchy", "--in", str(path))
    assert rc == 0 and out.strip() == "verdict=cauchy"


def test_transform_dual_and_shorten(tmp_path, capsys):
    src = fixture_path("f11_puncture_shorten_7_4.txt")
    out_path = tmp_path / "d.txt"
    rc, out, _ = run(capsys, "transform", "--op", "dual", "--in", src,
                     "--out", str(out_path))
    assert rc == 0 and "n=7 k=3" in out
    rc, out, _ = run(capsys, "transform", "--op", "shorten", "--pos", "7",
                     "--in", src, "--out", str(out_path))
    assert rc == 0 and "n=6 k=3" in out


def test_table1_text_output(capsys):
    rc, out, _ = run(capsys, "table1", "--q", "11")
    assert rc == 0
    lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
    assert lines[0] == "non-GRS MDS code lengths for q=11"
    assert "q=11 k=3 n=8 family=modified-grs mds=true grs=non-grs" in lines
    assert "q=11 k=4 n=7 family=modified-grs-star mds=true grs=non-grs" in lines
    assert "q=11 k=5 n=8 family=modified-grs-dual mds=true grs=non-grs" in lines


# SHA-256 of `table1 --q <q> --format kv` for every prime power
# 8 <= q <= 128 and for q = 256, 343, 512, 625, 729 and 1024 (the six
# together take about 1.5 s), 2048, 2187 and 2401, and 6561 and 8191 (each
# of the last five under 1 s in process), pinned so that a change to how
# the records are decided or how the field computes cannot change a byte
# of the table; q = 4096 and 8192 are checked in CI
TABLE1_KV_SHA256 = {
    8: "a83431626f907974b5eefb6f366dbe5c8ddcf809e33604f87fbf059fad09a579",
    9: "379133d88d5ef8d06c749f76a0910e1e157ddf49852e4b1cbaf1aa9eef3a09d3",
    11: "b5177610f05fd9f28e9e92f5af197a5800d1c5abb172d9859e5c1649fa3ad2e7",
    13: "0e9288870db7827a0630123873f172d0075d1196d1810931710401e7b3d0d74a",
    16: "32abddbc3527aebbfea1e1bef85ab6944bfbcaeec93aa39610f1a48515559617",
    17: "9831266fc5e547a6237760228e622a3671412a81bae94d8b16857a760507e92c",
    19: "1a36661e480c37edc255b80ac600bb5d4f9d1e4dc4ec099e14861587776645f4",
    23: "c4ee0f9d14ed16902f6a4eb4f6f4cf8e22cf4ba56f97147c65c6ba5ec756687d",
    25: "ef36a23ca69e5d0bcdcb3db89d2e484c21b05241f6fe65db47aa364fbbb789fa",
    27: "915be8dd968f93240928c5fa783f97160e1e09f2b72f28d4cbd356fa699f36ca",
    29: "be502ac3dd0a156668e2a9497f442c150b210d160088a11d24af2f8780b9ab73",
    31: "f4b3ca00f10b2380d5d8dfba4c361707b6dd9d9deedef78c20eed9bb2bf21cd7",
    32: "38f95c79ab903a0767cd3577e1dde2d671bf6c6c213564e32d0d47c21a76f0ca",
    37: "0cdc60528c6c8fd76723889f40b0e1435a800239bf85f81c53e05dd7322b3d3b",
    41: "e07c3d6bf70ec25b976ff6ceeb36df7e34522f1a5d2b2f30e219f8ca61472691",
    43: "d8f89519b7c304dae8939d7f72defff1c5f038c3b0cc5543a3bbd32580917434",
    47: "2a6fd168ebf164023dd68271f530ea760a54c4eaa65a02f44114b725e6460dd0",
    49: "e1c195040fcd0c4939c6a9f8f7dce59c862ed4f941efc69bf922790ed0be78d4",
    53: "ee96a64a90d6771fea1f30bb7d1fa5d6765bc9fb56954b81ba6f9d421b5164a8",
    59: "36b7d18c94c48e66c4b61323de3b32742a7c4bb59d0fe95ab792071d049a9664",
    61: "ba2220d8add032a081b98cc8e4fede88d715eb59955e71def0aef58e9d794a0b",
    64: "210976f71672bcd403214aa212b24858cf6b232b2bec5434fe07c3d1f31f7a1a",
    67: "115ee227c28b7fc9c40daf8ed5cb8cc45d0ca0aa5bd65edf573575388eef7da8",
    71: "52c7e73a264d4904854e41a577c580de73e339333b40ae9ce0552cedd96097dd",
    73: "939fb8fafd295ba1ccea5188152d2b842ab97ee771c47a2870a100d9d8515618",
    79: "4d68ec77f0ebd2b4dfaef8e9d21b790a7f7c18a1fc872a126970dfce77beace0",
    81: "9db57fe697eff3242f70dacb99852040b0b0df2d0df9f5d26898ae37e0a8d71a",
    83: "c599143cd185084d0316142363bedb43dd7d53758f729637f126bb462298ed0e",
    89: "3405ddae390394e90fe26a92abf6c9f66c138361b66dd8d2d2faf788c8c61991",
    97: "4e7c0c6d113c6e7adb44e585a3d1c7d3b98ac49a880a1b629f33512259f3e5cc",
    101: "5a585c4c8ff61731b5d3c187342c8fe5f248c533fbea82e70cb2cf729a6f0ed7",
    103: "20bd92a1649ba22876d1bc0a027cf8fe04fa3ff31e0b963b4fa2fb5ed145d72e",
    107: "56748c848c55ddeb89b27d0d5fe169aabc255c6779cef72e80c9b16c44adf913",
    109: "4d7669443c5d7a310ffefbd662f8434f038f4ac9754e39fbc67604b9136a01fc",
    113: "a73da3ec89f64af81b2f41dd3c82a8ed7446f011e93008c937a13fb962e33a3a",
    121: "b90c3e9bc9ac09b34a1089503bac9f3bc54f4d97921cd7961050be3a8223107f",
    125: "3606ce7aafac3a822a52b2ee7107c4ee5ec836c7fe6e857260ac30acecc9b38e",
    127: "94e9921e29148113747adf1173c0fcc5205ac8ac0215d34e3f0deeadb79864f4",
    128: "ca3ed959d46989a557791a24f2f7dbea3d26057c983122c3fa99155da6797f6f",
    256: "5bbb9c99732401200220cc2a175f6227567ba2264e80199a39cc68c35c81dc1a",
    343: "2b8bd3af64efc4b6f5f0545eabd4cc0787a0f19e31e880832d82a04b23b7d897",
    512: "6dd7b786686e9fe7ef0df8b6412d8e38fd754042b28742bedb1eca8c4319a476",
    625: "f37d129dc61c0ac408f836fd0fc0ca382cc36b2b3a19b0b84ca70bb92e2c5de9",
    729: "4c0fb9068c5b95ab0d15eeb02777788c64c5df28b26256b7b88d79b9649b07be",
    1024: "1682606eff760dfc4a1b90ff53e0fd04dc4c239fa1cac90f90ff54a77ee4ae08",
    2048: "7c28fde722acc385ff75e960fe52d2019306c678256b3602712a3572c39bb132",
    2187: "9787d9696a86b4734abd42bb92752e8bfc6f0146749e5040388bca8dfa4833e4",
    2401: "9bfc5aa3dc7518b41b3e867fb28bf09d1484eb8e043ebbea3d1c5167bd2c343b",
    6561: "ad52397df910555efb1a1c7bd0daa3ea2fcade38dd09ba5201591304cf1de446",
    8191: "34c8c80cfdc5f390456633c3f721d7bc73725f0bebe01e964b031e5d364faa65",
}


@pytest.mark.parametrize("q", sorted(TABLE1_KV_SHA256))
def test_table1_kv_bytes_pinned(q):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["table1", "--q", str(q), "--format", "kv"])
    assert rc == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == TABLE1_KV_SHA256[q]


def test_table1_kv_output(capsys):
    rc, out, _ = run(capsys, "table1", "--q", "11", "--format", "kv")
    assert rc == 0
    assert "family=modified-grs" in out
    assert "is_grs=false" in out


def test_bench_output(capsys):
    rc, out, _ = run(capsys, "bench", "--q", "29", "--k", "3", "--n", "12,16",
                     "--trials", "2", "--seed", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n=12 k=3 trials=2 median_ops=")


def test_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        rc, _, _ = run(capsys, "construct", "--q", "13", "--family", "grs",
                       "--n", "9", "--k", "4", "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    rc, out1, _ = run(capsys, "table1", "--q", "13", "--format", "kv")
    rc, out2, _ = run(capsys, "table1", "--q", "13", "--format", "kv")
    assert out1 == out2


def test_construct_every_family(tmp_path, capsys):
    cases = [
        ("grs", ["--n", "8", "--k", "3"]),
        ("egrs", ["--n", "9", "--k", "3"]),
        ("mgrs", ["--n", "8", "--k", "3", "--t", "1", "--eta", "4"]),
        ("emgrs", ["--n", "8", "--k", "3", "--t", "1", "--eta", "4"]),
        ("tgrs0", ["--n", "7", "--k", "3", "--lambda", "2"]),
        ("tgrs-top", ["--n", "7", "--k", "3", "--lambda", "2"]),
        ("roth-lempel", ["--n", "8", "--k", "4", "--delta", "3"]),
        ("col-twisted", ["--n", "7", "--k", "3", "--lambda", "2"]),
        ("c-code", ["--n", "8", "--k", "4", "--t", "2"]),
        ("d-code", ["--n", "8", "--k", "4", "--t", "2"]),
    ]
    for fam, extra in cases:
        path = tmp_path / f"{fam}.txt"
        rc, _, _ = run(capsys, "construct", "--q", "11", "--family", fam,
                       "--out", str(path), *extra)
        assert rc == 0, fam
        read_matrix_file(path)


def test_usage_errors(capsys, tmp_path):
    # --family is an argparse choice, as --kind and --op are
    rc, out, err = run(capsys, "construct", "--q", "11", "--family", "nope",
                       "--n", "6", "--k", "3")
    assert (rc, out) == (2, "") and "invalid choice" in err and "nope" in err
    rc, _, err = run(capsys, "construct", "--q", "11", "--family", "mgrs",
                     "--n", "8", "--k", "3")
    assert rc == 2  # missing --eta/--t
    rc, _, err = run(capsys, "check", "--kind", "mds")
    assert rc == 2  # argparse: missing --in
    rc, _, _ = run(capsys, "bench", "--q", "11", "--k", "3")
    assert rc == 2
    # --q does not silently drop --p, --s or --mod
    for extra in (["--mod", "1,0,1,1"], ["--p", "3", "--s", "2"], ["--s", "3"]):
        for cmd in ("field", "table1"):
            rc, out, err = run(capsys, cmd, "--q", "8", *extra)
            assert rc == 2 and out == "" and err.startswith("error:"), (cmd, extra)
    # modulus coefficients are canonical decimals below p, never reduced mod p
    for mod in ("0,12", "22,1", "0,+1", "0, 1", "0,01", ""):
        rc, out, err = run(capsys, "field", "--p", "11", "--mod", mod)
        assert rc == 2 and out == "" and err.startswith("error:"), mod
    # position and length lists are comma-separated canonical decimals
    code = tmp_path / "grs.txt"
    rc, _, _ = run(capsys, "construct", "--q", "11", "--family", "grs",
                   "--n", "11", "--k", "3", "--out", str(code))
    assert rc == 0
    for argv in (["transform", "--op", "puncture", "--pos", "+1,1_0", "--in", str(code)],
                 ["transform", "--op", "puncture", "--pos", "1,,2", "--in", str(code)],
                 ["bench", "--q", "11", "--k", "3", "--n", " 12,+16"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and err.startswith("error:"), argv


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("field p=11 s=1 mod=0,1\nmatrix 2 2\n1 2\n")
    rc, _, err = run(capsys, "check", "--kind", "mds", "--in", str(bad))
    assert rc == 3
    rc, _, err = run(capsys, "check", "--kind", "mds", "--in", str(tmp_path / "none.txt"))
    assert rc == 3


def test_noncanonical_decimal_exit_code(tmp_path, capsys):
    cases = (b"field p=1_1 s=+1 mod=0,1\nmatrix 1 3\n1 2 3\n",
             b"field p=11 s=1 mod=0,1\nmatrix 1 3\n1 1_0 +3\n",
             b"field p=11 s=1 mod=0,1\nmatrix 1 3\n1 2 \xff\n",
             b"field p=11 s=1 mod=22,12\nmatrix 1 3\n1 2 3\n")
    for i, text in enumerate(cases):
        bad = tmp_path / f"bad{i}.txt"
        bad.write_bytes(text)
        rc, _, err = run(capsys, "check", "--kind", "mds", "--in", str(bad))
        assert rc == 3, text
        assert "malformed input" in err


def test_rank_deficient_input_exit_code(tmp_path, capsys):
    # row 3 is row 1 + row 2: no verdict, a usage error under every kind
    bad = tmp_path / "deficient.txt"
    bad.write_text("field p=11 s=1 mod=0,1\nmatrix 3 6\n"
                   "1 0 0 1 1 1\n0 1 0 2 2 2\n1 1 0 3 3 3\n")
    for kind in ("mds", "min-dist", "is-grs", "cauchy"):
        rc, out, err = run(capsys, "check", "--kind", kind, "--in", str(bad))
        assert rc == 2, kind
        assert out == "" and err.startswith("error:"), kind


def test_rank_deficient_input_one_message(tmp_path, capsys):
    # row 2 is 2 * row 1: every command that reads a generator refuses it
    # with LinearCode's text and prints nothing on stdout
    bad = tmp_path / "deficient.txt"
    bad.write_text("field p=11 s=1 mod=0,1\nmatrix 2 4\n1 2 3 4\n2 4 6 8\n")
    for argv in (("check", "--kind", "is-grs"), ("check", "--kind", "cauchy"),
                 ("check", "--kind", "mds"), ("recover",), ("transform", "--op", "dual")):
        rc, out, err = run(capsys, *argv, "--in", str(bad))
        assert (rc, out, err) == (2, "", "error: generator matrix is not full rank\n"), argv


def test_mds_budget_exit_code(tmp_path, capsys):
    # C(40, 20) ~ 1.4e11 column subsets: refused up front, not walked
    path = tmp_path / "grs.txt"
    rc, _, _ = run(capsys, "construct", "--q", "41", "--family", "grs",
                   "--n", "40", "--k", "20", "--out", str(path))
    assert rc == 0
    rc, out, err = run(capsys, "check", "--kind", "mds", "--in", str(path))
    assert rc == 2 and out == ""
    assert err.strip() == ("error: MDS budget exceeded: C(40,20) > 16777216 "
                           "column subsets for n=40, k=20")
    # a zero column decides not-MDS before the budget is asked
    m = read_matrix_file(path)
    write_matrix_file(path, Matrix(m.field, [row[:7] + (0,) + row[8:] for row in m.data]))
    rc, out, err = run(capsys, "check", "--kind", "mds", "--in", str(path))
    assert (rc, out, err) == (0, "verdict=not-mds\n", "")


def test_min_distance_budget_exit_code(tmp_path, capsys):
    # [4,3]/GF(257) walks its [4,1] dual and answers; [20,10]/GF(257) walks
    # itself, 20*257^9 > 2^24: refused before any walking
    path = tmp_path / "grs.txt"
    rc, _, _ = run(capsys, "construct", "--q", "257", "--family", "grs",
                   "--n", "4", "--k", "3", "--out", str(path))
    assert rc == 0
    rc, out, err = run(capsys, "check", "--kind", "min-dist", "--in", str(path))
    assert rc == 0 and out == "min_distance=2 n=4 k=3\n" and err == ""
    rc, _, _ = run(capsys, "construct", "--q", "257", "--family", "grs",
                   "--n", "20", "--k", "10", "--out", str(path))
    assert rc == 0
    rc, out, err = run(capsys, "check", "--kind", "min-dist", "--in", str(path))
    assert rc == 2 and out == ""
    assert err.strip() == ("error: enumeration budget exceeded: n*q^(k-1) = "
                           "20*257^9 > 16777216 for the [20,10] code")


def test_singular_leading_block_verdicts(tmp_path, capsys):
    # full rank with a zero first column: a verdict under both GRS kinds
    path = tmp_path / "singular.txt"
    path.write_text("field p=11 s=1 mod=0,1\nmatrix 3 6\n"
                    "0 1 0 2 3 4\n0 0 1 5 6 7\n0 0 0 1 1 1\n")
    rc, out, _ = run(capsys, "check", "--kind", "is-grs", "--in", str(path))
    assert rc == 0 and out.strip() == "verdict=non-grs reason=echelon-fail"
    rc, out, _ = run(capsys, "check", "--kind", "cauchy", "--in", str(path))
    assert rc == 0 and out.strip() == "verdict=non-cauchy"


def test_construct_stdout_when_no_out(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "7", "--family", "grs",
                     "--n", "6", "--k", "3")
    assert rc == 0
    m = parse_matrix_file(out)
    assert (m.rows, m.cols) == (3, 6)


def test_zero_field_flags_are_usage_errors(capsys):
    # --s 0 is an invalid degree, not a missing one, and --q 0 is given
    rc, out, err = run(capsys, "field", "--p", "2", "--s", "0")
    assert (rc, out) == (2, "") and err == "error: extension degree must be >= 1\n"
    rc, out, err = run(capsys, "field", "--q", "0", "--p", "3")
    assert (rc, out) == (2, "") and err == "error: --q excludes --p, --s and --mod\n"


def test_refusals_name_their_bound(capsys):
    # an [n, n] extended modified GRS code is past k <= n-1, and a prime
    # past 2^40 is past the factoring budget; both are usage errors
    rc, out, err = run(capsys, "construct", "--q", "11", "--family", "emgrs",
                       "--n", "4", "--k", "4", "--eta", "1", "--t", "1")
    assert (rc, out, err) == (2, "", "error: need k <= n-1\n")
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "field", "--q", "100000000000031")
    assert time.perf_counter() - t0 < 1
    assert (rc, out) == (2, "") and err.startswith("error: factoring budget exceeded: ")


def test_negative_length_or_dimension_is_usage_error(capsys):
    # range() of a negative bound is empty, so no builder would see it:
    # these once built a 0x0, a length-1 and a 0x5 generator, and
    # col-twisted at n = 0 (points range(2, 1)) a length-1 one
    negative = "error: --n and --k must be >= 0\n"
    for argv, err_want in (
            (("--q", "7", "--family", "grs", "--n", "-1", "--k", "0"), negative),
            (("--q", "13", "--family", "col-twisted", "--n", "-1", "--k", "0",
              "--lambda", "2"), negative),
            (("--q", "13", "--family", "col-twisted", "--n", "5", "--k", "-1",
              "--lambda", "2"), negative),
            (("--q", "7", "--family", "col-twisted", "--n", "0", "--k", "0",
              "--lambda", "1"), "error: col-twisted needs 1 <= n <= q-1\n")):
        rc, out, err = run(capsys, "construct", *argv)
        assert (rc, out, err) == (2, "", err_want), argv


def test_module_entry_point_exit_codes(tmp_path):
    # python -m grskit.cli runs main_entry, the installed grskit script:
    # each exit code must reach the process status, not only main's return
    bad = tmp_path / "bad.txt"
    bad.write_text("field p=11 s=1 mod=0,1\nmatrix 2 2\n1 2\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for argv, rc, out, err in (
            (["field", "--q", "8"], 0, "p=2 s=3 q=8 mod=1,1,0,1 primitive=2\n", ""),
            (["field", "--q", "12"], 2, "", "error: q=12 is not a prime power\n"),
            (["check", "--kind", "mds", "--in", str(bad)], 3, "",
             "error: malformed input: expected 2 matrix rows, found 1\n")):
        proc = subprocess.run([sys.executable, "-m", "grskit.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err), argv


def test_import_leaves_statistics_unloaded():
    # statistics (with fractions, decimal and numbers) cost about 4 ms of
    # every import; only bench_recover needs it, and imports it itself
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, grskit, grskit.cli; print('statistics' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def _cli_session(tmp_path, capsys):
    """One main() sequence over every subcommand, usage errors (exit 2),
    a malformed file (exit 3) and --help (exit 0) among them: each call's
    exit code, stdout, stderr and the bytes of every file it wrote."""
    src = fixture_path("f11_puncture_shorten_7_4.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("field p=11 s=1 mod=0,1\nmatrix 1 3\n1 02 3\n")
    g = str(tmp_path / "g.txt")
    calls = [
        ["field", "--p", "3", "--s", "2"],
        ["construct", "--q", "11", "--family", "mgrs", "--n", "7", "--k", "3",
         "--t", "1", "--eta", "4", "--out", g],
        ["check", "--kind", "mds", "--in", g],
        ["--help"],
        ["check", "--kind", "min-dist", "--in", g],
        ["check", "--kind", "is-grs", "--in", bad],
        ["check", "--kind", "cauchy", "--in", src],
        ["recover", "--in", src],
        ["check", "--kind", "nope", "--in", src],
        ["transform", "--op", "puncture", "--pos", "7", "--in", src,
         "--out", str(tmp_path / "p.txt")],
        ["recover", "--in", str(tmp_path / "p.txt"), "--out", str(tmp_path / "spec.txt")],
        ["transform", "--help"],
        ["transform", "--op", "shorten", "--in", src],
        ["transform", "--op", "dual", "--in", src],
        ["construct", "--q", "11", "--family", "grs", "--n", "6", "--k", "3"],
        ["table1", "--q", "8", "--format", "kv"],
        ["table1", "--p", "3", "--s", "2"],
        ["bench", "--q", "13", "--k", "3", "--n", "8", "--trials", "1"],
        ["bench", "--q", "13", "--k", "3"],
        ["field", "--q", "8", "--p", "2"],
        [],
    ]
    results = []
    for argv in calls:
        before = set(tmp_path.iterdir())
        rc = main([str(a) for a in argv])
        out = capsys.readouterr()
        written = {p.name: p.read_bytes() for p in set(tmp_path.iterdir()) - before}
        # bench prints wall time, the one byte that may differ
        stdout = re.sub(r"median_ms=[0-9.]+", "median_ms=*", out.out)
        results.append((argv, rc, stdout, out.err, written))
    for p in tmp_path.iterdir():
        p.unlink()
    return results


def test_reused_parser_matches_a_fresh_parser(tmp_path, capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    reused = _cli_session(tmp_path, capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _cli_session(tmp_path, capsys)
    assert reused == fresh
    assert {r[1] for r in reused} == {0, 2, 3}
    # the malformed file exits 3 between calls that succeed
    assert [r[1] for r in reused[4:7]] == [0, 3, 0]


def test_no_argument_leaks_between_calls(tmp_path, capsys):
    src = fixture_path("f11_puncture_shorten_7_4.txt")
    out_path = tmp_path / "d.txt"
    rc, out, _ = run(capsys, "transform", "--op", "dual", "--in", src, "--out", str(out_path))
    assert rc == 0 and out_path.exists()
    out_path.unlink()
    rc, out, _ = run(capsys, "transform", "--op", "dual", "--in", src)
    assert rc == 0 and out.startswith("field p=11")
    assert list(tmp_path.iterdir()) == []
    # a flag given once is not a default for the next call either
    rc, _, _ = run(capsys, "transform", "--op", "puncture", "--pos", "7", "--in", src)
    assert rc == 0
    rc, out, err = run(capsys, "transform", "--op", "puncture", "--in", src)
    assert (rc, out) == (2, "") and err == "error: --pos is required for --op puncture\n"
