import importlib.resources

from grskit.cli import main
from grskit.codes import read_matrix_file, read_spec_file, parse_matrix_file
from grskit.codes import LinearCode
from grskit.codes import code_eq, grs_generator


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
    rc, _, err = run(capsys, "construct", "--q", "11", "--family", "nope",
                     "--n", "6", "--k", "3")
    assert rc == 2
    rc, _, err = run(capsys, "construct", "--q", "11", "--family", "mgrs",
                     "--n", "8", "--k", "3")
    assert rc == 2  # missing --eta/--t
    rc, _, err = run(capsys, "check", "--kind", "mds")
    assert rc == 2  # argparse: missing --in
    rc, _, _ = run(capsys, "bench", "--q", "11", "--k", "3")
    assert rc == 2


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
             b"field p=11 s=1 mod=0,1\nmatrix 1 3\n1 2 \xff\n")
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


def test_min_distance_budget_exit_code(tmp_path, capsys):
    # 257^3 messages > 2^24: refused before any is enumerated
    path = tmp_path / "grs.txt"
    rc, _, _ = run(capsys, "construct", "--q", "257", "--family", "grs",
                   "--n", "4", "--k", "3", "--out", str(path))
    assert rc == 0
    rc, out, err = run(capsys, "check", "--kind", "min-dist", "--in", str(path))
    assert rc == 2 and out == ""
    assert err.strip() == "error: enumeration budget exceeded: 257^3 > 16777216"


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
