"""Command-line front end: construct, check, recover, transform, benchmark.

Exit codes: 0 for a completed run (verdicts are payload, not status),
2 for usage errors, 3 for malformed input files.

main() builds its argparse parser on its first call and reuses it for
every later call in the process; fields come from the interned
gf.field_new, so calls that name one field share one Field.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .gf import Field, field_new, field_from_order, INF, _parse_decimal, _parse_modulus
from .codes import (LinearCode, GrsSpec, FormatError, grs_generator, dual,
                    puncture, shorten, min_distance, is_mds,
                    read_matrix_file, format_matrix_file, write_matrix_file,
                    write_spec_file)
from .families import (MgrsParams, EmgrsParams, TgrsParams, RothLempelParams,
                       TWIST_ZERO, TWIST_TOP, mgrs_generator, emgrs_generator,
                       tgrs_generator, roth_lempel_generator,
                       col_twisted_generator, c_code_generator, d_code_generator)
from .constructions import table1
from . import grsid

FAMILIES = ("grs", "egrs", "mgrs", "emgrs", "tgrs0", "tgrs-top",
            "roth-lempel", "col-twisted", "c-code", "d-code")


def _field_from_args(args) -> Field:
    # "is not None", not truthiness: --q 0 and --s 0 are given, and invalid
    if args.q is not None:
        if (args.p, args.s, args.mod) != (None, None, None):
            raise ValueError("--q excludes --p, --s and --mod")
        return field_from_order(args.q)
    if args.p is not None:
        mod = None if args.mod is None else _parse_modulus(args.mod)
        return field_new(args.p, 1 if args.s is None else args.s, mod)
    raise ValueError("specify --q or --p/--s")


def _positions(text: str):
    try:
        return [_parse_decimal(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"bad position list {text!r}") from None


def _require(args, context, *names):
    # names are argparse dests, each its option's name but --lambda's (lam)
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{'lambda' if name == 'lam' else name} is required for {context}")


def _build_family(field: Field, args) -> LinearCode:
    """Deterministic parameter completion: evaluation points are the
    smallest encodings, multipliers all ones; --n is the code length."""
    fam, n, k = args.family, args.n, args.k
    q = field.q
    if n is None or k is None:
        raise ValueError("--n and --k are required")
    if n < 0 or k < 0:
        raise ValueError("--n and --k must be >= 0")
    ones = lambda m: (1,) * m
    if fam == "grs":
        if n > q:
            raise ValueError("grs needs n <= q")
        return grs_generator(GrsSpec(field, tuple(range(n)), ones(n), k))
    if fam == "egrs":
        if n > q + 1:
            raise ValueError("egrs needs n <= q+1")
        alpha = tuple(range(n - 1)) + (INF,)
        return grs_generator(GrsSpec(field, alpha, ones(n), k))
    if fam == "mgrs":
        _require(args, f"--family {fam}", "eta", "t")
        return mgrs_generator(MgrsParams(field, tuple(range(n - 1)), ones(n),
                                         args.eta, args.t, k))
    if fam == "emgrs":
        _require(args, f"--family {fam}", "eta", "t")
        return emgrs_generator(EmgrsParams(field, tuple(range(n - 2)), ones(n - 1), 1,
                                           args.eta, args.t, k))
    if fam in ("tgrs0", "tgrs-top"):
        _require(args, f"--family {fam}", "lam")
        hook = TWIST_ZERO if fam == "tgrs0" else TWIST_TOP
        alpha = tuple(range(1, n))  # nonzero points keep the zero-hook dual closed-form valid
        return tgrs_generator(TgrsParams(field, alpha, ones(n), args.lam, hook, k))
    if fam == "roth-lempel":
        delta = args.delta if args.delta is not None else 0
        return roth_lempel_generator(RothLempelParams(field, tuple(range(n - 2)), delta, k))
    if fam == "col-twisted":
        _require(args, f"--family {fam}", "lam")
        if not 1 <= n <= q - 1:
            raise ValueError("col-twisted needs 1 <= n <= q-1")
        return col_twisted_generator(field, tuple(range(2, n + 1)), 0, 1, args.lam, k)
    if fam == "c-code":
        _require(args, f"--family {fam}", "t")
        return c_code_generator(field, tuple(range(n)), args.t, k)
    _require(args, f"--family {fam}", "t")  # d-code, the last of argparse's choices
    return d_code_generator(field, tuple(range(n - 1)), args.t, k)


def cmd_field(args) -> int:
    f = _field_from_args(args)
    mod = ",".join(str(c) for c in f.modulus)
    print(f"p={f.p} s={f.s} q={f.q} mod={mod} primitive={f.primitive}")
    return 0


def _emit(code: LinearCode, out) -> int:
    """Write the generator to the file out, or to stdout without one."""
    if out:
        write_matrix_file(out, code.gen)
        print(f"wrote {out} n={code.n} k={code.k}")
    else:
        sys.stdout.write(format_matrix_file(code.gen))
    return 0


def cmd_construct(args) -> int:
    field = _field_from_args(args)
    return _emit(_build_family(field, args), args.out)


def cmd_check(args) -> int:
    m = read_matrix_file(args.infile)
    # is_grs and cauchy_test reject a rank-deficient m themselves; only the
    # MDS and distance verdicts need LinearCode's full-rank check
    if args.kind == "is-grs":
        print(grsid.is_grs(m).format())
    elif args.kind == "cauchy":
        print("verdict=cauchy" if grsid.cauchy_test(m) else "verdict=non-cauchy")
    elif args.kind == "mds":
        print("verdict=mds" if is_mds(LinearCode(m.field, m)) else "verdict=not-mds")
    else:  # min-dist, the last of argparse's choices
        code = LinearCode(m.field, m)
        print(f"min_distance={min_distance(code)} n={code.n} k={code.k}")
    return 0


def cmd_recover(args) -> int:
    m = read_matrix_file(args.infile)
    verdict = grsid.is_grs(m)
    print(verdict.format())
    if verdict.grs and args.out:
        write_spec_file(args.out, verdict.spec)
        print(f"wrote {args.out}")
    return 0


def cmd_transform(args) -> int:
    m = read_matrix_file(args.infile)
    code = LinearCode(m.field, m)
    if args.op == "dual":
        out = dual(code)
    else:  # puncture or shorten, the rest of argparse's choices
        _require(args, f"--op {args.op}", "pos")
        out = (puncture if args.op == "puncture" else shorten)(code, _positions(args.pos))
    return _emit(out, args.out)


def cmd_table1(args) -> int:
    field = _field_from_args(args)
    report = table1(field)
    if args.format == "kv":
        blocks = [rec.kv_block() for rec in report.records]
        print("\n\n".join(blocks))
        for note in report.notes:
            print(f"note={note}")
    else:
        print(f"non-GRS MDS code lengths for q={report.q}")
        for rec in report.records:
            print("  " + rec.summary())
        for note in report.notes:
            print(f"  note: {note}")
    return 0


def cmd_bench(args) -> int:
    field = _field_from_args(args)
    if args.k is None or not args.n:
        raise ValueError("--k and --n are required")
    ns = _positions(args.n)
    rows = grsid.bench_recover(field, args.k, ns, args.trials, seed=args.seed)
    for row in rows:
        print(f"n={row['n']} k={row['k']} trials={row['trials']} "
              f"median_ops={row['median_ops']} "
              f"median_ms={row['median_seconds'] * 1000:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="grskit",
                                 description="GRS code construction, identification and recovery")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_field_opts(p):
        p.add_argument("--q", type=int, help="field order (prime power)")
        p.add_argument("--p", type=int, help="characteristic")
        p.add_argument("--s", type=int, default=None, help="extension degree")
        p.add_argument("--mod", help="modulus coefficients c0,c1,...,cs")

    p = sub.add_parser("field", help="show the canonical field realization")
    add_field_opts(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("construct", help="build a family generator matrix")
    add_field_opts(p)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--eta", type=int)
    p.add_argument("--lambda", type=int, dest="lam")
    p.add_argument("--delta", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="run a verdict on a matrix file")
    p.add_argument("--kind", required=True, choices=["mds", "min-dist", "is-grs", "cauchy"])
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("recover", help="recover evaluation points and multipliers")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("transform", help="dual / puncture / shorten")
    p.add_argument("--op", required=True, choices=["dual", "puncture", "shorten"])
    p.add_argument("--pos", help="1-based positions, comma separated")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("table1", help="emit the applicable length-table rows")
    add_field_opts(p)
    p.add_argument("--format", choices=["text", "kv"], default="text")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("bench", help="operation counts for the recovery step")
    add_field_opts(p)
    p.add_argument("--k", type=int)
    p.add_argument("--n", help="lengths, comma separated")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main() call, built by the first one: building
    it costs more than most commands (about 2 ms), and parse_args keeps no
    state between calls.  Not built at import, so importing grskit.cli
    stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except FormatError as e:
        print(f"error: malformed input: {e}", file=sys.stderr)
        return 3
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
