"""Explicit maximal-length non-GRS MDS constructions and the length table.

A ConstructionRecord carries its parameters, q, k, n and two verdicts, all
decided from the parameters; its generator is built on the first read of
its code.  MDS-ness is a subset certificate on the evaluation points
(families.mgrs_is_mds, emgrs_is_mds and roth_lempel_is_mds); no columns
are walked.  A modified-GRS row checks its parameters in full once, at one
k; each record takes them to its k with families._at and reads its
verdicts from the row's one families._certificate and the curve rule
(families.mgrs_is_grs, emgrs_is_grs).  The Roth-Lempel [q+2, 3] code and
each punctured [k+3, 3] code behind a twisted-GRS row are non-GRS by the
same argument: at least 5 of their columns (all q+1 points, or k+2 >= 6 of
them) lie on the conic (1, x, x^2), so in a GRS code every column is a
multiple of a point of it (Dür 1987), and the last column, e_1 + delta *
e_2 (delta = 0 here), is 0 in row 0 and is not e_2.  A dual row takes both
verdicts of its primal (MDS-ness and GRS-ness are closed under duality),
and a punctured row the MDS verdict of its [q+2, 3] code
(MacWilliams-Sloane ch. 11).  Every arbitrary choice is fixed by the
field's primitive element (modified-GRS points are slices of its powers),
so records are reproducible byte for byte.  Each row is stated once, by
its row helper, which states its k-range once and whose points fix its
length; the per-k builders look their record up in it through one k-range
check, and table1 only lists the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial
from typing import Callable

from .gf import Field
from .codes import LinearCode, dual, puncture
from .families import (MgrsParams, EmgrsParams, RothLempelParams, mgrs_generator,
                       emgrs_generator, roth_lempel_generator, roth_lempel_is_mds,
                       _at, _certificate, _curve_rule)


@dataclass(frozen=True)
class ConstructionRecord:
    """One length-table row at one k: its parameters, q, k, n and its MDS
    and GRS verdicts.  code is built by _build on its first read."""

    family: str
    params: dict
    q: int
    k: int
    n: int
    mds: bool
    grs_verdict: bool
    _build: Callable[[], LinearCode] = dataclass_field(compare=False, repr=False)

    @cached_property
    def code(self) -> LinearCode:
        return self._build()

    def summary(self) -> str:
        return (f"q={self.q} k={self.k} n={self.n} family={self.family} "
                f"mds={'true' if self.mds else 'false'} "
                f"grs={'grs' if self.grs_verdict else 'non-grs'}")

    def kv_block(self) -> str:
        return "\n".join([f"family={self.family}", f"q={self.q}", f"k={self.k}", f"n={self.n}",
                          f"is_mds={'true' if self.mds else 'false'}",
                          f"is_grs={'true' if self.grs_verdict else 'false'}",
                          *(f"{key}={val}" for key, val in self.params.items())])


@dataclass
class Table1Report:
    q: int
    records: list
    notes: list


def _fmt_seq(xs) -> str:
    return ",".join(map(str, xs))


def _modified_row(family: str, base, at=lambda k: {}) -> Callable[[int], ConstructionRecord]:
    # the record maker of a modified-GRS row: base is the row's params, checked
    # in full at one k, and the record at k is base at k with at(k)'s t and
    # eta; alpha, v and the certificate are made once for the row's points
    extended = isinstance(base, EmgrsParams)
    alpha, v = _fmt_seq(base.alpha), _fmt_seq(base.v + (base.v_ext,) if extended else base.v)
    is_mds = _certificate(base.field, base.alpha)
    build = emgrs_generator if extended else mgrs_generator

    def make(k: int) -> ConstructionRecord:
        p = _at(base, k=k, **at(k))
        mds = is_mds(p)
        return ConstructionRecord(family, {"alpha": alpha, "v": v, "eta": str(p.eta),
                                           "t": str(p.t)}, p.field.q, k, p.n, mds,
                                  _curve_rule(p, lambda _: mds), partial(build, p))
    return make


def _dual_record(family: str, primal: ConstructionRecord) -> ConstructionRecord:
    params = dict(primal.params, derived=f"dual-of-{primal.family}-k{primal.k}")
    return ConstructionRecord(family, params, primal.q, primal.n - primal.k, primal.n,
                              primal.mds, primal.grs_verdict, lambda: dual(primal.code))


def _dual_row(k: int, n: int, make) -> tuple:
    # make's record at k, made on first use and kept, and its dual at n - k
    primal = None

    def record(j: int) -> ConstructionRecord:
        nonlocal primal
        primal = primal or make(k)
        return primal if j == k else _dual_record("modified-grs-dual", primal)
    return (k, n - k), record


def _lookup(row, k: int) -> ConstructionRecord:
    # the one k-range check of the per-k builders; row is (k-range, maker)
    ks, make = row
    if k not in ks:
        raise ValueError(f"need {ks.start} <= k <= {ks.stop - 1}" if isinstance(ks, range)
                         else f"k must be {ks[0]} or {ks[1]}")
    return make(k)


def _star_row(field: Field):
    if field.p == 2:
        raise ValueError("needs odd characteristic")
    alpha = tuple(field.powers_of_primitive()[2::2] + [1, 0])
    ones = (1,) * (len(alpha) + 1)
    eta = field.primitive  # a generator is never a square
    assert field.pow(eta, (field.q - 1) // 2) == field.neg(1)
    return range(4, len(ones) - 1), _modified_row(
        "modified-grs-star", MgrsParams(field, alpha, ones, eta, 1, 2),
        lambda k: {"t": k - 1, "eta": eta if k % 2 == 0 else field.neg(eta)})


def star_modified(field: Field, k: int) -> ConstructionRecord:
    """Odd characteristic, length (q+3)/2: evaluation points are the
    squares followed by 0, and (-1)^k * eta is a non-square, so no product
    of k-1 points can meet the threshold."""
    return _lookup(_star_row(field), k)


def _odd_k3_row(field: Field):
    if field.p == 2:
        raise ValueError("needs odd characteristic")
    alpha = tuple(field.powers_of_primitive()[1:(field.q + 1) // 2] + [1, 0])
    n = len(alpha) + 1
    return _dual_row(3, n, _modified_row("modified-grs", MgrsParams(
        field, alpha, (1,) * n, field.neg(1), 2, 3)))


def odd_k3(field: Field, k: int) -> ConstructionRecord:
    """Odd characteristic, length (q+5)/2 for k = 3; the k = (q-1)/2 row is
    the dual code."""
    return _lookup(_odd_k3_row(field), k)


def _plus_row(field: Field, extended: bool):
    if field.p != 2 or field.s < 2:
        raise ValueError("needs characteristic 2 with s > 1")
    bound = 1 << (field.s - 1)
    powers = field.powers_of_primitive()
    alpha = tuple([field.inv(b) for b in powers if b < bound] + [0])
    ones = (1,) * (len(alpha) + 1)
    # 1/eta is the first power of w from w^(s-1) on outside V; w^(s-1)
    # itself lies in V for some w != x (x^9 + x + 1: w^8 = x^7 + 1)
    eta = field.inv(next(x for x in powers[field.s - 1:] if x >= bound))
    base = (EmgrsParams(field, alpha, ones, 1, eta, 1, 2) if extended
            else MgrsParams(field, alpha, ones, eta, 1, 2))
    return range(5, (field.q - 4) // 2 + 1), _modified_row(
        "modified-grs-plus-extended" if extended else "modified-grs-plus", base)


def plus_modified(field: Field, k: int, extended: bool) -> ConstructionRecord:
    """Characteristic 2, length (q+2)/2, or (q+4)/2 extended: reciprocals
    of the nonzero elements of the hyperplane V, the F_2-span of 1, x, ...,
    x^(s-2) (the encodings below 2^(s-1)), followed by 0, with 1/eta
    outside V, so no reciprocal subset sum can meet it."""
    return _lookup(_plus_row(field, extended), k)


def _char2_k4_row(field: Field):
    if field.p != 2 or field.s < 3:
        raise ValueError("needs characteristic 2 with s > 2")
    bound = 1 << (field.s - 1)
    alpha = tuple([field.inv(x) for x in field.powers_of_primitive() if x >= bound] + [0, 1])
    n = len(alpha) + 1
    return _dual_row(4, n, _modified_row("modified-grs", MgrsParams(
        field, alpha, (1,) * n, 1, 1, 4)))


def char2_k4(field: Field, k: int) -> ConstructionRecord:
    """Characteristic 2, length (q+6)/2 for k = 4: reciprocals of the
    hyperplane coset x^(s-1) + V followed by 0 and 1, eta = 1, where V is
    the F_2-span of 1, x, ..., x^(s-2).  The k = (q-2)/2 row is the dual
    code."""
    return _lookup(_char2_k4_row(field), k)


def ngrs_q2_3(field: Field) -> ConstructionRecord:
    """Characteristic 2, the [q+2, 3] code: squares row extended by two
    unit columns; every field element is an evaluation point."""
    # delta = 0: MDS in characteristic 2, where no two distinct points sum to 0
    if field.p != 2:
        raise ValueError("needs characteristic 2")
    p = RothLempelParams(field, tuple(field.elements()), 0, 3)
    params = {"alpha": _fmt_seq(p.a), "delta": "0"}
    return ConstructionRecord("roth-lempel", params, field.q, p.k, p.n, roth_lempel_is_mds(p),
                              False, partial(roth_lempel_generator, p))


def _tgrs_row(q: int, roth_lempel: Callable[[], ConstructionRecord]):
    # roth_lempel() is the [q+2, 3] record; puncturing it down to length
    # k+3 >= 3 and taking the dual both keep its MDS verdict, and the
    # punctured code, k+2 points and e_1, is non-GRS, so its dual is too
    def make(k: int) -> ConstructionRecord:
        rl = roth_lempel()
        positions = range(1, q - 1 - k)  # then q + 1; a record keeps no list of them
        params = {"derived": f"dual-of-punctured-[{q + 2},3]",
                  "punctured": _fmt_seq([*positions, q + 1])}
        return ConstructionRecord("twisted-grs", params, q, k, k + 3, rl.mds, False,
                                  lambda: dual(puncture(rl.code, [*positions, q + 1])))
    return range(q // 2, q - 1), make


def tgrs_punctured(field: Field, k: int) -> ConstructionRecord:
    """Characteristic 2, length k+3 for q/2 <= k < q-1: dual of the
    [q+2, 3] code punctured on s-1 evaluation columns and the
    second-to-last unit column, where s = q-1-k."""
    return _lookup(_tgrs_row(field.q, partial(ngrs_q2_3, field)), k)


def table1(field: Field) -> Table1Report:
    """All applicable maximal-length rows for this field, one record per
    (row, k); rows whose k-range is empty are reported as notes."""
    q = field.q
    if q < 8:
        raise ValueError("table needs q >= 8")
    # the k = (q-2)/2 and k = (q-1)/2 rows, the duals of the k = 4 and
    # k = 3 rows, follow the rows between them; for q >= 8 neither dual
    # has its primal's k
    if field.p == 2:
        roth_lempel = ngrs_q2_3(field)
        (k4, k4_dual), char2 = _char2_k4_row(field)
        plus_ks, plus = _plus_row(field, extended=True)
        tgrs_ks, tgrs = _tgrs_row(q, lambda: roth_lempel)
        notes = [] if plus_ks else [f"row 5<=k<=(q-4)/2 empty for q={q}"]
        records = [roth_lempel, char2(k4), *map(plus, plus_ks), char2(k4_dual),
                   *map(tgrs, tgrs_ks), _dual_record("roth-lempel-dual", roth_lempel)]
    else:
        (k3, k3_dual), odd = _odd_k3_row(field)
        star_ks, star = _star_row(field)
        star_ks = star_ks[:-1]  # k = n-2 is GRS, since n-k = 2
        notes = [] if star_ks else [f"row 4<=k<=(q-3)/2 empty for q={q}"]
        records = [odd(k3), *map(star, star_ks), odd(k3_dual)]
    return Table1Report(q=q, records=records, notes=notes)
