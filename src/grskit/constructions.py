"""Explicit maximal-length non-GRS MDS constructions and the length table.

Each builder returns a ConstructionRecord carrying the construction
parameters together with two verdicts.  MDS-ness is the paper's subset
certificate on the evaluation points (families.mgrs_is_mds and
emgrs_is_mds) for the modified-GRS rows; a dual row takes the verdict of
its primal and a punctured row that of the code it is punctured from,
since MDS is closed under duality and under puncturing (MacWilliams-Sloane
ch. 11).  Only the Roth-Lempel [q+2, 3] code is walked by codes.is_mds.
GRS-ness is decided live on every record by the identification
algorithm, which decides every shape.
All arbitrary choices (non-square element, subspace and coset
enumeration order) are fixed deterministically from the field's
primitive element, so records are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .gf import Field, format_element
from .codes import LinearCode, is_mds, dual, puncture
from .families import (MgrsParams, EmgrsParams, RothLempelParams, mgrs_generator,
                       emgrs_generator, mgrs_is_mds, emgrs_is_mds, roth_lempel_generator)
from . import grsid


@dataclass
class ConstructionRecord:
    """One constructed code with its parameters and its MDS and GRS
    verdicts."""

    family: str
    q: int
    k: int
    n: int
    params: dict
    code: LinearCode
    mds: bool = dc_field(default=False)
    grs_verdict: bool = dc_field(default=False)

    def summary(self) -> str:
        return (f"q={self.q} k={self.k} n={self.n} family={self.family} "
                f"mds={'true' if self.mds else 'false'} "
                f"grs={'grs' if self.grs_verdict else 'non-grs'}")

    def kv_block(self) -> str:
        lines = [
            f"family={self.family}",
            f"q={self.q}",
            f"k={self.k}",
            f"n={self.n}",
            f"is_mds={'true' if self.mds else 'false'}",
            f"is_grs={'true' if self.grs_verdict else 'false'}",
        ]
        for key, val in self.params.items():
            lines.append(f"{key}={val}")
        return "\n".join(lines)


@dataclass
class Table1Report:
    q: int
    records: list
    notes: list


def _verify(rec: ConstructionRecord, mds: bool) -> ConstructionRecord:
    rec.mds = mds
    rec.grs_verdict = grsid.is_grs(rec.code.gen).grs
    return rec


def _fmt_seq(xs) -> str:
    return ",".join(format_element(x) for x in xs)


# the record builders leave verdicts to _verify, so a dual row decides
# GRS-ness of its dual code only

def _mgrs_record(family: str, p: MgrsParams) -> ConstructionRecord:
    code = mgrs_generator(p)
    params = {
        "alpha": _fmt_seq(p.alpha),
        "v": _fmt_seq(p.v),
        "eta": str(p.eta),
        "t": str(p.t),
    }
    return ConstructionRecord(family, p.field.q, p.k, p.n, params, code)


def _emgrs_record(family: str, p: EmgrsParams) -> ConstructionRecord:
    code = emgrs_generator(p)
    params = {
        "alpha": _fmt_seq(p.alpha),
        "v": _fmt_seq(p.v + (p.v_ext,)),
        "eta": str(p.eta),
        "t": str(p.t),
    }
    return ConstructionRecord(family, p.field.q, p.k, p.n, params, code)


def _dual_record(family: str, primal: ConstructionRecord, mds: bool) -> ConstructionRecord:
    # mds is the primal's verdict, which the dual shares
    code = dual(primal.code)
    params = dict(primal.params)
    params["derived"] = f"dual-of-{primal.family}-k{primal.k}"
    rec = ConstructionRecord(family, primal.q, code.k, code.n, params, code)
    return _verify(rec, mds)


def _primal_or_dual(p: MgrsParams, k: int) -> ConstructionRecord:
    # the modified-GRS row of p, or at k = n - p.k its dual row; both
    # carry p's certificate
    if k not in (p.k, p.n - p.k):
        raise ValueError(f"k must be {p.k} or {p.n - p.k}")
    primal = _mgrs_record("modified-grs", p)
    mds = mgrs_is_mds(p)
    if k == p.k:
        return _verify(primal, mds)
    return _dual_record("modified-grs-dual", primal, mds)


def star_modified(field: Field, k: int) -> ConstructionRecord:
    """Odd characteristic, length (q+3)/2: evaluation points are the
    squares followed by 0, and (-1)^k * eta is a non-square, so no product
    of k-1 points can meet the threshold."""
    q = field.q
    if field.p == 2:
        raise ValueError("needs odd characteristic")
    n = (q + 3) // 2
    if not 4 <= k <= n - 2:
        raise ValueError(f"need 4 <= k <= {n - 2}")
    w = field.primitive
    w2 = field.mul(w, w)
    alpha = []
    x = 1
    for _ in range((q - 1) // 2):
        x = field.mul(x, w2)
        alpha.append(x)
    alpha.append(0)
    eta_prime = w  # a generator is never a square
    assert field.pow(eta_prime, (q - 1) // 2) == field.neg(1)
    eta = eta_prime if k % 2 == 0 else field.neg(eta_prime)
    params = MgrsParams(field, tuple(alpha), (1,) * n, eta, k - 1, k)
    return _verify(_mgrs_record("modified-grs-star", params), mgrs_is_mds(params))


def odd_k3(field: Field, k: int) -> ConstructionRecord:
    """Odd characteristic, length (q+5)/2 for k = 3; the k = (q-1)/2 row is
    the dual code."""
    q = field.q
    if field.p == 2:
        raise ValueError("needs odd characteristic")
    n = (q + 5) // 2
    w = field.primitive
    alpha = []
    x = 1
    for _ in range((q - 1) // 2):
        x = field.mul(x, w)
        alpha.append(x)
    alpha.extend([1, 0])
    params = MgrsParams(field, tuple(alpha), (1,) * n, field.neg(1), 2, 3)
    return _primal_or_dual(params, k)


def _hyperplane(field: Field):
    # F_2-span of 1, w, ..., w^(s-2): encodings below 2^(s-1)
    bound = 1 << (field.s - 1)
    return [x for x in field.powers_of_primitive() if x < bound]


def plus_modified(field: Field, k: int, extended: bool) -> ConstructionRecord:
    """Characteristic 2, length (q+2)/2, or (q+4)/2 extended: reciprocals
    of the nonzero hyperplane elements followed by 0, with 1/eta outside
    the hyperplane, so no reciprocal subset sum can meet it."""
    q = field.q
    if field.p != 2 or field.s < 2:
        raise ValueError("needs characteristic 2 with s > 1")
    if not 5 <= k <= (q - 4) // 2:
        raise ValueError(f"need 5 <= k <= {(q - 4) // 2}")
    beta = _hyperplane(field)
    alpha = [field.inv(b) for b in beta]
    alpha.append(0)
    n = len(alpha) + 1
    eta = field.inv(field.pow(field.primitive, field.s - 1))
    if extended:
        params = EmgrsParams(field, tuple(alpha), (1,) * n, 1, eta, 1, k)
        return _verify(_emgrs_record("modified-grs-plus-extended", params),
                       emgrs_is_mds(params))
    params = MgrsParams(field, tuple(alpha), (1,) * n, eta, 1, k)
    return _verify(_mgrs_record("modified-grs-plus", params), mgrs_is_mds(params))


def char2_k4(field: Field, k: int) -> ConstructionRecord:
    """Characteristic 2, length (q+6)/2 for k = 4: reciprocals of the
    hyperplane coset w^(s-1) + V followed by 0 and 1, eta = 1.  The
    k = (q-2)/2 row is the dual code."""
    q = field.q
    if field.p != 2 or field.s < 3:
        raise ValueError("needs characteristic 2 with s > 2")
    bound = 1 << (field.s - 1)
    coset = [x for x in field.powers_of_primitive() if x >= bound]
    alpha = [field.inv(b) for b in coset]
    alpha.extend([0, 1])
    n = len(alpha) + 1
    params = MgrsParams(field, tuple(alpha), (1,) * n, 1, 1, 4)
    return _primal_or_dual(params, k)


def _roth_lempel_code(F: Field) -> LinearCode:
    # the [q+2, 3] code of ngrs_q2_3, built without verdicts
    return roth_lempel_generator(RothLempelParams(F, tuple(F.elements()), 0, 3))


def ngrs_q2_3(field: Field) -> ConstructionRecord:
    """Characteristic 2, the [q+2, 3] code: squares row extended by two
    unit columns; every field element is an evaluation point."""
    if field.p != 2:
        raise ValueError("needs characteristic 2")
    q = field.q
    params = {"alpha": _fmt_seq(range(q)), "delta": "0"}
    code = _roth_lempel_code(field)
    return _verify(ConstructionRecord("roth-lempel", q, 3, q + 2, params, code),
                   is_mds(code))


def tgrs_punctured(field: Field, k: int) -> ConstructionRecord:
    """Characteristic 2, length k+3 for q/2 <= k < q-1: dual of the
    [q+2, 3] code punctured on s-1 evaluation columns and the
    second-to-last unit column, where s = q-1-k.  The MDS verdict is the
    column walk of the [q+2, 3] code."""
    q = field.q
    if field.p != 2:
        raise ValueError("needs characteristic 2")
    if not q // 2 <= k < q - 1:
        raise ValueError(f"need {q // 2} <= k <= {q - 2}")
    roth_lempel = _roth_lempel_code(field)
    return _punctured_record(k, roth_lempel, is_mds(roth_lempel))


def _punctured_record(k: int, roth_lempel: LinearCode, mds: bool) -> ConstructionRecord:
    # mds is the verdict of the [q+2, 3] code roth_lempel; puncturing it
    # down to length k+3 >= 3 and taking the dual both keep MDS.  Only that
    # direction holds, and it is the one used: the code is MDS on every
    # char-2 field, its columns being a hyperoval
    q = roth_lempel.field.q
    s = q - 1 - k
    positions = list(range(1, s)) + [q + 1]
    code = dual(puncture(roth_lempel, positions))
    params = {"derived": f"dual-of-punctured-[{q + 2},3]", "punctured": _fmt_seq(positions)}
    rec = ConstructionRecord("twisted-grs", q, code.k, code.n, params, code)
    return _verify(rec, mds)


_LENGTH_FORMULAS = {
    "odd-k3": lambda q, k: (q + 5) // 2,
    "star": lambda q, k: (q + 3) // 2,
    "plus": lambda q, k: (q + 2) // 2,
    "plus-extended": lambda q, k: (q + 4) // 2,
    "char2-k4": lambda q, k: (q + 6) // 2,
    "ngrs": lambda q, k: q + 2,
    "tgrs-punctured": lambda q, k: k + 3,
}


def expected_length(row: str, q: int, k: int) -> int:
    return _LENGTH_FORMULAS[row](q, k)


def table1(field: Field) -> Table1Report:
    """All applicable maximal-length rows for this field, one record per
    (row, k); rows whose k-range is empty are reported as notes."""
    q = field.q
    if q < 8:
        raise ValueError("table needs q >= 8")
    records = []
    notes = []

    def check_len(rec, row):
        want = expected_length(row, q, rec.k)
        if rec.n != want:
            raise AssertionError(f"length mismatch for {row}: {rec.n} != {want}")
        records.append(rec)

    if field.p == 2:
        roth_lempel = ngrs_q2_3(field)
        check_len(roth_lempel, "ngrs")
        check_len(char2_k4(field, 4), "char2-k4")
        lo, hi = 5, (q - 4) // 2
        if lo > hi:
            notes.append(f"row 5<=k<=(q-4)/2 empty for q={q}")
        else:
            for k in range(lo, hi + 1):
                check_len(plus_modified(field, k, extended=True), "plus-extended")
        if (q - 2) // 2 != 4:
            check_len(char2_k4(field, (q - 2) // 2), "char2-k4")
        for k in range(q // 2, q - 1):
            check_len(_punctured_record(k, roth_lempel.code, roth_lempel.mds),
                      "tgrs-punctured")
        check_len(_dual_record("roth-lempel-dual", roth_lempel, roth_lempel.mds), "ngrs")
    else:
        check_len(odd_k3(field, 3), "odd-k3")
        lo, hi = 4, (q - 3) // 2
        if lo > hi:
            notes.append(f"row 4<=k<=(q-3)/2 empty for q={q}")
        else:
            for k in range(lo, hi + 1):
                check_len(star_modified(field, k), "star")
        if (q - 1) // 2 != 3:
            check_len(odd_k3(field, (q - 1) // 2), "odd-k3")
    return Table1Report(q=q, records=records, notes=notes)
