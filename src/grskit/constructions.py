"""Explicit maximal-length non-GRS MDS constructions and the length table.

Each builder returns a ConstructionRecord carrying the construction
parameters together with live verdicts: MDS-ness by a depth-first walk
over the column subsets of the code or its dual (codes.is_mds) and
GRS-ness by the identification algorithm.  All arbitrary choices
(non-square element, subspace and coset enumeration order) are fixed
deterministically from the field's primitive element, so records are
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .gf import Field, format_element
from .codes import LinearCode, is_mds, dual, puncture
from .families import MgrsParams, EmgrsParams, mgrs_generator, emgrs_generator
from .linalg import Matrix
from . import grsid


@dataclass
class ConstructionRecord:
    """One constructed code with its parameters and verification verdicts.

    grs_verdict is None when the shape is outside the identification
    algorithm's 3 <= k <= n-2 range and GRS-ness is left unadjudicated.
    """

    family: str
    q: int
    k: int
    n: int
    params: dict
    code: LinearCode
    mds: bool = dc_field(default=False)
    grs_verdict: bool | None = dc_field(default=None)

    def summary(self) -> str:
        grs = {True: "grs", False: "non-grs", None: "unchecked"}[self.grs_verdict]
        return (f"q={self.q} k={self.k} n={self.n} family={self.family} "
                f"mds={'true' if self.mds else 'false'} grs={grs}")

    def kv_block(self) -> str:
        lines = [
            f"family={self.family}",
            f"q={self.q}",
            f"k={self.k}",
            f"n={self.n}",
            f"is_mds={'true' if self.mds else 'false'}",
            "is_grs=" + {True: "true", False: "false", None: "unchecked"}[self.grs_verdict],
        ]
        for key, val in self.params.items():
            lines.append(f"{key}={val}")
        return "\n".join(lines)


@dataclass
class Table1Report:
    q: int
    records: list
    notes: list


def _verify(rec: ConstructionRecord) -> ConstructionRecord:
    rec.mds = is_mds(rec.code)
    k, n = rec.code.k, rec.code.n
    if 3 <= k <= n - 2:
        rec.grs_verdict = grsid.is_grs(rec.code.gen).grs
    else:
        rec.grs_verdict = None
    return rec


def _fmt_seq(xs) -> str:
    return ",".join(format_element(x) for x in xs)


def _mgrs_record(family: str, p: MgrsParams) -> ConstructionRecord:
    code = mgrs_generator(p)
    params = {
        "alpha": _fmt_seq(p.alpha),
        "v": _fmt_seq(p.v),
        "eta": str(p.eta),
        "t": str(p.t),
    }
    return _verify(ConstructionRecord(family, p.field.q, p.k, p.n, params, code))


def _emgrs_record(family: str, p: EmgrsParams) -> ConstructionRecord:
    code = emgrs_generator(p)
    params = {
        "alpha": _fmt_seq(p.alpha),
        "v": _fmt_seq(p.v + (p.v_ext,)),
        "eta": str(p.eta),
        "t": str(p.t),
    }
    return _verify(ConstructionRecord(family, p.field.q, p.k, p.n, params, code))


def _dual_record(family: str, primal: ConstructionRecord) -> ConstructionRecord:
    code = dual(primal.code)
    params = dict(primal.params)
    params["derived"] = f"dual-of-{primal.family}-k{primal.k}"
    rec = ConstructionRecord(family, primal.q, code.k, code.n, params, code)
    return _verify(rec)


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
    return _mgrs_record("modified-grs-star", params)


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
    primal = _mgrs_record("modified-grs", params)
    if k == 3:
        return primal
    if k == (q - 1) // 2:
        return _dual_record("modified-grs-dual", primal)
    raise ValueError("k must be 3 or (q-1)/2")


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
        return _emgrs_record("modified-grs-plus-extended", params)
    params = MgrsParams(field, tuple(alpha), (1,) * n, eta, 1, k)
    return _mgrs_record("modified-grs-plus", params)


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
    primal = _mgrs_record("modified-grs", params)
    if k == 4:
        return primal
    if k == (q - 2) // 2:
        return _dual_record("modified-grs-dual", primal)
    raise ValueError("k must be 4 or (q-2)/2")


def _roth_lempel_code(F: Field) -> LinearCode:
    # the [q+2, 3] code of ngrs_q2_3, built without verdicts
    q = F.q
    row0 = [1] * q + [0, 0]
    row1 = list(F.elements()) + [0, 1]
    row2 = [F.mul(a, a) for a in F.elements()] + [1, 0]
    gen = Matrix(F, [row0, row1, row2], cols=q + 2, check=False)
    return LinearCode(F, gen, check=False)


def ngrs_q2_3(field: Field) -> ConstructionRecord:
    """Characteristic 2, the [q+2, 3] code: squares row extended by two
    unit columns; every field element is an evaluation point."""
    if field.p != 2:
        raise ValueError("needs characteristic 2")
    q = field.q
    params = {"alpha": _fmt_seq(range(q)), "delta": "0"}
    return _verify(ConstructionRecord("roth-lempel", q, 3, q + 2, params,
                                      _roth_lempel_code(field)))


def tgrs_punctured(field: Field, k: int) -> ConstructionRecord:
    """Characteristic 2, length k+3 for q/2 <= k < q-1: dual of the
    [q+2, 3] code punctured on s-1 evaluation columns and the
    second-to-last unit column, where s = q-1-k."""
    q = field.q
    if field.p != 2:
        raise ValueError("needs characteristic 2")
    if not q // 2 <= k < q - 1:
        raise ValueError(f"need {q // 2} <= k <= {q - 2}")
    s = q - 1 - k
    positions = list(range(1, s)) + [q + 1]
    code = dual(puncture(_roth_lempel_code(field), positions))
    params = {"derived": f"dual-of-punctured-[{q + 2},3]", "punctured": _fmt_seq(positions)}
    rec = ConstructionRecord("twisted-grs", q, code.k, code.n, params, code)
    return _verify(rec)


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
            check_len(tgrs_punctured(field, k), "tgrs-punctured")
        check_len(_dual_record("roth-lempel-dual", roth_lempel), "ngrs")
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
