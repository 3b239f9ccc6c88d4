"""Explicit maximal-length non-GRS MDS constructions and the length table.

Each builder returns a ConstructionRecord carrying the construction
parameters, q, k, n and two verdicts, all decided from the parameters
alone; its generator is built on the first read of its code.  MDS-ness
is a subset certificate on the evaluation points (families.mgrs_is_mds,
emgrs_is_mds and roth_lempel_is_mds); no generator's columns are walked.
GRS-ness of a modified-GRS row is the families' curve rule (mgrs_is_grs,
emgrs_is_grs).  The Roth-Lempel [q+2, 3] code and each punctured
[k+3, 3] code behind a twisted-GRS row are non-GRS by the same curve
argument: at least 3+2 of their columns lie on the conic (1, x, x^2), all
q+1 points or k+2 >= 6 of them, so in a GRS code every column is a
multiple of a point of the conic (Dür 1987); the last column,
e_1 + delta * e_2 (delta = 0 here), is 0 in row 0 and is not e_2, so it
is a multiple of none.  A dual row takes both verdicts of its primal, since MDS-ness and
GRS-ness are closed under duality, and a punctured row takes the MDS
verdict of the code it is punctured from (MacWilliams-Sloane ch. 11).
All arbitrary choices (non-square element, subspace and coset
enumeration order) are fixed deterministically from the field's
primitive element: modified-GRS points are taken from its powers in order
(Field.powers_of_primitive), so records are reproducible byte for byte.
Each row is stated once, by its builder, whose point set fixes the
row's length; table1 only lists the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial
from typing import Callable

from .gf import Field, format_element
from .codes import LinearCode, dual, puncture
from .families import (MgrsParams, EmgrsParams, RothLempelParams, mgrs_generator,
                       emgrs_generator, mgrs_is_mds, emgrs_is_mds, mgrs_is_grs,
                       emgrs_is_grs, roth_lempel_generator, roth_lempel_is_mds)


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


def _fmt_seq(xs) -> str:
    return ",".join(format_element(x) for x in xs)


def _modified_record(family: str, p) -> ConstructionRecord:
    # the record of p, an MgrsParams or an EmgrsParams, whose v gains the
    # extended column's multiplier; names are read at call time, so a
    # patched certificate is the one used
    if isinstance(p, EmgrsParams):
        v, is_mds, is_grs, build = p.v + (p.v_ext,), emgrs_is_mds, emgrs_is_grs, emgrs_generator
    else:
        v, is_mds, is_grs, build = p.v, mgrs_is_mds, mgrs_is_grs, mgrs_generator
    params = {"alpha": _fmt_seq(p.alpha), "v": _fmt_seq(v), "eta": str(p.eta), "t": str(p.t)}
    return ConstructionRecord(family, params, p.field.q, p.k, p.n, is_mds(p), is_grs(p),
                              partial(build, p))


def _dual_record(family: str, primal: ConstructionRecord) -> ConstructionRecord:
    params = dict(primal.params, derived=f"dual-of-{primal.family}-k{primal.k}")
    return ConstructionRecord(family, params, primal.q, primal.n - primal.k, primal.n,
                              primal.mds, primal.grs_verdict, lambda: dual(primal.code))


def _primal_or_dual(p: MgrsParams, k: int) -> ConstructionRecord:
    # the modified-GRS row of p, or at k = n - p.k its dual row
    if k not in (p.k, p.n - p.k):
        raise ValueError(f"k must be {p.k} or {p.n - p.k}")
    primal = _modified_record("modified-grs", p)
    return primal if k == p.k else _dual_record("modified-grs-dual", primal)


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
    alpha = field.powers_of_primitive()[2::2] + [1, 0]
    eta_prime = field.primitive  # a generator is never a square
    assert field.pow(eta_prime, (q - 1) // 2) == field.neg(1)
    eta = eta_prime if k % 2 == 0 else field.neg(eta_prime)
    params = MgrsParams(field, tuple(alpha), (1,) * n, eta, k - 1, k)
    return _modified_record("modified-grs-star", params)


def odd_k3(field: Field, k: int) -> ConstructionRecord:
    """Odd characteristic, length (q+5)/2 for k = 3; the k = (q-1)/2 row is
    the dual code."""
    q = field.q
    if field.p == 2:
        raise ValueError("needs odd characteristic")
    n = (q + 5) // 2
    alpha = field.powers_of_primitive()[1:(q + 1) // 2] + [1, 0]
    params = MgrsParams(field, tuple(alpha), (1,) * n, field.neg(1), 2, 3)
    return _primal_or_dual(params, k)


def plus_modified(field: Field, k: int, extended: bool) -> ConstructionRecord:
    """Characteristic 2, length (q+2)/2, or (q+4)/2 extended: reciprocals
    of the nonzero elements of the hyperplane V, the F_2-span of 1, x, ...,
    x^(s-2) (the encodings below 2^(s-1)), followed by 0, with 1/eta
    outside V, so no reciprocal subset sum can meet it."""
    q = field.q
    if field.p != 2 or field.s < 2:
        raise ValueError("needs characteristic 2 with s > 1")
    if not 5 <= k <= (q - 4) // 2:
        raise ValueError(f"need 5 <= k <= {(q - 4) // 2}")
    bound = 1 << (field.s - 1)
    powers = field.powers_of_primitive()
    alpha = [field.inv(b) for b in powers if b < bound]
    alpha.append(0)
    n = len(alpha) + 1
    # 1/eta is the first power of w from w^(s-1) on outside V; w^(s-1)
    # itself lies in V for some w != x (x^9 + x + 1: w^8 = x^7 + 1)
    eta = field.inv(next(x for x in powers[field.s - 1:] if x >= bound))
    if extended:
        params = EmgrsParams(field, tuple(alpha), (1,) * n, 1, eta, 1, k)
        return _modified_record("modified-grs-plus-extended", params)
    params = MgrsParams(field, tuple(alpha), (1,) * n, eta, 1, k)
    return _modified_record("modified-grs-plus", params)


def char2_k4(field: Field, k: int) -> ConstructionRecord:
    """Characteristic 2, length (q+6)/2 for k = 4: reciprocals of the
    hyperplane coset x^(s-1) + V followed by 0 and 1, eta = 1, where V is
    the F_2-span of 1, x, ..., x^(s-2).  The k = (q-2)/2 row is the dual
    code."""
    q = field.q
    if field.p != 2 or field.s < 3:
        raise ValueError("needs characteristic 2 with s > 2")
    bound = 1 << (field.s - 1)
    alpha = [field.inv(x) for x in field.powers_of_primitive() if x >= bound]
    alpha.extend([0, 1])
    n = len(alpha) + 1
    params = MgrsParams(field, tuple(alpha), (1,) * n, 1, 1, 4)
    return _primal_or_dual(params, k)


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


def tgrs_punctured(field: Field, k: int) -> ConstructionRecord:
    """Characteristic 2, length k+3 for q/2 <= k < q-1: dual of the
    [q+2, 3] code punctured on s-1 evaluation columns and the
    second-to-last unit column, where s = q-1-k."""
    q = field.q
    # the range check first: the [q+2, 3] record costs an O(q^2) certificate
    if not q // 2 <= k < q - 1:
        raise ValueError(f"need {q // 2} <= k <= {q - 2}")
    return _punctured_record(k, ngrs_q2_3(field))


def _punctured_record(k: int, roth_lempel: ConstructionRecord) -> ConstructionRecord:
    # puncturing the [q+2, 3] code roth_lempel down to length k+3 >= 3 and
    # taking the dual both keep its MDS verdict, and the punctured code,
    # k+2 points and e_1, is non-GRS, so its dual is too
    q = roth_lempel.q
    s = q - 1 - k
    positions = list(range(1, s)) + [q + 1]
    params = {"derived": f"dual-of-punctured-[{q + 2},3]", "punctured": _fmt_seq(positions)}
    return ConstructionRecord("twisted-grs", params, q, k, k + 3, roth_lempel.mds, False,
                              lambda: dual(puncture(roth_lempel.code, positions)))


def table1(field: Field) -> Table1Report:
    """All applicable maximal-length rows for this field, one record per
    (row, k); rows whose k-range is empty are reported as notes."""
    q = field.q
    if q < 8:
        raise ValueError("table needs q >= 8")
    records = []
    notes = []
    # the k = (q-2)/2 and k = (q-1)/2 rows are the duals of the k = 4 and
    # k = 3 rows; for q >= 8 neither dual has its primal's k
    if field.p == 2:
        roth_lempel = ngrs_q2_3(field)
        primal = char2_k4(field, 4)
        records += [roth_lempel, primal]
        lo, hi = 5, (q - 4) // 2
        if lo > hi:
            notes.append(f"row 5<=k<=(q-4)/2 empty for q={q}")
        else:
            records += [plus_modified(field, k, extended=True) for k in range(lo, hi + 1)]
        records.append(_dual_record("modified-grs-dual", primal))
        records += [_punctured_record(k, roth_lempel) for k in range(q // 2, q - 1)]
        records.append(_dual_record("roth-lempel-dual", roth_lempel))
    else:
        primal = odd_k3(field, 3)
        records.append(primal)
        lo, hi = 4, (q - 3) // 2
        if lo > hi:
            notes.append(f"row 4<=k<=(q-3)/2 empty for q={q}")
        else:
            records += [star_modified(field, k) for k in range(lo, hi + 1)]
        records.append(_dual_record("modified-grs-dual", primal))
    return Table1Report(q=q, records=records, notes=notes)
