import importlib.util
from pathlib import Path

import pytest

from grskit.gf import (Field, field_new, field_from_order, INF, is_finite,
                       proj_inv, format_element, parse_element)


def test_f11_primitive_and_inverse(f11):
    assert f11.primitive == 2
    assert f11.inv(2) == 6
    assert f11.mul(2, 6) == 1


def test_gf8_default_modulus_matches_w3_eq_w_plus_1(f8):
    # x^3 + x + 1, so w * w^2 = w + 1 (encoding 3)
    assert f8.modulus == (1, 1, 0, 1)
    assert f8.primitive == 2
    assert f8.mul(2, f8.mul(2, 2)) == 3


def test_gf2_trivial():
    f = Field(2, 1)
    assert f.q == 2
    assert f.primitive == 1


def test_lagrange_power():
    for q in (5, 8, 9, 11):
        f = field_from_order(q)
        for a in f.nonzero():
            assert f.pow(a, q - 1) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 27])
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    elems = list(f.elements())
    for a in elems:
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, -1) == f.inv(a)
        assert f.add(a, f.neg(a)) == 0
        for b in elems:
            assert f.sub(a, b) == f.add(a, f.neg(b))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16])
def test_primitive_enumerates_nonzero_elements(q):
    f = field_from_order(q)
    x = 1
    seen = set()
    for _ in range(q - 1):
        seen.add(x)
        x = f.mul(x, f.primitive)
    assert seen == set(range(1, q))
    assert x == 1


def test_construction_is_deterministic():
    a = field_new(2, 4)
    b = field_new(2, 4)
    assert (a.p, a.s, a.q, a.modulus, a.primitive) == (b.p, b.s, b.q, b.modulus, b.primitive)
    assert a == b


def test_pow_negative_exponent(f11):
    assert f11.pow(3, -1) == f11.inv(3)
    assert f11.pow(0, 0) == 1
    assert f11.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f11.pow(0, -1)


def test_invalid_constructions():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 3, (1, 0, 0, 1))  # x^3 + 1 = (x+1)(x^2+x+1)
    with pytest.raises(ValueError):
        Field(2, 3, (1, 1, 0, 1, 0))  # wrong degree
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)


def test_element_range_check(f11):
    with pytest.raises(ValueError):
        f11.check(11)
    with pytest.raises(ValueError):
        f11.check(-1)


def test_projective_conventions(f11):
    assert proj_inv(f11, 0) is INF
    assert proj_inv(f11, INF) == 0
    assert proj_inv(f11, 3) == 4
    for x in list(f11.elements()) + [INF]:
        y = proj_inv(f11, proj_inv(f11, x))
        assert (y is INF) if x is INF else (y == x)
    assert not is_finite(INF)
    assert is_finite(0)


def test_element_tokens(f11):
    assert format_element(INF) == "inf"
    assert format_element(7) == "7"
    assert parse_element(f11, "inf", allow_inf=True) is INF
    assert parse_element(f11, "9") == 9
    with pytest.raises(ValueError):
        parse_element(f11, "inf")
    with pytest.raises(ValueError):
        parse_element(f11, "11")
    assert parse_element(f11, "0") == 0
    assert parse_element(f11, "10") == 10
    # only canonical ASCII decimals: int() would read each of these
    for token in ("x", "", "1_0", "+3", "-0", " 3", "3 ", "07", "00", "\u0661", "\uff13"):
        with pytest.raises(ValueError):
            parse_element(f11, token)


def test_public_names_used_by_tracing():
    # grsbench/tracer.py looks these up by name and wraps them; a rename
    # would silently drop a layer from its traced runs
    path = Path(__file__).resolve().parents[1] / "grsbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("grsbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert callable(field_new)
    for name in tracer.GF_METHODS:
        assert name in Field.__dict__, name
    for module, names in tracer.TRACED.items():
        for name in names:
            fn = getattr(importlib.import_module(f"grskit.{module}"), name, None)
            assert callable(fn), f"{module}.{name}"
