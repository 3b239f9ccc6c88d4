import importlib.util
import random
import time
from pathlib import Path

import pytest

from grskit import gf
from grskit.gf import (Field, field_new, field_from_order, INF, is_finite,
                       proj_inv, parse_element)
from grskit.grsid import CountingField


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
    # two constructions, not one interned field twice
    a = Field(2, 4)
    b = Field(2, 4)
    assert (a.p, a.s, a.q, a.modulus, a.primitive) == (b.p, b.s, b.q, b.modulus, b.primitive)
    assert a == b


def test_factories_intern_fields():
    assert field_new(2, 4) is field_from_order(16)
    assert field_new(11) is field_from_order(11)
    # q is factored by trial division, not scanned for its prime
    assert field_from_order(1_000_000_007) is field_new(1_000_000_007)
    # a list and a tuple modulus name one field, and so does the default
    # modulus spelt out
    gf8 = field_new(2, 3, [1, 1, 0, 1])
    assert gf8 is field_new(2, 3, (1, 1, 0, 1)) is field_new(2, 3)
    other = field_new(2, 3, (1, 0, 1, 1))
    assert other is field_new(2, 3, [1, 0, 1, 1]) and other is not gf8
    # Field(...) builds a fresh, equal instance
    fresh = Field(2, 4)
    assert fresh is not field_new(2, 4) and fresh == field_new(2, 4)


def test_factoring_budget():
    # trial divisors stop at 2^20: a prime below 2^40 still builds, and a
    # larger q with no factor that small is refused at once
    assert field_from_order(10**12 + 39).q == 10**12 + 39
    for build in (field_from_order, Field):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"factoring budget exceeded: .* up to 2\^20"):
            build(100000000000031)
        assert time.perf_counter() - t0 < 1


def test_factories_raise_on_every_bad_call():
    # only fields that construct are kept: a bad modulus raises each time
    for _ in range(3):
        with pytest.raises(ValueError, match="reducible"):
            field_new(2, 3, (1, 0, 0, 1))  # x^3 + 1 = (x+1)(x^2+x+1)
        with pytest.raises(ValueError, match="reducible"):
            field_new(2, 3, [1, 0, 0, 1])
        with pytest.raises(ValueError):
            field_from_order(12)
        with pytest.raises(ValueError):
            field_new(2, 3, [[1], 1, 0, 1])  # an unhashable coefficient
    # 1.0 and 2.0 equal ints as dict keys, yet an interned GF(8) does not
    # answer for them: they are checked as if no field had been built
    field_new(2, 3, [1, 1, 0, 1])
    with pytest.raises(ValueError, match="integers"):
        field_new(2, 3, [1.0, 1, 0, 1])
    with pytest.raises(TypeError):
        field_new(2.0, 3)
    with pytest.raises(TypeError):
        field_new(2, 3.0, (1, 1, 0, 1))


def test_counting_field_leaves_interned_field_uncounted():
    f = field_new(3, 2)
    cf = CountingField(f)
    f.mul(2, 5)
    f.inv(4)
    assert cf.ops == 0
    cf.mul(2, 5)
    assert cf.ops == 1
    assert field_new(3, 2) is f and type(f) is Field


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
    # modulus coefficients lie in 0..p-1; none is reduced mod p
    for p, s, mod in ((11, 1, (22, 12)), (3, 2, (5, 4, 1)), (5, 1, (-1, 1))):
        with pytest.raises(ValueError):
            Field(p, s, mod)
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
    assert str(INF) == "inf"
    assert str(7) == "7"
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


# ---------------- log/antilog tables against polynomial arithmetic ----------------
# The oracle multiplies digit vectors with gf._poly_mul/_poly_mod and adds
# them digit by digit; it never reads a field's tables.

def _oracle(F):
    p, s, m = F.p, F.s, F.modulus

    def digits(a):
        return gf._poly_from_enc(a, p, s)

    def mul(a, b):
        return gf._poly_to_enc(gf._poly_mod(gf._poly_mul(digits(a), digits(b), p), m, p), p)

    def add(a, b, sign=1):
        return gf._poly_to_enc([(x + sign * y) % p for x, y in zip(digits(a), digits(b))], p)

    def pow_(a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError
            return 1 if e == 0 else 0
        e %= F.q - 1
        r = 1
        while e:
            if e & 1:
                r = mul(r, a)
            a = mul(a, a)
            e >>= 1
        return r

    return mul, add, pow_


def _check_pow(F, pow_, a):
    q = F.q
    for e in (-3, -1, 0, 1, 2, q - 2, q, 3 * q):
        if a == 0 and e < 0:
            with pytest.raises(ZeroDivisionError):
                F.pow(a, e)
        else:
            assert F.pow(a, e) == pow_(a, e), (F, a, e)


def _monic_irreducibles(p, s):
    for low in range(p ** s):
        cand = gf._poly_from_enc(low, p, s) + (1,)
        if gf._is_irreducible(cand, p):
            yield cand


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (5, 2), (7, 2)])
def test_tables_match_polynomial_arithmetic_exhaustive(p, s):
    # every extension field with q <= 64, under every monic irreducible modulus
    for modulus in _monic_irreducibles(p, s):
        F = Field(p, s, modulus)
        assert F._exp is not None
        mul, add, pow_ = _oracle(F)
        q = F.q
        for a in range(q):
            assert F.neg(a) == add(0, a, -1)
            if a:
                assert F.inv(a) == pow_(a, q - 2) and mul(a, F.inv(a)) == 1
            _check_pow(F, pow_, a)
            for b in range(q):
                assert F.mul(a, b) == mul(a, b), (modulus, a, b)
                assert F.add(a, b) == add(a, b), (modulus, a, b)
                assert F.sub(a, b) == add(a, b, -1), (modulus, a, b)
        w, x, powers = F.primitive, 1, []
        for _ in range(q - 1):
            powers.append(x)
            x = mul(x, w)
        assert F.powers_of_primitive() == powers and x == 1


@pytest.mark.parametrize("q", [256, 243, 125, 729, 13, 257, 8191])
def test_tables_match_polynomial_arithmetic_sampled(q):
    F = field_from_order(q)
    assert F._exp is not None
    mul, add, pow_ = _oracle(F)
    rng = random.Random(f"tables:{q}")
    for _ in range(1000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert F.mul(a, b) == mul(a, b)
        assert F.add(a, b) == add(a, b)
        assert F.sub(a, b) == add(a, b, -1)
        assert F.neg(a) == add(0, a, -1)
    for _ in range(50):
        a = rng.randrange(1, q)
        assert F.inv(a) == pow_(a, q - 2)
        _check_pow(F, pow_, a)
    _check_pow(F, pow_, 0)
    powers = F.powers_of_primitive()
    assert powers[1] == F.primitive and mul(powers[-1], F.primitive) == 1
    assert all(mul(x, F.primitive) == y for x, y in zip(powers, powers[1:]))
    # a new list each time: the caller may change it
    powers.append(0)
    assert len(F.powers_of_primitive()) == q - 1


def _smallest_above_cap(p):
    s = 1
    while p ** s <= gf._TABLE_CAP:
        s += 1
    return s


# ---------------- the row operation axpy against the scalar operations ----------------

def _axpy_oracle(F, x, f, y):
    return [F.sub(a, F.mul(f, b)) for a, b in zip(x, y)]


@pytest.mark.parametrize("q", [4, 8, 9, 13, 25])
def test_axpy_matches_scalar_ops_exhaustive(q):
    # every f and every entry pair (a, b): zeros in x and y, f = 1, f = -1
    # and exact cancellation a = f*b among them
    F = field_from_order(q)
    x = [a for a in range(q) for _ in range(q)]
    y = [b for _ in range(q) for b in range(q)]
    x0, y0 = list(x), list(y)
    for f in range(1, q):
        out = F.axpy(x, f, y)
        assert out == _axpy_oracle(F, x, f, y), (q, f)
        assert out is not x and x == x0 and y == y0
        assert out.count(0) == q  # one cancelling a per b


@pytest.mark.parametrize("p,s", [(2, 8), (3, 5), (3, 8), (257, 1), (8191, 1),
                                 (2, _smallest_above_cap(2)), (3, _smallest_above_cap(3)),
                                 (8209, 1)])
def test_axpy_matches_scalar_ops_sampled(p, s):
    # tabled char-2, odd-extension (GF(3^8) the largest odd table) and
    # prime fields, and the fields just above the cap
    F = field_new(p, s)
    assert (F._exp is None) == (F.q > gf._TABLE_CAP)
    q = F.q
    rng = random.Random(f"axpy:{q}")
    for _ in range(40):
        x = [rng.randrange(q) if rng.random() < 0.8 else 0 for _ in range(60)]
        y = [rng.randrange(q) if rng.random() < 0.8 else 0 for _ in range(60)]
        f = rng.choice((1, F.neg(1), rng.randrange(1, q)))
        # exact cancellation in the first entry: a = f*b
        y[0] = rng.randrange(1, q)
        x[0] = F.mul(f, y[0])
        out = F.axpy(x, f, y)
        assert out == _axpy_oracle(F, x, f, y), (F, f)
        assert out[0] == 0


@pytest.mark.parametrize("p", [2, 3, 8209])
def test_field_above_cap_uses_the_kernel_and_counts_one_per_call(p):
    s = _smallest_above_cap(p)
    F = field_new(p, s)
    assert F.q > gf._TABLE_CAP and F._exp is F._log is F._zech is None
    mul, add, pow_ = _oracle(F)
    cf = CountingField(F)
    rng = random.Random(f"above-cap:{p}")
    calls = 0
    for _ in range(20):
        a, b = rng.randrange(1, F.q), rng.randrange(F.q)
        assert cf.mul(a, b) == mul(a, b)
        assert cf.add(a, b) == add(a, b)
        assert cf.sub(a, b) == add(a, b, -1)
        assert cf.neg(b) == add(0, b, -1)
        assert cf.inv(a) == pow_(a, F.q - 2)
        assert cf.pow(a, -3) == pow_(a, -3) and cf.pow(b, F.q) == pow_(b, F.q)
        calls += 7
        assert cf.ops == calls
    # axpy counts 2 per nonzero entry of y, never also its scalar parts:
    # the base body calls only the private kernels
    for _ in range(20):
        x = [rng.randrange(F.q) for _ in range(8)]
        y = [rng.randrange(F.q) if rng.random() < 0.7 else 0 for _ in range(8)]
        f = rng.randrange(1, F.q)
        assert cf.axpy(x, f, y) == [add(a, mul(f, b), -1) for a, b in zip(x, y)]
        calls += 2 * sum(1 for b in y if b)
        assert cf.ops == calls
    powers = cf.powers_of_primitive()
    assert cf.ops == calls and len(powers) == F.q - 1 and powers[1] == F.primitive


@pytest.mark.parametrize("q", [4, 8, 9, 25, 256, 243, 13, 257, 8191])
def test_tabled_field_counts_one_per_call(q):
    cf = CountingField(field_from_order(q))
    for a in range(1, q):
        cf.mul(a, a)
        cf.add(a, 1)
        cf.sub(1, a)
        cf.neg(a)
        cf.inv(a)
        cf.pow(a, q)
    assert cf.ops == 6 * (q - 1)
    cf.powers_of_primitive()
    assert cf.ops == 6 * (q - 1)
    # 2 per nonzero entry of y: q - 1 of the q entries of range(q)
    row = list(range(q))
    for f in (1, q - 1, cf.primitive):
        cf.axpy(row, f, row)
    assert cf.ops == 6 * (q - 1) + 3 * 2 * (q - 1)


def test_tables_are_shared_and_built_once(monkeypatch):
    f = field_from_order(243)
    cf = CountingField(f)
    assert cf._exp is f._exp and cf._log is f._log and cf._zech is f._zech
    assert field_from_order(256)._zech is None  # characteristic 2 adds by XOR
    f7 = Field(7)  # prime fields invert by lookup but add modulo p
    assert f7._exp is not None and f7._log is not None and f7._zech is None
    builds = []
    build = Field._build_tables

    def counted(self):
        builds.append((self.p, self.s))
        build(self)

    monkeypatch.setattr(gf, "_FIELDS", {})
    monkeypatch.setattr(Field, "_build_tables", counted)
    a = field_new(3, 4)
    assert field_new(3, 4) is a and field_from_order(81) is a
    assert builds == [(3, 4)]
