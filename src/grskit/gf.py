"""Exact arithmetic in GF(p^s) and in the projective domain F_q ∪ {inf}.

Field elements are plain integers in [0, q-1].  The base-p digits of an
encoding are the coefficients of the representing polynomial in the
residue class of x, constant term least significant.  An encoding is
meaningful only relative to one Field instance; all arithmetic goes
through the Field's methods.  Each operation has one body, its public
method, so a subclass that overrides one (an operation counter, say) sees
every call, including the multiplications inside pow and, on extension
fields, inside inv = pow(a, q-2).  Characteristic 2 adds by XOR; odd
extensions work digit by digit in base p.

Element tokens in files are canonical ASCII decimals (0 or no leading
zero), or "inf" where the point at infinity is legal.

The point at infinity is the module-level singleton INF, used for the
evaluation-point domain of extended codes.  The conventions are
1/0 = inf, 1/inf = 0 and inf + a = inf.
"""

from __future__ import annotations


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "inf"


#: The unique point at infinity.  Compare with ``x is INF``.
INF = _Infinity()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------- polynomial helpers over GF(p) ----------------
# Polynomials are tuples of coefficients in [0, p), ascending by degree.

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic; returns a mod m
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - c * m[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_from_enc(enc, p, s):
    digits = []
    for _ in range(s):
        digits.append(enc % p)
        enc //= p
    return tuple(digits)


def _poly_to_enc(c, p):
    enc = 0
    for d in reversed(c):
        enc = enc * p + d
    return enc


def _is_irreducible(m, p):
    # trial division by every monic polynomial of degree 1..deg(m)//2
    deg = len(m) - 1
    if deg < 1 or m[-1] != 1:
        return False
    if m[0] == 0 and deg > 1:
        return False
    for d in range(1, deg // 2 + 1):
        for low in range(p ** d):
            cand = _poly_from_enc(low, p, d)
            cand = tuple(cand) + (0,) * (d - len(cand)) + (1,)
            if not _poly_mod(m, cand, p):
                return False
    return True


class Field:
    """A concrete finite field GF(p^s) with a fixed modulus and primitive element.

    Construction is fully deterministic: when no modulus is supplied, the
    monic irreducible of degree s with the smallest integer encoding is
    chosen, and the primitive element is the smallest nonzero encoding of
    multiplicative order q-1.
    """

    __slots__ = ("p", "s", "q", "modulus", "primitive", "_mod_int")

    def __init__(self, p: int, s: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if s < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.s = s
        self.q = p ** s
        if modulus is None:
            modulus = self._find_modulus()
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree s")
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible over GF(p)")
        self.modulus = modulus
        # integer form of the modulus, used for the p=2 fast path
        self._mod_int = _poly_to_enc(modulus, p) if p == 2 else 0
        self.primitive = self._find_primitive()

    def _find_modulus(self):
        p, s = self.p, self.s
        for low in range(p ** s):
            cand = _poly_from_enc(low, p, s)
            cand = tuple(cand) + (0,) * (s - len(cand)) + (1,)
            if _is_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _find_primitive(self):
        target = self.q - 1
        factors = _prime_factors(target)
        for a in range(1, self.q):
            if all(self.pow(a, target // r) != 1 for r in factors) or target == 1:
                return a
        raise AssertionError("no primitive element found")  # unreachable

    # -- arithmetic --

    def add(self, a, b):
        if self.s == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        r = 0
        mul = 1
        while a or b:
            r += ((a % p + b % p) % p) * mul
            a //= p
            b //= p
            mul *= p
        return r

    def sub(self, a, b):
        if self.s == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        r = 0
        mul = 1
        while a or b:
            r += ((a % p - b % p) % p) * mul
            a //= p
            b //= p
            mul *= p
        return r

    def neg(self, a):
        if self.s == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        r = 0
        mul = 1
        while a:
            r += ((p - a % p) % p) * mul
            a //= p
            mul *= p
        return r

    def mul(self, a, b):
        if self.s == 1:
            return (a * b) % self.p
        if self.p == 2:
            m = self._mod_int
            top = 1 << self.s
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= m
            return r
        da = _poly_from_enc(a, self.p, self.s)
        db = _poly_from_enc(b, self.p, self.s)
        prod = _poly_mod(_poly_mul(da, db, self.p), self.modulus, self.p)
        return _poly_to_enc(prod, self.p)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        """a**e; negative e requires a != 0.  pow(0, 0) = 1."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        e %= self.q - 1
        if self.s == 1:
            return pow(a, e, self.p)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    # -- element utilities --

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    def powers_of_primitive(self):
        """All q-1 nonzero elements, ordered by discrete logarithm."""
        w = self.primitive
        out = [1]
        for _ in range(self.q - 2):
            out.append(self.mul(out[-1], w))
        return out

    def check(self, a):
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element encoding of GF({self.q})")
        return a

    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p
                and self.s == other.s and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"GF({self.q})"
        return f"GF({self.p}^{self.s})"


def field_new(p: int, s: int = 1, modulus=None) -> Field:
    """Deterministic field constructor; see Field."""
    return Field(p, s, modulus)


def field_from_order(q: int) -> Field:
    """Build GF(q) from a prime power q, using the default modulus."""
    for p in range(2, q + 1):
        if q % p == 0:
            s = 0
            m = q
            while m % p == 0:
                m //= p
                s += 1
            if m != 1:
                raise ValueError(f"q={q} is not a prime power")
            return Field(p, s)
    raise ValueError(f"q={q} is not a prime power")


# ---------------- projective domain ----------------

def is_finite(x) -> bool:
    return x is not INF


def proj_inv(field: Field, x):
    """Reciprocal on F_q ∪ {inf}: 1/0 = inf, 1/inf = 0."""
    if x is INF:
        return 0
    if x == 0:
        return INF
    return field.inv(x)


def format_element(x) -> str:
    return "inf" if x is INF else str(x)


def parse_element(field: Field, token: str, allow_inf: bool = False):
    if token == "inf":
        if not allow_inf:
            raise ValueError("inf is not legal here")
        return INF
    return field.check(_parse_decimal(token))


def _parse_decimal(token: str) -> int:
    """A canonical ASCII decimal: 0 or a nonzero digit followed by digits.

    int() alone would also take signs, underscores, surrounding blanks,
    leading zeros and non-ASCII digits.
    """
    if not (token.isascii() and token.isdigit()) or (token[0] == "0" and token != "0"):
        raise ValueError(f"bad decimal token {token!r}")
    return int(token)
