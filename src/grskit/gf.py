"""Exact arithmetic in GF(p^s) and in the projective domain F_q ∪ {inf}.

Field elements are plain integers in [0, q-1].  The base-p digits of an
encoding are the coefficients of the representing polynomial in the
residue class of x, constant term least significant.  An encoding is
meaningful only relative to one Field instance; all arithmetic goes
through the Field's methods.  No public operation (add, sub, neg, mul,
inv, pow and the row operation axpy) calls another; each calls only
private kernels, so a subclass that overrides them (an operation
counter, say) counts exactly one per public scalar call, inv and pow
included, on every field, and 2 per nonzero entry of y for axpy(x, f, y),
the sub and mul per entry that it replaces.

axpy(x, f, y) is the row update x - f*y of matmul, of the column and
weight walks (Lin–Costello ch. 2) and of elimination on list rows: one
call per row, with the per-field set-up (log f, log(-f)) done once per
row rather than once per entry.  Elimination takes its rows from the
private _rows: on a prime field each row is one int of 64-bit slots and
an update one big-integer multiply-add, x + (p - f)*y; extension fields,
primes too large to pack and subclasses that override axpy keep list
rows and axpy, so an operation counter still sees every update.

Every field with q up to _TABLE_CAP, prime or extension, builds
log/antilog tables of its primitive element once, when it is
constructed, and inverts and raises to powers by a single lookup; above
the cap inv and pow square-and-multiply over the multiplication kernel.
Extension fields under the cap also multiply by lookup, and odd ones add,
subtract and negate through Zech logarithms; above it they multiply
polynomials modulo the modulus and odd ones add digit by digit in base p.
Prime fields multiply, add, subtract and negate modulo p at every size:
on GF(257) a modular mul takes about 70 ns against 85 ns by lookup, and a
Zech add about twice a modular one.  Characteristic 2 adds by XOR at
every size.

The factories field_new and field_from_order intern their fields: one
Field object per (p, s, modulus) and process, built on first use, so
per-field work is paid once however many files name the field.  Calling
Field(...) directly builds a fresh instance every time.

Element tokens in files are canonical ASCII decimals (0 or no leading
zero), or "inf" where the point at infinity is legal.

The point at infinity is the module-level singleton INF, used for the
evaluation-point domain of extended codes; str(INF) is its token.  The
conventions are 1/0 = inf, 1/inf = 0 and inf + a = inf.
"""

from __future__ import annotations

import operator
import sys
from array import array


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "inf"


#: The unique point at infinity.  Compare with ``x is INF``.
INF = _Infinity()


_FACTOR_CAP = 1 << 20


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n; trial divisors stop at _FACTOR_CAP."""
    out = []
    d = 2
    while d * d <= n:
        if d > _FACTOR_CAP:
            raise ValueError(f"factoring budget exceeded: {n} has no prime factor "
                             f"up to 2^20 and is at least 2^40")
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
            cand = _poly_from_enc(low, p, d) + (1,)
            if not _poly_mod(m, cand, p):
                return False
    return True


# fields up to this order build log/antilog tables when they are
# constructed; the slowest to build, GF(3^8), takes about 0.08 s on an
# x86-64 Xeon under CPython 3.11, the largest prime one, GF(8191), about
# 0.004 s, and every other one at most 0.04 s
_TABLE_CAP = 1 << 13


class Field:
    """A concrete finite field GF(p^s) with a fixed modulus and primitive element.

    Construction is fully deterministic: when no modulus is supplied, the
    monic irreducible of degree s with the smallest integer encoding is
    chosen, and the primitive element is the smallest nonzero encoding of
    multiplicative order q-1.  A given modulus c0, ..., cs must be monic
    and irreducible, each coefficient an int in 0..p-1: none is reduced
    mod p.

    A field with q <= _TABLE_CAP also builds, once, the tables behind its
    arithmetic: _exp[i] = w^i for 0 <= i <= 2q-3 (two periods, so a sum of
    two logs indexes it unreduced) and _log, the inverse of _exp on the
    nonzero elements.  An odd extension (s > 1, p odd) also builds
    _zech[d] = log(1 + w^d), or -1 at d = (q-1)/2 where 1 + w^d = 0, also
    two periods long, so that any difference of two logs indexes it.
    Prime fields use the tables only for inv, pow and
    powers_of_primitive: their modular mul and add are faster.
    """

    __slots__ = ("p", "s", "q", "modulus", "primitive", "_mod_int",
                 "_exp", "_log", "_zech")

    def __init__(self, p: int, s: int = 1, modulus=None):
        if _prime_factors(p) != [p]:
            raise ValueError(f"p={p} is not prime")
        if s < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.s = s
        self.q = p ** s
        if modulus is None:
            modulus = self._find_modulus()
        else:
            modulus = tuple(modulus)
            if not all(isinstance(c, int) and 0 <= c < p for c in modulus):
                raise ValueError(f"modulus coefficients must be integers in 0..{p - 1}")
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree s")
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible over GF(p)")
        self.modulus = modulus
        # integer form of the modulus, used for the p=2 fast path
        self._mod_int = _poly_to_enc(modulus, p) if p == 2 else 0
        self.primitive = self._find_primitive()
        self._exp = self._log = self._zech = None
        if self.q <= _TABLE_CAP:
            self._build_tables()

    def _find_modulus(self):
        p, s = self.p, self.s
        for low in range(p ** s):
            cand = _poly_from_enc(low, p, s) + (1,)
            if _is_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _find_primitive(self):
        target = self.q - 1
        factors = _prime_factors(target)
        for a in range(1, self.q):
            if all(self._pow(a, target // r) != 1 for r in factors) or target == 1:
                return a
        raise AssertionError("no primitive element found")  # unreachable

    def _build_tables(self):
        p, w, mul = self.p, self.primitive, self._mul
        exp = [1]
        for _ in range((self.q - 1 if p == 2 else self.q >> 1) - 1):
            exp.append(mul(exp[-1], w))
        if p != 2:
            # w^((q-1)/2) = -1, so the second half period negates the first
            exp += [self._add_digits(0, x, -1) for x in exp]
        log = [None] * self.q
        for i, x in enumerate(exp):
            log[x] = i
        if p != 2 and self.s > 1:
            # 1 + x differs from x only in the constant digit
            zech = [log[y] if (y := x - x % p + (x + 1) % p) else -1 for x in exp]
            self._zech = zech + zech
        self._exp = exp + exp
        self._log = log

    # -- kernels: the public operations below call these, never each other --

    def _mul(self, a, b):
        """a*b modulo p in a prime field, else by polynomial multiplication
        modulo the modulus (shift and XOR in characteristic 2): it builds
        _exp, and it multiplies in extension fields above the cap."""
        p = self.p
        if self.s == 1:
            return (a * b) % p
        if p == 2:
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
        da = _poly_from_enc(a, p, self.s)
        db = _poly_from_enc(b, p, self.s)
        return _poly_to_enc(_poly_mod(_poly_mul(da, db, p), self.modulus, p), p)

    def _pow(self, a, e):
        """a**e for 0 <= e, square-and-multiply over _mul (built-in pow in a
        prime field): it finds the primitive element, and it inverts and
        raises to powers in fields above the cap."""
        if self.s == 1:
            return pow(a, e, self.p)
        r = 1
        while e:
            if e & 1:
                r = self._mul(r, a)
            a = self._mul(a, a)
            e >>= 1
        return r

    def _add_digits(self, a, b, sign):
        """a + sign*b digit by digit in base p: odd-extension add, sub and
        neg above the cap."""
        p = self.p
        r = 0
        place = 1
        while a or b:
            r += (a % p + sign * (b % p)) % p * place
            a //= p
            b //= p
            place *= p
        return r

    # -- arithmetic --

    def add(self, a, b):
        if self.s == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        zech = self._zech
        if zech is None:
            return self._add_digits(a, b, 1)
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def sub(self, a, b):
        if self.s == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        zech = self._zech
        if zech is None:
            return self._add_digits(a, b, -1)
        if not b:
            return a
        log = self._log
        # -b = w^(log b + (q-1)/2), and q >> 1 = (q-1)/2 for odd q
        lb = log[b] + (self.q >> 1)
        if not a:
            return self._exp[lb]
        la = log[a]
        z = zech[lb - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a):
        if self.s == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        if self._zech is None:
            return self._add_digits(0, a, -1)
        return self._exp[self._log[a] + (self.q >> 1)]

    def mul(self, a, b):
        if self.s == 1:  # faster than the lookup; see the module docstring
            return (a * b) % self.p
        exp = self._exp
        if exp is None:
            return self._mul(a, b)
        if a and b:
            log = self._log
            return exp[log[a] + log[b]]
        return 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is None:
            return self._pow(a, self.q - 2)
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a, e):
        """a**e; negative e requires a != 0.  pow(0, 0) = 1."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        e %= self.q - 1
        if self._exp is None:
            return self._pow(a, e)
        return self._exp[self._log[a] * e % (self.q - 1)]

    # -- row operation --

    def axpy(self, x, f, y):
        """The row x - f*y as a new list, for rows x and y of equal length
        and f != 0; an entry where y is 0 keeps x's entry.  It stands for
        one sub and one mul per nonzero entry of y, and is counted so."""
        if self.s == 1:
            p = self.p
            return [(a - f * b) % p for a, b in zip(x, y)]
        exp = self._exp
        if exp is None:
            mul = self._mul
            if self.p == 2:
                return [a ^ mul(f, b) if b else a for a, b in zip(x, y)]
            sub = self._add_digits
            return [sub(a, mul(f, b), -1) if b else a for a, b in zip(x, y)]
        log = self._log
        if self.p == 2:
            lf = log[f]
            return [a ^ exp[lf + log[b]] if b else a for a, b in zip(x, y)]
        # -f*b = w^(ln + log b) with ln = log(-f), and a - f*b =
        # w^la·(1 + w^(ln + log b - la)); that difference lies in
        # -(q-2)..2(q-2), and a negative index reads the same two-period
        # _zech from its end, which is congruent mod q-1
        zech = self._zech
        ln = (log[f] + (self.q >> 1)) % (self.q - 1)
        out = []
        for a, b in zip(x, y):
            if not b:
                out.append(a)
            elif not a:
                out.append(exp[ln + log[b]])
            else:
                la = log[a]
                z = zech[ln + log[b] - la]
                out.append(exp[la + z] if z >= 0 else 0)
        return out

    # -- elimination rows --

    def _rows(self, k, n):
        """The row primitives of an elimination of k rows of n entries, a
        tuple (encode, entry, pivot, update, decode): encode(row) is a row
        of entries in working form, decode(x) its entries again, entry(x, c)
        its entry c, pivot(x, inv) the row times inv, reduced (inv = 1 only
        reduces), and update(x, f, y) the row x - f*y, for f = entry(x, c)
        != 0 and a pivot row y.

        A prime field holds a row as one int with entry c in bits 64c to
        64c + 63 (an array("Q") read in native byte order), each slot a
        non-negative value congruent to the entry, so an update is one
        big-integer multiply-add, x + (p - f)*y, run in C.  Only pivot,
        decode and entry reduce mod p.  Between two reductions a row takes
        at most k updates of at most (p - 1)^2 a slot, so packing is exact
        while (p - 1) + k(p - 1)^2 < 2^64: every prime up to the table cap
        at any feasible k.  Extension fields, primes past that bound and
        subclasses that override axpy (CountingField, whose counts are
        pinned) keep list rows updated by axpy.
        """
        p = self.p
        if (self.s > 1 or type(self).axpy is not Field.axpy
                or (p - 1) + k * (p - 1) ** 2 >= 1 << 64):
            mul = self.mul

            def scale(row, inv):
                return row if inv == 1 else [mul(inv, x) if x else 0 for x in row]
            return list, operator.getitem, scale, self.axpy, tuple

        order, size = sys.byteorder, 8 * n

        def encode(row):
            return int.from_bytes(array("Q", row), order)

        def entry(x, c):
            return ((x >> (c << 6)) & 0xFFFFFFFFFFFFFFFF) % p

        def pivot(x, inv):
            return encode([e * inv % p for e in array("Q", x.to_bytes(size, order))])

        def update(x, f, y):
            return x + (p - f) * y

        def decode(x):
            return [e % p for e in array("Q", x.to_bytes(size, order))]
        return encode, entry, pivot, update, decode

    # -- element utilities --

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    def powers_of_primitive(self):
        """All q-1 nonzero elements, ordered by discrete logarithm, as a new
        list; it performs no public field operation."""
        if self._exp is not None:
            return self._exp[:self.q - 1]
        w = self.primitive
        out = [1]
        for _ in range(self.q - 2):
            out.append(self._mul(out[-1], w))
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


# interned fields, keyed by (p, s, modulus) and by (p, s, None) for the
# default modulus; only fields that constructed without error are kept
_FIELDS: dict = {}


def field_new(p: int, s: int = 1, modulus=None) -> Field:
    """The interned GF(p^s) under modulus (a sequence of coefficients, or
    None for the default one); see Field.

    Every call with the same p, s and modulus, given as a list or a tuple,
    returns the same object, and the default modulus spelt out returns the
    object built without one.  So a field is built (its irreducibility
    check and primitive-element search) once per process.  An invalid
    modulus is not cached and raises on every call, and arguments that
    are not all plain ints (a float or bool p, s or coefficient) are
    passed to a fresh Field(...), which checks them as usual.  Field(...)
    itself always builds a fresh instance.
    """
    if modulus is not None:
        modulus = tuple(modulus)
    # only a key of plain ints is interned: 2.0 or True equals an int as a
    # dict key but not as an argument, so such a call builds afresh and
    # Field checks it the same whatever was built before
    if not all(type(x) is int for x in (p, s, *(modulus or ()))):
        return Field(p, s, modulus)
    key = (p, s, modulus)
    F = _FIELDS.get(key)
    if F is None:
        F = Field(p, s, modulus)
        F = _FIELDS.setdefault((p, s, F.modulus), F)
        _FIELDS[key] = F
    return F


def field_from_order(q: int) -> Field:
    """The interned GF(q) of a prime power q under the default modulus,
    the object field_new(p, s) returns.  Trial division stops at 2^20, so
    a prime p > 2^20 is accepted only as q = p < 2^40, and a larger q
    without a factor up to 2^20 raises ValueError."""
    factors = _prime_factors(operator.index(q))
    if len(factors) != 1:
        raise ValueError(f"q={q} is not a prime power")
    p, s, m = factors[0], 0, q
    while m > 1:
        m //= p
        s += 1
    return field_new(p, s)


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


def _parse_modulus(text: str) -> tuple:
    """Modulus coefficients c0,c1,...,cs as comma-separated canonical
    decimals; Field checks that each is below p."""
    return tuple(_parse_decimal(c) for c in text.split(","))
