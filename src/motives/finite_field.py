"""Exact arithmetic in F_p and F_{p^n}.

Extension fields are built as F_p[x]/(f) for a monic irreducible f of
degree n.  Elements are length-n coefficient vectors (constant term
first), every coefficient reduced into [0, p).  The modulus is chosen
deterministically: the lexicographically smallest monic irreducible
polynomial of the requested degree, comparing coefficient vectors from
the constant term upward.  Two runs on any platform therefore agree on
every element and every enumeration order.

Plain polynomials over F_p are passed around as Python tuples of ints,
constant term first, with no trailing zeros (the zero polynomial is the
empty tuple).  Element powers, inverses (Fermat's a^(q-2)) and Ben-Or's
Frobenius powers share one square-and-multiply, poly_powmod.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

#: Full enumeration of F_q (and q x q solution grids downstream) is only
#: sensible at desk scale; reject anything bigger outright.
MAX_FIELD_SIZE = 2 ** 26

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for m < 3.3e24 (far above our range)."""
    if m < 2:
        return False
    for sp in _MR_WITNESSES:
        if m == sp:
            return True
        if m % sp == 0:
            return False
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending (trial division; m is small)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def mobius(m: int) -> int:
    """Moebius function: (-1)^(number of primes) if m is squarefree, else 0."""
    if m < 1:
        raise ValueError("m must be >= 1")
    primes = prime_factors(m)
    return (-1) ** len(primes) if math.prod(primes) == m else 0


def _iroot(m: int, n: int) -> int:
    """floor(m^(1/n)) for m >= 1, by Newton's method in integers."""
    r = 1 << -(-m.bit_length() // n)
    while (s := ((n - 1) * r + m // r ** (n - 1)) // n) < r:
        r = s
    return r


def prime_root(q: int) -> tuple[int, int] | None:
    """(p, n) with p prime and p^n = q, from q's integer n-th roots; None
    if q is not a prime power."""
    if q < 2:
        return None
    for n in range(1, q.bit_length()):
        p = _iroot(q, n)
        if p ** n == q and is_prime(p):
            return p, n
    return None


# ----------------------------------------------------------------------
# dense polynomial arithmetic over F_p (tuples, constant term first)

def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_divmod(a, b, p):
    """Quotient and remainder of a by b over F_p; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("zero divisor")
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f = c * inv_lb % p
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return _trim(q), _trim(a)


def poly_mod(a, b, p):
    return poly_divmod(a, b, p)[1]


def poly_gcd(a, b, p):
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def poly_powmod(a, e: int, mod, p):
    """a^e mod `mod` over F_p, square and multiply."""
    result = (1,)
    a = poly_mod(a, mod, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, a, p), mod, p)
        a = poly_mod(poly_mul(a, a, p), mod, p)
        e >>= 1
    return result


def is_irreducible(f, p: int) -> bool:
    """Ben-Or's test for a monic f of degree n >= 1 over F_p.

    f is irreducible iff gcd(x^(p^i) - x, f) = 1 for i = 1..n/2: a
    reducible f has an irreducible factor of some degree i <= n/2, which
    divides x^(p^i) - x.  The powers x^(p^i) are computed by iterating
    y -> y^p mod f, which keeps every exponent at most p; i = 1 is the
    test for a root in F_p.
    """
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    x = y = (0, 1)
    for _ in range(n // 2):
        y = poly_powmod(y, p, f, p)
        if poly_gcd(poly_sub(y, x, p), f, p) != (1,):
            return False
    return True


# ----------------------------------------------------------------------
# immutable records

class Record:
    """Base of the package's immutable records.  A subclass names its
    fields in __slots__, and its __init__ checks its arguments and passes
    every field's value, in slot order, to Record.__init__.  Records
    compare and hash by their class and field values, refuse assignment,
    and pickle by value without running __init__ again."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self):
        return self._values()

    def __setstate__(self, values):
        Record.__init__(self, *values)


# ----------------------------------------------------------------------
# field and element types

class FieldSpec(Record):
    """A concrete F_{p^n}: prime p, degree n, monic irreducible modulus."""

    __slots__ = ("p", "n", "modulus")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        # modulus: length n+1, constant term first, leading 1
        super().__init__(p, n, modulus)

    @property
    def q(self) -> int:
        return self.p ** self.n

    def zero(self) -> "FFElement":
        return FFElement(self, (0,) * self.n)

    def one(self) -> "FFElement":
        return FFElement(self, (1,) + (0,) * (self.n - 1))

    def element(self, coeffs) -> "FFElement":
        """Element from any int sequence of length <= n (reduced mod p)."""
        c = [int(v) % self.p for v in coeffs]
        if len(c) > self.n:
            c = list(poly_mod(_trim(c), self.modulus, self.p))
        c += [0] * (self.n - len(c))
        return FFElement(self, tuple(c[: self.n]))

    def from_index(self, k: int) -> "FFElement":
        """Element number k in enumeration order: base-p digits of k."""
        digits = []
        for _ in range(self.n):
            k, d = divmod(k, self.p)
            digits.append(d)
        return FFElement(self, tuple(digits))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, n={self.n})"


class FFElement(Record):
    """Element of a FieldSpec: immutable coefficient vector in [0, p)^n."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        if len(coeffs) != field.n:
            raise ValueError("coefficient vector has wrong length")
        super().__init__(field, coeffs)

    def _check(self, other: "FFElement"):
        if not isinstance(other, FFElement):
            raise TypeError("FFElement expected")
        if other.field != self.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FFElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        prod = poly_mul(_trim(list(self.coeffs)), _trim(list(other.coeffs)), f.p)
        return f.element(poly_mod(prod, f.modulus, f.p))

    def inverse(self) -> "FFElement":
        """Multiplicative inverse by Fermat: a^(q-2), since a^(q-1) = 1."""
        if self.is_zero():
            raise ZeroDivisionError("zero divisor")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        f = self.field
        return f.element(poly_powmod(_trim(list(self.coeffs)), e, f.modulus, f.p))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def index(self) -> int:
        """Position in enumeration order (base-p value of the vector)."""
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k


@functools.lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldSpec:
    """Construct F_{p^n} with the deterministic smallest modulus.

    Monic degree-n candidates are scanned in lexicographic order of
    (c_0, c_1, ..., c_{n-1}) and the first irreducible one wins, so equal
    (p, n) always yield byte-identical fields.  The scan starts at the
    first candidate with c_0 != 0 (x divides the others); the result is
    cached, FieldSpec being immutable.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError("not prime")
    if not isinstance(n, int) or n < 1:
        raise ValueError("degree must be >= 1")
    if p ** n > MAX_FIELD_SIZE:
        raise ValueError("field too large")
    if n == 1:
        return FieldSpec(p, 1, (0, 1))
    # c_0 is the most significant digit of k, so ascending k scans
    # (c_0, ..., c_{n-1}) in lexicographic order from c_0 = 1 on
    for k in range(p ** (n - 1), p ** n):
        f = tuple(k // p ** i % p for i in range(n - 1, -1, -1)) + (1,)
        if is_irreducible(f, p):
            return FieldSpec(p, n, f)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def enumerate_elements(field: FieldSpec) -> Iterator[FFElement]:
    """All q elements in the fixed order k = 0..q-1 (base-p digit vectors)."""
    for k in range(field.q):
        yield field.from_index(k)


def arith(a: FFElement, b, op: str) -> FFElement:
    """Single dispatch surface: op in {add, sub, mul, div, pow}.

    For pow, b is a nonnegative integer exponent instead of an element.
    """
    if op == "pow":
        return a ** b
    if not isinstance(b, FFElement):
        raise TypeError("FFElement expected")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def multiplicative_generator(field: FieldSpec) -> FFElement:
    """Smallest (in enumeration order) generator of the cyclic group F_q^*.
    Elements 1..p-1 are F_p's, of order dividing p - 1, so for n >= 2 the
    search starts at element p, which is x."""
    q1 = field.q - 1
    checks = [q1 // r for r in prime_factors(q1)] if q1 > 1 else []
    for k in range(field.p if field.n > 1 else 1, field.q):
        g = field.from_index(k)
        if all((g ** c) != field.one() for c in checks):
            return g
    raise RuntimeError("no generator found")  # unreachable for a field
