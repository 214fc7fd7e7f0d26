import hashlib
import inspect
import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from motives.explicit_formula import PrimeCounter, ZeroTable
from motives.finite_field import (
    MAX_FIELD_SIZE,
    FFElement,
    FieldSpec,
    arith,
    enumerate_elements,
    is_irreducible,
    is_prime,
    make_field,
    mobius,
    multiplicative_generator,
    poly_mul,
    prime_root,
)
from motives.motive import Motive
from motives.variety import CountSequence, PolySystem
from motives.weil import WeilNumbers
from motives.zeta import PowerSeries, RationalZeta


def brute_monic_irreducibles(p, n):
    """Oracle: all monic degree-n polynomials with no root in F_p, by trial.

    For n in {2, 3} rootlessness is equivalent to irreducibility, which is
    all the oracle needs here.
    """
    assert n in (2, 3)
    out = []
    for k in range(p ** n):
        coeffs = []
        t = k
        for i in range(n - 1, -1, -1):
            coeffs.append(t // p ** i)
            t %= p ** i
        f = coeffs + [1]
        if all(sum(c * pow(x, i, p) for i, c in enumerate(f)) % p for x in range(p)):
            out.append(tuple(f))
    return out


def first_irreducible(p, n):
    """Oracle: the first monic degree-n candidate, scanning every
    (c_0, ..., c_{n-1}) lexicographically, that is_irreducible accepts."""
    for k in range(p ** n):
        f = tuple(k // p ** i % p for i in range(n - 1, -1, -1)) + (1,)
        if is_irreducible(f, p):
            return f


def test_make_field_degree_one_modulus_is_x():
    f = make_field(2, 1)
    assert f.modulus == (0, 1)
    assert f.q == 2


def test_make_field_smallest_modulus_matches_root_check_oracle():
    # oracle scans (c_0, c_1, ...) lexicographically, same as the contract
    assert make_field(2, 2).modulus == brute_monic_irreducibles(2, 2)[0] == (1, 1, 1)
    assert make_field(3, 2).modulus == brute_monic_irreducibles(3, 2)[0] == (1, 0, 1)
    assert make_field(2, 3).modulus == brute_monic_irreducibles(2, 3)[0]
    assert make_field(5, 3).modulus == brute_monic_irreducibles(5, 3)[0]
    # beyond degree 3 a rootless polynomial can factor; the scan must still
    # land on the first irreducible candidate
    higher = [(2, n) for n in range(4, 13)] + [(3, n) for n in range(4, 7)] + [(5, 4)]
    for p, n in higher:
        assert make_field(p, n).modulus == first_irreducible(p, n), (p, n)


def test_make_field_deterministic():
    assert make_field(2, 8) == make_field(2, 8)
    assert make_field(13, 2) == make_field(13, 2)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError, match="not prime"):
        make_field(6, 2)
    with pytest.raises(ValueError, match="not prime"):
        make_field(1, 1)
    with pytest.raises(ValueError, match="field too large"):
        make_field(2, 27)
    with pytest.raises(ValueError, match="field too large"):
        make_field(257, 4)


def test_is_prime_against_trial_division():
    def trial(m):
        if m < 2:
            return False
        return all(m % d for d in range(2, int(m ** 0.5) + 1))

    for m in range(500):
        assert is_prime(m) == trial(m), m
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)


def test_mobius_against_its_sieve():
    # mu is multiplicative: -1 at each prime, 0 at each prime square
    n = 3000
    mu = [1] * (n + 1)
    for d in range(2, n + 1):
        if is_prime(d):
            mu[d::d] = [-m for m in mu[d::d]]
            mu[d * d::d * d] = [0] * len(mu[d * d::d * d])
    assert [mobius(m) for m in range(1, n + 1)] == mu[1:]


def test_prime_root_decomposes_prime_powers_only():
    assert [prime_root(q) for q in (2, 4, 8191, 3 ** 16, 2 ** 31, 10007 ** 5)] == [
        (2, 1), (2, 2), (8191, 1), (3, 16), (2, 31), (10007, 5)]
    assert [prime_root(q) for q in (-8, 0, 1, 6, 12, 100, 2 ** 31 - 2)] == [None] * 7


def test_is_irreducible_agrees_with_factor_search():
    # degree-4 over F_2: irreducible iff no root and not a product of the
    # (single) irreducible quadratic with itself
    p = 2
    quad = (1, 1, 1)
    sq = poly_mul(quad, quad, p)
    for k in range(16):
        f = tuple((k >> i) & 1 for i in range(4)) + (1,)
        has_root = any(sum(c * x ** i for i, c in enumerate(f)) % p == 0 for x in (0, 1))
        expected = not has_root and f != sq
        assert is_irreducible(f, p) == expected, f


def test_is_irreducible_counts_match_gauss():
    # Gauss: there are (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles
    # of degree n over F_p
    for p in filter(is_prime, range(2, 2 ** 12 + 1)):
        n = 1
        while p ** n <= 2 ** 12:
            gauss = sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
            accepted = sum(is_irreducible((*low, 1), p)
                           for low in itertools.product(range(p), repeat=n))
            assert accepted == gauss, (p, n)
            n += 1


def test_is_irreducible_refuses_a_non_monic_or_constant_modulus():
    for f in [(1,), (), (1, 2), (0, 0, 2)]:
        with pytest.raises(ValueError, match="monic of degree >= 1"):
            is_irreducible(f, 3)


def test_every_extension_field_modulus_is_pinned():
    # every (p, n) with n >= 2 that make_field builds, primes ascending and
    # n ascending within each: a changed modulus would change every table
    # and enumeration order built on that field
    digest = hashlib.sha256()
    fields = 0
    for p in filter(is_prime, range(2, 2 ** 13 + 1)):
        n = 2
        while p ** n <= MAX_FIELD_SIZE:
            digest.update(repr((p, n, make_field(p, n).modulus)).encode())
            fields, n = fields + 1, n + 1
    assert fields == 1190
    assert digest.hexdigest() == (
        "c375ebd3d4760c897f612a865e6f9596b927f4c019b84cfe25cffefc23cc834a")


def test_char2_addition():
    f2 = make_field(2, 1)
    one = f2.one()
    assert (one + one).is_zero()


def test_f4_multiplication_reduces_modulo_x2_x_1():
    # x * (x + 1) = x^2 + x = 1 modulo x^2 + x + 1 (reduced by hand)
    f4 = make_field(2, 2)
    x = f4.element((0, 1))
    assert x * (x + f4.one()) == f4.one()


def test_inverse_axiom_everywhere_small():
    for p, n in [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1)]:
        f = make_field(p, n)
        for a in enumerate_elements(f):
            if not a.is_zero():
                assert a * a.inverse() == f.one()


def test_arith_dispatch_and_errors():
    f4 = make_field(2, 2)
    f2 = make_field(2, 1)
    x = f4.element((0, 1))
    assert arith(x, x, "add").is_zero()
    assert arith(x, f4.one(), "sub") == x - f4.one()
    assert arith(x, x, "mul") == x * x
    assert arith(x, x, "div") == f4.one()
    assert arith(x, 3, "pow") == x * x * x
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        arith(x, f4.zero(), "div")
    with pytest.raises(ValueError, match="field mismatch"):
        arith(x, f2.one(), "add")
    with pytest.raises(ValueError):
        arith(x, -1, "pow")
    with pytest.raises(ValueError, match="unknown op"):
        arith(x, x, "xor")


def test_enumeration_order_and_cardinality():
    f2 = make_field(2, 1)
    assert [e.coeffs for e in enumerate_elements(f2)] == [(0,), (1,)]

    f4 = make_field(2, 2)
    els = list(enumerate_elements(f4))
    assert len(els) == len(set(els)) == 4
    assert [e.index() for e in els] == [0, 1, 2, 3]

    f8 = make_field(2, 3)
    els = list(enumerate_elements(f8))
    assert len(els) == len(set(els)) == 8
    for e in els:
        if not e.is_zero():
            assert e ** 7 == f8.one()


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (5, 2), (2, 6)])
def test_fermat_lagrange_exhaustive(p, n):
    f = make_field(p, n)
    q = f.q
    for a in enumerate_elements(f):
        assert a ** q == a
        if not a.is_zero():
            assert a ** (q - 1) == f.one()


def test_field_axioms_random_samples():
    rng = random.Random(20240601)
    for p, n in [(2, 5), (3, 3), (7, 2), (11, 1)]:
        f = make_field(p, n)
        sample = [f.from_index(rng.randrange(f.q)) for _ in range(30)]
        for i in range(0, 30, 3):
            a, b, c = sample[i], sample[i + 1], sample[i + 2]
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + f.zero() == a
            assert a * f.one() == a
            assert (a + (-a)).is_zero()


def test_closure_of_coefficients():
    rng = random.Random(7)
    f = make_field(3, 3)
    for _ in range(50):
        a = f.from_index(rng.randrange(f.q))
        b = f.from_index(rng.randrange(f.q))
        for op in ("add", "sub", "mul"):
            r = arith(a, b, op)
            assert len(r.coeffs) == f.n
            assert all(0 <= c < f.p for c in r.coeffs)


@pytest.mark.parametrize("p,n", [(2, 2), (7, 1), (2, 3), (3, 2), (5, 2)])
def test_power_is_the_repeated_product(p, n):
    f = make_field(p, n)
    for a in enumerate_elements(f):
        product = f.one()
        for e in range(f.q + 2):
            assert a ** e == product, (a, e)
            product = product * a
        with pytest.raises(ValueError, match="nonnegative"):
            a ** -1


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (101, 1)])
def test_inverse_is_the_brute_force_inverse(p, n):
    f = make_field(p, n)
    nonzero = list(enumerate_elements(f))[1:]
    for a in nonzero:
        assert [b for b in nonzero if a * b == f.one()] == [a.inverse()], a
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        f.zero().inverse()


def brute_order(a):
    """Oracle: the multiplicative order of a nonzero a, by repeated products."""
    x, k = a, 1
    while x != a.field.one():
        x, k = x * a, k + 1
    return k


def test_multiplicative_generator_is_the_first_element_of_full_order():
    fields = [(p, n) for p in range(2, 32) if is_prime(p)
              for n in range(1, 11) if p ** n <= 2 ** 10]
    for p, n in fields:
        f = make_field(p, n)
        first = next(a for a in list(enumerate_elements(f))[1:] if brute_order(a) == f.q - 1)
        assert multiplicative_generator(f) == first, (p, n)


def test_multiplicative_generator_orders():
    for p, n in [(2, 4), (3, 2), (7, 1)]:
        f = make_field(p, n)
        g = multiplicative_generator(f)
        seen = set()
        x = f.one()
        for _ in range(f.q - 1):
            seen.add(x)
            x = x * g
        assert len(seen) == f.q - 1
        assert x == f.one()


def test_elements_are_immutable_and_hashable():
    f = make_field(2, 2)
    x = f.element((0, 1))
    with pytest.raises(AttributeError):
        x.coeffs = (1, 1)
    assert x in {f.element((0, 1))}



FLAGS = np.array([False, False, True, True])
# each record type, keyword arguments for one value and for another, and the
# defaults of the parameters the first leaves out
RECORDS = [
    (FieldSpec, dict(p=2, n=2, modulus=(1, 1, 1)), dict(p=3, n=2, modulus=(1, 1, 1)), {}),
    (FFElement, dict(field=make_field(3, 2), coeffs=(1, 2)),
     dict(field=make_field(3, 2), coeffs=(2, 1)), {}),
    (PolySystem, dict(num_vars=2, polys=((((0, 2), 1), ((3, 0), -1)),)),
     dict(num_vars=2, polys=()), {}),
    (CountSequence, dict(p=2, counts=(5, 5)), dict(p=2, counts=(5, 5), projective_flag=True),
     {"projective_flag": False}),
    (WeilNumbers, dict(p=2, coeffs=(1, 2, 2)), dict(p=2, coeffs=(1, -2, 2)), {}),
    (Motive, dict(base_q=4, pieces=((2, (1, -4)),)), dict(base_q=2, pieces=((2, (1, -2)),)), {}),
    (PowerSeries, dict(coeffs=(Fraction(1), Fraction(5, 2))), dict(coeffs=(Fraction(1),)), {}),
    (RationalZeta, dict(numerator=(1, 2, 2), denominator=(1, -3, 2), base_q=2),
     dict(numerator=(1, -2, 2), denominator=(1, -3, 2), base_q=2), {}),
    (PrimeCounter, dict(limit=3, is_prime=FLAGS, pi_table=np.cumsum(FLAGS)),
     dict(limit=2, is_prime=FLAGS[:3], pi_table=np.cumsum(FLAGS[:3])), {}),
    (ZeroTable, dict(ordinates=(14.134725, 21.02204)), dict(ordinates=(14.134725,)), {}),
]


@pytest.mark.parametrize("cls, kwargs, other_kwargs, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, kwargs, other_kwargs, defaults):
    record = cls(**kwargs)
    assert record == cls(*kwargs.values()) and not record != cls(**kwargs)
    assert record != cls(**other_kwargs)
    assert record != tuple(kwargs.values())
    params = inspect.signature(cls).parameters
    assert list(params) == [*kwargs, *defaults]
    assert {k: p.default for k, p in params.items() if p.default is not p.empty} == defaults
    assert all(getattr(record, k) == v for k, v in defaults.items())
    with pytest.raises(AttributeError):
        setattr(record, next(iter(kwargs)), None)
    with pytest.raises(AttributeError):
        record.unlisted = None
    if cls is PrimeCounter:  # its arrays are unhashable, and unequal once copied
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(cls(**kwargs))
    assert record in {cls(**kwargs)}
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and repr(copy) == repr(record)
