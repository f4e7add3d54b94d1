"""Finite field construction, factoring, and multiplicative orders."""

from __future__ import annotations

import random
from itertools import product

import pytest

from semiorbits import (
    CompositeModulus,
    DegreeOutOfRange,
    FieldContext,
    OutOfRange,
    TooLarge,
    ZeroElement,
    euler_phi,
    factorize,
    is_prime,
    make_extension_field,
    make_prime_field,
    mul_order,
    omega_distinct_primes,
    small_order_set,
)
from oracles import (
    all_orders_prime_field,
    irreducible_by_trial_division,
    order_by_powering,
)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    # Carmichael numbers fool Fermat tests; Miller-Rabin with fixed bases
    # must reject them
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 75361, 512461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(170141183460469231731687303715884105727)  # 2^127 - 1


def test_factorize_roundtrip_seeded():
    rng = random.Random(20240811)
    for _ in range(200):
        n = rng.randint(2, 10**12)
        fact = factorize(n)
        prod = 1
        for p, e in fact.pairs:
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert list(fact.pairs) == sorted(fact.pairs)


def test_factorize_known_values():
    assert factorize(1).pairs == ()
    assert factorize(2**10).pairs == ((2, 10),)
    assert factorize(600851475143).pairs == ((71, 1), (839, 1), (1471, 1), (6857, 1))
    # a semiprime of two close 31-bit primes exercises the rho stage
    p, q = 2147483647, 2147483629
    assert factorize(p * q).pairs == ((q, 1), (p, 1))
    with pytest.raises(OutOfRange):
        factorize(0)
    with pytest.raises(OutOfRange):
        factorize(1 << 96)


def test_euler_phi_and_omega():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert omega_distinct_primes(360) == 3
    assert omega_distinct_primes(1) == 0


def test_prime_field_construction():
    ctx = make_prime_field(7)
    assert (ctx.p, ctx.s, ctx.q) == (7, 1, 7)
    with pytest.raises(CompositeModulus):
        make_prime_field(9)


def test_extension_field_modulus_is_first_in_index_order():
    # searched by base-p digit index, so the modulus choice is reproducible
    assert make_extension_field(2, 2).modulus == (1, 1, 1)
    assert make_extension_field(3, 2).modulus == (1, 0, 1)
    assert make_extension_field(2, 3).modulus == (1, 1, 0, 1)


# the modulus make_extension_field picks, constant term first (frozen values)
FROZEN_MODULI = {
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 13): (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 16): (1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 16): (2,) + (0,) * 15 + (1,),
    (7, 16): (3, 2) + (0,) * 14 + (1,),
    (11, 13): (4, 2) + (0,) * 11 + (1,),
    (31, 9): (3,) + (0,) * 8 + (1,),
    (257, 5): (4, 1, 0, 0, 0, 1),
    (1021, 3): (5, 0, 0, 1),
    (4093, 4): (2, 0, 0, 0, 1),
    (65521, 2): (17, 0, 1),
}


def test_extension_field_modulus_frozen():
    for (p, s), modulus in FROZEN_MODULI.items():
        assert make_extension_field(p, s).modulus == modulus, (p, s)


def _mobius(n):
    pairs = factorize(n).pairs
    return 0 if any(e > 1 for _, e in pairs) else (-1) ** len(pairs)


def test_field_context_accepts_exactly_the_irreducible_moduli():
    # every monic candidate of degree s >= 2 over F_p with p^s <= 1024
    fields = [(p, s) for p in range(2, 32) if is_prime(p)
              for s in range(2, 11) if p**s <= 1024]
    assert len(fields) == 26
    for p, s in fields:
        accepted, irreducible = set(), set()
        for low in product(range(p), repeat=s):
            candidate = low + (1,)
            try:
                FieldContext(p, s, candidate)
                accepted.add(candidate)
            except CompositeModulus:
                pass
            if irreducible_by_trial_division(candidate, p):
                irreducible.add(candidate)
        assert accepted == irreducible, (p, s)
        # Gauss's count of monic irreducibles of degree s over F_p
        gauss = sum(_mobius(d) * p ** (s // d) for d in range(1, s + 1) if s % d == 0)
        assert len(accepted) * s == gauss, (p, s)


def test_field_size_guards():
    with pytest.raises(DegreeOutOfRange):
        make_extension_field(2, 17)
    with pytest.raises(TooLarge):
        make_prime_field(2**61 - 1)  # q caps at 2^48
    with pytest.raises(CompositeModulus):
        FieldContext(5, 2, (1, 0, 2))  # not monic
    with pytest.raises(CompositeModulus):
        FieldContext(5, 2, (0, 0, 1))  # X^2 is reducible
    # the input checks run ahead of the candidate search, so a composite p is
    # reported as such and not skipped as one more reducible candidate
    with pytest.raises(CompositeModulus, match="4 is not prime"):
        make_extension_field(4, 2)
    with pytest.raises(DegreeOutOfRange):
        make_extension_field(3, 0)
    with pytest.raises(TooLarge):
        make_extension_field(65537, 3)  # 65537^3 > 2^48


def test_element_arithmetic_properties_seeded():
    rng = random.Random(7)
    for ctx in (make_prime_field(101), make_extension_field(3, 3), make_extension_field(2, 4)):
        elems = [ctx.from_index(rng.randrange(ctx.q)) for _ in range(12)]
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                assert (a - b) + b == a
                if not b.is_zero:
                    assert (a / b) * b == a
        a, b, c = elems[:3]
        assert a * (b + c) == a * b + a * c
        for a in elems:
            if not a.is_zero:
                assert (a * a.inverse()).is_one
                assert a ** (ctx.q - 1) == ctx.one()
                assert a**-1 == a.inverse()


def test_pow_makes_one_mul_per_bit(monkeypatch):
    # binary powering: a squaring per bit below the top one, plus a multiply
    # per set bit below it; __slots__ leaves only the class to wrap
    ctx = make_extension_field(2, 12)
    x = ctx.from_index(5).coeffs
    calls = []
    mul = FieldContext._mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FieldContext, "_mul", counted)
    for e, want in ((0, 0), (1, 0), (2, 1), (3, 2), (2**8, 8), (4095, 22)):
        calls.clear()
        got = ctx._pow(x, e)
        assert len(calls) == want, e
        acc = ctx.one().coeffs
        for _ in range(e):
            acc = mul(ctx, acc, x)
        assert got == acc, e


def test_index_roundtrip():
    ctx = make_extension_field(5, 2)
    for i in range(ctx.q):
        assert ctx.from_index(i).index == i
    with pytest.raises(OutOfRange):
        ctx.from_index(ctx.q)


def test_mul_order_against_powering_prime_fields():
    for p in (2, 3, 5, 7, 11, 13, 101, 257):
        ctx = make_prime_field(p)
        expected = all_orders_prime_field(p)
        for v in range(1, p):
            assert mul_order(ctx.element(v)) == expected[v]


def test_mul_order_against_powering_extensions():
    for p, s in ((2, 4), (3, 2), (5, 2), (7, 2)):
        ctx = make_extension_field(p, s)
        for i in range(1, ctx.q):
            u = ctx.from_index(i)
            assert mul_order(u) == order_by_powering(u)


def test_mul_order_divides_group_order_seeded():
    rng = random.Random(99)
    ctx = make_prime_field(10007)
    for _ in range(100):
        u = ctx.element(rng.randint(1, 10006))
        n = mul_order(u)
        assert (ctx.q - 1) % n == 0
        assert (u**n).is_one
        # minimality spot check against the largest proper divisor directions
        for p, _ in factorize(n).pairs:
            assert not (u ** (n // p)).is_one


def test_mul_order_zero_message():
    ctx = make_prime_field(7)
    with pytest.raises(ZeroElement) as err:
        mul_order(ctx.zero())
    assert str(err.value) == "zero has no multiplicative order"


def test_small_order_set_examples():
    ctx = make_prime_field(7)
    assert sorted(v.index for v in small_order_set(ctx, 3)) == [1, 2, 4, 6]
    assert sorted(v.index for v in small_order_set(ctx, 1)) == [1]
    assert sorted(v.index for v in small_order_set(ctx, 6)) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(OutOfRange):
        small_order_set(ctx, 0)


def test_small_order_set_cardinality_identity():
    # #{u : ord(u) <= t} is the sum of phi(l) over divisors l <= t of q-1
    for p, s in ((13, 1), (31, 1), (3, 3), (2, 6)):
        ctx = make_prime_field(p) if s == 1 else make_extension_field(p, s)
        divisors = [l for l in range(1, ctx.q) if (ctx.q - 1) % l == 0]
        for t in (1, 2, 3, 5, ctx.q - 1):
            expected = sum(euler_phi(l) for l in divisors if l <= t)
            members = small_order_set(ctx, t)
            assert len(members) == expected
            assert all(mul_order(u) <= t for u in members)


def test_field_element_hash_consistency():
    ctx = make_extension_field(3, 2)
    a = ctx.from_index(5)
    b = ctx.element(a.coeffs)
    assert a == b and hash(a) == hash(b)
    assert len({ctx.from_index(i) for i in range(ctx.q)}) == ctx.q
