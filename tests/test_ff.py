"""Finite field construction, factoring, and multiplicative orders."""

from __future__ import annotations

import math
import random
import tracemalloc
from functools import lru_cache
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiorbits import (
    CompositeModulus,
    DegreeOutOfRange,
    FieldContext,
    FieldPolynomial,
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
import semiorbits.ff as ff
from oracles import (
    all_orders_prime_field,
    irreducible_by_trial_division,
    maximal_divisors_by_search,
    order_by_powering,
    small_order_by_generator_powers,
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


def test_is_prime_matches_trial_division_across_the_sieve():
    # is_prime reads the import-time sieve up to 10^4 and Miller-Rabin above
    for n in range(-3, 10_100):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))), n


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 2**64))
@example(n=1)
@example(n=2**10)
@example(n=600851475143)
@example(n=2147483647 * 2147483629)  # two close 31-bit primes: the rho stage
@example(n=2**96 - 1)
def test_factorize_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert dict(factorize(n).pairs) == sympy.factorint(n)


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


SMALL_PRIMES = [p for p in range(2, 1 << 12) if is_prime(p)]


@st.composite
def _small_fields(draw):
    """(p, s) with p^s <= 2^12; the degree is drawn first, so that extension
    fields are as common as prime ones."""
    s = draw(st.integers(1, 12))
    return draw(st.sampled_from([p for p in SMALL_PRIMES if p**s <= 1 << 12])), s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(field=_small_fields(), seed=st.integers(0, 2**32 - 1))
@example(field=(101, 1), seed=7)
@example(field=(3, 3), seed=7)
@example(field=(2, 4), seed=7)
def test_element_arithmetic_axioms(field, seed):
    ctx = make_extension_field(*field)
    rng = random.Random(seed)
    zero, one = ctx.zero(), ctx.one()
    elems = [ctx.from_index(rng.randrange(ctx.q)) for _ in range(8)] + [zero, one]
    for a in elems:
        assert a + zero == a and a * one == a and (a * zero).is_zero
        assert (a + (-a)).is_zero
        if not a.is_zero:
            assert (a * a.inverse()).is_one
            assert a ** (ctx.q - 1) == one
            assert a**-1 == a.inverse()
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert (a - b) + b == a
            assert (a + b) ** ctx.p == a**ctx.p + b**ctx.p  # characteristic p
            if not b.is_zero:
                assert (a / b) * b == a
            for c in elems[:4]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.integers(0, 10**6), m=st.integers(1, 10**9))
@example(a=3, m=1_000_003)
@example(a=2, m=2**61 - 1)
def test_power_matches_modular_pow(a, m):
    for e in range(1, 201):
        assert ff._power(lambda x, y: x * y % m, a % m, e) == pow(a, e, m), e


@pytest.mark.parametrize("p, s", [(2, 12), (3, 6), (7, 3), (101, 2)])
def test_power_matches_repeated_products(p, s):
    # on coefficient tuples, a^e is e - 1 literal products of a
    ctx = make_extension_field(p, s)
    for i in (1, 2, ctx.q // 3, ctx.q - 1):
        a = ctx.from_index(i).coeffs
        acc = a
        for e in range(1, 201):
            assert ff._power(ctx._mul, a, e) == acc, (i, e)
            acc = ctx._mul(acc, a)


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


ORDER_FIELDS = (
    [(p, 1) for p in range(2, 102) if is_prime(p)]
    + [(2, s) for s in range(2, 9)]
    + [(3, s) for s in range(2, 6)]
    + [(5, 3), (7, 2)]
)


@lru_cache(maxsize=None)
def _orders_by_powering(p: int, s: int):
    ctx = make_extension_field(p, s)
    return ctx, tuple(order_by_powering(ctx.from_index(i)) for i in range(1, ctx.q))


@pytest.mark.parametrize("p, s", ORDER_FIELDS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_mul_orders_match_scalar_and_powering(p, s, data):
    # every nonzero index of the field, in a drawn order, then drawn repeats
    ctx, want = _orders_by_powering(p, s)
    nonzero = list(range(1, ctx.q))
    idx = data.draw(st.permutations(nonzero))
    idx += data.draw(st.lists(st.sampled_from(nonzero), max_size=12))
    got = ff.mul_orders(ctx, idx)
    assert got.dtype == np.int64 and got.shape == (len(idx),)
    assert got.tolist() == [want[i - 1] for i in idx]
    assert got.tolist() == [mul_order(ctx.from_index(i)) for i in idx]


@pytest.mark.parametrize("p", [3037000507, 4294967311, (1 << 48) - 59])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_mul_orders_on_primes_past_int64_products(p, data):
    # p > 2^31.5, so p^2 overflows int64: the prime path must stay exact
    ctx = make_prime_field(p)
    idx = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=6))
    idx += data.draw(st.lists(st.sampled_from(idx), max_size=3))
    idx += [1, p - 1]
    got = ff.mul_orders(ctx, idx).tolist()
    assert got == [mul_order(ctx.element(i)) for i in idx]
    for i, n in zip(idx, got):
        assert (p - 1) % n == 0 and pow(i, n, p) == 1
        assert all(pow(i, n // r, p) != 1 for r, _ in factorize(n).pairs)


@pytest.mark.parametrize("p, s", [(7, 1), (3, 6), (2, 12)])
def test_mul_orders_zero_index_raises(p, s):
    ctx = make_extension_field(p, s)
    with pytest.raises(ZeroElement) as err:
        ff.mul_orders(ctx, [1, 2, 0, 1])
    assert str(err.value) == "zero has no multiplicative order"
    assert ff.mul_orders(ctx, []).tolist() == []
    for bad in (-1, ctx.q):
        with pytest.raises(OutOfRange):
            ff.mul_orders(ctx, [1, bad])


def test_small_order_set_examples():
    ctx = make_prime_field(7)
    assert small_order_set(ctx, 3).tolist() == [1, 2, 4, 6]
    assert small_order_set(ctx, 1).tolist() == [1]
    assert small_order_set(ctx, 6).tolist() == [1, 2, 3, 4, 5, 6]
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
            assert all(mul_order(ctx.from_index(i)) <= t for i in members.tolist())


@pytest.mark.parametrize("p", [3037000493, 3037000507])
def test_small_order_set_on_both_sides_of_the_int64_bound(p):
    # s p^2 < 2^63 holds for the first prime, which lists its roots in int64,
    # and fails for the second, which lists them in Python ints
    ctx = make_prime_field(p)
    assert (p * p < 1 << 63) == (p == 3037000493)
    for t in (1, 2, 3, 4, 6, 12):
        got = small_order_set(ctx, t)
        assert got.dtype == np.int64 and bool(np.all(got[1:] > got[:-1]))
        assert len(got) == sum(euler_phi(d) for d in range(1, t + 1) if (p - 1) % d == 0)
        assert all(mul_order(ctx.from_index(i)) <= t for i in got.tolist())
    # the doubling itself, against pow: the powers of -2 lie near 0 or near p,
    # and the squares of those near p pass 2^63 above the bound
    for h in (p - 2, p - 12345):
        assert ff._power_indices(ctx, (h,), 40).tolist() == [pow(h, j, p) for j in range(40)]


@st.composite
def _divisor_cases(draw):
    """(n, bound): n is q - 1 of a field with q <= 2^12 (at least 2), or a
    product of small prime powers; bound lies in [1, n] or is 10^12."""
    if draw(st.booleans()):
        p, s = draw(_small_fields().filter(lambda f: f[0] ** f[1] > 2))
        n = p**s - 1
    else:
        powers = draw(st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]),
                                      st.integers(1, 3), min_size=1, max_size=4))
        n = math.prod(p**e for p, e in powers.items())
    return n, draw(st.one_of(st.integers(1, n), st.just(10**12)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_divisor_cases())
@example(case=(720, 45))
@example(case=(4095, 100))
def test_maximal_divisors_match_search(case):
    n, drawn = case
    fact = factorize(n)
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = set(low + [n // d for d in low])
    # n and n over its least prime are divisors: each must be kept at bound
    for bound in (drawn, 1, n, n // fact.pairs[0][0], 10**12):
        top = ff._maximal_divisors(fact, bound)
        assert top == maximal_divisors_by_search(n, bound), bound
        for d in divisors:
            if d <= bound:
                assert any(m % d == 0 for m in top), (bound, d)


GAMMA_FIELDS = [(p, s) for s in range(1, 9) for p in SMALL_PRIMES if p**s <= 300]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(field=st.sampled_from(GAMMA_FIELDS),
       t=st.one_of(st.sampled_from([1, 2, 3, "q-2", "q-1", "q", 10**12]), st.integers(1, 300)))
@example(field=(2, 8), t="q-2")
@example(field=(3, 5), t=11)
@example(field=(7, 2), t="q-1")
@example(field=(281, 1), t=10)
def test_small_order_set_matches_order_by_powering(field, t):
    # the orders come from literal powering, not the factored order of q - 1
    ctx, orders = _orders_by_powering(*field)
    t = {"q-2": ctx.q - 2, "q-1": ctx.q - 1, "q": ctx.q}.get(t, t)
    if t < 1:
        with pytest.raises(OutOfRange):
            small_order_set(ctx, t)
        return
    got = small_order_set(ctx, t).tolist()
    assert got == [i for i in range(1, ctx.q) if orders[i - 1] <= t]


def test_field_element_hash_consistency():
    ctx = make_extension_field(3, 2)
    a = ctx.from_index(5)
    b = ctx.element(a.coeffs)
    assert a == b and hash(a) == hash(b)
    assert len({ctx.from_index(i) for i in range(ctx.q)}) == ctx.q


# -- index-array evaluation ----------------------------------------------------

BIG_PRIME = 281474976710597  # below the 2^48 cap; its products overflow int64


def _prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


@lru_cache(maxsize=None)
def _field(p, s):
    return make_extension_field(p, s)


@st.composite
def _eval_cases(draw):
    """A field F_{p^s} with q <= 2^16 (or F_p for a prime near 2^48), one to
    three polynomials of degree < 7 over its prime subfield, and indices into
    it."""
    if draw(st.integers(0, 9)) == 0:
        p, s = BIG_PRIME, 1
    else:
        s = draw(st.integers(1, 16))
        p = _prime_at_most(draw(st.integers(2, int(2 ** (16 / s)))))
    polys = draw(st.lists(st.lists(st.integers(0, p - 1) | st.just(0), max_size=7),
                          min_size=1, max_size=3))
    idx = draw(st.lists(st.integers(0, p**s - 1), max_size=12))
    return p, s, polys, idx


def _check_eval_indices(ctx, polys, idx):
    """eval_indices_all, and each polynomial's eval_indices, against eval."""
    idx = np.array(idx, dtype=np.int64)
    got = ff.eval_indices_all(polys, idx)
    assert got.dtype == np.int64 and got.shape == (len(idx), len(polys))
    for j, g in enumerate(polys):
        want = [g.eval(ctx.from_index(int(i))).index for i in idx]
        assert got[:, j].tolist() == want
        one = g.eval_indices(idx)
        assert one.dtype == np.int64 and one.tolist() == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_eval_cases())
@example(case=(2, 16, [[]], [0, 1, 65535]))  # the zero polynomial
@example(case=(3, 10, [[2]], [5, 59048]))  # a constant
@example(case=(BIG_PRIME, 1, [[5, 0, 3, BIG_PRIME - 1]], [0, 1, BIG_PRIME - 1]))
@example(case=(7, 3, [[1, 2, 3]], []))  # no points
@example(case=(65521, 1, [[3, 1, 4, 1]], [0, 65520]))
@example(case=(251, 2, [[0, 0, 1]], [250, 251 * 251 - 1]))
@example(case=(2, 12, [[1, 0, 1], [2, 0, 0, 1], []], [0, 1, 4095]))  # mixed degrees
@example(case=(5, 3, [[1], [0, 3, 0, 0, 0, 2], [4, 4]], [7, 124]))
def test_eval_indices_matches_eval(case):
    p, s, coeffs, idx = case
    ctx = _field(p, s)
    _check_eval_indices(ctx, [FieldPolynomial(ctx, c) for c in coeffs], idx)


def test_eval_indices_in_blocks_matches_eval():
    # F_{2^13} spans two blocks of EVAL_BLOCK points
    ctx = _field(2, 13)
    g = FieldPolynomial(ctx, [1, 0, 1, 1])
    want = [g.eval(ctx.from_index(i)).index for i in range(ctx.q)]
    assert g.eval_indices(np.arange(ctx.q)).tolist() == want
    rng = random.Random(5)
    # 23 points: 4 full blocks and 3 for one polynomial, 11 of 2 and 1 for two
    # TABLE_CAP = 1 keeps F_{3^4} and F_{7^2} on the blocked digit path
    with mock.patch.object(ff, "EVAL_BLOCK", 5), mock.patch.object(ff, "TABLE_CAP", 1):
        for p, s, coeffs in ((3, 4, [[2, 1, 0, 1]]), (BIG_PRIME, 1, [[5, 0, 3]]), (7, 2, [[]]),
                             (3, 4, [[1, 1, 2], [2, 1, 0, 1]]), (BIG_PRIME, 1, [[5, 0, 3], [1, 1]])):
            ctx = _field(p, s)
            idx = [rng.randrange(ctx.q) for _ in range(23)]
            _check_eval_indices(ctx, [FieldPolynomial(ctx, c) for c in coeffs], idx)


def test_eval_indices_memory_is_bounded_by_the_block():
    # all of F_{2^16} in one call: the input and the output take 0.5 MB each,
    # and one pass over every point at once held about 40 MB of digit arrays
    ctx = _field(2, 16)
    g = FieldPolynomial(ctx, [1, 0, 1])
    xs = np.arange(ctx.q)
    tracemalloc.start()
    try:
        g.eval_indices(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# -- index tables -------------------------------------------------------------

TABLE_FIELDS = [(p, s) for s in range(2, 13) for p in SMALL_PRIMES if p**s <= ff.TABLE_CAP]


@lru_cache(maxsize=None)
def _gamma_by_generator_powers(p, s, t):
    return small_order_by_generator_powers(_field(p, s), t)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(field=st.sampled_from(TABLE_FIELDS + [(3, 8)]), data=st.data())
@example(field=(2, 12), data=None)
@example(field=(3, 8), data=None)
def test_index_tables_match_the_digit_paths(field, data):
    # every field with q <= TABLE_CAP reads the tables; F_{3^8} lies above the
    # cap and takes the digit path; both must agree with the scalar arithmetic
    ctx = _field(*field)
    assert (ctx.index_tables() is None) == (ctx.q > ff.TABLE_CAP)
    points = st.integers(0, ctx.q - 1)
    if data is None:
        coeffs, idx, t = [[1, 0, 1], [2, 0, 0, 1], [], [1]], [0, 1, ctx.q - 1], 15
    else:
        coeffs = data.draw(st.lists(st.lists(st.integers(0, ctx.p - 1), max_size=6),
                                    min_size=1, max_size=3))
        idx = data.draw(st.lists(points, max_size=16))
        t = data.draw(st.one_of(st.integers(1, 40), st.sampled_from([ctx.q - 1, 10**12])))
    _check_eval_indices(ctx, [FieldPolynomial(ctx, c) for c in coeffs], idx)
    nonzero = [i for i in idx if i] + [1, ctx.q - 1]
    got = ff.mul_orders(ctx, nonzero).tolist()
    assert got == [mul_order(ctx.from_index(i)) for i in nonzero]
    listed = small_order_set(ctx, t).tolist()
    assert listed == _gamma_by_generator_powers(*field, min(t, ctx.q))


@pytest.mark.parametrize("p, s", [(101, 1), (2, 13), (3, 8)])
def test_index_tables_only_at_or_below_the_cap(p, s):
    assert make_extension_field(p, s).index_tables() is None


def test_index_tables_are_built_once():
    ctx = make_extension_field(2, 12)
    exp, log = ctx.index_tables()
    again = ctx.index_tables()
    assert again[0] is exp and again[1] is log
    g = ctx.multiplicative_generator()
    assert [int(exp[i]) for i in (0, 1, 2, 4094)] == [(g**i).index for i in (0, 1, 2, 4094)]
    assert sorted(exp.tolist()) == list(range(1, ctx.q))
    assert log[exp].tolist() == list(range(ctx.q - 1))


def test_index_tables_refuse_a_non_generator(monkeypatch):
    # g^3 has order 4095 / 3: its powers miss two thirds of F_q*
    ctx = make_extension_field(2, 12)
    real = FieldContext.multiplicative_generator
    monkeypatch.setattr(FieldContext, "multiplicative_generator", lambda self: real(self) ** 3)
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            ctx.index_tables()
    assert ctx._tables is None
