"""Integer polynomials: parsing, cyclotomics, resultants, heights, conjugacy."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiorbits.intpoly as intpoly
import semiorbits.verify as verify
from semiorbits import (
    CHEBYSHEV_CONJUGATE,
    MONOMIAL_CONJUGATE,
    NON_SPECIAL,
    DegreeTooSmall,
    IntPolynomial,
    OutOfRange,
    PolynomialParseError,
    TooLarge,
    X,
    ZeroPolynomial,
    chebyshev,
    composition_height_bound,
    conjugate_linear,
    cyclotomic,
    cyclotomic_charpoly,
    cyclotomic_resultants,
    euler_phi,
    factorize,
    format_poly,
    height,
    is_prime,
    is_special,
    make_prime_field,
    parse_poly,
    reduce_mod,
    resultant,
    system_height,
)
from oracles import conjugate_by_horner, ramanujan_sums_by_von_sterneck, resultant_by_determinant


def _random_poly(rng, max_deg=6, bound=9):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return IntPolynomial(coeffs)


def test_arithmetic_basics():
    f = IntPolynomial((1, 2, 3))
    g = IntPolynomial((0, 1))
    assert (f + g).coeffs == (1, 3, 3)
    assert (f - f).is_zero
    assert (f * 2).coeffs == (2, 4, 6)
    assert (2 * f).coeffs == (2, 4, 6)
    assert (g**3).coeffs == (0, 0, 0, 1)
    assert (f**0).coeffs == (1,)
    assert f**5 == f * f * f * f * f
    assert (-f).coeffs == (-1, -2, -3)
    assert f(2) == 1 + 4 + 12
    assert IntPolynomial(()).degree == -1
    with pytest.raises(ZeroPolynomial):
        IntPolynomial(()).lc
    with pytest.raises(OutOfRange):
        f**-1


def test_compose_is_substitution():
    f = parse_poly("X^2 + 1")
    g = parse_poly("2X - 1")
    # f(g(X)) = (2X-1)^2 + 1 = 4X^2 - 4X + 2
    assert f.compose(g).coeffs == (2, -4, 4)
    rng = random.Random(5)
    for _ in range(25):
        f = _random_poly(rng, 4, 5)
        g = _random_poly(rng, 3, 5)
        comp = f.compose(g)
        for x in (-2, -1, 0, 1, 3):
            assert comp(x) == f(g(x))


def test_content_and_primitive():
    f = IntPolynomial((6, -12, 18))
    assert f.content() == 6
    assert f.primitive().coeffs == (1, -2, 3)
    # the content is the positive gcd, so signs survive division
    assert IntPolynomial((4, -8)).primitive().coeffs == (1, -2)
    assert IntPolynomial(()).content() == 0


def test_format_examples():
    assert format_poly(parse_poly("X^4 - X^2 + 1")) == "X^4 - X^2 + 1"
    assert format_poly(IntPolynomial(())) == "0"
    assert format_poly(IntPolynomial((-3,))) == "-3"
    assert format_poly(IntPolynomial((0, -1))) == "-X"
    assert format_poly(IntPolynomial((2, 0, 7))) == "7X^2 + 2"


def test_parse_accepts_common_shapes():
    assert parse_poly("X^2+1") == parse_poly("X^2 + 1")
    assert parse_poly("2X^2") == parse_poly("2*X^2")
    assert parse_poly("-X") == IntPolynomial((0, -1))
    assert parse_poly("5") == IntPolynomial((5,))
    assert parse_poly("x^2 - x") == IntPolynomial((0, -1, 1))
    # repeated powers accumulate
    assert parse_poly("X + X + 1") == IntPolynomial((1, 2))


def test_parse_roundtrip_seeded():
    rng = random.Random(11)
    for _ in range(200):
        f = _random_poly(rng)
        assert parse_poly(format_poly(f)) == f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    terms=st.dictionaries(
        st.integers(0, 40), st.integers(-(10**30), 10**30).filter(bool), max_size=6
    ),
    lead=st.integers(-(10**6), -1),
)
@example(terms={}, lead=-1)  # the zero polynomial, and -1 alone
def test_parse_format_roundtrip(terms, lead):
    # sparse polynomials, the zero one among them, and each with its
    # leading coefficient made negative
    f = IntPolynomial([terms.get(i, 0) for i in range(max(terms, default=-1) + 1)])
    g = f + IntPolynomial.x_power(f.degree + 1, lead)
    for h in (f, g, -f):
        assert parse_poly(format_poly(h)) == h
    assert g.lc < 0


def test_parse_error_positions():
    with pytest.raises(PolynomialParseError) as err:
        parse_poly("")
    assert "empty polynomial text" in str(err.value)
    with pytest.raises(PolynomialParseError) as err:
        parse_poly("X +")
    assert str(err.value) == "dangling sign at position 3"
    with pytest.raises(PolynomialParseError) as err:
        parse_poly("2*Y")
    assert "expected X after '*'" in str(err.value)
    with pytest.raises(PolynomialParseError) as err:
        parse_poly("X^")
    assert "expected an integer" in str(err.value)
    with pytest.raises(PolynomialParseError) as err:
        parse_poly("X 1")
    assert "expected '+' or '-'" in str(err.value)
    with pytest.raises(PolynomialParseError) as err:
        parse_poly("+ +")
    assert "expected a term" in str(err.value) or "dangling" in str(err.value)
    assert parse_poly("+X") == X
    # a literal past the interpreter's 4,300-digit int/str limit is a parse
    # error at its offset; an exponent above MAX_DEGREE is refused before a
    # coefficient list of its length is allocated
    with pytest.raises(PolynomialParseError) as err:
        parse_poly("X^" + "9" * 5000)
    assert err.value.position == 2
    with pytest.raises(PolynomialParseError) as err:
        parse_poly("X + " + "9" * 5000)
    assert err.value.position == 4
    with pytest.raises(TooLarge) as err:
        parse_poly("X^2 + X^100001")
    assert "position 8" in str(err.value)
    assert intpoly.MAX_DEGREE == intpoly.MAX_CYCLOTOMIC_INDEX == 100000
    assert parse_poly("X^100000 - 1").degree == 100000


def test_cyclotomic_small_table():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic(105).coeffs) == -2
    with pytest.raises(OutOfRange):
        cyclotomic(0)
    with pytest.raises(OutOfRange):
        cyclotomic(100001)


def test_cyclotomic_product_identity_spot():
    for n in (1, 2, 6, 12, 30, 36, 105):
        prod = IntPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPolynomial([-1] + [0] * (n - 1) + [1])


def test_cyclotomic_degree_is_totient():
    # Φ_n(1) is q for n a power of the prime q, else 1 (n > 1)
    for n in (7, 8, 9, 10, 24, 100, 30030, 65536, 99990, 99991, 100000):
        phi = cyclotomic(n)
        assert phi.degree == euler_phi(n) and phi.lc == 1, n
        primes = factorize(n).primes()
        assert sum(phi.coeffs) == (primes[0] if len(primes) == 1 else 1), n


def test_ramanujan_trace_matches_von_sterneck():
    for r in range(1, 700):
        assert intpoly._ramanujan_trace(r) == ramanujan_sums_by_von_sterneck(r), r


def _sympy_poly(f, var):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(f.coeffs)) or [0], var)


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("X")
    for n in list(range(1, 61)) + [105, 210, 385, 1155, 2310]:
        assert cyclotomic(n) == IntPolynomial(
            reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())
        ), n


def test_resultant_matches_sympy_sylvester_seeded():
    # sympy's own Sylvester matrix and determinant.  Its ``resultant`` is not
    # used: sympy 1.14 gives Res(X - 1, -X^3) = 1, where the Sylvester
    # determinant and lc(f)^3 g(1) are both -1
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester

    x = sympy.Symbol("X")
    rng = random.Random(77)
    done = 0
    while done < 100:
        f = _random_poly(rng, 7, 20)
        g = _random_poly(rng, 7, 20)
        if f.degree < 1 or g.degree < 1:
            continue
        expected = sylvester(_sympy_poly(f, x).as_expr(), _sympy_poly(g, x).as_expr(), x, 1).det()
        assert resultant(f, g) == expected, (f, g)
        done += 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(coeffs=st.lists(st.integers(-6, 6), max_size=5), r=st.integers(1, 30))
@example(coeffs=[0, 0, 1], r=1)
@example(coeffs=[0, 0, 0, -1], r=1)
@example(coeffs=[], r=7)
def test_cyclotomic_charpoly_matches_sympy(coeffs, r):
    # χ_r(Y) = Res_X(Φ_r(X), Y - f(X)), monic as Φ_r is.  sympy's resultant
    # can be off by a global sign (above), so the comparison is up to sign
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("X Y")
    f = IntPolynomial(coeffs)
    chi = cyclotomic_charpoly(f, r)
    res = sympy.resultant(sympy.cyclotomic_poly(r, x), y - _sympy_poly(f, x).as_expr(), x)
    expected = IntPolynomial(reversed(sympy.Poly(res, y).all_coeffs()))
    assert chi in (expected, -expected)
    assert chi.degree == euler_phi(r) and chi.lc == 1


def test_cyclotomic_charpoly_hand_values():
    # χ_r of X is Φ_r; X^2 + 1 sends ζ_3 to -ζ_3^2, a primitive 6th root
    for r in (1, 2, 3, 12, 30):
        assert cyclotomic_charpoly(X, r) == cyclotomic(r)
    assert cyclotomic_charpoly(parse_poly("X^2"), 1) == parse_poly("X - 1")
    assert cyclotomic_charpoly(parse_poly("X^2 + 1"), 3) == cyclotomic(6)
    assert cyclotomic_charpoly(parse_poly("X^2"), 4) == parse_poly("X^2 + 2X + 1")
    assert cyclotomic_charpoly(IntPolynomial((5,)), 5) == parse_poly("X - 5") ** 4
    with pytest.raises(OutOfRange):
        cyclotomic_charpoly(X, 0)


def test_cyclotomic_charpoly_raises_on_inexact_division(monkeypatch):
    # a wrong degree phi(3) = 3 gives traces 3, -1, -1 and power sums
    # p = (-1, -1, 3) for f = X, so that 3 c_3 = -(p_3 + c_1 p_2 + c_2 p_1) = -1
    trace = intpoly._ramanujan_trace
    monkeypatch.setattr(intpoly, "_ramanujan_trace", lambda r: (3, -1, -1) if r == 3 else trace(r))
    with pytest.raises(ArithmeticError):
        cyclotomic_charpoly(X, 3)


def test_resultant_hand_values():
    assert resultant(parse_poly("X - 1"), parse_poly("X + 1")) == 2
    assert resultant(parse_poly("X^2 + 1"), parse_poly("X^2 - 1")) == 4
    # constants: Res(F, c) = c^deg F; two constants give 1
    assert resultant(parse_poly("X^2 + 1"), IntPolynomial((3,))) == 9
    assert resultant(IntPolynomial((3,)), parse_poly("X^2 + 1")) == 9
    assert resultant(IntPolynomial((2,)), IntPolynomial((5,))) == 1
    with pytest.raises(ZeroPolynomial):
        resultant(IntPolynomial(()), parse_poly("X + 1"))
    # shared root
    assert resultant(parse_poly("X - 1"), parse_poly("X^2 - 1")) == 0


def test_resultant_matches_determinant_seeded():
    rng = random.Random(2024)
    done = 0
    while done < 150:
        f = _random_poly(rng)
        g = _random_poly(rng)
        if f.is_zero or g.is_zero:
            continue
        assert resultant(f, g) == resultant_by_determinant(f, g)
        done += 1


# -- every Res(P, Φ_s) by split primes and the CRT ----------------------------


def _coefficients(bits):
    return st.integers(-(1 << bits), 1 << bits)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    polys=st.lists(
        st.lists(st.one_of(_coefficients(6), _coefficients(70)), min_size=1, max_size=7)
        .map(IntPolynomial).filter(lambda P: not P.is_zero),
        min_size=1, max_size=4),
    s_max=st.integers(1, 12),
    factor=st.booleans(),
)
@example(polys=[IntPolynomial((5,)), IntPolynomial((-3, 0, 2))], s_max=2, factor=False)
@example(polys=[IntPolynomial((1 << 61, -(1 << 65) - 1, 3 << 62))], s_max=3, factor=False)
@example(polys=[IntPolynomial(((1 << 24) - 1, 1 << 24, 1 << 48, -(1 << 72)))], s_max=7,
         factor=False)
@example(polys=[IntPolynomial(((1 << 24) - 1,)), IntPolynomial((1, 1 << 24)),
                IntPolynomial((-1, 0, 1 << 48)), IntPolynomial((-(1 << 72), 0, 0, 1))],
         s_max=5, factor=True)
def test_cyclotomic_resultants_match_prs_and_determinant(polys, s_max, factor):
    # non-monic, negative and multi-limb coefficients, on each side of the
    # 24-bit limb boundaries, constants, and P = Φ_s g, whose resultant
    # with Φ_s is 0
    if factor:
        polys = polys + [cyclotomic(s) * polys[0] for s in range(1, s_max + 1)]
    table = cyclotomic_resultants(polys, s_max)
    assert len(table) == len(polys) and all(len(row) == s_max for row in table)
    for P, row in zip(polys, table):
        for s, value in enumerate(row, 1):
            phi = cyclotomic(s)
            assert value == resultant(P, phi) == resultant_by_determinant(P, phi), (P, s)
    if factor:
        assert [table[len(table) - s_max + s - 1][s - 1] for s in range(1, s_max + 1)] == [0] * s_max


def test_cyclotomic_resultants_edges():
    assert cyclotomic_resultants([IntPolynomial((3,))], 2) == [[3, 3]]  # c^phi(s)
    assert cyclotomic_resultants([parse_poly("X - 1"), parse_poly("X + 1")], 2) == [[0, 2], [-2, 0]]
    assert cyclotomic_resultants([], 3) == []
    with pytest.raises(ZeroPolynomial):
        cyclotomic_resultants([X, IntPolynomial(())], 2)
    for s_max in (0, intpoly.MAX_CYCLOTOMIC_INDEX + 1):
        with pytest.raises(OutOfRange):
            cyclotomic_resultants([X], s_max)


def test_cyclotomic_resultants_at_the_largest_single_r_grid():
    # lemma41's guard takes r_max = 1 with s_max = 610; χ_1 = Y - F(1), and
    # s = 607 alone needs phi(607) * 4 + 1 bits: 102 primes = 1 mod 607 in (2^24, 2^25)
    assert verify._lemma41_cost([2], 1, 610) <= verify.LEMMA41_COST_CAP
    chi = cyclotomic_charpoly(parse_poly("X^2 + 3X + 5"), 1)
    (row,) = cyclotomic_resultants([chi], 610)
    primes = intpoly._split_primes({607: 606 * 4 + 1, 1: 3 * 24})
    assert primes[1] == [(1 << 24) + 43, (1 << 24) + 73, (1 << 24) + 75]  # the first above 2^24
    assert len(primes[607]) == 102 and primes[607] == sorted(set(primes[607]))
    assert all(l % 607 == 1 and 1 << 24 < l < 1 << 25 and is_prime(l) for l in primes[607])
    for s in random.Random(0).sample(range(1, 611), 12) + [1, 2, 607, 610]:
        assert row[s - 1] == resultant(chi, cyclotomic(s)), s


def test_split_primes_go_below_2_to_24():
    # χ_1 = Y - (2^30 + 1) of 2^30 X^2 + 1 needs 882 * 31 + 1 bits at s = 883,
    # more than the primes = 1 mod 883 in (2^24, 2^25) hold: the largest
    # primes below 2^24 follow them
    bits = 882 * 31 + 1
    (primes,) = intpoly._split_primes({883: bits}).values()
    above = [l for l in primes if l > 1 << 24]
    below = primes[len(above):]
    assert above == sorted(above) and below == sorted(below, reverse=True) and below
    assert all(l % 883 == 1 and intpoly._FLOOR < l < 1 << 25 and is_prime(l) for l in primes)
    first = 1 + 883 * ((1 << 24) // 883 + 1)  # the first 1 + 883 k above 2^24
    assert above == [l for l in range(first, 1 << 25, 883) if is_prime(l)]
    assert below[0] == max(l for l in range(1, 1 << 24, 883) if is_prime(l))
    held = intpoly._held_bits(primes)
    assert held[-2] < bits <= held[-1] and math.prod(primes) >= 1 << bits


def test_split_primes_past_the_window_fall_short():
    # the primes = 1 mod 4093 in (2^13, 2^25), about 500 of them, hold
    # fewer than 10^5 bits: the s gets them all
    (primes,) = intpoly._split_primes({4093: 10**5}).values()
    assert sorted(primes) == [l for l in range(1 + 4093 * 3, 1 << 25, 4093) if is_prime(l)]


def _narrow_window():
    # 2^16 <= ℓ < 2^17, then 2^13 <= ℓ < 2^16: primes of 14 to 17 bits
    return iter([(1 << 16, 1 << 17, 1), (1 << 15, 1 << 16, -1), (1 << 13, 1 << 15, -1)])


def test_cyclotomic_resultants_on_a_narrow_window(monkeypatch):
    # in a window of primes below 2^17, the s of large phi(s) run out of
    # primes for the 2,000-bit coefficient and take the PRS; the others
    # count primes of several bit lengths
    monkeypatch.setattr(intpoly, "_segments", _narrow_window)
    polys = [IntPolynomial((3, -(1 << 2000) + 5)), IntPolynomial((1, -7, 1 << 40)),
             IntPolynomial((2, 1))]
    bits = {s: euler_phi(s) * 2000 + 1 for s in range(1, 13)}  # |P|_1 = 2^2000 - 2
    primes = intpoly._split_primes(bits)
    short = [s for s in bits if intpoly._held_bits(primes[s])[-1] < bits[s]]
    assert short == [11] and min(min(primes[s]) for s in bits) < 1 << 14
    table = cyclotomic_resultants(polys, 12)
    for P, row in zip(polys, table):
        for s, value in enumerate(row, 1):
            assert value == resultant(P, cyclotomic(s)), (P, s)


def test_cyclotomic_resultants_across_crt_blocks(monkeypatch):
    # with three primes to a CRT block, the degree-2 group's 28 primes at
    # s = 11 fill ten blocks and the degree-1 group's 13 end inside the fifth
    monkeypatch.setattr(intpoly, "_CRT_BLOCK", 3)
    polys = [IntPolynomial((1 << 61, -(1 << 65) - 1, 3 << 62)), IntPolynomial(((1 << 29) + 1, 3))]
    assert [(10 * sum(map(abs, P.coeffs)).bit_length() + 24) // 24 for P in polys] == [28, 13]
    table = cyclotomic_resultants(polys, 12)
    for P, row in zip(polys, table):
        for s, value in enumerate(row, 1):
            phi = cyclotomic(s)
            assert value == resultant(P, phi) == resultant_by_determinant(P, phi), (P, s)


def test_cyclotomic_resultants_do_not_depend_on_the_crt_block(monkeypatch):
    # one prime to a block, three, the default and 256: the same table, where
    # coefficients near 2^69 need up to 82 primes at s up to 30, three blocks of 32
    polys = [IntPolynomial((1 << 61, -(1 << 65) - 1, 3 << 62)), IntPolynomial(((1 << 29) + 1, 3)),
             parse_poly("X^2 + 3X + 5"), IntPolynomial((-(1 << 70) + 7, 5, 0, 1))]
    tables = {}
    for block in (1, 3, 32, 256):
        monkeypatch.setattr(intpoly, "_CRT_BLOCK", block)
        tables[block] = cyclotomic_resultants(polys, 30)
    assert tables[1] == tables[3] == tables[32] == tables[256]
    for P, row in zip(polys, tables[32]):
        for s in (1, 2, 12, 23, 29, 30):
            assert row[s - 1] == resultant(P, cyclotomic(s)), (P, s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ss=st.lists(st.integers(1, 400), min_size=1, max_size=5, unique=True),
       bits=st.integers(1, 120))
@example(ss=[1, 2], bits=100)
@example(ss=[210, 211, 128, 3], bits=60)
def test_cyclotomic_roots_are_primitive(ss, bits):
    # each ζ is a primitive s-th root of unity mod its ℓ, from the first base
    # a whose a^((ℓ-1)/s) is one
    primes = intpoly._split_primes({s: bits for s in ss})
    ell = np.array([l for s in ss for l in primes[s]], dtype=float)
    zeta = iter(intpoly._cyclotomic_roots(ss, [len(primes[s]) for s in ss], ell, 1 / ell).tolist())
    for s in ss:
        qs = [q for q in range(2, s + 1) if s % q == 0 and is_prime(q)]
        for l in primes[s]:
            z = int(next(zeta)) % l
            assert pow(z, s, l) == 1 and all(pow(z, s // q, l) != 1 for q in qs), (s, l)
            first = next(y for a in intpoly._SIEVE_BASE for y in [pow(a, (l - 1) // s, l)]
                         if all(pow(y, s // q, l) != 1 for q in qs))
            assert z == first


def test_cyclotomic_resultants_when_every_s_is_past_the_window(monkeypatch):
    # a window of 64 integers holds too few primes for any s: every s takes
    # the PRS, and the root search has no prime to run on
    monkeypatch.setattr(intpoly, "_segments", lambda: iter([(1 << 16, (1 << 16) + 64, 1)]))
    polys = [IntPolynomial((3, -(1 << 200) + 5)), parse_poly("X^2 + 3X + 5")]
    assert cyclotomic_resultants(polys, 6) == [[resultant(P, cyclotomic(s)) for s in range(1, 7)]
                                               for P in polys]


_LARGEST = max(p for p in range((1 << 25) - 64, 1 << 25) if is_prime(p))  # largest ℓ below 2^25


def _reduce_ints(xs, ell):
    x = np.array(xs, dtype=float)
    assert x.tolist() == xs  # every input is exact in a double
    return intpoly._reduce(x, np.full_like(x, ell), np.full_like(x, 1 / ell)).tolist()


def test_reduce_at_the_extreme_block_sum():
    # a Horner step sums at most _BLOCK + 1 products of residues of magnitude
    # <= ℓ/2 + 1 (in fact <= (ℓ + 1)/2); the largest ℓ of the window gives
    # the largest such sums
    top = _LARGEST // 2 + 1
    xs = [sign * (n * top * top + d) for n in (intpoly._BLOCK, intpoly._BLOCK + 1)
          for d in range(-3, 4) for sign in (1, -1)]
    assert max(map(abs, xs)) < 1 << 52
    for x, r in zip(xs, _reduce_ints(xs, _LARGEST)):
        assert r == int(r) and abs(r) <= (_LARGEST + 1) // 2 and (x - int(r)) % _LARGEST == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.integers(-(1 << 52) + 1, (1 << 52) - 1),
       ell=st.sampled_from([8209, (1 << 24) - 3, (1 << 24) + 43, 25165843, _LARGEST]))
@example(x=(1 << 52) - 1, ell=(1 << 24) + 43)
@example(x=_LARGEST // 2, ell=_LARGEST)
def test_reduce_is_exact_below_2_to_52(x, ell):
    (r,) = _reduce_ints([x], ell)
    assert r == int(r) and abs(r) <= (ell + 1) // 2 and (x - int(r)) % ell == 0


def test_resultant_antisymmetry_and_multiplicativity():
    rng = random.Random(31337)
    for _ in range(40):
        f = _random_poly(rng, 4)
        g = _random_poly(rng, 4)
        h = _random_poly(rng, 3)
        if f.degree < 1 or g.degree < 1 or h.degree < 1:
            continue
        assert resultant(f, g) == (-1) ** (f.degree * g.degree) * resultant(g, f)
        assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


def test_height_values():
    assert height(parse_poly("X^2 + 1")) == 0.0
    assert height(parse_poly("8X^4 + 8X^2 + 3")) == pytest.approx(math.log(8))
    # height is a function of the primitive part
    assert height(parse_poly("6X^2 + 6")) == 0.0
    with pytest.raises(ZeroPolynomial):
        height(IntPolynomial(()))
    assert system_height([parse_poly("X^2"), parse_poly("5X^3 + 1")]) == pytest.approx(
        math.log(5)
    )


def test_composition_height_bound_shape():
    # n=1 collapses to h(F) exactly
    assert composition_height_bound(1, 2, 0.7) == pytest.approx(0.7)
    # worked d=2, n=2 case: 3 h + 4 log 8
    assert composition_height_bound(2, 2, math.log(2)) == pytest.approx(
        3 * math.log(2) + 4 * math.log(8)
    )
    with pytest.raises(OutOfRange):
        composition_height_bound(0, 2, 1.0)
    with pytest.raises(OutOfRange):
        composition_height_bound(1, 1, 1.0)


def test_chebyshev_normal_forms():
    assert chebyshev(1).coeffs == (0, 1)
    assert chebyshev(2).coeffs == (-2, 0, 1)
    assert chebyshev(3).coeffs == (0, -3, 0, 1)
    assert chebyshev(4).coeffs == (2, 0, -4, 0, 1)
    # defining property on the unit circle: T~_d(z + 1/z) = z^d + z^-d,
    # checked at z = 2 via y = 2 + 1/2 scaled by 2^d
    for d in range(1, 8):
        t = chebyshev(d)
        y = Fraction(5, 2)
        val = sum(Fraction(c) * y**i for i, c in enumerate(t.coeffs))
        assert val == Fraction(2) ** d + Fraction(2) ** -d


def test_conjugate_linear_definition():
    rng = random.Random(3)
    for _ in range(30):
        f = _random_poly(rng, 4, 4)
        if f.degree < 1:
            continue
        alpha = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        beta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        conj = conjugate_linear(f, alpha, beta)
        for xv in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)):
            lhs = sum(c * xv**i for i, c in enumerate(conj))
            inner = alpha * xv + beta
            rhs = (sum(Fraction(c) * inner**i for i, c in enumerate(f.coeffs)) - beta) / alpha
            assert lhs == rhs


def test_is_special_monomials():
    for text, d in (("X^2", 2), ("X^3", 3), ("X^5", 5)):
        cls = is_special(parse_poly(text))
        assert cls.kind == MONOMIAL_CONJUGATE
        assert cls.normal_form == IntPolynomial.x_power(d)
    # conjugate of X^2 by L(X) = 2X + 3: integer expansion 2X^2 + 6X + 3
    cls = is_special(parse_poly("2X^2 + 6X + 3"))
    assert cls.kind == MONOMIAL_CONJUGATE
    assert cls.witness == (Fraction(1, 2), Fraction(-3, 2))
    assert cls.normal_form == IntPolynomial.x_power(2)
    assert conjugate_linear(parse_poly("2X^2 + 6X + 3"), *cls.witness) == (0, 0, 1)
    # leading coefficient without a rational (d-1)-th root: still monomial
    # class, with the scaled monomial as the normal form
    cls = is_special(parse_poly("2X^3"))
    assert cls.kind == MONOMIAL_CONJUGATE
    assert cls.normal_form == IntPolynomial((0, 0, 0, 2))


def test_is_special_chebyshev():
    assert is_special(parse_poly("X^2 - 2")).kind == CHEBYSHEV_CONJUGATE
    assert is_special(parse_poly("X^3 - 3X")).kind == CHEBYSHEV_CONJUGATE
    assert is_special(parse_poly("-X^2 + 2")).kind == CHEBYSHEV_CONJUGATE
    # conjugate of T~_3 by L(X) = 3X + 1: ((3X+1)^3 - 3(3X+1) - 1)/3
    f = parse_poly("9X^3 + 9X^2 - 1")
    cls = is_special(f)
    assert cls.kind == CHEBYSHEV_CONJUGATE
    assert cls.normal_form == chebyshev(3)
    assert conjugate_linear(f, *cls.witness) == tuple(
        Fraction(c) for c in chebyshev(3).coeffs
    )


def test_is_special_negatives():
    for text in ("X^2 + 1", "X^2 + X + 1", "X^3 + X", "X^3 - 3X + 1", "2X^2 + 1"):
        assert is_special(parse_poly(text)).kind == NON_SPECIAL, text
    with pytest.raises(DegreeTooSmall):
        is_special(parse_poly("X + 1"))


def test_is_special_skips_the_shift_and_chebyshev_when_unread(monkeypatch):
    # f = X^1000 + 1 is centered (β = 0) and has no X^998 term: neither the
    # O(d^2) shift nor T~_1000 is computed, and f is still not special
    def unread(*args):
        raise AssertionError("computed, but not read")

    monkeypatch.setattr(intpoly, "_centered", unread)
    monkeypatch.setattr(intpoly, "chebyshev", unread)
    assert is_special(parse_poly("X^1000 + 1")).kind == NON_SPECIAL


def test_is_special_shifts_in_integers(monkeypatch):
    # f = X^1000 + X^999 needs the shift by β = -1/1000; in Fractions that
    # took about 16 s, so it must run in integers, without conjugate_linear
    def unread(*args):
        raise AssertionError("the Fraction shift ran")

    monkeypatch.setattr(intpoly, "conjugate_linear", unread)
    assert is_special(parse_poly("X^1000 + X^999")).kind == NON_SPECIAL


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    low=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=39),
    sub=st.integers(-60, 60).filter(bool),
    lead=st.integers(-12, 12).filter(bool),
    alpha=st.fractions(-5, 5, max_denominator=4).filter(bool),
)
@example(low=[3], sub=6, lead=2, alpha=Fraction(1, 2))  # 2X^2 + 6X + 3, monomial class
@example(low=[-1, 0], sub=9, lead=9, alpha=Fraction(1, 3))  # 9X^3 + 9X^2 - 1, Chebyshev class
def test_centered_form_equals_conjugate_linear(low, sub, lead, alpha):
    # the integer shift of is_special, and conjugate_linear built on it,
    # against Horner's rule in Fractions, for β = -sub / (d lead) != 0 and
    # degrees 2 to 40
    f = IntPolynomial(tuple(low) + (sub, lead))
    beta = Fraction(-sub, f.degree * lead)
    assert intpoly._centered(f, beta) == conjugate_by_horner(f, Fraction(1), beta)
    assert conjugate_linear(f, alpha, beta) == conjugate_by_horner(f, alpha, beta)
    zero = IntPolynomial()
    assert conjugate_linear(zero, alpha, beta) == conjugate_by_horner(zero, alpha, beta)


def test_reduce_mod():
    ctx = make_prime_field(5)
    g = reduce_mod(parse_poly("7X^2 + 12X - 3"), ctx)
    assert g.coeffs == (2, 2, 2)
    assert g.eval(ctx.element(1)).index == 1
    assert reduce_mod(parse_poly("5X^2 + 1"), ctx).degree == 0
