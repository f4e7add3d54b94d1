"""Arbitrary-precision integer polynomials.

Ring operations, composition, cyclotomic polynomials as Möbius products,
characteristic polynomials of f(ζ) over the primitive r-th roots of unity,
resultants via the subresultant polynomial remainder sequence, logarithmic
Weil heights of primitive integer polynomials, normalized Chebyshev forms,
and classification of polynomials up to rational linear conjugacy.

Text format: sparse descending with caret powers, e.g. ``X^4 - X^2 + 1``.
Parsing additionally accepts an optional ``*`` between coefficient and
variable and arbitrary whitespace; printing and parsing round-trip.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegreeTooSmall,
    EmptySystem,
    OutOfRange,
    PolynomialParseError,
    TooLarge,
    ZeroPolynomial,
)
from .ff import FieldContext, FieldPolynomial, _power, _sieve, euler_phi, factorize

MAX_CYCLOTOMIC_INDEX = 100000
MAX_DEGREE = MAX_CYCLOTOMIC_INDEX  # parse_poly's cap; every printed Φ_n parses back


class IntPolynomial:
    """A polynomial in Z[X], stored low-to-high with no trailing zeros.

    The zero polynomial has degree -1 (sentinel for minus infinity).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------
    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @classmethod
    def x_power(cls, n: int, c: int = 1) -> "IntPolynomial":
        return cls((0,) * n + (c,))

    # -- basic queries --------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations -------------------------------------------------------
    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    def __rmul__(self, other: int) -> "IntPolynomial":
        return self * other

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise OutOfRange("polynomial powers require e >= 0")
        return _power(operator.mul, self, e) if e else IntPolynomial((1,))

    def compose(self, inner: "IntPolynomial") -> "IntPolynomial":
        """self(inner(X)), by Horner evaluation in Z[X]."""
        acc = IntPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPolynomial((c,))
        return acc

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- content ---------------------------------------------------------------
    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        c = self.content()
        if c in (0, 1):
            return self
        return IntPolynomial(tuple(a // c for a in self.coeffs))

    # -- dunder plumbing ---------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "IntPolynomial(%s)" % format_poly(self)

    def __str__(self):
        return format_poly(self)


X = IntPolynomial((0, 1))


# ---------------------------------------------------------------------------
# text format


def format_poly(f: IntPolynomial) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "X" if i == 1 else "X^%d" % i
            body = var if mag == 1 else "%d%s" % (mag, var)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def parse_poly(text: str) -> IntPolynomial:
    """Parse the sparse text format; raises with the failing offset."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise PolynomialParseError("expected an integer", start)
        try:
            return int(text[start:pos])
        except ValueError:  # past the interpreter's int/str digit limit
            raise PolynomialParseError("integer literal too long", start) from None

    coeffs: dict = {}
    skip_ws()
    if pos == n:
        raise PolynomialParseError("empty polynomial text", pos)
    first = True
    while pos < n:
        sign = 1
        skip_ws()
        if not first or (pos < n and text[pos] in "+-"):
            if pos >= n or text[pos] not in "+-":
                raise PolynomialParseError("expected '+' or '-'", pos)
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            skip_ws()
        first = False
        if pos >= n:
            raise PolynomialParseError("dangling sign", pos)
        coeff = None
        if text[pos].isdigit():
            coeff = read_int()
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or text[pos] not in "Xx":
                    raise PolynomialParseError("expected X after '*'", pos)
        power = 0
        if pos < n and text[pos] in "Xx":
            pos += 1
            power = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                at = pos
                power = read_int()
                if power > MAX_DEGREE:
                    raise TooLarge("exponent at position %d exceeds the degree cap %d"
                                   % (at, MAX_DEGREE))
        elif coeff is None:
            raise PolynomialParseError("expected a term", pos)
        coeffs[power] = coeffs.get(power, 0) + sign * (1 if coeff is None else coeff)
        skip_ws()
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for k, v in coeffs.items():
        out[k] = v
    return IntPolynomial(out)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def _mobius_pairs(n: int) -> List[Tuple[int, int]]:
    """(d, mu(n/d)) for every divisor d of n with n/d squarefree, from one
    factorization of n: n/d runs over the products of distinct primes of n."""
    pairs = [(n, 1)]
    for p in factorize(n).primes():
        pairs += [(d // p, -mu) for d, mu in pairs]
    return pairs


def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, prod (X^d - 1)^mu(n/d) over d | n.

    For n > 1 the mu(n/d) sum to 0, so Φ_n = prod (1 - X^d)^mu(n/d): the
    factors with mu = 1 are multiplied in, then the others divided out, each
    in one pass over the coefficients.  Over 1 - X^d the quotient is the
    running sum of each class of coefficients mod d, and the division is
    exact when the d top sums vanish.
    """
    if not 1 <= n <= MAX_CYCLOTOMIC_INDEX:
        raise OutOfRange("cyclotomic index must satisfy 1 <= n <= %d" % MAX_CYCLOTOMIC_INDEX)
    if n == 1:
        return IntPolynomial((-1, 1))
    pairs = _mobius_pairs(n)
    c = [1]
    for d, mu in pairs:
        if mu == 1:
            c = [a - b for a, b in zip(c + [0] * d, [0] * d + c)]
    for d, mu in pairs:
        if mu == -1:
            for i in range(d):
                c[i::d] = itertools.accumulate(c[i::d])
            if any(c[-d:]):
                raise ArithmeticError("division is not exact")
            del c[-d:]
    return IntPolynomial(c)


def _ramanujan_trace(r: int) -> Tuple[int, ...]:
    """The sums of ζ^j over the primitive r-th roots ζ, for j < r: Ramanujan's
    sum, the sum of d mu(r/d) over the d dividing gcd(j, r).  Its j = 0 entry
    is phi(r)."""
    trace = [0] * r
    for d, mu in _mobius_pairs(r):
        trace[::d] = [t + d * mu for t in trace[::d]]
    return tuple(trace)


def cyclotomic_charpoly(f: IntPolynomial, r: int) -> IntPolynomial:
    """χ_r(Y) = prod (Y - f(ζ)) over the primitive r-th roots of unity ζ.

    Monic of degree n = phi(r), and Res(χ_r, g) = Res(Φ_r, g∘f) for every g:
    both are the product of g(f(ζ)).  The power sums p_k of the f(ζ) weight
    f^k mod X^r - 1 by Ramanujan's sums, the sums of ζ^j; Newton's identities
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1) then give the coefficient
    c_k of Y^(n-k) by exact division.  About n r (deg f + 1) multiplications
    (composed products: Bostan, Flajolet, Salvy, Schost, JSC 41, 2006).
    """
    if not 1 <= r <= MAX_CYCLOTOMIC_INDEX:
        raise OutOfRange("cyclotomic index must satisfy 1 <= r <= %d" % MAX_CYCLOTOMIC_INDEX)
    trace = _ramanujan_trace(r)
    n = trace[0]
    fr = [sum(f.coeffs[i::r]) for i in range(r)]  # f mod X^r - 1
    power, p = [1] + [0] * (r - 1), [n]  # f^k mod X^r - 1, and p_k
    for _ in range(n):
        nxt = [0] * r
        for i, a in enumerate(fr):
            if a:  # add a X^i power: power rotated by i
                nxt = [x + a * y for x, y in zip(nxt, power[r - i:] + power[: r - i])]
        power = nxt
        p.append(sum(x * t for x, t in zip(power, trace)))
    c = [1]
    for k in range(1, n + 1):
        q, rem = divmod(-p[k] - sum(c[i] * p[k - i] for i in range(1, k)), k)
        if rem:
            raise ArithmeticError("Newton's identities gave an inexact division")
        c.append(q)
    return IntPolynomial(reversed(c))


# ---------------------------------------------------------------------------
# resultants (subresultant polynomial remainder sequence)


def _prem(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b."""
    r = list(a)
    db = len(b) - 1
    blc = b[-1]
    e = len(a) - len(b) + 1
    while len(r) - 1 >= db and any(r):
        c = r[-1]
        r = [blc * x for x in r]
        shift = len(r) - 1 - db
        for j in range(db + 1):
            r[shift + j] -= c * b[j]
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    return [x * blc**e for x in r]


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Res(f, g) = lc(f)^deg(g) * prod g(alpha) over the roots alpha of f.

    Computed with the subresultant PRS, so all intermediate divisions are
    exact over Z.  Constants: Res(f, c) = c^deg(f); two constants give 1.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("resultants require nonzero polynomials")
    a, b = f, g
    sign = 1
    if a.degree < b.degree:
        a, b = b, a
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -1
    if b.degree == 0:
        return sign * b.lc**a.degree
    ca, cb = a.content(), b.content()
    scale = ca**b.degree * cb**a.degree
    A = list(a.primitive().coeffs)
    B = list(b.primitive().coeffs)
    g_, h = 1, 1
    while True:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        R = _prem(A, B)
        A = B
        div = g_ * h**delta
        B = [c // div for c in R]
        g_ = A[-1]
        if delta > 0:
            h = g_**delta // h ** (delta - 1)
        if not B:
            return 0
        if len(B) - 1 == 0:
            break
    da = len(A) - 1
    res = B[0] ** da // h ** (da - 1)
    return sign * scale * res


# ---------------------------------------------------------------------------
# resultants against every Φ_s at once (split primes and the CRT)

_LIMB = 24  # coefficients are cut into 24-bit limbs; split primes lie below 2^25
_BLOCK = 8  # products summed before one reduction (see _reduce)
_CRT_BLOCK = 32  # primes whose CRT weights are held at once
_CHUNK = 1 << 14  # entries of a chunk of powers of f(ζ) held at once (see _norm_residues)
_SIEVE_BASE = _sieve(math.isqrt(1 << (_LIMB + 1)))  # every composite below 2^25 has a factor here
# the window's bottom, above every prime of _SIEVE_BASE: the sieve strikes
# out no base prime itself, and every base a of _cyclotomic_roots is a unit
_FLOOR = 1 << 13


def _reduce(x: np.ndarray, ell: np.ndarray, inv: np.ndarray, out=None) -> np.ndarray:
    """x mod ℓ as a symmetric residue, of magnitude at most (ℓ + 1)/2 <= 2^24,
    for integers |x| < 2^52 held in doubles, odd ℓ < 2^25 and ``inv`` the
    doubles nearest 1/ℓ.

    x * inv has a relative error below 2^-52 + 2^-106, so it misses x/ℓ by
    less than 1/ℓ, and rint gives a q with |x - q ℓ| < ℓ/2 + 1; |q ℓ| < 2^53,
    so q ℓ and x - q ℓ are exact.  Every operand of the kernel is such a
    residue or a 24-bit limb, so a product is at most 2^48, and a sum of at
    most _BLOCK + 1 products is below 2^52: every integer the kernel forms
    is exact in a double, in whatever order BLAS sums a matrix product;
    ``out``, if given, takes the residues and may be x itself."""
    q = x * inv
    np.rint(q, out=q)
    q *= ell
    return np.subtract(x, q, out=q if out is None else out)


def _held_bits(primes) -> np.ndarray:
    """0, then the bits the product of each prefix of ``primes`` surely
    holds: the sum of bit_length(ℓ) - 1 over the prefix."""
    return np.cumsum(np.frexp(np.concatenate([[1], primes]))[1] - 1)


def _segments():
    """(lo, hi, 1 or -1): the window of split primes in segments, each
    twice as long as the last, [2^24, 2^25) upward, then [2^13, 2^24)
    downward, so that the largest primes come first."""
    lo, width = 1 << _LIMB, 1 << 16
    while lo < 1 << (_LIMB + 1):
        yield lo, min(lo + width, 1 << (_LIMB + 1)), 1
        lo, width = lo + width, 2 * width
    hi, width = 1 << _LIMB, 1 << 16
    while hi > _FLOOR:
        yield max(hi - width, _FLOOR), hi, -1
        hi, width = hi - width, 2 * width


def _split_primes(bits: Dict[int, int]) -> Dict[int, List[int]]:
    """Primes ℓ ≡ 1 (mod s), for every s, in the order of _segments, until
    their product holds ``bits[s]`` bits (see _held_bits); an s falls short
    when the window below 2^25 holds too few.  Φ_s splits into linear
    factors mod each ℓ.  One sieve of Eratosthenes by the primes below
    2^12.5 serves every s: it covers the window a segment at a time, until
    every s has its primes, and an s reads its class 1 + k s off a segment
    as a strided view."""
    found: Dict[int, List[int]] = {s: [] for s in bits}
    held = dict.fromkeys(bits, 0)
    segments = _segments()
    while (short := [s for s in bits if held[s] < bits[s]]) and (seg := next(segments, None)):
        lo, hi, step = seg
        prime = np.ones(hi - lo, dtype=bool)
        for p in _SIEVE_BASE:
            prime[-lo % p :: p] = False
        for s in short:
            first = (1 - lo) % s  # the offset of the segment's first 1 + k s
            ells = (lo + first + s * np.flatnonzero(prime[first::s]))[::step]
            have = held[s] + _held_bits(ells)
            take = int(np.searchsorted(have, bits[s]))  # the primes that reach bits[s]
            found[s] += ells[:take].tolist()
            held[s] = int(have[min(take, len(ells))])
    return found


def _pow_mod(base: np.ndarray, e: np.ndarray, ell: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """base^e mod ℓ elementwise, by squaring, for integer exponents e >= 0;
    the arguments broadcast together, and the powers are _reduce residues."""
    out = np.ones(np.broadcast_shapes(np.shape(base), e.shape, ell.shape))
    while e.any():
        out = np.where(e & 1, _reduce(out * base, ell, inv), out)
        base, e = _reduce(base * base, ell, inv), e >> 1
    return out


def _cyclotomic_roots(ss: Sequence[int], counts: Sequence[int], ell: np.ndarray,
                      inv: np.ndarray) -> np.ndarray:
    """A primitive s-th root of unity ζ mod each prime ℓ ≡ 1 (mod s): the
    first ``counts[0]`` primes of ``ell`` are those of ``ss[0]``, the next
    ``counts[1]`` those of ``ss[1]``, and so on.  Its powers ζ^k,
    gcd(k, s) = 1, are the phi(s) roots of Φ_s mod ℓ.

    ζ = a^((ℓ-1)/s) is an s-th root of unity, primitive unless ζ^(s/q) = 1
    for a prime q | s.  The prime a are raised and tested a batch at a
    time, one a, then two, four and eight, so that an ℓ whose first a
    passes raises no other, and each prime ℓ still without a root takes
    the first a that passes."""
    primes = [factorize(s).primes() for s in ss]
    width = max(map(len, primes), default=0)
    # s/q for each prime q | s, 0 (no test) past the last q
    tests = np.repeat([[s // q for q in qs] + [0] * (width - len(qs)) for s, qs in zip(ss, primes)],
                      counts, axis=0).reshape(len(ell), 1, width)
    order, ell, inv = np.repeat(ss, counts)[:, None], ell[:, None], inv[:, None]
    zeta = np.empty(len(ell))
    todo, tried, batch = np.arange(len(ell)), 0, 1
    while todo.size:
        a = np.array(_SIEVE_BASE[tried : tried + batch], dtype=float)
        tried, batch = tried + len(a), min(2 * batch, 8)
        m, mi = ell[todo], inv[todo]
        roots = _pow_mod(a, (m.astype(np.int64) - 1) // order[todo], m, mi)  # (ℓ, a)
        e = tests[todo]
        powers = _pow_mod(roots[:, :, None], e, m[:, :, None], mi[:, :, None])  # (ℓ, a, q)
        primitive = ((powers != 1) | (e == 0)).all(axis=2)
        done = primitive.any(axis=1)
        zeta[todo[done]] = roots[done, primitive[done].argmax(axis=1)]
        todo = todo[~done]
    return zeta


def _crt_blocks(lists: Sequence[Sequence[int]]) -> Iterator[List[Tuple[List[int], List[int], int]]]:
    """Per list of primes, in turn, per block of _CRT_BLOCK of them: the
    products of its prefixes, the weights that are 1 mod one of its primes
    and 0 mod the others, and the inverse mod the block's product m of the
    product M of the primes before it.  A weight is m/ℓ times the inverse
    of m/ℓ mod ℓ, and the block's weights, summed against the inverses of M
    mod its primes, give M^-1 mod m.  Every inverse mod a prime, of every
    list, is a^(ℓ - 2) mod ℓ, from one vectorized power up front; the
    products are built again per list, so that one list's are held at once."""
    units, moduli = [], []
    for l in lists:
        M = 1
        for lo in range(0, len(l), _CRT_BLOCK):
            block = l[lo : lo + _CRT_BLOCK]
            m = math.prod(block)
            units += [m // p % p for p in block] + [M % p for p in block]
            moduli += block + block
            M *= m
    ell = np.array(moduli, dtype=float)
    inv = _pow_mod(np.array(units, dtype=float), ell.astype(np.int64) - 2, ell, 1 / ell)
    inv = iter((inv.astype(np.int64) % ell.astype(np.int64)).tolist())
    for l in lists:
        per = []
        for lo in range(0, len(l), _CRT_BLOCK):
            products = list(itertools.accumulate(l[lo : lo + _CRT_BLOCK], operator.mul))
            weights = [products[-1] // p * next(inv) for p in l[lo : lo + _CRT_BLOCK]]
            per.append((products, weights, sum(w * next(inv) for w in weights) % products[-1]))
        yield per


def _crt(rows: Sequence[Sequence[int]], blocks) -> List[int]:
    """The symmetric integer with a row's residues mod the first len(row)
    primes, for each row (Collins, JACM 18, 1971), from the _crt_blocks of
    the primes: a block's weights give a y with its residues, and
    x + M ((y - x) M^-1 mod m), M the product of the primes before the
    block, lifts x from mod M to mod M m.  A block's weights, and its
    inverse, still serve a prefix of it, mod the prefix's product.  The
    first block's y is the value mod its product: a row of at most
    _CRT_BLOCK primes takes one weighted sum and one reduction."""
    out = []
    (products, weights, _), rest = blocks[0], blocks[1:]
    for row in rows:
        M = products[min(len(row), _CRT_BLOCK) - 1]
        x = sum(map(operator.mul, row, weights)) % M
        for lo, (prods, ws, inv) in zip(range(_CRT_BLOCK, len(row), _CRT_BLOCK), rest):
            m = prods[min(len(row) - lo, _CRT_BLOCK) - 1]
            x += M * ((sum(map(operator.mul, row[lo : lo + _CRT_BLOCK], ws)) - x) * inv % m)
            M *= m
        out.append(x - M if 2 * x > M else x)
    return out


def _powers(x: np.ndarray, count: int, m: np.ndarray, mi: np.ndarray) -> np.ndarray:
    """x^0 .. x^(count - 1) mod ℓ along a new first axis, by doubling: the
    powers below w times x^w are those below 2w."""
    powers, w = np.empty((count,) + x.shape), 2
    powers[0], powers[1:2] = 1, x
    while w < count:
        top, block = _reduce(powers[w - 1] * x, m, mi), powers[w : 2 * w]
        _reduce(np.multiply(powers[: len(block)], top, out=block), m, mi, out=block)
        w *= 2
    return powers


def _norm_bits(folded: List[List[List[int]]], ks: Sequence[Sequence[int]], cg: np.ndarray,
               rev: np.ndarray, degs: np.ndarray) -> np.ndarray:
    """Per (n, f, g), bits above log2 |prod g(f(ζ))| + 1 over ζ = e^(2πik/n),
    k in ks[n - 1], for each f mod X^n - 1 of folded[min(n, len(folded)) - 1]
    and each g of the columns of ``cg``, whose |g_(deg g - j)| ``rev``
    holds; one pass over the roots of every n.  U >= |f(ζ)| is f(ζ) in
    doubles, the coefficients scaled by 2^-e to a sum N of magnitudes below
    2^512, plus (m + 8) 2^-48 N for m of them (cos, sin, coefficients and
    sums round within that), capped at N and rounded up by 2^-50.  Then
    |g(f(ζ))| <= sum |g_j| U^j, summed as it stands if U < 1 and as
    U^(deg g) sum |g_(deg g - j)| U^-j if not, the powers of min(U, 1/U)
    being 2^(-j |log2 U|): no term leaves the doubles.  2^-20
    (|log2 sum| + 1) bits per ζ cover the sums' rounding."""
    phi = [len(k) for k in ks]
    n = np.repeat(np.arange(1, len(ks) + 1), phi)[:, None]  # each root's n
    width = len(folded[-1][0])
    theta = 2 * np.pi / n * (np.concatenate(ks)[:, None] * np.arange(width) % n)  # (ζ, j)
    norms = [[sum(map(abs, cs)) for cs in per] for per in folded]
    shifts = [[max(0, N.bit_length() - 512) for N in row] for row in norms]
    c = np.array([[[x / (1 << e) for x in cs] + [0.0] * (width - len(cs)) for cs, e in zip(per, row)]
                  for per, row in zip(folded, shifts)])  # (fold, f, j)
    top = np.array([[N / (1 << e) for N, e in zip(*z)] for z in zip(norms, shifts)]) * (1 + 2.0**-50)
    slack = (np.arange(1, len(folded) + 1) + 8)[:, None] * 2.0**-48 * top  # m = fold + 1 terms
    i = np.minimum(n[:, 0], len(folded)) - 1
    u = np.hypot(*((c[i] * trig(theta)[:, None]).sum(axis=2) for trig in (np.cos, np.sin)))
    with np.errstate(divide="ignore"):  # log2 0 = -inf where f ≡ 0 mod X^n - 1
        logu = np.log2(np.minimum(u + slack[i], top[i]) * (1 + 2.0**-50)) + np.array(shifts)[i]
    at = np.cumsum(phi) - phi  # each n's first root
    bound = np.empty((len(ks),) + logu.shape[1:] + (len(degs),))
    for f, lu in enumerate(logu.T[:, :, None]):  # (ζ, 1) for each f
        big = lu >= 0
        t = np.exp2(-np.minimum(np.abs(lu), 1100) * np.arange(len(cg)))  # 2^-1100 is 0
        sums = np.where(big, t @ rev, t @ np.abs(cg))
        per = np.log2(np.maximum(sums, 2.0**-900)) + np.where(big, lu, 0) * degs
        bound[:, f] = np.ceil(np.add.reduceat(per, at) + 2.0**-20 * np.add.reduceat(np.abs(per) + 1, at))
    return np.maximum(bound, 0).astype(np.int64) + 1


def _root_values(folded: List[List[List[int]]], ks: Sequence[Sequence[int]], ell: np.ndarray,
                 zeta: np.ndarray, counts: Sequence[int]) -> List[np.ndarray]:
    """f(ζ^k) mod ℓ for each n, as a (k, ℓ, f) array over k in ks[n - 1],
    the primes ℓ of n, ζ their roots, and each f mod X^n - 1 of
    folded[min(n, len(folded)) - 1]: the first counts[0] primes of ``ell``
    are those of n = 1, the next counts[1] those of n = 2, and so on.  f's
    24-bit limbs are reduced eight at a time mod every ℓ.  Then the n are
    taken in pieces, as many as fit in about _CHUNK values, or one, so that
    no array outgrows a chunk's: a doubling gives the powers of the piece's
    ζ, and one Horner pass runs over all its (n, k, ℓ) entries, the shorter
    foldings padded with leading zeros."""
    inv = 1 / ell
    width = len(folded[-1][0])
    limbs = -(-max(abs(c) for per in folded for cs in per for c in cs).bit_length() // _LIMB) or 1
    digits = np.array([[[[(abs(c) >> (_LIMB * j) & (1 << _LIMB) - 1) * (-1 if c < 0 else 1)
                          for j in range(limbs)] for c in cs + [0] * (width - len(cs))]
                        for cs in per] for per in folded], dtype=float).transpose(2, 0, 1, 3)
    fold = np.minimum(np.repeat(np.arange(1, len(ks) + 1), counts), len(folded)) - 1  # each prime's
    digits = digits[:, fold]  # (coefficient, ℓ, f, limb)
    radix = _powers(_reduce(np.full_like(ell, 1 << _LIMB), ell, inv), limbs, ell, inv).T[:, None]
    coeffs = 0
    for j in range(0, limbs, _BLOCK):
        coeffs = _reduce(coeffs + (digits[..., j : j + _BLOCK] * radix[..., j : j + _BLOCK]).sum(axis=3),
                         ell[:, None], inv[:, None])  # (coefficient, ℓ, f)
    phi, counts = np.array([len(k) for k in ks]), np.asarray(counts)
    size = phi * counts  # entries per n
    ends, kflat = np.cumsum(size), np.concatenate(ks)
    kat, lat = np.cumsum(phi) - phi, np.cumsum(counts) - counts  # each n's first k and prime
    out, a = [], 0
    while a < len(phi):  # the piece of n = a + 1 .. b
        start = ends[a] - size[a]
        b = max(a + 1, int(np.searchsorted(ends, start + _CHUNK // coeffs.shape[2], "right")))
        e = np.arange(start, ends[b - 1])
        n = np.searchsorted(ends, e, side="right")  # each entry's n - 1
        kth, lth = np.divmod(e - (ends - size)[n], counts[n])
        lane = lat[n] + lth  # its prime
        lo, hi = lat[a], lat[b - 1] + counts[b - 1]  # the piece's primes
        powers = _powers(zeta[lo:hi], b, ell[lo:hi], inv[lo:hi])  # ζ^k, k < b
        root = powers.ravel().take(kflat[kat[n] + kth] * (hi - lo) + lane - lo)[:, None]
        m, mi, y = ell.take(lane)[:, None], inv.take(lane)[:, None], coeffs[-1].take(lane, axis=0)
        for c in coeffs[-2::-1]:
            y *= root
            y += c.take(lane, axis=0)
            _reduce(y, m, mi, out=y)
        pieces = np.split(y, ends[a : b - 1] - start)
        out += [v.reshape(len(k), p, y.shape[1]) for v, k, p in zip(pieces, ks[a:b], counts[a:b])]
        a = b
    return out


def _norm_residues(y: np.ndarray, ell: np.ndarray, cg: np.ndarray, degs: np.ndarray,
                   take: np.ndarray) -> np.ndarray:
    """prod g(y) over the first axis of y, the (ζ, ℓ, f) residues f(ζ^k)
    mod each prime ℓ of ``ell``, as (f, g, ℓ) residues on the first
    take[f, g] primes of each f and g (see _norm_bits), 0 past them.  In
    chunks of about _CHUNK entries, the powers of y meet each g that needs
    the chunk's primes in one matrix product, whose sums of |g|_1 residues
    stay below 2^51; a chunk takes only the f that need its primes."""
    step = max(1, _CHUNK // y[:, 0].size // len(cg))  # primes per chunk
    los = range(0, int(take.max()), step)
    need = take > np.array(los)[:, None, None]  # (chunk, f, g)
    fs, gs = need.any(axis=2), need.any(axis=1)
    widths = (np.where(gs, degs, -1).max(axis=1) + 1).tolist()
    out = np.zeros(take.shape + (len(ell),))
    for lo, rows, cols, width in zip(los, map(np.flatnonzero, fs), map(np.flatnonzero, gs), widths):
        m = np.repeat(ell[lo : lo + step], len(rows))
        mi = 1 / m
        powers = _powers(y[:, lo : lo + step, rows].reshape(len(y), -1), width, m, mi)
        values = (powers.reshape(width, -1).T @ cg[:width, cols]).reshape(len(y), -1, len(cols))
        m, mi = m[:, None], mi[:, None]
        z = len(_reduce(values, m, mi, out=values))  # (ζ, ℓ f, g)
        while z > 1:  # the product over ζ, folding the top half onto the bottom
            h = values[: z // 2]
            _reduce(np.multiply(h, values[z - len(h) : z], out=h), m, mi, out=h)
            z -= len(h)
        value = values[0].reshape(-1, len(rows), len(cols))  # (ℓ, f, g)
        out[rows[:, None], cols, lo : lo + step] = value.transpose(1, 2, 0)
    return out


def cyclotomic_norms(fs: Sequence[IntPolynomial], gs: Sequence[IntPolynomial],
                     n_max: int) -> List[List[List[int]]]:
    """Res(Φ_n, g∘f) = prod g(f(ζ)) over the primitive n-th roots of unity
    ζ, for every f of ``fs``, n <= n_max and g of ``gs``, as
    ``out[i][n - 1][k]`` for fs[i] and gs[k]; equal to
    ``resultant(cyclotomic_charpoly(f, n), g)``.

    These are norms from Q(ζ_n).  Mod a prime ℓ ≡ 1 (mod n) the ζ are the
    powers ζ^k, gcd(k, n) = 1, of one root, and each (f, n, g) takes the
    first such primes that hold its _norm_bits, then the CRT, or, past the
    primes below 2^25, the subresultant PRS of χ_n.  The bounds, the primes,
    their roots, the values f(ζ^k) and the CRT weights each come from one
    pass over every n; the chunks of the norms and the CRT run per n.  Every
    g needs |g|_1 2^25 < 2^52, so that the kernel's sums stay exact (see
    _reduce)."""
    if any(P.is_zero for P in (*fs, *gs)):
        raise ZeroPolynomial("resultants require nonzero polynomials")
    if not 1 <= n_max <= MAX_CYCLOTOMIC_INDEX:
        raise OutOfRange("cyclotomic index must satisfy 1 <= n <= %d" % MAX_CYCLOTOMIC_INDEX)
    if any(sum(map(abs, g.coeffs)) << 25 >= 1 << 52 for g in gs):
        raise OutOfRange("every g needs |g|_1 * 2^25 < 2^52, for exact float64 sums")
    out = [[[0] * len(gs) for _ in range(n_max)] for _ in fs]
    if not fs or not gs:
        return out
    degs = np.array([g.degree for g in gs])
    cg, rev = np.zeros((2, degs.max() + 1, len(gs)))  # g_j and |g_(deg g - j)| in g's column
    for k, g in enumerate(gs):
        cg[: g.degree + 1, k], rev[: g.degree + 1, k] = g.coeffs, np.abs(g.coeffs[::-1])
    ns, most = range(1, n_max + 1), max(len(f.coeffs) for f in fs)
    ks = [[k for k in range(n) if math.gcd(k, n) == 1] for n in ns]
    # f mod X^n - 1, up to the longest f: past it, f mod X^n - 1 is f, padded with zeros
    folded = [[[sum(f.coeffs[i::n]) for i in range(n)] for f in fs] for n in ns[:most]]
    bits = _norm_bits(folded, ks, cg, rev, degs)  # (n, f, g)
    primes = _split_primes(dict(zip(ns, bits.max(axis=(1, 2)).tolist())))
    lists = [primes[n] for n in ns]
    counts = np.array([len(l) for l in lists])
    ells = np.array([l for ls in lists for l in ls], dtype=float)
    held, first = _held_bits(ells), np.cumsum(counts) - counts
    take = np.searchsorted(held, held[first][:, None, None] + bits) - first[:, None, None]
    past = take > counts[:, None, None]  # too few primes below 2^25: the PRS
    for n, a in np.argwhere(past.any(axis=2)).tolist():
        chi = cyclotomic_charpoly(fs[a], n + 1)
        out[a][n] = [resultant(chi, g) if p else 0 for g, p in zip(gs, past[n, a])]
    take[past] = 0
    zeta = _cyclotomic_roots(ns, counts, ells, 1 / ells)
    values = _root_values(folded, ks, ells, zeta, counts)
    blocks = _crt_blocks(lists)
    for n, ell, y, t, per in zip(ns, np.split(ells, np.cumsum(counts)), values, take, blocks):
        if len(ell):
            res = _norm_residues(y, ell, cg, degs, t)
            i, k = np.nonzero(t)  # the cells of the CRT, and their primes
            need = t[i, k].tolist()
            flat = res[i, k][np.arange(len(ell)) < t[i, k, None]].astype(np.int64).tolist()
            rows = [flat[e - c : e] for e, c in zip(itertools.accumulate(need), need)]
            for a, b, x in zip(i.tolist(), k.tolist(), _crt(rows, per)):
                out[a][n - 1][b] = x
    return out


def cyclotomic_resultants(polys: Sequence[IntPolynomial], s_max: int) -> List[List[int]]:
    """Res(P, Φ_s) for every nonzero P of ``polys`` and every s <= s_max, as
    ``out[i][s - 1]`` for ``polys[i]``; equal to ``resultant(P, cyclotomic(s))``.
    Φ_s is monic, so that is (-1)^(deg P phi(s)) times the norm prod P(β)
    over its roots β, from ``cyclotomic_norms`` with f = P and g = X."""
    table = cyclotomic_norms(polys, [X], s_max)
    return [[-x if P.degree * euler_phi(s) % 2 else x for s, (x,) in enumerate(rows, 1)]
            for P, rows in zip(polys, table)]


# ---------------------------------------------------------------------------
# heights


def height(f: IntPolynomial) -> float:
    """Logarithmic Weil height: log of the max |coefficient| of the
    primitive part (content divided out)."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no height")
    c = f.content()
    return math.log(max(abs(a) // c for a in f.coeffs))


def system_height(polys: Sequence[IntPolynomial]) -> float:
    """Max height over a nonempty family of generators."""
    if not polys:
        raise EmptySystem("a generator system needs at least one polynomial")
    return max(height(f) for f in polys)


def composition_height_bound(n: int, d: int, h_f: float) -> float:
    """Height bound for an n-fold composition of degree-d generators of
    system height h_f:  ((d^n-1)/(d-1)) h_f + d^2 ((d^(n-1)-1)/(d-1)) log 8.
    """
    if n < 1 or d < 2:
        raise OutOfRange("need n >= 1 and d >= 2")
    lead = (d**n - 1) // (d - 1)
    tail = d * d * ((d ** (n - 1) - 1) // (d - 1))
    return lead * h_f + tail * math.log(8)


# ---------------------------------------------------------------------------
# Chebyshev normal forms and linear conjugacy


def chebyshev(d: int) -> IntPolynomial:
    """Normalized Chebyshev form: T~_1 = X, T~_2 = X^2 - 2, and
    T~_(d+1) = X * T~_d - T~_(d-1)."""
    if d < 1:
        raise OutOfRange("chebyshev index must be >= 1")
    prev = IntPolynomial((2,))
    cur = X
    for _ in range(d - 1):
        prev, cur = cur, X * cur - prev
    return cur


MONOMIAL_CONJUGATE = "monomial_conjugate"
CHEBYSHEV_CONJUGATE = "chebyshev_conjugate"
NON_SPECIAL = "non_special"


@dataclass(frozen=True)
class SpecialClassification:
    """Outcome of the rational linear-conjugacy test.

    ``witness`` is (alpha, beta) for L(X) = alpha*X + beta such that
    L^(-1) o f o L equals ``normal_form`` exactly over Q.
    """

    kind: str
    witness: Optional[Tuple[Fraction, Fraction]] = None
    normal_form: Optional[IntPolynomial] = None


def conjugate_linear(
    f: IntPolynomial, alpha: Fraction, beta: Fraction
) -> Tuple[Fraction, ...]:
    """Coefficients of L^(-1) o f o L for L(X) = alpha*X + beta, over Q: the
    X^j coefficient of f(X + beta) - beta, times alpha^(j-1)."""
    if alpha == 0:
        raise OutOfRange("conjugation requires alpha != 0")
    alpha, beta = Fraction(alpha), Fraction(beta)
    h = _centered(f, beta) if f.coeffs else (-beta,)
    return tuple(c * alpha ** (j - 1) for j, c in enumerate(h))


def _centered(f: IntPolynomial, beta: Fraction) -> Tuple[Fraction, ...]:
    """The coefficients of f(X + beta) - beta for a nonzero f, exactly,
    shifting in integers.

    With beta = n/D, G(Z) = D^d f(Z/D) has integer coefficients, and
    G(Z + n) = D^d f(Z/D + beta): its Taylor shift by n, O(d^2) integer steps
    of Horner's rule, holds D^(d-j) times the X^j coefficient of f(X + beta).
    """
    n, D, d = beta.numerator, beta.denominator, f.degree
    shifted = [f.lc]
    for j in range(d - 1, -1, -1):  # shifted <- shifted * (Z + n) + D^(d-j) f_j
        shifted = ([f.coeff(j) * D ** (d - j) + n * shifted[0]]
                   + [a + n * b for a, b in zip(shifted, shifted[1:])] + [shifted[-1]])
    h = [Fraction(g, D ** (d - j)) for j, g in enumerate(shifted)]
    h[0] -= beta
    return tuple(h)


def _iroot(n: int, k: int) -> Optional[int]:
    """Exact integer k-th root of n >= 0, or None."""
    if n < 0:
        return None
    if n in (0, 1):
        return n
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    for cand in (r, r + 1):
        if cand**k == n:
            return cand
    return None


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    a = _iroot(x.numerator, 2)
    b = _iroot(x.denominator, 2)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def is_special(f: IntPolynomial) -> SpecialClassification:
    """Classify f up to rational linear conjugacy against X^d and +-T~_d.

    The unique centering translation (killing the X^(d-1) coefficient) is
    applied first; a monomial class then shows up as an exact monomial, and
    a Chebyshev class as a rational rescaling of +-T~_d.  Detection is over
    Q only: conjugations that need an irrational scaling are not found.
    """
    d = f.degree
    if d < 2:
        raise DegreeTooSmall("classification requires degree >= 2")
    ad = f.lc
    beta = Fraction(-f.coeff(d - 1), d * ad)
    h = _centered(f, beta) if beta else tuple(map(Fraction, f.coeffs))
    # monomial branch: the centered form must be exactly a_d * X^d
    if all(h[i] == 0 for i in range(d)):
        alpha = _scaling_to_monic(ad, d)
        if alpha is not None:
            return SpecialClassification(
                MONOMIAL_CONJUGATE, (alpha, beta), IntPolynomial.x_power(d)
            )
        return SpecialClassification(
            MONOMIAL_CONJUGATE, (Fraction(1), beta), IntPolynomial.x_power(d, ad)
        )
    # Chebyshev branch: h(sigma X)/sigma = eps * T~_d needs
    # sigma^2 = -h_(d-2) / (d * a_d) and h_j sigma^(j-1) = eps * t_j.
    if h[d - 2] != 0:
        sigma2 = Fraction(-h[d - 2], d) / ad
        sigma = _rational_sqrt(sigma2)
        if sigma is not None and sigma != 0:
            t = chebyshev(d)  # O(d^2) as well: built only once σ is known
            for cand in (sigma, -sigma):
                eps = ad * cand ** (d - 1)
                if eps in (1, -1) and all(
                    h[j] * cand ** (j - 1) == eps * t.coeff(j) for j in range(d + 1)
                ):
                    normal = t if eps == 1 else -t
                    return SpecialClassification(
                        CHEBYSHEV_CONJUGATE, (cand, beta), normal
                    )
    return SpecialClassification(NON_SPECIAL)


def _scaling_to_monic(ad: int, d: int) -> Optional[Fraction]:
    """alpha with alpha^(d-1) = 1/ad, if one exists in Q (alpha = 1/w with
    w^(d-1) = ad)."""
    if ad < 0 and d % 2:  # an even root of a negative number
        return None
    w = _iroot(abs(ad), d - 1)
    return None if w is None else Fraction(1, -w if ad < 0 else w)


# ---------------------------------------------------------------------------


def reduce_mod(f: IntPolynomial, ctx: FieldContext) -> FieldPolynomial:
    """Reduction of f into the prime subfield of ctx; degree may drop."""
    return FieldPolynomial(ctx, f.coeffs)
