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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    for a prime q | s.  Eight prime a are raised and tested at once, and
    each prime ℓ still without a root takes the first a that passes."""
    primes = [factorize(s).primes() for s in ss]
    width = max(map(len, primes), default=0)
    # s/q for each prime q | s, 0 (no test) past the last q
    tests = np.repeat([[s // q for q in qs] + [0] * (width - len(qs)) for s, qs in zip(ss, primes)],
                      counts, axis=0).reshape(len(ell), 1, width)
    order, ell, inv = np.repeat(ss, counts)[:, None], ell[:, None], inv[:, None]
    zeta = np.empty(len(ell))
    todo, tried = np.arange(len(ell)), 0
    while todo.size:
        a = np.array(_SIEVE_BASE[tried : tried + 8], dtype=float)
        tried += len(a)
        m, mi = ell[todo], inv[todo]
        roots = _pow_mod(a, (m.astype(np.int64) - 1) // order[todo], m, mi)  # (ℓ, a)
        e = tests[todo]
        powers = _pow_mod(roots[:, :, None], e, m[:, :, None], mi[:, :, None])  # (ℓ, a, q)
        primitive = ((powers != 1) | (e == 0)).all(axis=2)
        done = primitive.any(axis=1)
        zeta[todo[done]] = roots[done, primitive[done].argmax(axis=1)]
        todo = todo[~done]
    return zeta


def _crt_blocks(primes: Sequence[int]) -> List[Tuple[List[int], List[int], int]]:
    """Per block of _CRT_BLOCK primes: the products of its prefixes, the
    weights that are 1 mod one of its primes and 0 mod the others, and the
    inverse mod the block's product of the product of the primes before it."""
    out, before = [], 1
    for lo in range(0, len(primes), _CRT_BLOCK):
        block = primes[lo : lo + _CRT_BLOCK]
        products = list(itertools.accumulate(block, operator.mul))
        m = products[-1]
        out.append((products, [m // l * pow(m // l, -1, l) for l in block], pow(before, -1, m)))
        before *= m
    return out


def _crt(rows: Sequence[Sequence[int]], blocks) -> List[int]:
    """The symmetric integer with a row's residues mod the first len(row)
    primes, for each row (Collins, JACM 18, 1971), from the _crt_blocks of
    the primes: a block's weights give a y with its residues, and x + M
    ((y - x) M^-1 mod m), M the product of the primes before the block,
    lifts x from mod M to mod M m.  A block's weights, and its inverse,
    still serve a prefix of it, mod the prefix's product."""
    out = []
    for row in rows:
        x, M = 0, 1
        for lo, (products, weights, inv) in zip(range(0, len(row), _CRT_BLOCK), blocks):
            m = products[min(len(row) - lo, _CRT_BLOCK) - 1]
            x += M * ((sum(map(operator.mul, row[lo : lo + _CRT_BLOCK], weights)) - x) * inv % m)
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


def _norm_bits(folded: List[List[int]], n: int, ks: Sequence[int], cg: np.ndarray,
               rev: np.ndarray, degs: np.ndarray) -> np.ndarray:
    """Per (f, g), bits above log2 |prod g(f(ζ))| + 1 over ζ = e^(2πik/n),
    k in ``ks``, for each f mod X^n - 1 of ``folded`` and each g of the
    columns of ``cg``, whose |g_(deg g - j)| ``rev`` holds.  U >= |f(ζ)| is
    f(ζ) in doubles, the coefficients scaled by 2^-e to a sum N of
    magnitudes below 2^512, plus (m + 8) 2^-48 N for m of them (cos, sin,
    coefficients and sums round within that), capped at N and rounded up
    by 2^-50.  Then |g(f(ζ))| <= sum |g_j| U^j, summed as it stands if
    U < 1 and as U^(deg g) sum |g_(deg g - j)| U^-j if not, the powers of
    min(U, 1/U) being 2^(-j |log2 U|): no term leaves the doubles.  2^-20
    (|log2 sum| + 1) bits per ζ cover the sums' rounding."""
    m = len(folded[0])
    theta = 2 * np.pi / n * (np.outer(ks, np.arange(m)) % n)  # (ζ, j)
    norms = [sum(map(abs, cs)) for cs in folded]
    shifts = [max(0, N.bit_length() - 512) for N in norms]
    c = np.array([[x / (1 << e) for x in cs] for cs, e in zip(folded, shifts)]).T  # (j, f)
    top = np.array([N / (1 << e) for N, e in zip(norms, shifts)]) * (1 + 2.0**-50)
    u = np.hypot(np.cos(theta) @ c, np.sin(theta) @ c) + (m + 8) * 2.0**-48 * top
    with np.errstate(divide="ignore"):  # log2 0 = -inf where f ≡ 0 mod X^n - 1
        logu = (np.log2(np.minimum(u, top) * (1 + 2.0**-50)) + shifts).T[:, :, None]  # (f, ζ, 1)
    big = logu >= 0
    t = np.exp2(-np.minimum(np.abs(logu), 1100) * np.arange(len(cg)))  # 2^-1100 is 0
    sums = np.where(big, t @ rev, t @ np.abs(cg))
    per = np.log2(np.maximum(sums, 2.0**-900)) + np.where(big, logu, 0) * degs
    bound = np.ceil(per.sum(axis=1) + 2.0**-20 * (np.abs(per) + 1).sum(axis=1))
    return np.maximum(bound, 0).astype(np.int64) + 1


def _norm_residues(folded: List[List[int]], ks: Sequence[int], ell: np.ndarray,
                   zeta: np.ndarray, cg: np.ndarray, take: np.ndarray) -> np.ndarray:
    """prod g(f(ζ^k)) over k in ``ks`` mod each prime ℓ of ``ell``, ζ its
    root, as (ℓ, f, g) residues on the first take[f, g] primes of each f and
    g (see _norm_bits).  f's 24-bit limbs are reduced eight to a matrix
    product and y = f(ζ^k) taken by Horner; then, in chunks of about _CHUNK
    entries, the powers of y meet each g that needs the chunk's primes in
    one matrix product, whose sums of |g|_1 residues stay below 2^51."""
    inv = 1 / ell
    roots = _powers(zeta, ks[-1] + 1, ell, inv)[ks, :, None]  # (ζ, ℓ, 1)
    limbs = -(-max(abs(c) for cs in folded for c in cs).bit_length() // _LIMB) or 1
    digits = np.array([[[(abs(c) >> (_LIMB * j) & (1 << _LIMB) - 1) * (-1 if c < 0 else 1)
                         for j in range(limbs)] for c in cs] for cs in folded], dtype=float)
    radix = _powers(_reduce(np.full_like(ell, 1 << _LIMB), ell, inv), limbs, ell, inv)  # (limb, ℓ)
    coeffs = digits[:, :, :_BLOCK] @ radix[:_BLOCK]
    for j in range(_BLOCK, limbs, _BLOCK):
        coeffs = _reduce(coeffs, ell, inv) + digits[:, :, j : j + _BLOCK] @ radix[j : j + _BLOCK]
    coeffs = _reduce(coeffs, ell, inv).transpose(1, 2, 0)  # (coefficient, ℓ, f)
    y = coeffs[-1] * np.ones_like(roots)  # (ζ, ℓ, f)
    for c in coeffs[-2::-1]:
        y = _reduce(y * roots + c, ell[:, None], inv[:, None])
    step = max(1, _CHUNK // y[:, 0].size // len(cg))  # primes per chunk
    out = np.zeros((len(ell),) + take.shape)
    for lo in range(0, take.max(), step):
        rows = np.flatnonzero(take.max(axis=1) > lo)  # the f and g that need these primes
        cols = np.flatnonzero(take[rows].max(axis=0) > lo)
        width = int(np.flatnonzero(cg[:, cols].any(axis=1))[-1]) + 1
        m = np.repeat(ell[lo : lo + step], len(rows))
        powers = _powers(y[:, lo : lo + step, rows].reshape(len(ks), -1), width, m, 1 / m)
        values = (powers.reshape(width, -1).T @ cg[:width, cols]).reshape(len(ks), -1, len(cols))
        m, mi = m[:, None], 1 / m[:, None]
        z = len(_reduce(values, m, mi, out=values))  # (ζ, ℓ f, g)
        while z > 1:  # the product over ζ, folding the top half onto the bottom
            h = values[: z // 2]
            _reduce(np.multiply(h, values[z - len(h) : z], out=h), m, mi, out=h)
            z -= len(h)
        out[lo : lo + step, rows[:, None], cols] = values[0].reshape(-1, len(rows), len(cols))
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
    primes below 2^25, the subresultant PRS of χ_n.  Every g needs
    |g|_1 2^25 < 2^52, so that the kernel's sums stay exact (see _reduce)."""
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
    ks = {n: [k for k in range(n) if math.gcd(k, n) == 1] for n in ns}
    folded = {n: [[sum(f.coeffs[i::n]) for i in range(min(n, most))] for f in fs] for n in ns}
    bits = {n: _norm_bits(folded[n], n, ks[n], cg, rev, degs) for n in ns}
    primes = _split_primes({n: int(bits[n].max()) for n in ns})
    ells = np.array([l for n in ns for l in primes[n]], dtype=float)
    at = np.cumsum([len(primes[n]) for n in ns])  # the end of each n's primes
    zetas = np.split(_cyclotomic_roots(ns, np.diff(at, prepend=0), ells, 1 / ells), at)
    for n, ell, zeta in zip(ns, np.split(ells, at), zetas):
        take = np.searchsorted(_held_bits(primes[n]), bits[n])  # primes per (f, g)
        past = take > len(primes[n])  # too few primes below 2^25: the PRS
        for a in np.flatnonzero(past.any(axis=1)).tolist():
            chi = cyclotomic_charpoly(fs[a], n)
            out[a][n - 1] = [resultant(chi, g) if p else 0 for g, p in zip(gs, past[a])]
        if primes[n]:
            res = _norm_residues(folded[n], ks[n], ell, zeta, cg, np.where(past, 0, take))
            i, k = np.nonzero(~past)
            rows = [r[:t] for r, t in zip(res[:, i, k].T.astype(np.int64).tolist(), take[i, k].tolist())]
            for a, b, x in zip(i.tolist(), k.tolist(), _crt(rows, _crt_blocks(primes[n]))):
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
