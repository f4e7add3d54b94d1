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
_SIEVE_BASE = _sieve(math.isqrt(1 << (_LIMB + 1)))  # every composite below 2^25 has a factor here
# the window's bottom, above every prime of _SIEVE_BASE: the sieve strikes
# out no base prime itself, and every base a of _cyclotomic_roots is a unit
_FLOOR = 1 << 13


def _reduce(x: np.ndarray, ell: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """x mod ℓ as a symmetric residue, of magnitude at most (ℓ + 1)/2 <= 2^24,
    for integers |x| < 2^52 held in doubles, odd ℓ < 2^25 and ``inv`` the
    doubles nearest 1/ℓ.

    x * inv has a relative error below 2^-52 + 2^-106, so it misses x/ℓ by
    less than 1/ℓ, and rint gives a q with |x - q ℓ| < ℓ/2 + 1; |q ℓ| < 2^53,
    so q ℓ and x - q ℓ are exact.  Every operand of the kernel is such a
    residue or a 24-bit limb, so a product is at most 2^48, and a sum of at
    most _BLOCK + 1 products is below 2^52: every integer the kernel forms
    is exact in a double, in whatever order BLAS sums a matrix product.
    """
    q = x * inv
    np.rint(q, out=q)
    q *= ell
    return np.subtract(x, q, out=q)


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


def _crt(rows: Sequence[Sequence[int]], primes: Sequence[int], blocks) -> List[int]:
    """The symmetric integer with a row's residues mod ``primes``, for each
    row (Collins, JACM 18, 1971); ``blocks`` are the _crt_blocks of primes
    that ``primes`` begins.  A block's weights give a y with its residues,
    and x + M ((y - x) M^-1 mod m), M the product of the primes before the
    block, lifts x from mod M to mod M m.  Held one block at a time, the
    weights take memory linear in the primes; a block's weights, and its
    inverse, still serve a prefix of it, mod the prefix's product."""
    xs, M = [0] * len(rows), 1
    for lo, (products, weights, inv) in zip(range(0, len(primes), _CRT_BLOCK), blocks):
        m = products[min(len(primes) - lo, _CRT_BLOCK) - 1]
        for i, row in enumerate(rows):
            y = sum(map(operator.mul, row[lo : lo + _CRT_BLOCK], weights))
            xs[i] += M * ((y - xs[i]) * inv % m)
        M *= m
    return [x - M if 2 * x > M else x for x in xs]


def cyclotomic_resultants(polys: Sequence[IntPolynomial], s_max: int) -> List[List[int]]:
    """Res(P, Φ_s) for every nonzero P of ``polys`` and every s <= s_max, as
    ``out[i][s - 1]`` for ``polys[i]``; equal to ``resultant(P, cyclotomic(s))``.

    Φ_s is monic, so Res(P, Φ_s) = (-1)^(deg P phi(s)) prod P(β) over its
    roots β.  Mod a prime ℓ ≡ 1 (mod s) the β are phi(s) residues, and all
    P of a degree are evaluated at once, for every ℓ and β of every s with
    the same phi(s), in doubles that hold each integer formed exactly (see
    _reduce).  |prod P(β)| <= |P|_1^phi(s) < 2^(phi(s) b), b the bit length
    of the sum of |coefficients|, so primes below 2^25 whose product holds
    phi(s) b + 1 bits recover it by the CRT as a symmetric residue: about
    (phi(s) b + 1) / 24 primes above 2^24, and smaller ones after them.
    An s for which the primes below 2^25 hold too few bits takes the
    subresultant PRS.

    A coefficient is reduced mod ℓ from its signed 24-bit limbs, and P(β)
    by Horner over blocks of coefficients: each block's sum of eight
    products is a matrix product, reduced by the Horner step that takes it.
    """
    if any(P.is_zero for P in polys):
        raise ZeroPolynomial("resultants require nonzero polynomials")
    if not 1 <= s_max <= MAX_CYCLOTOMIC_INDEX:
        raise OutOfRange("cyclotomic index must satisfy 1 <= s <= %d" % MAX_CYCLOTOMIC_INDEX)
    if not polys:
        return []
    groups = {}  # degree -> (indices, norm bits, limbs as (P, coefficient, limb))
    for i, P in enumerate(polys):
        groups.setdefault(P.degree, []).append(i)
    width = min(_BLOCK, max(groups) + 1)  # coefficients per Horner block
    for deg, idx in groups.items():  # zero-padded to whole blocks
        coeffs = [polys[i].coeffs + (0,) * (-len(polys[i].coeffs) % width) for i in idx]
        n = -(-max(abs(c) for cs in coeffs for c in cs).bit_length() // _LIMB) or 1
        limbs = np.array([[[(abs(c) >> (_LIMB * j) & (1 << _LIMB) - 1) * (-1 if c < 0 else 1)
                            for j in range(n)] for c in cs] for cs in coeffs], dtype=float)
        groups[deg] = (idx, max(sum(map(abs, cs)).bit_length() for cs in coeffs), limbs)
    most_limbs = max(g[2].shape[2] for g in groups.values())
    classes = {}  # phi(s) -> each s <= s_max of it, batched along the prime axis
    for s in range(1, s_max + 1):
        classes.setdefault(euler_phi(s), []).append(s)
    need = {phi: {deg: phi * g[1] + 1 for deg, g in groups.items()} for phi in classes}  # bits
    primes = _split_primes({s: max(need[phi].values()) for phi, ss in classes.items() for s in ss})
    held = {s: _held_bits(ls) for s, ls in primes.items()}
    out = [[0] * s_max for _ in polys]
    for phi, ss in classes.items():
        for s in [s for s in ss if held[s][-1] < max(need[phi].values())]:
            ss.remove(s)  # past the window
            phi_s = cyclotomic(s)
            for i, P in enumerate(polys):
                out[i][s - 1] = resultant(P, phi_s)
    split = [s for ss in classes.values() for s in ss]  # each class's primes follow the last's
    ells = np.array([l for s in split for l in primes[s]], dtype=float)
    zetas = _cyclotomic_roots(split, [len(primes[s]) for s in split], ells, 1 / ells)
    end = 0
    for phi, ss in classes.items():
        at = np.cumsum([0] + [len(primes[s]) for s in ss])  # the rows of each s
        lo, end = end, end + at[-1]  # the class's rows of ells
        if not ss:
            continue
        ell, zeta = ells[lo:end], zetas[lo:end, None]
        inv = 1 / ell
        n, m, mi = max(ss), ell[:, None], inv[:, None]
        powers, w = np.ones((len(ell), n)), 1  # ζ^0, ..., ζ^(w-1) by doubling w
        while w < n:
            top = _reduce(powers[:, w - 1 : w] * zeta, m, mi)
            powers[:, w : 2 * w] = _reduce(powers[:, : min(w, n - w)] * top, m, mi)
            w *= 2
        coprime = [[k for k in range(s) if math.gcd(k, s) == 1] for s in ss]
        roots = np.concatenate([powers[at[j] : at[j + 1], ks] for j, ks in enumerate(coprime)])
        roots = roots[:, None]
        radix = [np.ones_like(ell)]  # 2^(24 j) mod ℓ
        while len(radix) < most_limbs:
            radix.append(_reduce(radix[-1] * (1 << _LIMB), ell, inv))
        radix = np.stack(radix)  # (limb, ℓ)
        powers = [np.ones_like(roots), roots]  # β^0, ..., β^width
        while len(powers) <= width:
            powers.append(_reduce(powers[-1] * roots, ell[:, None, None], inv[:, None, None]))
        step = powers.pop()
        table = np.concatenate(powers, axis=1)  # (ℓ, power, β)
        residues = {}  # degree -> per s, (P, ℓ)
        for deg, (idx, _, limbs) in groups.items():
            # the first primes of each s whose product holds this degree's bits
            ks = [int(np.searchsorted(held[s], need[phi][deg])) for s in ss]
            rows = np.concatenate([np.arange(a, a + k) for a, k in zip(at, ks)])
            m, mi = ell[rows], inv[rows]
            r = radix[: limbs.shape[2], rows]
            coeffs = limbs[:, :, :_BLOCK] @ r[:_BLOCK]
            for j in range(_BLOCK, len(r), _BLOCK):  # eight limbs more at a time
                coeffs = _reduce(coeffs, m, mi) + limbs[:, :, j : j + _BLOCK] @ r[j : j + _BLOCK]
            coeffs = _reduce(coeffs, m, mi)
            coeffs = coeffs.transpose(2, 0, 1).reshape(len(rows), -1, width)
            m, mi = m[:, None, None], mi[:, None, None]  # against (ℓ, P or block, β)
            # each block's value at every β, a sum of eight products that the
            # next Horner step by β^width reduces with one product more
            blocks = (coeffs @ table[rows]).reshape(len(rows), len(idx), -1, phi)
            values, lift = _reduce(blocks[:, :, -1], m, mi), step[rows]
            for b in range(blocks.shape[2] - 2, -1, -1):
                values = values * lift
                values += blocks[:, :, b]
                values = _reduce(values, m, mi)
            while values.shape[2] > 1:  # the product over β, halving the axis
                half = values.shape[2] // 2
                pairs = _reduce(values[:, :, :half] * values[:, :, half : 2 * half], m, mi)
                values = np.concatenate([pairs, values[:, :, 2 * half :]], axis=2)
            sign = -1 if deg * phi % 2 else 1
            res = sign * values[:, :, 0].T.astype(np.int64)
            residues[deg] = np.split(res, np.cumsum(ks)[:-1], axis=1)
        for j, s in enumerate(ss):  # one s's CRT weights at a time
            crt = _crt_blocks(primes[s])
            for deg, (idx, _, _) in groups.items():
                res = residues[deg][j]
                for i, x in zip(idx, _crt(res.tolist(), primes[s][: res.shape[1]], crt)):
                    out[i][s - 1] = x
    return out


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
    m = d - 1
    if m % 2 == 1:
        w = _iroot(abs(ad), m)
        if w is None:
            return None
        if ad < 0:
            w = -w
        return Fraction(1, w)
    if ad < 0:
        return None
    w = _iroot(ad, m)
    return None if w is None else Fraction(1, w)


# ---------------------------------------------------------------------------


def reduce_mod(f: IntPolynomial, ctx: FieldContext) -> FieldPolynomial:
    """Reduction of f into the prime subfield of ctx; degree may drop."""
    return FieldPolynomial(ctx, f.coeffs)
