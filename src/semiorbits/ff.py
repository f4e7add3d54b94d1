"""Exact arithmetic in prime fields F_p and extensions F_{p^s}.

Elements are coefficient vectors over a fixed monic irreducible modulus.
An extension field with q <= TABLE_CAP also keeps exp/log index tables to
a generator, which serve the array paths (evaluation, orders and the set of
elements of small order) by lookup.  The module also provides deterministic
primality testing, integer factorization (trial division plus Brent's cycle
method), multiplicative orders via the factorization of q - 1, and the set
of elements of small multiplicative order.

Desk-scale caps: s <= 16 and q = p^s <= 2^48.  Larger inputs are rejected
early so that order computations stay feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CompositeModulus,
    DegreeOutOfRange,
    OutOfRange,
    TooLarge,
    ZeroArgument,
    ZeroElement,
)

MAX_EXTENSION_DEGREE = 16
MAX_FIELD_SIZE = 1 << 48
MAX_FACTOR_ARG = 1 << 96
EVAL_BLOCK = 1 << 12  # points x polynomials per eval_indices_all pass; bounds its memory
TABLE_CAP = 1 << 12  # largest extension field that builds index tables (about 1 ms each)


def _sieve(limit: int) -> Tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i in range(limit + 1) if flags[i])


_SMALL_PRIMES = _sieve(10000)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

# Proven deterministic Miller-Rabin base sets.
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_BOUND_64 = 3317044064679887385961981  # covers n < 3.3e24 with the 13 bases
_MR_BASES_81 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASES_BIG = _sieve(100)


def _miller_rabin(n: int, bases: Iterable[int]) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test: the sieve up to 10^4, then proven
    Miller-Rabin base sets up to ~2^81."""
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIME_SET
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 1 << 64:
        return _miller_rabin(n, _MR_BASES_64)
    if n < _MR_BOUND_64:
        return _miller_rabin(n, _MR_BASES_81)
    return _miller_rabin(n, _MR_BASES_BIG)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization: ``pairs`` is ((prime, exponent), ...) ascending."""

    pairs: Tuple[Tuple[int, int], ...]
    value: int

    def primes(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


def _brent_rho(n: int) -> int:
    # Deterministic: fixed start x0 = 2 and increment sweep c = 1, 2, ...
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q_acc, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q_acc = q_acc * abs(x - y) % n
                g = math.gcd(q_acc, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError("cycle factoring failed for %d" % n)


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n, deterministic given n.

    Accepts 1 <= n < 2^96; factorize(1) has no prime pairs.
    """
    if not 1 <= n < MAX_FACTOR_ARG:
        raise OutOfRange("factorize requires 1 <= n < 2^96, got %r" % (n,))
    value = n
    counts = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    pairs = tuple(sorted(counts.items()))
    return Factorization(pairs, value)


def omega_distinct_primes(n: int) -> int:
    """Number of distinct prime divisors of |n|."""
    if n == 0:
        raise ZeroArgument("omega is undefined for 0")
    return len(factorize(abs(n)).pairs)


def euler_phi(n: int) -> int:
    if n < 1:
        raise OutOfRange("euler_phi requires n >= 1")
    out = 1
    for p, e in factorize(n).pairs:
        out *= (p - 1) * p ** (e - 1)
    return out


def _maximal_divisors(fact: Factorization, bound: int) -> List[int]:
    """The divisors d <= bound of fact.value that divide no other such divisor,
    ascending: d * p > bound or d * p does not divide the value, for every
    prime p.  Every divisor <= bound divides one of them."""
    divs = [1]
    for p, e in fact.pairs:
        divs = [d * p**i for d in divs for i in range(e + 1) if d * p**i <= bound]
    n = fact.value
    return sorted(d for d in divs if all(d * p > bound or n % (d * p) for p in fact.primes()))


def _power(mul, a, e: int):
    """a^e for e >= 1 under the product ``mul``: binary powering, left to
    right, squaring per bit after the top one and multiplying by a per set bit."""
    result = a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


def _power_indices(ctx: FieldContext, h: Tuple[int, ...], n: int) -> np.ndarray:
    """The int64 field indices of h^0 .. h^(n-1), h a coefficient tuple, by
    doubling: the digit rows of h^0 .. h^(m-1) times the s x s matrix of
    multiplication by h^m give h^m .. h^(2m-1), in int64 while s p^2 < 2^63
    and in Python ints beyond (primes above about 2^31.5)."""
    p, s = ctx.p, ctx.s
    dtype = np.int64 if s * p * p < 1 << 63 else object
    unit = [(0,) * i + (1,) + (0,) * (s - 1 - i) for i in range(s)]
    step = np.array([ctx._mul(u, h) for u in unit], dtype=dtype)
    powers = np.zeros((n, s), dtype=dtype)
    powers[0, 0] = 1
    have = 1
    while have < n:
        m = min(have, n - have)
        block = powers[have : have + m]  # written in place: no temporaries
        np.remainder(np.matmul(powers[:m], step, out=block), p, out=block)
        step = step @ step % p
        have += m
    return (powers @ np.array([p**i for i in range(s)], dtype=dtype)).astype(np.int64)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-d array a, ascending, by a sort and a
    neighbour mask: plain ``np.unique`` is far slower and imports numpy.ma."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _order(ctx: FieldContext, power, a, one) -> int:
    """Multiplicative order of the nonzero a, with x^e = ``power(x, e)``: per
    l^e exactly dividing q - 1, l is stripped from a^((q-1)/l^e) until ``one``."""
    n, order = ctx.q - 1, 1
    for ell, e in ctx.group_order_factorization().pairs:
        x = power(a, n // ell**e)
        while x != one:
            x = power(x, ell)
            order *= ell
    return order


# ---------------------------------------------------------------------------
# dense polynomial gcd over F_p, used by the irreducibility test


def _pstrip(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pgcd(a: List[int], b: List[int], p: int) -> List[int]:
    a, b = _pstrip(list(a)), _pstrip(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        db = len(b) - 1
        r = list(a)
        while len(r) - 1 >= db and _pstrip(r):
            dr = len(r) - 1
            c = r[-1] * inv % p
            for i in range(db + 1):
                r[dr - db + i] = (r[dr - db + i] - c * b[i]) % p
            r = _pstrip(r)
        a, b = b, r
    return a


# ---------------------------------------------------------------------------


class FieldContext:
    """A finite field F_{p^s} given by a monic irreducible modulus.

    Elements are represented by coefficient vectors of length s with entries
    in [0, p); the index of an element is its base-p digit value, which gives
    a deterministic enumeration order.  An extension field with q <= TABLE_CAP
    builds, on first use, exp/log tables between indices and the exponents of
    a generator (``index_tables``); the array paths read them, while prime
    fields, larger fields and the scalar element arithmetic stay on digits.
    """

    __slots__ = (
        "p",
        "s",
        "q",
        "modulus",
        "_xred",
        "_key",
        "_fact_q1",
        "_generator_idx",
        "_tables",
    )

    def __init__(self, p: int, s: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise CompositeModulus("%r is not prime" % (p,))
        if not 1 <= s <= MAX_EXTENSION_DEGREE:
            raise DegreeOutOfRange(
                "extension degree must satisfy 1 <= s <= %d" % MAX_EXTENSION_DEGREE
            )
        q = p**s
        if q > MAX_FIELD_SIZE:
            raise TooLarge("field size %d exceeds the 2^48 cap" % q)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise CompositeModulus("modulus must be monic of degree s")
        if s == 1 and modulus != (0, 1):
            raise CompositeModulus("prime fields use the modulus X")
        self.p = p
        self.s = s
        self.q = q
        self.modulus = modulus
        self._key = (p, s, modulus)
        self._fact_q1: Optional[Factorization] = None
        self._generator_idx: Optional[int] = None
        self._tables: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if s >= 2:
            row0 = tuple((-m) % p for m in modulus[:s])
            rows = [row0]
            for _ in range(s - 2):
                prev = rows[-1]
                carry = prev[s - 1]
                shifted = (0,) + prev[: s - 1]
                rows.append(
                    tuple((shifted[i] + carry * row0[i]) % p for i in range(s))
                )
            self._xred = tuple(rows)
            # Rabin's criterion on this context's own arithmetic mod f:
            # gcd(X^(p^(s/t)) - X, f) = 1 for each prime t | s, and X^(p^s) = X
            x = (0, 1) + (0,) * (s - 2)
            coprime = all(
                len(_pgcd(modulus, self._sub(self._pow(x, p ** (s // t)), x), p)) == 1
                for t, _ in factorize(s).pairs
            )
            if not coprime or self._pow(x, q) != x:
                raise CompositeModulus("modulus is reducible over F_%d" % p)
        else:
            self._xred = ()

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, FieldContext) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.s == 1:
            return "F_%d" % self.p
        return "F_%d^%d" % (self.p, self.s)

    # -- element construction ----------------------------------------------
    def element(self, value) -> "FieldElement":
        """Scalar embed an int, or build from a coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.ctx._key != self._key:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.s - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.s:
            raise ValueError("coefficient vector must have length s")
        return FieldElement(self, coeffs)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.s)

    def one(self) -> "FieldElement":
        return self.element(1)

    def from_index(self, m: int) -> "FieldElement":
        if not 0 <= m < self.q:
            raise OutOfRange("index must lie in [0, q)")
        if self.s == 1:
            return FieldElement(self, (m,))
        coeffs = []
        for _ in range(self.s):
            m, c = divmod(m, self.p)
            coeffs.append(c)
        return FieldElement(self, tuple(coeffs))

    def index(self, u: "FieldElement") -> int:
        m = 0
        for c in reversed(u.coeffs):
            m = m * self.p + c
        return m

    def elements(self) -> Iterator["FieldElement"]:
        for m in range(self.q):
            yield self.from_index(m)

    # -- coefficient-vector arithmetic ---------------------------------------
    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        p = self.p
        if self.s == 1:
            return (a[0] * b[0] % p,)
        s = self.s
        prod = [0] * (2 * s - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for t in range(2 * s - 2, s - 1, -1):
            c = prod[t] % p
            if c:
                row = self._xred[t - s]
                for i in range(s):
                    if row[i]:
                        prod[i] += c * row[i]
        return tuple(c % p for c in prod[:s])

    def _pow(self, a, e: int):
        if self.s == 1:
            return (pow(a[0], e, self.p),)
        return _power(self._mul, a, e) if e else self.element(1).coeffs

    def _inv(self, a):
        if not any(a):
            raise ZeroElement("zero is not invertible")
        return self._pow(a, self.q - 2)

    # -- group-order helpers -------------------------------------------------
    def group_order_factorization(self) -> Factorization:
        if self._fact_q1 is None:
            self._fact_q1 = factorize(self.q - 1)
        return self._fact_q1

    def multiplicative_generator(self) -> "FieldElement":
        """First generator of F_q* in index order (deterministic)."""
        if self._generator_idx is not None:
            return self.from_index(self._generator_idx)
        fact = self.group_order_factorization()
        n = self.q - 1
        one = self.one().coeffs
        for m in range(1, self.q):
            g = self.from_index(m)
            if all(self._pow(g.coeffs, n // p) != one for p in fact.primes()):
                self._generator_idx = m
                return g
        raise ArithmeticError("no generator found; field construction is broken")

    def index_tables(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(exp, log) for an extension field with q <= TABLE_CAP, else None.

        exp[i] is the index of g^i for 0 <= i < q - 1, g the
        ``multiplicative_generator``, and log[exp[i]] = i (log[0] is unused).
        Built once, by ``_power_indices``.  Raises ArithmeticError unless exp
        is a permutation of 1 .. q - 1.
        """
        if self.s == 1 or self.q > TABLE_CAP:
            return None
        if self._tables is None:
            g = self.multiplicative_generator().coeffs
            exp = _power_indices(self, g, self.q - 1)
            if not np.array_equal(np.sort(exp), np.arange(1, self.q)):
                raise ArithmeticError("the powers of %r miss part of F_q*" % (g,))
            log = np.zeros(self.q, dtype=np.int64)
            log[exp] = np.arange(self.q - 1)
            self._tables = exp, log
        return self._tables


class FieldElement:
    """An element of a :class:`FieldContext`, hashable and immutable."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs: Tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.coeffs == other.coeffs
            and self.ctx._key == other.ctx._key
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return FieldElement(self.ctx, self.ctx._add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return FieldElement(self.ctx, self.ctx._sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx._neg(self.coeffs))

    def __mul__(self, other):
        return FieldElement(self.ctx, self.ctx._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        return FieldElement(
            self.ctx, self.ctx._mul(self.coeffs, self.ctx._inv(other.coeffs))
        )

    def __pow__(self, e: int):
        if e < 0:
            return FieldElement(self.ctx, self.ctx._pow(self.ctx._inv(self.coeffs), -e))
        return FieldElement(self.ctx, self.ctx._pow(self.coeffs, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._inv(self.coeffs))

    @property
    def index(self) -> int:
        return self.ctx.index(self)

    def __repr__(self):
        return "%r(%d)" % (self.ctx, self.index)


class FieldPolynomial:
    """A polynomial with coefficients in the prime subfield of ``ctx``.

    This is the reduction of an integer polynomial mod p; evaluation maps
    field elements to field elements.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs: Sequence[int]):
        cs = [int(c) % ctx.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (
            isinstance(other, FieldPolynomial)
            and self.coeffs == other.coeffs
            and self.ctx._key == other.ctx._key
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "FieldPolynomial(%r, %r)" % (self.ctx, list(self.coeffs))

    def eval(self, x: FieldElement) -> FieldElement:
        ctx = self.ctx
        if ctx.s == 1:
            acc = 0
            v = x.coeffs[0]
            p = ctx.p
            for c in reversed(self.coeffs):
                acc = (acc * v + c) % p
            return FieldElement(ctx, (acc,))
        acc = (0,) * ctx.s
        for c in reversed(self.coeffs):
            acc = ctx._mul(acc, x.coeffs)
            acc = ((acc[0] + c) % ctx.p,) + acc[1:]
        return FieldElement(ctx, acc)

    def eval_index(self, m: int) -> int:
        """Index-to-index evaluation; fast path for prime fields."""
        ctx = self.ctx
        if ctx.s == 1:
            acc = 0
            p = ctx.p
            for c in reversed(self.coeffs):
                acc = (acc * m + c) % p
            return acc
        return ctx.index(self.eval(ctx.from_index(m)))

    def eval_indices(self, idx) -> np.ndarray:
        """Index-to-index evaluation of an array of field indices (see
        eval_indices_all)."""
        return eval_indices_all((self,), idx)[:, 0]


def eval_indices_all(polys: Sequence[FieldPolynomial], idx) -> np.ndarray:
    """The (len(idx), k) array whose column j is ``polys[j]`` evaluated on the
    field indices ``idx``.  A field with ``index_tables`` takes the Horner
    steps on indices (``_eval_tables``).  Otherwise they run on an (s, n)
    array of base-p digits, reduced by ``_xred``, for all k polynomials of one
    field in one pass; int64 while 2 s p^2 < 2^63, Python ints beyond (primes
    above about 2^31).  Runs on EVAL_BLOCK // k points at a time, so memory
    stays bounded on any field."""
    idx = np.asarray(idx, dtype=np.int64)
    if polys[0].ctx.index_tables() is not None:
        return _eval_tables(polys[0].ctx, polys, idx)
    order = sorted(range(len(polys)), key=lambda j: -len(polys[j].coeffs))
    coeffs = [polys[j].coeffs or (0,) for j in order]  # longest first
    out = np.empty((len(idx), len(polys)), dtype=np.int64)
    step = max(1, EVAL_BLOCK // len(polys))
    for lo in range(0, len(idx), step):
        out[lo : lo + step, order] = _eval_block(polys[0].ctx, coeffs, idx[lo : lo + step]).T
    return out


def _eval_tables(ctx: FieldContext, polys: Sequence[FieldPolynomial],
                 idx: np.ndarray) -> np.ndarray:
    """eval_indices_all by the index tables: each Horner step multiplies by x
    as exp[(log acc + log x) % (q - 1)], 0 where a factor is 0, and adds the
    prime-field constant to digit 0.  Shorter polynomials are padded with
    leading zeros, which keep their accumulator at 0."""
    exp, log = ctx.index_tables()
    p, n, d = ctx.p, ctx.q - 1, max(1, *(len(g.coeffs) for g in polys))
    cols = np.array([(0,) * (d - len(g.coeffs)) + g.coeffs[::-1] for g in polys],
                    dtype=np.int64).T  # cols[j] = the X^(d-1-j) coefficients
    logx, nonzero = log[idx][:, None], idx[:, None] != 0
    acc = np.broadcast_to(cols[0], (len(idx), len(polys))).copy()
    for c in cols[1:]:
        acc = np.where((acc != 0) & nonzero, exp[(log[acc] + logx) % n], 0)
        low = acc % p
        acc += (low + c) % p - low
    return acc


def _eval_block(ctx: FieldContext, coeffs: List[tuple], idx: np.ndarray) -> np.ndarray:
    """Horner on the coefficient tuples ``coeffs``, longest first: the step
    for X^j runs on the leading polynomials of degree > j only, so a shorter
    polynomial costs no more steps than it would alone."""
    p, s, d = ctx.p, ctx.s, len(coeffs[0])
    dtype = np.int64 if 2 * s * p * p < 1 << 63 else object
    x = _digits(ctx, idx, dtype)[:, None, :]
    xred = np.array(ctx._xred, dtype=dtype).reshape(s - 1, s, 1, 1)
    cols = np.array([c + (0,) * (d - len(c)) for c in coeffs], dtype=dtype).T[:, :, None]
    acc = np.zeros((s, len(coeffs), len(idx)), dtype=dtype)
    prod = np.empty((2 * s - 1,) + acc.shape[1:], dtype=dtype)
    acc[0] = np.array([c[-1] for c in coeffs], dtype=dtype)[:, None]
    for j in range(d - 2, -1, -1):
        m = sum(len(c) > j + 1 for c in coeffs)
        a, pr = acc[:, :m], prod[:, :m]
        _mul_fold(a, x, xred, p, pr)
        pr[0] += cols[j, :m]
        np.remainder(pr[:s], p, out=a)
    return reduce(lambda m, d: m * p + d, acc[::-1])


def _digits(ctx: FieldContext, idx: np.ndarray, dtype) -> np.ndarray:
    """The (s, n) base-p digits of the field indices ``idx``, lowest first."""
    rest, x = idx, np.empty((ctx.s, len(idx)), dtype=dtype)
    for i in range(ctx.s - 1):
        rest, x[i] = np.divmod(rest, ctx.p)
    x[ctx.s - 1] = rest
    return x


def _mul_fold(a: np.ndarray, b: np.ndarray, xred: np.ndarray, p: int, pr: np.ndarray):
    """pr[:s] <- the product of the digit arrays a and b (axis 0 the s digits,
    the other axes broadcast), with the terms of X^s .. X^(2s-2) folded in by
    the rows ``xred`` of ``ctx._xred``.  pr has 2s - 1 rows; pr[:s] is left
    unreduced, each entry below 2 s p^2."""
    s = len(a)
    np.multiply(a[0], b, out=pr[:s])
    pr[s:] = 0
    for i in range(1, s):
        pr[i : i + s] += a[i] * b
    for t in range(2 * s - 2, s - 1, -1):
        pr[:s] += xred[t - s] * (pr[t] % p)


def make_prime_field(p: int) -> FieldContext:
    """F_p for prime p (deterministic primality check)."""
    return FieldContext(p, 1, (0, 1))


def make_extension_field(p: int, s: int) -> FieldContext:
    """F_{p^s} with the first monic irreducible modulus in index order.

    Candidates of degree s are enumerated by their base-p coefficient index
    (constant term varying fastest), so the choice is deterministic.
    """
    if not is_prime(p):
        raise CompositeModulus("%r is not prime" % (p,))
    if not 1 <= s <= MAX_EXTENSION_DEGREE:
        raise DegreeOutOfRange(
            "extension degree must satisfy 1 <= s <= %d" % MAX_EXTENSION_DEGREE
        )
    if p**s > MAX_FIELD_SIZE:
        raise TooLarge("field size %d exceeds the 2^48 cap" % p**s)
    if s == 1:
        return make_prime_field(p)
    for m in range(p**s):
        digits = []
        mm = m
        for _ in range(s):
            mm, c = divmod(mm, p)
            digits.append(c)
        try:
            return FieldContext(p, s, tuple(digits) + (1,))
        except CompositeModulus:  # reducible; p was checked above
            continue
    raise ArithmeticError("no irreducible modulus found; unreachable for s >= 2")


def mul_order(u: FieldElement) -> int:
    """Multiplicative order of a nonzero element.

    Standard algorithm: factor q - 1, then for each prime strip exponents
    while the corresponding power of u is still 1.  A prime field powers its
    one coefficient with ``pow`` directly.
    """
    if u.is_zero:
        raise ZeroElement("zero has no multiplicative order")
    ctx = u.ctx
    if ctx.s == 1:
        return _prime_order(ctx, u.coeffs[0])
    return _order(ctx, ctx._pow, u.coeffs, ctx.one().coeffs)


def _prime_order(ctx: FieldContext, a: int) -> int:
    """mul_order of the nonzero a in the prime field ctx, by ``pow``: exact
    for every p, where an int64 product would overflow above about 2^31.5."""
    p = ctx.p
    return _order(ctx, lambda x, e: pow(x, e, p), a, 1)


def mul_orders(ctx: FieldContext, idx) -> np.ndarray:
    """mul_order of every nonzero field index in ``idx``, as an int64 array.

    A field with ``index_tables`` reads each order as (q - 1) / gcd(log x,
    q - 1).  Otherwise each distinct index is computed once: a prime field
    takes the scalar ``pow`` path per element, and an extension field runs
    the same prime-by-prime stripping on all digit vectors at once, each
    powering one square-and-multiply chain of array products, reduced by
    ``_xred``.
    """
    idx = np.asarray(idx, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= ctx.q):
        raise OutOfRange("index must lie in [0, q)")
    if not np.all(idx):
        raise ZeroElement("zero has no multiplicative order")
    tables = ctx.index_tables()
    if tables is not None:
        n = ctx.q - 1
        return n // np.gcd(tables[1][idx], n)
    uniq, inv = np.unique(idx, return_inverse=True)
    if ctx.s == 1:
        orders = [_prime_order(ctx, a) for a in uniq.tolist()]
        return np.array(orders, dtype=np.int64)[inv]
    n, p, s = ctx.q - 1, ctx.p, ctx.s
    x = _digits(ctx, uniq, np.int64)  # 2 s p^2 < 2^63: p^s <= 2^48 with s >= 2
    xred = np.array(ctx._xred, dtype=np.int64).reshape(s - 1, s, 1)
    pr = np.empty((2 * s - 1, len(uniq)), dtype=np.int64)

    def mul(a, b):
        _mul_fold(a, b, xred, p, pr)
        return pr[:s] % p

    orders = np.ones(len(uniq), dtype=np.int64)
    for ell, e in ctx.group_order_factorization().pairs:
        y = _power(mul, x, n // ell**e)
        while (live := (y[0] != 1) | y[1:].any(axis=0)).any():
            orders[live] *= ell
            y = _power(mul, y, ell)
    return orders[inv]


def small_order_set(ctx: FieldContext, t: int) -> np.ndarray:
    """The field indices of the elements of F_q* of multiplicative order at
    most t, as an ascending int64 array.  For each maximal divisor l <= t of
    q - 1 (``_maximal_divisors``), the l-th roots of unity are the powers of
    g^((q-1)/l), g a generator; every order <= t divides such an l.  A field
    with ``index_tables`` reads them from exp, any other lists them with
    ``_power_indices``."""
    if t < 1:
        raise OutOfRange("t must be at least 1")
    n = ctx.q - 1
    tops = _maximal_divisors(ctx.group_order_factorization(), t)
    tables = ctx.index_tables()
    if tables is not None:
        return _distinct(np.concatenate([tables[0][:: n // l] for l in tops]))
    g = ctx.multiplicative_generator().coeffs
    return _distinct(np.concatenate([_power_indices(ctx, ctx._pow(g, n // l), l) for l in tops]))
