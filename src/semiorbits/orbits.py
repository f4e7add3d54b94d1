"""Semigroup orbits of polynomial systems over finite fields.

A system F = (phi_1, ..., phi_k) of integer polynomials of degree >= 2 acts
on a field by composition.  Words over the alphabet {1, ..., k} pick which
generator acts at each step, with the first letter acting first.  Streams
are infinite words (eventually periodic, or seeded pseudorandom) supporting
the shift map.

The statistics here count iterates of small multiplicative order: m_count
along a fixed stream, its supremum over all words of a given length,
small-order points among the level sets of the whole system, and orbits
with greedy walk covers.  All but m_count read the successor table
x -> phi_i(x) on field indices: ``combinatorics.build_graph`` for a whole
prime field, or ``reach_table`` over the starts' reach for any field.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGenerator,
    DegreeTooSmall,
    EmptySystem,
    LetterOutOfRange,
    OutOfRange,
    TooLarge,
    Truncated,
)
from .ff import FieldContext, FieldElement, FieldPolynomial, mul_order
from .intpoly import IntPolynomial, reduce_mod, system_height

Word = Tuple[int, ...]
# field index -> the indices of its k images, in generator order
Successors = Callable[[int], Sequence[int]]

DEFAULT_ORBIT_CAP = 1 << 20
MAX_GRAPH_SIZE = 1 << 20  # rows of any successor table


class GeneratorSet:
    """An ordered system of k >= 1 integer polynomials, each of degree >= 2."""

    def __init__(self, polys: Sequence[IntPolynomial]):
        if not polys:
            raise EmptySystem("a generator system needs at least one polynomial")
        for f in polys:
            if f.degree < 2:
                raise DegreeTooSmall("generators must have degree >= 2")
        self.polys: Tuple[IntPolynomial, ...] = tuple(polys)
        self.k = len(self.polys)
        self.degrees = tuple(f.degree for f in self.polys)
        self.d = max(self.degrees)
        self.hF = system_height(self.polys)
        self._reduced: Dict[tuple, Tuple[FieldPolynomial, ...]] = {}

    def reduced(self, ctx: FieldContext) -> Tuple[FieldPolynomial, ...]:
        """Reductions mod p, re-validated to still have degree >= 2."""
        hit = self._reduced.get(ctx._key)
        if hit is not None:
            return hit
        red = tuple(reduce_mod(f, ctx) for f in self.polys)
        for f in red:
            if f.degree < 2:
                raise DegenerateGenerator(
                    "degenerate generator: degree < 2 after reduction mod %d" % ctx.p
                )
        self._reduced[ctx._key] = red
        return red

    def __repr__(self):
        return "GeneratorSet([%s])" % ", ".join(str(f) for f in self.polys)


class WordStream:
    """An infinite word over {1, ..., k}: eventually periodic or seeded
    pseudorandom.  Letters are 1-indexed; ``shift(n)`` drops the first n."""

    def __init__(self, kind, preperiod=(), period=(), k=0, seed=0, _shared=None, _offset=0):
        self.kind = kind
        self.preperiod = tuple(preperiod)
        self.period = tuple(period)
        self.k = k
        self.seed = seed
        if kind == "periodic":
            if not self.period:
                raise OutOfRange("a periodic stream needs a nonempty period")
        elif kind == "random":
            if k < 1:
                raise OutOfRange("a random stream needs k >= 1")
            self._rng = random.Random(seed) if _shared is None else None
            self._letters: List[int] = [] if _shared is None else _shared[0]
            if _shared is not None:
                self._rng = _shared[1]
        else:
            raise OutOfRange("unknown stream kind %r" % (kind,))
        self._offset = _offset

    @classmethod
    def periodic(cls, period: Sequence[int], preperiod: Sequence[int] = ()) -> "WordStream":
        return cls("periodic", preperiod=preperiod, period=period)

    @classmethod
    def constant(cls, letter: int) -> "WordStream":
        return cls("periodic", period=(letter,))

    @classmethod
    def random(cls, k: int, seed: int) -> "WordStream":
        return cls("random", k=k, seed=seed)

    def letter(self, i: int) -> int:
        """The i-th letter, 1-indexed."""
        if i < 1:
            raise OutOfRange("stream letters are 1-indexed")
        i += self._offset
        if self.kind == "periodic":
            if i <= len(self.preperiod):
                return self.preperiod[i - 1]
            return self.period[(i - len(self.preperiod) - 1) % len(self.period)]
        while len(self._letters) < i:
            self._letters.append(self._rng.randint(1, self.k))
        return self._letters[i - 1]

    def prefix(self, n: int) -> Word:
        return tuple(self.letter(i) for i in range(1, n + 1))

    def shift(self, n: int) -> "WordStream":
        """The stream with the first n letters removed."""
        if n < 0:
            raise OutOfRange("shift requires n >= 0")
        if n == 0:
            return self
        if self.kind == "random":
            return WordStream(
                "random",
                k=self.k,
                seed=self.seed,
                _shared=(self._letters, self._rng),
                _offset=self._offset + n,
            )
        pre, per = self.preperiod, self.period
        if n <= len(pre):
            return WordStream("periodic", preperiod=pre[n:], period=per)
        r = (n - len(pre)) % len(per)
        return WordStream("periodic", period=per[r:] + per[:r])

    def describe(self) -> dict:
        if self.kind == "periodic":
            out = {"kind": "periodic", "period": list(self.period)}
            if self.preperiod:
                out["preperiod"] = list(self.preperiod)
        else:
            out = {"kind": "random", "k": self.k, "seed": self.seed}
        if self._offset:
            out["offset"] = self._offset
        return out


def stream_from_config(desc: dict) -> WordStream:
    """Build a stream from its ``describe()`` dictionary."""
    if not isinstance(desc, dict):
        raise ConfigError("a stream is a JSON object, got %r" % (desc,))
    kind = desc.get("kind")
    if kind not in ("periodic", "random"):
        raise OutOfRange("unknown stream kind %r" % (kind,))
    period, pre = desc.get("period"), desc.get("preperiod", [])
    if kind == "periodic" and not (isinstance(period, list) and isinstance(pre, list)):
        raise ConfigError("a periodic stream needs 'period' (and any 'preperiod') as a list")
    ints = period + pre if kind == "periodic" else [desc.get("k")]
    if not all(type(v) is int for v in ints + [desc.get("offset", 0)]):  # excludes bool
        raise ConfigError("a %s stream needs integer letters, k and offset" % kind)
    if type(desc.get("seed", 0)) not in (int, str):  # null would seed from the OS
        raise ConfigError("a stream seed is an integer or a string")
    if kind == "periodic":
        s = WordStream.periodic(period, pre)
    else:
        s = WordStream.random(desc["k"], desc.get("seed", 0))
    return s.shift(desc.get("offset", 0))


def letter_index(letter: int, k: int) -> int:
    """The 0-based generator index named by a word letter in [1, k]."""
    if not 1 <= letter <= k:
        raise LetterOutOfRange("letter %r outside [1, %d]" % (letter, k))
    return letter - 1


def apply_word(F: GeneratorSet, word: Sequence[int], x: FieldElement) -> FieldElement:
    """Apply the composition picked by ``word`` (first letter first)."""
    red = F.reduced(x.ctx)
    v = x
    for letter in word:
        v = red[letter_index(letter, F.k)].eval(v)
    return v


def evaluated_successors(F: GeneratorSet, ctx: FieldContext) -> Successors:
    """Successor source that evaluates the reduced generators, once per point."""
    red = F.reduced(ctx)

    @functools.cache
    def succ(i: int) -> Tuple[int, ...]:
        return tuple(g.eval_index(i) for g in red)

    return succ


def _bfs(
    seeds: Iterable[int], succ: Successors, cap: int, depth: Optional[int] = None, stop=None
) -> Tuple[Dict[int, Optional[int]], bool]:
    """Breadth-first search along ``succ`` from the seeds, in FIFO order.

    Returns (parent, truncated).  ``parent`` keeps discovery order and maps
    each seed to None.  Only levels below ``depth`` are expanded (all when
    depth is None); the search ends at the first discovered vertex with
    ``stop(v)`` true, and is truncated when it would exceed ``cap`` vertices.
    """
    parent: Dict[int, Optional[int]] = dict.fromkeys(seeds)
    frontier = list(parent)
    level = 0
    while frontier and level != depth:
        level += 1
        nxt = []
        for v in frontier:
            for w in succ(v):
                if w not in parent:
                    if len(parent) >= cap:
                        return parent, True
                    parent[w] = v
                    if stop is not None and stop(w):
                        return parent, False
                    nxt.append(w)
        frontier = nxt
    return parent, False


def _depths(parent: Dict[int, Optional[int]]) -> Dict[int, int]:
    """BFS level of every vertex of a discovery-ordered parent map."""
    level: Dict[int, int] = {}
    for w, v in parent.items():
        level[w] = 0 if v is None else level[v] + 1
    return level


def reach_table(
    F: GeneratorSet, ctx: FieldContext, starts: Sequence[int], depth: Optional[int] = None
) -> Tuple[np.ndarray, Dict[int, int]]:
    """Compact successor table over the points within ``depth`` steps of the
    starts; it evaluates only those points, each once.

    Returns (table, row): ``row`` maps the field index of every reached point
    to its table row, in BFS discovery order.  Rows on the depth limit are not
    evaluated and loop to themselves; a kernel that runs at most ``depth``
    steps never reads them.
    """
    succ = evaluated_successors(F, ctx)
    parent, truncated = _bfs(starts, succ, MAX_GRAPH_SIZE, depth)
    if truncated:
        raise TooLarge("the starts reach more than %d points" % MAX_GRAPH_SIZE)
    row = {i: r for r, i in enumerate(parent)}
    level = _depths(parent)
    table = [
        [row[j] for j in succ(i)] if depth is None or level[i] < depth else [r] * F.k
        for i, r in row.items()
    ]
    return np.array(table, dtype=np.int64).reshape(-1, F.k), row


def _levels(table: np.ndarray, r: int, N: int):
    """The level sets 1..N of row r (all length-n images), as sorted row
    arrays.  Each level is marked on one reused mask of len(table) rows."""
    mask = np.zeros(len(table), dtype=bool)
    frontier = np.array([r], dtype=np.int64)
    for _ in range(N):
        mask[table[frontier]] = True
        frontier = np.flatnonzero(mask)
        mask[frontier] = False
        yield frontier


def level_union(table: np.ndarray, r: int, N: int) -> np.ndarray:
    """Mask of the rows in the level sets 1..N of row r.  Row r itself is
    marked only when a word of length 1..N leads back to it."""
    seen = np.zeros(len(table), dtype=bool)
    for level in _levels(table, r, N):
        if seen[level].all():  # then every later level, its image, is seen too
            break
        seen[level] = True
    return seen


def level_images(F: GeneratorSet, x: FieldElement, N: int) -> List[Set[FieldElement]]:
    """The value sets {f(x) : f a length-n composition} for n = 1..N."""
    if N < 1:
        raise OutOfRange("level_images requires N >= 1")
    ctx = x.ctx
    table, row = reach_table(F, ctx, [x.index], N)  # x is row 0
    points = list(row)
    return [{ctx.from_index(points[r]) for r in level} for level in _levels(table, 0, N)]


@dataclass
class OrbitRecord:
    """A breadth-first orbit of field indices with their first-discovery
    level; ``levels`` keeps discovery order."""

    start: int
    levels: Dict[int, int]
    truncated: bool

    @property
    def T(self) -> int:
        return len(self.levels)


def orbit(succ: Successors, x: int, cap: int = DEFAULT_ORBIT_CAP) -> OrbitRecord:
    """BFS orbit of the point with index x under the whole system, including
    x at level 0.

    Stops when closed, or flags truncation once ``cap`` elements are found.
    """
    if cap < 1:
        raise OutOfRange("orbit cap must be >= 1")
    parent, truncated = _bfs((x,), succ, cap)
    return OrbitRecord(x, _depths(parent), truncated)


@dataclass(frozen=True)
class MCountDetail:
    count: int
    zero_hits: int


def m_count_detail(
    F: GeneratorSet, stream: WordStream, x: FieldElement, t: int, N: int
) -> MCountDetail:
    if N < 1:
        raise OutOfRange("m_count requires N >= 1")
    if t < 1:
        raise OutOfRange("m_count requires t >= 1")
    red = F.reduced(x.ctx)
    v = x
    count = 0
    zeros = 0
    for n in range(N):
        if n > 0:
            v = red[letter_index(stream.letter(n), F.k)].eval(v)
        if v.is_zero:
            zeros += 1
        elif mul_order(v) <= t:
            count += 1
    return MCountDetail(count, zeros)


def m_count(F: GeneratorSet, stream: WordStream, x: FieldElement, t: int, N: int) -> int:
    """#{n in [0, N-1] : the n-th iterate along the stream is nonzero and
    has multiplicative order <= t}.  Zero iterates are skipped (they are
    tallied separately by :func:`m_count_detail`)."""
    return m_count_detail(F, stream, x, t, N).count


def sup_m_over_sequences(
    table: np.ndarray, qual: np.ndarray, rows: Sequence[int], N: int
) -> List[Tuple[int, Word]]:
    """Maximum of m_count over all length-N words from each start row, with
    the lexicographically smallest maximizing word.

    ``qual`` marks the rows of small order.  One backward pass over the table
    serves every start: score_n[v] = qual[v] + max_i score_(n-1)[table[v, i]]
    is the best count over v and the n steps after it.  The forward pass then
    takes the first letter that attains the score at each step.
    """
    if N < 1:
        raise OutOfRange("need N >= 1")
    score = [qual.astype(np.int32)]
    for _ in range(N - 1):
        score.append(score[0] + score[-1][table].max(axis=1))
    v = np.asarray(rows, dtype=np.int64)
    best = score[-1][v]
    letters = []
    for after in reversed(score[:-1]):
        succ = table[v]
        i = np.argmax(after[succ], axis=1)
        letters.append(i + 1)
        v = succ[np.arange(len(v)), i]
    letters.append(np.ones(len(v), dtype=np.int64))
    words = np.stack(letters, axis=1).tolist()
    return [(int(m), tuple(w)) for m, w in zip(best, words)]


def count_small_order_points(
    table: np.ndarray, qual: np.ndarray, rows: Sequence[int], N: int, include_start=False
) -> List[int]:
    """Per start row, the distinct rows marked by ``qual`` among its level
    sets 1..N (level 0, the start point, is included on request)."""
    if N < 0:
        raise OutOfRange("need N >= 0")
    out = []
    for r in rows:
        seen = level_union(table, r, N)
        seen[r] |= include_start
        out.append(int(np.count_nonzero(seen & qual)))
    return out


def greedy_sequence_cover(succ: Successors, rec: OrbitRecord) -> int:
    """Upper bound on the minimal number of single-sequence orbits covering
    the orbit ``rec``.

    Greedy: walk from the start, repeatedly steering (by BFS) to the nearest
    vertex not yet covered; when no uncovered vertex is reachable, start a
    new walk from the start.  Every walk is a genuine sequence orbit, so the
    count is a valid cover size and hence an upper bound on the minimum.
    """
    if rec.truncated:
        raise Truncated("orbit hit its cap; cover count would not be exact")
    uncovered = set(rec.levels)
    walks = 0
    while uncovered:
        walks += 1
        cur = rec.start
        uncovered.discard(cur)
        while uncovered:
            parent, _ = _bfs((cur,), succ, rec.T, stop=uncovered.__contains__)
            v = cur = next(reversed(parent))
            if cur not in uncovered:
                break
            while v is not None:
                uncovered.discard(v)
                v = parent[v]
    return walks


def theorem46_lhs(d: int, T: int, tau: int, s: int) -> float:
    """T * log(d) + s * log(tau): the log of d^T * tau^s."""
    if min(d, T, tau, s) < 1:
        raise OutOfRange("all arguments must be >= 1")
    return T * math.log(d) + s * math.log(tau)
