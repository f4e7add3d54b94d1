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
x -> phi_i(x) on field indices, which ``ff.eval_indices_all`` fills an
index array at a time, every generator in one pass: ``combinatorics.build_graph``
for a whole field, or ``reach_table`` over the starts' reach.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from .ff import FieldContext, FieldElement, FieldPolynomial, eval_indices_all, mul_order
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

    def __init__(self, kind, preperiod=(), period=(), k=0, seed=0):
        self.kind = kind
        self.preperiod = tuple(preperiod)
        self.period = tuple(period)
        self.k = k
        self.seed = seed
        self.offset = 0
        if kind == "periodic":
            if not self.period:
                raise OutOfRange("a periodic stream needs a nonempty period")
        elif kind == "random":
            if k < 1:
                raise OutOfRange("a random stream needs k >= 1")
            self._rng = random.Random(seed)
            self._letters: List[int] = []
        else:
            raise OutOfRange("unknown stream kind %r" % (kind,))

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
        i += self.offset
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
        """The stream with the first n letters removed: a copy whose offset
        is n more.  A random stream's copies share one letter tape."""
        if n < 0:
            raise OutOfRange("shift requires n >= 0")
        if n == 0:
            return self
        out = copy.copy(self)
        out.offset += n
        return out

    def describe(self) -> dict:
        if self.kind == "periodic":
            out = {"kind": "periodic", "period": list(self.period)}
            if self.preperiod:
                out["preperiod"] = list(self.preperiod)
        else:
            out = {"kind": "random", "k": self.k, "seed": self.seed}
        if self.offset:
            out["offset"] = self.offset
        return out


def stream_from_config(desc: dict) -> WordStream:
    """Build a stream from its ``describe()`` dictionary; a malformed or
    out-of-range one raises ConfigError naming the offending key."""
    if not isinstance(desc, dict):
        raise ConfigError("a stream is a JSON object, got %r" % (desc,))
    kind = desc.get("kind")
    if kind not in ("periodic", "random"):
        raise ConfigError("stream 'kind' must be 'periodic' or 'random', got %r" % (kind,))
    period, pre = desc.get("period"), desc.get("preperiod", [])
    if kind == "periodic" and not (isinstance(period, list) and isinstance(pre, list) and period):
        raise ConfigError("a periodic stream needs lists 'period' (nonempty) and 'preperiod'")
    ints = period + pre if kind == "periodic" else [desc.get("k")]
    offset = desc.get("offset", 0)
    if not all(type(v) is int for v in ints + [offset]):  # excludes bool
        raise ConfigError("a %s stream needs integer letters, k and offset" % kind)
    if type(desc.get("seed", 0)) not in (int, str):  # null would seed from the OS
        raise ConfigError("a stream seed is an integer or a string")
    if kind == "random" and desc["k"] < 1:
        raise ConfigError("a random stream needs 'k' >= 1")
    if offset < 0:
        raise ConfigError("a stream 'offset' must be >= 0")
    if kind == "periodic":
        s = WordStream.periodic(period, pre)
    else:
        s = WordStream.random(desc["k"], desc.get("seed", 0))
    return s.shift(offset)


def letter_index(letter: int, k: int) -> int:
    """The 0-based generator index named by a word letter in [1, k]."""
    if not 1 <= letter <= k:
        raise LetterOutOfRange("letter %r outside [1, %d]" % (letter, k))
    return letter - 1


def evaluated_successors(F: GeneratorSet, ctx: FieldContext) -> Successors:
    """Successor source that evaluates the reduced generators at each call."""
    red = F.reduced(ctx)
    return lambda i: tuple(g.eval_index(i) for g in red)


def reach_table(F: GeneratorSet, ctx: FieldContext, starts: Sequence[int],
                depth: Optional[int] = None,
                cap: int = MAX_GRAPH_SIZE) -> Tuple[np.ndarray, np.ndarray]:
    """Compact successor table over the points within ``depth`` steps of the
    starts, evaluated a BFS level at a time, all generators in one array call.
    Returns (table, points), ``points[r]`` the field index of row r in FIFO
    discovery order: the distinct starts first, in first-occurrence order.
    Rows on the depth limit are not evaluated and loop to themselves; a kernel
    that runs at most ``depth`` steps never reads them.  The build stops at
    the level that passes ``cap`` points, raising Truncated, or MAX_GRAPH_SIZE
    points, raising TooLarge, whichever is smaller."""
    limit = min(cap, MAX_GRAPH_SIZE)
    levels = [np.array(list(dict.fromkeys(starts)), dtype=np.int64)]
    seen = np.sort(levels[0])  # every point found so far
    images = [np.empty(0, np.int64)]  # each evaluated level's rows, flattened
    while len(levels[-1]) and len(images) - 1 != depth and len(seen) <= limit:
        img = eval_indices_all(F.reduced(ctx), levels[-1]).ravel()
        images.append(img)
        new, first = np.unique(img, return_index=True)
        pos = np.searchsorted(seen, new)
        fresh = seen[np.minimum(pos, len(seen) - 1)] != new
        seen = np.insert(seen, pos[fresh], new[fresh])
        levels.append(img[np.sort(first[fresh])])
    if len(seen) > limit:
        if limit < MAX_GRAPH_SIZE:
            raise Truncated("the starts reach more than the cap of %d points" % cap)
        raise TooLarge("the starts reach more than %d points" % MAX_GRAPH_SIZE)
    points, done = np.concatenate(levels), np.concatenate(images)  # seen is points, sorted
    table = np.repeat(np.arange(len(points))[:, None], F.k, axis=1)
    table[: len(done) // F.k] = np.argsort(points)[np.searchsorted(seen, done)].reshape(-1, F.k)
    return table, points


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
    levels = {x: 0}
    queue = [x]
    for v in queue:  # also visits the vertices appended below, in FIFO order
        n = levels[v] + 1
        for w in succ(v):
            if w not in levels:
                if len(levels) >= cap:
                    return OrbitRecord(x, levels, True)
                levels[w] = n
                queue.append(w)
    return OrbitRecord(x, levels, False)


def m_count(F: GeneratorSet, stream: WordStream, x: FieldElement, t: int, N: int) -> int:
    """#{n in [0, N-1] : the n-th iterate along the stream is nonzero and
    has multiplicative order <= t}.  Every order <= t divides L, the largest
    divisor of q - 1 whose prime powers are all <= t, so only an iterate v
    with v^L = 1 (never 0) is passed to ``mul_order``."""
    if N < 1:
        raise OutOfRange("m_count requires N >= 1")
    if t < 1:
        raise OutOfRange("m_count requires t >= 1")
    L = math.prod(l ** max(e for e in range(a + 1) if l**e <= t)
                  for l, a in x.ctx.group_order_factorization().pairs)
    red = F.reduced(x.ctx)
    v, count = x, 0
    for n in range(N):
        if n > 0:
            v = red[letter_index(stream.letter(n), F.k)].eval(v)
        count += (v**L).is_one and mul_order(v) <= t
    return count


def sup_m_over_sequences(table: np.ndarray, qual: np.ndarray, rows: Sequence[int],
                         N: int) -> List[Tuple[int, Word]]:
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


def count_small_order_points(table: np.ndarray, qual: np.ndarray, rows: Sequence[int],
                             N: int, include_start=False) -> List[int]:
    """Per start row, the distinct rows marked by ``qual`` among its level
    sets 1..N (level 0, the start point, is included on request).  Starts
    walk ``_level_words`` in chunks of at most 64, each start one bit of the
    narrowest unsigned word that holds its chunk, and the counts are a
    popcount of the marked rows' words."""
    if N < 0:
        raise OutOfRange("need N >= 0")
    rows = np.asarray(rows, dtype=np.int64)
    out: List[int] = []
    for lo in range(0, len(rows), 64):
        chunk = rows[lo:lo + 64]
        # start j owns bit j of a little-endian word, so bytes unpack in bit order
        word = np.dtype("<u%d" % next(w for w in (1, 2, 4, 8) if 8 * w >= len(chunk)))
        bits = np.ones(len(chunk), word) << np.arange(len(chunk)).astype(word)
        seen = _level_words(table, chunk, bits, N)
        if include_start:
            np.bitwise_or.at(seen, chunk, bits)
        hits = seen[qual]
        hits = hits[hits != 0].view(np.uint8).reshape(-1, word.itemsize)
        counts = np.unpackbits(hits, axis=1, bitorder="little").sum(axis=0)
        out.extend(counts[: len(chunk)].tolist())
    return out


def ball_mask(table: np.ndarray, r: int, N: int) -> np.ndarray:
    """Mask of the ball d(r, v) <= N: row r and its level sets 1..N, walked
    by ``_level_words`` with one start bit."""
    near = _level_words(table, np.array([r]), np.ones(1, np.uint8), N).view(bool)
    near[r] = True
    return near


def _level_words(table: np.ndarray, rows: np.ndarray, bits: np.ndarray, N: int) -> np.ndarray:
    """The one level-set walk, for any number of starts: bit j of word v is
    set when row v lies in the level sets 1..N of ``rows[j]``, whose bit is
    ``bits[j]``.

    Each level pushes the frontier's words to their images: a plain scatter
    leaves each image row one writer's word, and ``np.bitwise_or.at`` ORs in
    the writers it overwrote.  A row's new bits are those it had not seen,
    and only they go on.  A start needs no special case when a word returns
    to it: its images carry its bit since level 1, so it adds nothing.  The
    deduplication is chosen per level from counts: while the images are under
    1/8 of the rows, only the touched rows are read, each taken once through
    its last writer; past that, whole-row array ops cost less.
    """
    n_rows, k = table.shape
    seen = np.zeros(n_rows, bits.dtype)
    nxt = np.zeros(n_rows, bits.dtype)  # never cleared: what a level leaves in it is seen
    last = np.empty(n_rows, np.min_scalar_type(n_rows))  # per row, its last writer's position
    front, words = rows, bits
    for _ in range(N):
        if not len(front):
            break
        img, words = table[front].ravel(), np.repeat(words, k)
        nxt[img] = words  # each row holds one writer's word; OR in the others
        lost = np.flatnonzero(nxt[img] != words)
        np.bitwise_or.at(nxt, img[lost], words[lost])
        if 8 * len(img) < n_rows:
            at = np.arange(len(img), dtype=last.dtype)
            last[img] = at
            front = img[np.flatnonzero(last[img] == at)]
            words = nxt[front] & ~seen[front]
            fresh = np.flatnonzero(words != 0)
            front, words = front[fresh], words[fresh]
        else:
            nxt &= ~seen
            front = np.flatnonzero(nxt != 0)
            words = nxt[front]
        seen[front] |= words
    return seen


def greedy_sequence_cover(table: np.ndarray, rows: Sequence[int],
                          cap: int = DEFAULT_ORBIT_CAP) -> List[Tuple[int, int]]:
    """Per start row, in order, (T, s): the size T of its orbit, and an upper
    bound s on the minimal number of single-sequence orbits covering it.

    One FIFO pass from each start lists the successors of each row it reaches
    (a row once per call, so a small orbit in a 2^20-row table lists only its
    own rows), marks it -1 (uncovered) and counts T; past ``cap`` rows it
    raises Truncated, which ends the call.  Greedy cover: walk from the start, repeatedly steering (by
    BFS) to the nearest vertex not yet covered, and start a new walk from the
    start when none is reachable.  Every walk is a genuine sequence orbit, so
    the count is a valid cover size and hence an upper bound on the minimum.

    The starts share the row lists and one mark list.  Each search stamps the
    covered vertices it reaches with its step number, so one read tells an
    uncovered vertex from one this search has seen.  No cover leaves an entry
    -1, so the next start's pass reads -1 as reached.
    """
    adj: List[Optional[List[int]]] = [None] * len(table)
    mark = [0] * len(table)
    out = []
    for r in rows:
        mark[r] = -1
        queue = [r]
        for v in queue:  # also visits the rows appended below
            row = adj[v]
            if row is None:
                row = adj[v] = table[v].tolist()
            for w in row:
                if mark[w] != -1:
                    if len(queue) >= cap:
                        raise Truncated("orbit hit its cap; cover count would not be exact")
                    mark[w] = -1
                    queue.append(w)
        mark[r] = 0  # covered by the first walk, which no search stamps when T = 1
        left, walks, step, cur = len(queue) - 1, 1, 0, r
        while left:
            # every vertex the search passes before the uncovered one it
            # returns is covered, so the walk to it covers just that one
            step += 1
            cur = _nearest_uncovered(adj, mark, cur, step)
            if cur is None:
                walks, cur = walks + 1, r
            else:
                left -= 1
        out.append((len(queue), walks))
    return out


def _nearest_uncovered(adj, mark, cur: int, step: int) -> Optional[int]:
    """The first vertex with mark -1 in the FIFO search from ``cur``, which
    it marks ``step`` along with every covered vertex it reaches; None when
    no uncovered vertex is reachable."""
    mark[cur] = step
    queue = [cur]
    for v in queue:  # also visits the vertices appended below
        for w in adj[v]:
            m = mark[w]
            if m != step:
                mark[w] = step
                if m < 0:
                    return w
                queue.append(w)
    return None


def theorem46_lhs(d: int, T: int, tau: int, s: int) -> float:
    """T * log(d) + s * log(tau): the log of d^T * tau^s."""
    if min(d, T, tau, s) < 1:
        raise OutOfRange("all arguments must be >= 1")
    return T * math.log(d) + s * math.log(tau)
