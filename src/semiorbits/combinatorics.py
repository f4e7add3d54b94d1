"""Gap counting, pair statistics, tree sizes, and labeled functional graphs.

The gap finder locates a step r <= 2N/T repeated among at least T(T-1)/(4N)
consecutive differences of any T visit times inside [0, N]; the pair counter
replays that argument along an orbit to produce witness pairs a fixed step t
apart.  The functional graph is the k-out-regular digraph on F_q with edges
x -> phi_i(x); on it live the N-ball d(u, v) <= N from the level-set kernel
shared with ``orbits``, the L_N vertex counts, and an exhaustive search for
witness word tuples maximizing L_N.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from .errors import (
    ExplosionGuard,
    HypothesisViolated,
    OutOfRange,
    TooLarge,
)
from .ff import FieldContext, FieldElement
from .orbits import MAX_GRAPH_SIZE, GeneratorSet, Word, WordStream, letter_index, level_union

WITNESS_SEARCH_GUARD = 1 << 22


def b_tree_size(k: int, h: int) -> int:
    """Node count of the complete k-ary tree of depth h - 1.

    h for k = 1 (a path), else (k^h - 1)/(k - 1), exactly.
    """
    if k < 1 or h < 1:
        raise OutOfRange("b_tree_size requires k >= 1 and h >= 1")
    if k == 1:
        return h
    return (k**h - 1) // (k - 1)


@dataclass(frozen=True)
class GapReport:
    r: int
    count: int
    T: int
    N: int


def _best_gap(ns: Sequence[int], N: int) -> Tuple[int, int]:
    """Most frequent consecutive gap among those <= 2N/T; ties -> smallest.

    A qualifying gap always exists when T >= 2: the smallest gap is at most
    N/(T-1) <= 2N/T.  Comparisons are exact (r <= 2N/T as r*T <= 2N).
    """
    T = len(ns)
    tally = Counter(b - a for a, b in zip(ns, ns[1:]))
    best_r = -1
    best_c = 0
    for r, c in tally.items():
        if r * T <= 2 * N and (c > best_c or (c == best_c and r < best_r)):
            best_r, best_c = r, c
    return best_r, best_c


def find_common_gap(indices: Sequence[int], N: int) -> GapReport:
    """The common-difference lemma, constructively.

    Given 2 <= T < N/2 strictly increasing visit times in [0, N], returns a
    gap r <= 2N/T realized by at least T(T-1)/(4N) consecutive pairs.  The
    lower bound is a theorem, so it is asserted: a failure here is a bug,
    not bad input.
    """
    ns = [int(n) for n in indices]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise OutOfRange("indices must be strictly increasing")
    if ns and not (0 <= ns[0] and ns[-1] <= N):
        raise OutOfRange("indices must lie in [0, N]")
    T = len(ns)
    if T < 2 or 2 * T >= N:
        raise HypothesisViolated("need 2 <= T < N/2, got T=%d, N=%d" % (T, N))
    r, count = _best_gap(ns, N)
    assert 4 * N * count >= T * (T - 1), "gap-count lower bound violated"
    return GapReport(r, count, T, N)


def pair_step_count(
    F: GeneratorSet,
    stream: WordStream,
    x: FieldElement,
    S: Iterable[FieldElement],
    N: int,
) -> Tuple[int, Set[Tuple[int, FieldElement, FieldElement]]]:
    """Visit times of S along the stream, then the pair statistic.

    Returns (t, pairs) where t is the most common consecutive visit gap
    (<= 2N/T) and pairs collects one triple (n_j, u, v) per consecutive
    visit pair at distance exactly t, with u, v the two visited values.
    #pairs >= (T/N)^2 * N / 8 whenever T >= 2; asserted.

    Keeping the visit time n_j in each triple counts pairs with
    multiplicity: distinct visits can repeat the same (u, v) value pair,
    and the lower bound is a statement about visit pairs, not value pairs.
    """
    if N < 1:
        raise OutOfRange("need N >= 1")
    red = F.reduced(x.ctx)
    members = set(S)
    visits: List[Tuple[int, FieldElement]] = []
    v = x
    for n in range(1, N + 1):
        v = red[letter_index(stream.letter(n), F.k)].eval(v)
        if v in members:
            visits.append((n, v))
    T = len(visits)
    if T < 2:
        raise HypothesisViolated("need at least two visits of S, got %d" % T)
    t, _ = _best_gap([n for n, _ in visits], N)
    pairs = {
        (n1, u1, u2)
        for (n1, u1), (n2, u2) in zip(visits, visits[1:])
        if n2 - n1 == t
    }
    assert 8 * N * len(pairs) >= T * T, "pair-count lower bound violated"
    return t, pairs


class FunctionalGraph:
    """A k-labeled functional graph: every vertex has out-edges 1..k.

    Vertices are indices 0..n-1; when built from a field, index i is the
    element ctx.from_index(i), and field elements are accepted as vertices.
    """

    __slots__ = ("table", "n", "k", "ctx")

    def __init__(self, table, ctx: FieldContext = None):
        arr = np.asarray(table, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise OutOfRange("edge table must be a nonempty (n, k) array")
        if arr.min() < 0 or arr.max() >= arr.shape[0]:
            raise OutOfRange("edge endpoints must be vertex indices")
        self.table = arr
        self.n = int(arr.shape[0])
        self.k = int(arr.shape[1])
        self.ctx = ctx

    def _idx(self, v) -> int:
        if isinstance(v, FieldElement):
            return v.index
        i = int(v)
        if not 0 <= i < self.n:
            raise OutOfRange("vertex index %d outside [0, %d)" % (i, self.n))
        return i

    def word_images(self, word: Sequence[int]) -> np.ndarray:
        """The image of every vertex under the word, as one index array."""
        img = np.arange(self.n, dtype=np.int64)
        for letter in word:
            img = self.table[img, letter_index(letter, self.k)]
        return img

    def __repr__(self):
        return "FunctionalGraph(n=%d, k=%d)" % (self.n, self.k)


def build_graph(F: GeneratorSet, ctx: FieldContext) -> FunctionalGraph:
    """The labeled graph on all of F_q with edges x -> phi_i(x)."""
    if ctx.q > MAX_GRAPH_SIZE:
        raise TooLarge("graph needs q <= 2^20, got q=%d" % ctx.q)
    red = F.reduced(ctx)
    table = np.empty((ctx.q, F.k), dtype=np.int64)
    if ctx.s == 1:
        xs = np.arange(ctx.p, dtype=np.int64)
        for j, g in enumerate(red):
            # Horner over the whole field at once; p <= 2^20 keeps
            # products inside int64
            acc = np.zeros(ctx.p, dtype=np.int64)
            for c in reversed(g.coeffs):
                acc = (acc * xs + c) % ctx.p
            table[:, j] = acc
    else:
        for i in range(ctx.q):
            x = ctx.from_index(i)
            for j, g in enumerate(red):
                table[i, j] = g.eval(x).index
    return FunctionalGraph(table, ctx)


def _vertex_mask(g: FunctionalGraph, vertices: Iterable) -> np.ndarray:
    mask = np.zeros(g.n, dtype=bool)
    for v in vertices:
        mask[g._idx(v)] = True
    return mask


def l_n_count(
    g: FunctionalGraph, u, A: Iterable, N: int, words: Sequence[Sequence[int]]
) -> int:
    """#{v : d(u,v) <= N and, for every word w, d(u, w(v)) <= N, w(v) in A}."""
    if N < 0:
        raise OutOfRange("need N >= 0")
    if not words:
        raise OutOfRange("need at least one word")
    r = g._idx(u)
    near = level_union(g.table, r, N)  # the ball d(u, v) <= N: u and levels 1..N
    near[r] = True
    in_a = _vertex_mask(g, A)
    keep = near.copy()
    for word in words:
        if len(word) < 1:
            raise OutOfRange("words must be nonempty")
        img = g.word_images(word)
        keep &= near[img] & in_a[img]
    return int(np.count_nonzero(keep))


@dataclass(frozen=True)
class WitnessSearchResult:
    """Best word tuple found, with the hypothesis bookkeeping around it.

    ball is #{v : d(u,v) <= N}, ball_in_a its intersection with A, and
    target the quantity (h / B(k,h)^(l+1)) * ball that the count is
    measured against.
    """

    words: Tuple[Word, ...]
    count: int
    hypothesis_met: bool
    ball: int
    ball_in_a: int
    target: float

    def __iter__(self):
        return iter((self.words, self.count))


def find_witness_words(
    g: FunctionalGraph, u, A: Iterable, N: int, h: int, l: int, c: float = 0.0
) -> WitnessSearchResult:
    """Exhaustive argmax of l_n_count over l distinct words of length <= h.

    Words are ordered by length then lexicographically and subsets are
    scanned in that order, so ties resolve deterministically.  The search
    does not require the counting lemma's hypothesis; it records whether
    #(ball in A) >= max{3 B(k,h), (3l/h) #ball} held.  When it held and a
    positive constant c is supplied, the lemma's lower bound with that c
    is asserted.
    """
    if h < 1 or l < 1:
        raise OutOfRange("need h >= 1 and l >= 1")
    if N < 0:
        raise OutOfRange("need N >= 0")
    if g.k ** (h * l) > WITNESS_SEARCH_GUARD:
        raise ExplosionGuard("k^(h*l) exceeds the witness search guard")
    words: List[Word] = [
        w for n in range(1, h + 1) for w in product(range(1, g.k + 1), repeat=n)
    ]
    if len(words) < l:
        raise OutOfRange("fewer than l distinct words of length <= h exist")
    r = g._idx(u)
    near = level_union(g.table, r, N)  # the ball d(u, v) <= N: u and levels 1..N
    near[r] = True
    in_a = _vertex_mask(g, A)
    quals = []
    for w in words:
        img = g.word_images(w)
        quals.append(near[img] & in_a[img])
    ball = int(np.count_nonzero(near))
    ball_in_a = int(np.count_nonzero(near & in_a))
    B = b_tree_size(g.k, h)
    hypothesis_met = ball_in_a >= max(3 * B, (3 * l / h) * ball)
    best = -1
    best_combo = None
    for combo in combinations(range(len(words)), l):
        keep = near
        for i in combo:
            keep = keep & quals[i]
        cnt = int(np.count_nonzero(keep))
        if cnt > best:
            best, best_combo = cnt, combo
    target = (h / B ** (l + 1)) * ball
    if hypothesis_met and c > 0:
        assert best >= c * target, "witness count fell below c * target"
    return WitnessSearchResult(
        words=tuple(words[i] for i in best_combo),
        count=best,
        hypothesis_met=hypothesis_met,
        ball=ball,
        ball_in_a=ball_in_a,
        target=target,
    )
