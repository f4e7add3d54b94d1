"""Gap counting, pair statistics, functional graphs, and witness search."""

from __future__ import annotations

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiorbits import (
    ExplosionGuard,
    FunctionalGraph,
    GeneratorSet,
    HypothesisViolated,
    LetterOutOfRange,
    OutOfRange,
    TooLarge,
    WordStream,
    b_tree_size,
    build_graph,
    count_small_order_points,
    find_common_gap,
    find_witness_words,
    l_n_count,
    make_extension_field,
    make_prime_field,
    pair_step_count,
    parse_poly,
)
import semiorbits.combinatorics as combinatorics
from semiorbits.orbits import ball_mask
from oracles import (
    bfs_distances,
    build_tree_nodes,
    count_by_level_union,
    exhaustive_witness_words,
    level_sets_by_words,
    naive_l_n_count,
)

F5 = make_prime_field(5)
F7 = make_prime_field(7)

SQ = GeneratorSet([parse_poly("X^2")])
PAIR = GeneratorSet([parse_poly("X^2"), parse_poly("X^2 + 1")])


def _random_graph(rng, n, k):
    return FunctionalGraph([[rng.randrange(n) for _ in range(k)] for _ in range(n)])


def test_b_tree_size():
    assert b_tree_size(1, 5) == 5
    assert b_tree_size(2, 3) == 7
    assert b_tree_size(3, 2) == 4
    for k in range(1, 5):
        for h in range(1, 9):
            assert b_tree_size(k, h) == len(build_tree_nodes(k, h))
    with pytest.raises(OutOfRange):
        b_tree_size(0, 3)
    with pytest.raises(OutOfRange):
        b_tree_size(2, 0)


def test_find_common_gap_examples():
    with pytest.raises(HypothesisViolated):
        find_common_gap((0, 2, 4, 6, 8), 8)
    rep = find_common_gap((0, 2, 4, 6, 8), 20)
    assert (rep.r, rep.count, rep.T, rep.N) == (2, 4, 5, 20)
    # gaps 1 and 4 each occur once; the tie goes to the smaller gap
    assert find_common_gap((0, 1, 5), 12).r == 1
    with pytest.raises(OutOfRange):
        find_common_gap((3, 3, 5), 20)
    with pytest.raises(OutOfRange):
        find_common_gap((0, 5, 25), 20)


def test_find_common_gap_guarantees_seeded():
    rng = random.Random(555)
    for _ in range(200):
        N = rng.randint(5, 400)
        T = rng.randint(2, max(2, (N - 1) // 2))
        if 2 * T >= N:
            continue
        ns = sorted(rng.sample(range(N + 1), T))
        rep = find_common_gap(ns, N)
        assert rep.r * rep.T <= 2 * rep.N
        assert 4 * rep.N * rep.count >= rep.T * (rep.T - 1)
        # the reported count is the true tally of the reported gap
        assert rep.count == sum(1 for a, b in zip(ns, ns[1:]) if b - a == rep.r)


def test_pair_step_whole_field():
    # S = everything: every step is a visit, so the common gap is 1
    s = WordStream.periodic((1, 2))
    t, pairs = pair_step_count(PAIR, s, F5.element(0), F5.elements(), 12)
    assert t == 1
    assert len(pairs) == 11
    for n, u, v in pairs:
        assert 1 <= n < 12


def test_pair_step_example():
    t, pairs = pair_step_count(
        SQ, WordStream.constant(1), F7.element(3), {F7.element(2), F7.element(4)}, 20
    )
    assert t == 1
    # iterates alternate 2,4 from n=1 on; value pairs project onto both orders
    assert {(u.index, v.index) for _, u, v in pairs} == {(2, 4), (4, 2)}
    assert len(pairs) == 19
    assert 8 * 20 * len(pairs) >= 20 * 20


def test_pair_step_needs_visits():
    with pytest.raises(HypothesisViolated):
        pair_step_count(
            SQ, WordStream.constant(1), F7.element(3), {F7.element(5)}, 20
        )
    with pytest.raises(OutOfRange):
        pair_step_count(SQ, WordStream.constant(1), F7.element(3), set(), 0)


def test_pair_step_bound_seeded():
    rng = random.Random(99)
    fields = [make_prime_field(p) for p in (11, 13, 31)]
    done = 0
    while done < 30:
        ctx = rng.choice(fields)
        F = PAIR if rng.random() < 0.5 else SQ
        x = ctx.element(rng.randrange(ctx.p))
        N = rng.randint(4, 60)
        stream = WordStream.random(F.k, seed=rng.randrange(10**6))
        # sample S from the trajectory so at least two visits are likely
        v = x
        seen = []
        for n in range(1, N + 1):
            v = F.reduced(ctx)[stream.letter(n) - 1].eval(v)
            seen.append(v)
        S = set(rng.sample(seen, min(len(seen), rng.randint(1, 4))))
        try:
            t, pairs = pair_step_count(F, stream, x, S, N)
        except HypothesisViolated:
            continue
        T = sum(1 for w in seen if w in S)
        assert t * T <= 2 * N
        assert 8 * N * len(pairs) >= T * T
        done += 1


def test_build_graph_examples():
    g = build_graph(SQ, F5)
    assert g.table[:, 0].tolist() == [0, 1, 4, 4, 1]
    g2 = build_graph(PAIR, F5)
    assert g2.table.shape == (5, 2)
    assert build_graph(SQ, make_prime_field(2)).n == 2


def test_build_graph_matches_eval():
    # edge table agrees with direct evaluation, prime and extension alike
    for ctx in (F7, make_extension_field(3, 2), make_extension_field(2, 3)):
        g = build_graph(PAIR, ctx)
        red = PAIR.reduced(ctx)
        for i in range(ctx.q):
            x = ctx.from_index(i)
            for j, gen in enumerate(red):
                assert g.table[i, j] == gen.eval(x).index


def test_graph_validation():
    with pytest.raises(OutOfRange):
        FunctionalGraph([[0, 1], [2, 0]])  # endpoint 2 out of range
    with pytest.raises(OutOfRange):
        FunctionalGraph(np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(OutOfRange):
        FunctionalGraph([0, 1])  # not 2-d
    g = FunctionalGraph([[1], [0]])
    with pytest.raises(OutOfRange):
        l_n_count(g, 5, {0}, 1, [(1,)])
    with pytest.raises(LetterOutOfRange):
        g.word_images((2,))


def test_build_graph_too_large():
    big = make_prime_field((1 << 20) + 7)
    with pytest.raises(TooLarge):
        build_graph(SQ, big)


def _ball(dist, N):
    return {v for v, d in dist.items() if d <= N}


def test_ball_examples():
    # X^2 on F_7 from 3: 3 -> 2 -> 4 -> 2 -> ..., and 5 is never reached
    g = build_graph(SQ, F7)
    assert bfs_distances(g.table, 3) == {3: 0, 2: 1, 4: 2}
    assert set(np.flatnonzero(ball_mask(g.table, 3, 2))) == {2, 3, 4}
    for N, ball in ((0, 1), (1, 2), (2, 3), (9, 3)):
        res = find_witness_words(g, 3, {4, 5}, N, h=1, l=1)
        assert (res.ball, res.ball_in_a) == (ball, int(N >= 2))


def test_start_on_a_cycle():
    # rows 0 -> 1 -> 2 -> 0 and 3 -> 0; only the start, row 0, qualifies
    table = np.array([[1], [2], [0], [0]])
    qual = np.array([True, False, False, False])
    for N, bare, with_start in ((0, 0, 1), (2, 0, 1), (3, 1, 1), (7, 1, 1)):
        assert count_small_order_points(table, qual, [0], N) == [bare]
        assert count_small_order_points(table, qual, [0], N, True) == [with_start]
    g = FunctionalGraph(table)
    for N in range(5):
        res = find_witness_words(g, 0, {0}, N, h=1, l=1)
        assert (res.ball, res.ball_in_a) == (min(N + 1, 3), 1)
        assert l_n_count(g, 0, {0}, N, [(1, 1, 1)]) == 1  # v = 0 returns to 0


def test_multi_source_count_fixed_cases():
    # rows 0 -> 1 -> 2 -> 0 on a cycle, 3 -> 0 and 4 -> 3: each start lies in
    # the ball of the one before it, and words return to the start row 0
    table = np.array([[1], [2], [0], [0], [3]])
    qual = np.array([True, False, True, True, False])
    rows = [4, 3, 0]
    for N, bare, with_start in ((0, [0, 0, 0], [0, 1, 1]), (2, [2, 1, 1], [2, 2, 2]),
                                (3, [2, 2, 2], [2, 3, 2]), (4, [3, 2, 2], [3, 3, 2])):
        assert count_small_order_points(table, qual, rows, N) == bare
        assert count_small_order_points(table, qual, rows, N, True) == with_start
        assert count_small_order_points(table, qual, rows[::-1], N) == bare[::-1]
    # an empty Γ(t) selection counts nothing, with or without the starts
    none = np.zeros(len(table), dtype=bool)
    for N in (0, 1, 6):
        for include_start in (False, True):
            assert count_small_order_points(table, none, rows, N, include_start) == [0, 0, 0]
    assert count_small_order_points(table, qual, [], 3) == []


def test_ball_matches_bfs_seeded():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 40)
        g = _random_graph(rng, n, rng.randint(1, 3))
        A = {v for v in range(n) if rng.random() < 0.5}
        u = rng.randrange(n)
        dist = bfs_distances(g.table, u)
        for N in range(0, 8):
            ball = _ball(dist, N)
            assert set(np.flatnonzero(ball_mask(g.table, u, N))) == ball
            res = find_witness_words(g, u, A, N, h=1, l=1)
            assert (res.ball, res.ball_in_a) == (len(ball), len(ball & A))


def test_word_images_matches_walk():
    rng = random.Random(21)
    g = _random_graph(rng, 30, 3)
    for _ in range(10):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        img = g.word_images(word)
        for v in range(g.n):
            w = v
            for letter in word:
                w = g.table[w, letter - 1]
            assert img[v] == w


def test_l_n_count_example():
    g = build_graph(PAIR, F5)
    assert l_n_count(g, 2, {0, 1, 4}, 1, [(1,)]) == 2
    # N=0: only v = u can qualify, and only when the word images fix u
    assert l_n_count(g, 1, {1}, 0, [(1,)]) == 1
    assert l_n_count(g, 2, range(5), 0, [(1,)]) == 0
    assert l_n_count(g, 1, (), 0, [(1,)]) == 0
    with pytest.raises(OutOfRange):
        l_n_count(g, 2, {0}, 1, [])
    with pytest.raises(OutOfRange):
        l_n_count(g, 2, {0}, 1, [()])


def test_l_n_count_matches_naive_seeded():
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(2, 60)
        k = rng.randint(1, 3)
        g = _random_graph(rng, n, k)
        u = rng.randrange(n)
        A = {v for v in range(n) if rng.random() < 0.5}
        N = rng.randint(0, 6)
        words = [
            tuple(rng.randint(1, k) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        assert l_n_count(g, u, A, N, words) == naive_l_n_count(g, u, A, N, words)


def test_find_witness_words_small():
    g = build_graph(PAIR, F5)
    res = find_witness_words(g, 2, {0, 1, 4}, 1, h=1, l=1)
    words, count = res
    assert words in (((1,),), ((2,),))
    assert count == max(
        l_n_count(g, 2, {0, 1, 4}, 1, [(1,)]),
        l_n_count(g, 2, {0, 1, 4}, 1, [(2,)]),
    )
    assert res.ball == len(_ball(bfs_distances(g.table, 2), 1))
    assert isinstance(res.hypothesis_met, bool)


def test_find_witness_words_is_argmax():
    rng = random.Random(17)
    from itertools import combinations, product

    for _ in range(8):
        n = rng.randint(3, 25)
        k = rng.randint(1, 2)
        g = _random_graph(rng, n, k)
        u = rng.randrange(n)
        A = {v for v in range(n) if rng.random() < 0.6}
        N = rng.randint(1, 4)
        h = rng.randint(1, 2)
        l = rng.randint(1, 2)
        pool = [w for m in range(1, h + 1) for w in product(range(1, k + 1), repeat=m)]
        if len(pool) < l:
            continue
        best = max(
            l_n_count(g, u, A, N, list(ws)) for ws in combinations(pool, l)
        )
        res = find_witness_words(g, u, A, N, h, l)
        assert res.count == best
        assert l_n_count(g, u, A, N, list(res.words)) == best


def test_find_witness_words_guard():
    rng = random.Random(1)
    g = _random_graph(rng, 10, 3)
    with pytest.raises(ExplosionGuard):
        find_witness_words(g, 0, {0}, 2, h=6, l=3)
    with pytest.raises(OutOfRange):
        find_witness_words(g, 0, {0}, 2, h=1, l=9)


def test_find_witness_words_guard_with_one_generator():
    # k^(h*l) is 1 for k = 1, so the subset count C(h, l) must trip the guard
    cycle = FunctionalGraph([[(v + 1) % 50] for v in range(50)])
    assert math.comb(300, 3) > combinatorics.WITNESS_SEARCH_GUARD
    with pytest.raises(ExplosionGuard):
        find_witness_words(cycle, 0, range(50), 60, h=300, l=3)
    # h = 294 is the largest under the guard, and runs
    assert math.comb(294, 3) <= combinatorics.WITNESS_SEARCH_GUARD < math.comb(295, 3)
    assert find_witness_words(cycle, 0, range(50), 60, h=294, l=3).count == 50


def test_vertex_sets_from_index_arrays_and_elements():
    # vertices are row indices only: field elements are refused, even on a
    # whole-field graph where an element's index is its row
    g = build_graph(PAIR, F7)
    arr = np.array([6, 0, 3, 3])
    mixed = [np.int64(6), 0, np.int32(3)]
    for A in (arr, arr.astype(np.int32), mixed, {0, 3, 6}, range(0, 7, 3)):
        assert np.flatnonzero(combinatorics._vertex_mask(g, A)).tolist() == [0, 3, 6]
    assert not combinatorics._vertex_mask(g, np.array([], dtype=np.int64)).any()
    assert l_n_count(g, 2, arr, 2, [(1,)]) == l_n_count(g, 2, mixed, 2, [(1,)])
    res = find_witness_words(g, 2, arr, 2, h=2, l=2)
    assert res == find_witness_words(g, 2, mixed, 2, h=2, l=2)
    for bad in (np.array([0, 7]), np.array([-1]), [0, 7], (-1,)):
        with pytest.raises(OutOfRange):
            l_n_count(g, 2, bad, 2, [(1,)])
        with pytest.raises(OutOfRange):
            find_witness_words(g, 2, bad, 2, h=1, l=1)
    for u, A in ((F7.element(2), arr), (2, [F7.element(6), 0])):
        with pytest.raises(TypeError):
            l_n_count(g, u, A, 2, [(1,)])
        with pytest.raises(TypeError):
            find_witness_words(g, u, A, 2, h=1, l=1)


# (k, h, l): every l <= 3 for k = 1, 2, 3, and l equal to the number of words
# (k = 1, h = 3; k = 2, h = 1; k = 3, h = 1), with at most 91 subsets
WITNESS_SHAPES = [
    (1, 1, 1), (1, 3, 1), (1, 3, 2), (1, 3, 3), (1, 5, 3),
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 2),
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1), (3, 2, 2),
]


def _witness_case(seed, m, k, density):
    """A k-labeled graph, start, N and set A drawn from the seed.

    With m, the start's ball is exactly m rows: a path under letter 1 whose
    last row steps out at distance m = N + 1, the other letters stepping
    back along the path, so row i stays at distance i; the rows are then
    relabeled at random.  Without m, the table is uniformly random on at
    most 40 rows.
    """
    rng = random.Random(seed)
    if m is None:
        n = rng.randint(1, 40)
        table = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
        u, N = rng.randrange(n), rng.randint(0, 6)
    else:
        n = m + rng.randint(1, 6)
        table = [
            [i + 1] + [rng.randrange(i + 1) for _ in range(k - 1)]
            if i < m
            else [rng.randrange(n) for _ in range(k)]
            for i in range(n)
        ]
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [None] * n
        for i, row in enumerate(table):
            relabeled[perm[i]] = [perm[j] for j in row]
        table, u, N = relabeled, perm[0], m - 1
    A = {v for v in range(n) if rng.random() < density}
    return FunctionalGraph(table), u, A, N


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([None, None, 63, 64, 65, 129]),
    shape=st.sampled_from(WITNESS_SHAPES),
    density=st.sampled_from([0.3, 0.7, 1.0]),
    block=st.sampled_from([1, 512, combinatorics.WITNESS_BLOCK_BYTES]),
)
@example(seed=1, m=63, shape=(2, 2, 3), density=0.7, block=1)
@example(seed=2, m=64, shape=(3, 2, 2), density=0.7, block=512)
@example(seed=3, m=65, shape=(2, 3, 2), density=0.7, block=1)
@example(seed=4, m=129, shape=(1, 5, 3), density=0.3, block=1)
@example(seed=5, m=129, shape=(3, 1, 3), density=1.0, block=1 << 20)
def test_witness_search_matches_exhaustive_scan(seed, m, shape, density, block):
    # block 1 puts every prefix in a block of its own, block 512 a few
    k, h, l = shape
    g, u, A, N = _witness_case(seed, m, k, density)
    with mock.patch.object(combinatorics, "WITNESS_BLOCK_BYTES", block):
        res = find_witness_words(g, u, A, N, h, l)
    assert (res.words, res.count) == exhaustive_witness_words(g, u, A, N, h, l)
    if m is not None:
        assert res.ball == m


def test_witness_search_memory_stays_within_its_block():
    # 325,500 subsets (k = 2, h = 6, l = 3: C(126, 3)) in 30 blocks of prefixes;
    # scoring every prefix in one block peaks at about 16 MB
    rng = random.Random(11)
    g, u, A, N = _witness_case(rng.randrange(2**32), 64, 2, 0.8)
    tracemalloc.start()
    try:
        res = find_witness_words(g, u, A, N, h=6, l=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert res.count == naive_l_n_count(g, u, A, N, res.words)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 3))
    rows = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
    return np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.int64)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=_tables(), data=st.data())
def test_level_kernel_matches_word_enumeration(table, data):
    n, k = table.shape
    r = data.draw(st.integers(0, n - 1))
    N = data.draw(st.integers(0, 6))
    levels = level_sets_by_words(table, r, N)
    union = set().union(*levels)
    ball = union | {r}
    assert set(np.flatnonzero(ball_mask(table, r, N)).tolist()) == ball
    qual = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    for include_start in (False, True):
        want = sum(1 for v in union | ({r} if include_start else set()) if qual[v])
        assert count_small_order_points(table, qual, [r], N, include_start) == [want]
    g = FunctionalGraph(table)
    A = set(np.flatnonzero(qual).tolist())
    res = find_witness_words(g, r, A, N, h=1, l=1)
    assert (res.ball, res.ball_in_a) == (len(ball), len(ball & A))
    word = st.lists(st.integers(1, k), min_size=1, max_size=3).map(tuple)
    words = data.draw(st.lists(word, min_size=1, max_size=3))
    assert l_n_count(g, r, A, N, words) == naive_l_n_count(g, r, A, N, words)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=_tables(), data=st.data())
def test_multi_source_count_matches_per_start_oracle(table, data):
    # 0-150 starts with repeats: chunks of 1-8, 9-16, 17-32 and 33-64 starts
    # take 8-, 16-, 32- and 64-bit words, and 65 or more cross a chunk boundary
    n = len(table)
    edges = st.sampled_from((1, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 150))
    size = data.draw(st.one_of(edges, st.integers(0, 150)))
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    qual = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    N = data.draw(st.integers(0, 6))
    for include_start in (False, True):
        assert (count_small_order_points(table, qual, rows, N, include_start)
                == count_by_level_union(table, qual, rows, N, include_start))
