"""Words, streams, orbits, level sets, and small-order iterate counts."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiorbits.orbits as orbits
from semiorbits import (
    ConfigError,
    DegenerateGenerator,
    DegreeTooSmall,
    EmptySystem,
    GeneratorSet,
    IntPolynomial,
    LetterOutOfRange,
    FieldPolynomial,
    OutOfRange,
    TooLarge,
    Truncated,
    WordStream,
    build_graph,
    count_small_order_points,
    evaluated_successors,
    greedy_sequence_cover,
    m_count,
    make_extension_field,
    make_prime_field,
    orbit,
    parse_poly,
    reach_table,
    small_order_set,
    stream_from_config,
    sup_m_over_sequences,
    theorem46_lhs,
)
from oracles import (
    apply_word,
    bfs_orbit,
    bfs_reach_table,
    closure_orbit,
    exhaustive_level_images,
    exhaustive_small_order_count,
    exhaustive_sup_m,
    greedy_cover_by_bfs,
    level_images,
    minimal_walk_cover,
)

F5 = make_prime_field(5)
F7 = make_prime_field(7)

SQ = GeneratorSet([parse_poly("X^2")])
PAIR = GeneratorSet([parse_poly("X^2"), parse_poly("X^2 + 1")])


def _random_system(rng, k, max_deg=3):
    polys = []
    for _ in range(k):
        deg = rng.randint(2, max_deg)
        coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.choice((1, 2, 3))]
        polys.append(IntPolynomial(coeffs))
    return GeneratorSet(polys)


def _tables(F, x, t, depth):
    """(table, Γ(t) mask, [row of x]) from both table builders: the whole
    field's graph, and the compact table over x's reach within depth steps."""
    ctx = x.ctx
    gamma = [u.index for u in small_order_set(ctx, t)]
    whole = (build_graph(F, ctx).table, np.arange(ctx.q))
    for table, points in (whole, reach_table(F, ctx, [x.index], depth)):
        yield table, np.isin(points, gamma), [int(np.flatnonzero(points == x.index)[0])]


def _sup_m(F, x, t, N):
    """sup M from x, computed on both builders' tables, which must agree."""
    (a,), (b,) = (sup_m_over_sequences(*tables, N) for tables in _tables(F, x, t, N - 1))
    assert a == b
    return a


def _count(F, x, t, N, include_start=False):
    (a,), (b,) = (
        count_small_order_points(*tables, N, include_start)
        for tables in _tables(F, x, t, N)
    )
    assert a == b
    return a


def _orbit(F, x, **cap):
    succ = evaluated_successors(F, x.ctx)
    return succ, orbit(succ, x.index, **cap)


def _cover(F, x, **cap):
    """The greedy cover count of x's orbit on the whole field's table, whose
    T must be the orbit's."""
    table = build_graph(F, x.ctx).table
    T, s = greedy_sequence_cover(table, [x.index], **cap)[0]
    assert T == _orbit(F, x)[1].T
    return s


def test_generator_set_validation():
    with pytest.raises(EmptySystem):
        GeneratorSet([])
    with pytest.raises(DegreeTooSmall):
        GeneratorSet([parse_poly("X + 1")])
    assert PAIR.k == 2
    assert PAIR.d == 2
    assert PAIR.hF == 0.0
    # 5X^2 + 1 degenerates mod 5
    bad = GeneratorSet([parse_poly("5X^2 + X + 1")])
    with pytest.raises(DegenerateGenerator):
        bad.reduced(F5)


def test_stream_periodic():
    s = WordStream.periodic((1, 2))
    assert s.prefix(5) == (1, 2, 1, 2, 1)
    s = WordStream.periodic((1, 2), preperiod=(3,))
    assert s.prefix(5) == (3, 1, 2, 1, 2)
    assert WordStream.constant(2).prefix(3) == (2, 2, 2)
    with pytest.raises(OutOfRange):
        WordStream.periodic(())
    with pytest.raises(OutOfRange):
        s.letter(0)


def test_stream_shift():
    s = WordStream.periodic((1, 2))
    assert s.shift(0) is s
    assert s.shift(1).prefix(4) == (2, 1, 2, 1)
    # preperiod (3), period (1,2), dropped twice: (2,1) cycling
    s = WordStream.periodic((1, 2), preperiod=(3,))
    assert s.shift(2).prefix(4) == (2, 1, 2, 1)
    with pytest.raises(OutOfRange):
        s.shift(-1)


def test_stream_random_reproducible():
    a = WordStream.random(3, seed=99)
    b = WordStream.random(3, seed=99)
    assert a.prefix(50) == b.prefix(50)
    assert all(1 <= c <= 3 for c in a.prefix(50))
    # a shifted view reads the same backing tape, regardless of which view
    # forces the letters first
    c = a.shift(10)
    assert c.prefix(5) == a.prefix(15)[10:]
    d = WordStream.random(3, seed=7).shift(4)
    e = WordStream.random(3, seed=7)
    assert d.prefix(6) == e.prefix(10)[4:]


def test_stream_config_roundtrip():
    for s in (
        WordStream.periodic((2, 1, 1)),
        WordStream.periodic((1, 2), preperiod=(3, 3)),
        WordStream.random(2, seed=5),
        WordStream.random(4, seed=0).shift(7),
        WordStream.periodic((1, 2), preperiod=(3, 3)).shift(1).shift(4),
    ):
        assert stream_from_config(s.describe()).prefix(20) == s.prefix(20)
    with pytest.raises(ConfigError):
        stream_from_config({"kind": "nope"})


def test_apply_word_examples():
    assert apply_word(SQ, (), F7.element(5)).index == 5
    # φ_1(2)=4, then φ_2(4)=17=2 mod 5
    assert apply_word(PAIR, (1, 2), F5.element(2)).index == 2
    # squaring twice: 3 → 2 → 4
    assert apply_word(SQ, (1, 1), F7.element(3)).index == 4
    with pytest.raises(LetterOutOfRange):
        apply_word(SQ, (2,), F7.element(3))


def test_orbit_examples():
    _, rec = _orbit(SQ, F7.element(3))
    assert set(rec.levels) == {3, 2, 4}
    assert rec.T == 3
    assert not rec.truncated
    assert rec.levels[3] == 0
    assert rec.levels[2] == 1
    assert rec.levels[4] == 2
    assert _orbit(SQ, F7.element(1))[1].T == 1
    _, rec = _orbit(PAIR, F5.element(0))
    assert set(rec.levels) == {0, 1, 2, 4}
    assert rec.T == 4
    # the whole-field table drives the same BFS, in the same FIFO order
    table_rec = orbit(build_graph(PAIR, F5).table.tolist().__getitem__, 0)
    assert list(table_rec.levels.items()) == list(rec.levels.items())


def test_orbit_truncation():
    _, rec = _orbit(PAIR, F5.element(0), cap=2)
    assert rec.truncated
    assert rec.T <= 2
    with pytest.raises(OutOfRange):
        _orbit(PAIR, F5.element(0), cap=0)


def test_orbit_matches_closure_seeded():
    rng = random.Random(404)
    fields = [make_prime_field(p) for p in (5, 11, 101, 509)]
    fields.append(make_extension_field(3, 4))
    fields.append(make_extension_field(2, 8))
    for _ in range(20):
        ctx = rng.choice(fields)
        F = _random_system(rng, rng.randint(1, 3))
        x = ctx.from_index(rng.randrange(ctx.q))
        try:
            F.reduced(ctx)
        except DegenerateGenerator:
            continue
        _, rec = _orbit(F, x)
        assert set(rec.levels) == {v.index for v in closure_orbit(F, x)}
        # BFS levels are genuine shortest word lengths: level n elements
        # appear among level-set images at n but not earlier
        by_level = {}
        for v, lvl in rec.levels.items():
            by_level.setdefault(lvl, set()).add(ctx.from_index(v))
        if rec.T > 1:
            imgs = level_images(F, x, max(by_level))
            seen = {x}
            for n in range(1, max(by_level) + 1):
                assert by_level.get(n, set()) == imgs[n - 1] - seen
                seen |= imgs[n - 1]


def test_level_images_examples():
    assert level_images(SQ, F7.element(3), 1) == [{F7.element(2)}]
    lv = level_images(PAIR, F5.element(0), 2)
    assert {v.index for v in lv[0]} == {0, 1}
    assert {v.index for v in lv[1]} == {0, 1, 2}
    assert level_images(SQ, F7.element(3), 3)[2] == {F7.element(2)}
    with pytest.raises(OutOfRange):
        level_images(SQ, F7.element(3), 0)


def test_level_images_matches_exhaustive():
    rng = random.Random(77)
    fields = [make_prime_field(p) for p in (5, 11)] + [make_extension_field(11, 2)]
    for _ in range(15):
        ctx = rng.choice(fields)
        F = _random_system(rng, rng.randint(1, 3))
        x = ctx.from_index(rng.randrange(ctx.q))
        N = rng.randint(1, 6)
        try:
            F.reduced(ctx)
        except DegenerateGenerator:
            continue
        assert level_images(F, x, N) == exhaustive_level_images(F, x, N)


def test_m_count_examples():
    s = WordStream.constant(1)
    # iterates 3,2,4,2 with orders 6,3,3,3
    assert m_count(SQ, s, F7.element(3), t=3, N=4) == 3
    assert m_count(SQ, s, F7.element(3), t=1, N=4) == 0
    assert m_count(SQ, s, F7.element(3), t=6, N=4) == 4
    with pytest.raises(OutOfRange):
        m_count(SQ, s, F7.element(3), t=0, N=4)
    with pytest.raises(OutOfRange):
        m_count(SQ, s, F7.element(3), t=3, N=0)


def _zero_hits(F, stream, x, N):
    """How many of the first N iterates along the stream are zero."""
    v, zeros = x, 0
    for n in range(N):
        if n > 0:
            v = apply_word(F, (stream.letter(n),), v)
        zeros += v.is_zero
    return zeros


def test_m_count_zero_hits():
    # 0 → 0 under squaring: all iterates are zero, none counted
    s = WordStream.constant(1)
    assert m_count(SQ, s, F7.element(0), t=6, N=5) == 0
    assert _zero_hits(SQ, s, F7.element(0), 5) == 5
    # big t counts everything nonzero
    s = WordStream.periodic((1, 2))
    assert m_count(PAIR, s, F5.element(0), t=4, N=6) + _zero_hits(PAIR, s, F5.element(0), 6) == 6


def test_m_count_monotone():
    rng = random.Random(12)
    ctx = make_prime_field(31)
    for _ in range(10):
        F = _random_system(rng, 2)
        try:
            F.reduced(ctx)
        except DegenerateGenerator:
            continue
        x = ctx.element(rng.randrange(31))
        s = WordStream.random(2, seed=rng.randrange(1000))
        vals_t = [m_count(F, s, x, t, 8) for t in range(1, 31)]
        assert vals_t == sorted(vals_t)
        vals_n = [m_count(F, s, x, 5, n) for n in range(1, 12)]
        assert vals_n == sorted(vals_n)


def test_sup_m_examples():
    # k=1: the sup is the unique stream's count
    val, word = _sup_m(SQ, F7.element(3), t=3, N=4)
    assert val == m_count(SQ, WordStream.constant(1), F7.element(3), 3, 4) == 3
    assert word == (1, 1, 1, 1)
    val, word = _sup_m(PAIR, F5.element(0), t=1, N=2)
    ex_val, _ = exhaustive_sup_m(PAIR, F5.element(0), t=1, N=2)
    assert val == ex_val
    assert len(word) == 2
    with pytest.raises(OutOfRange):
        _sup_m(PAIR, F5.element(0), t=1, N=0)


def test_sup_m_matches_exhaustive_seeded():
    rng = random.Random(2717)
    fields = [make_prime_field(p) for p in (5, 7, 13)] + [make_extension_field(3, 2)]
    for _ in range(15):
        ctx = rng.choice(fields)
        F = _random_system(rng, rng.randint(1, 3))
        try:
            F.reduced(ctx)
        except DegenerateGenerator:
            continue
        x = ctx.from_index(rng.randrange(ctx.q))
        t = rng.randint(1, ctx.q - 1)
        N = rng.randint(1, 6)
        val, word = _sup_m(F, x, t, N)
        ex_val, ex_word = exhaustive_sup_m(F, x, t, N)
        assert val == ex_val
        assert word == ex_word  # both tie-break to the lex-smallest word
        # the witness really achieves the value
        assert m_count(F, WordStream.periodic(word), x, t, N) == val


def test_count_small_order_points():
    # reachable within 2 steps from 3: {2, 4}, both of order 3
    assert _count(SQ, F7.element(3), t=3, N=2) == 2
    assert _count(SQ, F7.element(3), t=3, N=0) == 0
    assert _count(SQ, F7.element(3), t=2, N=2) == 0
    # include_start counts the start point too when it qualifies
    assert _count(SQ, F7.element(2), t=3, N=1, include_start=True) == 2
    # sanity cap by the small-order census of the whole field
    for t in (1, 2, 3, 6):
        c = _count(SQ, F7.element(3), t, 5)
        assert c <= len(small_order_set(F7, t))
        assert c == exhaustive_small_order_count(SQ, F7.element(3), t, 5)
    with pytest.raises(OutOfRange):
        _count(SQ, F7.element(3), t=3, N=-1)


def test_greedy_cover():
    assert _cover(SQ, F7.element(3)) == 1
    got = _cover(PAIR, F5.element(0))
    assert 1 <= got <= 4
    assert got >= minimal_walk_cover(PAIR, F5.element(0))
    with pytest.raises(Truncated):
        _cover(PAIR, F5.element(0), cap=2)


def test_greedy_cover_dominates_exact_minimum():
    rng = random.Random(31)
    fields = [make_prime_field(p) for p in (5, 7, 11, 13, 29, 31)]
    checked = 0
    while checked < 12:
        ctx = rng.choice(fields)
        F = _random_system(rng, rng.randint(1, 3))
        try:
            F.reduced(ctx)
        except DegenerateGenerator:
            continue
        x = ctx.element(rng.randrange(ctx.p))
        if len(closure_orbit(F, x)) > 14:
            continue
        got = _cover(F, x)
        assert got >= max(1, minimal_walk_cover(F, x))
        checked += 1


def _against_bfs_oracles(adj, x, cap=orbits.DEFAULT_ORBIT_CAP):
    """orbit and greedy_sequence_cover on adjacency lists, against the
    per-step BFS oracles: levels item by item in discovery order, truncation,
    and the cover count (None once the cap is hit, where both raise)."""
    succ = adj.__getitem__
    rec, want = orbit(succ, x, cap), bfs_orbit(succ, x, cap)
    assert list(rec.levels.items()) == list(want.levels.items())
    assert (rec.start, rec.truncated) == (want.start, want.truncated)
    table = np.array(adj)
    if rec.truncated:
        with pytest.raises(Truncated):
            greedy_sequence_cover(table, [x], cap)
        with pytest.raises(Truncated):
            greedy_cover_by_bfs(succ, want)
        return rec, None
    T, s = greedy_sequence_cover(table, [x], cap)[0]
    assert (T, s) == (want.T, greedy_cover_by_bfs(succ, want))
    return rec, s


def test_orbit_and_cover_match_bfs_oracles():
    covers = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 60))
        k = data.draw(st.integers(1, 3))
        # forward edges only (v -> w >= v) make branching DAGs with many sinks,
        # whose covers need several walks; random edges mostly need one
        forward = data.draw(st.booleans())
        adj = [data.draw(st.lists(st.integers(v if forward else 0, n - 1), min_size=k,
                                  max_size=k)) for v in range(n)]
        x = data.draw(st.integers(0, n - 1))
        cap = data.draw(st.sampled_from([orbits.DEFAULT_ORBIT_CAP, n]) | st.integers(1, n))
        covers.append(_against_bfs_oracles(adj, x, cap)[1])

    check()
    # truncated orbits, single walks and multi-walk covers all occurred
    assert {None, 1, 2} <= set(covers) and max(c for c in covers if c) >= 3


def test_one_call_covers_every_start():
    # every start of one adjacency, in a drawn order with repeats, covered by
    # one call, whose starts share its row lists and marks: it must return
    # each start's (T, s) from the per-start oracles, or raise Truncated
    # exactly when some start's orbit passes the cap.  Forward DAGs end in
    # rows whose successors are all the row itself: starts of T = 1 inside
    # later starts' orbits.
    walks, sizes = [], []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        n, k = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 3))
        forward = data.draw(st.booleans())  # DAGs need several walks, as above
        adj = [data.draw(st.lists(st.integers(v if forward else 0, n - 1), min_size=k,
                                  max_size=k)) for v in range(n)]
        succ, table = adj.__getitem__, np.array(adj)
        extra = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        order = data.draw(st.permutations(list(range(n)) + extra))
        # n - 1 first, the draw Hypothesis favours: it truncates a call where
        # any start reaches every row
        cap = data.draw(st.sampled_from([max(1, n - 1), n, orbits.DEFAULT_ORBIT_CAP]))
        wants = [bfs_orbit(succ, x, orbits.DEFAULT_ORBIT_CAP) for x in order]
        if max(want.T for want in wants) > cap:
            with pytest.raises(Truncated):
                greedy_sequence_cover(table, order, cap)
            sizes.append(None)
            return
        got = greedy_sequence_cover(table, order, cap)
        assert got == [(want.T, greedy_cover_by_bfs(succ, want)) for want in wants]
        walks.extend(s for _, s in got)
        sizes.extend(T for T, _ in got)

    check()
    assert max(walks) >= 3
    # single-row orbits and truncated calls both occurred
    assert {1, None} <= set(sizes)


def test_orbit_and_cover_small_graphs():
    # a self-loop: the start is the whole orbit
    rec, s = _against_bfs_oracles([[0]], 0)
    assert (rec.levels, s) == ({0: 0}, 1)
    # two sink cycles, 1 <-> 2 and 3 <-> 4, reached from 0: one walk each
    rec, s = _against_bfs_oracles([[1, 3], [2, 2], [1, 1], [4, 4], [3, 3]], 0)
    assert list(rec.levels.items()) == [(0, 0), (1, 1), (3, 1), (2, 2), (4, 2)]
    assert s == 2
    # a start on the cycle 0 -> 1 -> 2 -> 0 with the exit 0 -> 3: one walk
    # goes round the cycle and back through the start to leave it
    rec, s = _against_bfs_oracles([[1, 3], [2, 2], [0, 0], [3, 3]], 0)
    assert list(rec.levels.items()) == [(0, 0), (1, 1), (3, 1), (2, 2)]
    assert s == 1
    rec, s = _against_bfs_oracles([[1, 3], [2, 2], [0, 0], [3, 3]], 2)
    assert list(rec.levels.items()) == [(2, 0), (0, 1), (1, 2), (3, 2)]
    assert s == 1
    # the cap: three of the five points on a cycle, then Truncated
    rec, s = _against_bfs_oracles([[1], [2], [3], [4], [0]], 0, cap=3)
    assert (list(rec.levels), rec.truncated, s) == ([0, 1, 2], True, None)
    rec, s = _against_bfs_oracles([[1], [2], [3], [4], [0]], 0, cap=5)
    assert (rec.T, rec.truncated, s) == (5, False, 1)


def test_theorem46_lhs():
    assert theorem46_lhs(2, 1, 1, 1) == pytest.approx(math.log(2))
    assert theorem46_lhs(2, 3, 6, 1) == pytest.approx(3 * math.log(2) + math.log(6))
    assert theorem46_lhs(3, 2, 2, 2) == pytest.approx(2 * math.log(3) + 2 * math.log(2))
    with pytest.raises(OutOfRange):
        theorem46_lhs(2, 0, 1, 1)


# -- reach tables ---------------------------------------------------------------

# F_1048583 and F_{3^13} lie above the whole-graph cap; the last prime needs
# Python-int arithmetic (its products overflow int64)
REACH_FIELDS = ((5, 1), (7, 1), (2, 4), (3, 3), (2, 8), (5, 3), (2, 13), (1048583, 1),
                (3, 13), (281474976710597, 1))


def _assert_same_reach(got, want):
    (table, points), (want_table, want_points) = got, want
    assert points.dtype == np.int64
    assert points.tolist() == want_points.tolist()  # same rows, same order
    assert table.dtype == np.int64 and table.shape == want_table.shape
    assert (table == want_table).all()


def _system_on(rng, ctx, k, max_deg=3):
    """A random system that stays of degree >= 2 modulo the field's prime."""
    while True:
        F = _random_system(rng, k, max_deg)
        try:
            F.reduced(ctx)
            return F
        except DegenerateGenerator:
            continue


def test_reach_table_matches_per_point_bfs_seeded():
    rng = random.Random(20)
    checked = 0
    for p, s in REACH_FIELDS:
        ctx = make_extension_field(p, s)
        for _ in range(4):
            F = _system_on(rng, ctx, rng.randint(1, 3), max_deg=4)
            starts = [rng.randrange(ctx.q) for _ in range(rng.randint(1, 5))]
            starts += starts[:1]  # a repeated start keeps its first row
            for depth in ([None] if ctx.q <= 1 << 12 else []) + [0, 1, 2, 5]:
                want = bfs_reach_table(F, ctx, starts, depth)
                _assert_same_reach(reach_table(F, ctx, starts, depth), want)
                checked += 1
    assert checked == 184  # 4 systems per field; whole reach on the 6 below 2^12
    table, points = reach_table(PAIR, F7, [])
    assert table.shape == (0, 2) and points.shape == (0,)


def test_successor_tables_evaluate_no_point_alone(monkeypatch):
    # build_graph and reach_table evaluate index arrays only; a per-point
    # evaluation anywhere inside them fails
    F = GeneratorSet([parse_poly("X^2 + 1"), parse_poly("X^3 + 2")])
    fields = [make_prime_field(1048583), make_extension_field(3, 13)]
    want = [bfs_reach_table(F, ctx, [1, 2, 3, 12345], 5) for ctx in fields]
    graphs = {ps: build_graph(F, make_extension_field(*ps)).table for ps in ((1009, 1), (2, 12))}

    def refuse(*args):
        raise AssertionError("a successor table evaluated a single point")

    monkeypatch.setattr(FieldPolynomial, "eval", refuse)
    monkeypatch.setattr(FieldPolynomial, "eval_index", refuse)
    for ctx, expected in zip(fields, want):
        _assert_same_reach(reach_table(F, ctx, [1, 2, 3, 12345], 5), expected)
    for ps, table in graphs.items():
        assert (build_graph(F, make_extension_field(*ps)).table == table).all()


def test_reach_table_guard_trips_exactly_above_the_cap(monkeypatch):
    rng = random.Random(21)
    for ctx in (make_prime_field(1009), make_extension_field(2, 10)):
        for depth in (None, 0, 1, 3):
            F = _system_on(rng, ctx, 2)
            starts = [rng.randrange(ctx.q) for _ in range(3)]
            want = bfs_reach_table(F, ctx, starts, depth)
            reach = len(want[1])
            monkeypatch.setattr(orbits, "MAX_GRAPH_SIZE", reach)
            _assert_same_reach(reach_table(F, ctx, starts, depth), want)
            monkeypatch.setattr(orbits, "MAX_GRAPH_SIZE", reach - 1)
            with pytest.raises(TooLarge):
                reach_table(F, ctx, starts, depth)
