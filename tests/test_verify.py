"""Experiment harnesses: configs, frozen rows, recomputation, serialization."""

from __future__ import annotations

import functools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiorbits import (
    ConfigError,
    EmptyReport,
    ExperimentConfig,
    ExperimentReport,
    EXPERIMENTS,
    FieldPolynomial,
    GeneratorSet,
    IntPolynomial,
    LetterOutOfRange,
    SpecialGenerator,
    TooLarge,
    Truncated,
    FunctionalGraph,
    b_tree_size,
    build_graph,
    euler_phi,
    evaluated_successors,
    fit_constants,
    format_poly,
    height,
    is_prime,
    m_count,
    make_extension_field,
    make_prime_field,
    mul_order,
    orbit,
    parse_poly,
    run_experiment,
    small_order_set,
    stream_from_config,
)
import semiorbits
import semiorbits.orbits as orbits
import semiorbits.verify as verify
from semiorbits.orbits import DEFAULT_ORBIT_CAP, MAX_GRAPH_SIZE
from oracles import (
    bfs_distances,
    bfs_orbit,
    bfs_reach_table,
    closure_orbit,
    collision_resultant_mod_p,
    compose_word,
    count_by_level_union,
    exhaustive_small_order_count,
    exhaustive_sup_m,
    exhaustive_witness_words,
    greedy_cover_by_bfs,
    lemma41_by_composites,
    maximal_divisors_by_search,
    naive_l_n_count,
    order_at_most,
    order_by_powering,
    rational_gcd_is_nonconstant,
    thm44ii_rows_by_field,
)


def _cfg(**kw):
    return ExperimentConfig.from_dict(kw)


def _col(report, name):
    return report.columns.index(name)


def _by_col(report, row, name):
    return row[_col(report, name)]


# -- configuration -----------------------------------------------------------


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError) as err:
        _cfg(experiment="thm44i", generators=["X^2 + 1"], bogus=1, extra=2)
    assert "bogus" in str(err.value) and "extra" in str(err.value)


def test_config_requires_experiment():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"generators": ["X^2 + 1"]})


def test_config_unknown_experiment_lists_ids():
    with pytest.raises(ConfigError) as err:
        _cfg(experiment="thm99", generators=["X^2 + 1"])
    msg = str(err.value)
    for name in EXPERIMENTS:
        assert name in msg


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(experiment="thm44i", generators=["X^2 + 1"], t=0)
    for bad_e in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ConfigError):
            _cfg(experiment="thm44i", generators=["X^2 + 1"], t_exponent=bad_e)
    with pytest.raises(ConfigError):
        _cfg(experiment="thm44i", generators=[])
    with pytest.raises(ConfigError):
        _cfg(experiment="thm44i", generators=["X^2 + 1"], s=0)
    with pytest.raises(ConfigError):
        _cfg(experiment="thm44i", generators=["X^2 + 1"], loglog_floor=0.0)
    # C scales thm44ii's bound: C <= 0 would divide by zero or flag every prime
    for bad_c in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match="^C "):
            _cfg(experiment="thm44ii", generators=["X^2 + 1"], C=bad_c)
    # JSON reads NaN and Infinity, and the flags nan and inf: every float field
    # refuses them by name, which would write them into the report body
    for key, exp in (("C", "thm44ii"), ("c", "thm46"), ("c1", "thm61"),
                     ("t_exponent", "thm44i"), ("loglog_floor", "cor45")):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="^%s must be finite" % key):
                _cfg(experiment=exp, generators=["X^2 + 1"], **{key: bad})
    for bad_n in (0, -1):
        for exp in ("thm44i", "thm44ii", "cor45"):
            with pytest.raises(ConfigError):
                _cfg(experiment=exp, generators=["X^2 + 1"], N=bad_n)
        with pytest.raises(ConfigError):
            run_experiment(_cfg(experiment="thm61", generators=["X^2 + 1", "X^3 + 2"],
                                primes=[11], t=2, N=bad_n, l=1, h_from_n=True))
    # with an explicit h, thm61 counts level sets 1..N for any N >= 0
    rep = run_experiment(
        _cfg(experiment="thm61", generators=["X^2 + 1", "X^3 + 2"], primes=[11],
             starts=[3], t=2, N=0, h=3, l=1)
    )
    assert _by_col(rep, rep.rows[0], "count") == 0
    for bad_stream in (
        {"kind": "periodic"},
        {"kind": "periodic", "period": 1},
        {"kind": "random"},
        {"kind": "random", "k": "2"},
        [1, 2],
        {"kind": "periodic", "period": ["a"]},
        {"kind": "periodic", "period": [1], "offset": "2"},
        {"kind": "periodic", "period": [1], "offset": 1.0},
        {"kind": "periodic", "period": [True]},
        {"kind": "periodic", "period": [1], "preperiod": [2.5]},
        {"kind": "periodic", "period": [1], "preperiod": 3},
        {"kind": "random", "k": True},
        {"kind": "random", "k": 2, "seed": [7]},
        {"kind": "random", "k": 2, "offset": "1"},
        {"kind": "random", "k": 2, "seed": None},
    ):
        with pytest.raises(ConfigError):
            _cfg(experiment="thm44ii", generators=["X^2 + 1"], stream=bad_stream)
    # a string seed, which random.Random takes, still draws a reproducible stream
    named = dict(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], prime_max=13,
                 t=2, N=5, stream={"kind": "random", "k": 2, "seed": "abc"})
    assert run_experiment(_cfg(**named)).rows == run_experiment(_cfg(**named)).rows
    cfg = _cfg(experiment="thm44i", generators=["X^2 + 1"], primes=[11], t=2, N=6)
    assert cfg.to_dict()["generators"] == ["X^2 + 1"]
    # every value must have its field's declared type; the message names the field
    base = dict(experiment="thm44i", generators=["X^2 + 1"], primes=[11], t=4, N=5)
    for key, bad in (
        ("t", "4"), ("N", "5"), ("s", "2"), ("sample", "3"), ("t_exponent", "0.3"),
        ("prime_max", "20"), ("seed", [1]), ("seed", None), ("seed", True),
        ("generators", [5]), ("generators", "X^2 + 1"), ("starts", [1.5]),
        ("primes", [11.0]), ("primes", 11), ("t", True), ("C", False), ("c1", "0"),
        ("include_level_0", 1), ("stream", [1, 2]), ("experiment", 5), ("s", None),
    ):
        with pytest.raises(ConfigError, match="'%s'" % key):
            _cfg(**dict(base, **{key: bad}))
    with pytest.raises(ConfigError, match="sample"):
        _cfg(**dict(base, sample=-1))
    with pytest.raises(ConfigError, match="JSON object"):
        ExperimentConfig.from_dict([1, 2])
    # an int stands for a float, a tuple for a list, and null fills an Optional
    cfg = _cfg(**dict(base, C=2, t_exponent=None, starts=(1, 2), seed="abc", sample=0))
    assert (cfg.C, cfg.starts, cfg.seed) == (2, (1, 2), "abc")


def test_config_needs_some_t_rule():
    # t is resolved per field before a field without starts is skipped, so a
    # grid whose fields have no starts needs a t rule too; a grid without
    # fields resolves none, and has no rows
    for experiment, extra in (("thm44i", {}), ("cor45", {}), ("thm61", {"h": 3, "l": 1})):
        cfg = _cfg(experiment=experiment, generators=["X^2 + 1"], primes=[11], N=6, **extra)
        for empty in ({}, {"sample": 0}, {"starts": []}):
            with pytest.raises(ConfigError, match="config needs 't' or 't_exponent'"):
                run_experiment(_cfg(**dict(cfg.to_dict(), **empty)))
        assert run_experiment(_cfg(**dict(cfg.to_dict(), primes=[]))).rows == []


def test_config_rejects_composite_primes():
    cfg = _cfg(experiment="thm44i", generators=["X^2 + 1"], primes=[11, 12], t=2, N=6)
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert "12" in str(err.value)


def test_starts_guard_reads_only_the_largest_prime(monkeypatch):
    # a listed non-prime is a config error before the guard reads the largest
    # prime; a range's largest prime is the last one a full scan would keep
    cfg = _cfg(experiment="cor45", generators=["X^2 + 1"], primes=[2**31 - 1, 12], t=2, N=3)
    with pytest.raises(ConfigError, match="not prime: 12"):
        run_experiment(cfg)
    with pytest.raises(TooLarge, match="starts guard"):
        run_experiment(_cfg(**dict(cfg.to_dict(), primes=[2**31 - 1])))
    monkeypatch.setattr(verify, "MAX_GRAPH_SIZE", 0)  # the guard fires and names q
    for low, high in [(2, 2), (0, 1), (14, 16), (8, 7), (90, 100), (1, 1000), (7919, 7919)]:
        cfg = _cfg(experiment="cor45", generators=["X^2 + 1"], prime_min=low, prime_max=high)
        primes = [p for p in range(max(2, low), high + 1) if all(p % d for d in range(2, p))]
        with pytest.raises(TooLarge, match=r"guard: %d starts " % max(primes, default=1)):
            next(verify._grid(cfg))


def test_config_needs_prime_range():
    cfg = _cfg(experiment="thm44i", generators=["X^2 + 1"], t=2, N=6)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


# -- thm44i ------------------------------------------------------------------


def test_thm44i_frozen_row():
    rep = run_experiment(
        _cfg(
            experiment="thm44i",
            generators=["X^2 + 1"],
            primes=[11],
            starts=[3],
            t=2,
            N=6,
        )
    )
    assert len(rep.rows) == 1
    row = rep.rows[0]
    # iterates 3,10,2,5,4,6 mod 11: only 10 = -1 has order <= 2
    assert _by_col(rep, row, "M") == 1
    assert _by_col(rep, row, "word") == "1-1-1-1-1-1"
    bound = max(math.sqrt(6), 6 / math.log(math.log(11)))
    assert _by_col(rep, row, "bound") == pytest.approx(bound)
    assert _by_col(rep, row, "ratio") == pytest.approx(1 / bound)
    assert rep.summary["rows"] == 1
    assert rep.summary["max"] == pytest.approx(1 / bound)


def test_thm44i_rejects_special_generators():
    with pytest.raises(SpecialGenerator) as err:
        run_experiment(
            _cfg(experiment="thm44i", generators=["X^2"], primes=[7], t=2, N=3)
        )
    assert "monomial_conjugate" in str(err.value)
    rep = run_experiment(
        _cfg(
            experiment="thm44i",
            generators=["X^2"],
            primes=[7],
            starts=[3],
            t=2,
            N=3,
            allow_special=True,
        )
    )
    assert "monomial_conjugate" in rep.summary["special_generators"]


def test_thm44i_empty_grid():
    rep = run_experiment(
        _cfg(experiment="thm44i", generators=["X^2 + 1"], primes=[], t=2, N=6)
    )
    assert rep.rows == []
    assert rep.summary == {"rows": 0}
    assert rep.to_csv() == ",".join(rep.columns) + "\n"
    with pytest.raises(EmptyReport):
        fit_constants(rep)


# -- thm44ii -----------------------------------------------------------------


def test_thm44ii_needs_stream_and_bound():
    base = dict(experiment="thm44ii", generators=["X^2 + 1"], N=8, t=2)
    with pytest.raises(ConfigError):
        run_experiment(_cfg(**base, prime_max=20))
    with pytest.raises(ConfigError):
        run_experiment(_cfg(**base, stream={"kind": "periodic", "period": [1]}))


def test_thm44ii_full_recount():
    cfg = _cfg(
        experiment="thm44ii",
        generators=["X^2 + 1"],
        prime_max=100,
        N=8,
        t=2,
        stream={"kind": "periodic", "period": [1]},
    )
    rep = run_experiment(cfg)
    assert len(rep.rows) == 25  # primes up to 100
    F = GeneratorSet([parse_poly("X^2 + 1")])
    stream = stream_from_config(cfg.stream)
    exceptional = []
    for row in rep.rows:
        p = _by_col(rep, row, "p")
        ctx = make_prime_field(p)
        counts = [m_count(F, stream, ctx.element(w), 2, 8) for w in range(p)]
        best = max(counts)
        assert _by_col(rep, row, "max_M") == best
        assert _by_col(rep, row, "argmax_w") == counts.index(best)
        bound = max(math.sqrt(8), 8 / math.log(p))
        assert _by_col(rep, row, "bound") == pytest.approx(bound)
        flag = _by_col(rep, row, "exceptional")
        assert flag == (1 if best > bound else 0)
        if flag:
            exceptional.append(p)
    assert exceptional == [3]
    assert rep.summary["exceptional"] == 1
    assert rep.summary["p_over_log_p"] == pytest.approx(100 / math.log(100))
    assert rep.summary["exceptional_fraction"] == pytest.approx(
        1 / (100 / math.log(100))
    )


def test_thm44ii_generous_constant_has_no_exceptions():
    rep = run_experiment(
        _cfg(
            experiment="thm44ii",
            generators=["X^2 + 1"],
            prime_max=50,
            N=8,
            t=2,
            C=100.0,
            stream={"kind": "periodic", "period": [1]},
        )
    )
    assert rep.summary["exceptional"] == 0


def test_thm44ii_degenerate_prime_range():
    rep = run_experiment(
        _cfg(
            experiment="thm44ii",
            generators=["X^2 + 1"],
            prime_max=1,
            N=8,
            t=2,
            stream={"kind": "periodic", "period": [1]},
        )
    )
    assert rep.rows == []
    assert "p_over_log_p" not in rep.summary


def test_thm44ii_prime_without_starts_has_no_maximum():
    # no starts, no max_M: its cells are "." (never a -1 sentinel) and the
    # prime is not exceptional
    grid = dict(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], prime_max=13,
                t=4, N=5, stream={"kind": "periodic", "period": [1, 2]})
    for empty in (dict(sample=0), dict(starts=[])):
        rep = run_experiment(_cfg(**grid, **empty))
        assert [_by_col(rep, row, "p") for row in rep.rows] == [2, 3, 5, 7, 11, 13]
        for row in rep.rows:
            assert _by_col(rep, row, "starts") == 0
            assert _by_col(rep, row, "exceptional") == 0
            for name in ("max_M", "argmax_w", "ratio"):
                assert _by_col(rep, row, name) is None
        assert rep.summary["exceptional"] == 0
        assert rep.to_csv().splitlines()[1] == "2,4,5,0,.,.,7.21347520444,.,0"


def _per_start_thm44ii(cfg, rep):
    """Check every row's max_M and argmax_w against per-start m_count."""
    F = GeneratorSet([parse_poly(g) for g in cfg.generators])
    stream = stream_from_config(cfg.stream)
    for row in rep.rows:
        p = _by_col(rep, row, "p")
        ctx = make_prime_field(p) if cfg.s == 1 else make_extension_field(p, cfg.s)
        ws = verify._starts(cfg, ctx.q)
        counts = [m_count(F, stream, ctx.from_index(w), cfg.t, cfg.N) for w in ws]
        assert _by_col(rep, row, "starts") == len(ws)
        best = max(counts, default=None)
        assert _by_col(rep, row, "max_M") == best
        assert _by_col(rep, row, "argmax_w") == (ws[counts.index(best)] if ws else None)


def test_thm44ii_walk_matches_m_count():
    gens = ["X^2 + 1", "X^3 + 2"]
    random_stream = {"kind": "random", "k": 2, "seed": 11}
    periodic = {"kind": "periodic", "period": [2, 1, 1], "preperiod": [1, 2, 2]}
    grids = [
        dict(stream=random_stream, prime_max=60, t=4, N=12),
        dict(stream=periodic, prime_max=60, t=3, N=9),
        # 0 and a duplicate; 4 starts * 16 steps take the table on every field up to 60
        dict(stream=random_stream, prime_max=60, t=6, N=16, starts=[0, 5, 3, 5]),
        dict(stream=periodic, prime_max=60, t=4, N=1),
        dict(stream=random_stream, prime_max=60, t=4, N=8, starts=[]),
        dict(stream=periodic, prime_max=7, s=2, t=3, N=7),  # extension fields: array walk
    ]
    for grid in grids:
        cfg = _cfg(experiment="thm44ii", generators=gens, **grid)
        rep = run_experiment(cfg)
        assert len(rep.rows) == (17 if grid.get("s", 1) == 1 else 4)
        _per_start_thm44ii(cfg, rep)
        if grid.get("starts") == []:
            assert {(_by_col(rep, r, "starts"), _by_col(rep, r, "max_M"),
                     _by_col(rep, r, "argmax_w")) for r in rep.rows} == {(0, None, None)}
    # a letter naming no generator is refused when the config loads, whether
    # or not a start would walk it
    bad = dict(experiment="thm44ii", generators=gens, t=2, N=5,
               stream={"kind": "periodic", "period": [1, 3]})
    for extra in (dict(prime_max=13), dict(prime_max=1), dict(prime_max=13, starts=[])):
        with pytest.raises(ConfigError, match=r"\[1, 2\]"):
            _cfg(**extra, **bad)
    # a config made without loading it still fails once a start is walked
    with pytest.raises(LetterOutOfRange) as err:
        run_experiment(ExperimentConfig(prime_max=13, **bad))
    assert str(err.value) == "letter 3 outside [1, 2]"


def test_thm44ii_prime_fields_walk_all_starts_at_once(monkeypatch):
    # one walk over the successor table per field: the only point-by-point
    # evaluations left are the certificate's N - 1 steps from the winner
    calls = []
    real_eval = FieldPolynomial.eval

    def counted(self, x):
        calls.append(x)
        return real_eval(self, x)

    monkeypatch.setattr(FieldPolynomial, "eval", counted)
    N = 12
    cfg = _cfg(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], prime_max=60,
               t=4, N=N, stream={"kind": "random", "k": 2, "seed": 3})
    rep = run_experiment(cfg)
    assert len(rep.rows) == 17
    assert len(calls) == (N - 1) * len(rep.rows)
    # 50 sampled starts * 40 steps cover the 1009 rows of F_1009: one table,
    # which the run builds itself, with neither build_graph nor a Γ(t) listing ...
    graphs, listed = [], []
    real_graph, real_listing = verify.build_graph, verify.small_order_set
    monkeypatch.setattr(verify, "build_graph", lambda *a: graphs.append(a) or real_graph(*a))
    monkeypatch.setattr(verify, "small_order_set",
                        lambda *a: listed.append(a) or real_listing(*a))
    stream = {"kind": "random", "k": 2, "seed": 3}
    small = dict(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], primes=[1009],
                 prime_max=1009, sample=50, t=4, N=40, stream=stream)
    calls.clear()
    rep = run_experiment(_cfg(**small))
    assert (len(graphs), len(listed), len(calls)) == (0, 0, 39)
    _per_start_thm44ii(_cfg(**small), rep)
    # ... but on F_65537 they take 2000 < q steps: an array walk, again with
    # no point-by-point evaluation but the certificate's
    calls.clear()
    big = dict(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], primes=[65537],
               prime_max=65537, sample=50, N=40, stream=stream)
    run_experiment(_cfg(t=4, **big))
    assert (len(graphs), len(calls)) == (0, 39)
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("whole-field table for a few starts")

    # so does t = 2^16, where the walked points are tested, not the 2^16 units
    # listed, and 4 starts on F_1048573
    monkeypatch.setattr(verify, "build_graph", refuse)
    for cfg in (
        _cfg(t=65536, **big),
        _cfg(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], prime_max=1048573,
             primes=[1048573], sample=4, t=4, N=N, stream={"kind": "random", "k": 2, "seed": 3}),
    ):
        rep = run_experiment(cfg)
        assert _by_col(rep, rep.rows[0], "starts") == cfg.sample
        _per_start_thm44ii(cfg, rep)


def test_thm44ii_extension_field_walks_all_starts_at_once(monkeypatch):
    # all 81 starts of F_{3^4} walk as arrays: only the certificate evaluates
    # point by point, N - 1 times
    calls = []
    real_eval = FieldPolynomial.eval
    counted = lambda self, x: calls.append(x) or real_eval(self, x)
    monkeypatch.setattr(FieldPolynomial, "eval", counted)
    N = 8
    cfg = _cfg(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], primes=[3], s=4,
               prime_max=3, t=5, N=N, stream={"kind": "random", "k": 2, "seed": 5})
    rep = run_experiment(cfg)
    assert len(calls) == N - 1
    assert _by_col(rep, rep.rows[0], "starts") == 81
    monkeypatch.undo()
    _per_start_thm44ii(cfg, rep)


THM44II_POOL = ["X^2 + 1", "X^3 + 2", "X^2 + X + 1", "X^3 + X"]  # none special
THM44II_FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (31, 1), (2, 3), (2, 4), (3, 2), (5, 2)]


def test_thm44ii_rows_match_m_count(monkeypatch):
    # a prime field walks its whole table once the starts take at least q steps
    # in all, and every other field evaluates the walked points; both give
    # per-start m_count's maximum and its first maximizing start; a table run
    # builds its table and Γ(t) mask itself, with neither build_graph nor a
    # Γ(t) listing
    graphs, listed = [], []
    real_graph, real_listing = verify.build_graph, verify.small_order_set
    monkeypatch.setattr(verify, "build_graph", lambda *a: graphs.append(a) or real_graph(*a))
    monkeypatch.setattr(verify, "small_order_set",
                        lambda *a: listed.append(a) or real_listing(*a))
    walks = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        p, s = data.draw(st.sampled_from(THM44II_FIELDS))
        q = p**s
        gens = data.draw(st.lists(st.sampled_from(THM44II_POOL), min_size=1, max_size=2,
                                  unique=True))
        letters = st.lists(st.integers(1, len(gens)), min_size=1, max_size=3)
        stream = data.draw(st.one_of(
            st.builds(lambda seed: {"kind": "random", "k": len(gens), "seed": seed},
                      st.integers(0, 99)),
            st.builds(lambda pre, period: {"kind": "periodic", "preperiod": pre,
                                           "period": period}, letters, letters)))
        N = data.draw(st.integers(1, 12))
        starts = data.draw(st.lists(st.integers(0, q - 1), max_size=8))
        cfg = _cfg(experiment="thm44ii", generators=gens, primes=[p], prime_max=p, s=s,
                   starts=starts, t=data.draw(st.integers(1, q - 1)), N=N, stream=stream)
        graphs.clear()
        listed.clear()
        rep = run_experiment(cfg)
        table_walk = bool(starts) and s == 1 and len(starts) * N >= q
        assert graphs == [] and not (table_walk and listed)
        walks.add(table_walk)
        _per_start_thm44ii(cfg, rep)

    check()
    assert walks == {False, True}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_m_count_orders_only_the_points_of_mu_L(data):
    # the certificate counts by literal powering's orders, and mul_order sees
    # exactly the walked nonzero points with x^L = 1, L the lcm of the
    # divisors <= t of q - 1
    p, s = data.draw(st.sampled_from(THM44II_FIELDS))
    ctx = make_prime_field(p) if s == 1 else make_extension_field(p, s)
    q = ctx.q
    gens = data.draw(st.lists(st.sampled_from(THM44II_POOL), min_size=1, max_size=2,
                              unique=True))
    F = GeneratorSet([parse_poly(g) for g in gens])
    stream = stream_from_config(data.draw(st.one_of(
        st.builds(lambda seed: {"kind": "random", "k": len(gens), "seed": seed},
                  st.integers(0, 99)),
        st.builds(lambda period: {"kind": "periodic", "period": period},
                  st.lists(st.integers(1, len(gens)), min_size=1, max_size=3)))))
    t = data.draw(st.one_of(st.integers(1, q), st.just(10**12)))
    N = data.draw(st.integers(1, 30))
    walked = [ctx.from_index(data.draw(st.integers(0, q - 1)))]
    for n in range(1, N):
        walked.append(F.reduced(ctx)[stream.letter(n) - 1].eval(walked[-1]))
    L = math.lcm(*(d for d in range(1, q) if (q - 1) % d == 0 and d <= t))
    ordered = []
    with mock.patch.object(orbits, "mul_order", lambda u: ordered.append(u) or mul_order(u)):
        count = m_count(F, stream, walked[0], t, N)
    assert count == sum(not v.is_zero and order_by_powering(v) <= t for v in walked)
    assert ordered == [v for v in walked if not v.is_zero and (v**L).is_one]


@example(limit=MAX_GRAPH_SIZE, prime_min=2, prime_max=60, s=1, starts=[0, 5, 3, 5, 0],
         N=16, t=6, stream={"kind": "random", "k": 2, "seed": 11})
@example(limit=40, prime_min=2, prime_max=30, s=1, starts=[0, 7, 7], N=20, t=4,
         stream={"kind": "periodic", "preperiod": [1], "period": [2, 1]})
@example(limit=MAX_GRAPH_SIZE, prime_min=2, prime_max=7, s=2, starts=[0, 1, 1, 5], N=9, t=3,
         stream={"kind": "random", "k": 2, "seed": 0})
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    limit=st.sampled_from([MAX_GRAPH_SIZE, 40, 90]),
    prime_min=st.integers(2, 40),
    prime_max=st.integers(2, 80),
    s=st.sampled_from([1, 1, 1, 2]),
    starts=st.lists(st.integers(0, 120), max_size=8),
    N=st.integers(1, 24),
    t=st.integers(1, 12),
    stream=st.one_of(
        st.builds(lambda seed: {"kind": "random", "k": 2, "seed": seed}, st.integers(0, 99)),
        st.builds(lambda pre, period: {"kind": "periodic", "preperiod": pre, "period": period},
                  st.lists(st.integers(1, 2), max_size=3),
                  st.lists(st.integers(1, 2), min_size=1, max_size=3)),
    ),
)
def test_thm44ii_one_walk_over_a_grid_matches_per_field_walks(limit, prime_min, prime_max, s,
                                                               starts, N, t, stream):
    # the whole prime fields of a grid walk as one table of at most ``limit``
    # rows, in batches; fields on the evaluated walk and fields without starts
    # sit between them; every row is the per-field oracle's, and the table
    # runs call neither build_graph nor a Γ(t) listing
    cfg = _cfg(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], prime_min=prime_min,
               prime_max=prime_max, s=s, starts=starts, N=N, t=t, stream=stream)
    graphs, listed = [], []
    real_graph, real_listing = verify.build_graph, verify.small_order_set
    with mock.patch.object(verify, "MAX_GRAPH_SIZE", limit), \
            mock.patch.object(verify, "build_graph", lambda *a: graphs.append(a) or real_graph(*a)), \
            mock.patch.object(verify, "small_order_set",
                              lambda ctx, t: listed.append(ctx.q) or real_listing(ctx, t)):
        rep = run_experiment(cfg)
        table = [ctx.q for _, ctx, ws in verify._grid(cfg)
                 if ws and verify._whole_field(ctx) and len(ws) * N >= ctx.q]
        assert graphs == [] and not set(listed) & set(table)
        assert rep.rows == thm44ii_rows_by_field(cfg)


def test_thm44ii_batches_split_at_the_row_limit(monkeypatch):
    # every field of F_2 .. F_59 takes the table: at a 100-row limit they
    # walk in batches of at most 100 rows (F_2 .. F_23 fill one exactly)
    batches = []
    real_walk = verify._walk_tables
    monkeypatch.setattr(verify, "MAX_GRAPH_SIZE", 100)
    monkeypatch.setattr(verify, "_walk_tables", lambda F, t, letters, run: (
        batches.append([ctx.q for _, ctx, _ in run]) or real_walk(F, t, letters, run)))
    cfg = _cfg(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], prime_max=59,
               starts=[0, 4, 1, 4], t=4, N=15, stream={"kind": "random", "k": 2, "seed": 2})
    rep = run_experiment(cfg)
    assert batches == [[2, 3, 5, 7, 11, 13, 17, 19, 23], [29, 31, 37], [41, 43], [47, 53], [59]]
    assert rep.rows == thm44ii_rows_by_field(cfg)
    _per_start_thm44ii(cfg, rep)


PRIMES_TO_300 = [p for p in range(2, 300) if is_prime(p)]
# negative and above-p coefficients; 7X^3 + X^2 + 2 is X^2 + 2 mod 7
RUN_POOL = ["X^2 + 1", "-X^2 + 400*X - 7", "X^3 - 5*X + 1000", "7X^3 + X^2 + 2",
            "-X^4 + 3X^3 - 301"]


@functools.cache
def _orders_by_powering(p):
    ctx = make_prime_field(p)
    return [None] + [order_by_powering(ctx.from_index(x)) for x in range(1, p)]


@example(primes=[7, 5, 2], gens=["7X^3 + X^2 + 2", "X^2 + 1"], t="p-1", block=3)
@example(primes=[3, 2, 11], gens=RUN_POOL, t=1, block=4)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    primes=st.lists(st.sampled_from(PRIMES_TO_300), min_size=1, max_size=5, unique=True),
    gens=st.lists(st.sampled_from(RUN_POOL), min_size=1, max_size=3, unique=True),
    t=st.one_of(st.sampled_from([1, 2, 3, "p-2", "p-1", 10**12]), st.integers(1, 300)),
    block=st.integers(1, 64),
)
def test_thm44ii_run_tables_match_per_field_graphs(primes, gens, t, block):
    # a table run's successor columns are each field's build_graph table
    # plus the field's first row, and its Γ(t) mask marks the nonzero points
    # whose order by literal powering is <= t; the blocks are small, so block
    # boundaries fall inside fields
    if isinstance(t, str):
        t = max(1, primes[0] - int(t[2:]))
    F = GeneratorSet([parse_poly(g) for g in gens])
    ctxs = [make_prime_field(p) for p in primes]
    with mock.patch.object(verify, "EVAL_BLOCK", block):
        cols, mask = verify._run_tables(F, t, ctxs)
    lo = 0
    for ctx in ctxs:
        hi = lo + ctx.q
        assert np.array_equal(cols[:, lo:hi], build_graph(F, ctx).table.T + lo)
        orders = _orders_by_powering(ctx.p)
        assert mask[lo:hi].tolist() == [x > 0 and orders[x] <= t for x in range(ctx.q)]
        lo = hi
    assert cols.shape == (F.k, lo) and mask.shape == (lo,)


# -- cor45 -------------------------------------------------------------------


def test_cor45_frozen_count():
    rep = run_experiment(
        _cfg(
            experiment="cor45",
            generators=["X^2", "X^2 + 1"],
            primes=[5],
            starts=[0],
            t=4,
            N=3,
        )
    )
    assert len(rep.rows) == 1
    row = rep.rows[0]
    # levels reach {0,1,2,4}; the three nonzero points all have order <= 4
    assert _by_col(rep, row, "count") == 3
    assert _by_col(rep, row, "q") == 5
    kN = 2.0**3
    bound = max(math.sqrt(3) * kN, 3 * kN / math.log(math.log(5)))
    assert _by_col(rep, row, "bound") == pytest.approx(bound)
    # monomial generator: warned about, not fatal here
    assert "monomial_conjugate" in rep.summary.get("special_generators", "")
    assert rep.summary["bound_note"].startswith("count <= q")


def test_cor45_include_level_0():
    base = dict(
        experiment="cor45", generators=["X^2"], primes=[7], starts=[3], t=6, N=2
    )
    without = run_experiment(_cfg(**base))
    with_start = run_experiment(_cfg(**base, include_level_0=True))
    # start 3 has order 6; reachable {2,4} both order 3
    assert _by_col(without, without.rows[0], "count") == 2
    assert _by_col(with_start, with_start.rows[0], "count") == 3


# -- thm46 -------------------------------------------------------------------


def test_thm46_frozen_row_with_diagnostics():
    rep = run_experiment(
        _cfg(
            experiment="thm46",
            generators=["X^2"],
            primes=[7],
            starts=[3],
            diagnostics=True,
        )
    )
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert _by_col(rep, row, "T") == 3
    assert _by_col(rep, row, "tau") == 6
    assert _by_col(rep, row, "s_cover") == 1
    lhs = 3 * math.log(2) + math.log(6)
    assert _by_col(rep, row, "lhs") == pytest.approx(lhs)
    assert _by_col(rep, row, "rhs") == pytest.approx(math.log(math.log(7)))
    assert _by_col(rep, row, "exception") == 0
    # walk 3 -> 2 -> 4 -> 2 collides at step 3 with step 1; X^(2^3) - X^(2^1)
    # shares its nonzero sixth-order roots with the n=6 cyclotomic
    assert _by_col(rep, row, "coll_m") == 3
    assert _by_col(rep, row, "coll_l") == 1
    assert _by_col(rep, row, "ord_n") == 6
    assert _by_col(rep, row, "res_mod_p") == 0
    assert rep.summary["exceptions"] == 0
    assert rep.summary["zeros_skipped"] == 0
    assert rep.summary["min_margin"] == pytest.approx(lhs - math.log(math.log(7)))


def test_thm46_fixed_point_and_zero_start():
    rep = run_experiment(
        _cfg(experiment="thm46", generators=["X^2"], primes=[7], starts=[1, 0])
    )
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert _by_col(rep, row, "T") == 1
    assert _by_col(rep, row, "tau") == 1
    assert _by_col(rep, row, "lhs") == pytest.approx(math.log(2))
    assert rep.summary["zeros_skipped"] == 1


def test_thm46_huge_constant_forces_exceptions():
    rep = run_experiment(
        _cfg(experiment="thm46", generators=["X^2"], primes=[7], starts=[3], c=1e9)
    )
    assert rep.summary["exceptions"] == 1


def test_thm46_rejects_nonpositive_c():
    with pytest.raises(ConfigError):
        run_experiment(
            _cfg(experiment="thm46", generators=["X^2"], primes=[7], c=0.0)
        )


def test_thm46_diagnostic_degree_cap():
    rep = run_experiment(
        _cfg(
            experiment="thm46",
            generators=["X^2"],
            primes=[101],
            starts=[3],
            diagnostics=True,
            diag_degree_cap=4,
        )
    )
    row = rep.rows[0]
    # collisions past degree 2^2 skip the resultant, keeping m, l, n
    if 2 ** _by_col(rep, row, "coll_m") > 4:
        assert _by_col(rep, row, "res_mod_p") is None


def _count_compose(monkeypatch):
    calls = []
    real_compose = IntPolynomial.compose

    def counted(self, other):
        calls.append(other)
        return real_compose(self, other)

    monkeypatch.setattr(IntPolynomial, "compose", counted)
    return calls


DIAGNOSTIC_GRIDS = (
    dict(generators=["X^2 + 1", "X^3 + 2"], primes=[7, 11, 13]),
    # reach tables: table rows are not field indices
    dict(generators=["X^2 + 1", "X^3 + 2"], primes=[5], s=2, diag_degree_cap=729),
    dict(generators=["X^2 + 1", "X^3 + 2"], primes=[2], s=3, diag_degree_cap=729),
)


@pytest.mark.parametrize("grid", DIAGNOSTIC_GRIDS)
def test_thm46_diagnostic_matches_zx_resultant(grid):
    rep = run_experiment(_cfg(experiment="thm46", diagnostics=True, **grid))
    phi = parse_poly(grid["generators"][0])
    assert len(rep.rows) == sum(p**grid.get("s", 1) - 1 for p in grid["primes"])
    for r in rep.rows:
        res = _by_col(rep, r, "res_mod_p")
        assert res is not None
        m, l, n = (_by_col(rep, r, c) for c in ("coll_m", "coll_l", "ord_n"))
        assert res == collision_resultant_mod_p(phi, m, l, n, _by_col(rep, r, "p"))


def test_thm46_diagnostics_make_no_zx_calls(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Z[X] arithmetic on the thm46 path")

    monkeypatch.setattr(IntPolynomial, "compose", forbidden)
    monkeypatch.setattr(verify, "resultant", forbidden)
    monkeypatch.setattr(verify, "cyclotomic", forbidden)
    for grid in DIAGNOSTIC_GRIDS:
        rep = run_experiment(_cfg(experiment="thm46", diagnostics=True, **grid))
        assert {_by_col(rep, r, "res_mod_p") for r in rep.rows} == {0}


def test_collision_diagnostic_checks_the_walk():
    ctx = make_prime_field(7)
    F = GeneratorSet([parse_poly("X^2")])
    cfg = _cfg(experiment="thm46", generators=["X^2"], primes=[7], diagnostics=True)
    table = build_graph(F, ctx).table
    assert verify._collision_diagnostic(cfg, F, ctx, table, 3, 3, 6) == (3, 1, 6, 0)
    # a table that makes 3 a fixed point, where X^2 sends 3 to 2
    with pytest.raises(AssertionError):
        verify._collision_diagnostic(cfg, F, ctx, np.arange(7)[:, None], 3, 3, 6)


def test_thm46_diagnostic_on_f3_6():
    # 2^12 = 4096 stays within the default diag_degree_cap
    rep = run_experiment(
        _cfg(experiment="thm46", generators=["X^2 + 1", "X^3 + 2"], primes=[3], s=6,
             starts=[47], diagnostics=True)
    )
    (row,) = rep.rows
    assert _by_col(rep, row, "coll_m") == 12
    assert _by_col(rep, row, "coll_l") == 0
    assert _by_col(rep, row, "ord_n") == 728
    assert _by_col(rep, row, "res_mod_p") == 0


# (w, T, tau, s_cover) on F_{3^6} under X^2 + 1, X^3 + 2: covers of one to
# four walks, each a greedy walk steered by breadth-first search
THM46_F3_6_COVERS = [
    (1, 3, 1, 1),
    (2, 3, 2, 1),
    (129, 9, 4, 2),
    (207, 21, 13, 1),
    (144, 24, 26, 2),
    (3, 636, 728, 3),
    (5, 636, 364, 3),
    (66, 638, 728, 3),
    (51, 642, 728, 4),
    (165, 642, 728, 4),
]


def test_thm46_frozen_covers():
    rep = run_experiment(
        _cfg(experiment="thm46", generators=["X^2 + 1", "X^3 + 2"], primes=[3], s=6,
             starts=[w for w, *_ in THM46_F3_6_COVERS])
    )
    got = [tuple(_by_col(rep, r, c) for c in ("w", "T", "tau", "s_cover")) for r in rep.rows]
    assert got == THM46_F3_6_COVERS


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    field=st.sampled_from([(2, s) for s in range(2, 10)] + [(3, s) for s in range(2, 7)]),
    generators=st.sampled_from([["X^2 + 1"], ["X^2 + 1", "X^3 + 2"], ["X^3 + X + 1", "X^2 + 2"]]),
    starts=st.lists(st.integers(0, 728), min_size=1, max_size=8),
    repeat=st.integers(0, 4),
)
@example(field=(3, 6), generators=["X^2 + 1", "X^3 + 2"], starts=[3, 0, 728, 1, 364], repeat=3)
def test_thm46_tau_is_mul_order_per_start(field, generators, starts, repeat):
    # τ comes from one batched call per table: per start, with repeated and
    # zero starts, it must be the scalar order
    p, s = field
    ctx = make_extension_field(p, s)
    starts = [w % ctx.q for w in starts + starts[:repeat]]
    rep = run_experiment(_cfg(experiment="thm46", generators=generators, primes=[p], s=s,
                              starts=starts))
    nonzero = [w for w in starts if w]
    assert [_by_col(rep, r, "w") for r in rep.rows] == nonzero
    assert [_by_col(rep, r, "tau") for r in rep.rows] == [
        mul_order(ctx.from_index(w)) for w in nonzero
    ]


def test_thm46_orbit_cap_raises_truncated():
    with pytest.raises(Truncated):
        run_experiment(
            _cfg(experiment="thm46", generators=["X^2 + 1", "X^3 + 2"], primes=[3], s=6,
                 starts=[3], orbit_cap=100)
        )


def test_thm46_orbit_cap_stops_a_per_start_table(monkeypatch):
    # above 2^20 each start's table is its orbit: a smaller orbit cap stops
    # the reach build at the level that passes it, every point evaluated
    # before then within the cap, and raises Truncated (exit 3)
    evaluated = []
    real = orbits.eval_indices_all
    monkeypatch.setattr(orbits, "eval_indices_all",
                        lambda red, idx: evaluated.append(len(idx)) or real(red, idx))
    gens, p = ["X^2 + 1", "X^3 + 2"], 2147483647
    with pytest.raises(Truncated):
        run_experiment(_cfg(experiment="thm46", generators=gens, primes=[p], starts=[3],
                            orbit_cap=1000))
    assert 0 < sum(evaluated) <= 1000
    # a cap past the table guard meets the guard first (TooLarge, exit 4); a
    # guard of 500 points stands in for 2^20 here
    monkeypatch.setattr(orbits, "MAX_GRAPH_SIZE", 500)
    F, ctx = GeneratorSet([parse_poly(g) for g in gens]), make_prime_field(p)
    with pytest.raises(TooLarge):
        orbits.reach_table(F, ctx, [3], cap=1000)
    with pytest.raises(Truncated):
        orbits.reach_table(F, ctx, [3], cap=400)


def test_thm46_small_reach_reads_few_table_rows():
    # F_65537 takes its whole graph, but the orbit of 1 under X^2, X^3 is {1}:
    # the orbit and cover read that row alone.  Lists of all 2^16 rows would
    # add about 8 MB to the peak.
    gens = ["X^2", "X^3"]
    table = build_graph(GeneratorSet([parse_poly(g) for g in gens]), make_prime_field(65537)).table
    tracemalloc.start()
    try:
        rep = run_experiment(_cfg(experiment="thm46", generators=gens, primes=[65537], starts=[1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (row,) = rep.rows
    assert (_by_col(rep, row, "T"), _by_col(rep, row, "s_cover")) == (1, 1)
    assert peak - table.nbytes < 6 << 20


# -- thm61 -------------------------------------------------------------------


def test_thm61_row_consistency():
    cfg = _cfg(
        experiment="thm61",
        generators=["X^2", "X^2 + 1"],
        primes=[11],
        starts=[2],
        t=10,
        N=4,
        h=3,
        l=1,
    )
    rep = run_experiment(cfg)
    assert len(rep.rows) == 1
    row = rep.rows[0]
    F = GeneratorSet([parse_poly("X^2"), parse_poly("X^2 + 1")])
    ctx = make_prime_field(11)
    gamma = small_order_set(ctx, 10)
    graph = build_graph(F, ctx)
    assert _by_col(rep, row, "B") == b_tree_size(2, 3) == 7
    assert _by_col(rep, row, "count") == exhaustive_small_order_count(
        F, ctx.element(2), 10, 4
    )
    words = [
        tuple(int(c) for c in part.split("-"))
        for part in _by_col(rep, row, "words").split("|")
    ]
    assert len(words) == 1 and 1 <= len(words[0]) <= 3
    # the reported L_N is the count the reported words actually achieve
    assert _by_col(rep, row, "L_N") == naive_l_n_count(graph, 2, gamma, 4, words)
    target = _by_col(rep, row, "target")
    assert target > 0
    assert _by_col(rep, row, "eq61_ratio") == pytest.approx(
        _by_col(rep, row, "L_N") / target
    )
    assert _by_col(rep, row, "hypothesis") in (0, 1)
    bound = max(7.0**2 / 3, 7.0**2 / math.log(math.log(11)))
    assert _by_col(rep, row, "bound") == pytest.approx(bound)


# thm61 rows with l = 3 on F_{2^8} (h = 4: C(30, 3) = 4060 word triples per start),
# (t, N) -> [(w, L_N, words)], as the subset-by-subset witness scan reported them
THM61_WORDS_FROZEN = {
    (17, 6): [
        (3, 13, "1-1-2-2|2-1-1-2|2-2-1-1"),
        (17, 13, "1-1-2-2|2-1-1-2|2-2-1-1"),
        (100, 7, "1-2-2|1-1-1-2|1-2-1-1"),
        (200, 8, "1-2|1-1-1-2|1-2-1-1"),
        (45, 4, "2|2-2|1-1-2"),
    ],
    (255, 5): [
        (3, 18, "1|2|1-2"),
        (17, 18, "1|2|1-2"),
        (100, 16, "1|2|2-2"),
        (200, 18, "1|2|1-2"),
        (45, 19, "1|2|1-2"),
    ],
}


@pytest.mark.parametrize("t, N", sorted(THM61_WORDS_FROZEN))
def test_thm61_frozen_witness_words(t, N):
    rep = run_experiment(
        _cfg(experiment="thm61", generators=["X^2 + 1", "X^3 + 2"], primes=[2], s=8,
             t=t, N=N, h=4, l=3, starts=[3, 17, 100, 200, 45])
    )
    got = [tuple(_by_col(rep, row, c) for c in ("w", "L_N", "words")) for row in rep.rows]
    assert got == THM61_WORDS_FROZEN[t, N]


def test_thm61_extension_fields_build_no_whole_graph(monkeypatch):
    # F_{2^8} takes the starts' reach within N + h steps, and the frozen words
    # hold on it
    def refuse(*args):
        raise AssertionError("whole-field graph for a few starts")

    monkeypatch.setattr(verify, "build_graph", refuse)
    for t, N in sorted(THM61_WORDS_FROZEN):
        test_thm61_frozen_witness_words(t, N)


def test_thm61_above_the_graph_cap_matches_oracles():
    # p = 2^31 - 1 was refused while thm61 built the whole-field graph
    p, gens, starts, t, N, h, l = 2**31 - 1, ["X^2 + 1", "X^3 + 2"], [0, 1, 3], 62, 6, 3, 2
    rep = run_experiment(_cfg(experiment="thm61", generators=gens, primes=[p], starts=starts,
                              t=t, N=N, h=h, l=l))
    F = GeneratorSet([parse_poly(g) for g in gens])
    ctx = make_prime_field(p)
    counts = [_by_col(rep, row, "count") for row in rep.rows]
    assert counts == [exhaustive_small_order_count(F, ctx.element(w), t, N) for w in starts]
    assert counts == [2, 1, 0]
    for w, row in zip(starts, rep.rows):
        # the start's own reach: row 0 is w
        table, points = bfs_reach_table(F, ctx, [w], N + h)
        graph = FunctionalGraph(table)
        members = [r for r, v in enumerate(points.tolist())
                   if order_at_most(ctx.from_index(v), t)]
        words, L_N = exhaustive_witness_words(graph, 0, members, N, h, l)
        assert _by_col(rep, row, "words") == "|".join(map(verify._word_str, words))
        assert _by_col(rep, row, "L_N") == L_N == naive_l_n_count(graph, 0, members, N, words)


THM61_POOL = ["X^2 + 1", "X^3 + 2", "X^2", "X^2 + X + 1", "X^3 + X"]
# prime fields take the whole-field table, extension fields the reach within N + h
THM61_FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (31, 1),
                (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3)]


@st.composite
def _thm61_cases(draw):
    """(p, s, generators, starts, t, N, h, l, include_level_0); the 0-4 starts
    are drawn from two points and 0, so repeats and the zero start are common."""
    p, s = draw(st.sampled_from(THM61_FIELDS))
    q = p**s
    gens = draw(st.lists(st.sampled_from(THM61_POOL), min_size=1, max_size=2, unique=True))
    pool = draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=2)) + [0]
    starts = draw(st.lists(st.sampled_from(pool), max_size=4))
    l = draw(st.integers(1, 2))
    h = draw(st.integers(1 if len(gens) > 1 or l == 1 else 2, 3))  # l words of length <= h
    return (p, s, gens, starts, draw(st.integers(1, q - 1)), draw(st.integers(0, 4)), h, l,
            draw(st.booleans()))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_thm61_cases())
@example(case=(13, 1, ["X^2 + 1", "X^3 + 2"], [5, 0, 7, 5], 4, 4, 3, 2, True))
@example(case=(3, 3, ["X^2 + 1", "X^3 + 2"], [20, 5, 0, 20], 6, 4, 3, 2, False))
@example(case=(2, 6, ["X^3 + X"], [], 9, 3, 2, 1, False))
def test_thm61_rows_match_exhaustive_oracles(case):
    # each start's count, witness words and L_N read its row of the _tables
    # table; the oracles read the whole-field graph, where row i is field index i
    p, s, gens, starts, t, N, h, l, level_0 = case
    rep = run_experiment(_cfg(experiment="thm61", generators=gens, primes=[p], s=s,
                              starts=starts, t=t, N=N, h=h, l=l, include_level_0=level_0))
    ctx = make_prime_field(p) if s == 1 else make_extension_field(p, s)
    F = GeneratorSet([parse_poly(g) for g in gens])
    graph = build_graph(F, ctx)
    qual = np.array([order_at_most(ctx.from_index(i), t) for i in range(ctx.q)])
    members = np.flatnonzero(qual)
    assert [_by_col(rep, row, "w") for row in rep.rows] == starts
    assert ([_by_col(rep, row, "count") for row in rep.rows]
            == count_by_level_union(graph.table, qual, starts, N, level_0))
    B = b_tree_size(F.k, h)
    for w, row in zip(starts, rep.rows):
        words, L_N = exhaustive_witness_words(graph, w, members, N, h, l)
        assert _by_col(rep, row, "words") == "|".join(map(verify._word_str, words))
        assert _by_col(rep, row, "L_N") == L_N == naive_l_n_count(graph, w, members, N, words)
        ball = sum(d <= N for d in bfs_distances(graph.table, w).values())
        assert _by_col(rep, row, "target") == pytest.approx(h / B ** (l + 1) * ball)


def test_thm61_h_from_n():
    rep = run_experiment(
        _cfg(
            experiment="thm61",
            generators=["X^2", "X^2 + 1"],
            primes=[5],
            starts=[2],
            t=4,
            N=4,
            h_from_n=True,
            l=1,
        )
    )
    assert _by_col(rep, rep.rows[0], "h") == 1
    with pytest.raises(ConfigError):
        run_experiment(
            _cfg(
                experiment="thm61",
                generators=["X^2 + 1"],
                primes=[5],
                t=4,
                N=4,
                h_from_n=True,
                l=1,
            )
        )


def test_thm61_requires_h_and_l():
    base = dict(
        experiment="thm61", generators=["X^2", "X^2 + 1"], primes=[5], t=4, N=4
    )
    with pytest.raises(ConfigError):
        run_experiment(_cfg(**base, l=1))
    with pytest.raises(ConfigError):
        run_experiment(_cfg(**base, h=2))


# -- lemma41 -----------------------------------------------------------------


def test_lemma41_frozen_values():
    rep = run_experiment(
        _cfg(experiment="lemma41", generators=["X^2 + 1"], r_max=2, s_max=1)
    )
    rows = {( _by_col(rep, r, "r"), _by_col(rep, r, "s")): r for r in rep.rows}
    # Res(X-1, X^2) = 1 and Res(X+1, X^2) = 1: both give log 0
    r11 = rows[(1, 1)]
    assert _by_col(rep, r11, "zero") == 0
    assert _by_col(rep, r11, "log_abs_res") == 0.0
    assert _by_col(rep, r11, "constant") == 0.0
    r21 = rows[(2, 1)]
    assert _by_col(rep, r21, "log_abs_res") == 0.0
    assert rep.summary["zero_resultants"] == 0


def test_lemma41_builds_one_charpoly_per_generator_and_r(monkeypatch):
    calls = _count_compose(monkeypatch)
    builds = []
    real_charpoly = verify.cyclotomic_charpoly

    def counted(f, r):
        builds.append((format_poly(f), r))
        return real_charpoly(f, r)

    monkeypatch.setattr(verify, "cyclotomic_charpoly", counted)
    gens = ["X^2 + 1", "X^3 + 2", "X^2 + 3X + 5"]
    rep = run_experiment(_cfg(experiment="lemma41", generators=gens, r_max=4, s_max=5))
    assert len(rep.rows) == 3 * 4 * 5
    assert calls == []
    assert builds == [(g, r) for g in gens for r in range(1, 5)]


def _lemma41_values(**grid):
    """The report on a lemma41 grid, and the resultant behind each of its rows."""
    values = []

    def recorded(polys, s_max):
        table = real_kernel(polys, s_max)
        values.extend(value for row in table for value in row)
        return table

    real_kernel = verify.cyclotomic_resultants
    with mock.patch.object(verify, "cyclotomic_resultants", recorded):
        rep = run_experiment(_cfg(**{"experiment": "lemma41", **grid}))
    assert len(values) == len(rep.rows)
    return rep, values


def _assert_rows_match_composites(rep, values, keep=lambda r, s: True):
    for (text, r, s, zero, log_abs_res, _), value in zip(rep.rows, values):
        if keep(r, s):
            expected = lemma41_by_composites(parse_poly(text), r, s)
            assert value == expected, (text, r, s)
            assert zero == (1 if expected == 0 else 0)
            assert log_abs_res == (None if expected == 0 else math.log(abs(expected)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    low=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    lead=st.integers(-6, 6).filter(bool),
    r_max=st.integers(1, 30),
    s_max=st.integers(1, 30),
)
@example(low=[0, 0], lead=1, r_max=1, s_max=1)  # X^2: X = 1 is a root of X - 1 and X^2 - 1
def test_lemma41_matches_the_composite_route(low, lead, r_max, s_max):
    f = IntPolynomial(low + [lead])
    rep, values = _lemma41_values(generators=[format_poly(f)], r_max=r_max, s_max=s_max)
    assert len(rep.rows) == r_max * s_max
    # the grid's last row and column, where r or s is largest
    _assert_rows_match_composites(rep, values, lambda r, s: r == r_max or s == s_max)


def test_lemma41_zero_resultant_grid_matches_the_composite_route():
    rep, values = _lemma41_values(**SUMMARY_CASES["lemma41_zero_resultants"][0])
    _assert_rows_match_composites(rep, values)
    assert values.count(0) == rep.summary["zero_resultants"] == 3


def test_lemma41_zero_flags_match_gcd():
    rep = run_experiment(
        _cfg(experiment="lemma41", generators=["X^2"], r_max=3, s_max=3)
    )
    from semiorbits import cyclotomic

    F = parse_poly("X^2")
    zero_at = set()
    for row in rep.rows:
        r, s = _by_col(rep, row, "r"), _by_col(rep, row, "s")
        flagged = _by_col(rep, row, "zero") == 1
        assert flagged == rational_gcd_is_nonconstant(
            cyclotomic(r), cyclotomic(s).compose(F)
        )
        if flagged:
            assert _by_col(rep, row, "log_abs_res") is None
            zero_at.add((r, s))
    # X = 1 is a shared root of X-1 and X^2-1
    assert (1, 1) in zero_at
    assert rep.summary["zero_resultants"] == len(zero_at)


def test_lemma41_guards():
    with pytest.raises(ConfigError):
        run_experiment(_cfg(experiment="lemma41", generators=["3"], r_max=2, s_max=2))
    with pytest.raises(TooLarge):
        run_experiment(
            _cfg(experiment="lemma41", generators=["X^2"], r_max=1, s_max=4096)
        )


def test_lemma41_cost_matches_the_grid_sum(monkeypatch):
    # the closed form against the sum over every (generator, r) and (r, s)
    def direct(degrees, r_max, s_max):
        chis = sum(euler_phi(r) * r * (d + 1) for d in degrees for r in range(1, r_max + 1))
        return chis + sum(
            euler_phi(r) * euler_phi(s) * (euler_phi(r) + euler_phi(s))
            for _ in degrees for r in range(1, r_max + 1) for s in range(1, s_max + 1))

    for grid in (([2], 1, 1), ([1, 4], 7, 3), ([2, 3, 2], 40, 40), ([5], 2, 60), ([2], 60, 60)):
        assert verify._lemma41_cost(*grid) == direct(*grid) <= verify.LEMMA41_COST_CAP
    # sweep's three generators at 40 x 40 and one at 60 x 60 run; 70 x 70 and
    # 100 x 100 do not, and the count stops short on a huge index
    assert verify._lemma41_cost([2, 3, 2], 40, 40) == 26_220_670
    assert verify._lemma41_cost([2], 70, 70) == direct([2], 70, 70) > verify.LEMMA41_COST_CAP
    for grid in (([2], 100, 100), ([2], 10**12, 1), ([2], 1, 10**12)):
        assert verify._lemma41_cost(*grid) > verify.LEMMA41_COST_CAP
    # the sum of phi(n)^2 passes 10^8 at n = 887: no phi is taken past it
    calls = []
    real_phi = verify.euler_phi
    monkeypatch.setattr(verify, "euler_phi", lambda n: calls.append(n) or real_phi(n))
    verify._lemma41_cost([2], 10**12, 10**12)
    assert max(calls) == 887


def test_lemma41_budget_fires_before_any_work(monkeypatch):
    # each χ_r and each Φ_s of a quadratic at 100 x 100 is small; the grid is not
    def forbidden(*args):
        raise AssertionError("lemma41 work before the budget check")

    for name in ("cyclotomic", "cyclotomic_charpoly", "resultant"):
        monkeypatch.setattr(verify, name, forbidden)
    for r_max, s_max in ((100, 100), (10**12, 1), (1, 10**12)):
        with pytest.raises(TooLarge, match="cost"):
            run_experiment(_cfg(experiment="lemma41", generators=["X^2 + 3*X + 5"],
                                r_max=r_max, s_max=s_max))


def test_lemma41_charpoly_guard_bounds_r(monkeypatch):
    # one χ_r costs about phi(r) r (deg F + 1) multiplications: r = 1187 is
    # the first index past the cap for a quadratic.  The guard fires before
    # any χ_r is built, so a missing guard fails here and does not hang
    def forbidden(f, r):
        raise AssertionError("a χ_r was built before the guard fired")

    monkeypatch.setattr(verify, "cyclotomic_charpoly", forbidden)
    cost = lambda r, d: euler_phi(r) * r * (d + 1)
    assert max(cost(r, 2) for r in range(1, 1187)) <= verify.CHARPOLY_COST_CAP < cost(1187, 2)
    with pytest.raises(TooLarge):
        run_experiment(_cfg(experiment="lemma41", generators=["X^2"], r_max=1187, s_max=1))
    with pytest.raises(TooLarge):  # the costliest generator sets the bound
        run_experiment(
            _cfg(experiment="lemma41", generators=["X + 1", "X^4"], r_max=1000, s_max=1)
        )


# -- prop21 ------------------------------------------------------------------


def test_prop21_rows_recompute():
    cfg = _cfg(
        experiment="prop21", generators=["2X^2 + 1"], n_max=2, trials=20, seed=3
    )
    rep = run_experiment(cfg)
    assert len(rep.rows) == 20
    F = GeneratorSet([parse_poly("2X^2 + 1")])
    saw_n2 = False
    for row in rep.rows:
        word = tuple(
            int(c) for c in _by_col(rep, row, "word").split("-")
        )
        comp = compose_word(F, word)
        assert _by_col(rep, row, "degree") == comp.degree
        assert _by_col(rep, row, "height") == pytest.approx(height(comp))
        ratio = _by_col(rep, row, "ratio")
        assert ratio is not None and ratio <= 1 + 1e-9
        if _by_col(rep, row, "n") == 2:
            saw_n2 = True
            assert comp == parse_poly("8X^4 + 8X^2 + 3")
    assert saw_n2
    assert rep.summary["violations"] == 0


def test_prop21_single_step_ratio_is_one():
    rep = run_experiment(
        _cfg(experiment="prop21", generators=["2X^2 + 1"], n_max=1, trials=3)
    )
    for row in rep.rows:
        assert _by_col(rep, row, "ratio") == pytest.approx(1.0)


def test_prop21_monomial_tower_heights():
    rep = run_experiment(
        _cfg(experiment="prop21", generators=["X^2"], n_max=3, trials=10)
    )
    for row in rep.rows:
        assert _by_col(rep, row, "height") == 0.0
        ratio = _by_col(rep, row, "ratio")
        if _by_col(rep, row, "n") == 1:
            assert ratio is None  # bound collapses to h(F) = 0
        else:
            assert ratio == 0.0


def test_prop21_guards():
    with pytest.raises(TooLarge):
        run_experiment(
            _cfg(experiment="prop21", generators=["X^3"], n_max=6, trials=1)
        )
    rep = run_experiment(
        _cfg(experiment="prop21", generators=["X^2 + 1"], n_max=2, trials=0)
    )
    assert rep.rows == [] and rep.summary["rows"] == 0


# -- fit + serialization -----------------------------------------------------


def _tiny_report(values):
    return ExperimentReport(
        config={"experiment": "x"},
        columns=("ratio",),
        rows=[(v,) for v in values],
        summary={},
    )


MONOMIAL = {"special_generators": "X^2 is monomial_conjugate"}

# one small grid per runner, with its whole summary as the runner produced it
# before the runners shared one summary builder (floats at 12 digits)
SUMMARY_CASES = {
    "thm44i_empty": (
        dict(experiment="thm44i", generators=["X^2 + 1"], primes=[], t=2, N=6),
        {"rows": 0},
    ),
    "thm44i": (
        dict(experiment="thm44i", generators=["X^2 + 1", "X^3 + 2"], primes=[11, 13], t=4, N=5),
        {"rows": 24, "max": 0.941938734748, "p95": 0.941938734748, "n": 24},
    ),
    "thm44ii_P_below_3": (
        dict(experiment="thm44ii", generators=["X^2 + 1"], prime_max=2, N=4, t=2,
             stream={"kind": "periodic", "period": [1]}),
        {"rows": 1, "exceptional": 0},
    ),
    "thm44ii": (
        dict(experiment="thm44ii", generators=["X^2 + 1", "X^3 + 2"], prime_max=13, N=6,
             t=3, C=0.5, stream={"kind": "periodic", "period": [1, 2]}),
        {"rows": 6, "exceptional": 5, "p_over_log_p": 5.06832618827,
         "exceptional_fraction": 0.986518983639},
    ),
    "cor45": (
        dict(experiment="cor45", generators=["X^2", "X^2 + 1"], primes=[7, 11],
             starts=[1, 2, 3], t=3, N=3),
        {"rows": 6, "bound_note": "count <= q everywhere; ratios expose the k^N slack",
         "max": 0.0832162263223, "p95": 0.0832162263223, "n": 6, **MONOMIAL},
    ),
    "thm46_zero_start_diagnostics": (
        dict(experiment="thm46", generators=["X^2", "X^2 + 1"], primes=[7, 11],
             starts=[0, 1, 3, 5], c=60.0, diagnostics=True),
        {"rows": 6, "exceptions": 3, "zeros_skipped": 2, "min_margin": -1.29433847,
         **MONOMIAL},
    ),
    "thm61": (
        dict(experiment="thm61", generators=["X^2", "X^2 + 1"], primes=[31],
             starts=[2, 3, 5], t=30, N=8, h=3, l=1),
        {"rows": 3, "hypothesis_met": 2, "max": 0.553916016317, "p95": 0.553916016317,
         "n": 3, **MONOMIAL},
    ),
    "lemma41_zero_resultants": (
        dict(experiment="lemma41", generators=["X^2", "X^2 + 1"], r_max=3, s_max=3),
        {"rows": 18, "zero_resultants": 3, "max": 0.324318358176, "p95": 0.324318358176,
         "n": 15},
    ),
    "prop21_no_trials": (
        dict(experiment="prop21", generators=["2X^2 + 1"], n_max=2, trials=0),
        {"rows": 0, "violations": 0},
    ),
    "prop21": (
        dict(experiment="prop21", generators=["2X^2 + 1", "X^3 - X"], n_max=2, trials=5, seed=3),
        {"rows": 5, "violations": 0, "max": 1.0, "p95": 1.0, "n": 5},
    ),
}


@pytest.mark.parametrize("case", sorted(SUMMARY_CASES))
def test_summary_frozen(case):
    cfg, summary = SUMMARY_CASES[case]
    assert run_experiment(_cfg(**cfg)).body_dict()["summary"] == summary


def test_fit_constants():
    assert fit_constants(_tiny_report([0.5])) == {"max": 0.5, "p95": 0.5, "n": 1}
    fit = fit_constants(_tiny_report([3.0, 1.0, 2.0]))
    assert fit == {"max": 3.0, "p95": 3.0, "n": 3}
    vals = [float(i) for i in range(1, 21)]
    assert fit_constants(_tiny_report(vals))["p95"] == 19.0
    with pytest.raises(EmptyReport):
        fit_constants(_tiny_report([None, None]))
    with pytest.raises(EmptyReport):
        fit_constants(_tiny_report([1.0]), "missing")


def test_report_formats():
    rep = ExperimentReport(
        config={"experiment": "x"},
        columns=("a", "b", "c"),
        rows=[(1, None, 0.123456789012345), (2, "txt", 1.0)],
        summary={"note": "n"},
    )
    csv = rep.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,.,0.123456789012"
    assert lines[2] == "2,txt,1"
    body = json.loads(rep.body_json())
    assert set(body) == {"config", "columns", "rows", "summary"}
    assert "created" not in rep.body_json()
    doc = json.loads(rep.to_json())
    assert doc["header"]["created"] == rep.created
    assert "experiment=x" in rep.summary_line()
    assert "rows=2" in rep.summary_line()


def test_determinism_same_config_same_body():
    cfg = dict(
        experiment="thm44i",
        generators=["X^2 + 1"],
        prime_min=3,
        prime_max=23,
        sample=4,
        seed=9,
        t_exponent=0.4,
        N=6,
    )
    a = run_experiment(_cfg(**cfg))
    b = run_experiment(_cfg(**cfg))
    assert a.body_json() == b.body_json()
    assert a.to_csv() == b.to_csv()
    # the sampler really did subsample
    assert all(row[_col(a, "s")] == 1 for row in a.rows)
    starts = {row[_col(a, "w")] for row in a.rows if row[0] == 23}
    assert len(starts) == 4


def _canon_body(rep):
    """The report body with every value rounded by the recursive _canon."""
    return verify._canon({"config": rep.config, "columns": list(rep.columns),
                          "rows": [list(r) for r in rep.rows], "summary": rep.summary})


def _as_json_dumps(rep):
    """The JSON report as json.dumps writes it."""
    doc = dict(_canon_body(rep), header={"created": rep.created, "tool": semiorbits.__version__})
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("case", sorted(SUMMARY_CASES))
def test_to_json_is_json_dumps_for_every_runner(case):
    rep = run_experiment(_cfg(**SUMMARY_CASES[case][0]))
    assert rep.to_json() == _as_json_dumps(rep)
    assert rep.body_json() == json.dumps(_canon_body(rep), sort_keys=True, separators=(",", ":"))


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.text(alphabet=st.sampled_from(list('][,"\\\n\t :{}\u00e9\u20ac\U0001f600')), max_size=8),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(_JSON_SCALARS, max_size=6).map(tuple), max_size=6))
@example(rows=[])
@example(rows=[()])
@example(rows=[(), (1,), ()])
@example(rows=[(1, "]"), (), ("[",)])
@example(rows=[("a",), (2, 3.5), ()])
@example(rows=[("]", 1), ("[", "],\n      ["), (None,)])
@example(rows=[(None, float("inf"), float("-inf"), float("nan"), True, False, -0.0,
                "]", "],\n    [", ",", '"', "a\nb", "\u00fc\u4e2d", 0.1234567890123456)])
def test_to_json_is_json_dumps_on_any_rows(rows):
    # strings that look like the row separators, every scalar JSON writes,
    # reports without rows and rows without items
    rep = ExperimentReport(config={"experiment": "x", "rows": [1]}, columns=("a", "rows"),
                           rows=rows, summary={"rows": len(rows), "note": '\n  "rows": 0'})
    assert rep.to_json() == _as_json_dumps(rep)


@pytest.mark.parametrize("experiment", ["thm44i", "cor45", "thm46", "thm61"])
def test_fields_without_starts_build_no_table(experiment):
    # sample 0 leaves F_1009 without starts, and thm46 skips the zero start:
    # a field that writes no rows gets no graph and no reach table
    base = dict(experiment=experiment, generators=["X^2 + 1", "X^3 + 2"], primes=[1009],
                t=4, N=5, h=2, l=1)
    empty = [dict(base, sample=0)] + ([dict(base, starts=[0])] if experiment == "thm46" else [])
    with mock.patch.object(verify, "build_graph", wraps=build_graph) as built, \
            mock.patch.object(verify, "reach_table") as reached:
        for cfg in empty:
            rep = run_experiment(_cfg(**cfg))
            assert rep.rows == [] and rep.summary["rows"] == 0
        built.assert_not_called()
        run_experiment(_cfg(**dict(base, starts=[5])))  # one start: one graph
        built.assert_called_once()
        reached.assert_not_called()


# -- fields above the whole-field table cap ----------------------------------


def test_runners_above_graph_cap_match_oracles():
    # q > MAX_GRAPH_SIZE, so the runners work on compact reach tables
    p = 1048583
    ctx = make_prime_field(p)
    assert ctx.q > MAX_GRAPH_SIZE
    t = 58  # orders 1, 2, 29 and 58 divide q - 1
    roots = small_order_set(ctx, t).tolist()
    rng = random.Random(1048583)
    systems = [["X^2"], ["X^2", "X^2 + 1"]]
    for _ in range(4):
        systems.append([
            format_poly(IntPolynomial(
                [rng.randint(-4, 4) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 3)]
            ))
            for _ in range(rng.randint(1, 2))
        ])
    small_orbits = 0
    for gens in systems:
        F = GeneratorSet([parse_poly(g) for g in gens])
        N = rng.randint(4, 8)
        starts = [rng.randrange(p), rng.choice(roots), rng.choice(roots)]
        base = dict(generators=gens, primes=[p], starts=starts, t=t, N=N)
        sup = run_experiment(_cfg(experiment="thm44i", allow_special=True, **base))
        cnt = run_experiment(_cfg(experiment="cor45", **base))
        succ = evaluated_successors(F, ctx)
        for w, row_m, row_c in zip(starts, sup.rows, cnt.rows):
            x = ctx.element(w)
            M, word = exhaustive_sup_m(F, x, t, N)
            assert _by_col(sup, row_m, "M") == M
            assert _by_col(sup, row_m, "word") == "-".join(map(str, word))
            assert _by_col(cnt, row_c, "count") == exhaustive_small_order_count(F, x, t, N)
            rec = orbit(succ, w, cap=2000)
            if not rec.truncated:
                assert set(rec.levels) == {v.index for v in closure_orbit(F, x)}
                small_orbits += 1
    # squaring keeps roots of unity among themselves: their orbits are small
    square = GeneratorSet([parse_poly("X^2")])
    rep = run_experiment(
        _cfg(experiment="thm46", generators=["X^2"], primes=[p], starts=roots)
    )
    for row in rep.rows:
        x = ctx.element(_by_col(rep, row, "w"))
        assert _by_col(rep, row, "T") == len(closure_orbit(square, x))
        small_orbits += 1
    assert small_orbits >= len(roots)


def test_sampled_starts_evaluate_only_their_reach(monkeypatch):
    # Above the cap, and on extension fields, the runners evaluate only the
    # starts' reach: no whole-field graph, and no whole-field Γ(t) list even
    # when t >= q - 1 makes every nonzero point qualify.
    def refuse(*args):
        raise AssertionError("whole-field work for a few starts")

    monkeypatch.setattr(verify, "build_graph", refuse)
    monkeypatch.setattr(verify, "small_order_set", refuse)
    gens = ["X^2 + 1", "X^3 + 2"]
    F = GeneratorSet([parse_poly(g) for g in gens])
    N = 5
    for p, s in ((1048583, 1), (2, 12), (3, 13)):
        ctx = make_prime_field(p) if s == 1 else make_extension_field(p, s)
        starts = [1, 5, ctx.q - 2]
        for t in (ctx.q - 1, 1 << 48):
            base = dict(generators=gens, primes=[p], s=s, starts=starts, t=t, N=N)
            sup = run_experiment(_cfg(experiment="thm44i", **base))
            cnt = run_experiment(_cfg(experiment="cor45", **base))
            for w, row_m, row_c in zip(starts, sup.rows, cnt.rows):
                x = ctx.from_index(w)
                assert _by_col(sup, row_m, "M") == exhaustive_sup_m(F, x, t, N)[0]
                assert _by_col(cnt, row_c, "count") == exhaustive_small_order_count(F, x, t, N)
        if s > 1:
            # Frobenius powers: every orbit has at most s points
            powers = ["X^%d" % p, "X^%d" % (p * p)]
            frob = GeneratorSet([parse_poly(g) for g in powers])
            rep = run_experiment(
                _cfg(experiment="thm46", generators=powers, primes=[p], s=s, starts=starts)
            )
            for w, row in zip(starts, rep.rows):
                assert _by_col(rep, row, "T") == len(closure_orbit(frob, ctx.from_index(w)))


# -- runner rows against the exhaustive oracles --------------------------------

# prime fields take the whole-field table, extension fields the starts' reach
RUNNER_FIELDS = [(11, 1), (13, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


@st.composite
def _runner_cases(draw):
    """(p, s, monic generators of degree 2 or 3, starts, t, N); the starts
    hold a repeated start and the zero start, in a drawn order."""
    p, s = draw(st.sampled_from(RUNNER_FIELDS))
    q = p**s
    coeffs = st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(lambda c: c + [1])
    gens = [format_poly(IntPolynomial(c)) for c in draw(st.lists(coeffs, min_size=1, max_size=2))]
    some = draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=4))
    starts = draw(st.permutations(some + [some[0], 0]))
    return p, s, gens, starts, draw(st.integers(1, q - 1)), draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_runner_cases())
@example(case=(13, 1, ["X^2 + 1", "X^3 + 2"], [5, 0, 7, 5], 4, 4))
@example(case=(3, 3, ["X^2 + 1", "X^3 + 2"], [20, 5, 0, 17, 5], 6, 4))
def test_runner_rows_match_exhaustive_oracles(case):
    # thm44i, cor45 and thm46 read each start's row from _tables; a wrong row
    # for any start, the repeated one included, changes that start's cells
    p, s, gens, starts, t, N = case
    ctx = make_extension_field(p, s)
    F = GeneratorSet([parse_poly(g) for g in gens])
    base = dict(generators=gens, primes=[p], s=s, starts=starts, t=t, N=N, allow_special=True)
    sup = run_experiment(_cfg(experiment="thm44i", **base))
    cnt = run_experiment(_cfg(experiment="cor45", **base))
    assert len(sup.rows) == len(cnt.rows) == len(starts)
    for w, row_m, row_c in zip(starts, sup.rows, cnt.rows):
        x = ctx.from_index(w)
        M, word = exhaustive_sup_m(F, x, t, N)
        assert (_by_col(sup, row_m, "w"), _by_col(cnt, row_c, "w")) == (w, w)
        assert _by_col(sup, row_m, "M") == M
        assert _by_col(sup, row_m, "word") == "-".join(map(str, word))
        assert _by_col(cnt, row_c, "count") == exhaustive_small_order_count(F, x, t, N)
    rep = run_experiment(_cfg(experiment="thm46", generators=gens, primes=[p], s=s,
                              starts=starts))
    nonzero = [w for w in starts if w]
    assert [_by_col(rep, row, "w") for row in rep.rows] == nonzero
    assert rep.summary["zeros_skipped"] == len(starts) - len(nonzero)
    # the covers of one table share its rows and mark list, so a cover that
    # read another start's marks would differ from the per-start oracle; the
    # oracles read rows more than once, so each row is evaluated once
    succ = functools.cache(evaluated_successors(F, ctx))
    for w, row in zip(nonzero, rep.rows):
        assert _by_col(rep, row, "T") == len(closure_orbit(F, ctx.from_index(w)))
        want = greedy_cover_by_bfs(succ, bfs_orbit(succ, w, DEFAULT_ORBIT_CAP))
        assert _by_col(rep, row, "s_cover") == want


# -- the Γ(t) mask -------------------------------------------------------------

SMALL_FIELDS = [(p, s) for s in range(1, 5) for p in range(2, 1 << 12)
                if is_prime(p) and p**s <= 1 << 12]


def test_qual_matches_order_by_powering(monkeypatch):
    # Γ(t) is listed or its points tested, whichever costs fewer multiplications;
    # both branches must give the powering oracle's mask, shape and repeats kept
    listed = []
    real = verify.small_order_set
    monkeypatch.setattr(verify, "small_order_set", lambda ctx, t: listed.append(t) or real(ctx, t))
    branches = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        p, s = data.draw(st.sampled_from(SMALL_FIELDS))
        ctx = make_extension_field(p, s)
        t = data.draw(st.integers(1, ctx.q))
        pool = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=6))
        shape = data.draw(st.sampled_from([(1,), (7,), (12,), (2, 3), (3, 4)]))
        size = math.prod(shape)
        cells = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        points = np.array(cells, dtype=np.int64).reshape(shape)
        listed.clear()
        got = verify._qual(ctx, t, points)
        branches.add(bool(listed))
        # it lists the maximal divisors' roots when they cost no more multiplications
        listing = sum(maximal_divisors_by_search(ctx.q - 1, t))
        assert bool(listed) == (listing <= points.size * ctx.q.bit_length())
        order = {i: order_by_powering(ctx.from_index(i)) for i in set(cells) if i}
        want = [i != 0 and order[i] <= t for i in cells]
        assert got.dtype == bool and got.shape == shape
        assert got.ravel().tolist() == want

    check()
    assert branches == {False, True}
    # F_17, t = 4, one point: listing μ_4 costs 4 <= 5 multiplications, where
    # listing the roots of every divisor <= 4 (1 + 2 + 4) would cost 7
    listed.clear()
    assert verify._qual(make_prime_field(17), 4, np.array([4])).tolist() == [True]
    assert listed == [4]
    # all-zero points take the per-point branch (16 > 2 * 5) with nothing to test
    listed.clear()
    zeros = np.zeros((2, 1), dtype=np.int64)
    assert verify._qual(make_prime_field(17), 16, zeros).tolist() == [[False], [False]]
    assert listed == []


def test_qual_mask_and_isin_paths_agree_with_isin():
    # at least q points index a q-entry mask of Γ(t), fewer go through
    # np.isin: both must give np.isin's mask, shape and repeats kept
    paths = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        p, s = data.draw(st.sampled_from([(p, s) for p, s in SMALL_FIELDS if p**s <= 64]))
        ctx = make_extension_field(p, s)
        t = data.draw(st.integers(1, ctx.q))
        pool = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=6))
        size = 2 * data.draw(st.integers(1, ctx.q))
        cells = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        points = np.array(cells, dtype=np.int64).reshape(2, -1)
        gamma = small_order_set(ctx, t)
        got = verify._qual(ctx, t, points)
        assert got.shape == points.shape
        assert got.tolist() == np.isin(points, gamma).tolist()
        paths.add(ctx.q <= size)

    check()
    assert paths == {False, True}


def test_extension_reach_lists_small_orders(monkeypatch):
    # a few starts on F_{2^12} reach far more points than Γ(15) has powers:
    # the mask lists Γ(t) and never tests a point's order
    def refuse(*args):
        raise AssertionError("mul_order on a reach row")

    monkeypatch.setattr(verify, "mul_order", refuse)
    gens = ["X^2 + 1", "X^3 + 2"]
    F = GeneratorSet([parse_poly(g) for g in gens])
    ctx = make_extension_field(2, 12)
    t, N, starts = 15, 5, [1, 5, ctx.q - 2]
    base = dict(generators=gens, primes=[2], s=12, starts=starts, t=t, N=N)
    sup = run_experiment(_cfg(experiment="thm44i", **base))
    cnt = run_experiment(_cfg(experiment="cor45", **base))
    for w, row_m, row_c in zip(starts, sup.rows, cnt.rows):
        x = ctx.from_index(w)
        M, word = exhaustive_sup_m(F, x, t, N)
        assert _by_col(sup, row_m, "M") == M
        assert _by_col(sup, row_m, "word") == "-".join(map(str, word))
        assert _by_col(cnt, row_c, "count") == exhaustive_small_order_count(F, x, t, N)
