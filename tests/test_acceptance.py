"""Acceptance gate: eleven timed criteria, one pass/fail line each.

Each criterion prints ``ACCEPTANCE <n> PASS|FAIL (<seconds>): <what>`` and
fails the suite when its exact checks or its time budget are violated.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import combinations, product

import numpy as np
import pytest

from semiorbits import (
    ExperimentConfig,
    FunctionalGraph,
    GeneratorSet,
    HypothesisViolated,
    IntPolynomial,
    WordStream,
    b_tree_size,
    build_graph,
    composition_height_bound,
    cyclotomic,
    find_common_gap,
    find_witness_words,
    height,
    is_prime,
    l_n_count,
    m_count,
    make_extension_field,
    make_prime_field,
    mul_order,
    pair_step_count,
    resultant,
    run_experiment,
    small_order_set,
    sup_m_over_sequences,
)
from semiorbits.cli import main
from oracles import (
    all_orders_extension_field,
    all_orders_prime_field,
    build_tree_nodes,
    compose_word,
    exhaustive_small_order_count,
    exhaustive_sup_m,
    max_primitive_coeff,
    naive_l_n_count,
    rational_gcd_is_nonconstant,
    resultant_by_determinant,
)


@contextmanager
def _criterion(num, limit, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print("ACCEPTANCE %d FAIL (%.2fs): %s" % (num, dt, desc))
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < limit else "FAIL"
    print("ACCEPTANCE %d %s (%.2fs): %s" % (num, verdict, dt, desc))
    assert dt < limit, "budget exceeded: %.2fs >= %ss" % (dt, limit)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _random_poly(rng, max_deg=6, bound=9):
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if coeffs:
            return IntPolynomial(coeffs)


def _random_system(rng, k, min_deg=2, max_deg=3, bound=4):
    polys = []
    for _ in range(k):
        deg = rng.randint(min_deg, max_deg)
        coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
        lead = 0
        while lead == 0:
            lead = rng.randint(-bound, bound)
        polys.append(IntPolynomial(coeffs + [lead]))
    return GeneratorSet(polys)


def test_criterion_01_order_oracle():
    with _criterion(1, 30, "mul_order equals exhaustive powering, all q <= 2048"):
        checked = 0
        for p in range(2, 2049):
            if not is_prime(p):
                continue
            ctx = make_prime_field(p)
            want = all_orders_prime_field(p)
            for i in range(1, p):
                assert mul_order(ctx.element(i)) == want[i]
                checked += 1
            q, s = p * p, 2
            while q <= 2048:
                ext = make_extension_field(p, s)
                want_ext = all_orders_extension_field(ext)
                for i in range(1, q):
                    assert mul_order(ext.from_index(i)) == want_ext[i]
                    checked += 1
                q, s = q * p, s + 1
        assert checked > 290000


def test_criterion_02_cyclotomic_identity():
    with _criterion(2, 5, "prod of cyclotomics over divisors is X^n - 1, n <= 200"):
        for n in range(1, 201):
            prod = IntPolynomial((1,))
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == IntPolynomial([-1] + [0] * (n - 1) + [1]), n


def test_criterion_03_resultant_oracle():
    with _criterion(3, 30, "subresultant PRS equals Sylvester determinant + laws"):
        rng = random.Random(42)
        pairs = []
        while len(pairs) < 500:
            f, g = _random_poly(rng), _random_poly(rng)
            pairs.append((f, g))
            assert resultant(f, g) == resultant_by_determinant(f, g)
        for f, g in pairs[:200]:
            if f.degree >= 1 and g.degree >= 1:
                assert resultant(f, g) == (-1) ** (
                    f.degree * g.degree
                ) * resultant(g, f)
        for i in range(150):
            f, g = pairs[i]
            h = pairs[i + 150][0]
            if min(f.degree, g.degree, h.degree) >= 1:
                assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


def test_criterion_04_tree_sizes():
    with _criterion(4, 1, "B(k,h) equals literal complete-tree node counts"):
        for k in range(1, 5):
            for h in range(1, 9):
                assert b_tree_size(k, h) == len(build_tree_nodes(k, h))


def test_criterion_05_gap_and_pair_guarantees():
    with _criterion(5, 30, "gap and pair lower bounds on 1000 valid instances each"):
        rng = random.Random(3141)
        for _ in range(1000):
            N = rng.randint(6, 500)
            T = rng.randint(2, (N - 1) // 2)
            ns = sorted(rng.sample(range(N + 1), T))
            rep = find_common_gap(ns, N)
            assert rep.r * T <= 2 * N
            assert 4 * N * rep.count >= T * (T - 1)

        fields = [make_prime_field(p) for p in (5, 7, 11, 13, 17, 31)]
        systems = [
            GeneratorSet([IntPolynomial((1, 0, 1))]),
            GeneratorSet([IntPolynomial((0, 0, 1)), IntPolynomial((1, 0, 1))]),
            GeneratorSet([IntPolynomial((2, 1, 1)), IntPolynomial((1, 1, 0, 1))]),
        ]
        done = 0
        while done < 1000:
            ctx = rng.choice(fields)
            F = rng.choice(systems)
            x = ctx.element(rng.randrange(ctx.p))
            N = rng.randint(4, 80)
            stream = WordStream.random(F.k, seed=rng.randrange(1 << 30))
            red = F.reduced(ctx)
            v, seen = x, []
            for n in range(1, N + 1):
                v = red[stream.letter(n) - 1].eval(v)
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


def test_criterion_06_composition_height_bound():
    with _criterion(6, 60, "height of 200 random compositions below the bound"):
        rng = random.Random(2718)
        for _ in range(200):
            F = _random_system(rng, rng.randint(1, 3), bound=9)
            n = rng.randint(1, 4)
            word = tuple(rng.randint(1, F.k) for _ in range(n))
            comp = compose_word(F, word)
            assert height(comp) <= composition_height_bound(n, F.d, F.hF) + 1e-9
            cap = max(max_primitive_coeff(f) for f in F.polys)
            c1 = (F.d**n - 1) // (F.d - 1)
            c2 = F.d * F.d * ((F.d ** (n - 1) - 1) // (F.d - 1))
            assert max_primitive_coeff(comp) <= cap**c1 * 8**c2


def test_criterion_07_sup_m_dp_vs_exhaustive():
    with _criterion(7, 60, "value DP equals brute force over all words, 50 instances"):
        rng = random.Random(1009)
        fields = [make_prime_field(p) for p in (5, 7, 11, 13, 31, 61, 113)]
        fields += [
            make_extension_field(2, 2),
            make_extension_field(3, 2),
            make_extension_field(2, 3),
            make_extension_field(11, 2),
        ]
        done = 0
        while done < 50:
            ctx = rng.choice(fields)
            F = _random_system(rng, rng.randint(1, 3))
            try:
                F.reduced(ctx)
            except Exception:
                continue
            x = ctx.from_index(rng.randrange(ctx.q))
            t = rng.randint(1, ctx.q - 1)
            N = rng.randint(1, 8)
            gamma = set(small_order_set(ctx, t).tolist())
            qual = np.array([i in gamma for i in range(ctx.q)], dtype=bool)
            table = build_graph(F, ctx).table
            ((val, word),) = sup_m_over_sequences(table, qual, [x.index], N)
            ex_val, _ = exhaustive_sup_m(F, x, t, N)
            assert val == ex_val
            assert m_count(F, WordStream.periodic(word), x, t, N) == val
            done += 1


def test_criterion_08_l_n_count_and_witness():
    with _criterion(8, 60, "L_N vs naive on 100 graphs; witness search is argmax"):
        rng = random.Random(512)
        for _ in range(100):
            n = rng.randint(2, 200)
            k = rng.randint(1, 3)
            g = FunctionalGraph(
                [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
            )
            u = rng.randrange(n)
            A = {v for v in range(n) if rng.random() < 0.5}
            N = rng.randint(0, 8)
            words = [
                tuple(rng.randint(1, k) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            ]
            assert l_n_count(g, u, A, N, words) == naive_l_n_count(g, u, A, N, words)
        for _ in range(10):
            n = rng.randint(3, 40)
            k = rng.randint(1, 2)
            g = FunctionalGraph(
                [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
            )
            u = rng.randrange(n)
            A = {v for v in range(n) if rng.random() < 0.6}
            N = rng.randint(1, 5)
            h = rng.randint(1, 3)
            l = rng.randint(1, 2)
            pool = [
                w for m in range(1, h + 1) for w in product(range(1, k + 1), repeat=m)
            ]
            if len(pool) < l:
                continue
            best = max(
                l_n_count(g, u, A, N, list(ws)) for ws in combinations(pool, l)
            )
            assert find_witness_words(g, u, A, N, h, l).count == best


def test_criterion_09_cyclotomic_resultant_harness():
    with _criterion(9, 120, "normalized resultant constants finite; zero set is the gcd set"):
        rep = run_experiment(
            ExperimentConfig.from_dict(
                {
                    "experiment": "lemma41",
                    "generators": ["X^2 + 1"],
                    "r_max": 12,
                    "s_max": 12,
                }
            )
        )
        assert len(rep.rows) == 144
        cols = {name: i for i, name in enumerate(rep.columns)}
        F = IntPolynomial((1, 0, 1))
        zero_set = set()
        constants = []
        for row in rep.rows:
            r, s = row[cols["r"]], row[cols["s"]]
            zero = row[cols["zero"]] == 1
            assert zero == rational_gcd_is_nonconstant(
                cyclotomic(r), cyclotomic(s).compose(F)
            )
            if zero:
                zero_set.add((r, s))
                assert row[cols["constant"]] is None
            else:
                c = row[cols["constant"]]
                assert isinstance(c, float) and math.isfinite(c)
                constants.append(c)
        assert zero_set == {(3, 6), (6, 6)}
        assert rep.summary["max"] == pytest.approx(max(constants))


def test_criterion_10_determinism_and_hand_rows(tmp_path):
    with _criterion(10, 120, "byte-identical reruns; hand-derived rows exact"):
        configs = {
            "thm44i": {
                "generators": ["X^2 + 1"],
                "primes": [11],
                "t": 2,
                "N": 6,
            },
            "thm46": {
                "generators": ["X^2"],
                "primes": [7],
                "diagnostics": True,
            },
            "thm61": {
                "generators": ["X^2", "X^2 + 1"],
                "primes": [11],
                "t": 10,
                "N": 4,
                "h": 3,
                "l": 1,
            },
        }
        for name, body in configs.items():
            cfg_path = tmp_path / ("%s.json" % name)
            cfg_path.write_text(json.dumps(body))
            out_a = tmp_path / ("%s_a.csv" % name)
            out_b = tmp_path / ("%s_b.csv" % name)
            for out in (out_a, out_b):
                code, _, err = _cli(
                    "verify", name, str(cfg_path), "--out", str(out)
                )
                assert code == 0, err
            assert out_a.read_bytes() == out_b.read_bytes()
            rep_a = run_experiment(
                ExperimentConfig.from_dict(dict(body, experiment=name))
            )
            rep_b = run_experiment(
                ExperimentConfig.from_dict(dict(body, experiment=name))
            )
            assert rep_a.body_json() == rep_b.body_json()

        # hand-derived rows, recomputed through independent routes
        rep = run_experiment(
            ExperimentConfig.from_dict(
                dict(configs["thm44i"], experiment="thm44i", starts=[3])
            )
        )
        cols = {n: i for i, n in enumerate(rep.columns)}
        row = rep.rows[0]
        ctx = make_prime_field(11)
        F = GeneratorSet([IntPolynomial((1, 0, 1))])
        assert row[cols["M"]] == m_count(
            F, WordStream.constant(1), ctx.element(3), 2, 6
        ) == 1

        rep = run_experiment(
            ExperimentConfig.from_dict(dict(configs["thm46"], experiment="thm46"))
        )
        cols = {n: i for i, n in enumerate(rep.columns)}
        row3 = next(r for r in rep.rows if r[cols["w"]] == 3)
        assert row3[cols["T"]] == 3
        assert row3[cols["tau"]] == 6
        assert row3[cols["s_cover"]] == 1
        assert row3[cols["lhs"]] == pytest.approx(3 * math.log(2) + math.log(6))
        assert (row3[cols["coll_m"]], row3[cols["coll_l"]]) == (3, 1)
        assert row3[cols["ord_n"]] == 6
        assert row3[cols["res_mod_p"]] == 0

        rep = run_experiment(
            ExperimentConfig.from_dict(dict(configs["thm61"], experiment="thm61"))
        )
        cols = {n: i for i, n in enumerate(rep.columns)}
        ctx = make_prime_field(11)
        F = GeneratorSet([IntPolynomial((0, 0, 1)), IntPolynomial((1, 0, 1))])
        for row in rep.rows:
            w = row[cols["w"]]
            assert row[cols["count"]] == exhaustive_small_order_count(
                F, ctx.element(w), 10, 4
            )


def test_criterion_11_cli_golden(tmp_path):
    with _criterion(11, 30, "CLI examples print exact outputs with exact codes"):
        assert _cli("order", "7", "1", "3") == (0, "6\n", "")
        assert _cli("order", "7", "1", "1") == (0, "1\n", "")
        code, _, err = _cli("order", "7", "1", "0")
        assert code == 3 and "zero has no multiplicative order" in err

        assert _cli("cyclotomic", "1") == (0, "X - 1\n", "")
        assert _cli("cyclotomic", "12") == (0, "X^4 - X^2 + 1\n", "")
        assert _cli("cyclotomic", "0")[0] != 0

        assert _cli("resultant", "X - 1", "X + 1") == (0, "2\n", "")
        assert _cli("resultant", "X^2 + 1", "X^2 - 1") == (0, "4\n", "")
        code, _, err = _cli("resultant", "X + + 1", "X")
        assert code == 2 and "position" in err

        code, out, _ = _cli("orbit", "7", "1", "X^2", "3")
        assert code == 0 and out == "T=3\n0 3\n1 2\n2 4\n"
        code, out, _ = _cli("orbit", "7", "1", "X^2", "1")
        assert code == 0 and out.startswith("T=1\n")
        code, _, err = _cli("orbit", "5", "1", "5X^2 + X + 1", "0")
        assert code == 3 and "degenerate generator" in err

        assert _cli("btree", "2", "3") == (0, "7\n", "")
        assert _cli("special", "X^2 - 2") == (0, "chebyshev_conjugate\n", "")
        assert _cli("gamma", "7", "1", "3") == (0, "1 2 4 6\n", "")

        code, _, err = _cli("verify", "thm99")
        assert code == 2 and "valid ids" in err

        cfg = tmp_path / "prop21.json"
        cfg.write_text(
            json.dumps({"generators": ["2X^2 + 1"], "n_max": 2, "trials": 5})
        )
        out_path = tmp_path / "r.csv"
        code, out, err = _cli("verify", "prop21", str(cfg), "--out", str(out_path))
        assert code == 0, err
        assert out_path.exists()
        assert "experiment=prop21" in out

        code, _, err = _cli(
            "verify", "prop21", "--generators", "X^3", "--n-max", "6",
            "--trials", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 4 and "guard" in err
