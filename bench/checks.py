"""Spot-checks of report rows against the independent oracles in tests/oracles.py.

A few rows per grid, picked by the workload seed, are recomputed by a
different method than the library's:

- thm44i: the witness word is replayed by plain Horner evaluation on field
  elements, with orders from exhaustive powering, and must score M;
- cor45: level sets are rebuilt the same plain way and their small-order
  points recounted;
- thm44ii: for primes <= 100, every start is walked along the stream and
  the maximum and its first argmax recomputed;
- thm46: T against ``closure_orbit``, tau against ``order_by_powering``;
- thm61: L_N against ``naive_l_n_count`` for the reported words;
- lemma41: small (r, s) resultants against ``resultant_by_determinant``.

Byte-identity of whole report bodies is checked by the caller.
"""

from __future__ import annotations

import math
import random

from oracles import (
    all_orders_prime_field,
    closure_orbit,
    naive_l_n_count,
    order_by_powering,
    resultant_by_determinant,
)
from semiorbits import (
    GeneratorSet,
    build_graph,
    cyclotomic,
    make_extension_field,
    make_prime_field,
    parse_poly,
    small_order_set,
    stream_from_config,
)

ROWS_PER_GRID = 3
THM44II_PRIME_CAP = 100
LEMMA41_INDEX_CAP = 6


def _field(p: int, s: int):
    return make_prime_field(p) if s == 1 else make_extension_field(p, s)


def _apply(f, x):
    """f(x) by Horner over field elements, bypassing FieldPolynomial.eval."""
    ctx = x.ctx
    acc = ctx.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + ctx.element(c)
    return acc


def _orders(ctx):
    """Index -> multiplicative order, from the oracles only."""
    if ctx.s == 1:
        return all_orders_prime_field(ctx.p).get
    return lambda i: order_by_powering(ctx.from_index(i))


def _small(v, t, order) -> bool:
    return not v.is_zero and order(v.index) <= t


def _thm44i(cfg, rows, problems):
    gens = [parse_poly(g) for g in cfg["generators"]]
    for p, s, w, t, N, M, _, _, word in rows:
        ctx = _field(p, s)
        order = _orders(ctx)
        letters = [int(a) for a in word.split("-")]
        v = ctx.from_index(w)
        score = 1 if _small(v, t, order) else 0
        for letter in letters[: N - 1]:
            v = _apply(gens[letter - 1], v)
            score += 1 if _small(v, t, order) else 0
        if score != M:
            problems.append("thm44i p=%d w=%d: witness scores %d, M=%d" % (p, w, score, M))


def _cor45(cfg, rows, problems):
    gens = [parse_poly(g) for g in cfg["generators"]]
    for p, s, w, t, N, count, _, _, _ in rows:
        ctx = _field(p, s)
        order = _orders(ctx)
        level = {ctx.from_index(w)}
        seen = set(level) if cfg["include_level_0"] else set()
        for _ in range(N):
            level = {_apply(f, v) for v in level for f in gens}
            seen |= level
        recount = sum(1 for v in seen if _small(v, t, order))
        if recount != count:
            problems.append("cor45 p=%d w=%d: recount %d, count=%d" % (p, w, recount, count))


def _thm44ii(cfg, rows, problems):
    gens = [parse_poly(g) for g in cfg["generators"]]
    for p, t, N, starts, max_M, argmax_w, _, _, _ in rows:
        ctx = make_prime_field(p)
        order = _orders(ctx)
        letters = stream_from_config(cfg["stream"]).prefix(N)
        best, argw = -1, None
        for w in range(p):
            v = ctx.from_index(w)
            score = 1 if _small(v, t, order) else 0
            for letter in letters[: N - 1]:
                v = _apply(gens[letter - 1], v)
                score += 1 if _small(v, t, order) else 0
            if score > best:
                best, argw = score, w
        if (starts, max_M, argmax_w) != (p, best, argw):
            problems.append(
                "thm44ii p=%d: walks give max %d at %s, report %d at %s"
                % (p, best, argw, max_M, argmax_w)
            )


def _thm46(cfg, rows, problems):
    F = GeneratorSet([parse_poly(g) for g in cfg["generators"]])
    for row in rows:
        p, w, T, tau = row[:4]
        x = _field(p, cfg["s"]).from_index(w)
        closure = len(closure_orbit(F, x))
        power = order_by_powering(x)
        if (closure, power) != (T, tau):
            problems.append(
                "thm46 p=%d w=%d: closure %d powering %d, report T=%d tau=%d"
                % (p, w, closure, power, T, tau)
            )


def _thm61(cfg, rows, problems):
    F = GeneratorSet([parse_poly(g) for g in cfg["generators"]])
    graphs = {}
    for row in rows:
        p, w, t, N = row[:4]
        L_N, words = row[11], row[14]
        if p not in graphs:
            ctx = _field(p, cfg["s"])
            graphs[p] = (ctx, build_graph(F, ctx))
        ctx, graph = graphs[p]
        word_list = [tuple(int(a) for a in wd.split("-")) for wd in words.split("|")]
        naive = naive_l_n_count(graph, ctx.from_index(w), small_order_set(ctx, t), N, word_list)
        if naive != L_N:
            problems.append("thm61 p=%d w=%d: naive L_N %d, report %d" % (p, w, naive, L_N))


def _lemma41(cfg, rows, problems):
    for text, r, s, zero, log_abs_res, _ in rows:
        value = resultant_by_determinant(cyclotomic(r), cyclotomic(s).compose(parse_poly(text)))
        ok = (zero == 1) if value == 0 else (
            zero == 0 and log_abs_res == float("%.12g" % math.log(abs(value)))
        )
        if not ok:
            problems.append("lemma41 %s r=%d s=%d: determinant gives %d" % (text, r, s, value))


def _eligible(experiment, rows):
    if experiment == "thm44ii":
        return [r for r in rows if r[0] <= THM44II_PRIME_CAP]
    if experiment == "lemma41":
        return [r for r in rows if max(r[1], r[2]) <= LEMMA41_INDEX_CAP]
    return rows


_CHECKS = {
    "thm44i": _thm44i,
    "cor45": _cor45,
    "thm44ii": _thm44ii,
    "thm46": _thm46,
    "thm61": _thm61,
    "lemma41": _lemma41,
}


def check_body(experiment: str, body: dict, seed: int) -> list:
    """Problems found in a few seed-picked rows of one report body."""
    rows = _eligible(experiment, body["rows"])
    picked = random.Random(seed).sample(rows, min(ROWS_PER_GRID, len(rows)))
    problems = []
    if not picked:
        problems.append("%s: no rows to check" % experiment)
    else:
        _CHECKS[experiment](body["config"], picked, problems)
    return problems
