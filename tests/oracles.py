"""Independent reference implementations used only by the tests.

Everything here recomputes a library quantity by a different method:
determinant resultants instead of remainder sequences, exhaustive powering
instead of factored orders, closure iteration instead of BFS, word
enumeration instead of table dynamic programming and level-set masks, dict
BFS instead of level unions, and explicit state-space search instead of
greedy covering.  They are deliberately slow
and simple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from semiorbits import IntPolynomial, apply_word, mul_order


def sylvester_matrix(f, g):
    """Rows of f shifted deg(g) times, then rows of g shifted deg(f) times."""
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([0] * i + fc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (size - n - 1 - i))
    return rows


def _det_bareiss(rows):
    """Exact integer determinant, fraction-free Gaussian elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant_by_determinant(f, g):
    """Res(f, g) straight from the Sylvester matrix.

    Degenerate shapes follow the same convention as the library: constants
    c give c^deg(other), two constants give 1, zero gives 0.
    """
    if f.is_zero or g.is_zero:
        return 0
    if f.degree == 0 and g.degree == 0:
        return 1
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    return _det_bareiss(sylvester_matrix(f, g))


def order_by_powering(u):
    """Multiplicative order by literal repeated multiplication."""
    assert not u.is_zero
    one = u.ctx.one()
    acc = u
    n = 1
    while acc != one:
        acc = acc * u
        n += 1
    return n


def all_orders_prime_field(p):
    """Orders of 1..p-1 by batched simultaneous powering."""
    vals = np.arange(1, p, dtype=np.int64)
    acc = vals.copy()
    orders = np.zeros(p - 1, dtype=np.int64)
    orders[acc == 1] = 1
    for step in range(2, p):
        if not (orders == 0).any():
            break
        acc = (acc * vals) % p
        hit = (acc == 1) & (orders == 0)
        orders[hit] = step
    return {int(v): int(o) for v, o in zip(vals, orders)}


def all_orders_extension_field(ctx):
    """Orders of all nonzero elements by batched coefficient convolution.

    Elements are rows of coefficient vectors; one step multiplies every
    accumulator by its own base element, reducing X^s..X^(2s-2) with the
    context's precomputed reduction rows.
    """
    p, s, q = ctx.p, ctx.s, ctx.q
    red = np.array(ctx._xred, dtype=np.int64)  # rows for X^s .. X^(2s-2)
    base = np.array(
        [ctx.from_index(i).coeffs for i in range(1, q)], dtype=np.int64
    )
    acc = base.copy()
    one = np.zeros(s, dtype=np.int64)
    one[0] = 1
    orders = np.zeros(q - 1, dtype=np.int64)
    orders[(acc == one).all(axis=1)] = 1
    for step in range(2, q):
        if not (orders == 0).any():
            break
        wide = np.zeros((q - 1, 2 * s - 1), dtype=np.int64)
        for i in range(s):
            for j in range(s):
                wide[:, i + j] += acc[:, i] * base[:, j]
        low = wide[:, :s]
        for d in range(s, 2 * s - 1):
            low += np.outer(wide[:, d], red[d - s])
        acc = low % p
        hit = (acc == one).all(axis=1) & (orders == 0)
        orders[hit] = step
    return {i + 1: int(o) for i, o in enumerate(orders)}


def closure_orbit(F, x):
    """Semigroup orbit as a plain closure: iterate image sets to a fixpoint."""
    red = F.reduced(x.ctx)
    seen = {x}
    frontier = {x}
    while frontier:
        nxt = {g.eval(v) for v in frontier for g in red} - seen
        seen |= nxt
        frontier = nxt
    return seen


def exhaustive_level_images(F, x, N):
    out = []
    for n in range(1, N + 1):
        out.append({apply_word(F, w, x) for w in product(range(1, F.k + 1), repeat=n)})
    return out


def _small(v, t):
    return not v.is_zero and mul_order(v) <= t


def exhaustive_sup_m(F, x, t, N):
    """sup M over all k^N words by enumeration, with the first maximizing
    word in lexicographic order."""
    best = -1
    best_word = ()
    for word in product(range(1, F.k + 1), repeat=N):
        v = x
        c = 1 if _small(v, t) else 0
        for letter in word[: N - 1]:
            v = apply_word(F, (letter,), v)
            c += 1 if _small(v, t) else 0
        if c > best:
            best, best_word = c, word
    return best, best_word


def exhaustive_small_order_count(F, u, t, N):
    seen = set()
    for level in exhaustive_level_images(F, u, N):
        seen |= level
    return sum(1 for v in seen if _small(v, t))


def minimal_walk_cover(F, x, state_cap=2_000_000):
    """Exact minimum number of infinite walks from x covering the orbit.

    Explores the (vertex, covered-set) state graph; any reachable covered
    set extends to the vertex set of some infinite walk, so the minimum
    cover by walks equals the minimum cover by maximal reachable sets.
    """
    orbit_elems = sorted(closure_orbit(F, x), key=lambda v: v.index)
    pos = {v: i for i, v in enumerate(orbit_elems)}
    n = len(orbit_elems)
    red = F.reduced(x.ctx)
    succ = [
        tuple(pos[g.eval(v)] for g in red) for v in orbit_elems
    ]
    start = pos[x]
    full = (1 << n) - 1
    init = (start, 1 << start)
    seen_states = {init}
    stack = [init]
    covered_sets = {1 << start}
    while stack:
        if len(seen_states) > state_cap:
            raise RuntimeError("state space too large for the cover oracle")
        v, cov = stack.pop()
        for w in succ[v]:
            state = (w, cov | (1 << w))
            if state not in seen_states:
                seen_states.add(state)
                covered_sets.add(state[1])
                stack.append(state)
    maximal = [
        c for c in covered_sets
        if not any(other != c and other & c == c for other in covered_sets)
    ]
    for size in range(1, n + 1):
        for combo in combinations(maximal, size):
            union = 0
            for c in combo:
                union |= c
            if union == full:
                return size
    raise AssertionError("orbit not coverable by its own walks")


def level_sets_by_words(table, r, N):
    """Level sets 1..N of row r: the end row of every word of length n,
    walked letter by letter over the raw successor table."""
    rows = np.asarray(table).tolist()
    k = len(rows[r])
    out = []
    for n in range(1, N + 1):
        ends = set()
        for word in product(range(k), repeat=n):
            v = r
            for i in word:
                v = rows[v][i]
            ends.add(v)
        out.append(ends)
    return out


def bfs_distances(table, r):
    """Shortest path length from row r to every reachable row, as a dict."""
    rows = np.asarray(table).tolist()
    dist = {r: 0}
    frontier = [r]
    while frontier:
        nxt = []
        for v in frontier:
            for w in rows[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def naive_l_n_count(graph, u, members, N, words):
    """Triple loop: BFS distances as a dict, then per-vertex word checks."""
    rows = graph.table.tolist()
    dist = bfs_distances(graph.table, graph._idx(u))
    member_idx = {graph._idx(a) for a in members}
    count = 0
    for v in range(graph.n):
        if dist.get(v, N + 1) > N:
            continue
        ok = True
        for word in words:
            img = v
            for letter in word:
                img = rows[img][letter - 1]
            if dist.get(img, N + 1) > N or img not in member_idx:
                ok = False
                break
        if ok:
            count += 1
    return count


def build_tree_nodes(k, h):
    """Complete k-ary tree of depth h-1, built literally, then counted."""
    nodes = [()]
    frontier = [()]
    for _ in range(h - 1):
        nxt = []
        for node in frontier:
            for child in range(k):
                fresh = node + (child,)
                nodes.append(fresh)
                nxt.append(fresh)
        frontier = nxt
    return nodes


def rational_gcd_is_nonconstant(f, g):
    """Euclidean gcd over Q; True when deg(gcd) >= 1."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]

    def strip(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = strip(a), strip(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        while len(a) >= len(b) and strip(a):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= factor * c
            a = strip(a)
        a, b = b, a
    return len(a) - 1 >= 1


def compose_word(F, word):
    """The exact integer composite picked by a word, first letter first."""
    comp = F.polys[word[0] - 1]
    for letter in word[1:]:
        comp = F.polys[letter - 1].compose(comp)
    return comp


def max_primitive_coeff(f: IntPolynomial) -> int:
    return max(abs(c) for c in f.primitive().coeffs)


def irreducible_by_trial_division(coeffs, p):
    """Whether a monic f over F_p (constant term first) is irreducible: no
    monic g of degree 1..deg(f)/2 leaves remainder zero on long division."""
    s = len(coeffs) - 1
    for d in range(1, s // 2 + 1):
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            r = [c % p for c in coeffs]
            for top in range(s, d - 1, -1):  # g is monic, so no inverse is needed
                c = r[top]
                for i in range(d + 1):
                    r[top - d + i] = (r[top - d + i] - c * g[i]) % p
            if not any(r[:d]):
                return False
    return True
