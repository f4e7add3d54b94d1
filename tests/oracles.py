"""Independent reference implementations used only by the tests.

Everything here recomputes a library quantity by a different method:
determinant resultants instead of remainder sequences, exhaustive powering
instead of factored orders, closure iteration instead of BFS, per-point
breadth-first search instead of level-at-a-time array evaluation, word
enumeration instead of table dynamic programming and level-set masks, dict
BFS instead of the bit-walk ball, a subset-by-subset scan of per-vertex counts
instead of the bit-packed witness search, explicit state-space search
instead of greedy covering, a generic breadth-first search with a stop
callback, whose parent chain each greedy step covers, instead of the inline
orbit and cover searches, Z[X] composites with integer resultants
instead of the field argument behind the collision diagnostic, and
Res(Φ_r, Φ_s∘f) from the composite instead of the characteristic polynomial
of f(ζ_r), von Sterneck's closed form for Ramanujan's sums instead of
the divisor sum over the Möbius list, Horner's rule in Fractions for
L^(-1)∘f∘L instead of the integer Taylor shift, ``level_union``'s sorted
breadth-first search per start instead of the library's one level-set
kernel, the bit-parallel walk, one
``thm44ii`` walk per field instead of one over the disjoint union of a
grid's tables, and maximal divisors by trial division and pairwise tests
instead of from the factorization, the elements of small order by a
scalar walk over a generator's powers instead of the index tables, and
Garner's mixed-radix digits instead of the blocked weighted sums of the CRT.
They are deliberately slow and simple.

``level_images`` is the exception: it reads the library's own reach table
(``reach_table``), marks its level sets one whole-table mask at a time with
``table_levels``, and returns them as sets of field elements, for the tests
that compare them with word enumeration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from semiorbits import (
    FieldElement,
    IntPolynomial,
    OrbitRecord,
    OutOfRange,
    Truncated,
    cyclotomic,
    euler_phi,
    factorize,
    mul_order,
    reach_table,
    resultant,
)
from semiorbits import verify
from semiorbits.combinatorics import build_graph
from semiorbits.orbits import letter_index, stream_from_config


def apply_word(F, word, x):
    """Apply the composition picked by ``word`` (first letter first)."""
    red = F.reduced(x.ctx)
    v = x
    for letter in word:
        v = red[letter_index(letter, F.k)].eval(v)
    return v


def table_levels(table, r, N):
    """The level sets 1..N of row r (all length-n images), as sorted row
    arrays.  Each level is marked on one reused mask of len(table) rows."""
    mask = np.zeros(len(table), dtype=bool)
    frontier = np.array([r], dtype=np.int64)
    for _ in range(N):
        mask[table[frontier]] = True
        frontier = np.flatnonzero(mask)
        mask[frontier] = False
        yield frontier


def level_images(F, x, N):
    """The value sets {f(x) : f a length-n composition} for n = 1..N."""
    if N < 1:
        raise OutOfRange("level_images requires N >= 1")
    ctx = x.ctx
    table, points = reach_table(F, ctx, [x.index], N)  # x is row 0
    points = points.tolist()
    return [{ctx.from_index(points[r]) for r in level} for level in table_levels(table, 0, N)]


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


def crt_by_garner(residues, primes):
    """The integer x with x ≡ residues[i] (mod primes[i]) and
    |x| <= (M - 1)/2, M the product of the distinct odd primes, from
    Garner's mixed-radix digits: x = v_0 + v_1 p_0 + v_2 p_0 p_1 + ...,
    each v_i = (r_i - x_i) (p_0 ... p_(i-1))^-1 mod p_i for the x_i of the
    digits before it."""
    x, M = 0, 1
    for r, p in zip(residues, primes):
        x += (r - x) * pow(M, -1, p) % p * M
        M *= p
    return x - M if 2 * x > M else x


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


def order_at_most(u, t):
    """Whether u is nonzero of order <= t, by at most t literal multiplications."""
    if u.is_zero:
        return False
    one, acc = u.ctx.one(), u
    for _ in range(t):
        if acc == one:
            return True
        acc = acc * u
    return False


def small_order_by_generator_powers(ctx, t):
    """The indices of the nonzero elements of order <= t, ascending: g^i, for
    g the field's generator, is walked by one scalar product per step and has
    order (q - 1) / gcd(i, q - 1)."""
    n, g = ctx.q - 1, ctx.multiplicative_generator()
    x, found = ctx.one(), []
    for i in range(n):
        if n // math.gcd(i, n) <= t:
            found.append(x.index)
        x = x * g
    assert x == ctx.one(), "the generator's powers do not close after q - 1 steps"
    return sorted(found)


def maximal_divisors_by_search(n, bound):
    """The divisors d <= bound of n that divide no other such divisor, by
    trial division up to sqrt(n) and a test of every pair, ascending."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divs = sorted(d for d in set(low + [n // d for d in low]) if d <= bound)
    return [d for d in divs if not any(m != d and m % d == 0 for m in divs)]


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


def _bfs(seeds, succ, cap, stop=None):
    """Breadth-first search along ``succ`` from the seeds, in FIFO order.

    Returns (parent, truncated).  ``parent`` keeps discovery order and maps
    each seed to None.  The search ends at the first discovered vertex with
    ``stop(v)`` true, and is truncated when it would exceed ``cap`` vertices.
    """
    parent = dict.fromkeys(seeds)
    frontier = list(parent)
    while frontier:
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


def bfs_orbit(succ, x, cap):
    """The orbit of x as ``orbit`` returns it, with levels derived from the
    parent map of one ``_bfs``."""
    if cap < 1:
        raise OutOfRange("orbit cap must be >= 1")
    parent, truncated = _bfs((x,), succ, cap)
    levels = {}
    for w, v in parent.items():  # discovery order: a parent precedes its children
        levels[w] = 0 if v is None else levels[v] + 1
    return OrbitRecord(x, levels, truncated)


def greedy_cover_by_bfs(succ, rec):
    """The greedy walk cover of ``greedy_sequence_cover``, each step a fresh
    ``_bfs`` from the walk's end that stops at the first uncovered vertex."""
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


def bfs_reach_table(F, ctx, starts, depth=None):
    """The successor table over the starts' reach within ``depth`` steps, by a
    per-point FIFO breadth-first search that evaluates one point at a time.

    Returns (table, points) as ``reach_table`` does: rows follow discovery
    order, and rows on the depth limit loop to themselves.  No size guard.
    """
    red = F.reduced(ctx)
    level = dict.fromkeys(starts, 0)
    queue = list(level)
    images = {}
    for v in queue:  # the queue grows while it is read
        if level[v] == depth:
            continue
        images[v] = [g.eval_index(v) for g in red]
        for w in images[v]:
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    row = {v: r for r, v in enumerate(level)}
    table = [[row[w] for w in images[v]] if v in images else [r] * F.k for v, r in row.items()]
    return np.array(table, dtype=np.int64).reshape(-1, F.k), np.array(list(row), dtype=np.int64)


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


def level_union(table, r, N):
    """Mask of the rows in the level sets 1..N of row r: a breadth-first search
    of depth N that expands each row once, when first reached.  Row r itself
    is marked only when a word of length 1..N leads back to it."""
    seen = np.zeros(len(table), dtype=bool)
    frontier = np.array([r], dtype=np.int64)
    for _ in range(N):
        img = np.sort(table[frontier], axis=None)
        fresh = ~seen[img]
        fresh[1:] &= img[1:] != img[:-1]  # the first of each run of equal rows
        img = img[fresh]
        seen[img] = True
        frontier = img[img != r]
        if not len(frontier):
            break
    return seen


def count_by_level_union(table, qual, rows, N, include_start=False):
    """``count_small_order_points`` one start at a time: the ``qual`` rows
    among each start's ``level_union`` mask, plus its own row on request."""
    out = []
    for r in rows:
        seen = level_union(table, r, N)
        seen[r] |= include_start
        out.append(int(np.count_nonzero(seen & qual)))
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


def _row(v):
    """A vertex as a row index: a field element names its field index, which
    is its row on a whole-field graph."""
    return v.index if isinstance(v, FieldElement) else int(v)


def naive_l_n_count(graph, u, members, N, words):
    """Triple loop: BFS distances as a dict, then per-vertex word checks.
    Vertices are row indices, or field elements of a whole-field graph."""
    rows = graph.table.tolist()
    dist = bfs_distances(graph.table, _row(u))
    member_idx = {_row(a) for a in members}
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


def exhaustive_witness_words(graph, u, members, N, h, l):
    """First argmax of naive_l_n_count over combinations(pool, l), the pool
    being every word of length <= h by length, then lexicographically."""
    pool = [w for n in range(1, h + 1) for w in product(range(1, graph.k + 1), repeat=n)]
    best, best_words = -1, None
    for words in combinations(pool, l):
        count = naive_l_n_count(graph, u, members, N, words)
        if count > best:
            best, best_words = count, words
    return best_words, best


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


def collision_resultant_mod_p(phi, m, l, n, p):
    """Res(Ψ^(m) - Ψ^(l), Φ_n) mod p with Ψ^(j) the j-fold composite of phi,
    computed in Z[X]: the tower [X, phi, phi o phi, ...] up to m, then the
    integer resultant."""
    tower = [IntPolynomial((0, 1))]
    while len(tower) <= m:
        tower.append(phi.compose(tower[-1]))
    diff = tower[m] - tower[l]
    return 0 if diff.is_zero else resultant(diff, cyclotomic(n)) % p


def lemma41_by_composites(f, r, s):
    """Res(Φ_r, Φ_s∘f) by composing Φ_s with f in Z[X], then one resultant of
    degree phi(r) against phi(s) deg f."""
    return resultant(cyclotomic(r), cyclotomic(s).compose(f))


def ramanujan_sums_by_von_sterneck(r):
    """The sums of ζ^j over the primitive r-th roots ζ, for j < r, by von
    Sterneck's formula mu(m) phi(r) / phi(m), m = r / gcd(j, r)."""
    def mu(m):
        pairs = factorize(m).pairs
        return 0 if any(e > 1 for _, e in pairs) else (-1) ** len(pairs)

    sums = {m: mu(m) * euler_phi(r) // euler_phi(m)
            for m in {r // math.gcd(j, r) for j in range(r)}}
    return tuple(sums[r // math.gcd(j, r)] for j in range(r))


def conjugate_by_horner(f, alpha, beta):
    """Coefficients of (f(alpha X + beta) - beta) / alpha, by Horner's rule in
    Fractions, without trailing zeros past the constant."""
    acc = []
    for c in reversed(f.coeffs):
        # acc <- acc * (alpha X + beta) + c
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i + 1] += a * alpha
            nxt[i] += a * beta
        nxt[0] += c
        acc = nxt
    acc = acc or [Fraction(0)]
    acc[0] -= beta
    out = [a / alpha for a in acc]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


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


def thm44ii_rows_by_field(cfg):
    """``run_thm44ii``'s rows, each field walked alone: all of its starts at
    once, on the field's whole table where a prime field's starts take at
    least q steps in all, else with every walked point evaluated."""
    F, _ = verify._system(cfg, strict=True)
    N, stream = cfg.N, stream_from_config(cfg.stream)
    t = verify._t_for(cfg, cfg.prime_max)
    letters = stream.prefix(N - 1)
    rows = []
    for p, ctx, ws in verify._grid(cfg):
        bound = cfg.C * max(math.sqrt(N), N / verify._log_denom(cfg, p))
        best = argw = None
        if ws:
            if verify._whole_field(ctx) and len(ws) * N >= ctx.q:
                steps = [col.take for col in build_graph(F, ctx).table.T]
            else:
                steps = [g.eval_indices for g in F.reduced(ctx)]
            walked = [np.array(ws, dtype=np.int64)]
            for a in letters:
                walked.append(steps[letter_index(a, F.k)](walked[-1]))
            counts = verify._qual(ctx, t, np.stack(walked)).sum(axis=0)
            best, argw = int(counts.max()), ws[int(counts.argmax())]
        ratio = None if best is None else best / bound
        rows.append((p, t, N, len(ws), best, argw, bound, ratio,
                     1 if ratio is not None and best > bound else 0))
    return rows
