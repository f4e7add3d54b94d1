"""Workload definitions: the `semiorbits verify` grids each workload runs.

A workload is a list of grids; a grid is one experiment id plus the JSON
config that `semiorbits verify <id> <config>` reads.  The workload seed is
consumed here, and only here: it draws the explicit ``starts`` lists, the
thm44ii stream seed and the order of starts, and it is echoed into every
config's ``seed`` field so each report body records it.  The program under
test only ever sees the generated configs.

Every seed gives the same row count and close to the same work: sampled
starts avoid the zero element (which thm46 skips, changing the row count),
and the grid whose per-start cost varies by orders of magnitude (thm46 with
diagnostics) uses every start, shuffled by the seed.
See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import random

GENERATORS = ["X^2 + 1", "X^3 + 2"]
LEMMA41_GENERATORS = GENERATORS + ["X^2 + 3*X + 5"]

PRIME_DP_STARTS = 60
THM61_STARTS = 6
THM46_EXT_STARTS = 45
SWEEP_THM46_PRIME = 43


def _prime_dp(rng: random.Random, seed: int):
    starts = rng.sample(range(1, 1009), PRIME_DP_STARTS)
    base = dict(generators=GENERATORS, primes=[1009], t=4, N=20, starts=starts, seed=seed)
    return [("thm44i", base), ("cor45", base)]


def _ext_graph(rng: random.Random, seed: int):
    thm61 = dict(
        generators=GENERATORS, primes=[2], s=12, t=15, N=6, h=5, l=3,
        starts=rng.sample(range(1, 2**12), THM61_STARTS), seed=seed,
    )
    thm46 = dict(
        generators=GENERATORS, primes=[3], s=6,
        starts=rng.sample(range(1, 3**6), THM46_EXT_STARTS), seed=seed,
    )
    return [("thm61", thm61), ("thm46", thm46)]


def _sweep(rng: random.Random, seed: int):
    thm44ii = dict(
        generators=GENERATORS, prime_max=600, t=4, N=40, seed=seed,
        stream={"kind": "random", "k": 2, "seed": rng.randrange(2**31)},
    )
    lemma41 = dict(generators=LEMMA41_GENERATORS, r_max=40, s_max=40, seed=seed)
    # every start of F_43, in seed order: diagnostic cost per start varies by
    # orders of magnitude, so sampling would make the work depend on the seed
    starts = list(range(SWEEP_THM46_PRIME))
    rng.shuffle(starts)
    thm46 = dict(
        generators=GENERATORS, primes=[SWEEP_THM46_PRIME], starts=starts,
        diagnostics=True, seed=seed,
    )
    return [("thm44ii", thm44ii), ("lemma41", lemma41), ("thm46", thm46)]


_BUILDERS = {"prime-dp": _prime_dp, "ext-graph": _ext_graph, "sweep": _sweep}
NAMES = tuple(_BUILDERS)


def grids(name: str, seed: int):
    """[(experiment id, config dict)] for one workload and seed."""
    return _BUILDERS[name](random.Random(seed), seed)
