"""Whole report bodies, pinned by sha256 over small configs.

Each case runs one config and compares the sha256 of its ``body_json()``
with the one checked in to ``body_hashes.json``.  Between them the cases
reach every experiment, each table source of the graph runners (a whole
prime field, an extension field's reach, a prime above the graph cap), an
extension field at the index-table cap, both ``thm44ii`` walks and a batch
split, and the config switches that change a body.  A hash changed on purpose is regenerated with

    PYTHONPATH=src python tests/test_body_hashes.py

and the change, with its reason, is named where the change is recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
from unittest import mock

import pytest

import semiorbits.intpoly as intpoly
import semiorbits.verify as verify
from semiorbits import ExperimentConfig, run_experiment

HASHES = pathlib.Path(__file__).with_name("body_hashes.json")

P31 = 2**31 - 1
TWO = ["X^2 + 1", "X^3 + 2"]
RANDOM = {"kind": "random", "k": 2, "seed": 2}
PERIODIC = {"kind": "periodic", "preperiod": [2], "period": [1, 2, 2]}

# name -> (config, patches); a patch is "max_graph_size": verify.MAX_GRAPH_SIZE,
# or "segments": one (lo, hi) window of split primes for intpoly._segments
CASES = {
    # thm44i: the sup-M DP
    "thm44i-whole": dict(experiment="thm44i", generators=TWO, primes=[101, 103],
                         starts=[0, 1, 2, 5], t=4, N=6),
    "thm44i-extension": dict(experiment="thm44i", generators=TWO, s=2, primes=[5, 7],
                             starts=[1, 2, 3], t=3, N=5),
    "thm44i-p31": dict(experiment="thm44i", generators=TWO, primes=[P31], starts=[0, 1, 3],
                       t=62, N=5),
    # the primes of (2^20, 1048600]: each field takes its starts' reach
    "thm44i-above-cap-range": dict(experiment="thm44i", generators=TWO, prime_min=1048577,
                                   prime_max=1048600, sample=3, seed=5, t=8, N=4),
    "thm44i-t-exponent": dict(experiment="thm44i", generators=TWO, prime_min=20, prime_max=60,
                              sample=5, seed=3, t_exponent=0.4, N=6),
    "thm44i-repeated-starts": dict(experiment="thm44i", generators=TWO, primes=[101],
                                   starts=[0, 3, 3, 104], t=5, N=5),
    "thm44i-no-starts": dict(experiment="thm44i", generators=TWO, primes=[11, 13], sample=0,
                             t=2, N=4),
    "thm44i-monomial": dict(experiment="thm44i", generators=["X^2", "X^3 + 1"], primes=[31],
                            starts=[1, 2, 3], t=6, N=5, allow_special=True),
    "thm44i-chebyshev": dict(experiment="thm44i", generators=["X^2 - 2", "X^3 - 3*X"],
                             primes=[37], starts=[0, 1, 5], t=6, N=5, allow_special=True),
    # thm44ii: one stream over all primes up to P
    "thm44ii-tables": dict(experiment="thm44ii", generators=TWO, prime_max=59,
                           starts=[0, 4, 1, 4], t=4, N=15, stream=RANDOM),
    "thm44ii-batches": (dict(experiment="thm44ii", generators=TWO, prime_max=59,
                             starts=[0, 4, 1, 4], t=4, N=15, stream=RANDOM),
                        {"max_graph_size": 100}),
    "thm44ii-points": dict(experiment="thm44ii", generators=TWO, s=2, prime_max=7,
                           starts=[1, 2, 3], t=3, N=5, stream=PERIODIC),
    "thm44ii-mixed": dict(experiment="thm44ii", generators=TWO, prime_max=200, starts=[1, 2],
                          t=3, N=5, stream=PERIODIC),
    "thm44ii-no-starts": dict(experiment="thm44ii", generators=TWO, prime_max=30, sample=0,
                              t=3, N=5, stream=RANDOM),
    "thm44ii-t-exponent": dict(experiment="thm44ii", generators=TWO, prime_min=50,
                               prime_max=120, sample=4, seed=1, t_exponent=0.3, N=8, C=0.5,
                               stream=RANDOM),
    # every start and t = 10^12: Γ(t) is every nonzero point
    "thm44ii-huge-t": dict(experiment="thm44ii", generators=TWO, prime_max=60, t=10**12, N=12,
                           stream={"kind": "random", "k": 2, "seed": 4}),
    # 7X^3 + X^2 + 2 is X^2 + 2 mod 7, in the middle of a table run
    "thm44ii-degree-drop": dict(experiment="thm44ii", generators=["7X^3 + X^2 + 2", "X^2 + 1"],
                                prime_max=40, t=3, N=10,
                                stream={"kind": "periodic", "period": [1, 2, 2]}),
    # cor45: level sets of the N-ball
    "cor45-whole": dict(experiment="cor45", generators=TWO, primes=[31, 37], starts=[0, 1, 2],
                        t=3, N=4),
    "cor45-level-0": dict(experiment="cor45", generators=TWO, primes=[31, 37],
                          starts=[0, 1, 2], t=3, N=4, include_level_0=True),
    "cor45-extension": dict(experiment="cor45", generators=TWO, s=3, primes=[3],
                            starts=[1, 5, 7], t=2, N=3),
    "cor45-extension-repeats": dict(experiment="cor45", generators=TWO, s=2, primes=[5],
                                    starts=[1, 5, 1, 26, 0], t=4, N=4),
    "cor45-p31": dict(experiment="cor45", generators=TWO, primes=[P31], starts=[1, 2], t=62,
                      N=3),
    "cor45-t-exponent": dict(experiment="cor45", generators=["X^2 + 1", "X^2 + 3", "X^3 + X"],
                             prime_min=40, prime_max=90, sample=4, seed="abc",
                             t_exponent=0.45, N=3),
    "cor45-chebyshev": dict(experiment="cor45", generators=["X^2 - 2", "X^2 + 1"],
                            primes=[29], starts=[3, 4], t=4, N=3),
    "cor45-no-starts": dict(experiment="cor45", generators=TWO, primes=[11], starts=[], t=2,
                            N=3),
    # thm46: orbits and covers
    "thm46-whole": dict(experiment="thm46", generators=TWO, primes=[101, 103],
                        starts=[0, 1, 2, 3]),
    "thm46-diagnostics": dict(experiment="thm46", generators=TWO, primes=[31], sample=5,
                              seed=2, diagnostics=True, diag_degree_cap=8, c=0.5),
    "thm46-extension": dict(experiment="thm46", generators=TWO, s=2, primes=[5]),
    "thm46-p31": dict(experiment="thm46", generators=["X^2", "X^3"], primes=[P31],
                      starts=[1, -1, 0]),
    "thm46-monomial": dict(experiment="thm46", generators=["X^2", "X^3 + 1"], primes=[23],
                           starts=[0, 0, 1, 5]),
    # 1 is fixed, 6 maps to 1, and the orbit of 3 holds both
    "thm46-fixed-point": dict(experiment="thm46", generators=["X^2", "X^3"], primes=[7],
                              starts=[1, 6, 3]),
    # F_{2^12} sits at ff.TABLE_CAP: reach, orders and Γ(t) read the index tables
    "thm46-table-cap": dict(experiment="thm46", generators=TWO, s=12, primes=[2], sample=8,
                            seed=3),
    # thm61: count and witness words
    "thm61-whole": dict(experiment="thm61", generators=TWO, primes=[31, 37], starts=[1, 2, 3],
                        t=4, N=4, h=3, l=1),
    "thm61-h-from-n": dict(experiment="thm61", generators=TWO, primes=[41], starts=[0, 2, 2],
                           t=4, N=8, l=1, h_from_n=True),
    "thm61-extension": dict(experiment="thm61", generators=TWO, s=2, primes=[3],
                            starts=[1, 2, 4], t=2, N=3, h=2, l=1),
    "thm61-table-cap": dict(experiment="thm61", generators=TWO, s=12, primes=[2],
                            sample=3, seed=6, t=15, N=4, h=3, l=1),
    "thm61-p31": dict(experiment="thm61", generators=TWO, primes=[P31], starts=[0, 1, 3],
                      t=62, N=6, h=3, l=2),
    "thm61-level-0": dict(experiment="thm61", generators=TWO, primes=[43], starts=[1, 7],
                          t=6, N=3, h=3, l=1, include_level_0=True, c1=0.5),
    "thm61-t-exponent": dict(experiment="thm61", generators=TWO, prime_min=20, prime_max=45,
                             sample=3, seed=4, t_exponent=0.45, N=3, h=2, l=1),
    "thm61-no-starts": dict(experiment="thm61", generators=TWO, primes=[11, 13], sample=0,
                            t=2, N=3, h=2, l=1),
    # lemma41: cyclotomic resultants
    "lemma41-grid": dict(experiment="lemma41", generators=["X^2 + 3*X + 5", "X^3 - 2*X + 7"],
                         r_max=4, s_max=5),
    "lemma41-zeros": dict(experiment="lemma41", generators=["X^2", "X + 1"], r_max=4,
                          s_max=4),
    # a window of 64 integers near 2^16 holds too few primes ≡ 1 (mod 5): s = 5
    # takes the subresultant PRS, every other s the split primes
    "lemma41-prs": (dict(experiment="lemma41", generators=["X^2 + 3*X + 500", "2*X - 7"],
                         r_max=3, s_max=6),
                    {"segments": (1 << 16, (1 << 16) + 64)}),
    # prop21: composition heights
    "prop21-pair": dict(experiment="prop21", generators=TWO, n_max=3, trials=20, seed=1),
    "prop21-seed-string": dict(experiment="prop21", generators=["2*X^2 - 3*X + 1", "X^2"],
                               n_max=2, trials=12, seed="abc"),
}


@contextlib.contextmanager
def _patched(patches: dict):
    with contextlib.ExitStack() as stack:
        if "max_graph_size" in patches:
            stack.enter_context(mock.patch.object(verify, "MAX_GRAPH_SIZE",
                                                  patches["max_graph_size"]))
        if "segments" in patches:
            lo, hi = patches["segments"]
            stack.enter_context(mock.patch.object(intpoly, "_segments",
                                                  lambda: iter([(lo, hi, 1)])))
        yield


def body_hash(name: str) -> str:
    """The sha256 of case ``name``'s report body."""
    case = CASES[name]
    config, patches = case if isinstance(case, tuple) else (case, {})
    with _patched(patches):
        report = run_experiment(ExperimentConfig.from_dict(config))
    return hashlib.sha256(report.body_json().encode()).hexdigest()


def test_every_case_has_a_hash():
    assert sorted(json.loads(HASHES.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_body_hash(name):
    assert body_hash(name) == json.loads(HASHES.read_text())[name]


if __name__ == "__main__":
    HASHES.write_text(json.dumps({name: body_hash(name) for name in sorted(CASES)},
                                 indent=2) + "\n")
