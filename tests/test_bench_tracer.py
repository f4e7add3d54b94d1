"""The benchmark's tracer (bench/tracer.py) wraps library names at the sites
that import them; a refactor that unbinds one, or stops calling through it,
must fail here and not only under ``bench/run.py --trace 1``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in a fresh interpreter, so the wrappers never leak into other tests
TRACED_RUN = r"""
import json, os, sys
from tracer import Tracer
from semiorbits import cli

tracer = Tracer()
tracer.install()
out = sys.argv[1]
common = ["--generators", "X^2 + 1, X^3 + 2", "--t", "4"]
grids = {
    "thm44i": ["--primes", "11", "--N", "5"],
    "cor45": ["--primes", "11", "--N", "3"],
    "thm44ii": ["--prime-max", "13", "--N", "5",
                "--stream", '{"kind": "periodic", "period": [1, 2]}'],
    "thm46": ["--primes", "11", "--diagnostics"],
    "thm61": ["--primes", "11", "--N", "3", "--h", "2", "--l", "1"],
    "lemma41": ["--r-max", "2", "--s-max", "2"],
    # lemma41 builds no composites; prop21 calls IntPolynomial.compose
    "prop21": ["--n-max", "2", "--trials", "2"],
}
for exp, argv in grids.items():
    path = os.path.join(out, exp + ".json")
    code = cli.main(["verify", exp, *common, *argv, "--out", path])
    assert code == 0, (exp, code)
print(json.dumps(tracer.metrics()))
"""

TRACED_LAYERS = (
    "orbits.sup_m",
    "orbits.level_sets",
    "orbits.m_count",
    "orbits.orbit",
    "orbits.cover",
    "combinatorics.build_graph",
    "combinatorics.witness",
    "ff.small_order_set",
    "ff.make_field",
    "ff.eval",
    "ff.mul_order",
    "intpoly.resultant",
    "intpoly.cyclotomic",
    "intpoly.compose",
    "verify.report",
)


def test_tracer_installs_and_sees_every_kernel(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    unseen = [name for name in TRACED_LAYERS if metrics[name + ".calls"] < 1]
    assert not unseen, "traced sites never called: %s" % unseen
