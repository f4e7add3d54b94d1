"""One repetition of a workload, in a fresh interpreter.

    python3 bench/child.py MANIFEST OUT_DIR SPAWNED TRACE

MANIFEST is the JSON written by run.py (source directory and grids),
OUT_DIR receives one report per grid, SPAWNED is the parent's
``time.perf_counter()`` just before it started this process (the clock is
CLOCK_MONOTONIC, shared between processes on Linux), and TRACE is the path
for the trace file, or ``-`` for an untraced repetition.

Every grid runs in process through ``semiorbits.cli.main(["verify", ...])``.
The last line of standard output is a JSON object with setup_s, each grid's
seconds, peak_rss_mb and each grid's exit code (or the exception it raised).
"""

import json
import os
import resource
import sys
import time


def _probe() -> float:
    """Seconds for a fixed pure-Python loop, a gauge of the machine's speed
    right now.  It allocates nothing the garbage collector tracks."""
    start = time.perf_counter()
    table = {}
    acc = 1
    for i in range(200000):
        acc = acc * 48271 % 2147483647
        table[acc & 1023] = table.get(i & 1023, 0) + 1
    return time.perf_counter() - start


def main(argv) -> int:
    manifest_path, out_dir, spawned, trace_path = argv[1:5]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    from semiorbits import cli
    from semiorbits.verify import ExperimentConfig

    if not os.path.abspath(cli.__file__).startswith(manifest["src"] + os.sep):
        print("semiorbits imported from %s, not the checkout" % cli.__file__, file=sys.stderr)
        return 2
    grids = manifest["grids"]
    for grid in grids:
        with open(grid["config"], encoding="utf-8") as fh:
            data = json.load(fh)
        ExperimentConfig.from_dict(dict(data, experiment=grid["experiment"]))
    setup_s = time.perf_counter() - float(spawned)

    run = cli.main
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span("cli", cli.main)

    codes, grid_s, probe_s = {}, {}, [_probe()]
    for grid in grids:
        exp = grid["experiment"]
        args = ["verify", exp, grid["config"], "--out", os.path.join(out_dir, exp + ".json")]
        start = time.perf_counter()
        try:
            codes[exp] = run(args)
        except Exception as exc:  # a raising grid fails; the others still run
            codes[exp] = repr(exc)
        grid_s[exp] = time.perf_counter() - start
        probe_s.append(_probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.dump(trace_path)
    print(json.dumps({
        "setup_s": setup_s, "grid_s": grid_s, "probe_s": probe_s, "peak_rss_mb": peak_rss_mb, "codes": codes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
