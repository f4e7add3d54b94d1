"""Benchmark of `semiorbits verify`: end-to-end metrics, per-layer trace.

    python3 bench/run.py --workload prime-dp --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory and the oracles from ``tests/oracles.py``.  Workloads are
defined in workloads.py; the seed draws their inputs.  ``--workload all``
(the default) runs every workload in turn.

Each repetition runs every grid of the workload in a fresh interpreter
(child.py), because a command-line user pays for the module-level caches
cold on every invocation.  Repetitions continue until ``--seconds`` have
passed (at least MIN_REPS).  Each metric is a median over the repetitions;
times are scaled to a reference machine speed by a fixed pure-Python probe
timed before and after every grid (see NOTES.md).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
tracer.py, the module line counts and trace.overhead_ratio.  Every
repetition's report bodies must be byte-identical to the reference (the
stored sha256 for the default seed, else the first repetition), and a few
rows per grid are recomputed by the oracles.  A grid that exits non-zero,
raises or fails a check counts as failed.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
MIN_REPS = 3
REP_TIMEOUT_S = 60
DEADLINE_S = 90  # no repetition starts later, so a run ends within 180 s
PROBE_REF_S = 0.06  # child._probe() time that defines the reference machine speed
LAYER_MODULES = ("ff", "intpoly", "orbits", "combinatorics", "verify", "cli")

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_s", "s"), (".s", "s"),
                         ("_ratio", "ratio"), (".bytes", "bytes"), (".lines", "lines")):
        if name.endswith(suffix):
            return unit
    return "count"


def _body_sha(path: Path):
    """sha256 of the report body (the JSON report without its header), and the body."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("header")
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), doc


def _repetition(work: Path, manifest: Path, grids, trace: bool):
    out_dir = Path(tempfile.mkdtemp(dir=work))
    trace_path = out_dir / "trace.json" if trace else None
    try:
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(manifest), str(out_dir),
             repr(spawned), str(trace_path or "-")],
            cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return None
        rep = json.loads(lines[-1])
        rep["bodies"] = {}
        for exp, _ in grids:
            path = out_dir / (exp + ".json")
            if rep["codes"][exp] == 0 and path.exists():
                rep["bodies"][exp] = _body_sha(path)
        if trace:
            with open(trace_path, encoding="utf-8") as fh:
                rep["layers"] = json.load(fh)["metrics"]
            shutil.copyfile(trace_path, work / "trace.json")
        return rep
    except subprocess.TimeoutExpired:
        sys.stderr.write("repetition exceeded %d s\n" % REP_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _scaled(rep: dict, i: int, exp: str) -> float:
    """Seconds of grid i at the reference machine speed: its time divided by
    the mean of the probes taken just before and just after it."""
    before, after = rep["probe_s"][i], rep["probe_s"][i + 1]
    return rep["grid_s"][exp] * PROBE_REF_S * 2.0 / (before + after)


def _scaled_total(rep: dict, grids) -> float:
    return sum(_scaled(rep, i, exp) for i, (exp, _) in enumerate(grids))


def _line_counts() -> dict:
    out = {}
    total = 0
    for path in sorted((SRC / "semiorbits").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            n = sum(1 for _ in fh)
        total += n
        if path.stem in LAYER_MODULES:
            out[path.stem + ".lines"] = n
    out["src.lines"] = total
    return out


def _write_inputs(work: Path, grids) -> Path:
    """One config file per grid, and the manifest child.py reads."""
    entries = []
    for exp, cfg in grids:
        path = work / (exp + ".config.json")
        path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        entries.append({"experiment": exp, "config": str(path)})
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"src": str(SRC), "grids": entries}), encoding="utf-8")
    return manifest


def _problems(workload: str, seed: int, grids, first):
    """Reference body sha256 per grid, and the problems found in each grid's
    report: oracle spot-checks and the sha256 of the first repetition."""
    import checks  # imports semiorbits and the oracles, after the timed runs

    if seed == DEFAULT_SEED:
        with open(BENCH / "golden.json", encoding="utf-8") as fh:
            golden = json.load(fh).get(workload, {})
        ref = {exp: golden.get(exp) for exp, _ in grids}
    else:
        ref = {exp: first["bodies"].get(exp, (None,))[0] if first else None for exp, _ in grids}
    problems = {}
    for exp, _ in grids:
        if first is None or exp not in first["bodies"]:
            problems[exp] = ["no report"]
            continue
        sha, body = first["bodies"][exp]
        try:
            problems[exp] = checks.check_body(exp, body, seed)
        except Exception as exc:  # a malformed report fails its grid, not the run
            problems[exp] = ["check raised %r" % exc]
        if sha != ref[exp]:
            problems[exp].append("body sha256 %s differs from reference %s" % (sha, ref[exp]))
    return ref, problems


def _end_to_end(good, grids, rows: int) -> dict:
    wall_s = sum(statistics.median(_scaled(r, i, exp) for r in good)
                 for i, (exp, _) in enumerate(grids))
    for exp, _ in grids:
        print("  %s raw seconds per repetition: %s"
              % (exp, " ".join("%.3f" % r["grid_s"][exp] for r in good)))
    print("  raw setup_s per repetition: %s" % " ".join("%.3f" % r["setup_s"] for r in good))
    print("  probe seconds per repetition: %s"
          % " ".join("/".join("%.4f" % p for p in r["probe_s"]) for r in good))
    return {
        "setup_s": statistics.median(r["setup_s"] * PROBE_REF_S / r["probe_s"][0] for r in good),
        "wall_s": wall_s,
        "rows_per_s": rows / wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }


def _per_layer(good, good_traced, grids) -> dict:
    layers = [r["layers"] for r in good_traced]
    metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    metrics.update(_line_counts())
    metrics["trace.overhead_ratio"] = (
        statistics.median(_scaled_total(r, grids) for r in good_traced)
        / statistics.median(_scaled_total(r, grids) for r in good))
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    grids = workloads.grids(workload, seed)
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = _write_inputs(work, grids)

    # compile bytecode once, untimed: an installed package ships it
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, %r); "
                    "import semiorbits.cli" % str(SRC)], cwd=ROOT, check=True,
                   timeout=REP_TIMEOUT_S)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(_repetition(work, manifest, grids, False))
        if trace:
            traced.append(_repetition(work, manifest, grids, True))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(plain) >= (1 if trace else MIN_REPS) or elapsed >= DEADLINE_S):
            break

    first = next((r for r in plain if r is not None), None)
    ref, problems = _problems(workload, seed, grids, first)
    attempted = failed = 0
    for rep in plain + traced:
        for exp, _ in grids:
            attempted += 1
            ok = (rep is not None and rep["codes"][exp] == 0 and not problems[exp]
                  and rep["bodies"].get(exp, (None,))[0] == ref[exp])
            failed += 0 if ok else 1

    rows = sum(len(body["rows"]) for _, body in first["bodies"].values()) if first else 0
    print("workload=%s seed=%d reps=%d traced_reps=%d grids=%d rows=%d"
          % (workload, seed, len(plain), len(traced), len(grids), rows))
    for exp, _ in grids:
        sha = first["bodies"].get(exp, ("-",))[0] if first else "-"
        print("  grid %s sha256=%s %s" % (exp, sha, "; ".join(problems[exp]) or "ok"))
    good = [r for r in plain if r is not None]
    good_traced = [r for r in traced if r is not None]
    if not good or (trace and not good_traced):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": None}

    if trace:
        metrics = _per_layer(good, good_traced, grids)
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = _end_to_end(good, grids, rows)
        units = END_TO_END
    for name, value in metrics.items():
        print("  %s = %.6g %s" % (name, value, units[name]))
    print("  failed_frac = %.6g ratio (%d of %d grid runs)"
          % (failed / attempted, failed, attempted))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for need in (SRC / "semiorbits" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print("not a semiorbits checkout: %s is missing" % need, file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result["metrics"] is None:
            status = 1
            continue
        print(json.dumps(result, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
