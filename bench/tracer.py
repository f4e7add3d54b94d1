"""In-memory tracing of the calls into each semiorbits layer.

The traced run replaces module attributes at the sites that import them
(``semiorbits.verify.<fn>``, ``semiorbits.orbits.mul_order``,
``semiorbits.cli.run_experiment``) and two class attributes
(``FieldPolynomial.eval``, ``IntPolynomial.compose``) with wrappers.  A
wrapper passes arguments and results through unchanged and records:

- a span (name, stage, start, end, parent span, child time) per call, or
- for the million-call boundaries ``ff.eval`` and ``ff.mul_order``, only a
  call count and summed time, charged to the enclosing span as child time.

Self time is a span's duration minus the time its children cover.  Each
span carries the ROADMAP stage it belongs to (field, tables, graph, kernel,
report), and counted calls belong to the stage of the span they run in, so
later in-program stage timers can be checked against the stage totals.
Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import json
import math
from time import perf_counter

STAGES = ("field", "tables", "graph", "kernel", "report")

# span name -> (stage, module attribute sites to wrap)
SPANS = {
    "cli": ("report", ()),  # wrapped by the caller around cli.main
    "verify.runner": ("kernel", (("cli", "run_experiment"),)),
    "verify.report": ("report", (("verify.ExperimentReport", "to_json"),)),
    "ff.make_field": ("field", (("verify", "make_prime_field"),
                                ("verify", "make_extension_field"))),
    "ff.small_order_set": ("tables", (("verify", "small_order_set"),)),
    "intpoly.compose": ("kernel", (("intpoly.IntPolynomial", "compose"),)),
    "intpoly.resultant": ("kernel", (("verify", "resultant"),)),
    "intpoly.cyclotomic": ("kernel", (("verify", "cyclotomic"),)),
    "orbits.sup_m": ("kernel", (("verify", "sup_m_over_sequences"),)),
    "orbits.level_sets": ("kernel", (("verify", "count_small_order_points"),)),
    "orbits.m_count": ("kernel", (("verify", "m_count"),)),
    "orbits.orbit": ("kernel", (("verify", "orbit"),)),
    "orbits.cover": ("kernel", (("verify", "greedy_sequence_cover"),)),
    "combinatorics.build_graph": ("graph", (("verify", "build_graph"),)),
    "combinatorics.witness": ("kernel", (("verify", "find_witness_words"),)),
}

# counted boundaries: name -> module attribute sites to wrap
COUNTERS = {
    "ff.eval": (("ff.FieldPolynomial", "eval"),),
    "ff.mul_order": (("verify", "mul_order"), ("orbits", "mul_order")),
}


def _witness_subsets(args) -> int:
    graph, h, l = args[0], args[4], args[5]
    words = sum(graph.k**n for n in range(1, h + 1))
    return math.comb(words, l)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, stage, start, end, parent id, child s, counted s)
        self._stack = []  # open spans: (span id, [child s, counted s])
        self.counts = {name: [0, 0.0] for name in COUNTERS}  # [calls, seconds]
        self.distinct = {"ff.mul_order": set(), "intpoly.compose": set()}
        self.tallies = {
            "combinatorics.graph_vertices": 0,
            "combinatorics.witness_subsets": 0,
            "verify.report.bytes": 0,
        }

    # -- wrappers ----------------------------------------------------------
    def span(self, name: str, fn):
        stage = SPANS[name][0]
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            child = [0.0, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append((span_id, child))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1][0] += end - start
                spans[span_id] = (name, stage, start, end, parent, child[0], child[1])
            self._observe(name, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        stat = self.counts[name]
        stack = self._stack
        seen = self.distinct.get(name)

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stat[0] += 1
                stat[1] += dt
                if stack:
                    acc = stack[-1][1]
                    acc[0] += dt
                    acc[1] += dt
                if seen is not None:
                    u = args[0]
                    seen.add((u.ctx._key, u.coeffs))

        return wrapper

    def _observe(self, name, args, result):
        if name == "intpoly.compose":
            self.distinct[name].add(hash((args[0].coeffs, args[1].coeffs)))
        elif name == "combinatorics.build_graph":
            self.tallies["combinatorics.graph_vertices"] += result.n
        elif name == "combinatorics.witness":
            self.tallies["combinatorics.witness_subsets"] += _witness_subsets(args)
        elif name == "verify.report":
            self.tallies["verify.report.bytes"] += len(result.encode("utf-8"))

    def install(self):
        """Wrap every site named in SPANS and COUNTERS."""
        sites = [(name, s, self.span) for name, (_, s) in SPANS.items()]
        sites += [(name, s, self.counter) for name, s in COUNTERS.items()]
        for name, where_attrs, make in sites:
            for where, attr in where_attrs:
                module, _, cls = where.partition(".")
                owner = importlib.import_module("semiorbits." + module)
                if cls:
                    owner = getattr(owner, cls)
                setattr(owner, attr, make(name, owner.__dict__[attr]))

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer totals: calls and inclusive seconds per layer span,
        self seconds of the cli and runner spans, and self seconds per stage."""
        calls = dict.fromkeys(SPANS, 0)
        total = dict.fromkeys(SPANS, 0.0)
        self_s = dict.fromkeys(SPANS, 0.0)
        stage_s = dict.fromkeys(STAGES, 0.0)
        for name, stage, start, end, _, child, counted in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child
            stage_s[stage] += end - start - child + counted
        out = {"cli.self_s": self_s["cli"], "verify.runner.self_s": self_s["verify.runner"]}
        for name in SPANS:
            if name not in ("cli", "verify.runner"):
                out[name + ".calls"] = calls[name]
                out[name + ".s"] = total[name]
        for name, (n, seconds) in self.counts.items():
            out[name + ".calls"] = n
            out[name + ".s"] = seconds
        for name, seen in self.distinct.items():
            n = out[name + ".calls"]
            out[name + ".distinct_ratio"] = len(seen) / n if n else 0.0
        out.update(self.tallies)
        for stage in STAGES:
            out["stage.%s.s" % stage] = stage_s[stage]
        return out

    def dump(self, path: str):
        doc = {
            "fields": ["name", "stage", "start", "end", "parent", "child_s", "counted_s"],
            "spans": self.spans,
            "counters": {k: {"calls": n, "s": s} for k, (n, s) in self.counts.items()},
            "metrics": self.metrics(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
