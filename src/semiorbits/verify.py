"""Experiment harnesses for the orbit statistics and their bound shapes.

Each runner sweeps a configured grid (primes, initial points, index caps),
computes an exactly-evaluated quantity next to the bound term it should be
compared against, and emits a deterministic report.  Bounds with unknown
implied constants are reported as ratios, never asserted; explicit
inequalities (the height bound, the gap and pair counts) are asserted hard,
because a violation there is an implementation bug.

Reports serialize to CSV (header row, "." for not-applicable cells) and
JSON ({"config", "columns", "rows", "summary"}); reals are printed with 12
significant digits and the timestamp lives outside the body, so a fixed
config reproduces byte-identical bodies.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .combinatorics import FunctionalGraph, b_tree_size, build_graph, find_witness_words
from .errors import ConfigError, EmptyReport, SpecialGenerator, TooLarge
from .ff import (
    EVAL_BLOCK,
    FieldContext,
    _distinct,
    _maximal_divisors,
    _power,
    euler_phi,
    is_prime,
    make_extension_field,
    make_prime_field,
    mul_order,  # not called here, but bench/tracer.py wraps verify.mul_order and needs it bound
    mul_orders,
    small_order_set,
)
from .intpoly import (
    NON_SPECIAL,
    composition_height_bound,
    cyclotomic,
    cyclotomic_charpoly,
    cyclotomic_norms,
    format_poly,
    height,
    is_special,
    parse_poly,
    resultant,
)
from .orbits import (
    DEFAULT_ORBIT_CAP,
    MAX_GRAPH_SIZE,
    GeneratorSet,
    count_small_order_points,
    greedy_sequence_cover,
    letter_index,
    m_count,
    orbit,
    reach_table,
    stream_from_config,
    sup_m_over_sequences,
    theorem46_lhs,
)

COMPOSITION_DEGREE_CAP = 3**5
CHARPOLY_COST_CAP = 1 << 22  # phi(r) r (deg F + 1): the multiplications behind one χ_r
LEMMA41_COST_CAP = 10**8  # a lemma41 grid's multiplications, over every χ_r and resultant


def _fits(value, hint) -> bool:
    """Whether a config value has its field's declared type: bool is not a
    number, an int may stand for a float, a JSON list for a tuple."""
    if get_origin(hint) is Union:
        return any(_fits(value, arg) for arg in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _fits(v, get_args(hint)[0]) for v in value)
    return type(value) in ((int, float) if hint is float else (hint,))


@dataclass
class ExperimentConfig:
    """One experiment run: which theorem harness, over which grid.

    t_rule: give either an absolute ``t`` or ``t_exponent`` e in (0, 1/2),
    which sets t = max(1, floor((log p)^e)) per prime (for the fixed-P scan
    it is applied to P instead, matching that theorem's hypothesis).
    """

    experiment: str
    generators: Tuple[str, ...] = ()
    s: int = 1
    primes: Optional[Tuple[int, ...]] = None
    prime_min: int = 2
    prime_max: Optional[int] = None
    starts: Optional[Tuple[int, ...]] = None
    sample: Optional[int] = None
    seed: Union[int, str] = 0
    t: Optional[int] = None
    t_exponent: Optional[float] = None
    N: Optional[int] = None
    h: Optional[int] = None
    l: Optional[int] = None
    h_from_n: bool = False
    stream: Optional[dict] = None
    C: float = 1.0
    c: float = 1.0
    c1: float = 0.0
    r_max: int = 6
    s_max: int = 6
    n_max: int = 3
    trials: int = 50
    include_level_0: bool = False
    allow_special: bool = False
    diagnostics: bool = False
    orbit_cap: int = DEFAULT_ORBIT_CAP
    diag_degree_cap: int = 4096
    loglog_floor: float = 0.1

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config is a JSON object, got %r" % (data,))
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError("unknown config fields: %s" % ", ".join(unknown))
        if "experiment" not in data:
            raise ConfigError("config needs an 'experiment' field")
        hints = _config_hints()
        for f in fields(cls):
            if f.name in data and not _fits(data[f.name], hints[f.name]):
                raise ConfigError("config field %r must be %s, got %r"
                                  % (f.name, f.type, data[f.name]))
        cfg = cls(**data)
        cfg._normalize()
        return cfg

    def _normalize(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                "unknown experiment %r; valid: %s"
                % (self.experiment, ", ".join(sorted(EXPERIMENTS)))
            )
        for name in ("C", "c", "c1", "t_exponent", "loglog_floor"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):  # JSON and flags read NaN, inf
                raise ConfigError("%s must be finite, got %r" % (name, value))
        self.generators = tuple(self.generators)
        if self.primes is not None:
            self.primes = tuple(self.primes)
        if self.starts is not None:
            self.starts = tuple(self.starts)
        if self.sample is not None and self.sample < 0:
            raise ConfigError("sample must be >= 0")
        for name in ("t", "h", "l", "orbit_cap"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError("%s must be >= 1" % name)
        least_n = 1 if self.experiment in ("thm44i", "thm44ii", "cor45") else 0
        if self.N is not None and self.N < least_n:
            raise ConfigError("N must be >= %d for %s" % (least_n, self.experiment))
        for name, exp in (("C", "thm44ii"), ("c", "thm46")):  # factors of a bound
            if self.experiment == exp and not getattr(self, name) > 0:
                raise ConfigError("%s must be > 0 for %s" % (name, exp))
        if self.t_exponent is not None and not 0 < self.t_exponent < 0.5:
            raise ConfigError("t_exponent must lie strictly in (0, 1/2)")
        if self.s < 1:
            raise ConfigError("s must be >= 1")
        if not self.generators:
            raise ConfigError("config needs at least one generator")
        if self.stream is not None:
            stream = stream_from_config(self.stream)  # rejects a malformed stream at load
            letters = (1, stream.k) if stream.kind == "random" else stream.period + stream.preperiod
            if not 1 <= min(letters) <= max(letters) <= len(self.generators):
                raise ConfigError("stream letters (and a random stream's 'k') must lie in"
                                  " [1, %d], one per generator" % len(self.generators))
        least = 1 if self.experiment == "lemma41" else 2
        low = [text for text in self.generators if parse_poly(text).degree < least]
        if low:
            raise ConfigError("%s generators need degree >= %d, got: %s"
                              % (self.experiment, least, "; ".join(low)))
        if self.loglog_floor <= 0:
            raise ConfigError("loglog_floor must be positive")

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("generators", "primes", "starts"):
            if out[key] is not None:
                out[key] = list(out[key])
        return out


@functools.cache
def _config_hints() -> dict:
    """ExperimentConfig's field types, resolved once, on the first load."""
    return get_type_hints(ExperimentConfig)


def _round(value: float) -> float:
    """A float to 12 significant digits, so that serialization is stable."""
    return float("%.12g" % value)


def _canon(value):
    """Round floats (see _round) throughout dicts, lists and tuples."""
    if isinstance(value, float):
        return _round(value)
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


# json.dumps(..., indent=2) puts a report's rows two levels deep: one
# encoder without indent, which json runs in C, writes each row's items with
# that depth's item separator
_ROW_ITEMS = ",\n      "
_ROW_ENCODER = json.JSONEncoder(separators=(_ROW_ITEMS, ": "), sort_keys=True,
                                check_circular=False)


def _indented_rows(rows: List[list]) -> str:
    """``rows``, flat lists of JSON scalars, as json.dumps(..., indent=2)
    writes them at the top level of a document."""
    if not rows:
        return "[]"
    if all(rows):
        # one encoder call: the rows are flat and no JSON string holds a raw
        # newline, so "],\n      [" occurs only where one row ends and the
        # next begins (an empty row "[]" would match it too)
        inner = _ROW_ENCODER.encode(rows)[2:-2].replace(
            "]" + _ROW_ITEMS + "[", "\n    ],\n    [\n      ")
        return "[\n    [\n      " + inner + "\n    ]\n  ]"
    items = ("[\n      %s\n    ]" % _ROW_ENCODER.encode(row)[1:-1] if row else "[]"
             for row in rows)
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def _cell(value) -> str:
    if value is None:
        return "."
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


@dataclass
class ExperimentReport:
    config: dict
    columns: Tuple[str, ...]
    rows: List[tuple]
    summary: dict
    created: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def body_dict(self) -> dict:
        body = _canon({"config": self.config, "columns": list(self.columns),
                       "summary": self.summary})
        body["rows"] = [[_round(v) if isinstance(v, float) else v for v in r]
                        for r in self.rows]  # rows are flat: no recursion
        return body

    def body_json(self) -> str:
        return json.dumps(self.body_dict(), sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        """The report as json.dumps(doc, sort_keys=True, indent=2) writes it.
        The rows are written apart, in place of a 0 under the top-level
        "rows" key: only top-level keys start a line with two spaces, and no
        JSON string holds a raw newline."""
        doc = self.body_dict()
        rows, doc["rows"] = doc["rows"], 0
        doc["header"] = {"created": self.created, "tool": _tool_version()}
        head, tail = json.dumps(doc, sort_keys=True, indent=2).split('\n  "rows": 0', 1)
        return head + '\n  "rows": ' + _indented_rows(rows) + tail + "\n"

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def summary_line(self) -> str:
        parts = ["experiment=%s" % self.config.get("experiment"), "rows=%d" % len(self.rows)]
        for key in sorted(self.summary):
            if key != "rows":
                parts.append("%s=%s" % (key, _cell(_canon(self.summary[key]))))
        return " ".join(parts)


def _tool_version() -> str:
    from . import __version__

    return __version__


def fit_constants(report: ExperimentReport, column: str = "ratio") -> dict:
    """Empirical implied constant of a ratio column: max and nearest-rank p95."""
    try:
        i = report.columns.index(column)
    except ValueError:
        raise EmptyReport("report has no %r column" % column) from None
    vals = sorted(float(r[i]) for r in report.rows if r[i] is not None)
    if not vals:
        raise EmptyReport("no %r values to fit" % column)
    p95 = vals[max(0, math.ceil(0.95 * len(vals)) - 1)]
    return {"max": vals[-1], "p95": p95, "n": len(vals)}


# ---------------------------------------------------------------------------
# grid helpers


def _system(cfg: ExperimentConfig, strict: bool = False) -> Tuple[GeneratorSet, Dict[str, str]]:
    """The generator system, and its special generators as a summary entry
    (empty when none).

    Strict runs reject them unless the config opts in; everywhere else they
    are recorded as warnings so the harness doubles as a negative control
    (the bounds are expected to degrade for monomials and Chebyshev).
    """
    F = GeneratorSet([parse_poly(text) for text in cfg.generators])
    notes = []
    for f in F.polys:
        kind = is_special(f).kind
        if kind != NON_SPECIAL:
            if strict and not cfg.allow_special:
                raise SpecialGenerator(
                    "generator %s is %s; set allow_special to run anyway"
                    % (format_poly(f), kind)
                )
            notes.append("%s is %s" % (format_poly(f), kind))
    return F, {"special_generators": "; ".join(notes)} if notes else {}


def _t_for(cfg: ExperimentConfig, base: float) -> int:
    """Resolve the t-rule as floor(base^t_exponent), at least 1; base is
    log p, or P itself for the fixed-P scan."""
    if cfg.t is not None:
        return cfg.t
    if cfg.t_exponent is None:
        raise ConfigError("config needs 't' or 't_exponent'")
    return max(1, int(base**cfg.t_exponent))


def _starts(cfg: ExperimentConfig, q: int) -> List[int]:
    if cfg.starts is not None:
        return [w % q for w in cfg.starts]
    if cfg.sample is None or q <= cfg.sample:
        return list(range(q))
    rng = random.Random(cfg.seed)
    return sorted(rng.sample(range(q), cfg.sample))


def _grid(cfg: ExperimentConfig):
    """Yield (p, field, starts) for each prime of the grid, in order.  Starts
    that the config does not list are refused past MAX_GRAPH_SIZE per field,
    before a prime range is resolved or any field is built: a range's largest
    prime comes from a scan down from ``prime_max``."""
    if cfg.primes is not None:
        bad = [p for p in cfg.primes if not is_prime(p)]
        if bad:
            raise ConfigError("not prime: %s" % ", ".join(map(str, bad)))
        primes, largest = cfg.primes, max(cfg.primes, default=1)
    elif cfg.prime_max is None:
        raise ConfigError("config needs 'primes' or 'prime_max'")
    else:
        span = range(max(2, cfg.prime_min), cfg.prime_max + 1)
        primes, largest = filter(is_prime, span), next(filter(is_prime, reversed(span)), 1)
    if cfg.starts is None:
        q = largest ** cfg.s
        implicit = q if cfg.sample is None else min(q, cfg.sample)
        if implicit > MAX_GRAPH_SIZE:
            raise TooLarge("starts guard: %d starts in one field, more than %d; give 'starts'"
                           " or a smaller 'sample'" % (implicit, MAX_GRAPH_SIZE))
    for p in primes:
        ctx = make_prime_field(p) if cfg.s == 1 else make_extension_field(p, cfg.s)
        yield p, ctx, _starts(cfg, ctx.q)


def _whole_field(ctx: FieldContext) -> bool:
    """A prime field within the cap takes its whole graph; an extension field
    takes the starts' reach, for a few starts far cheaper than all of F_q."""
    return ctx.s == 1 and ctx.q <= MAX_GRAPH_SIZE


def _tables(F: GeneratorSet, ctx: FieldContext, starts: Sequence[int], depth=None,
            cap=MAX_GRAPH_SIZE):
    """Successor table over the starts' reach within ``depth`` steps (all when
    None), each row's field index, and each start's row: the whole graph where
    ``_whole_field`` allows, else only the reached points, each evaluated once,
    and no more than ``cap`` of them (``reach_table``)."""
    if _whole_field(ctx):
        return build_graph(F, ctx).table, np.arange(ctx.q), starts
    table, points = reach_table(F, ctx, starts, depth, cap)
    row = {w: r for r, w in enumerate(dict.fromkeys(starts))}  # reach_table's first rows
    return table, points, [row[w] for w in starts]


def _qual(ctx: FieldContext, t: int, points: np.ndarray) -> np.ndarray:
    """Γ(t) mask over an array of field indices, of any shape and with repeats:
    the nonzero points of order <= t.  Γ(t) is listed, one multiplication per
    power of its maximal divisors (``small_order_set``), unless that costs more
    than ``mul_orders`` on the distinct nonzero points, about log2 q
    multiplications each; a whole field always lists (σ(q-1) < q log2 q).
    With at least q points a q-entry mask is indexed by them; q may reach 2^48,
    so fewer points are matched with ``np.isin``."""
    points = np.asarray(points, dtype=np.int64)
    listed = sum(_maximal_divisors(ctx.group_order_factorization(), t))
    if listed <= points.size * ctx.q.bit_length():
        members = small_order_set(ctx, t)
    else:
        distinct = _distinct(points[points != 0])
        members = distinct[mul_orders(ctx, distinct) <= t]
    if ctx.q <= points.size:
        mask = np.zeros(ctx.q, dtype=bool)
        mask[members] = True
        return mask[points]
    return np.isin(points, members)


def _fields(cfg: ExperimentConfig, F: GeneratorSet, depth: int):
    """Yield (p, field, t, starts, table, Γ(t) mask, start rows) per field with
    starts: ``_tables`` at ``depth``, ``_qual`` over its rows.  t comes before
    the skip, so a config without a t rule fails on any grid with a field."""
    for p, ctx, ws in _grid(cfg):
        t = _t_for(cfg, math.log(p))
        if ws:
            table, points, start_rows = _tables(F, ctx, ws, depth)
            yield p, ctx, t, ws, table, _qual(ctx, t, points), start_rows


def _need(cfg: ExperimentConfig, name: str):
    value = getattr(cfg, name)
    if value is None:
        raise ConfigError("experiment %s needs %r" % (cfg.experiment, name))
    return value


def _loglog_denom(cfg: ExperimentConfig, p: int) -> float:
    # log log p <= 0 for tiny p; floor keeps the bound term finite
    return max(math.log(math.log(p)), cfg.loglog_floor)


def _log_denom(cfg: ExperimentConfig, p: int) -> float:
    return max(math.log(p), cfg.loglog_floor)


def _word_str(word: Sequence[int]) -> str:
    return "-".join(str(i) for i in word)


def _report(cfg, columns, rows, fit=None, **summary) -> ExperimentReport:
    """The report on ``rows``: its summary counts them, holds the given
    entries, and the fitted constants of column ``fit`` once it has a value."""
    report = ExperimentReport(cfg.to_dict(), tuple(columns), rows, {"rows": len(rows), **summary})
    if fit is not None and any(r[report.columns.index(fit)] is not None for r in rows):
        report.summary.update(fit_constants(report, fit))
    return report


# ---------------------------------------------------------------------------
# runners


def run_thm44i(cfg: ExperimentConfig) -> ExperimentReport:
    """Sup over sequences of the small-order count, against
    max{N^(1/2), N/log log p}."""
    F, notes = _system(cfg, strict=True)
    N = _need(cfg, "N")
    columns = ("p", "s", "w", "t", "N", "M", "bound", "ratio", "word")
    rows = []
    for p, ctx, t, ws, table, qual, start_rows in _fields(cfg, F, N - 1):
        bound = max(math.sqrt(N), N / _loglog_denom(cfg, p))
        found = sup_m_over_sequences(table, qual, start_rows, N)
        for w, (M, word) in zip(ws, found):
            rows.append((p, cfg.s, w, t, N, M, bound, M / bound, _word_str(word)))
    return _report(cfg, columns, rows, "ratio", **notes)


def run_thm44ii(cfg: ExperimentConfig) -> ExperimentReport:
    """Fixed stream, all primes p <= P: count primes where M exceeds
    C * max{N^(1/2), N/log p}."""
    F, notes = _system(cfg, strict=True)
    N = _need(cfg, "N")
    if cfg.stream is None:
        raise ConfigError("experiment thm44ii needs a 'stream'")
    if cfg.prime_max is None:
        raise ConfigError("experiment thm44ii needs 'prime_max' (the P)")
    stream = stream_from_config(cfg.stream)
    P = cfg.prime_max
    t = _t_for(cfg, P)
    columns = ("p", "t", "N", "starts", "max_M", "argmax_w", "bound", "ratio", "exceptional")
    letters = stream.prefix(N - 1)
    rows = []
    for walk, run in _thm44ii_runs(_grid(cfg), N):
        for (p, ctx, ws), (best, argw) in zip(run, walk(F, t, letters, run)):
            bound = cfg.C * max(math.sqrt(N), N / _log_denom(cfg, p))
            if ws:
                assert best == m_count(F, stream, ctx.from_index(argw), t, N)
            ratio = None if best is None else best / bound
            flag = 1 if ratio is not None and best > bound else 0
            rows.append((p, t, N, len(ws), best, argw, bound, ratio, flag))
    exceptional = sum(r[-1] for r in rows)
    if P >= 3:
        notes["p_over_log_p"] = P / math.log(P)
        notes["exceptional_fraction"] = exceptional / (P / math.log(P))
    return _report(cfg, columns, rows, exceptional=exceptional, **notes)


def _thm44ii_runs(grid, N: int):
    """The (p, field, starts) of ``grid`` in order, in runs that walk
    together, each with its walker: consecutive whole prime fields whose
    starts take at least q steps, while their tables hold at most
    MAX_GRAPH_SIZE rows in all, walk their tables (a table costs one
    evaluation per row, so it pays once the walk takes as many steps); every
    other field walks alone, evaluating the walked points."""
    run, held = [], 0  # whole fields not walked yet, and their tables' rows
    for p, ctx, ws in grid:
        table = bool(ws) and _whole_field(ctx) and len(ws) * N >= ctx.q
        if run and (not table or held + ctx.q > MAX_GRAPH_SIZE):
            yield _walk_tables, run
            run, held = [], 0
        if table:
            run.append((p, ctx, ws))
            held += ctx.q
        else:
            yield _walk_points, [(p, ctx, ws)]
    if run:
        yield _walk_tables, run


def _maxima(counts: np.ndarray, ws: Sequence[int]) -> Tuple[int, int]:
    """The largest of the starts' counts, and the first start that has it."""
    i = int(counts.argmax())
    return int(counts[i]), ws[i]


def _walk_points(F: GeneratorSet, t: int, letters, run) -> List[tuple]:
    """Per (p, field, starts) of ``run``: _maxima of the Γ(t) points on the
    starts' walks along ``letters``, all starts at once, the walked points
    evaluated a step at a time; (None, None) for a field without starts."""
    found = []
    for _, ctx, ws in run:
        if not ws:
            found.append((None, None))  # no maximum: its cells are "."
            continue
        steps = [g.eval_indices for g in F.reduced(ctx)]
        walked = [np.array(ws, dtype=np.int64)]
        for a in letters:
            walked.append(steps[letter_index(a, F.k)](walked[-1]))
        found.append(_maxima(_qual(ctx, t, np.stack(walked)).sum(axis=0), ws))
    return found


def _walk_tables(F: GeneratorSet, t: int, letters, run) -> List[tuple]:
    """_walk_points on whole prime fields with at most MAX_GRAPH_SIZE points
    in all, walked as one graph: ``_run_tables``, and one gather per letter
    for every start of every field."""
    cols, mask = _run_tables(F, t, [ctx for _, ctx, _ in run])
    at = np.cumsum([0] + [ctx.q for _, ctx, _ in run])
    pos = np.concatenate([np.add(ws, lo) for (_, _, ws), lo in zip(run, at)])
    counts = mask.take(pos).astype(np.int64)
    for a in letters:
        pos = cols[letter_index(a, F.k)].take(pos)
        counts += mask.take(pos)
    ends = np.cumsum([len(ws) for _, _, ws in run])
    return [_maxima(c, ws) for (_, _, ws), c in zip(run, np.split(counts, ends[:-1]))]


def _run_tables(F: GeneratorSet, t: int, ctxs: Sequence[FieldContext]):
    """Successor columns (one per generator) and Γ(t) mask of the disjoint
    union of the prime fields ``ctxs``, each field's rows after those of the
    fields before it, row x of a field standing for x.  Built in blocks of at
    most EVAL_BLOCK rows, each row's prime its modulus; every prime is below
    2^20, so int64 products stay below 2^40.  Column j is Horner on each
    field's reduced generator j, padded with leading zeros to the longest,
    plus the field's first row.  A nonzero x is in Γ(t) iff x^d = 1 for one
    of the maximal divisors d <= t of p - 1 (every order <= t divides one),
    and 0^d = 0, so each block powers its rows grouped by d."""
    red = [F.reduced(ctx) for ctx in ctxs]  # raises at the first field whose degree drops
    coeffs = []  # per generator, a (width, fields) array, highest degree first
    for j in range(F.k):
        width = max(len(r[j].coeffs) for r in red)
        coeffs.append(np.array([(0,) * (width - len(r[j].coeffs)) + r[j].coeffs[::-1]
                                for r in red], dtype=np.int64).T)
    tops = [_maximal_divisors(ctx.group_order_factorization(), t) for ctx in ctxs]
    fields_of = {}  # d -> which fields have it among their maximal divisors
    for g, top in enumerate(tops):
        for d in top:
            fields_of.setdefault(d, np.zeros(len(ctxs), dtype=bool))[g] = True
    primes = np.array([ctx.p for ctx in ctxs], dtype=np.int64)
    at = np.concatenate([[0], np.cumsum(primes)])
    cols = np.empty((F.k, at[-1]), dtype=np.int64)
    mask = np.zeros(at[-1], dtype=bool)
    for lo in range(0, at[-1], EVAL_BLOCK):
        hi = min(lo + EVAL_BLOCK, at[-1])
        rows = np.arange(lo, hi)
        f = np.searchsorted(at, rows, side="right") - 1  # each row's field
        first, mod = at[f], primes[f]
        x = rows - first
        for j, c in enumerate(coeffs):
            acc = c[0][f]
            for cj in c[1:]:
                acc *= x
                acc += cj[f]
                acc %= mod
            np.add(acc, first, out=cols[j, lo:hi])
        for d in {d for g in range(f[0], f[-1] + 1) for d in tops[g]}:
            sel = np.flatnonzero(fields_of[d][f])
            ms = mod[sel]
            mask[lo + sel] |= _power(lambda a, b: a * b % ms, x[sel], d) == 1
    return cols, mask


def run_cor45(cfg: ExperimentConfig) -> ExperimentReport:
    """Distinct small-order points across levels 1..N, against
    max{N^(1/2) k^N, N k^N / log log p}.

    The count is trivially capped by q itself, so the q column is emitted
    next to the bound to expose its slack at small scale.
    """
    F, notes = _system(cfg)
    N = _need(cfg, "N")
    columns = ("p", "s", "w", "t", "N", "count", "q", "bound", "ratio")
    rows = []
    for p, ctx, t, ws, table, qual, start_rows in _fields(cfg, F, N):
        kN = float(F.k) ** N
        bound = max(math.sqrt(N) * kN, N * kN / _loglog_denom(cfg, p))
        counts = count_small_order_points(table, qual, start_rows, N, cfg.include_level_0)
        for w, cnt in zip(ws, counts):
            rows.append((p, cfg.s, w, t, N, cnt, ctx.q, bound, cnt / bound))
    return _report(cfg, columns, rows, "ratio", **notes,
                   bound_note="count <= q everywhere; ratios expose the k^N slack")


def _collision_diagnostic(cfg: ExperimentConfig, F: GeneratorSet, ctx, table, r: int, w: int, n: int):
    """First collision on the constant-1 walk from table row r (field index
    w), and Res(Ψ^(m) - Ψ^(l), Φ_n) mod p: the proof needs p to divide it.

    Ψ is the constant-1 sequence, so Ψ^(m) is the m-fold composite of the
    first generator.  Its walk on the table's first column is a rho: m points,
    the last one's image the point at step l.  The collision Ψ^(m)(w) =
    Ψ^(l)(w), checked here by evaluation, makes w a root mod p of Ψ^(m) -
    Ψ^(l); as w has order n it is also a root of Φ_n mod p.  Φ_n is monic, so
    the resultant mod p is the product of Ψ^(m) - Ψ^(l) over the roots of Φ_n
    mod p, and that is 0.  Collisions past ``diag_degree_cap`` report no residue.
    """
    rec = orbit(lambda v: table[v, :1].tolist(), r)
    m, l = rec.T, rec.levels[int(table[next(reversed(rec.levels)), 0])]
    phi = F.reduced(ctx)[0]
    values = [ctx.from_index(w)]
    while len(values) <= m:
        values.append(phi.eval(values[-1]))
    assert values[m] == values[l], "collision disagrees with evaluation"
    return m, l, n, None if F.polys[0].degree**m > cfg.diag_degree_cap else 0


def run_thm46(cfg: ExperimentConfig) -> ExperimentReport:
    """Orbit size, order, and cover count per start, testing
    T log d + s log tau >= s log(c log p)."""
    F, notes = _system(cfg)
    columns = ("p", "w", "T", "tau", "s_cover", "lhs", "rhs", "exception",
               "coll_m", "coll_l", "ord_n", "res_mod_p")
    rows = []
    zeros = 0
    for p, ctx, ws in _grid(cfg):
        nonzero = [w for w in ws if w]
        zeros += len(ws) - len(nonzero)
        if not nonzero:
            continue  # no rows, and no table to build
        # above the cap each start gets its own table, its orbit, built no
        # further than the orbit cap
        per_start = ctx.q > MAX_GRAPH_SIZE
        for group in [[w] for w in nonzero] if per_start else [nonzero]:
            table, _, start_rows = _tables(F, ctx, group,
                                           cap=cfg.orbit_cap if per_start else MAX_GRAPH_SIZE)
            covers = greedy_sequence_cover(table, start_rows, cfg.orbit_cap)
            taus = mul_orders(ctx, group).tolist()
            for w, r, tau, (T, s_cover) in zip(group, start_rows, taus, covers):
                lhs = theorem46_lhs(F.d, T, tau, s_cover)
                rhs = s_cover * math.log(cfg.c * math.log(p))
                flag = 1 if lhs < rhs else 0
                diag = (None, None, None, None)
                if cfg.diagnostics:
                    diag = _collision_diagnostic(cfg, F, ctx, table, r, w, tau)
                rows.append((p, w, T, tau, s_cover, lhs, rhs, flag) + diag)
    if rows:
        notes["min_margin"] = min(r[5] - r[6] for r in rows)
    return _report(cfg, columns, rows, exceptions=sum(r[7] for r in rows),
                   zeros_skipped=zeros, **notes)


def run_thm61(cfg: ExperimentConfig) -> ExperimentReport:
    """Graph-side count of reachable small-order points against
    max{B^(l+1)/h, B^(l+1)/log log p}, plus the witness-word inequality."""
    F, notes = _system(cfg)
    N = _need(cfg, "N")
    l = _need(cfg, "l")
    if cfg.h is not None:
        h = cfg.h
    elif cfg.h_from_n:
        if F.k < 2 or N < 1:
            raise ConfigError("h_from_n preset needs k >= 2 and N >= 1")
        h = max(1, int((math.log(N) / math.log(F.k)) ** (1.0 / (l + 1))))
    else:
        raise ConfigError("experiment thm61 needs 'h' (or h_from_n)")
    B = b_tree_size(F.k, h)
    columns = ("p", "w", "t", "N", "h", "l", "B", "hypothesis", "count", "bound",
               "ratio", "L_N", "target", "eq61_ratio", "words")
    rows = []
    # words of length <= h from the N-ball read rows up to depth N + h - 1
    for p, ctx, t, ws, table, qual, start_rows in _fields(cfg, F, N + h):
        bound = max(B ** (l + 1) / h, B ** (l + 1) / _loglog_denom(cfg, p))
        counts = count_small_order_points(table, qual, start_rows, N, cfg.include_level_0)
        graph, members = FunctionalGraph(table), np.flatnonzero(qual)
        for w, r, cnt in zip(ws, start_rows, counts):
            res = find_witness_words(graph, r, members, N, h, l, c=cfg.c1)
            hyp = 1 if (res.hypothesis_met and h >= 3 * l) else 0
            eq61 = res.count / res.target if res.target > 0 else None
            rows.append((p, w, t, N, h, l, B, hyp, cnt, bound, cnt / bound, res.count,
                         res.target, eq61, "|".join(_word_str(word) for word in res.words)))
    return _report(cfg, columns, rows, "ratio", hypothesis_met=sum(r[7] for r in rows), **notes)


def _lemma41_cost(degrees: Sequence[int], r_max: int, s_max: int) -> int:
    """Multiplications behind a lemma41 grid, about: phi(r) r (deg F + 1) per
    χ_r, and phi(r) phi(s) (phi(r) + phi(s)) per resultant of those degrees.
    Every index n <= max(r_max, s_max) adds at least phi(n)^2, so phi is taken
    only until that sum passes the cap, and a huge grid counts no further."""
    phi, squares = [], 0
    while len(phi) < max(r_max, s_max) and squares <= LEMMA41_COST_CAP:
        phi.append(euler_phi(len(phi) + 1))
        squares += phi[-1] ** 2
    pr, ps = phi[:r_max], phi[:s_max]
    charpolys = sum(x * r for r, x in enumerate(pr, 1)) * sum(d + 1 for d in degrees)
    pairs = sum(x * x for x in pr) * sum(ps) + sum(pr) * sum(x * x for x in ps)
    return charpolys + len(degrees) * pairs


def run_lemma41(cfg: ExperimentConfig) -> ExperimentReport:
    """log|Res(Phi_r, Phi_s(F))| normalized by r s (h(F) + deg F).

    Each value is the norm Res(Phi_r, Phi_s(F)) = prod Phi_s(F(ζ)) over the
    primitive r-th roots of unity ζ, all from one ``cyclotomic_norms`` pass.
    The largest, whose CRT takes the most primes, is checked against the
    subresultant PRS of χ_r = ``cyclotomic_charpoly(F, r)``, the one χ_r the
    run builds.  Zero resultants are flagged, not folded into the ratio;
    they mark the cyclotomic-preimage coincidences the surrounding theory
    feeds on.
    """
    gens = [parse_poly(text) for text in cfg.generators]
    if cfg.r_max < 1 or cfg.s_max < 1:
        raise ConfigError("lemma41 needs r_max >= 1 and s_max >= 1")
    d = max(f.degree for f in gens)
    if _lemma41_cost([f.degree for f in gens], cfg.r_max, cfg.s_max) > LEMMA41_COST_CAP or any(
        euler_phi(r) * r * (d + 1) > CHARPOLY_COST_CAP for r in range(1, cfg.r_max + 1)
    ):
        raise TooLarge("lemma41 guard: the grid's cost must stay <= %d and phi(r)*r*(deg F + 1)"
                       " <= %d" % (LEMMA41_COST_CAP, CHARPOLY_COST_CAP))
    phis = [cyclotomic(s) for s in range(1, cfg.s_max + 1)]
    values = cyclotomic_norms(gens, phis, cfg.r_max)  # values[k][r - 1][s - 1]
    _, k, r, j = max((abs(v), k, r, j) for k, per_f in enumerate(values)
                     for r, row in enumerate(per_f) for j, v in enumerate(row))
    chi = cyclotomic_charpoly(gens[k], r + 1)
    assert values[k][r][j] == resultant(chi, phis[j]), "split-prime resultant disagrees"
    columns = ("generator", "r", "s", "zero", "log_abs_res", "constant")
    rows = []
    for k, f in enumerate(gens):
        text = format_poly(f)
        denom_base = height(f) + f.degree
        for r in range(1, cfg.r_max + 1):
            for s, value in enumerate(values[k][r - 1], 1):
                if value == 0:
                    rows.append((text, r, s, 1, None, None))
                else:
                    log_res = math.log(abs(value))
                    rows.append((text, r, s, 0, log_res, log_res / (r * s * denom_base)))
    return _report(cfg, columns, rows, "constant", zero_resultants=sum(r[3] for r in rows))


def run_prop21(cfg: ExperimentConfig) -> ExperimentReport:
    """Random compositions versus the explicit height bound; the
    inequality is a theorem and is asserted, with the slack reported."""
    F, _ = _system(cfg)
    if cfg.n_max < 1 or cfg.trials < 0:
        raise ConfigError("prop21 needs n_max >= 1 and trials >= 0")
    if F.d**cfg.n_max > COMPOSITION_DEGREE_CAP:
        raise TooLarge("composition degree guard: d^n_max must stay <= %d"
                       % COMPOSITION_DEGREE_CAP)
    coeff_cap = max(max(abs(c) for c in f.primitive().coeffs) for f in F.polys)
    rng = random.Random(cfg.seed)
    columns = ("trial", "n", "word", "degree", "height", "bound", "ratio")
    rows = []
    for trial in range(cfg.trials):
        n = rng.randint(1, cfg.n_max)
        word = tuple(rng.randint(1, F.k) for _ in range(n))
        comp = F.polys[word[0] - 1]
        for letter in word[1:]:
            comp = F.polys[letter - 1].compose(comp)
        lhs = height(comp)
        bound = composition_height_bound(n, F.d, F.hF)
        # exact integer form of the bound: max |coeff| of the primitive
        # composite is at most coeff_cap^c1 * 8^c2
        c1 = (F.d**n - 1) // (F.d - 1)
        c2 = F.d * F.d * ((F.d ** (n - 1) - 1) // (F.d - 1))
        m_comp = max(abs(c) for c in comp.primitive().coeffs)
        assert m_comp <= coeff_cap**c1 * 8**c2, "height bound violated"
        ratio = lhs / bound if bound > 0 else None
        rows.append((trial, n, _word_str(word), comp.degree, lhs, bound, ratio))
    return _report(cfg, columns, rows, "ratio", violations=0)


EXPERIMENTS: Dict[str, Callable[[ExperimentConfig], ExperimentReport]] = {
    "thm44i": run_thm44i,
    "thm44ii": run_thm44ii,
    "cor45": run_cor45,
    "thm46": run_thm46,
    "thm61": run_thm61,
    "lemma41": run_lemma41,
    "prop21": run_prop21,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return EXPERIMENTS[cfg.experiment](cfg)
