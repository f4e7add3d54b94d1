"""Command-line front end.

Exit codes: 0 success, 2 usage or parse error, 3 mathematical precondition
violation, 4 resource guard.  All subcommands are deterministic given argv
plus config (pseudorandom seeds live in the config and are echoed back).

The `verify` subcommand reads a JSON config file (ExperimentConfig schema);
explicit flags override file values.  Reports land in --out, or in
$SEMIORBITS_OUT_DIR (default: current directory) named <experiment>.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional

from .combinatorics import b_tree_size, find_common_gap
from .errors import SemiorbitsError, TooLarge
from .ff import _maximal_divisors, make_extension_field, mul_order, small_order_set
from .intpoly import cyclotomic, format_poly, is_special, parse_poly, resultant
from .orbits import DEFAULT_ORBIT_CAP, MAX_GRAPH_SIZE, GeneratorSet, evaluated_successors, orbit
from .verify import EXPERIMENTS, ExperimentConfig, _canon, run_experiment

OUT_DIR_ENV = "SEMIORBITS_OUT_DIR"


def cmd_order(args) -> int:
    ctx = make_extension_field(args.p, args.s)
    print(mul_order(ctx.from_index(args.element % ctx.q)))
    return 0


def cmd_cyclotomic(args) -> int:
    print(format_poly(cyclotomic(args.n)))
    return 0


def cmd_resultant(args) -> int:
    print(Decimal(resultant(parse_poly(args.f), parse_poly(args.g))))  # str(int) stops at 4,300 digits
    return 0


def cmd_orbit(args) -> int:
    if len(args.rest) < 2:
        print("orbit needs generators followed by a start point", file=sys.stderr)
        return 2
    try:
        x = int(args.rest[-1])
    except ValueError:
        print("orbit start point must be an integer, got %r" % args.rest[-1], file=sys.stderr)
        return 2
    gens = [parse_poly(text) for text in args.rest[:-1]]
    ctx = make_extension_field(args.p, args.s)
    x %= ctx.q
    rec = orbit(evaluated_successors(GeneratorSet(gens), ctx), x, args.cap)
    if args.json:
        print(
            json.dumps(
                {
                    "start": x,
                    "T": rec.T,
                    "truncated": rec.truncated,
                    "levels": [
                        {"element": v, "level": lvl} for v, lvl in rec.levels.items()
                    ],
                },
                sort_keys=True,
            )
        )
        return 0
    print("T=%d" % rec.T)
    if rec.truncated:
        print("truncated")
    for v, lvl in rec.levels.items():
        print("%d %d" % (lvl, v))
    return 0


def cmd_btree(args) -> int:
    print(Decimal(b_tree_size(args.k, args.h)))  # str(int) stops at 4,300 digits
    return 0


def cmd_gap(args) -> int:
    rep = find_common_gap(args.indices, args.N)
    if args.json:
        print(
            json.dumps(
                {"r": rep.r, "count": rep.count, "T": rep.T, "N": rep.N},
                sort_keys=True,
            )
        )
    else:
        print("r=%d count=%d" % (rep.r, rep.count))
    return 0


def cmd_special(args) -> int:
    cls = is_special(parse_poly(args.f))
    if args.json:
        doc = {"kind": cls.kind}
        if cls.witness is not None:
            doc["witness"] = [str(Fraction(a)) for a in cls.witness]
        if cls.normal_form is not None:
            doc["normal_form"] = format_poly(cls.normal_form)
        print(json.dumps(doc, sort_keys=True))
    else:
        print(cls.kind)
    return 0


def cmd_gamma(args) -> int:
    ctx = make_extension_field(args.p, args.s)
    if sum(_maximal_divisors(ctx.group_order_factorization(), args.t)) > MAX_GRAPH_SIZE:
        raise TooLarge("gamma guard: t = %d lists more than %d roots" % (args.t, MAX_GRAPH_SIZE))
    members = small_order_set(ctx, args.t).tolist()
    print(json.dumps(members) if args.json else " ".join(map(str, members)))
    return 0


def int_list(text: str):
    return tuple(int(part) for part in text.replace(",", " ").split())


def poly_list(text: str):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def cmd_verify(args) -> int:
    if args.experiment not in EXPERIMENTS:
        print(
            "unknown experiment %r; valid ids: %s"
            % (args.experiment, ", ".join(sorted(EXPERIMENTS))),
            file=sys.stderr,
        )
        return 2
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed, or an integer past the digit limit
                print("bad JSON: %s" % exc, file=sys.stderr)
                return 2
    if isinstance(data, dict):  # from_dict rejects anything else
        names = {f.name for f in fields(ExperimentConfig)}
        data.update((key, value) for key, value in vars(args).items()
                    if key in names and value is not None and value is not False)
    cfg = ExperimentConfig.from_dict(data)
    report = run_experiment(cfg)
    out = args.out
    if out is None:
        out_dir = os.environ.get(OUT_DIR_ENV, ".")
        out = os.path.join(out_dir, "%s.csv" % cfg.experiment)
    text = report.to_json() if out.endswith(".json") else report.to_csv()
    tmp = "%s.%d.tmp" % (out, os.getpid())  # moved into place once fully written
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except OSError as exc:  # name the requested path, not the temporary one
        raise OSError(exc.errno, exc.strerror, out) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    if args.json:
        print(json.dumps({"out": out, "summary": _canon(report.summary)}, sort_keys=True))
    else:
        print("%s out=%s" % (report.summary_line(), out))
    return 0


def _order_args(sp):
    sp.add_argument("p", type=int)
    sp.add_argument("s", type=int)
    sp.add_argument("element", type=int, help="element index in [0, p^s)")


def _cyclotomic_args(sp):
    sp.add_argument("n", type=int)


def _resultant_args(sp):
    sp.add_argument("f")
    sp.add_argument("g")


def _orbit_args(sp):
    sp.add_argument("p", type=int)
    sp.add_argument("s", type=int)
    sp.add_argument("rest", nargs="+", metavar="poly... x",
                    help="generator polynomials, then the start index")
    sp.add_argument("--cap", type=int, default=DEFAULT_ORBIT_CAP)
    sp.add_argument("--json", action="store_true")


def _btree_args(sp):
    sp.add_argument("k", type=int)
    sp.add_argument("h", type=int)


def _gap_args(sp):
    sp.add_argument("N", type=int)
    sp.add_argument("indices", type=int, nargs="+")
    sp.add_argument("--json", action="store_true")


def _special_args(sp):
    sp.add_argument("f")
    sp.add_argument("--json", action="store_true")


def _gamma_args(sp):
    sp.add_argument("p", type=int)
    sp.add_argument("s", type=int)
    sp.add_argument("t", type=int)
    sp.add_argument("--json", action="store_true")


def _verify_args(sp):
    sp.add_argument("experiment")
    sp.add_argument("config", nargs="?", help="JSON config file")
    sp.add_argument("--out", help="report path (.csv or .json)")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--generators", type=poly_list, help="comma-separated polynomial texts")
    sp.add_argument("--field-degree", type=int, dest="s", metavar="FIELD_DEGREE",
                    help="extension degree s")
    sp.add_argument("--primes", type=int_list, help="comma-separated primes")
    sp.add_argument("--prime-min", type=int)
    sp.add_argument("--prime-max", type=int)
    sp.add_argument("--starts", type=int_list, help="comma-separated start indices")
    sp.add_argument("--sample", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--t-exponent", type=float)
    sp.add_argument("--N", type=int)
    sp.add_argument("--h", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--C", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--c1", type=float)
    sp.add_argument("--r-max", type=int)
    sp.add_argument("--s-max", type=int)
    sp.add_argument("--n-max", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--orbit-cap", type=int)
    sp.add_argument("--stream", type=json.loads, help="stream description as JSON text")
    sp.add_argument("--include-level-0", action="store_true")
    sp.add_argument("--allow-special", action="store_true")
    sp.add_argument("--diagnostics", action="store_true")
    sp.add_argument("--h-from-n", action="store_true")


# subcommand -> (help, argument adder, handler), in the order help lists them
COMMANDS = {
    "order": ("multiplicative order of an element of F_{p^s}", _order_args, cmd_order),
    "cyclotomic": ("print the n-th cyclotomic polynomial", _cyclotomic_args, cmd_cyclotomic),
    "resultant": ("resultant of two integer polynomials", _resultant_args, cmd_resultant),
    "orbit": ("BFS orbit of a point under a system", _orbit_args, cmd_orbit),
    "btree": ("complete k-ary tree size B(k,h)", _btree_args, cmd_btree),
    "gap": ("most frequent small gap among visit times", _gap_args, cmd_gap),
    "special": ("classify a polynomial up to linear conjugacy", _special_args, cmd_special),
    "gamma": ("elements of order at most t in F_{p^s}*", _gamma_args, cmd_gamma),
    "verify": ("run an experiment harness", _verify_args, cmd_verify),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """A new parser for every subcommand, or for ``command`` alone.  A parser
    for one subcommand parses that subcommand's argv as the full one does,
    but lists only it in the top-level usage."""
    parser = argparse.ArgumentParser(
        prog="semiorbits",
        description="Exact semigroup-orbit statistics over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command is not None else COMMANDS:
        help_text, add_arguments, handler = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        add_arguments(sp)
        sp.set_defaults(func=handler)
    return parser


_parser = lru_cache(maxsize=None)(build_parser)  # one parser per command, built on first use


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """Parse argv with the parser of the subcommand argv names.  Anything
    that parser would answer with top-level usage text (no subcommand, an
    unknown one, a top-level option, left-over arguments) is parsed again by
    the full parser, so every help, usage and error text is the full one's."""
    if argv and argv[0] in COMMANDS:
        args, extras = _parser(argv[0]).parse_known_args(argv)
        if not extras:
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SemiorbitsError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
