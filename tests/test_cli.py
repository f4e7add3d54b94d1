"""Command-line interface: golden outputs, exit codes, verify plumbing."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import semiorbits
from semiorbits import chebyshev, cyclotomic, parse_poly, resultant
from semiorbits import cli
from semiorbits.cli import COMMANDS, OUT_DIR_ENV, build_parser, main
from semiorbits.verify import ExperimentConfig, ExperimentReport


def _source_env():
    """The environment for a child interpreter that imports the package the
    suite imported."""
    pythonpath = [str(Path(semiorbits.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- golden outputs ------------------------------------------------------------


def test_order_golden(capsys):
    assert _run(capsys, "order", "7", "1", "3") == (0, "6\n", "")
    assert _run(capsys, "order", "7", "1", "1") == (0, "1\n", "")


def test_order_of_zero(capsys):
    code, out, err = _run(capsys, "order", "7", "1", "0")
    assert code == 3
    assert out == ""
    assert err.strip() == "zero has no multiplicative order"


def test_cyclotomic_golden(capsys):
    assert _run(capsys, "cyclotomic", "1") == (0, "X - 1\n", "")
    assert _run(capsys, "cyclotomic", "12") == (0, "X^4 - X^2 + 1\n", "")
    code, _, err = _run(capsys, "cyclotomic", "0")
    assert code == 3
    assert err != ""


def _read_decimal(text):
    """The integer a decimal text of any length names, read 1,000 digits at a
    time, each chunk within the interpreter's int/str digit limit."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def test_resultant_golden(capsys):
    assert _run(capsys, "resultant", "X - 1", "X + 1") == (0, "2\n", "")
    assert _run(capsys, "resultant", "X^2 + 1", "X^2 - 1") == (0, "4\n", "")
    # a value past str(int)'s 4,300 digits is printed in full
    f, g = "X^600 + 99999999999X + 7", "X^599 + 9999999999"
    code, out, err = _run(capsys, "resultant", f, g)
    assert (code, err) == (0, "")
    assert len(out) > 4300 and _read_decimal(out.strip()) == resultant(parse_poly(f), parse_poly(g))


def test_resultant_parse_error(capsys):
    code, out, err = _run(capsys, "resultant", "X +", "X")
    assert code == 2
    assert "at position 3" in err
    # a literal past the int/str digit limit is a parse error at its offset;
    # an exponent above MAX_DEGREE is a resource guard (exit 4)
    code, out, err = _run(capsys, "special", "X^" + "9" * 5000)
    assert (code, out) == (2, "")
    assert err.strip() == "integer literal too long at position 2"
    code, out, err = _run(capsys, "special", "X^100001 + 1")
    assert (code, out) == (4, "")
    assert "degree cap 100000" in err


def test_orbit_golden(capsys):
    code, out, err = _run(capsys, "orbit", "7", "1", "X^2", "3")
    assert code == 0
    assert out == "T=3\n0 3\n1 2\n2 4\n"
    code, out, _ = _run(capsys, "orbit", "7", "1", "X^2", "1")
    assert code == 0
    assert out == "T=1\n0 1\n"


def test_orbit_json(capsys):
    code, out, _ = _run(capsys, "orbit", "7", "1", "--json", "X^2", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["start"] == 3
    assert doc["T"] == 3
    assert doc["truncated"] is False
    assert doc["levels"] == [
        {"element": 3, "level": 0},
        {"element": 2, "level": 1},
        {"element": 4, "level": 2},
    ]


def test_orbit_truncation_flag(capsys):
    code, out, _ = _run(capsys, "orbit", "5", "1", "--cap", "2", "X^2", "X^2 + 1", "0")
    assert code == 0
    assert out.splitlines()[0] == "T=2"
    assert "truncated" in out


def test_orbit_degenerate_generator(capsys):
    code, _, err = _run(capsys, "orbit", "5", "1", "5X^2 + X + 1", "0")
    assert code == 3
    assert "degenerate generator" in err


def test_orbit_needs_start(capsys):
    code, _, err = _run(capsys, "orbit", "7", "1", "X^2")
    assert code == 2
    assert "start point" in err


def test_btree_golden(capsys):
    assert _run(capsys, "btree", "2", "3") == (0, "7\n", "")
    # B(10, 5000) = (10^5000 - 1) / 9 has 5,000 digits, past str(int)'s 4,300
    assert _run(capsys, "btree", "10", "5000") == (0, "1" * 5000 + "\n", "")


def test_gap_golden(capsys):
    code, out, _ = _run(capsys, "gap", "20", "0", "2", "4", "6", "8")
    assert code == 0
    assert out == "r=2 count=4\n"
    code, out, _ = _run(capsys, "gap", "--json", "20", "0", "2", "4", "6", "8")
    assert json.loads(out) == {"r": 2, "count": 4, "T": 5, "N": 20}


def test_gap_hypothesis_violated(capsys):
    code, _, err = _run(capsys, "gap", "8", "0", "2", "4", "6", "8")
    assert code == 3
    assert "T=5" in err


def test_special_golden(capsys):
    assert _run(capsys, "special", "X^2 - 2") == (0, "chebyshev_conjugate\n", "")
    assert _run(capsys, "special", "X^2 + 1") == (0, "non_special\n", "")


def test_special_json(capsys):
    code, out, _ = _run(capsys, "special", "--json", "X^2 - 2")
    doc = json.loads(out)
    assert doc["kind"] == "chebyshev_conjugate"
    assert doc["normal_form"] == "X^2 - 2"
    assert doc["witness"] == ["1", "0"]
    code, out, _ = _run(capsys, "special", "--json", "X^2 + 1")
    assert json.loads(out) == {"kind": "non_special"}


def test_gamma_golden(capsys):
    assert _run(capsys, "gamma", "7", "1", "3") == (0, "1 2 4 6\n", "")
    code, out, _ = _run(capsys, "gamma", "--json", "7", "1", "3")
    assert json.loads(out) == [1, 2, 4, 6]


def test_round_trip_printed_polynomials(capsys):
    for n in (1, 2, 12, 30, 105):
        _, out, _ = _run(capsys, "cyclotomic", str(n))
        assert parse_poly(out.strip()) == cyclotomic(n)
    _, out, _ = _run(capsys, "special", "--json", "9X^3 + 9X^2 - 1")
    assert parse_poly(json.loads(out)["normal_form"]) == chebyshev(3)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["order", "7"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    for flag, value in (("--primes", "11,x"), ("--starts", "1,y"), ("--stream", "{")):
        code, _, err = _run(capsys, "verify", "thm44i", "--generators", "X^2 + 1", flag, value)
        assert code == 2
        assert "argument %s" % flag in err
    for start in ("abc", "3.5"):
        code, out, err = _run(capsys, "orbit", "7", "1", "X^2", start)
        assert (code, out) == (2, "")
        assert err == "orbit start point must be an integer, got %r\n" % start
    # a config path that names a directory is unreadable, not a crash
    code, out, err = _run(capsys, "verify", "thm44i", str(tmp_path))
    assert (code, out) == (2, "")
    assert "Is a directory" in err
    # a report path in a missing directory is named as given, not as its temporary file
    out_path = tmp_path / "nodir" / "r.csv"
    code, out, err = _run(capsys, "verify", "thm44i", "--generators", "X^2 + 1", "--primes", "11",
                          "--t", "2", "--N", "3", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert str(out_path) in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def _full_parser_run(capsys, argv):
    """Exit code, stdout and stderr of the full parser on an argv it refuses
    or answers with help."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return int(exc.value.code or 0), out, err


@pytest.mark.parametrize("argv", [
    ["-h"], [], ["nonsense"], ["-h", "verify"],
    *([name, "-h"] for name in COMMANDS),
    ["verify", "thm44i", "cfg", "extra"],
    ["verify", "thm44i", "--primes", "11,x"],
    ["order", "7", "1", "3", "--json"],
    ["gamma", "7"],
], ids=lambda argv: " ".join(argv) or "no-argv")
def test_help_usage_and_errors_are_the_full_parsers(capsys, argv):
    assert _run(capsys, *argv) == _full_parser_run(capsys, argv)


def test_a_subcommand_builds_only_its_own_parser(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(THM44I_CFG))
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    cli._parser.cache_clear()
    try:
        args = ("verify", "thm44i", str(cfg), "--out", str(tmp_path / "r.csv"))
        code, out, _ = _run(capsys, *args, "--json")
        assert code == 0 and json.loads(out)["summary"]["rows"] == 1
        # the cached parser keeps no value of the last call: no --json now
        code, out, _ = _run(capsys, *args)
        assert code == 0 and out.startswith("experiment=thm44i rows=1 ")
        assert built == ["verify"]
    finally:
        cli._parser.cache_clear()


# -- verify plumbing -----------------------------------------------------------


THM44I_CFG = {
    "generators": ["X^2 + 1"],
    "primes": [11],
    "starts": [3],
    "t": 2,
    "N": 6,
}


def test_verify_unknown_id(capsys):
    code, _, err = _run(capsys, "verify", "thm99")
    assert code == 2
    assert "valid ids" in err
    assert "thm44i" in err and "prop21" in err


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(THM44I_CFG))
    out_path = tmp_path / "r.csv"
    code, out, err = _run(
        capsys, "verify", "thm44i", str(cfg), "--out", str(out_path)
    )
    assert code == 0, err
    assert "experiment=thm44i" in out
    assert "out=%s" % out_path in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "p,s,w,t,N,M,bound,ratio,word"
    assert lines[1].startswith("11,1,3,2,6,1,")
    assert lines[1].endswith("1-1-1-1-1-1")


def test_verify_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(THM44I_CFG))
    out_path = tmp_path / "r.json"
    code, _, _ = _run(
        capsys, "verify", "thm44i", str(cfg), "--t", "3", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"]["t"] == 3
    assert doc["rows"][0][3] == 3  # t column reflects the override
    assert doc["header"]["created"]


def test_verify_zero_valued_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(THM44I_CFG, seed=5, c1=1.5, sample=2)))
    out_path = tmp_path / "r.json"
    args = ("--seed", "0", "--c1", "0", "--sample", "0", "--out", str(out_path))
    assert _run(capsys, "verify", "thm44i", str(cfg), *args)[0] == 0
    config = json.loads(out_path.read_text())["config"]
    assert (config["seed"], config["c1"], config["sample"]) == (0, 0.0, 0)


def test_verify_options_store_into_config_fields():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    options = [a for a in sub.choices["verify"]._actions
               if a.option_strings and a.dest not in ("help", "out", "json")]
    assert len(options) == 26
    for action in options:
        assert action.dest in names, action.option_strings


def test_verify_config_not_an_object_exit_4(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, out, err = _run(capsys, "verify", "thm44i", str(cfg), "--out", str(tmp_path / "r.csv"))
    assert (code, out) == (4, "")
    assert "JSON object" in err
    cfg.write_text(json.dumps(dict(THM44I_CFG, t="4")))
    code, _, err = _run(capsys, "verify", "thm44i", str(cfg), "--out", str(tmp_path / "r.csv"))
    assert code == 4 and "'t'" in err
    assert not (tmp_path / "r.csv").exists()


def test_verify_failed_write_keeps_the_old_report(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(THM44I_CFG))
    out_path = tmp_path / "r.csv"
    assert _run(capsys, "verify", "thm44i", str(cfg), "--out", str(out_path))[0] == 0
    before = out_path.read_text()
    # the write fails after the output file is opened: to_csv returns no str
    monkeypatch.setattr(ExperimentReport, "to_csv", lambda self: object())
    with pytest.raises(TypeError):
        main(["verify", "thm44i", str(cfg), "--out", str(out_path)])
    assert out_path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "r.csv"]


def test_verify_flags_only(tmp_path, capsys):
    out_path = tmp_path / "p.csv"
    code, out, err = _run(
        capsys,
        "verify",
        "prop21",
        "--generators",
        "2X^2 + 1",
        "--n-max",
        "2",
        "--trials",
        "5",
        "--out",
        str(out_path),
    )
    assert code == 0, err
    assert out_path.read_text().splitlines()[0] == "trial,n,word,degree,height,bound,ratio"


def test_verify_out_dir_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(THM44I_CFG))
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    code, out, _ = _run(capsys, "verify", "thm44i", str(cfg))
    assert code == 0
    assert (tmp_path / "thm44i.csv").exists()


def test_verify_json_summary(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(THM44I_CFG))
    out_path = tmp_path / "r.csv"
    code, out, _ = _run(
        capsys, "verify", "thm44i", str(cfg), "--json", "--out", str(out_path)
    )
    doc = json.loads(out)
    assert doc["out"] == str(out_path)
    assert doc["summary"]["rows"] == 1


def test_verify_json_line_on_a_lemma41_grid(tmp_path, capsys):
    # the summary's floats are printed rounded to 12 significant digits
    out_path = tmp_path / "r.csv"
    code, out, _ = _run(capsys, "verify", "lemma41", "--generators", "X^2 + 3*X + 5, 2X^3 - X + 7",
                        "--r-max", "4", "--s-max", "6", "--json", "--out", str(out_path))
    assert code == 0
    assert out == ('{"out": %s, "summary": {"max": 0.576112290093, "n": 48, '
                   '"p95": 0.416580052624, "rows": 48, "zero_resultants": 0}}\n'
                   % json.dumps(str(out_path)))


def test_verify_guard_violation_exit_4(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "verify",
        "prop21",
        "--generators",
        "X^3",
        "--n-max",
        "6",
        "--trials",
        "1",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 4
    assert "guard" in err


def test_verify_lemma41_grid_budget_exit_4(tmp_path, capsys):
    code, _, err = _run(capsys, "verify", "lemma41", "--generators", "X^2 + 3*X + 5",
                        "--r-max", "100", "--s-max", "100", "--out", str(tmp_path / "x.csv"))
    assert code == 4
    assert "guard" in err and not (tmp_path / "x.csv").exists()


def test_verify_low_degree_generator_exit_4_at_load(tmp_path, capsys):
    # refused when the config loads, before any field or table is built:
    # degree < 2 everywhere but lemma41, which takes degree >= 1
    out = str(tmp_path / "x.csv")
    for exp in sorted(semiorbits.EXPERIMENTS):
        low = "7" if exp == "lemma41" else "3X + 1"
        code, _, err = _run(capsys, "verify", exp, "--generators", "X^2 + 1, " + low,
                            "--out", out)
        assert code == 4, (exp, err)
        assert "degree >= %d" % (1 if exp == "lemma41" else 2) in err and low in err
        assert not os.path.exists(out)
    code, _, err = _run(capsys, "verify", "lemma41", "--generators", "3X + 1",
                        "--r-max", "2", "--s-max", "2", "--out", out)
    assert code == 0, err
    code, _, err = _run(capsys, "verify", "thm44i", "--generators", "X^2 + + 1", "--out", out)
    assert code == 2 and "position" in err


def test_verify_stream_letters_past_the_generators_exit_4_at_load(tmp_path, capsys):
    out = tmp_path / "x.csv"
    base = ["verify", "thm44ii", "--generators", "X^2 + 1,X^3 + 2", "--prime-max", "30",
            "--t", "2", "--N", "8", "--out", str(out), "--stream"]
    for stream in ('{"kind": "periodic", "period": [3]}',
                   '{"kind": "periodic", "period": [1], "preperiod": [0]}',
                   '{"kind": "random", "k": 3, "seed": 1}'):
        code, _, err = _run(capsys, *base, stream)
        assert code == 4, err
        assert "stream letters" in err and "[1, 2]" in err
        assert not out.exists()
    for stream in ('{"kind": "periodic", "period": [2, 1]}', '{"kind": "random", "k": 2}'):
        code, _, err = _run(capsys, *base, stream)
        assert code == 0, err


def test_verify_starts_guard_exit_4(tmp_path, capsys, monkeypatch):
    # without 'starts', every point of a field is a start, up to the cap; past
    # it the grid is refused before any field is built
    monkeypatch.setattr(semiorbits.verify, "MAX_GRAPH_SIZE", 8)
    out = tmp_path / "x.csv"
    base = ["verify", "cor45", "--generators", "X^2 + 1", "--t", "2", "--N", "3",
            "--out", str(out)]
    for extra in (["--primes", "7"], ["--primes", "11", "--sample", "8"],
                  ["--primes", "11", "--starts", "1,2,3"]):
        code, _, err = _run(capsys, *base, *extra)
        assert code == 0, err
    out.unlink()
    monkeypatch.setattr(semiorbits.verify, "make_prime_field", None)  # never called
    for extra in (["--primes", "11"], ["--primes", "5,11"], ["--primes", "11", "--sample", "9"]):
        code, _, err = _run(capsys, *base, *extra)
        assert code == 4, err
        assert "starts guard" in err and not out.exists()


def test_verify_starts_guard_fires_before_the_prime_range_is_scanned(tmp_path):
    # the guard reads only the range's largest prime, found by a downward scan;
    # testing every integer up to 3 * 10^8 would run for minutes
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "semiorbits.cli", "verify", "cor45", "--generators", "X^2 + 1",
         "--prime-max", "300000000", "--t", "2", "--N", "3", "--out", str(out)],
        capture_output=True, text=True, env=_source_env(), timeout=5)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("starts guard: 299999977 starts in one field")
    assert not out.exists()


def test_verify_thm61_field_without_starts_writes_no_rows(tmp_path, capsys):
    # no starts give an empty reach table, which is no graph: no search runs
    out = tmp_path / "x.csv"
    code, stdout, err = _run(capsys, "verify", "thm61", "--generators", "X^2 + 1, X^3 + 2",
                             "--primes", "2", "--field-degree", "8", "--sample", "0",
                             "--t", "4", "--N", "3", "--h", "2", "--l", "1", "--out", str(out))
    assert code == 0, err
    assert "rows=0" in stdout
    assert out.read_text().splitlines() == [
        "p,w,t,N,h,l,B,hypothesis,count,bound,ratio,L_N,target,eq61_ratio,words"]


def test_verify_special_precondition_exit_3(tmp_path, capsys):
    argv = [
        "verify",
        "thm44i",
        "--generators",
        "X^2",
        "--primes",
        "7",
        "--t",
        "2",
        "--N",
        "3",
        "--out",
        str(tmp_path / "x.csv"),
    ]
    code, _, err = _run(capsys, *argv)
    assert code == 3
    assert "allow_special" in err
    code, _, err = _run(capsys, *(argv + ["--allow-special"]))
    assert code == 0, err


def test_verify_thm44ii_degree_drop_in_a_table_run_exit_3(tmp_path, capsys):
    # every field up to 30 walks in one table run; 5X^2 + 1 is 1 mod 5, and
    # the run's build stops at that field before any walk or write
    out = tmp_path / "x.csv"
    code, _, err = _run(capsys, "verify", "thm44ii", "--generators", "5X^2 + 1, X^3 + 2",
                        "--prime-max", "30", "--t", "2", "--N", "5",
                        "--stream", '{"kind": "periodic", "period": [1, 2]}',
                        "--out", str(out))
    assert code == 3, err
    assert "degenerate generator: degree < 2 after reduction mod 5" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_unmet_c1_exit_3(tmp_path, capsys):
    # the witness search checks L_N >= c1 * target where the lemma's
    # hypothesis holds; a c1 this instance does not meet stops the run
    out = tmp_path / "x.csv"
    code, _, err = _run(capsys, "verify", "thm61", "--generators", "X^2 + 1, X^3 + 2",
                        "--primes", "101", "--t", "100", "--N", "6", "--h", "3", "--l", "1",
                        "--c1", "1e308", "--out", str(out))
    assert code == 3, err
    assert "c1" in err and "witness count" in err and "target" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_thm46_truncated_inside_one_cover_call_exit_3(tmp_path, capsys):
    # one cover call serves both starts of the table: start 1 (T = 1) is
    # covered, then start 3's orbit (T = 60) passes the cap of 2
    out = tmp_path / "x.csv"
    code, _, err = _run(capsys, "verify", "thm46", "--generators", "X^2, X^3",
                        "--primes", "101", "--starts", "1,3", "--orbit-cap", "2",
                        "--out", str(out))
    assert code == 3, err
    assert "cap" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_bad_config_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{oops")
    code, _, err = _run(capsys, "verify", "thm44i", str(cfg))
    assert code == 2
    assert "bad JSON" in err
    # json.load refuses an integer past the int/str digit limit with a plain
    # ValueError, not a JSONDecodeError
    cfg.write_text('{"experiment": "thm44i", "seed": %s}' % ("1" * 4401))
    code, out, err = _run(capsys, "verify", "thm44i", str(cfg))
    assert (code, out) == (2, "")
    assert "bad JSON" in err


def test_verify_missing_config_file(tmp_path, capsys):
    code, _, err = _run(capsys, "verify", "thm44i", str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_unknown_config_field_exit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(THM44I_CFG, wrong_key=1)))
    code, _, err = _run(capsys, "verify", "thm44i", str(cfg))
    assert code == 4
    assert "wrong_key" in err
    base = ["--generators", "X^2 + 1", "--t", "2", "--out", str(tmp_path / "x.csv")]
    for argv in (
        ["cor45", "--primes", "11", "--N", "0"],
        ["thm44ii", "--prime-max", "20", "--N", "5", "--stream", '{"kind": "random"}'],
    ):
        code, _, err = _run(capsys, "verify", *argv, *base)
        assert code == 4, err
    # out-of-range values exit 4 at load, and the message names the field
    thm44ii = ["thm44ii", "--prime-max", "20", "--N", "5", "--stream"]
    thm61 = ["thm61", "--primes", "11", "--N", "3"]
    for argv, name in (
        (thm44ii + ['{"kind": "nope"}'], "kind"),
        (thm44ii + ['{"kind": "periodic", "period": []}'], "period"),
        (thm44ii + ['{"kind": "random", "k": 0}'], "k"),
        (thm44ii + ['{"kind": "periodic", "period": [1], "offset": -1}'], "offset"),
        (thm61 + ["--h", "0", "--l", "1"], "h"),
        (thm61 + ["--h", "3", "--l", "0"], "l"),
        (thm61 + ["--h", "3", "--l", "1", "--N", "-1"], "N"),
        (thm44ii + ['{"kind": "periodic", "period": [1]}', "--C", "0"], "C"),
        (["thm46", "--primes", "11", "--orbit-cap", "0"], "orbit_cap"),
        # the flags parse inf and nan, which would reach the report body
        (thm44ii + ['{"kind": "periodic", "period": [1]}', "--C", "inf"], "C"),
        (["thm46", "--primes", "11", "--c", "inf"], "c"),
        (thm61 + ["--h", "3", "--l", "1", "--c1", "nan"], "c1"),
        (thm61 + ["--h", "3", "--l", "1", "--c1", "inf"], "c1"),
        (["cor45", "--primes", "11", "--N", "3", "--t-exponent", "nan"], "t_exponent"),
    ):
        code, _, err = _run(capsys, "verify", *argv, *base)
        assert code == 4, err
        assert "'%s'" % name in err or err.startswith(name + " "), err
    # and a JSON config reads NaN and Infinity, for loglog_floor too (no flag)
    cfg = tmp_path / "cfg.json"
    for bad in (math.nan, math.inf):
        cfg.write_text(json.dumps(dict(experiment="cor45", generators=["X^2 + 1"], primes=[2, 3],
                                       t=1, N=2, loglog_floor=bad)))
        code, _, err = _run(capsys, "verify", "cor45", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 4, err
        assert err.startswith("loglog_floor must be finite"), err
    assert not (tmp_path / "x.csv").exists()


def _check_console_script(exe, env=None):
    """Run the ``semiorbits`` command at ``exe``; its exit status is ``main``'s return value."""
    proc = subprocess.run([exe, "btree", "2", "3"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7\n"
    proc = subprocess.run([exe, "order", "7", "1", "0"], capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.strip() == "zero has no multiplicative order"


def test_console_script_installed(tmp_path):
    installed = shutil.which("semiorbits")
    if installed:
        _check_console_script(installed)

    # From a source checkout: write the launcher an installer writes for the
    # declared entry point, and run it against the package the suite imported.
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["semiorbits"]
    module, func = entry.split(":")
    launcher = tmp_path / "semiorbits"
    launcher.write_text(
        "#!%s\nimport sys\nfrom %s import %s\nsys.exit(%s())\n"
        % (sys.executable, module, func, func)
    )
    launcher.chmod(0o755)
    _check_console_script(str(launcher), _source_env())
