"""Seeded argv fuzzer for the CLI exit contract.

Every invocation ends in exit 0 with an artifact free of nan, exit 2 (a usage
error) or exit 3 with a JSON error record.  The cases start from one valid
small-N argv per subcommand and replace one flag value at a time, taking the
flags from the parser's own actions.  They run in process: the bounds keep
every accepted size small.  Each bounded flag's edges, as its converter holds
them, are checked at parse level (a run at hi could take minutes): lo - 1, lo,
hi and hi + 1 of a closed bound, and lo, the floats just inside, and hi of an
open one.
"""

import json
import math
import random
import time

import pytest

from noisefield.cli import build_parser, main

BASE = {
    "sample-path": "--measure lebesgue:0,1 --A 0,0.5 --N 200 --J 8",
    "covariance": "--measure lebesgue:0,1 --A 0,0.5 --B 0.25,1 --N 200 --J 8",
    "ito-isometry": "--measure lebesgue:0,1 --poly 1,1 --N 200 --J 8",
    "sigma-inner": "--f1 1 --mu1 lebesgue:0,1 --f2 1,1 --mu2 lebesgue:0,1",
    "equivalence": "--f1 1 --mu1 lebesgue:0,1 --f2 1 --mu2 lebesgue:0,1",
    "ifs-moments": "--ifs cantor --degree 4",
    "cuntz-check": "--ifs cantor --depth 3",
    "bernoulli-density": "--lambda 0.4 --h 0.05 --T 50 --N 200",
    "bernoulli-scaling": "--lambda 0.4 --h 0.05 --weights 0.5 --N 200",
    "ac2-proxy": "--lambda 0.6 --T-values 10",
    "boundary-embed": "--kernel brownian --points 4 --J 16",
    "szego-check": "--nodes 64",
    "julia-kernel": "--points 0;0.1 --factors 8",
    "set-kernel": "--measure lebesgue:0,1 --sets 0,0.5|0.25,1",
    "fourier-isometry": "--measure lebesgue:0,1 --sets 0,0.5|0.25,1 --coeffs 1,1 --N 200 --J 8",
    "fbm-variance": "--hurst 0.5 --times 1",
}
VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "", str(2**64), "0.5,0.5", "1,nan", "x:y",
          "cyl:", "cyl:9", "{", "{}", '{"kind":"sum-of-two","parts":[]}']
SKIP = {"--out"}  # the case reads its artifact from there


def _actions(command):
    return next(a for a in build_parser()._actions if a.dest == "command").choices[command]._actions


def _flags(command):
    flags = [a.option_strings[-1] for a in _actions(command) if a.option_strings and a.nargs != 0]
    return [f for f in flags if f not in SKIP]


def _argv(command, flag, value):
    """The base case of ``command`` with ``flag`` set to ``value``."""
    argv = [command, *BASE[command].split()]
    if flag in argv:
        i = argv.index(flag)
        del argv[i : i + 2]
    return argv + [f"{flag}={value}"]


def _cases(seed=19):
    cases = []
    for command, base in BASE.items():
        assert set(_flags(command)) >= {tok for tok in base.split() if tok.startswith("--")}
        for flag in _flags(command):
            cases.extend(_argv(command, flag, value) for value in VALUES)
    random.Random(seed).shuffle(cases)
    return cases


def _edges(command):
    """(action, value, admitted) at the edges of each finite bound.

    A closed bound admits lo and hi and refuses lo - 1 and hi + 1; an open one
    refuses lo and hi and admits the floats just inside them.
    """
    for action in _actions(command):
        lo, hi = getattr(action.type, "lo", -math.inf), getattr(action.type, "hi", math.inf)
        if getattr(action.type, "exclusive", False):
            edges = ((lo, False), (math.nextafter(lo, hi), True), (math.nextafter(hi, lo), True),
                     (hi, False))
        else:
            edges = ((lo - 1, False), (lo, True), (hi, True), (hi + 1, False))
        for value, admitted in edges:
            if math.isfinite(value):
                yield action, value, admitted


def _run(argv, out, capsys):
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback: exit 1 from the command line
        code = f"1 ({exc!r})"
    return code, capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow from the 1e308 and 2^64 values
def test_every_case_keeps_the_exit_contract(tmp_path, capsys):
    start = time.perf_counter()
    cases = _cases()
    assert {c[-1].split("=")[0] for c in cases} >= {"--nodes", "--points", "--factors", "--seed"}
    broken = []
    for k, argv in enumerate(cases):
        out = tmp_path / f"case{k}.csv"
        code, err = _run(argv, out, capsys)
        if code == 3:
            record = json.loads(err.strip().splitlines()[-1])
            ok = set(record["error"]) >= {"subcommand", "type", "message"}
        elif code == 0:
            lines = out.read_text().splitlines()
            ok = not any("nan" in field.lower() for line in lines[1:] for field in line.split(","))
            ok &= "NaN" not in lines[0] and "Infinity" not in lines[0]
        else:
            ok = code == 2
        if not ok:
            broken.append(f"{argv[0]} {argv[-1]} -> exit {code}")
    assert not broken, "\n".join(sorted(broken))
    assert time.perf_counter() - start < 30.0


def test_each_bound_admits_its_edges_and_rejects_past_them(capsys):
    parser = build_parser()
    edges = [(command, *edge) for command in BASE for edge in _edges(command)]
    assert {action.option_strings[-1] for _, action, _, _ in edges} == {
        "--workers", "--seed", "--N", "--J", "--degree", "--depth", "--points", "--nodes",
        "--factors", "--T-values", "--times", "--weights", "--hurst", "--lambda"}
    for command, action, value, admitted in edges:
        flag = action.option_strings[-1]
        argv = _argv(command, flag, value)
        if admitted:
            assert getattr(parser.parse_args(argv), action.dest) in (value, [value]), argv
            continue
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        assert exit_info.value.code == 2, argv
        assert f"argument {flag}: " in capsys.readouterr().err, argv


@pytest.mark.parametrize("command, flag", [
    ("fbm-variance", "--hurst"), ("bernoulli-density", "--lambda"),
    ("bernoulli-scaling", "--lambda"), ("ac2-proxy", "--lambda"),
])
def test_open_bounds_exit_2_naming_the_flag(tmp_path, capsys, command, flag):
    # the input is at fault, not the numerics: a usage error, not exit 3
    for value in ("0", "1", "1.5", "-1", "nan", "inf", "0.5,1"):
        code, err = _run(_argv(command, flag, value), tmp_path / "out.csv", capsys)
        assert code == 2 and f"argument {flag}: " in err, (command, flag, value)


def test_every_int_flag_is_bounded():
    bare = {a.option_strings[-1] for command in BASE for a in _actions(command) if a.type is int}
    assert not bare, f"type=int without a bound: {sorted(bare)}"


@pytest.mark.parametrize("argv", [f"{c} {b}".split() for c, b in BASE.items()], ids=list(BASE))
def test_every_base_case_succeeds(tmp_path, capsys, argv):
    assert _run(argv, tmp_path / "base.csv", capsys)[0] == 0
