import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from noisefield import streams
from noisefield.cli import UsageError, build_parser, main, parse_measure, parse_set

N_POOL = 3 * 8192 + 5


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "noisefield.cli", *args], capture_output=True, text=True, **kw
    )


# -- parsing ------------------------------------------------------------------------


def test_parse_covariance_descriptor():
    parser = build_parser()
    args = parser.parse_args(
        ["covariance", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--B", "0.4,1",
         "--N", "100000", "--seed", "7"]
    )
    assert args.command == "covariance"
    assert args.N == 100_000 and args.seed == 7


def test_parse_bernoulli_density_descriptor():
    parser = build_parser()
    args = parser.parse_args(["bernoulli-density", "--lambda", "0.5", "--N", "1000000"])
    assert args.lam == 0.5 and args.N == 1_000_000


def test_measure_descriptor_strings():
    assert parse_measure("lebesgue:0,1").kind == "lebesgue-interval"
    assert parse_measure("density:0,1:0,2").kind == "weighted-density"
    assert parse_measure("atomic:0,0.25;1,0.75").kind == "atomic"
    assert parse_measure("cantor").kind == "ifs-invariant"
    assert parse_measure("binary").kind == "ifs-invariant"
    assert parse_measure("bernoulli:0.5").kind == "bernoulli-convolution"
    with pytest.raises(UsageError, match="unknown measure"):
        parse_measure("nonsense:1")
    with pytest.raises(UsageError, match="malformed"):
        parse_measure("lebesgue:zero,one")
    with pytest.raises(UsageError, match="unknown system descriptor"):
        parse_measure("cantor:zzz")  # a named system takes no suffix


def test_set_descriptor_strings():
    A = parse_set("0,0.6")
    assert A.intervals == ((0.0, 0.6),)
    B = parse_set("0,0.2;0.4,0.6")
    assert len(B.intervals) == 2
    cyl = parse_set("cyl:0", parse_measure("cantor"))
    assert cyl.intervals == ((0.0, 1 / 3),)
    with pytest.raises(UsageError, match="ifs-invariant"):
        parse_set("cyl:0", parse_measure("lebesgue:0,1"))


# One base argv per descriptor flag; each case replaces that flag's value.
DESCRIPTOR_FLAGS = {
    "--measure": "covariance --measure lebesgue:0,1 --A 0,0.5 --B 0.25,1 --N 200 --J 8",
    "--A": "covariance --measure lebesgue:0,1 --A 0,0.5 --B 0.25,1 --N 200 --J 8",
    "--B": "covariance --measure lebesgue:0,1 --A 0,0.5 --B 0.25,1 --N 200 --J 8",
    "--poly": "ito-isometry --measure lebesgue:0,1 --poly 1,1 --N 200 --J 8",
    "--mu1": "sigma-inner --f1 1 --mu1 lebesgue:0,1 --f2 1 --mu2 lebesgue:0,1",
    "--mu2": "equivalence --f1 1 --mu1 lebesgue:0,1 --f2 1 --mu2 lebesgue:0,1",
    "--f1": "sigma-inner --f1 1 --mu1 lebesgue:0,1 --f2 1 --mu2 lebesgue:0,1",
    "--f2": "equivalence --f1 1 --mu1 lebesgue:0,1 --f2 1 --mu2 lebesgue:0,1",
    "--ifs": "cuntz-check --ifs cantor --depth 3",
    "--sets": "set-kernel --measure lebesgue:0,1 --sets 0,0.5|0.25,1",
    "--coeffs": "fourier-isometry --measure lebesgue:0,1 --sets 0,0.5 --coeffs 1 --N 200 --J 8",
    "--points": "julia-kernel --points 0;0.1 --factors 8",
}
UNCLOSED = "ifs:0.5,0;0.5,0.5:0.3,0.3"  # weights summing to 0.6
UNCLOSED_JSON = ('{"kind":"ifs-invariant","ifs":{"branches":[[0.5,0],[0.5,0.5]],'
                 '"weights":[0.3,0.3]}}')
MALFORMED = {
    "measure": ["{}", "{bad", '{"kind":"lebesgue-interval"}', '{"kind":"sum-of-two","parts":[]}',
                '{"kind":"atomic","atoms":[[0.5]]}', "cantor:zzz", "binary:1", "ifs:0.5,0",
                UNCLOSED, UNCLOSED_JSON, "lebesgue:zero,one"],
    "system": ["{}", "{bad", '{"branches":[[0.5,0]]}', '{"branches":[[0.5]],"weights":[1]}',
               "cantor:zzz", "ifs:0.5,0;0.5", "ifs:x"],
    "set": ["{}", "{bad", "0,zzz", "0", "cyl:x"],
    "numbers": ["{}", "{bad", "1,x", ""],
}
KIND = {"--measure": "measure", "--mu1": "measure", "--mu2": "measure", "--ifs": "system",
        "--A": "set", "--B": "set", "--sets": "set"}


@pytest.mark.parametrize("flag, value", [
    (flag, value) for flag in DESCRIPTOR_FLAGS for value in MALFORMED[KIND.get(flag, "numbers")]
])
def test_every_malformed_descriptor_exits_2_naming_it(capsys, flag, value):
    # JSON or text, each descriptor reads under one rule
    argv = DESCRIPTOR_FLAGS[flag].split()
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert repr(value) in capsys.readouterr().err


def test_sample_floor_is_usage_error():
    r = run_cli(["covariance", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--B", "0.4,1", "--N", "10"])
    assert r.returncode == 2
    assert "--N" in r.stderr


def test_cylinder_digit_outside_the_branches_is_usage_error():
    with pytest.raises(UsageError, match="branch index"):
        parse_set("cyl:-1", parse_measure("cantor"))
    for word in ("-1", "2"):
        r = run_cli(["covariance", "--measure", "cantor", "--A", f"cyl:{word}", "--B", "cyl:1",
                     "--N", "1000", "--seed", "1"])
        assert r.returncode == 2, (word, r.stdout)
        assert "branch index" in r.stderr


def test_cylinder_word_its_float_interval_does_not_name_is_usage_error():
    # (1, 0) * 17 has a one-ulp interval below 3/4 that names another word
    with pytest.raises(UsageError, match="does not name it"):
        parse_set("cyl:" + ",".join("10" * 17), parse_measure("cantor"))


def test_unclosed_system_in_ifs_moments_is_usage_error(capsys):
    # cuntz-check reports how unclosed a system is; ifs-moments needs its invariant measure
    with pytest.raises(SystemExit) as exit_info:
        main(["ifs-moments", "--ifs", UNCLOSED])
    assert exit_info.value.code == 2
    assert "--ifs" in capsys.readouterr().err
    assert main(["cuntz-check", "--ifs", UNCLOSED, "--depth", "3"]) == 0


def test_fewer_coefficients_than_sets_is_usage_error(capsys):
    argv = ["fourier-isometry", "--measure", "lebesgue:0,2", "--sets", "0,1|1,2", "--coeffs", "1",
            "--N", "200", "--J", "8"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--coeffs" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    r = run_cli(["not-a-thing"])
    assert r.returncode == 2


# -- execution -----------------------------------------------------------------------


def test_covariance_csv_embeds_descriptor(tmp_path):
    out = tmp_path / "cov.csv"
    rc = main(
        ["covariance", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--B", "0.4,1",
         "--N", "5000", "--seed", "7", "--J", "128", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    desc = json.loads(lines[0][2:])
    assert desc["subcommand"] == "covariance" and desc["seed"] == 7
    assert lines[1] == "estimate,stderr,target"
    est, se, target = (float(v) for v in lines[2].split(","))
    assert target == pytest.approx(0.2)
    assert abs(est - target) < 6 * se


def test_cuntz_check_outputs_small_residuals(tmp_path):
    out = tmp_path / "cuntz.csv"
    assert main(["cuntz-check", "--ifs", "cantor", "--depth", "8", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[2].split(",")
    assert float(row[0]) < 1e-10 and float(row[1]) < 1e-10


@pytest.mark.parametrize("ifs, depth", [("cantor", "0"), ("cantor", "-1"), ("cantor", "25"),
                                        ("ifs:0.25,0;0.25,0.375;0.25,0.75:0.25,0.25,0.25", "16")])
def test_cuntz_check_depth_out_of_range_is_a_usage_error(capsys, ifs, depth):
    # depth < 1 has no cells; above 2^24 cells (2^25 and 3^16) the diagonal passes 128 MiB
    with pytest.raises(SystemExit) as exit_info:
        main(["cuntz-check", "--ifs", ifs, "--depth", depth])
    assert exit_info.value.code == 2
    assert "--depth" in capsys.readouterr().err


def test_cuntz_check_on_32_branches_is_quick(tmp_path):
    # the closedness residual is O(n): a walk over the 32^6 words of length 6 took hours
    branches = ";".join(f"{1 / 64!r},{k / 32!r}" for k in range(32))
    system = f"ifs:{branches}:" + ",".join(["0.03125"] * 32)
    out = tmp_path / "cuntz.csv"
    start = time.perf_counter()
    assert main(["cuntz-check", "--ifs", system, "--depth", "1", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    assert out.read_text().splitlines()[2].split(",")[2] == "0.0"


def test_cuntz_check_huge_depth_is_a_usage_error_at_once(capsys):
    # the guard must not build n^depth: 2^(2^64) does not fit in memory
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exit_info:
        main(["cuntz-check", "--ifs", "cantor", "--depth", str(2**64)])
    assert exit_info.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert "--depth" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["ac2-proxy", "--lambda", "0.6", "--T-values", "inf"], "--T-values"),
    (["ac2-proxy", "--lambda", "0.6", "--T-values", "50,1e308"], "--T-values"),
    (["fbm-variance", "--times", "1e308"], "--times"),
    (["fbm-variance", "--times", "1," + str(2**64)], "--times"),
    (["fbm-variance", "--times", "nan"], "--times"),
    (["covariance", "--measure", "lebesgue:0,1", "--A", "0,1", "--B", "0,1",
      "--N", str(2**64), "--J", "8"], "--N"),
    (["sample-path", "--measure", "lebesgue:0,1", "--A", "0,1", "--N", str(2**31)], "--N"),
    (["ifs-moments", "--ifs", "cantor", "--degree", str(2**64)], "--degree"),
    (["ifs-moments", "--ifs", "cantor", "--degree", "65"], "--degree"),
    (["bernoulli-density", "--lambda", "0.5", "--T", "inf"], "--T"),
    (["bernoulli-density", "--lambda", "0.5", "--T", "1e308"], "--T"),
    (["bernoulli-density", "--lambda", "0.5", "--T", "nan"], "--T"),
    (["bernoulli-density", "--lambda", "0.75", "--T", "1200"], "--T"),
    (["bernoulli-density", "--lambda", "0.5", "--h", "0"], "--h"),
    (["bernoulli-density", "--lambda", "0.5", "--h", "nan"], "--h"),
    (["bernoulli-density", "--lambda", "0.5", "--h", "-1"], "--h"),
    (["bernoulli-density", "--lambda", "0.5", "--h", "1e-300"], "--h"),
    (["bernoulli-scaling", "--lambda", "0.5", "--h", "0"], "--h"),
    (["bernoulli-scaling", "--lambda", "0.5", "--h", "inf"], "--h"),
    (["bernoulli-scaling", "--lambda", "0.5", "--weights", "0.5,nan"], "--weights"),
    (["bernoulli-scaling", "--lambda", "0.5", "--weights", "1e308"], "--weights"),
    (["szego-check", "--nodes", "0"], "--nodes"),
    (["szego-check", "--nodes", "-1"], "--nodes"),
    (["szego-check", "--nodes", str(2**20 + 1)], "--nodes"),
    (["szego-check", "--nodes", str(10**10)], "--nodes"),
    (["boundary-embed", "--points", "100000"], "--points"),
    (["boundary-embed", "--points", "-1"], "--points"),
    (["boundary-embed", "--kernel", "szego", "--points", str(10**11)], "--points"),
    (["sigma-inner", "--f1", "1,nan", "--mu1", "lebesgue:0,1", "--f2", "1", "--mu2",
      "lebesgue:0,1"], "finite"),
    (["julia-kernel", "--points", "0;nan"], "--points"),
    (["julia-kernel", "--factors", "0"], "--factors"),
    (["julia-kernel", "--factors", "-1"], "--factors"),
    (["julia-kernel", "--factors", str(2**16 + 1)], "--factors"),
    (["julia-kernel", "--factors", "100000000"], "--factors"),
    (["julia-kernel", "--factors", str(2**64)], "--factors"),
    (["ifs-moments", "--ifs", "cantor", "--degree", "-1"], "--degree"),
    (["boundary-embed", "--kernel", "gauss"], "--kernel"),
    (["julia-kernel", "--points", ";".join(["0.1"] * 513)], "--points"),
])
def test_sizes_past_their_bounds_are_usage_errors_at_once(capsys, argv, flag):
    # each of these overflowed (exit 1), failed inside numpy (exit 3) or ran
    # without end before its bound
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_stream_ids(capsys, seed):
    # the stream layer rejects these ids too: test_stream_ids_outside_64_bits_are_rejected
    with pytest.raises(SystemExit) as exit_info:
        main(["sample-path", "--measure", "lebesgue:0,1", "--A", "0,0.5", "--N", "100",
              "--J", "8", "--seed", str(seed)])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_boundary_embed_distance_table(tmp_path):
    out = tmp_path / "embed.csv"
    assert main(["boundary-embed", "--kernel", "brownian", "--points", "8", "--J", "4000",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    for row in rows:
        assert float(row[4]) < 5e-3  # embedded vs kernel distance


def test_json_format(tmp_path):
    out = tmp_path / "moments.json"
    assert main(["ifs-moments", "--ifs", "cantor", "--degree", "2", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["degree", "moment_exact", "moment_float"]
    assert payload["rows"][1][1] == "1/2"
    assert payload["rows"][2][1] == "3/8"


def test_numeric_failure_emits_error_record():
    r = run_cli(["sample-path", "--measure", "bernoulli:0.5", "--A", "0,0.5", "--N", "200"])
    assert r.returncode == 3
    record = json.loads(r.stderr)
    assert record["error"]["subcommand"] == "sample-path"
    assert "bernoulli-convolution" in record["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["sample-path", "--measure", "lebesgue:0,1", "--A", "0,0.5", "--N", "100000"],
    ["ifs-moments", "--ifs", "cantor", "--degree", "2"],  # fits the buffer: fails at flush
], ids=["while-writing", "at-flush"])
def test_closed_stdout_exits_3_with_an_error_record(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "noisefield.cli", *argv], stdout=write_end,
                           stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert r.returncode == 3
    assert "Traceback" not in r.stderr
    record = json.loads(r.stderr)
    assert record["error"]["type"] == "BrokenPipeError"
    assert record["error"]["subcommand"] == argv[0]


def test_workers_flag_validated():
    r = run_cli(["covariance", "--measure", "lebesgue:0,1", "--A", "0,1", "--B", "0,1",
                 "--N", "500", "--workers", "0"])
    assert r.returncode == 2


def test_replay_determinism_bytes(tmp_path):
    argv = ["covariance", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--B", "0.4,1",
            "--N", "2000", "--seed", "11", "--J", "64"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_directory_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NOISEFIELD_OUTDIR", str(tmp_path))
    assert main(["szego-check", "--nodes", "256", "--out", "sz.csv"]) == 0
    assert (tmp_path / "sz.csv").exists()


def test_fbm_variance_table(tmp_path):
    out = tmp_path / "fbm.csv"
    assert main(["fbm-variance", "--hurst", "0.25,0.75", "--times", "1,4", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    for row in rows:
        assert float(row[4]) < 1e-3


@pytest.mark.parametrize("argv", [
    ["bernoulli-density", "--lambda", "0.5", "--N", "2000", "--seed", "3"],
    ["bernoulli-scaling", "--lambda", "0.5", "--N", "2000", "--weights", "0.5,0.25", "--seed", "3"],
])
def test_coin_artifacts_carry_the_stream_version(tmp_path, argv):
    out = tmp_path / "coins.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0][2:])["stream_version"] == 3


def test_scaling_weights_share_one_draw(monkeypatch, tmp_path):
    calls = []
    sign_sums = streams.sign_sums

    def counted(*args):
        block = sign_sums(*args)
        return lambda row, m: calls.append((row, m)) or block(row, m)

    monkeypatch.setattr(streams, "sign_sums", counted)
    argv = ["bernoulli-scaling", "--lambda", "0.5", "--N", "2000", "--weights", "0.5,0.25,0.125",
            "--workers", "1", "--out", str(tmp_path / "scaling.csv")]
    assert main(argv) == 0
    assert len(calls) == 1  # 2000 rows are one grid block


@pytest.mark.parametrize("measure, poly, degrees", [
    ("lebesgue:0,1", "0,1", [0, 1]),
    ("lebesgue:0,1", "0,0,1", [0, 1, 2]),
    ("density:0,1:1,2", "0,1", [0, 1]),
])
def test_ito_on_a_legendre_basis_draws_only_the_polynomial_degrees(
    monkeypatch, tmp_path, measure, poly, degrees
):
    drawn = []
    normal_matrix_at = streams.normal_matrix_at

    def spy(*args, **kwargs):
        drawn.append(list(args[2]))
        return normal_matrix_at(*args, **kwargs)

    monkeypatch.setattr(streams, "normal_matrix_at", spy)
    argv = ["ito-isometry", "--measure", measure, "--poly", poly, "--N", "500", "--J", "64",
            "--workers", "1", "--out", str(tmp_path / "ito.csv")]
    assert main(argv) == 0
    assert drawn and all(cols == degrees for cols in drawn)


@pytest.mark.parametrize("argv", [
    ["covariance", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--B", "0.4,1",
     "--N", "2000", "--seed", "11", "--J", "64"],
    ["sample-path", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--N", "300", "--J", "32",
     "--seed", "3"],
    ["ito-isometry", "--measure", "lebesgue:0,1", "--poly", "0,1", "--N", "9000", "--J", "64",
     "--seed", "5"],
    ["fourier-isometry", "--measure", "lebesgue:0,2", "--sets", "0,1|1,2", "--coeffs", "1,-1",
     "--N", "9000", "--J", "64", "--seed", "17"],
    # four grid blocks each, so --workers 2 and 3 fork
    ["covariance", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--B", "0.4,1",
     "--N", str(N_POOL), "--seed", "11", "--J", "64"],
    ["sample-path", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--N", str(N_POOL), "--J", "32",
     "--seed", "3"],
    ["ito-isometry", "--measure", "lebesgue:0,1", "--poly", "0,1", "--N", str(N_POOL),
     "--J", "64", "--seed", "5"],
    ["fourier-isometry", "--measure", "lebesgue:0,2", "--sets", "0,1|1,2", "--coeffs", "1,-1",
     "--N", str(N_POOL), "--J", "64", "--seed", "17"],
    ["bernoulli-density", "--lambda", "0.5", "--N", str(N_POOL), "--seed", "13"],
])
def test_artifacts_identical_for_every_worker_count(tmp_path, argv):
    # no --workers is the library default: the CPUs this process may use
    outputs = []
    for flag in ([], ["--workers", "1"], ["--workers", "2"], ["--workers", "3"]):
        out = tmp_path / f"w{len(outputs)}.csv"
        assert main(argv + flag + ["--out", str(out)]) == 0
        assert not multiprocessing.active_children()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


def test_a_block_error_under_workers_exits_3_with_a_record(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise ValueError("row reduction failed")

    monkeypatch.setattr(streams, "row_dot", failing)
    argv = ["covariance", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--B", "0.4,1",
            "--N", str(N_POOL), "--J", "16", "--workers", "2"]
    assert main(argv) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == {"subcommand": "covariance", "type": "ValueError",
                               "message": "row reduction failed"}
    assert not multiprocessing.active_children()


def test_workers_need_the_fork_start_method(monkeypatch, tmp_path):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    argv = ["covariance", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--B", "0.4,1",
            "--N", "500", "--J", "16", "--out", str(tmp_path / "c.csv")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--workers", "2"])
    assert exit_info.value.code == 2
    assert main(argv + ["--workers", "1"]) == 0
