"""Bad sizes and settings end in a clean error, never a hang or a traceback.

A non-positive chunk once made the block planner loop forever while its
block list grew, and a truncation K above 32767 once took a per-point
Python path for every harmonic, so those cases run in a child process
under a time and address-space limit: a regression fails the test instead
of hanging the suite or exhausting memory.
"""

import csv
import io
import os
import resource
import subprocess
import sys

import pytest

from cannonball import cli, equidist, exactseq, moments

GUARD_SECONDS = 60
GUARD_BYTES = 2 << 30
GUARD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (GUARD_BYTES, GUARD_BYTES))


def run_guarded(args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=GUARD_SECONDS, preexec_fn=_limit_memory, env=GUARD_ENV)


@pytest.mark.parametrize("chunk", [0, -4096])
def test_power_sums_at_rejects_nonpositive_chunk(chunk):
    proc = run_guarded(["-c", (
        "from cannonball import moments\n"
        "try:\n"
        f"    moments.power_sums_at([10], (1,), chunk={chunk})\n"
        "except ValueError as exc:\n"
        "    print('ValueError', exc)\n")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError") and "chunk" in proc.stdout


@pytest.mark.parametrize("chunk", ["0", "-1"])
def test_cli_rejects_nonpositive_chunk(chunk):
    proc = run_guarded(["-m", "cannonball.cli", "moments", "--x", "10", "--chunk", chunk])
    assert proc.returncode == 2
    assert "--chunk must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_rejects_zero_workers(capsys):
    assert cli.main(["moments", "--x", "10", "--workers", "0"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_cli_rejects_zero_checkpoint_every(tmp_path, capsys):
    argv = ["moments", "--x", "10", "--checkpoint", str(tmp_path / "ck.json"),
            "--checkpoint-every", "0"]
    assert cli.main(argv) == 2
    assert "--checkpoint-every must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["two", "1.5", "0"])
def test_cli_rejects_bad_env_workers(monkeypatch, capsys, value):
    monkeypatch.setenv(cli.ENV_WORKERS, value)
    assert cli.main(["moments", "--x", "10"]) == 2
    assert cli.ENV_WORKERS in capsys.readouterr().err


def test_cli_large_K_finishes():
    proc = run_guarded(["-m", "cannonball.cli", "discrepancy", "--x", "1000", "--K", "40000"])
    assert proc.returncode == 0, proc.stderr
    row = next(csv.DictReader(io.StringIO(proc.stdout)))
    assert row["K"] == "40000"
    assert float(row["d_unnormalized"]) <= float(row["et_bound"]) + float(row["slack"])


@pytest.mark.parametrize("argv", [
    ["discrepancy", "--x", "1000", "--K", str(10**15)],
    ["weyl", "--x", "1000", "--m-max", str(10**15)],
    ["knbound", "--x", "1000", "--m-max", str(equidist.MAX_HARMONIC + 1)],
])
def test_cli_rejects_harmonic_count_above_cap(argv):
    proc = run_guarded(["-m", "cannonball.cli", *argv])
    assert proc.returncode == 2
    assert f"must be <= {equidist.MAX_HARMONIC}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, needed", [
    (["weyl", "--x", "1000", "--bits", "40"], "m_max=5 needs at least 43 fixed-point bits (have 40)"),
    (["weyl", "--x", "1000", "--m-max", "20", "--bits", "32"],
     "m_max=20 needs at least 45 fixed-point bits (have 32)"),
    (["knbound", "--x", "1000", "--bits", "40"],
     "m_max=5 needs at least 43 fixed-point bits (have 40)"),
    (["discrepancy", "--x", "1000", "--K", "5", "--bits", "40"],
     "K=5 needs at least 43 fixed-point bits (have 40)"),
])
def test_cli_refuses_harmonics_past_the_precision_budget(capsys, argv, needed):
    # weyl, knbound and discrepancy --K share one guard, |m| 2^-bits < 1e-12
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {needed}\n"
    assert captured.out == ""


def test_weyl_within_the_precision_budget_prints(capsys):
    assert cli.main(["weyl", "--x", "1000", "--m-max", "5", "--bits", "43"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


@pytest.mark.parametrize("argv", [
    ["discrepancy", "--x", "1000", "--bits", "0"],
    ["discrepancy", "--x", "1000", "--K", "5", "--bits", "97"],
    ["weyl", "--x", "1000", "--bits", "-1"],
])
def test_cli_rejects_bits_out_of_range(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bits must be in [32, 96]")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["moments", "--x", "1000", "--bits", "48"],
    ["histogram", "--x", "1000", "--bits", "7"],
] + [[command, *size, flag, "2"]
     for command, size in (("discrepancy", ("--x", "10")), ("weyl", ("--x", "10")),
                           ("knbound", ("--x", "10")),
                           ("optimize", ("--preset", "moment-residual")))
     for flag in ("--workers", "--chunk")] + [
    ["optimize", "--preset", "moment-residual", "--out", "csv"],
])
def test_cli_rejects_flags_where_unused(argv):
    proc = run_guarded(["-m", "cannonball.cli", *argv])
    assert proc.returncode == 2
    assert f"unrecognized arguments: {argv[-2]}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["nearhalf", "--x", "100", "--bits", "1000000000"], "bits must be in [32, 96]"),
    (["histogram", "--x", "10", "--bins", "1000000000000"], "bins must be in [2, 1048576]"),
    (["sandwich", "--x", "10", "--k", "1", "--L", "1000000000000"], "must be <= 2097152"),
])
def test_cli_rejects_sizes_above_cap(argv, message):
    proc = run_guarded(["-m", "cannonball.cli", *argv])
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["discrepancy", "--x", "1000", "--K", "0"], "truncation K must be >= 1"),
    (["optimize", "--preset", "moment-residual", "--k", "0"], "k must be >= 1"),
    (["knbound", "--x", "1000", "--m-max", "0"], "--m-max must be >= 1, got 0"),
    (["knbound", "--x", "1"], "--x must be >= 2, got 1"),
])
def test_cli_rejects_zero_counts(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["discrepancy", "--x", "10000000", "--K", "0"], "truncation K must be >= 1"),
    (["discrepancy", "--x", "10000000", "--K", "100", "--bits", "40"],
     "K=100 needs at least 47 fixed-point bits (have 40)"),
])
def test_discrepancy_checks_K_before_the_points(monkeypatch, capsys, argv, message):
    # a bad K must not first build 10^7 points (2.4 s and 268 MB once)
    calls = []
    monkeypatch.setattr(equidist, "sqrt_frac_points", lambda *a, **k: calls.append(a))
    assert cli.main(argv) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_pool_capped_at_cpu_count(monkeypatch, tmp_path):
    # a fake pool records its size: --workers 5000 must never ask for 5000 processes
    sizes = []

    class FakePool:
        def __init__(self, n):
            sizes.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            result = fn(*args)
            return type("Done", (), {"get": lambda self: result})()

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(exactseq, "get_context", FakeContext)
    argv = ["terms", "--range", "1:1000", "--chunk", "10"]
    assert cli.main(argv + ["--output", str(tmp_path / "serial.csv")]) == 0
    for cpus, want in ((3, 3), (None, 1)):
        monkeypatch.setattr(exactseq.os, "cpu_count", lambda: cpus)
        out = tmp_path / f"pool{want}.csv"
        assert cli.main(argv + ["--workers", "5000", "--output", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert sizes == [3]  # with no CPU count the run is in-process: no pool


@pytest.mark.parametrize("module, name, argv", [
    (moments, "sandwich", ["sandwich", "--x", "100", "--L", "10"]),
    (equidist, "erdos_turan", ["discrepancy", "--x", "100", "--K", "5"]),
])
def test_self_check_failure_exits_cleanly(monkeypatch, capsys, module, name, argv):
    def fail(*args, **kwargs):
        raise AssertionError("forced failure")

    monkeypatch.setattr(module, name, fail)
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: self-check failed: forced failure\n"
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["-m", "cannonball.cli", "terms", "--range", "1:600000"],
    # output written after the early close must not fail at shutdown either
    ["-c", "from cannonball import cli\n"
           "status = cli.main(['terms', '--range', '1:600000'])\n"
           "print('after the close')\n"
           "raise SystemExit(status)\n"],
], ids=["cli", "print_after"])
def test_closed_stdout_is_a_quiet_exit(args):
    # `terms ... | head -1`: the reader goes away while terms is still streaming
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, preexec_fn=_limit_memory, env=GUARD_ENV)
    try:
        assert proc.stdout.readline() == b"n,p,f,y,a,side\r\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=GUARD_SECONDS)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("module, name, argv", [
    (equidist, "sqrt_frac_points", ["discrepancy", "--x", "100"]),
    (equidist, "sqrt_frac_points", ["discrepancy", "--x", "100", "--K", "5"]),
    (equidist, "sqrt_frac_points", ["weyl", "--x", "100"]),
    (equidist, "sqrt_frac_points", ["knbound", "--x", "100"]),
    (cli, "_terms_text", ["terms", "--range", "1:100", "--chunk", "10"]),
    (cli, "_terms_text", ["terms", "--range", "1:100", "--out", "json"]),
], ids=["discrepancy", "discrepancy_K", "weyl", "knbound", "terms", "terms_json"])
def test_request_too_large_for_memory_exits_2(monkeypatch, capsys, tmp_path, module, name, argv):
    """numpy's MemoryError for an array past the machine (discrepancy --x 1e13)
    is one error line and exit 2, and --output keeps an existing file's bytes."""
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 218. TiB for an array with shape "
                          "(10000000000000, 3) and data type int64")

    monkeypatch.setattr(module, name, fail)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: out of memory: Unable to allocate 218. TiB for an array "
                            "with shape (10000000000000, 3) and data type int64\n")
    dest = tmp_path / "out.csv"
    dest.write_bytes(b"old bytes")
    assert cli.main(argv + ["--output", str(dest)]) == 2
    assert capsys.readouterr().err.count("error:") == 1
    assert dest.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_bare_memory_error_is_one_line(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(equidist, "sqrt_frac_points", fail)
    assert cli.main(["weyl", "--x", "100"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
