import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cannonball import cli
from cannonball import equidist as eq
from cannonball import exactseq as xs
from cannonball import moments as mo
from conftest import oracle_term


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "cannonball.cli", *args],
                          capture_output=True, text=True, **kwargs)


def run_capture(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestTerms:
    def test_first_ten_match_oracle(self, capsys):
        code, out = run_capture(["terms", "--range", "1:10"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        for row in rows:
            p, y, a = oracle_term(int(row["n"]))
            assert (int(row["p"]), int(row["y"]), int(row["a"])) == (p, y, a)

    def test_json_format(self, capsys):
        code, out = run_capture(["terms", "--range", "24:24", "--out", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows == [{"n": 24, "p": "4900", "f": "70", "y": "70",
                         "a": "0", "side": "below"}]


def terms_reference(lo, hi, out_format):
    """The terms output as csv.DictWriter / json.dump write it, for rows built
    apart from the library's nearest-square rule: (p, y, a) from the
    brute-force oracle_term, the side from 4p < (2f+1)^2."""
    rows = []
    for n in range(lo, hi + 1):
        p, y, a = oracle_term(n)
        f = math.isqrt(p)
        side = "below" if 4 * p < (2 * f + 1) ** 2 else "above"
        rows.append({"n": n, "p": str(p), "f": str(f), "y": str(y), "a": str(a), "side": side})
    buf = io.StringIO()
    if out_format == "csv":
        writer = csv.DictWriter(buf, fieldnames=["n", "p", "f", "y", "a", "side"])
        writer.writeheader()
        writer.writerows(rows)
    else:
        json.dump(rows, buf, indent=2)
        buf.write("\n")
    return buf.getvalue().encode()


# P_n passes 2^64 between these two indices
CROSS_2_64 = (3_809_000, 3_812_000)
# the kernel's int64 path below FD_CAP, its object-array fallback above
STRADDLE_FD_CAP = (xs.FD_CAP - 10, xs.FD_CAP + 10)
# one sub-block across n = 310723, where P_n passes 10^16 and p gains its high limb
CROSS_10_16 = (308_000, 312_000)
# P_n passes 2^63 at n = 3024617
CROSS_2_63 = (3_022_000, 3_026_000)


def assert_same_bytes(got, want):
    """got == want, naming the first differing line: pytest's own diff of
    megabytes of output would take minutes."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        line = got.rfind(b"\n", 0, i) + 1
        pytest.fail(f"first difference at byte {i}: got {got[line:i + 40]!r}, "
                    f"want {want[line:i + 40]!r}")


def span_bytes(lo, hi, out_format):
    """The terms output of [lo, hi] from one span of _terms_text parts, as the CLI writes it."""
    cfg = cli.RunConfig("terms", lo=lo, hi=hi, chunk=hi - lo + 1, out_format=out_format)
    return "".join(cli._cmd_terms(cfg)).encode()


class TestTermsStream:
    """terms formats each (f, d) sub-block to text; its bytes are the Term-row writers' bytes."""

    def test_crossing_points_are_where_the_ranges_say(self):
        lo, hi = CROSS_2_64
        assert xs.pyramidal(lo) < 2**64 < xs.pyramidal(hi)

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("lo, hi", [
        (1, 2 * xs.SUB_BLOCK + 5), (1, 24), (24, 24), (5, 5), (1, 1),
        CROSS_2_64, STRADDLE_FD_CAP,
    ], ids=["sub_blocks", "squares", "square_24", "one_row", "first_row", "cross_2_64",
            "straddle_fd_cap"])
    def test_bytes_equal_reference(self, tmp_path, lo, hi, out_format):
        path = tmp_path / "t.out"
        assert cli.main(["terms", "--range", f"{lo}:{hi}", "--out", out_format,
                         "--output", str(path)]) == 0
        assert path.read_bytes() == terms_reference(lo, hi, out_format)

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("lo, hi", [(xs.SUB_BLOCK - 300, 2 * xs.SUB_BLOCK + 300),
                                        STRADDLE_FD_CAP], ids=["sub_blocks", "straddle_fd_cap"])
    def test_bytes_independent_of_workers_and_chunk(self, tmp_path, lo, hi, out_format):
        want = terms_reference(lo, hi, out_format)
        for workers in (1, 2):
            for chunk in (1, 7, 4097, 65536):
                path = tmp_path / f"t{workers}_{chunk}.out"
                assert cli.main(["terms", "--range", f"{lo}:{hi}", "--out", out_format,
                                 "--workers", str(workers), "--chunk", str(chunk),
                                 "--output", str(path)]) == 0
                assert path.read_bytes() == want, (workers, chunk)

    def test_stdout_bytes_equal_reference(self, capsysbinary):
        assert cli.main(["terms", "--range", "20:30", "--out", "json", "--chunk", "4"]) == 0
        assert capsysbinary.readouterr().out == terms_reference(20, 30, "json")

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_stream_chunks_are_the_sub_blocks(self, out_format):
        """One chunk per sub-block, the header joined to the first; JSON then closes alone."""
        cfg = cli.RunConfig("terms", lo=1, hi=3 * xs.SUB_BLOCK, out_format=out_format)
        chunks = list(cli._cmd_terms(cfg))
        if out_format == "csv":
            assert len(chunks) == 3 and chunks[0].startswith("n,p,f,y,a,side\r\n")
            rows = [c.count("\r\n") for c in chunks]
            assert rows == [xs.SUB_BLOCK + 1, xs.SUB_BLOCK, xs.SUB_BLOCK]
        else:
            assert len(chunks) == 4 and chunks[0].startswith("[\n  {")
            assert [c.count('"n": ') for c in chunks[:3]] == [xs.SUB_BLOCK] * 3
            assert chunks[3] == "\n]\n"

    def test_memory_flat_in_the_range(self, tmp_path):
        # one span of text at a time, never the whole file: 1:50000 is a
        # 2.5 MB file, a 1024-row span about 50 kB of text
        bound = 1 << 20
        path = tmp_path / "t.csv"
        for hi in (5_000, 50_000):
            tracemalloc.start()
            try:
                assert cli.main(["terms", "--range", f"1:{hi}", "--chunk", "1024",
                                 "--output", str(path)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (hi, peak)
        assert path.stat().st_size > 2 * bound

    def test_failure_mid_stream_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys):
        dest = tmp_path / "t.csv"
        dest.write_bytes(b"old bytes")
        spans = []
        real = cli._terms_text

        def fail_second(is_csv, s, f, d):
            spans.append(s)
            if len(spans) == 2:
                raise ValueError("forced failure")
            return real(is_csv, s, f, d)

        monkeypatch.setattr(cli, "_terms_text", fail_second)
        assert cli.main(["terms", "--range", "1:100", "--chunk", "10",
                         "--output", str(dest)]) == 2
        assert capsys.readouterr().err == "error: forced failure\n"
        assert len(spans) == 2
        assert dest.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


class TestTermsVector:
    """The numpy formatting of int64 sub-blocks against the per-row reference."""

    def test_crossing_points_are_where_the_ranges_say(self):
        assert xs.pyramidal(310_722) < 10**16 <= xs.pyramidal(310_723)
        assert xs.pyramidal(3_024_616) < 2**63 <= xs.pyramidal(3_024_617)
        lo, hi = CROSS_10_16
        assert lo < 310_723 <= hi < lo + xs.SUB_BLOCK
        lo, hi = CROSS_2_63
        assert lo < 3_024_617 <= hi < lo + xs.SUB_BLOCK

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("lo, hi", [
        CROSS_10_16, CROSS_2_63, (1, 30), (24, 24), (9_990, 10_010), (99_990, 100_010),
        (999_990, 1_000_010), (99_999_990, 100_000_010), (xs.FD_CAP - 5000, xs.FD_CAP),
    ], ids=["cross_10_16", "cross_2_63", "squares", "square_24", "n_10_4", "n_10_5",
            "n_10_6", "n_10_8", "n_10_10"])
    def test_bytes_equal_reference(self, lo, hi, out_format):
        assert_same_bytes(span_bytes(lo, hi, out_format), terms_reference(lo, hi, out_format))

    @settings(max_examples=40)
    @given(lo=st.integers(1, xs.FD_CAP), length=st.integers(1, 2 * xs.SUB_BLOCK + 100),
           out_format=st.sampled_from(["csv", "json"]))
    def test_drawn_ranges_equal_reference(self, lo, length, out_format):
        hi = min(lo + length - 1, xs.FD_CAP)
        assert_same_bytes(span_bytes(lo, hi, out_format), terms_reference(lo, hi, out_format))

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_pool_spans_cut_the_10_16_crossing(self, tmp_path, out_format):
        lo, hi = 300_000, 320_000
        path = tmp_path / "t.out"
        assert cli.main(["terms", "--range", f"{lo}:{hi}", "--out", out_format, "--workers", "2",
                         "--chunk", "4097", "--output", str(path)]) == 0
        assert_same_bytes(path.read_bytes(), terms_reference(lo, hi, out_format))

    @pytest.mark.parametrize("is_csv", [True, False])
    def test_vector_rows_equal_object_rows(self, is_csv):
        """Both paths give the same text for the same kernel sub-blocks."""
        for s in (1, 300_000, 310_000, 3_024_000, xs.FD_CAP - xs.SUB_BLOCK + 1):
            f, d = xs.block_fd(s, s + xs.SUB_BLOCK - 1)
            assert f.dtype == np.int64
            assert_same_bytes(cli._vector_rows(s, f, d, is_csv).encode(),
                              cli._object_rows(s, f.astype(object), d.astype(object),
                                               is_csv).encode())

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_straddle_takes_both_paths(self, monkeypatch, out_format):
        """A span whose sub-blocks meet at FD_CAP: the kernel block, then the object block."""
        calls = []
        for name in ("_vector_rows", "_object_rows"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda s, *a, real=real, name=name:
                                calls.append((name, s)) or real(s, *a))
        lo, hi = xs.FD_CAP - xs.SUB_BLOCK + 1, xs.FD_CAP + 10
        assert_same_bytes(span_bytes(lo, hi, out_format), terms_reference(lo, hi, out_format))
        kernel = [s for name, s in calls if name == "_vector_rows"]
        fallback = [s for name, s in calls if name == "_object_rows"]
        assert kernel == [lo] and fallback == [xs.FD_CAP + 1]

    def test_no_nul_in_the_words_of_a_row(self):
        """The literal words hold no NUL but their padding, so deleting NULs is exact."""
        for heads, tails in (cli._CSV_WORDS, cli._JSON_WORDS):
            for words in (*heads, *tails):
                text = words.tobytes()
                assert b"\0" not in text.rstrip(b"\0") and len(text) - len(text.rstrip(b"\0")) < 4


class TestMoments:
    def test_golden_row_1e4(self, capsys):
        code, out = run_capture(["moments", "--x", "10000", "--k", "1"], capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        # golden value revalidated against the brute-force oracle
        assert row["exact"] == "1154390467"
        assert sum(oracle_term(n)[2] for n in range(1, 10001)) == 1154390467
        assert float(row["residual"]) < 0
        assert row["prec_bits"] == str(mo.WORK_PREC)

    def test_average_row(self, capsys):
        code, out = run_capture(["average", "--x", "24"], capsys)
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["m1"] == "410"
        assert row["average"] == "205/12"


class TestEmit:
    def test_empty_json_array(self, tmp_path):
        path = tmp_path / "empty.json"
        cli.emit([], "json", path)
        assert json.loads(path.read_text()) == []

    def test_huge_integer_roundtrips(self, tmp_path):
        value = 2**200 + 12345
        path = tmp_path / "big.json"
        cli.emit([{"exact": str(value)}], "json", path)
        assert int(json.loads(path.read_text())[0]["exact"]) == value

    def test_quoting_is_rfc4180(self, tmp_path):
        path = tmp_path / "q.csv"
        cli.emit([{"v": 'say "hi", ok'}], "csv", path)
        assert '"say ""hi"", ok"' in path.read_text()

    @pytest.mark.parametrize("out_format, given", [
        ("csv", list), ("json", list),
        ("csv", lambda rows: (row for row in rows)), ("json", lambda rows: (row for row in rows)),
    ], ids=["csv", "json", "csv-generator", "json-generator"])
    def test_bytes_equal_the_stdlib_writers(self, tmp_path, monkeypatch, out_format, given):
        """Past one block of SUB_BLOCK rows, quoted cells, empty strings, bools,
        float reprs and nested objects (optimize's rows) come out as
        csv.DictWriter and json.dump(indent=2) write them, block by block,
        from a list or from a generator of the rows."""
        rows = [{"n": i, "cell": 'say "hi", ok' if i % 3 else "", "ok": i % 2 == 0,
                 "ratio": repr(1 / (i + 7)), "doc": {"monomial": "x:3/8", "exponents": {"x": i}}}
                for i in range(xs.SUB_BLOCK + 1)]
        buf = io.StringIO(newline="")
        if out_format == "csv":
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        else:
            json.dump(rows, buf, indent=2)
            buf.write("\n")
        blocks = []
        rows_text = cli._rows_text
        monkeypatch.setattr(cli, "_rows_text", lambda block, is_csv:
                            blocks.append(len(block)) or rows_text(block, is_csv))
        path = tmp_path / f"rows.{out_format}"
        cli.emit(given(rows), out_format, path)
        assert path.read_bytes() == buf.getvalue().encode()
        assert blocks == [xs.SUB_BLOCK, 1]

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_rows_drawn_one_block_at_a_time(self, tmp_path, monkeypatch, out_format):
        """A generator of rows is drawn no further than the block being rendered."""
        drawn = []

        def rows():
            for i in range(2 * xs.SUB_BLOCK + 1):
                drawn.append(i)
                yield {"n": i}

        seen = []
        rows_text = cli._rows_text
        monkeypatch.setattr(cli, "_rows_text", lambda block, is_csv:
                            seen.append((len(drawn), len(block))) or rows_text(block, is_csv))
        cli.emit(rows(), out_format, tmp_path / "rows.out")
        assert seen == [(xs.SUB_BLOCK, xs.SUB_BLOCK), (2 * xs.SUB_BLOCK, xs.SUB_BLOCK),
                        (2 * xs.SUB_BLOCK + 1, 1)]

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_histogram_rows_are_not_held(self, tmp_path, out_format):
        # 2^18 bins: the dict rows of the whole table would take tens of MiB
        path = tmp_path / "h.out"
        tracemalloc.start()
        try:
            assert cli.main(["histogram", "--x", "20000", "--bins", "262144",
                             "--out", out_format, "--output", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            cli.emit([{"a": 1}], "xml")


class TestDeterminism:
    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for workers in (1, 4):
            path = tmp_path / f"m{workers}.csv"
            code = cli.main(["moments", "--x", "200000", "--k", "2",
                             "--workers", str(workers), "--chunk", "8192",
                             "--output", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ["terms", "--range", "1:5000"],
        ["sandwich", "--x", "5000", "--k", "2", "--L", "100"],
        ["histogram", "--x", "5000"],
        ["nearhalf", "--x", "5000", "--bits", "32"],
        ["exceptional", "--x", "5000"],
    ], ids=lambda argv: argv[0])
    def test_scan_workers_identical(self, tmp_path, argv):
        outs = []
        for workers, chunk in ((1, 65536), (3, 512)):
            path = tmp_path / f"t{workers}.csv"
            assert cli.main(argv + ["--workers", str(workers), "--chunk", str(chunk),
                                    "--output", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestCheckpointing:
    def test_resume_from_boundary_is_byte_identical(self, tmp_path):
        x, chunk = 150000, 4096
        plain = tmp_path / "plain.csv"
        assert cli.main(["moments", "--x", str(x), "--k", "1",
                         "--chunk", str(chunk), "--output", str(plain)]) == 0

        # fabricate the state a killed run leaves behind: a checkpoint at a
        # chunk boundary and no output file
        boundary = 12 * chunk
        cfg = cli.config_from_args(cli.build_parser().parse_args(
            ["moments", "--x", str(x), "--k", "1", "--chunk", str(chunk),
             "--checkpoint", str(tmp_path / "ck.json"),
             "--output", str(tmp_path / "resumed.csv")]))
        partial = mo.power_sums(boundary, (1,))
        cli._write_checkpoint(str(tmp_path / "ck.json"), cfg.fingerprint(),
                              boundary, [("m1", partial[0])])
        assert cli.run(cfg) == 0
        assert (tmp_path / "resumed.csv").read_bytes() == plain.read_bytes()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        ck = tmp_path / "ck.json"
        cli._write_checkpoint(str(ck), "deadbeef", 1000, [("m1", 12345)])
        code = cli.main(["moments", "--x", "5000", "--k", "1",
                         "--checkpoint", str(ck),
                         "--output", str(tmp_path / "out.csv")])
        assert code == 3
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"schema_version": 1},
        {"schema_version": 1, "fingerprint": "f", "last_n": "10", "accumulators": []},
        {"schema_version": 1, "fingerprint": "f", "last_n": 10, "accumulators": [["m1", 5]]},
    ], ids=["list", "no-fields", "string-last-n", "int-accumulator"])
    def test_malformed_checkpoint_exits_2(self, tmp_path, capsys, doc):
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(doc))
        code = cli.main(["moments", "--x", "100", "--checkpoint", str(ck),
                         "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert str(ck) in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("last_n, accumulators", [
        (-1, [("m1", 0)]), (1000, [("m1", 12345)]), (5000, [("m1", 12345)]),
        (10, []), (10, [("m2", 5)]),
    ])
    def test_checkpoint_not_of_this_run_refused(self, tmp_path, capsys, last_n, accumulators):
        """A checkpoint at or past x, or without this run's one accumulator,
        holds no partial sum of this run: nothing in it may come out as the
        exact moment."""
        ck = tmp_path / "ck.json"
        argv = ["moments", "--x", "1000", "--k", "1", "--checkpoint", str(ck),
                "--output", str(tmp_path / "out.csv")]
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
        cli._write_checkpoint(str(ck), cfg.fingerprint(), last_n, accumulators)
        assert cli.main(argv) == 2
        assert "last_n" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_fingerprint_ignores_parallelism_knobs(self):
        parser = cli.build_parser()
        base = cli.config_from_args(parser.parse_args(["moments", "--x", "100", "--k", "1"]))
        tweaked = cli.config_from_args(parser.parse_args(
            ["moments", "--x", "100", "--k", "1", "--workers", "8", "--chunk", "999"]))
        other_x = cli.config_from_args(parser.parse_args(["moments", "--x", "101", "--k", "1"]))
        assert base.fingerprint() == tweaked.fingerprint()
        assert base.fingerprint() != other_x.fingerprint()

    @pytest.mark.parametrize("config, hexdigest", [
        (cli.RunConfig(command="moments", x=123456, k=3, workers=2, chunk=999,
                       checkpoint_path="a.json", checkpoint_every=5000),
         "9785c419d9e91ba85f2fdf1ac739cdf285ca31f62540cf43166c26bedc164ba1"),
        (cli.RunConfig(command="sandwich", x=150000, k=2, L=100, out_format="json"),
         "7e97ac1bfaba2b1167da3b94fc497627090bd15b76c7364f7658cbf55794fd07"),
        (cli.RunConfig(command="fit", k=2, xs=(1000, 10000, 100000)),
         "3d27e99a712dd448ee2e48e15d59216f3eeb5c27c04d590f246799918f30afcc"),
    ], ids=["moments", "sandwich", "fit"])
    def test_fingerprint_is_pinned(self, config, hexdigest):
        # the hex of existing checkpoints: a change here orphans every one of them
        assert config.fingerprint() == hexdigest

    def test_failed_checkpoint_write_keeps_the_last_one(self, tmp_path, monkeypatch):
        """A checkpoint is written like an output: when a later write fails, the
        run exits 2, no .tmp file is left, and the checkpoint on disk keeps
        the bytes of the last one written whole."""
        ck, out = tmp_path / "ck.json", tmp_path / "out.csv"
        replace, saved = os.replace, []

        def fail_second_checkpoint(src, dst):
            if dst == str(ck) and saved:
                raise OSError("no space left")
            replace(src, dst)
            if dst == str(ck):
                saved.append(ck.read_bytes())

        monkeypatch.setattr(cli.os, "replace", fail_second_checkpoint)
        assert cli.main(["moments", "--x", "100000", "--k", "1", "--chunk", "4096",
                         "--checkpoint", str(ck), "--checkpoint-every", "20000",
                         "--output", str(out)]) == 2
        assert len(saved) == 1 and ck.read_bytes() == saved[0]
        assert not (tmp_path / "ck.json.tmp").exists()
        assert not out.exists()

    def test_checkpoints_written_during_run(self, tmp_path):
        ck = tmp_path / "ck.json"
        assert cli.main(["moments", "--x", "100000", "--k", "1",
                         "--chunk", "4096", "--checkpoint", str(ck),
                         "--checkpoint-every", "20000",
                         "--output", str(tmp_path / "out.csv")]) == 0
        doc = json.loads(ck.read_text())
        assert doc["schema_version"] == 1
        assert 0 < doc["last_n"] < 100000
        assert doc["accumulators"][0][0] == "m1"
        assert doc["accumulators"][0][1].isdigit()


class TestErrors:
    def test_unknown_flag_names_it(self):
        proc = run_cli(["moments", "--x", "10", "--bogus"])
        assert proc.returncode == 2
        assert "--bogus" in proc.stderr

    def test_missing_required(self):
        proc = run_cli(["moments"])
        assert proc.returncode == 2
        assert "--x" in proc.stderr

    def test_invalid_value_reported(self, capsys):
        code = cli.main(["moments", "--x", "10", "--k", "44"])
        err = capsys.readouterr().err
        assert code == 2
        assert "k=44" in err

    def test_unwritable_output(self, capsys):
        code = cli.main(["average", "--x", "5", "--output", "/nonexistent/dir/x.csv"])
        assert code == 2


# every subcommand's long options: declaring a flag once, in a parent parser,
# neither adds nor drops one anywhere
LONG_OPTIONS = {
    "terms": ["--chunk", "--help", "--out", "--output", "--range", "--workers"],
    "moments": ["--checkpoint", "--checkpoint-every", "--chunk", "--help", "--k", "--out",
                "--output", "--workers", "--x"],
    "average": ["--chunk", "--help", "--out", "--output", "--workers", "--x"],
    "sandwich": ["--L", "--chunk", "--help", "--k", "--out", "--output", "--workers", "--x"],
    "discrepancy": ["--K", "--bits", "--help", "--out", "--output", "--x"],
    "weyl": ["--bits", "--help", "--m-max", "--out", "--output", "--x"],
    "knbound": ["--bits", "--help", "--m-max", "--out", "--output", "--x"],
    "exceptional": ["--chunk", "--help", "--out", "--output", "--workers", "--x"],
    "nearhalf": ["--bits", "--chunk", "--help", "--out", "--output", "--workers", "--x"],
    "histogram": ["--bins", "--chunk", "--help", "--out", "--output", "--workers", "--x"],
    "optimize": ["--expr", "--help", "--k", "--output", "--preset", "--var"],
    "fit": ["--chunk", "--help", "--k", "--out", "--output", "--workers", "--xs"],
}
X_COMMANDS = [c for c, options in LONG_OPTIONS.items() if "--x" in options]
# a library-built config each command accepts: the fields it needs, set
VALID = {
    "terms": dict(lo=1, hi=2), "moments": dict(x=10, k=1), "average": dict(x=10),
    "sandwich": dict(x=10, k=1, L=2), "discrepancy": dict(x=10), "weyl": dict(x=10, m_max=2),
    "knbound": dict(x=10, m_max=2), "exceptional": dict(x=10), "nearhalf": dict(x=10),
    "histogram": dict(x=10, bins=4), "optimize": dict(preset="moment-residual", k=2),
    "fit": dict(k=1, xs=(10,)),
}
# every RunConfig field a flag fills, but out_format (checked by --out's own
# rule): its flag, and a valid value other than the field's default
SET_FIELDS = {
    "x": ("--x", 20), "lo": ("--range", 3), "hi": ("--range", 4), "k": ("--k", 2),
    "L": ("--L", 4), "K": ("--K", 3), "bins": ("--bins", 5), "m_max": ("--m-max", 3),
    "bits": ("--bits", 64), "xs": ("--xs", (10, 20)), "expr": ("--expr", "F=x:1;G=x:2"),
    "var": ("--var", "x"), "preset": ("--preset", "moment-residual"),
    "workers": ("--workers", 2), "chunk": ("--chunk", 7), "output": ("--output", "o.csv"),
    "checkpoint_path": ("--checkpoint", "c.json"), "checkpoint_every": ("--checkpoint-every", 5),
}
UNTAKEN = [(c, f) for c in LONG_OPTIONS for f, (flag, _) in SET_FIELDS.items()
           if flag not in LONG_OPTIONS[c]]
TAKEN = [(c, f) for c in LONG_OPTIONS for f, (flag, _) in SET_FIELDS.items()
         if flag in LONG_OPTIONS[c]]


class TestFlagRanges:
    """Each flag is range-checked once, in RunConfig, by a message naming it."""

    def test_long_options_per_command(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert {name: sorted(s for a in p._actions for s in a.option_strings
                       if s.startswith("--"))
                for name, p in sub.choices.items()} == LONG_OPTIONS

    @pytest.mark.parametrize("command", X_COMMANDS)
    def test_x_below_its_floor_names_the_flag(self, capsys, command):
        extra = ["--L", "2"] if command == "sandwich" else []
        assert cli.main([command, "--x", "0", *extra]) == 2
        captured = capsys.readouterr()
        low = 2 if command == "knbound" else 1
        assert (captured.out, captured.err) == ("", f"error: --x must be >= {low}, got 0\n")

    @pytest.mark.parametrize("argv, message", [
        (["weyl", "--x", "10", "--m-max", "0"], "--m-max must be >= 1, got 0"),
        (["fit", "--xs", "1,,3"], "--xs must be integers >= 1 separated by commas, got '1,,3'"),
        (["fit", "--xs", "0,1,2"], "--xs must be integers >= 1 separated by commas, got '0,1,2'"),
        (["fit", "--xs", ""], "--xs must be integers >= 1 separated by commas, got ''"),
    ])
    def test_bad_value_names_the_flag(self, capsys, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("cfg", [dict(command="terms", lo=1, hi=2),
                                     dict(command="moments", x=10**8, k=1)],
                             ids=["terms", "moments"])
    def test_unknown_out_format_refused_before_any_work(self, cfg):
        # from the library the CLI's --out choices are not enforced by argparse
        with pytest.raises(ValueError, match="^--out must be csv or json, got 'xml'$"):
            cli.RunConfig(**cfg, out_format="xml")

    @pytest.mark.parametrize("cfg, message", [
        (dict(command="moments", x=10), "moments needs --k"),
        (dict(command="histogram", x=10), "histogram needs --bins"),
        (dict(command="weyl", x=10), "weyl needs --m-max"),
        (dict(command="sandwich", x=10, k=1), "sandwich needs --L"),
        (dict(command="fit", k=1), "fit needs --xs"),
        (dict(command="terms"), "terms needs --range"),
        (dict(command="optimize", preset="moment-residual"), "optimize needs --k"),
    ], ids=["moments", "histogram", "weyl", "sandwich", "fit", "terms", "optimize_preset"])
    def test_missing_field_refused_by_its_flag(self, cfg, message):
        # the CLI fills every field; a library-built config is refused, never filled
        with pytest.raises(ValueError, match=f"^{message}$"):
            cli.RunConfig(**cfg)

    def test_set_fields_cover_run_config(self):
        fields = set(cli.RunConfig.__dataclass_fields__)
        assert set(SET_FIELDS) | {"command", "out_format"} == fields

    @pytest.mark.parametrize("command, field", UNTAKEN, ids=[f"{c}-{f}" for c, f in UNTAKEN])
    def test_field_the_command_does_not_read_refused(self, command, field):
        # a field its command ignores would otherwise pass without a word
        flag, value = SET_FIELDS[field]
        with pytest.raises(ValueError, match=f"^{command} does not take {flag}$"):
            cli.RunConfig(command, **{**VALID[command], field: value})

    @pytest.mark.parametrize("command, field", TAKEN, ids=[f"{c}-{f}" for c, f in TAKEN])
    def test_field_the_command_reads_accepted(self, command, field):
        cfg = cli.RunConfig(command, **{**VALID[command], field: SET_FIELDS[field][1]})
        assert getattr(cfg, field) == SET_FIELDS[field][1]

    def test_unknown_command_reaches_run(self, capsys):
        assert cli.run(cli.RunConfig("bogus", x=3)) == 2
        assert capsys.readouterr().err == "unknown command 'bogus'\n"

    @pytest.mark.parametrize("cfg, message", [
        (dict(command="moments", x=1e3, k=1), "--x must be an integer, got 1000.0"),
        (dict(command="moments", x="1000", k=1), "--x must be an integer, got '1000'"),
        (dict(command="sandwich", x=1000, k=1, L=4.0), "--L must be an integer, got 4.0"),
        (dict(command="histogram", x=1000, bins=2.5), "--bins must be an integer, got 2.5"),
        (dict(command="terms", lo=1.0, hi=10), "--range must be an integer, got 1.0"),
        (dict(command="weyl", x=1000, m_max=2.0), "--m-max must be an integer, got 2.0"),
        (dict(command="nearhalf", x=1000, bits=64.0), "--bits must be an integer, got 64.0"),
        (dict(command="moments", x=1000, k=True), "--k must be an integer, got True"),
        (dict(command="fit", k=1, xs=(1000, 2e3)), "--xs must be an integer, got 2000.0"),
        (dict(command="moments", x=1000, k=1, workers=None),
         "--workers must be an integer, got None"),
    ], ids=["x_float", "x_str", "L", "bins", "range", "m_max", "bits", "bool", "xs", "workers"])
    def test_integer_field_refused_unless_int(self, cfg, message):
        # argparse makes these ints at the command line; built in code they
        # would run as given (x=1e3 writes "1000.0") or end in a TypeError
        with pytest.raises(ValueError, match=f"^{message}$"):
            cli.RunConfig(**cfg)

    @pytest.mark.parametrize("call, message", [
        (lambda: mo.moment(0, 1), "x must be >= 1"),
        (lambda: mo.power_sums_at([0], (1,)), "snapshot points must be >= 1"),
        (lambda: xs.exceptional_indices(0), "scan bound must be >= 1"),
        (lambda: eq.sqrt_frac_points(0), "need 1 <= lo <= n"),
        (lambda: eq.weyl_profile(10, 0), "need N >= 1 and m_max >= 1"),
    ])
    def test_library_messages_stay(self, call, message):
        # API callers keep the library's own checks and words
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


class TestOptimize:
    def test_expr_mode(self, capsys):
        code, out = run_capture(
            ["optimize", "--expr", "F=x:5/2,K:-1/2;G=x:19/8,K:1/4", "--var", "K"],
            capsys)
        assert code == 0
        doc = json.loads(out)[0]
        assert doc["argmin"]["exponents"] == {"x": "1/6"}
        assert doc["value"]["exponents"] == {"x": "29/12"}

    def test_preset_mode(self, capsys):
        code, out = run_capture(["optimize", "--preset", "moment-residual", "--k", "3"],
                                capsys)
        doc = json.loads(out)[0]
        assert doc["residual_exponent"] == "65/12"
        assert doc["segment_choice"]["exponents"] == {"K": "1/4", "L": "-1/2", "x": "3/8"}

    @pytest.mark.parametrize("cfg", [dict(preset="moment-residual", k=2),
                                     dict(expr="F=x:5/2,K:-1/2;G=x:19/8,K:1/4", var="K")],
                             ids=["preset", "expr"])
    def test_library_config_writes_the_cli_json(self, tmp_path, cfg):
        lib, argv = tmp_path / "lib.json", tmp_path / "cli.json"
        assert cli.run(cli.RunConfig("optimize", **cfg, output=str(lib))) == 0
        flags = [f"--{name}={value}" for name, value in cfg.items()]
        assert cli.main(["optimize", *flags, "--output", str(argv)]) == 0
        assert lib.read_bytes() == argv.read_bytes()
        assert json.loads(lib.read_text())[0]

    def test_csv_refused_by_out(self):
        with pytest.raises(ValueError, match="^--out must be json, got 'csv'$"):
            cli.RunConfig("optimize", preset="moment-residual", k=2, out_format="csv")

    def test_expr_requires_var(self, capsys):
        code = cli.main(["optimize", "--expr", "F=x:1"])
        assert code == 2

    def test_zero_denominator_exits_2(self):
        proc = run_cli(["optimize", "--expr", "F=x:1/0;G=x:1", "--var", "x"])
        assert proc.returncode == 2
        assert "malformed monomial entry" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestKnbound:
    """knbound prints N times weyl's ratios: one engine pass for every m."""

    @pytest.mark.parametrize("n, m_max, bits", [
        (2, 5, 96), (1000, 200, 96), (150000, 70, 96), (150000, 5, 43)])
    def test_rows_match_exp_sum_and_the_bound(self, monkeypatch, capsys, n, m_max, bits):
        engine = eq._harmonic_sums
        calls = []

        def counting(pts, first, count):
            sums, bounds = engine(pts, first, count)
            calls.append((range(first, first + count), bounds))
            return sums, bounds

        monkeypatch.setattr(eq, "_harmonic_sums", counting)
        code, out = run_capture(["knbound", "--x", str(n), "--m-max", str(m_max),
                                 "--bits", str(bits)], capsys)
        assert code == 0
        assert len(calls) == 1 and calls[0][0] == range(1, m_max + 1)
        monkeypatch.undo()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["m"]) for r in rows] == list(range(1, m_max + 1))
        u = 2.0 ** -53
        for r, engine_err in zip(rows, calls[0][1]):
            m, modulus = int(r["m"]), float(r["modulus"])
            ref = eq.exp_sum(1, n, m, bits)
            assert abs(modulus - ref.modulus) <= engine_err + ref.modulus_err + 4 * u * ref.modulus
            bound = eq.kn_bound(1, n, m)
            assert r["bound"] == repr(bound)
            assert r["ok"] == str(modulus <= bound)
            assert r["prec_bits"] == "53"


def test_main_parses_with_the_one_built_parser(capsys):
    # main and a set-up call share one parser, and parsing leaves it as built
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    argvs = (["moments", "--x", "100", "--k", "3", "--chunk", "7"], ["weyl", "--x", "10"],
             ["optimize", "--preset", "moment-residual"])
    seen = [parser.parse_args(argv) for argv in argvs]
    assert cli.main(["knbound", "--x", "10", "--m-max", "2"]) == 0
    fresh = cli.build_parser.__wrapped__()
    assert [parser.parse_args(argv) for argv in argvs] == seen
    assert [fresh.parse_args(argv) for argv in argvs] == seen
    assert parser.format_help() == fresh.format_help()


class TestOtherCommands:
    def test_fit_rows(self, capsys):
        code, out = run_capture(
            ["fit", "--k", "1", "--xs", "1000,5000,20000", "--chunk", "8192"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["x"]) for r in rows] == [1000, 5000, 20000]
        assert len({r["slope"] for r in rows}) == 1

    def test_exceptional_empty(self, capsys):
        code, out = run_capture(["exceptional", "--x", "20000"], capsys)
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["count"] == "0" and row["members"] == ""

    def test_weyl_and_knbound(self, capsys):
        code, out = run_capture(["knbound", "--x", "2000", "--m-max", "3"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["ok"] == "True" for r in rows)

    def test_env_worker_override(self, tmp_path):
        env = dict(os.environ, CANNONBALL_WORKERS="2")
        proc = run_cli(["moments", "--x", "20000", "--k", "1",
                        "--output", str(tmp_path / "env.csv")], env=env)
        assert proc.returncode == 0
        ref = tmp_path / "ref.csv"
        assert cli.main(["moments", "--x", "20000", "--k", "1", "--output", str(ref)]) == 0
        assert (tmp_path / "env.csv").read_bytes() == ref.read_bytes()

    def test_env_checkpoint_dir(self, tmp_path):
        env = dict(os.environ, CANNONBALL_CHECKPOINT_DIR=str(tmp_path))
        proc = run_cli(["moments", "--x", "50000", "--k", "1", "--chunk", "2048",
                        "--checkpoint", "relative.json", "--checkpoint-every", "10000",
                        "--output", str(tmp_path / "o.csv")], env=env)
        assert proc.returncode == 0
        assert (tmp_path / "relative.json").exists()
