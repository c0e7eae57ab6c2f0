import io
import json
import struct
import subprocess
import sys

import pytest

from conftest import EXAMPLE, EXAMPLE_PNF_A, EXAMPLE_PNF_B
from cornerindex.cli import main
from cornerindex.corner import build_index
from cornerindex.persist import load_index, save_index


@pytest.fixture
def example_file(tmp_path):
    p = tmp_path / "text.txt"
    p.write_text(EXAMPLE + "\n")
    return str(p)


@pytest.fixture
def example_index(tmp_path):
    p = str(tmp_path / "text.cix")
    save_index(build_index(EXAMPLE), p)
    return p


class TestBuild:
    def test_human_fields(self, capsys, example_file, tmp_path):
        out_path = str(tmp_path / "out.cix")
        code = main(["build", "--input", example_file, "--index", out_path])
        assert code == 0
        out = capsys.readouterr().out
        for part in ["n=18", "rho=10", "lmin=4", "lmax=5",
                     "peak_min=4", "peak_max=5", "elapsed_s="]:
            assert part in out
        assert load_index(out_path) == build_index(EXAMPLE)

    def test_tsv(self, capsys, example_file, tmp_path):
        main(["build", "--input", example_file, "--format", "tsv",
              "--index", str(tmp_path / "o.cix")])
        header, values, *_ = capsys.readouterr().out.splitlines()
        assert header.split("\t")[:4] == ["n", "rho", "lmin", "lmax"]
        assert values.split("\t")[:4] == ["18", "10", "4", "5"]

    def test_stdin(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "stdin", io.StringIO("abba\n"))
        assert main(["build", "--input", "-", "--index",
                     str(tmp_path / "o.cix")]) == 0
        assert "n=4" in capsys.readouterr().out

    def test_invalid_character(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("abxba")
        code = main(["build", "--input", str(p), "--index",
                     str(tmp_path / "o.cix")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'x'" in err and "2" in err

    def test_non_ascii_byte(self, capsys, monkeypatch, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"ab\xffab")
        assert main(["build", "--input", str(p), "--index",
                     str(tmp_path / "o.cix")]) == 2
        assert main(["pnf", "--input", str(p)]) == 2
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"a\x80")))
        assert main(["build", "--input", "-", "--index",
                     str(tmp_path / "o.cix")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[:2] == ["error: non-ASCII byte 0xff at byte offset 2"] * 2
        assert err[2] == "error: non-ASCII byte 0x80 at byte offset 1"

    def test_missing_file(self, capsys, tmp_path):
        code = main(["build", "--input", str(tmp_path / "no-such-file"),
                     "--index", str(tmp_path / "o.cix")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_one_alphabet(self, capsys, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("0110100110\n")
        assert main(["build", "--input", str(p), "--alphabet", "01",
                     "--index", str(tmp_path / "o.cix")]) == 0
        assert "n=10" in capsys.readouterr().out

    def test_zero_one_rejects_letters(self, capsys, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("01a10")
        code = main(["build", "--input", str(p), "--alphabet", "01",
                     "--index", str(tmp_path / "o.cix")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'a'" in err and "index 2" in err


class TestQuery:
    def test_human(self, capsys, monkeypatch, example_index):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3 3\n5 1\n0 0\n"))
        assert main(["query", "--index", example_index]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["3 3 occurs", "5 1 not-occurs", "0 0 occurs"]

    def test_tsv_and_file_input(self, capsys, tmp_path, example_index):
        q = tmp_path / "queries.txt"
        q.write_text("3 3\n\n5 1\n")
        code = main(["query", "--index", example_index, "--input", str(q),
                     "--format", "tsv"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["3\t3\t1", "5\t1\t0"]

    def test_jsonl(self, capsys, monkeypatch, example_index):
        monkeypatch.setattr(sys, "stdin", io.StringIO("9 9\n10 0\n"))
        main(["query", "--index", example_index, "--format", "jsonl"])
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert rows == [
            {"x": 9, "y": 9, "occurs": True},
            {"x": 10, "y": 0, "occurs": False},
        ]

    def test_malformed_lines(self, capsys, monkeypatch, example_index):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3 3\nfoo\n1 2 3\n4 4\n"))
        code = main(["query", "--index", example_index])
        captured = capsys.readouterr()
        assert code == 2
        # well-formed lines are still answered
        assert "3 3 occurs" in captured.out
        assert "4 4 occurs" in captured.out
        assert "line 2: malformed query" in captured.err
        assert "line 3: malformed query" in captured.err

    def test_non_ascii_byte(self, capsys, monkeypatch, tmp_path, example_index):
        q = tmp_path / "queries.txt"
        q.write_bytes(b"1 1\n\xff 2\n3 3\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(q.read_bytes())))
        for source in ["-", str(q)]:
            code = main(["query", "--index", example_index, "--input", source])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out.splitlines() == ["1 1 occurs", "3 3 occurs"]
            assert "line 2: malformed query" in captured.err
            assert "\\xff" in captured.err

    def test_negative_coordinates_answer_false(self, capsys, monkeypatch,
                                               example_index):
        monkeypatch.setattr(sys, "stdin", io.StringIO("-1 3\n"))
        assert main(["query", "--index", example_index]) == 0
        assert capsys.readouterr().out.strip() == "-1 3 not-occurs"

    def test_corrupt_index(self, capsys, tmp_path):
        p = tmp_path / "junk.cix"
        p.write_bytes(b"definitely not an index")
        monkeypatch_stdin = io.StringIO("1 1\n")
        sys_stdin = sys.stdin
        try:
            sys.stdin = monkeypatch_stdin
            code = main(["query", "--index", str(p)])
        finally:
            sys.stdin = sys_stdin
        assert code == 2
        assert "bad magic" in capsys.readouterr().err

    def test_huge_entry_count(self, capsys, monkeypatch, example_index):
        # header claims 2^58 l_min entries; only the 68-byte header exists
        with open(example_index, "r+b") as fh:
            fh.seek(36)
            fh.write(struct.pack("<Q", 1 << 58))
            fh.truncate(68)
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 1\n"))
        assert main(["query", "--index", example_index]) == 2
        assert "truncated l_min payload" in capsys.readouterr().err


class TestPnf:
    def test_from_text(self, capsys, example_file):
        assert main(["pnf", "--input", example_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            EXAMPLE_PNF_A, EXAMPLE_PNF_B,
        ]

    def test_from_index(self, capsys, example_index):
        assert main(["pnf", "--index", example_index]) == 0
        assert capsys.readouterr().out.splitlines() == [
            EXAMPLE_PNF_A, EXAMPLE_PNF_B,
        ]

    def test_requires_exactly_one_source(self, capsys, example_file,
                                         example_index):
        assert main(["pnf"]) == 2
        assert main(["pnf", "--input", example_file,
                     "--index", example_index]) == 2
        err = capsys.readouterr().err
        assert err.count("exactly one") == 2

    def test_zero_one_alphabet(self, capsys, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("01101\n")
        assert main(["pnf", "--input", str(p), "--alphabet", "01"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(set(l) <= {"0", "1"} for l in lines)
        assert len(lines) == 2 and all(len(l) == 5 for l in lines)


class TestVerify:
    def test_single_input(self, capsys, example_file):
        assert main(["verify", "--input", example_file]) == 0
        out = capsys.readouterr().out
        for name in ["oracle-grid", "interval-lemma",
                     "run-span-witnesses", "pnf-relations"]:
            assert f"{name}: PASS" in out

    def test_random_batch_deterministic(self, capsys):
        args = ["verify", "--count", "25", "--length", "60", "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "verified 25 strings, 0 failing checks" in first

    def test_geometric_runs(self, capsys):
        assert main(["verify", "--count", "10", "--length", "80",
                     "--run-geometric", "0.2", "--seed", "9"]) == 0
        assert "0 failing checks" in capsys.readouterr().out

    def test_usage_errors(self, capsys, example_file):
        assert main(["verify"]) == 2
        assert main(["verify", "--input", example_file, "--count", "3"]) == 2
        assert main(["verify", "--count", "3"]) == 2
        err = capsys.readouterr().err
        assert "exactly one" in err and "requires --length" in err
        assert main(["verify", "--count", "3", "--length", "0"]) == 2
        assert "--length must be at least 1" in capsys.readouterr().err
        for p in ["0", "1.5", "-0.2"]:
            assert main(["verify", "--count", "3", "--length", "5",
                         "--run-geometric", p]) == 2
            assert "--run-geometric" in capsys.readouterr().err

    def test_oracle_bound_respected(self, capsys, tmp_path):
        p = tmp_path / "long.txt"
        p.write_text("ab" * 40)
        code = main(["verify", "--input", str(p), "--max-oracle-n", "50"])
        assert code == 2
        assert "exceeds the brute-force bound" in capsys.readouterr().err


class TestExperiment:
    def test_fixed_input(self, capsys, example_file):
        assert main(["experiment", "--input", example_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n\trho\tlmin\tlmax\tpeak_min\tpeak_max"
        assert lines[1] == "18\t10\t4\t5\t4\t5"
        assert any(l.startswith("# median_lmin_over_rho") for l in lines)

    def test_random_rows_deterministic(self, capsys):
        args = ["experiment", "--count", "20", "--length", "200", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        rows = [l for l in first.splitlines()
                if l and not l.startswith(("n\t", "#"))]
        assert len(rows) == 20
        for row in rows:
            n, rho_v, lmin, lmax, pmin, pmax = map(int, row.split("\t"))
            assert n == 200
            assert lmin <= pmin and lmax <= pmax

    def test_jsonl(self, capsys):
        assert main(["experiment", "--count", "5", "--length", "64",
                     "--seed", "2", "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [json.loads(l) for l in lines]
        assert sum(1 for r in rows if "summary" in r) == 1
        assert sum(1 for r in rows if "rho" in r) == 5

    def test_bad_length(self, capsys):
        assert main(["experiment", "--count", "3", "--length", "0"]) == 2
        assert "--length" in capsys.readouterr().err
        for p in ["0", "1.5", "nan"]:
            assert main(["experiment", "--count", "3",
                         "--run-geometric", p]) == 2
            assert "--run-geometric" in capsys.readouterr().err


class TestBench:
    def test_fields(self, capsys, example_index):
        assert main(["bench", "--index", example_index, "--count", "500",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        for key in ["queries=500", "occurs=", "not_occurs=",
                    "p50_us=", "p99_us=", "throughput_qps="]:
            assert key in out
        assert main(["bench", "--index", example_index, "--count", "400",
                     "--seed", "4", "--format", "jsonl"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["queries"] == 400
        assert row["occurs"] + row["not_occurs"] == 400


def test_module_entry_point(example_file, tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "cornerindex", "build", "--input", example_file,
         "--index", str(tmp_path / "o.cix")],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "n=18" in out.stdout


def test_large_compressible_build(capsys, tmp_path):
    # a long text with few runs must index quickly and compactly
    p = tmp_path / "big.txt"
    p.write_text(("a" * 5000 + "b" * 5000) * 10)
    out_path = str(tmp_path / "big.cix")
    assert main(["build", "--input", p.as_posix(), "--index", out_path]) == 0
    out = capsys.readouterr().out
    assert "n=100000" in out and "rho=20" in out
    idx = load_index(out_path)
    assert idx.query(5000, 0)
    assert not idx.query(50001, 0)
    assert idx.query(50000, 50000)
