import hashlib
import io
import json
import os
import random
import re
import struct
import subprocess
import sys
import threading
import types

import pytest

from conftest import EXAMPLE, EXAMPLE_PNF_A, EXAMPLE_PNF_B, cix_bytes
from cornerindex import build, cli
from cornerindex.build import build_index
from cornerindex.cli import main
from cornerindex.corner import CornerIndex, CornerList, CorruptIndexError
from cornerindex.oracle import TextTooLongError
from cornerindex.persist import load_index, save_index, serialize
from cornerindex.rle import InputFormatError, RunLengthEncoding
from cornerindex.textgen import coin_string


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


def _reference_query(index, data: bytes, fmt: str):
    """stdout, stderr lines and exit code of the per-line query loop that
    the batched one replaced, and both streams merged in the order that
    loop wrote them."""
    out, err, merged = [], [], []
    for lineno, line in enumerate(io.BytesIO(data), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError("expected two integers")
            x, y = int(parts[0]), int(parts[1])
        except ValueError as exc:
            err.append(f"line {lineno}: malformed query ({exc})")
            merged.append(err[-1] + "\n")
            continue
        v = index.query(x, y)
        if fmt == "jsonl":
            out.append(json.dumps({"x": x, "y": y, "occurs": v}) + "\n")
        elif fmt == "tsv":
            out.append(f"{x}\t{y}\t{int(v)}\n")
        else:
            out.append(f"{x} {y} {'occurs' if v else 'not-occurs'}\n")
        merged.append(out[-1])
    return "".join(out), err, 2 if err else 0, "".join(merged)


def _query_corpus(index, chunk: int) -> bytes:
    """20,000 seeded query lines, most of them plain "x y" in and out of
    range. The first chunk starts and ends on a malformed line of integers,
    one and three of them, the second starts inside a malformed line and
    goes on with another; around the second boundary sit a
    CRLF line, a blank line cut by the boundary and well-formed lines that
    are not plain. The last line has no newline."""
    rng = random.Random(11)

    def plain() -> bytes:
        return b"%d %d\n" % (rng.randint(-2, index.total_a + 2),
                             rng.randint(-2, index.total_b + 2))

    data = bytearray(b"7\n")
    for boundary, (first, straddling, after) in [
        (chunk, (b"1 2 3", b"12 foo\n", b"\xff 1\n")),
        (2 * chunk, (b"3 4\r", b"   \n", b"+5 007\r\n1_0 2\n\t7\t8 \n")),
    ]:
        while boundary - len(data) > 40:
            data += plain()
        # first ends 3 bytes before the boundary, straddling starts there
        data += first + b" " * (boundary - len(data) - len(first) - 4) + b"\n"
        data += straddling + after
    while data.count(b"\n") < 19_999:
        data += plain()
    return bytes(data) + plain().rstrip(b"\n")


def _stdin(data: bytes):
    """A stand-in for sys.stdin whose bytes are ``data``."""
    return types.SimpleNamespace(buffer=io.BytesIO(data))


class _Pieces:
    """A byte stream whose read1 hands out its data in seeded random pieces
    of 1 to ``most`` bytes, as a pipe does."""

    def __init__(self, data: bytes, seed: int, most: int = 5000):
        self.data, self.pos, self.rng, self.most = data, 0, random.Random(seed), most

    def read1(self, n: int) -> bytes:
        end = self.pos + min(n, self.rng.randint(1, self.most))
        piece, self.pos = self.data[self.pos:end], end
        return piece


class TestBuild:
    def test_human_fields(self, capsys, example_file, tmp_path):
        out_path = str(tmp_path / "out.cix")
        code = main(["build", "--input", example_file, "--index", out_path])
        assert code == 0
        out = capsys.readouterr().out
        for part in ["n=18", "rho=10", "lmin=4", "lmax=5",
                     "peak_min=4", "peak_max=5", "bytes=43", "elapsed_s="]:
            assert part in out
        assert load_index(out_path) == build_index(EXAMPLE)
        assert os.path.getsize(out_path) == 43

    def test_tsv(self, capsys, example_file, tmp_path):
        main(["build", "--input", example_file, "--format", "tsv",
              "--index", str(tmp_path / "o.cix")])
        header, values, *_ = capsys.readouterr().out.splitlines()
        assert header.split("\t") == ["n", "rho", "lmin", "lmax", "peak_min",
                                      "peak_max", "bytes", "elapsed_s"]
        assert values.split("\t")[:7] == ["18", "10", "4", "5", "4", "5", "43"]

    def test_jsonl_bytes(self, capsys, example_file, tmp_path):
        main(["build", "--input", example_file, "--format", "jsonl",
              "--index", str(tmp_path / "o.cix")])
        out = capsys.readouterr().out
        head, elapsed = out.split(', "elapsed_s": ')
        assert head == ('{"n": 18, "rho": 10, "lmin": 4, "lmax": 5, '
                        '"peak_min": 4, "peak_max": 5, "bytes": 43')
        assert re.fullmatch(r'"\d+\.\d{3}"}\n', elapsed)

    def test_stdin(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "stdin", _stdin(b"abba\n"))
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
        monkeypatch.setattr(sys, "stdin", _stdin(b"a\x80"))
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

    @pytest.mark.parametrize("alphabet, text, letters", [
        ("ab", "  \nabxba", "'a' or 'b'"),
        ("01", "  \n01x10", "'0' or '1'"),
    ])
    def test_invalid_character_offset_counts_leading_whitespace(
        self, capsys, tmp_path, alphabet, text, letters
    ):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        commands = (["build", "--index", str(tmp_path / "o.cix")], ["pnf"],
                    ["verify"], ["experiment"])
        for command in commands:
            assert main([*command, "--input", str(p), "--alphabet", alphabet]) == 2
        # the 'x' is byte 5 of the file
        expected = f"error: invalid character 'x' at index 5; expected {letters}"
        assert capsys.readouterr().err.splitlines() == [expected] * len(commands)


class TestQuery:
    def test_human(self, capsys, monkeypatch, example_index):
        monkeypatch.setattr(sys, "stdin", _stdin(b"3 3\n5 1\n0 0\n"))
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
        monkeypatch.setattr(sys, "stdin", _stdin(b"9 9\n10 0\n"))
        main(["query", "--index", example_index, "--format", "jsonl"])
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert rows == [
            {"x": 9, "y": 9, "occurs": True},
            {"x": 10, "y": 0, "occurs": False},
        ]

    def test_malformed_lines(self, capsys, monkeypatch, example_index):
        monkeypatch.setattr(sys, "stdin", _stdin(b"3 3\nfoo\n1 2 3\n4 4\n"))
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
        monkeypatch.setattr(sys, "stdin", _stdin(q.read_bytes()))
        for source in ["-", str(q)]:
            code = main(["query", "--index", example_index, "--input", source])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out.splitlines() == ["1 1 occurs", "3 3 occurs"]
            assert "line 2: malformed query" in captured.err
            assert "\\xff" in captured.err

    @pytest.mark.parametrize("fmt", ["human", "tsv", "jsonl"])
    def test_batches_match_per_line_loop(self, capsys, monkeypatch, tmp_path, fmt):
        index = build_index(coin_string(random.Random(5), 3000))
        path = str(tmp_path / "big.cix")
        save_index(index, path)
        data = _query_corpus(index, cli._QUERY_CHUNK)
        assert len(data) > 2 * cli._QUERY_CHUNK
        q = tmp_path / "queries.txt"
        q.write_bytes(data)
        out, err, code, _ = _reference_query(index, data, fmt)
        assert len(err) == 4 and out.count("\n") == 20_000 - 4 - 1  # one blank line
        # pieces of at most 3 bytes: most hold no newline, so lines span pieces
        for source, most in [(str(q), 5000), ("-", 5000), ("-", 3)]:
            monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=_Pieces(data, 3, most)))
            got = main(["query", "--index", path, "--input", source, "--format", fmt])
            captured = capsys.readouterr()
            assert captured.out == out
            assert captured.err.splitlines() == err
            assert got == code

    def test_errors_between_answers(self, tmp_path):
        # both streams into one pipe: each error sits after the answers to
        # the lines before it, as the per-line loop wrote them; with its own
        # buffering, the child keeps that order only by flushing
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        index = build_index(coin_string(random.Random(5), 3000))
        path = str(tmp_path / "big.cix")
        save_index(index, path)
        q = tmp_path / "queries.txt"
        for data in [b"3 3\nfoo\n5 1\n1 2 3\n0 0\n",
                     _query_corpus(index, cli._QUERY_CHUNK)]:
            q.write_bytes(data)
            *_, code, merged = _reference_query(index, data, "human")
            child = subprocess.run(
                [sys.executable, "-m", "cornerindex", "query", "--index", path,
                 "--input", str(q)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
                timeout=60,
            )
            assert child.stdout.decode() == merged
            assert child.returncode == code

    def test_answers_before_end_of_input(self, example_index):
        # with its own buffering, the child's answers wait for its flushes
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        child = subprocess.Popen(
            [sys.executable, "-m", "cornerindex", "query", "--index", example_index],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        first = []
        reader = threading.Thread(target=lambda: first.append(child.stdout.readline()))
        try:
            child.stdin.write(b"3 3\n5 ")
            child.stdin.flush()
            reader.start()
            reader.join(timeout=10)
            assert first == [b"3 3 occurs\n"]
            child.stdin.write(b"1\n")
            child.stdin.close()
            assert child.stdout.read() == b"5 1 not-occurs\n"
            assert child.wait(timeout=10) == 0
        finally:
            child.kill()
            child.wait()
            child.stdout.close()

    def test_negative_coordinates_answer_false(self, capsys, monkeypatch,
                                               example_index):
        monkeypatch.setattr(sys, "stdin", _stdin(b"-1 3\n"))
        assert main(["query", "--index", example_index]) == 0
        assert capsys.readouterr().out.strip() == "-1 3 not-occurs"

    def test_corrupt_index(self, capsys, tmp_path):
        p = tmp_path / "junk.cix"
        p.write_bytes(b"definitely not an index")
        monkeypatch_stdin = _stdin(b"1 1\n")
        sys_stdin = sys.stdin
        try:
            sys.stdin = monkeypatch_stdin
            code = main(["query", "--index", str(p)])
        finally:
            sys.stdin = sys_stdin
        assert code == 2
        assert "bad magic" in capsys.readouterr().err

    def test_huge_entry_count(self, capsys, monkeypatch, example_index):
        # a header with 8-byte fields claims 2^58 l_min entries; only the
        # 49-byte header, width bytes included, exists
        with open(example_index, "r+b") as fh:
            fh.seek(12)
            fh.write(bytes([8, 1, 1, 1, 1]) + struct.pack("<4Q", 1 << 58, 5, 4, 5))
            fh.truncate(49)
        monkeypatch.setattr(sys, "stdin", _stdin(b"1 1\n"))
        assert main(["query", "--index", example_index]) == 2
        assert "truncated l_min payload" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["query"], ["bench", "--count", "5"], ["pnf"]])
def test_crossed_index(capsys, monkeypatch, tmp_path, command):
    # a sealed file whose lists cross: bmin(2) = 3 > bmax(2) = 2
    p = tmp_path / "crossed.cix"
    p.write_bytes(cix_bytes(4, 7, 3, 4, [(1, 0), (2, 3), (3, 4)], [(0, 2), (3, 4)], 3, 2))
    monkeypatch.setattr(sys, "stdin", _stdin(b"1 1\n"))
    assert main([*command, "--index", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: corner lists cross: bmin(2) = 3 > bmax(2) = 2\n"


# Every way a command fails: its arguments, and what it must print on
# stderr; "{dir}" stands for the directory of the failure_files fixture.
_FAILURES = {
    "pnf-sources": (["pnf"], "pnf: provide exactly one of --input or --index"),
    "count": (["experiment", "--count", "0"], "experiment: --count must be at least 1"),
    "length": (["verify", "--count", "3", "--length", "0"],
               "verify: --length must be at least 1"),
    "run-geometric": (["experiment", "--run-geometric", "1.5"],
                      "experiment: --run-geometric must be in (0, 1], got 1.5"),
    "verify-sources": (["verify"], "verify: provide exactly one of --input or --count"),
    "verify-length": (["verify", "--count", "3"], "verify: --count requires --length"),
    "bench-count": (["bench", "--index", "{dir}/text.cix", "--count", "0"],
                    "bench: --count must be at least 1"),
    # refused before the text is read, so the missing file is not opened
    "oracle-bound-negative": (
        ["verify", "--input", "{dir}/missing.txt", "--max-oracle-n", "-5"],
        "verify: --max-oracle-n must be at least 0"),
    "oracle-bound": (["verify", "--input", "{dir}/long.txt"],
                     "error: text of length 5000 exceeds the brute-force bound 4096"),
    "missing-index": (["query", "--index", "{dir}/missing.cix"],
                      "error: [Errno 2] No such file or directory: '{dir}/missing.cix'"),
    "truncated": (["pnf", "--index", "{dir}/short.cix"], "error: truncated checksum"),
    "crossed": (["pnf", "--index", "{dir}/crossed.cix"],
                "error: corner lists cross: bmin(2) = 3 > bmax(2) = 2"),
    # a few bytes that claim a text of 2^60 or 2^63 characters
    "pnf-2^60": (["pnf", "--index", "{dir}/2^60.cix"], "error: out of memory"),
    "pnf-2^63": (["pnf", "--index", "{dir}/2^63.cix"], "error: out of memory"),
}


@pytest.fixture
def failure_files(tmp_path):
    (tmp_path / "long.txt").write_text("a" * 2500 + "b" * 2500)
    save_index(build_index(EXAMPLE), str(tmp_path / "text.cix"))
    (tmp_path / "short.cix").write_bytes((tmp_path / "text.cix").read_bytes()[:-3])
    (tmp_path / "crossed.cix").write_bytes(
        cix_bytes(4, 7, 3, 4, [(1, 0), (2, 3), (3, 4)], [(0, 2), (3, 4)], 3, 2))
    for e in (60, 63):
        (tmp_path / f"2^{e}.cix").write_bytes(cix_bytes(4, 0, 0, 0, [(2**e, 0)], [(0, 1)], 1, 1))
    return str(tmp_path)


@pytest.mark.parametrize("argv, message", _FAILURES.values(), ids=_FAILURES)
def test_every_failure_leaves_through_main(capsys, monkeypatch, failure_files, argv, message):
    monkeypatch.setattr(sys, "stdin", _stdin(b"1 1\n"))
    assert main([arg.format(dir=failure_files) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message.format(dir=failure_files) + "\n"


def test_failures_are_named_for_main():
    # main reports an InputFormatError or a CorruptIndexError as one line
    assert issubclass(TextTooLongError, InputFormatError)
    with pytest.raises(CorruptIndexError, match="l_max does not start at a-count zero"):
        CornerIndex(CornerList([(1, 0)]), CornerList([(1, 1)]))


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
        for count in ["0", "-3"]:
            assert main(["verify", "--count", count, "--length", "5"]) == 2
            assert "--count must be at least 1" in capsys.readouterr().err
        for p in ["0", "1.5", "-0.2"]:
            assert main(["verify", "--count", "3", "--length", "5",
                         "--run-geometric", p]) == 2
            assert "--run-geometric" in capsys.readouterr().err

    def test_failing_checks(self, capsys, monkeypatch, example_file):
        # an index of another text: its grid disagrees with the oracle,
        # while the checks that read only the text still pass
        other = build_index("b" * 60)
        monkeypatch.setattr(build, "build_index", lambda text: other)
        assert main(["verify", "--input", example_file]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "string 0: oracle-grid: FAIL", "interval-lemma: PASS",
            "run-span-witnesses: PASS", "pnf-relations: PASS"]
        assert main(["verify", "--count", "5", "--length", "12", "--seed", "3"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [f"string {i}: oracle-grid: FAIL" for i in range(5)] + [
            "verified 5 strings, 5 failing checks"]

    def test_oracle_bound_respected(self, capsys, tmp_path):
        p = tmp_path / "long.txt"
        p.write_text("ab" * 40)
        code = main(["verify", "--input", str(p), "--max-oracle-n", "50"])
        assert code == 2
        assert "exceeds the brute-force bound" in capsys.readouterr().err

    def test_negative_oracle_bound_refused(self, capsys, tmp_path):
        # a bound below 0 is a usage error, while 0 admits the empty text
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["verify", "--input", str(empty), "--max-oracle-n", "-5"]) == 2
        assert capsys.readouterr().err == "verify: --max-oracle-n must be at least 0\n"
        assert main(["verify", "--input", str(empty), "--max-oracle-n", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "oracle-grid: PASS", "interval-lemma: PASS",
            "run-span-witnesses: PASS", "pnf-relations: PASS"]


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
        for count in ["0", "-2"]:
            assert main(["experiment", "--count", count, "--length", "5",
                         "--format", "jsonl"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--count must be at least 1" in captured.err
        for p in ["0", "1.5", "nan"]:
            assert main(["experiment", "--count", "3",
                         "--run-geometric", p]) == 2
            assert "--run-geometric" in capsys.readouterr().err


# SHA-256 digests of what one seeded corpus makes each command do: the
# stdout of `experiment --format jsonl`, and the texts `verify` checks,
# joined by newlines. verify draws each length in 1..--length, experiment
# uses --length itself.
_CORPUS = ["--count", "30", "--length", "400", "--seed", "5"]
_PINNED_DRAWS = {
    "coin": ([], "e784f2b7eaed7e87cb3e12cc23e38c1248d34c37fa8f859ea667a430335152eb",
             "810456756e290221502a32d4b90a00abe8dd9eba1629a3ad9ef70959ca3c1643"),
    "geometric": (["--run-geometric", "0.3"],
                  "5d3d8396c8ba9c82080f2ecf665940042e57997cddf37702e8c10812e901c658",
                  "0b955856c24981b25e524ea408a43e4ba12fba01bca397dbbf0c5b46c750208d"),
}


@pytest.mark.parametrize("kind", _PINNED_DRAWS)
def test_random_corpora_are_pinned(capsys, monkeypatch, kind):
    extra, experiment_digest, verify_digest = _PINNED_DRAWS[kind]
    assert main(["experiment", *_CORPUS, "--format", "jsonl", *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == experiment_digest
    seen = []
    monkeypatch.setattr(cli, "_verify_one", lambda text, _: seen.append(text) or [])
    assert main(["verify", *_CORPUS, *extra]) == 0
    assert capsys.readouterr().out == "verified 30 strings, 0 failing checks\n"
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == verify_digest


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
        index = load_index(example_index)
        rng = random.Random(4)
        hits = sum(index.query(rng.randint(0, index.total_a),
                               rng.randint(0, index.total_b)) for _ in range(400))
        assert row["occurs"] == hits

    def test_count_below_one(self, capsys, example_index):
        for count in ["0", "-5"]:
            assert main(["bench", "--index", example_index, "--count", count]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "bench: --count must be at least 1\n"


def test_module_entry_point(example_file, tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "cornerindex", "build", "--input", example_file,
         "--index", str(tmp_path / "o.cix")],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "n=18" in out.stdout


@pytest.mark.parametrize("command", ["query", "pnf"])
def test_closed_stdout_ends_quietly(tmp_path, command):
    # A reader that stops after one line, as `| head -n 1` does: the
    # child's next write meets a closed pipe, and it ends with exit 0 and
    # nothing on stderr. Real children, since pytest owns fd 1.
    path = str(tmp_path / "long.cix")
    save_index(build.index_from_rle(RunLengthEncoding((300_000, 7), (3, 300_000))), path)
    argv = ["pnf", "--index", path]
    if command == "query":
        queries = tmp_path / "queries.txt"
        queries.write_text("1 1\n" * 200_000)
        argv = ["query", "--index", path, "--input", str(queries)]
    with subprocess.Popen([sys.executable, "-m", "cornerindex", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline()
        child.stdout.close()
        assert child.wait(timeout=60) == 0
        assert child.stderr.read() == b""


@pytest.mark.parametrize("stdin", ["nothing-ready", "partly-ready", "closed"])
@pytest.mark.parametrize("command", ["query", "pnf"])
def test_unreadable_stdin_is_refused(example_index, command, stdin):
    # A non-blocking pipe ends a read early with what it holds, so the
    # child would answer a prefix of its input; a closed stdin has no
    # stream at all. Both are refused before any output. The writer's end
    # stays open until the child exits, so it never sees the end of input.
    argv = [sys.executable, "-m", "cornerindex"]
    argv += ["query", "--index", example_index] if command == "query" else ["pnf", "--input", "-"]
    if stdin == "closed":
        child = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", *argv],
                               capture_output=True, timeout=60)
    else:
        r, w = os.pipe()
        try:
            os.set_blocking(r, False)
            if stdin == "partly-ready":
                os.write(w, {"query": b"3 3\n", "pnf": b"aaab"}[command])
            child = subprocess.run(argv, stdin=r, capture_output=True, timeout=60)
        finally:
            os.close(r)
            os.close(w)
    assert child.returncode == 2
    assert child.stdout == b""
    err = child.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "standard input" in err[0]


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


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
import cornerindex
from cornerindex.cli import main
index = cornerindex.load_index(sys.argv[1])
assert index.query(3, 3) and index.query_many([3], [3]) == [True]
for args in (["query", "--index", sys.argv[1], "--input", sys.argv[2]],
             ["pnf", "--index", sys.argv[1]],
             ["bench", "--index", sys.argv[1], "--count", "100"],
             ["build", "--input", sys.argv[3], "--index", sys.argv[4]]):
    assert main(args) == 0, args
"""

_LAZY_NUMPY = """
import sys
from cornerindex.cli import main
assert "numpy" not in sys.modules
assert main(["build", "--input", sys.argv[1], "--index", sys.argv[2]]) == 0
assert "numpy" in sys.modules
"""


def test_serving_never_imports_numpy(tmp_path, example_index):
    queries = tmp_path / "queries.txt"
    queries.write_text("3 3\n5 1\n")
    small = "ab" * 31  # 31 run pairs, 496 spans: one block
    assert 31 * 32 // 2 <= build._BLOCK
    (tmp_path / "small.txt").write_text(small)
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, example_index, str(queries),
         str(tmp_path / "small.txt"), str(tmp_path / "small.cix")],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[:4] == [
        "3 3 occurs", "5 1 not-occurs", EXAMPLE_PNF_A, EXAMPLE_PNF_B,
    ]
    assert load_index(str(tmp_path / "small.cix")) == build_index(small)


def test_block_sweep_imports_numpy_itself(tmp_path):
    text = coin_string(random.Random(8), 400)  # about 100 run pairs
    (tmp_path / "text.txt").write_text(text)
    out = subprocess.run(
        [sys.executable, "-c", _LAZY_NUMPY, str(tmp_path / "text.txt"),
         str(tmp_path / "text.cix")],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    sink = io.BytesIO()
    serialize(build_index(text), sink)
    assert (tmp_path / "text.cix").read_bytes() == sink.getvalue()
