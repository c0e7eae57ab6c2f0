"""Command-line front end.

Subcommands: build, query, pnf, verify, experiment, bench. Exit codes:
0 success, 1 verification failure, 2 usage or input-format error, or input
or output too large for memory. Commands raise their failures and ``main``
alone turns each into a one-line message and exit 2; only ``query``
reports its malformed lines itself, as it answers the others. An input of
``-`` is standard input, which is refused with exit 2 when it is closed or
in non-blocking mode, since a read of it could end before its writer does.
A command whose stdout is closed early ends quietly with exit 0.

A command-line start imports only what its subcommand runs: the
construction sweep is imported by ``build``, ``pnf --input``, ``verify``
and ``experiment``, the brute-force oracle by ``verify``, the prefix
normal forms by ``pnf`` and ``verify``, the random text generators by the
commands that draw texts, and ``json`` by ``experiment --format jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import os
import sys
import time

from .persist import (
    CorruptIndexError,
    IndexFormatError,
    load_index,
    save_index,
)
from .rle import InputFormatError, _check_letters, encode, rho

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

_TO_AB = str.maketrans("01", "ab")
_FROM_AB = str.maketrans("ab", "01")


class _UsageError(Exception):
    """A command line that asks for something out of range; ``main``
    prints the message as it stands and exits 2."""


def _open(path: str):
    """``path`` opened for binary reading, or standard input for ``-``, as a
    context manager that leaves standard input open. Raises OSError for a
    closed standard input and BlockingIOError for a non-blocking one."""
    if path != "-":
        return open(path, "rb")
    if sys.stdin is None:
        raise OSError(errno.EBADF, "standard input is closed")
    src = sys.stdin.buffer
    try:
        blocking = os.get_blocking(src.fileno())
    except (AttributeError, io.UnsupportedOperation):
        blocking = True  # an in-memory stream, which never blocks
    if not blocking:
        raise BlockingIOError(errno.EAGAIN, "standard input is in non-blocking mode")
    return contextlib.nullcontext(src)


def _read_text(path: str, alphabet: str) -> str:
    with _open(path) as src:
        data = src.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"non-ASCII byte 0x{data[exc.start]:02x} at byte offset {exc.start}",
            position=exc.start,
        ) from None
    raw = text.strip()
    # Offsets count from the start of the input, whitespace included.
    _check_letters(raw, alphabet, len(text) - len(text.lstrip()))
    return raw.translate(_TO_AB) if alphabet == "01" else raw


def _map_out(s: str, alphabet: str) -> str:
    return s.translate(_FROM_AB) if alphabet == "01" else s


def _emit(fmt: str, fields: list[tuple[str, object]]) -> None:
    """Print one record of named fields. Each value is an int or a number
    already formatted as text, so jsonl writes it as it stands, a number."""
    if fmt == "jsonl":
        print("{" + ", ".join(f'"{k}": {v}' for k, v in fields) + "}")
    elif fmt == "tsv":
        print("\t".join(k for k, _ in fields))
        print("\t".join(str(v) for _, v in fields))
    else:
        print("  ".join(f"{k}={v}" for k, v in fields))


def _size_fields(rle, index) -> list[tuple[str, int]]:
    """The size statistics ``build`` and ``experiment`` report for one text."""
    return [
        ("n", index.n),
        ("rho", rho(rle)),
        ("lmin", len(index.l_min)),
        ("lmax", len(index.l_max)),
        ("peak_min", index.peak_min),
        ("peak_max", index.peak_max),
    ]


def cmd_build(args) -> int:
    from .build import index_from_rle

    text = _read_text(args.input, args.alphabet)
    t0 = time.perf_counter()
    rle = encode(text)
    index = index_from_rle(rle)
    elapsed = time.perf_counter() - t0
    written = save_index(index, args.index)
    fields = _size_fields(rle, index) + [("bytes", written), ("elapsed_s", f"{elapsed:.3f}")]
    _emit(args.format, fields)
    return EXIT_OK


# Most bytes of query input read at a time.
_QUERY_CHUNK = 1 << 16


def _write_answers(index, fmt: str, xs: list[int], ys: list[int]) -> None:
    """Answer the queries (x, y) of ``zip(xs, ys)`` on stdout, one line
    each, in one write, and flush it."""
    if not xs:
        return
    pairs = zip(xs, ys, index.query_many(xs, ys))
    if fmt == "jsonl":
        w = ("false", "true")
        lines = [f'{{"x": {x}, "y": {y}, "occurs": {w[v]}}}' for x, y, v in pairs]
    elif fmt == "tsv":
        lines = [f"{x}\t{y}\t{v:d}" for x, y, v in pairs]
    else:
        w = ("not-occurs", "occurs")
        lines = [f"{x} {y} {w[v]}" for x, y, v in pairs]
    lines.append("")
    sys.stdout.write("\n".join(lines))
    sys.stdout.flush()


def _answer_lines(index, fmt: str, text: bytes, first: int) -> int:
    """Answer the query lines of ``text``, complete lines that each end in a
    newline, the first of them numbered ``first``; return how many were
    malformed. Blank lines are skipped. Each malformed line is reported on
    stderr after the answers to the lines before it."""
    xs: list[int] = []
    ys: list[int] = []
    bad = 0
    for lineno, line in enumerate(text.split(b"\n")[:-1], start=first):
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) != 2:
                raise ValueError("expected two integers")
            x, y = int(parts[0]), int(parts[1])
        except ValueError as exc:
            bad += 1
            _write_answers(index, fmt, xs, ys)
            xs, ys = [], []
            print(f"line {lineno}: malformed query ({exc})", file=sys.stderr)
            continue
        xs.append(x)
        ys.append(y)
    _write_answers(index, fmt, xs, ys)
    return bad


def cmd_query(args) -> int:
    index = load_index(args.index)
    # Lines stay bytes, which int() parses, so a non-ASCII byte makes its
    # line malformed instead of failing the decoding of the whole stream.
    lineno = 1
    bad_lines = 0
    pending: list[bytes] = []  # pieces of the line no chunk has ended yet
    with _open(args.input) as src:
        # Answer whatever complete lines are available, so that a pipe gets
        # its answers before it is closed; a line cut by the chunk end waits
        # for the next.
        while chunk := src.read1(_QUERY_CHUNK):
            lines, newline, cut = chunk.rpartition(b"\n")
            if newline:
                text = b"".join([*pending, lines, newline])
                bad_lines += _answer_lines(index, args.format, text, lineno)
                lineno += text.count(b"\n")
                pending = []
            pending.append(cut)
    # The last line, answered here, needs no newline.
    bad_lines += _answer_lines(index, args.format, b"".join([*pending, b"\n"]), lineno)
    return EXIT_USAGE if bad_lines else EXIT_OK


def cmd_pnf(args) -> int:
    from .pnf import pnf_from_index

    if (args.input is None) == (args.index is None):
        raise _UsageError("pnf: provide exactly one of --input or --index")
    if args.input is not None:
        from .build import build_index

        index = build_index(_read_text(args.input, args.alphabet))
    else:
        index = load_index(args.index)
    pair = pnf_from_index(index)
    print(_map_out(pair.pnf_a, args.alphabet))
    print(_map_out(pair.pnf_b, args.alphabet))
    return EXIT_OK


def _corpus(args, draw_lengths: bool) -> list[str]:
    """The texts ``verify`` or ``experiment`` reads: the --input text, or
    --count random ones of --length characters, or of a length drawn in
    1..--length each when ``draw_lengths``. Characters are fair coin flips,
    or alternating runs with --run-geometric. Raises _UsageError when the
    count, the length or the run parameter is out of range."""
    if args.input is not None:
        return [_read_text(args.input, args.alphabet)]
    command, p = args.command, args.run_geometric
    if args.count < 1:
        raise _UsageError(f"{command}: --count must be at least 1")
    if args.length < 1:
        raise _UsageError(f"{command}: --length must be at least 1")
    if p is not None and not 0.0 < p <= 1.0:
        raise _UsageError(f"{command}: --run-geometric must be in (0, 1], got {p}")
    import random

    from .textgen import coin_string, geometric_run_string

    rng = random.Random(args.seed)
    texts = []
    for _ in range(args.count):
        length = rng.randint(1, args.length) if draw_lengths else args.length
        if p is None:
            texts.append(coin_string(rng, length))
        else:
            texts.append(geometric_run_string(rng, length, p))
    return texts


def _verify_one(text: str, max_n: int) -> list[tuple[str, bool]]:
    from .build import build_index
    from .oracle import lemma1_witness_check, parikh_set_bruteforce, verify_interval_lemma
    from .pnf import pnf_from_index, verify_pnf_relations

    index = build_index(text)
    pi = parikh_set_bruteforce(text, max_n)
    grid_ok = all(
        index.query(x, y) == ((x, y) in pi)
        for x in range(index.total_a + 2)
        for y in range(index.total_b + 2)
    )
    checks = [("oracle-grid", grid_ok)]
    checks.append(("interval-lemma", verify_interval_lemma(text, max_n)))
    checks.append(("run-span-witnesses", lemma1_witness_check(text, max_n)))
    checks.append(("pnf-relations", verify_pnf_relations(index, pnf_from_index(index))))
    return checks


def cmd_verify(args) -> int:
    from .oracle import DEFAULT_MAX_TEXT

    if (args.input is None) == (args.count is None):
        raise _UsageError("verify: provide exactly one of --input or --count")
    if args.input is None and args.length is None:
        raise _UsageError("verify: --count requires --length")
    if args.max_oracle_n is not None and args.max_oracle_n < 0:
        raise _UsageError("verify: --max-oracle-n must be at least 0")
    texts = _corpus(args, draw_lengths=True)
    max_n = DEFAULT_MAX_TEXT if args.max_oracle_n is None else args.max_oracle_n
    failures = 0
    for i, text in enumerate(texts):
        for name, ok in _verify_one(text, max_n):
            if not ok:
                failures += 1
                print(f"string {i}: {name}: FAIL")
            elif len(texts) == 1:
                print(f"{name}: PASS")
    if len(texts) > 1:
        print(f"verified {len(texts)} strings, {failures} failing checks")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def cmd_experiment(args) -> int:
    from .build import index_from_rle

    texts = _corpus(args, draw_lengths=False)
    rows = [dict(_size_fields(rle, index_from_rle(rle))) for rle in map(encode, texts)]
    if args.format == "jsonl":
        import json

        for row in rows:
            print(json.dumps(row))
    else:
        print("\t".join(rows[0]))
        for row in rows:
            print("\t".join(str(v) for v in row.values()))
    from statistics import median

    ratios_min = [r["lmin"] / r["rho"] for r in rows if r["rho"]]
    ratios_max = [r["lmax"] / r["rho"] for r in rows if r["rho"]]
    peak_ratio_min = [r["peak_min"] / r["lmin"] for r in rows]
    peak_ratio_max = [r["peak_max"] / r["lmax"] for r in rows]
    summary = {
        "median_lmin_over_rho": median(ratios_min) if ratios_min else None,
        "median_lmax_over_rho": median(ratios_max) if ratios_max else None,
        "median_peak_over_final_min": median(peak_ratio_min),
        "median_peak_over_final_max": median(peak_ratio_max),
    }
    if args.format == "jsonl":
        print(json.dumps({"summary": summary}))
    else:
        for key, value in summary.items():
            shown = "NA" if value is None else f"{value:.4f}"
            print(f"# {key}\t{shown}")
    return EXIT_OK


def cmd_bench(args) -> int:
    import random

    if args.count < 1:
        raise _UsageError("bench: --count must be at least 1")
    index = load_index(args.index)
    rng = random.Random(args.seed)
    queries = [
        (rng.randint(0, index.total_a), rng.randint(0, index.total_b))
        for _ in range(args.count)
    ]
    xs = [x for x, _ in queries]
    ys = [y for _, y in queries]
    # Throughput comes from one batched pass; the per-call pass, whose own
    # timer calls would weigh on a throughput figure, gives the latencies.
    t0 = time.perf_counter()
    hits = sum(index.query_many(xs, ys))
    wall = time.perf_counter() - t0
    timer = time.perf_counter_ns
    latencies = []
    for x, y in queries:
        q0 = timer()
        index.query(x, y)
        latencies.append(timer() - q0)
    latencies.sort()

    def pct(p: float) -> float:
        k = min(len(latencies) - 1, int(p / 100.0 * len(latencies)))
        return latencies[k] / 1000.0

    fields = [
        ("queries", len(queries)),
        ("occurs", hits),
        ("not_occurs", len(queries) - hits),
        ("p50_us", f"{pct(50):.3f}"),
        ("p90_us", f"{pct(90):.3f}"),
        ("p99_us", f"{pct(99):.3f}"),
        ("max_us", f"{latencies[-1] / 1000.0:.3f}"),
        ("throughput_qps", f"{(len(queries) / wall) if wall > 0 else 0.0:.0f}"),
        ("elapsed_s", f"{wall:.4f}"),
    ]
    _emit(args.format, fields)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    if "alphabet" in flags:
        p.add_argument("--alphabet", choices=("ab", "01"), default="ab",
                       help="letter pair used in text input/output")
    if "format" in flags:
        p.add_argument("--format", choices=("human", "tsv", "jsonl"),
                       default="human", help="output format")
    if "seed" in flags:
        p.add_argument("--seed", type=int, default=0,
                       help="random seed; fully determines generated inputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornerindex",
        description="Index a binary string for jumbled (letter-count) "
        "substring queries, using corner lists built from its run-length "
        "encoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index from text")
    p.add_argument("--input", required=True, help="text file, or - for stdin")
    p.add_argument("--index", required=True, help="output index path")
    _add_common(p, "alphabet", "format")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer 'x y' query lines")
    p.add_argument("--index", required=True, help="index file to load")
    p.add_argument("--input", default="-", help="query lines, or - for stdin")
    _add_common(p, "format")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("pnf", help="print both prefix normal forms")
    p.add_argument("--input", help="text file, or - for stdin")
    p.add_argument("--index", help="previously built index")
    _add_common(p, "alphabet")
    p.set_defaults(func=cmd_pnf)

    p = sub.add_parser("verify", help="cross-check the index against brute force")
    p.add_argument("--input", help="text file, or - for stdin")
    p.add_argument("--count", type=int, help="number of random strings instead")
    p.add_argument("--length", type=int, help="max length of random strings")
    p.add_argument("--run-geometric", type=float, metavar="P",
                   help="draw run lengths geometrically with parameter P")
    # None stands for the oracle's own bound, which only verify imports.
    p.add_argument("--max-oracle-n", type=int,
                   help="refuse brute-force work beyond this text length")
    _add_common(p, "alphabet", "seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="tabulate list sizes over random strings")
    p.add_argument("--count", type=int, default=100,
                   help="number of random strings (default: %(default)s)")
    p.add_argument("--length", type=int, default=1024,
                   help="length of each random string (default: %(default)s)")
    p.add_argument("--run-geometric", type=float, metavar="P",
                   help="draw run lengths geometrically with parameter P")
    p.add_argument("--input", help="fixed text file instead of random strings")
    _add_common(p, "alphabet", "format", "seed")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bench", help="time random queries against an index")
    p.add_argument("--index", required=True, help="index file to load")
    p.add_argument("--count", type=int, default=10000,
                   help="number of random queries (default: %(default)s)")
    _add_common(p, "format", "seed")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: stop quietly. fd 1
        # then points at the null device, so the final flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except _UsageError as exc:
        print(exc, file=sys.stderr)
    except (InputFormatError, IndexFormatError, CorruptIndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
