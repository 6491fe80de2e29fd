"""Command-line interface.

Subcommands: ``gen`` writes a sequence prefix as a plain stream,
``compress`` / ``decompress`` convert between plain and coded streams,
``ratio`` measures the compression-ratio series into CSV, ``verify`` runs
the self-check suites, and ``bound`` tabulates the closed-form ratio bound
with its exact integer verdict.  Exit status: 0 success, 1 verification
failure, 2 usage or I/O error.  The console script :func:`main` freezes the
garbage collector once the command returns, so the process ends without the
exit-time collection over every object the imports made.

``gen``, ``compress`` and ``decompress`` move their files in chunks
(:func:`~pdtcomp.streamio.read_chunks`, :func:`~pdtcomp.streamio.write_chunks`):
``gen`` writes each segment as it is built, and ``compress`` and
``decompress``, one option set and one handler (:func:`_cmd_convert`) that
differ only by the input role, feed each chunk through one codec session and
write its output at once.  So ``gen`` holds one segment, and ``compress`` and
``decompress`` a chunk and the session's stack, never the file.  An output
file is replaced only once it is complete (:func:`_write_output`).  ``-``
names standard input for ``--in`` and standard output for ``--out`` and
``--csv`` (:func:`_opened`).  The ``ratio`` CSV's columns are named and
filled in one place, :func:`_csv_row`.  ``ratio``'s summary on standard
error gives the final rho with its exact verdict against 1 from
:func:`~pdtcomp.analysis.rate_below`, and the certificate p/q, a fraction
between out_len/prefix_len and log k / log(k + 2).

``gen``, ``compress`` and ``decompress`` load only :mod:`~pdtcomp.codec`,
:mod:`~pdtcomp.seqgen` and :mod:`~pdtcomp.streamio`; the ``ratio``,
``bound`` and ``verify`` handlers import :mod:`~pdtcomp.analysis` and
:mod:`~pdtcomp.properties` when they run, and call them through their module
attributes.  Of all commands only ``verify`` loads :mod:`~pdtcomp.engine`.

``verify`` takes two cores where the codec's walks do: the census rows run
in the calling process while a forked worker runs the sampled and
exhaustive checks, and :func:`~pdtcomp.codec._fork_join` decides whether
the worker starts.  Its rows print once both are done, and are the same, as
is the exit status, where this process runs every check itself.
"""

import argparse
import contextlib
import gc
import io
import os
import random
import stat
import sys

from . import codec, seqgen, streamio

_FORMATS = ("binary", "text")


def main() -> None:
    status = cli_dispatch(sys.argv[1:])
    # The command is done and its files are closed: move every live object to
    # the permanent generation, so the interpreter's exit-time collection does
    # not walk what the imports made.  Streams are still flushed at exit.
    gc.freeze()
    sys.exit(status)


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:  # the package's own errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdtcomp",
        description="Matched-pair stack codec, sequence generators and measurement harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a sequence prefix as a plain stream")
    _sequence_options(p, k_help="alphabet size", n_help="last segment index to emit")
    p.add_argument("--out", required=True, help="output path, '-' for stdout")
    p.add_argument("--format", choices=_FORMATS, default="binary")
    p.set_defaults(handler=_cmd_gen)

    for name, role, before, after in (
        ("compress", streamio.ROLE_PLAIN, "plain", "coded"),
        ("decompress", streamio.ROLE_CODED, "coded", "plain"),
    ):
        p = sub.add_parser(name, help=f"{name} a {before} stream into a {after} stream")
        p.add_argument("--k", type=int, default=None, help="expected alphabet size (checked against the input header)")
        p.add_argument("--in", dest="inp", required=True, help=f"input path ({before} stream), '-' for stdin")
        p.add_argument("--out", required=True, help=f"output path ({after} stream), '-' for stdout")
        p.add_argument("--format", choices=_FORMATS, default=None, help="output format (default: same as input)")
        p.set_defaults(handler=_cmd_convert, role=role)

    p = sub.add_parser("ratio", help="measure the compression-ratio series into CSV")
    _sequence_options(p)
    p.add_argument("--csv", default="-", help="CSV output path, '-' for stdout")
    p.set_defaults(handler=_cmd_ratio)

    p = sub.add_parser("verify", help="run the property suites and report pass/fail")
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--words", type=int, default=200, help="random words per sampled property")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bound", help="tabulate the ratio bound and its exact verdict")
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=16, help="largest alphabet size to tabulate (any k-max >= k-min)")
    p.set_defaults(handler=_cmd_bound)

    return parser


def _sequence_options(p: argparse.ArgumentParser, k_help: str | None = None, n_help: str | None = None) -> None:
    """The options that name a sequence prefix, shared by ``gen`` and ``ratio``."""
    p.add_argument("--k", type=int, required=True, help=k_help)
    p.add_argument("--variant", choices=seqgen.VARIANTS, default=seqgen.PAIRED_LEX)
    p.add_argument("--seed", type=int, default=None, help="word order seed (paired-enum only)")
    p.add_argument("--n-max", type=int, required=True, help=n_help)


def _opened(path: str, mode: str):
    """``path`` opened in ``mode``, ``"rb"`` or ``"wb"``; ``-`` is standard input or output, left open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin.buffer if mode == "rb" else sys.stdout.buffer)
    return open(path, mode)


def _write_output(path: str, chunks, role: int, k: int, fmt: str, count: int | None = None) -> None:
    """Write a stream to ``path`` through :func:`streamio.write_chunks`, pulling ``chunks`` as it goes.

    A regular file, or a new one, is written next to ``path`` and replaces it
    only once complete: an error leaves ``path`` as it was, and ``path`` may
    name the file the chunks are read from.  Standard output (``-``) and any
    other output, such as a pipe or a terminal, is written directly.  A
    binary stream with no ``count`` writes its count into its header at the
    end, so there an output that cannot seek back is refused before the
    first chunk is pulled.  Standard output counts as one even where it is
    a file: one opened to append would take the count at its end.
    """
    try:
        mode = None if path == "-" else os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if path == "-" or (mode is not None and not stat.S_ISREG(mode)):
        with _opened(path, "wb") as fh:
            if fmt == "binary" and count is None and (path == "-" or not fh.seekable()):
                raise ValueError(
                    f"{path} is not seekable: a binary stream's symbol count goes into its header "
                    "once the input is read; write to a file or use --format text"
                )
            streamio.write_chunks(fh, chunks, role, k, fmt, count)
            fh.flush()
        return
    target = os.path.realpath(path)
    part = f"{target}.{os.urandom(4).hex()}.part"
    fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.chmod(fd, stat.S_IMODE(mode))
            streamio.write_chunks(fh, chunks, role, k, fmt, count)
        os.replace(part, target)
    except BaseException:
        os.unlink(part)
        raise


def _cmd_gen(args) -> int:
    segments = seqgen.iter_mirrored_segments(args.k, args.n_max, variant=args.variant, seed=args.seed)
    count = sum(2 * n * args.k**n for n in range(1, args.n_max + 1))
    symbols = (segment for _, segment in segments)
    _write_output(args.out, symbols, streamio.ROLE_PLAIN, args.k, args.format, count)
    return 0


def _cmd_convert(args) -> int:
    """``compress`` or ``decompress``: feed each chunk of a stream of role ``args.role`` through one session."""
    with _opened(args.inp, "rb") as fh:
        stream = streamio.read_chunks(fh)
        if stream.role != args.role:
            raise streamio.StreamFormatError(
                f"{args.inp} is a role-{stream.role} stream, {args.command} expects role {args.role}"
            )
        if args.k is not None and args.k != stream.k:
            raise streamio.StreamFormatError(f"--k {args.k} does not match the stream alphabet size {stream.k}")
        compressing = args.role == streamio.ROLE_PLAIN
        out_role = streamio.ROLE_CODED if compressing else streamio.ROLE_PLAIN
        parts = _converted(compressing, stream.k, stream.chunks)
        _write_output(args.out, parts, out_role, stream.k, args.format or stream.fmt)
    return 0


def _converted(compressing: bool, k: int, chunks):
    session = codec.Compressor(k) if compressing else codec.Decompressor(k)
    for chunk in chunks:
        yield session.feed(chunk)
    if compressing:
        yield session.flush()


def _csv_row(k: int, variant: str, report) -> dict:
    """One ``ratio`` CSV row: each column name with its value, in column order."""
    return {
        "k": k,
        "variant": variant,
        "n": report.block,
        "prefix_len": report.prefix_symbols,
        "out_len": report.output_symbols,
        "rho": report.rho,
        "h_observed": report.singletons,
        "h_expected": report.expected_singletons,  # None, no closed form, is written as ""
        "d": report.savings,
        "N": report.clustered_pops,
        "bound_ok": "true" if report.bound_ok else "false",
    }


def _cmd_ratio(args) -> int:
    import csv

    from . import analysis

    reports = analysis.segment_reports(args.k, args.n_max, variant=args.variant, seed=args.seed)
    rows = [_csv_row(args.k, args.variant, r) for r in reports]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    with _opened(args.csv, "wb") as fh:
        fh.write(buffer.getvalue().encode("ascii"))
    final = reports[-1]
    sign, p, q = analysis.rate_below(args.k, args.k + 2, final.prefix_symbols, final.output_symbols)
    verdict = ("below", "equal to", "above")[sign + 1]
    summary = f"final rho={final.rho:.6f} at n={final.block} ({verdict} 1 exactly, certificate {p}/{q})"
    low = min((r.rho for r in reports if r.block >= 3), default=None)
    if low is not None:
        summary += f", min rho (n>=3)={low:.6f}"
    print(summary, file=sys.stderr)
    return 0


def _cmd_bound(args) -> int:
    if args.k_min < 2 or args.k_max < args.k_min:
        raise ValueError("need 2 <= k-min <= k-max")
    from . import analysis

    print(f"{'k':>6}  {'ratio_bound':>12}  sufficient")
    for k in range(args.k_min, args.k_max + 1):
        print(f"{k:>6}  {analysis.ratio_bound(k):>12.6f}  {str(analysis.sufficiency_exact(k)).lower()}")
    return 0


def _cmd_verify(args) -> int:
    if args.k_min < 2 or args.k_max < args.k_min:
        raise ValueError("need 2 <= k-min <= k-max")
    if args.n_max < 3:
        raise ValueError("need n-max >= 3: the segment checks start at n = 3")
    try:
        seqgen._check_block(args.k_max, 3)
    except ValueError as exc:  # the cap, or past K_MAX the alphabet size
        raise ValueError(f"k-max {args.k_max} is too large: {exc}") from None
    if args.words < 1:
        raise ValueError("need words >= 1")
    ok = True
    for name, scope, passed, detail in _verification_results(
        range(args.k_min, args.k_max + 1), args.n_max, args.words, args.seed
    ):
        status = "PASS" if passed else "FAIL"
        print(f"{name:<22} {scope:<6} {status}  {detail}")
        ok = ok and passed
    return 0 if ok else 1


def _verification_results(k_range, n_max: int, words: int, seed: int) -> list[tuple]:
    """(property, scope, passed, detail) rows for the verify command, in print order.

    The census rows (segment census, savings bounds) are computed in this
    process while a forked worker computes the sampled and exhaustive rows,
    where :func:`codec._fork_join` starts one.  Wherever no worker replied,
    because none could start or it failed, this process computes the
    worker's rows itself after its own: the rows come out the same, and a
    check that raises raises here.
    """
    from . import properties

    def census():
        rows = []
        for k in k_range:
            scope = f"k={k}"
            # k >= 2, so n * k**n > cap once n exceeds cap.bit_length(): no larger n is tried
            top = min(n_max, seqgen.DEFAULT_BLOCK_CAP.bit_length())
            ns = [n for n in range(3, top + 1) if n * k**n <= seqgen.DEFAULT_BLOCK_CAP]
            censuses = [properties.segment_census(k, n) for n in ns]
            grid = f"n={ns[0]}..{ns[-1]}"
            rows.append((
                ("segment-census", scope, all(c.exact for c in censuses), f"{grid}, exact"),
                ("savings-bounds", scope, all(c.bounds_hold for c in censuses), grid),
            ))
        return rows

    def sampled():
        rows = []
        for k in k_range:
            scope = f"k={k}"
            rng = random.Random(seed * 1_000_003 + k)
            round_trip = properties.roundtrip_failures(k, properties.random_words(k, words, rng, 2000))
            stack = properties.stack_failures(k, properties.random_words(k, words, rng, 2000))
            ns, cyclic = properties.cyclic_failures(k, 100_000)
            rows.append((
                ("round-trip", scope, round_trip == 0, f"{words} random words, {round_trip} failed"),
                ("stack-content", scope, stack == 0, f"{words} random words, {stack} failed"),
                ("cyclic-occurrences", scope, not cyclic, f"n={ns[0]}..{ns[-1]}, exhaustive"),
            ))
        checked, bad = properties.confluence_failures(3, 6)
        detail = f"joins on {checked} reducible words, length <= 6, k <= 3"
        return rows, ("pair-confluence", "-", bad == 0, detail)

    census_rows, sampled_rows = codec._fork_join(sampled, census)
    per_k, confluence = sampled_rows or sampled()
    rows = []
    for (round_trip, stack, cyclic), (segment, bounds) in zip(per_k, census_rows):
        rows += [round_trip, stack, segment, bounds, cyclic]
    return [*rows, confluence]


if __name__ == "__main__":
    main()
