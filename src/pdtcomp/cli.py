"""Command-line interface.

Subcommands: ``gen`` writes a sequence prefix as a plain stream,
``compress`` / ``decompress`` convert between plain and coded streams,
``ratio`` measures the compression-ratio series into CSV, ``verify`` runs
the self-check suites, and ``bound`` tabulates the closed-form ratio bound
with its exact integer verdict.  Exit status: 0 success, 1 verification
failure, 2 usage or I/O error.

``gen``, ``compress`` and ``decompress`` load only :mod:`~pdtcomp.codec`,
:mod:`~pdtcomp.seqgen` and :mod:`~pdtcomp.streamio`; the ``ratio``,
``bound`` and ``verify`` handlers import :mod:`~pdtcomp.analysis` and
:mod:`~pdtcomp.properties` when they run, and call them through their module
attributes.  Of all commands only ``verify`` loads :mod:`~pdtcomp.engine`.

``verify`` takes two cores where the codec's walks do
(:func:`~pdtcomp.codec._may_fork`): the census rows run in the calling
process while a forked worker (:func:`~pdtcomp.codec._fork_join`) runs the
sampled and exhaustive checks.  Its rows print once both are done, and are
the same, as is the exit status, where this process runs every check itself.
"""

import argparse
import io
import random
import sys

from . import codec, seqgen, streamio

CSV_COLUMNS = [
    "k",
    "variant",
    "n",
    "prefix_len",
    "out_len",
    "rho",
    "h_observed",
    "h_expected",
    "d",
    "N",
    "bound_ok",
]


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


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
    p.add_argument("--k", type=int, required=True, help="alphabet size")
    p.add_argument("--variant", choices=seqgen.VARIANTS, default=seqgen.PAIRED_LEX)
    p.add_argument("--seed", type=int, default=None, help="word order seed (paired-enum only)")
    p.add_argument("--n-max", type=int, required=True, help="last segment index to emit")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=["binary", "text"], default="binary")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("compress", help="compress a plain stream into a coded stream")
    p.add_argument("--k", type=int, default=None, help="expected alphabet size (checked against the input header)")
    p.add_argument("--in", dest="inp", required=True, help="input path (plain stream)")
    p.add_argument("--out", required=True, help="output path (coded stream)")
    p.add_argument("--format", choices=["binary", "text"], default=None, help="output format (default: same as input)")
    p.set_defaults(handler=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress a coded stream into a plain stream")
    p.add_argument("--k", type=int, default=None, help="expected alphabet size (checked against the input header)")
    p.add_argument("--in", dest="inp", required=True, help="input path (coded stream)")
    p.add_argument("--out", required=True, help="output path (plain stream)")
    p.add_argument("--format", choices=["binary", "text"], default=None, help="output format (default: same as input)")
    p.set_defaults(handler=_cmd_decompress)

    p = sub.add_parser("ratio", help="measure the compression-ratio series into CSV")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=seqgen.VARIANTS, default=seqgen.PAIRED_LEX)
    p.add_argument("--seed", type=int, default=None, help="word order seed (paired-enum only)")
    p.add_argument("--n-max", type=int, required=True)
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
    p.add_argument("--k-max", type=int, default=16)
    p.set_defaults(handler=_cmd_bound)

    return parser


def _read_stream(path: str) -> tuple[streamio.DecodedStream, str]:
    """Decode the file at ``path``; also return its format."""
    with open(path, "rb") as fh:
        data = fh.read()
    fmt = streamio.detect_format(data)
    return streamio.decode_stream(data, fmt), fmt


def _write_stream(path: str, symbols, role: int, k: int, fmt: str) -> None:
    data = streamio.encode_stream(symbols, role, k, fmt)
    with open(path, "wb") as fh:
        fh.write(data)


def _cmd_gen(args) -> int:
    segments = seqgen.iter_mirrored_segments(args.k, args.n_max, variant=args.variant, seed=args.seed)
    symbols = seqgen.joined([segment for _, segment in segments])
    _write_stream(args.out, symbols, streamio.ROLE_PLAIN, args.k, args.format)
    return 0


def _check_header(args, decoded: streamio.DecodedStream, role: int, what: str) -> None:
    if decoded.role != role:
        raise streamio.StreamFormatError(
            f"{args.inp} is a role-{decoded.role} stream, {what} expects role {role}"
        )
    if args.k is not None and args.k != decoded.k:
        raise streamio.StreamFormatError(
            f"--k {args.k} does not match the stream alphabet size {decoded.k}"
        )


def _cmd_compress(args) -> int:
    decoded, in_fmt = _read_stream(args.inp)
    _check_header(args, decoded, streamio.ROLE_PLAIN, "compress")
    out = codec.compress(decoded.symbols, decoded.k)
    _write_stream(args.out, out, streamio.ROLE_CODED, decoded.k, args.format or in_fmt)
    return 0


def _cmd_decompress(args) -> int:
    decoded, in_fmt = _read_stream(args.inp)
    _check_header(args, decoded, streamio.ROLE_CODED, "decompress")
    out = codec.decompress(decoded.symbols, decoded.k)
    _write_stream(args.out, out, streamio.ROLE_PLAIN, decoded.k, args.format or in_fmt)
    return 0


def _csv_rows(k: int, variant: str, reports) -> list[list]:
    rows = []
    for r in reports:
        rows.append(
            [
                k,
                variant,
                r.block,
                r.prefix_symbols,
                r.output_symbols,
                repr(r.rho),
                r.singletons,
                "" if r.expected_singletons is None else r.expected_singletons,
                r.savings,
                r.clustered_pops,
                "true" if r.bound_ok else "false",
            ]
        )
    return rows


def _cmd_ratio(args) -> int:
    import csv

    from . import analysis

    reports = analysis.segment_reports(args.k, args.n_max, variant=args.variant, seed=args.seed)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_csv_rows(args.k, args.variant, reports))
    if args.csv == "-":
        sys.stdout.write(buffer.getvalue())
    else:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(buffer.getvalue())
    final = reports[-1]
    summary = f"final rho={final.rho:.6f} at n={final.block}"
    low = min((r.rho for r in reports if r.block >= 3), default=None)
    if low is not None:
        summary += f", min rho (n>=3)={low:.6f}"
    print(summary, file=sys.stderr)
    return 0


BOUND_K_MAX = 256
"""``sufficiency_exact`` compares integers of about 6k^2 log2(k) bits: under 0.3 s
a row up to k = 256, but 6 s at k = 500, and past k = 2000 it runs for minutes."""


def _cmd_bound(args) -> int:
    if args.k_min < 2 or args.k_max < args.k_min or args.k_max > BOUND_K_MAX:
        raise ValueError(f"need 2 <= k-min <= k-max <= {BOUND_K_MAX}")
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
    if 3 * args.k_max**3 > seqgen.DEFAULT_BLOCK_CAP:
        raise ValueError(
            f"k-max {args.k_max} is too large: its n = 3 segment holds {6 * args.k_max**3} symbols "
            f"(twice 3 * k-max**3 = {3 * args.k_max**3}, above the cap of {seqgen.DEFAULT_BLOCK_CAP})"
        )
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
    where :func:`codec._may_fork` holds.  Where it does not, or the fork or
    the worker fails, this process computes the worker's rows itself after
    its own: the rows come out the same, and a check that raises raises here.
    """
    from . import properties

    def census():
        rows = []
        for k in k_range:
            scope = f"k={k}"
            ns = [n for n in range(3, n_max + 1) if n * k**n <= seqgen.DEFAULT_BLOCK_CAP]
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

    joined = codec._fork_join(sampled, census) if codec._may_fork() else None
    census_rows, sampled_rows = joined or (census(), None)
    per_k, confluence = sampled_rows or sampled()
    rows = []
    for (round_trip, stack, cyclic), (segment, bounds) in zip(per_k, census_rows):
        rows += [round_trip, stack, segment, bounds, cyclic]
    return [*rows, confluence]


if __name__ == "__main__":
    main()
