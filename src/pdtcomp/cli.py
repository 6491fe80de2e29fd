"""Command-line interface.

Subcommands: ``gen`` writes a sequence prefix as a plain stream,
``compress`` / ``decompress`` convert between plain and coded streams,
``ratio`` measures the compression-ratio series into CSV, ``verify`` runs
the self-check suites, and ``bound`` tabulates the closed-form ratio bound
with its exact integer verdict.  Exit status: 0 success, 1 verification
failure, 2 usage or I/O error.
"""

import argparse
import csv
import io
import random
import sys
from array import array
from itertools import product

from . import analysis, codec, rewrite, seqgen, streamio

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
    except (streamio.StreamFormatError, codec.CodecError, seqgen.HorizonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
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
    p.add_argument("--seed", type=int, default=None, help="word order seed (paired-enum)")
    p.add_argument("--n-max", type=int, required=True, help="last segment index to emit")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=["binary", "text"], default="binary")
    p.add_argument("--cap", type=int, default=seqgen.DEFAULT_BLOCK_CAP, help="per-segment symbol cap")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("compress", help="compress a plain stream into a coded stream")
    p.add_argument("--k", type=int, default=None, help="expected alphabet size (checked against the input header)")
    p.add_argument("--no-flush", action="store_true", help="leave a trailing odd pop uncoded")
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--csv", default="-", help="CSV output path, '-' for stdout")
    p.add_argument("--cap", type=int, default=seqgen.DEFAULT_BLOCK_CAP)
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
    symbols = array("H")
    for _, segment in seqgen.iter_mirrored_segments(
        args.k, args.n_max, variant=args.variant, seed=args.seed, block_cap=args.cap
    ):
        symbols.extend(segment)
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
    out = codec.compress(decoded.symbols, decoded.k, flush=not args.no_flush)
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
    reports = analysis.segment_reports(
        args.k, args.n_max, variant=args.variant, seed=args.seed, block_cap=args.cap
    )
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
    if any(r.block >= 3 for r in reports):
        low = analysis.min_checkpoint_rho([r.point for r in reports])
        summary += f", min rho (n>=3)={low:.6f}"
    print(summary, file=sys.stderr)
    return 0


def _cmd_bound(args) -> int:
    if args.k_min < 2 or args.k_max < args.k_min:
        raise ValueError("need 2 <= k-min <= k-max")
    print(f"{'k':>6}  {'ratio_bound':>12}  sufficient")
    for k in range(args.k_min, args.k_max + 1):
        print(f"{k:>6}  {analysis.ratio_bound(k):>12.6f}  {str(analysis.sufficiency_exact(k)).lower()}")
    return 0


def _cmd_verify(args) -> int:
    if args.k_min < 2 or args.k_max < args.k_min:
        raise ValueError("need 2 <= k-min <= k-max")
    ok = True
    for name, scope, passed, detail in _verification_results(
        range(args.k_min, args.k_max + 1), args.n_max, args.words, args.seed
    ):
        status = "PASS" if passed else "FAIL"
        print(f"{name:<22} {scope:<6} {status}  {detail}")
        ok = ok and passed
    return 0 if ok else 1


def _verification_results(k_range, n_max: int, words: int, seed: int):
    """Yield (property, scope, passed, detail) rows for the verify command."""
    for k in k_range:
        rng = random.Random(seed * 1_000_003 + k)
        yield _check_roundtrip(k, words, rng)
        yield _check_stack_contents(k, words, rng)
        ns = [n for n in range(3, n_max + 1) if n * k**n <= seqgen.DEFAULT_BLOCK_CAP]
        if ns:
            yield _check_segment_census(k, ns)
            yield _check_savings_bounds(k, ns)
        yield _check_cyclic(k)
    yield _check_confluence()


def _random_word(k: int, rng: random.Random, max_len: int = 2000) -> list[int]:
    return [rng.randrange(k) for _ in range(rng.randrange(max_len + 1))]


def _check_roundtrip(k, words, rng):
    bad = 0
    for _ in range(words):
        w = _random_word(k, rng)
        if codec.decompress(codec.compress(w, k), k) != w:
            bad += 1
    return ("round-trip", f"k={k}", bad == 0, f"{words} random words, {bad} failed")


def _check_stack_contents(k, words, rng):
    bottom = codec.stack_bottom(k)
    bad = 0
    for _ in range(words):
        w = _random_word(k, rng)
        session = codec.Compressor(k)
        session.feed(w)
        if list(session.stack) != [bottom] + rewrite.normal_form(w):
            bad += 1
    return ("stack-content", f"k={k}", bad == 0, f"{words} random words, {bad} failed")


def _check_segment_census(k, ns):
    bad = []
    for n in ns:
        seg = seqgen.mirrored_segment(k, n)
        if analysis.block_stats(seg).singletons != analysis.expected_singletons(k, n):
            bad.append(n)
    return ("segment-census", f"k={k}", not bad, f"n={ns[0]}..{ns[-1]}, exact")


def _check_savings_bounds(k, ns):
    bad = []
    for n in ns:
        seg = seqgen.mirrored_segment(k, n)
        _, _, trace = codec.compress_run(seg, k)
        savings, clustered = analysis.pop_run_account(trace)
        singles = analysis.block_stats(seg).singletons
        if not (3 * savings >= clustered and 2 * clustered >= singles and 6 * savings >= singles):
            bad.append(n)
    return ("savings-bounds", f"k={k}", not bad, f"n={ns[0]}..{ns[-1]}")


def _check_cyclic(k, cap: int = 100_000):
    ns = [n for n in range(1, 33) if n * k**n <= cap]
    bad = []
    for n in ns:
        counts = seqgen.cyclic_pattern_counts(seqgen.lex_concat(k, n), k, n)
        if any(c != n for c in counts):
            bad.append(n)
    return ("cyclic-occurrences", f"k={k}", not bad, f"n={ns[0]}..{ns[-1]}, exhaustive")


def _check_confluence(max_len: int = 6, k: int = 3):
    bad = 0
    for length in range(2, max_len + 1):
        for word in product(range(k), repeat=length):
            redexes = [i for i in range(length - 1) if word[i] == word[i + 1]]
            for i in redexes:
                for j in redexes:
                    w1 = rewrite.reduce_once(word, i + 1)
                    w2 = rewrite.reduce_once(word, j + 1)
                    if rewrite.normal_form(w1) != rewrite.normal_form(w2):
                        bad += 1
    return ("pair-confluence", "-", bad == 0, f"exhaustive words of length <= {max_len}, k <= {k}")


if __name__ == "__main__":
    main()
