"""Command-line behaviour: files in, files out, exit codes."""

import argparse
import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pdtcomp
from pdtcomp import analysis, codec, properties, streamio
from pdtcomp.cli import _build_parser, cli_dispatch
from pdtcomp.codec import compress
from pdtcomp.seqgen import iter_mirrored_segments


def dispatch(*argv):
    return cli_dispatch(list(argv))


def write_stream(path, symbols, role, k, fmt="binary"):
    path.write_bytes(streamio.encode_stream(symbols, role, k, fmt))


CLI_OPTIONS = {
    "gen": ["--k", "--variant", "--seed", "--n-max", "--out", "--format"],
    "compress": ["--k", "--in", "--out", "--format"],
    "decompress": ["--k", "--in", "--out", "--format"],
    "ratio": ["--k", "--variant", "--seed", "--n-max", "--csv"],
    "verify": ["--k-min", "--k-max", "--n-max", "--words", "--seed"],
    "bound": ["--k-min", "--k-max"],
}


def test_cli_options_are_pinned():
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [s for action in sub._actions if action.dest != "help" for s in action.option_strings]
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS


def test_bound_table(capsys):
    assert dispatch("bound", "--k-min", "6", "--k-max", "8") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["k", "ratio_bound", "sufficient"]
    rows = [line.split() for line in lines[1:]]
    assert [r[0] for r in rows] == ["6", "7", "8"]
    assert [r[2] for r in rows] == ["false", "true", "true"]
    assert float(rows[1][1]) == pytest.approx(0.990887, abs=1e-5)


def test_gen_writes_expected_stream(tmp_path):
    out = tmp_path / "seq.pdt"
    assert dispatch("gen", "--k", "3", "--n-max", "3", "--out", str(out)) == 0
    symbols, role, k = streamio.decode_stream(out.read_bytes())
    assert (role, k) == (streamio.ROLE_PLAIN, 3)
    expected = []
    for _, seg in iter_mirrored_segments(3, 3):
        expected.extend(seg)
    assert list(symbols) == expected


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_gen_without_segments_is_a_usage_error(tmp_path, capsys, n_max):
    out = tmp_path / "seq.pdt"
    assert dispatch("gen", "--k", "5", "--n-max", n_max, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "n-max" in captured.err
    assert not out.exists()


GOLDEN_STREAMS = {
    # gen arguments: SHA-256 of the generated file, then of its compress output
    "k5": (
        ["--k", "5", "--n-max", "3"],
        "e9e02d7e712a663545d52048cd342b64d6b21803eaacb9f4dbc4b081dc73ff9b",
        "37b7110b37216608d9bdebc706350fc5cc5af9495b19c43f5eaa431a27d4c4d5",
    ),
    "k5-text": (
        ["--k", "5", "--n-max", "3", "--format", "text"],
        "00ef09d45d4141c0882a7801ee49e65bbdcbea3afcde0c2aea2b56e5932fdcf1",
        "aeb2b2698ac407d6de2bcca0a367044e2a4bd08b7625c6b03aab11c8e80ac670",
    ),
    "k3-enum": (
        ["--k", "3", "--n-max", "3", "--variant", "paired-enum", "--seed", "3"],
        "e02df1168fd353e5e357cbf74ad9811d3c7fc0727aeff687653e47cc7c5e3cdd",
        "549c8893ba93ece1db0a84e621651eec7a2ea2e712f6f1cbcb197a8825094846",
    ),
    "k300-wide": (
        ["--k", "300", "--n-max", "1"],
        "fd1932f9c2030c1ac1d5eaed280ed368347c00378fec89a5a77a87ebd4962094",
        "41b40683e735db5d7a6859dc25d5bab8e35f4f5ca815b50b4d96999f90c9b924",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_STREAMS)
def test_gen_and_compress_bytes_are_pinned(tmp_path, name):
    argv, plain_sha, coded_sha = GOLDEN_STREAMS[name]
    plain = tmp_path / "plain"
    coded = tmp_path / "coded"
    assert dispatch("gen", *argv, "--out", str(plain)) == 0
    assert dispatch("compress", "--in", str(plain), "--out", str(coded)) == 0
    assert hashlib.sha256(plain.read_bytes()).hexdigest() == plain_sha
    assert hashlib.sha256(coded.read_bytes()).hexdigest() == coded_sha


@pytest.fixture
def split_feeds(monkeypatch):
    """Feeds of 8 codes and more split between two processes; lists the pid of each worker forked.

    A compressor's feed forks at the point its bare-point finder picks, however rarely that point's
    stack recurs.
    """
    monkeypatch.setattr(codec, "_SPLIT_MIN", 8)
    monkeypatch.setattr(codec, "_SPLIT_LEAD", 4)
    bare_point = codec._bare_point
    monkeypatch.setattr(
        codec, "_bare_point", lambda word, start, end: (bare_point(word, start, end)[0], end - start)
    )
    return counted_forks(monkeypatch)


@pytest.mark.parametrize("name", GOLDEN_STREAMS)
def test_split_gen_and_compress_bytes_are_pinned(tmp_path, split_feeds, name):
    test_gen_and_compress_bytes_are_pinned(tmp_path, name)
    assert len(split_feeds) == (name != "k300-wide")  # wide files are array('H') words


def test_wide_alphabet_files_roundtrip(tmp_path):
    plain = tmp_path / "plain.pdt"
    coded = tmp_path / "coded.pdt"
    back = tmp_path / "back.pdt"
    assert dispatch("gen", "--k", "300", "--n-max", "2", "--out", str(plain)) == 0
    assert dispatch("compress", "--in", str(plain), "--out", str(coded)) == 0
    assert dispatch("decompress", "--in", str(coded), "--out", str(back)) == 0
    assert back.read_bytes() == plain.read_bytes()
    symbols = streamio.decode_stream(plain.read_bytes()).symbols
    assert list(symbols) == [a for _, seg in iter_mirrored_segments(300, 2) for a in seg]


def test_gen_respects_cap(tmp_path, capsys):
    out = tmp_path / "seq.pdt"
    # segment 3 holds 2 * 3 * 300**3 = 162 M symbols; its 3 * 300**3 = 81 M is past the fixed cap of 2e7
    assert dispatch("gen", "--k", "300", "--n-max", "3", "--out", str(out)) == 2
    assert "above the cap of 20000000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compress", "--no-flush", "--in", "plain.txt", "--out", "coded.txt"],
        ["gen", "--k", "2", "--n-max", "2", "--out", "seq.pdt", "--cap", "1"],
        ["ratio", "--k", "2", "--n-max", "2", "--cap", "1"],
    ],
    ids=["compress-no-flush", "gen-cap", "ratio-cap"],
)
def test_removed_options_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plain.txt").write_bytes(b"k=2 role=0\n00\n")
    assert dispatch(*argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.txt"]


@pytest.mark.parametrize("command", ["gen", "ratio"])
def test_a_seed_for_paired_lex_is_a_usage_error(command, tmp_path, capsys):
    out = tmp_path / "out"
    target = ["--out", str(out)] if command == "gen" else ["--csv", str(out)]
    assert dispatch(command, "--k", "3", "--n-max", "2", "--seed", "1", *target) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "seed" in captured.err
    assert captured.out == "" and not out.exists()


def test_compress_decompress_files_roundtrip(tmp_path):
    plain = tmp_path / "plain.pdt"
    coded = tmp_path / "coded.pdt"
    back = tmp_path / "back.pdt"
    assert dispatch("gen", "--k", "4", "--n-max", "3", "--out", str(plain)) == 0
    assert dispatch("compress", "--in", str(plain), "--out", str(coded)) == 0
    assert dispatch("decompress", "--in", str(coded), "--out", str(back)) == 0
    assert back.read_bytes() == plain.read_bytes()
    symbols, role, k = streamio.decode_stream(coded.read_bytes())
    assert role == streamio.ROLE_CODED and k == 4
    plain_symbols = streamio.decode_stream(plain.read_bytes()).symbols
    assert symbols == compress(plain_symbols, 4)  # both packed as bytes


def test_split_compress_decompress_files_roundtrip(tmp_path, split_feeds):
    test_compress_decompress_files_roundtrip(tmp_path)
    # compress and the check's compress; the paired-lex codes pop below any worker's lead, so
    # decompress decodes in one process
    assert len(split_feeds) == 2


def test_file_roundtrip_feeds_split_every_long_chunk_and_take_every_part(tmp_path, monkeypatch):
    # The benchmark's file round trip.  Its 1,318,360 symbols are read in chunks of 2^19, the last of
    # 269,784, and its 1,086,080 codes in two chunks of 2^19 and one of 37,504: every chunk from
    # _SPLIT_MIN symbols forks a worker.  Every paired-enum word drains the stack, so the stack is bare
    # at each seam and the worker's part is taken: this process walks nothing past a seam.
    plain, coded, back = (tmp_path / name for name in ("plain.pdt", "coded.pdt", "back.pdt"))
    gen = ["gen", "--k", "5", "--n-max", "7", "--variant", "paired-enum", "--seed", "1"]
    assert dispatch(*gen, "--out", str(plain)) == 0
    monkeypatch.setattr(codec, "_may_fork", lambda: True)
    forks = counted_forks(monkeypatch)
    walks = []  # (start, whether the walk ends short of the chunk, the chunk's length)
    for session, name in ((codec.Compressor, "_code"), (codec.Decompressor, "_decode")):

        def spy(self, out, word, start, end, pending, walk=getattr(session, name)):
            walks.append((start, end < len(word), len(word)))
            return walk(self, out, word, start, end, pending)

        monkeypatch.setattr(session, name, spy)
    chunk = streamio._CHUNK
    assert dispatch("compress", "--in", str(plain), "--out", str(coded)) == 0
    assert len(forks) == 3
    assert walks == [(0, True, chunk), (0, True, chunk), (0, True, 269_784)]
    forks.clear()
    walks.clear()
    assert dispatch("decompress", "--in", str(coded), "--out", str(back)) == 0
    assert len(forks) == 2
    assert walks == [(0, True, chunk), (0, True, chunk), (0, False, 37_504)]
    assert back.read_bytes() == plain.read_bytes()


def test_compress_text_example(tmp_path):
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    inp.write_bytes(b"k=2 role=0\n0110\n")
    assert dispatch("compress", "--k", "2", "--in", str(inp), "--out", str(out)) == 0
    assert out.read_bytes() == b"k=2 role=1\n01*\n"


def test_compress_always_flushes(tmp_path):
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    back = tmp_path / "back.txt"
    inp.write_bytes(b"k=2 role=0\n00\n")
    assert dispatch("compress", "--in", str(inp), "--out", str(out)) == 0
    assert out.read_bytes() == b"k=2 role=1\n0+\n"
    assert dispatch("decompress", "--in", str(out), "--out", str(back)) == 0
    assert back.read_bytes() == inp.read_bytes()


def test_format_override(tmp_path):
    plain = tmp_path / "plain.txt"
    coded = tmp_path / "coded.bin"
    write_stream(plain, [0, 1, 1, 0], streamio.ROLE_PLAIN, 2, "text")
    assert dispatch("compress", "--in", str(plain), "--out", str(coded), "--format", "binary") == 0
    assert coded.read_bytes()[:4] == streamio.MAGIC


def test_k_mismatch_is_a_usage_error(tmp_path, capsys):
    plain = tmp_path / "plain.pdt"
    write_stream(plain, [0, 1], streamio.ROLE_PLAIN, 2)
    out = tmp_path / "out.pdt"
    assert dispatch("compress", "--k", "3", "--in", str(plain), "--out", str(out)) == 2
    assert "does not match" in capsys.readouterr().err


def test_role_mismatch_is_an_error(tmp_path, capsys):
    coded = tmp_path / "coded.pdt"
    write_stream(coded, [0, 2], streamio.ROLE_CODED, 2)
    out = tmp_path / "out.pdt"
    assert dispatch("compress", "--in", str(coded), "--out", str(out)) == 2
    assert "role" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    assert dispatch("compress", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compress", "decompress"])
def test_a_stream_with_no_known_header_is_refused(tmp_path, capsys, command):
    inp, out = tmp_path / "image.gif", tmp_path / "out.pdt"
    inp.write_bytes(b"GIF89a" + bytes(32))
    assert dispatch(command, "--in", str(inp), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: data starts with neither the binary magic nor a text header\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["image.gif"]


def test_malformed_stream_is_a_data_error(tmp_path, capsys):
    coded = tmp_path / "coded.pdt"
    out = tmp_path / "out.pdt"
    # [0, 0] at k=3 decodes to a word that compresses to [0, 3]
    for symbols, k, message in (([3], 2, "pair marker"), ([0, 0], 3, "stack top")):
        write_stream(coded, symbols, streamio.ROLE_CODED, k)
        assert dispatch("decompress", "--in", str(coded), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coded.pdt"]


CHUNKED_ALPHABETS = [2, 3, 5, 36, 254, 255, 300]  # bytes to array('H') words and codes, text up to 36


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_chunked_compress_and_decompress_write_the_one_call_files(tmp_path, data):
    k = data.draw(st.sampled_from(CHUNKED_ALPHABETS))
    fmt = data.draw(st.sampled_from(["binary", "text"] if k <= streamio.TEXT_K_MAX else ["binary"]))
    word = data.draw(st.lists(st.integers(0, k - 1), max_size=40))
    plain, coded, back = tmp_path / "plain", tmp_path / "coded", tmp_path / "back"
    write_stream(plain, word, streamio.ROLE_PLAIN, k, fmt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streamio, "_CHUNK", data.draw(st.integers(1, 9)))
        assert dispatch("compress", "--in", str(plain), "--out", str(coded)) == 0
        assert dispatch("decompress", "--in", str(coded), "--out", str(back)) == 0
    assert coded.read_bytes() == streamio.encode_stream(compress(word, k), streamio.ROLE_CODED, k, fmt)
    assert back.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["--k", "2", "--n-max", "5"],
        ["--k", "3", "--n-max", "3", "--format", "text"],
        ["--k", "5", "--n-max", "3", "--variant", "paired-enum", "--seed", "29"],
        ["--k", "36", "--n-max", "2", "--format", "text"],
        ["--k", "254", "--n-max", "1"],
        ["--k", "255", "--n-max", "1"],
        ["--k", "300", "--n-max", "1"],
    ],
    ids=lambda argv: "-".join(argv[1::2]),
)
@pytest.mark.parametrize("chunk", [1, 7])
def test_chunked_gen_writes_the_one_call_file(tmp_path, monkeypatch, argv, chunk):
    out = tmp_path / "seq"
    monkeypatch.setattr(streamio, "_CHUNK", chunk)
    assert dispatch("gen", *argv, "--out", str(out)) == 0
    args = _build_parser().parse_args(["gen", *argv, "--out", str(out)])
    segments = iter_mirrored_segments(args.k, args.n_max, variant=args.variant, seed=args.seed)
    symbols = [a for _, segment in segments for a in segment]
    assert out.read_bytes() == streamio.encode_stream(symbols, streamio.ROLE_PLAIN, args.k, args.format)
    if args.format == "binary":
        assert streamio.HEADER.unpack_from(out.read_bytes())[4] == len(symbols)


def message_of(call) -> str:
    """The message of the ValueError that a whole-buffer call raises."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    raise AssertionError("the call did not fail")


def coded_file(symbols, k=3):
    return streamio.encode_stream(symbols, streamio.ROLE_CODED, k)


# With 4-symbol chunks each fault lies in the second chunk.  At k = 3 the odd marker is 3, the pair marker 4.
ODD_MARKER_ENDS_A_CHUNK = [0, 1, 2, 3, 4, 0]  # and a marker starts the next
ONE_PENDING_AT_A_CHUNK = [0, 1, 2, 4, 4, 0]  # the first chunk leaves one symbol for the pair marker
CODE_OUT_OF_RANGE = coded_file([0, 1, 2, 0, 1, 2])[:-2] + b"\x09\x00"
STRAY_CHARACTER = b"k=3 role=0\n0120!1\n"
PLAIN_K2 = streamio.encode_stream([0, 1] * 4, streamio.ROLE_PLAIN, 2)
CODED_K2 = streamio.encode_stream([0, 1] * 4, streamio.ROLE_CODED, 2)

# command, input file, and the error message of the whole-buffer call ({inp}: the input path)
LATER_CHUNK_ERRORS = {
    "odd-marker-then-marker": (
        ["decompress"], coded_file(ODD_MARKER_ENDS_A_CHUNK),
        message_of(lambda: codec.decompress(ODD_MARKER_ENDS_A_CHUNK, 3)),
    ),
    "pair-marker-one-pending": (
        ["decompress"], coded_file(ONE_PENDING_AT_A_CHUNK),
        message_of(lambda: codec.decompress(ONE_PENDING_AT_A_CHUNK, 3)),
    ),
    "code-out-of-range": (
        ["decompress"], CODE_OUT_OF_RANGE, message_of(lambda: streamio.decode_stream(CODE_OUT_OF_RANGE)),
    ),
    "stray-character": (
        ["compress"], STRAY_CHARACTER, message_of(lambda: streamio.decode_stream(STRAY_CHARACTER)),
    ),
    "text-past-36": (
        ["gen", "--k", "40", "--n-max", "1", "--format", "text"], None,
        message_of(lambda: streamio.encode_stream([], streamio.ROLE_PLAIN, 40, "text")),
    ),
    "k-mismatch": (["compress", "--k", "3"], PLAIN_K2, "--k 3 does not match the stream alphabet size 2"),
    "role-mismatch": (["decompress"], PLAIN_K2, "{inp} is a role-0 stream, decompress expects role 1"),
    "k-mismatch-decompress": (["decompress", "--k", "3"], CODED_K2, "--k 3 does not match the stream alphabet size 2"),
    "role-mismatch-compress": (["compress"], CODED_K2, "{inp} is a role-1 stream, compress expects role 0"),
}


@pytest.mark.parametrize("before", [None, b"what the output held"], ids=["no-output", "old-output"])
@pytest.mark.parametrize("name", LATER_CHUNK_ERRORS)
def test_an_error_in_a_later_chunk_leaves_the_output_as_it_was(tmp_path, monkeypatch, capsys, name, before):
    argv, data, message = LATER_CHUNK_ERRORS[name]
    inp, out = tmp_path / "in", tmp_path / "out"
    if data is not None:
        inp.write_bytes(data)
        argv = [*argv, "--in", str(inp)]
    if before is not None:
        out.write_bytes(before)
    monkeypatch.setattr(streamio, "_CHUNK", 4)
    assert dispatch(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message.format(inp=inp)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"] * (data is not None) + ["out"] * (before is not None)
    assert before is None or out.read_bytes() == before


def test_in_place_round_trip(tmp_path, monkeypatch):
    path, original = tmp_path / "seq", tmp_path / "original"
    assert dispatch("gen", "--k", "5", "--n-max", "3", "--out", str(original)) == 0
    path.write_bytes(original.read_bytes())
    path.chmod(0o640)
    monkeypatch.setattr(streamio, "_CHUNK", 64)
    assert dispatch("compress", "--in", str(path), "--out", str(path)) == 0
    assert path.read_bytes()[:4] == streamio.MAGIC and path.stat().st_size < original.stat().st_size
    assert dispatch("decompress", "--in", str(path), "--out", str(path)) == 0
    assert path.read_bytes() == original.read_bytes()
    assert path.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["original", "seq"]


def into_pipe(*argv) -> tuple[int, bytes]:
    """Run a command whose ``--out`` is the write end of a pipe; its exit status and what the pipe got."""
    read, write = os.pipe()
    try:
        status = dispatch(*argv, "--out", f"/dev/fd/{write}")
    finally:
        os.close(write)
    with os.fdopen(read, "rb") as fh:
        return status, fh.read()


@pytest.mark.parametrize("command", ["compress", "decompress"])
def test_binary_compress_and_decompress_refuse_a_pipe(tmp_path, capsys, command):
    inp = tmp_path / "in"
    role = streamio.ROLE_PLAIN if command == "compress" else streamio.ROLE_CODED
    write_stream(inp, [0, 1, 1, 0], role, 2)
    status, written = into_pipe(command, "--in", str(inp))
    assert (status, written) == (2, b"")
    err = capsys.readouterr().err
    assert err.startswith("error: /dev/fd/") and "not seekable" in err


def test_text_output_and_binary_gen_go_into_a_pipe(tmp_path):
    plain = tmp_path / "plain"
    assert dispatch("gen", "--k", "3", "--n-max", "3", "--out", str(plain)) == 0
    assert into_pipe("gen", "--k", "3", "--n-max", "3") == (0, plain.read_bytes())
    coded = codec.compress(streamio.decode_stream(plain.read_bytes()).symbols, 3)
    expected = streamio.encode_stream(coded, streamio.ROLE_CODED, 3, "text")
    assert into_pipe("compress", "--in", str(plain), "--format", "text") == (0, expected)
    (tmp_path / "coded").write_bytes(expected)
    back = streamio.decode_stream(plain.read_bytes()).symbols
    assert into_pipe("decompress", "--in", str(tmp_path / "coded")) == (
        0, streamio.encode_stream(back, streamio.ROLE_PLAIN, 3, "text")
    )


def console_in(cwd, *argv, stdin=b""):
    """Run the ``pdtcomp`` console script in ``cwd`` with ``stdin`` on its standard input, its output piped."""
    return subprocess.run(
        [sys.executable, "-c", "from pdtcomp.cli import main; main()", *argv],
        input=stdin, capture_output=True, env=_package_env(), timeout=60, cwd=cwd,
    )


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_gen_out_dash_prints_the_file(tmp_path, fmt):
    argv = ["gen", "--k", "3", "--n-max", "3", "--format", fmt]
    assert dispatch(*argv, "--out", str(tmp_path / "seq")) == 0
    done = console_in(tmp_path, *argv, "--out", "-")
    assert (done.returncode, done.stdout, done.stderr) == (0, (tmp_path / "seq").read_bytes(), b"")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seq"]


def test_binary_compress_out_dash_is_refused(tmp_path):
    # Into a pipe, and into a file opened to append, where patching the header would append it.
    write_stream(tmp_path / "plain", [0, 1, 1, 0], streamio.ROLE_PLAIN, 2)
    done = console_in(tmp_path, "compress", "--in", "plain", "--out", "-")
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"error: - is not seekable")
    (tmp_path / "log").write_bytes(b"kept")
    with open(tmp_path / "log", "ab") as log:
        appended = subprocess.run(
            [sys.executable, "-c", "from pdtcomp.cli import main; main()", "compress", "--in", "plain", "--out", "-"],
            stdout=log, stderr=subprocess.PIPE, env=_package_env(), timeout=60, cwd=tmp_path,
        )
    assert appended.returncode == 2 and appended.stderr.startswith(b"error: - is not seekable")
    assert (tmp_path / "log").read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log", "plain"]


def test_in_dash_reads_stdin(tmp_path):
    assert dispatch("gen", "--k", "3", "--n-max", "3", "--out", str(tmp_path / "plain")) == 0
    plain = (tmp_path / "plain").read_bytes()
    assert dispatch("compress", "--in", str(tmp_path / "plain"), "--out", str(tmp_path / "expected")) == 0
    done = console_in(tmp_path, "compress", "--in", "-", "--out", "coded", stdin=plain)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert (tmp_path / "coded").read_bytes() == (tmp_path / "expected").read_bytes()
    coded = (tmp_path / "coded").read_bytes()
    back = console_in(tmp_path, "decompress", "--in", "-", "--out", "-", "--format", "text", stdin=coded)
    text = streamio.encode_stream(streamio.decode_stream(plain).symbols, streamio.ROLE_PLAIN, 3, "text")
    assert (back.returncode, back.stdout, back.stderr) == (0, text, b"")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coded", "expected", "plain"]


def test_file_command_memory_is_bounded_by_a_chunk(tmp_path, monkeypatch):
    """Peak traced memory of compress and decompress is the same for 2 and for 8 chunks of input.

    Every word of a paired-enum file drains the stack, so the codec holds no more than a chunk either.
    """
    chunk = 1 << 12
    monkeypatch.setattr(streamio, "_CHUNK", chunk)
    *_, (_, segment) = iter_mirrored_segments(2, 4, variant="paired-enum", seed=1)
    plain, coded, back = tmp_path / "plain", tmp_path / "coded", tmp_path / "back"
    commands = (["compress", "--in", str(plain), "--out", str(coded)],
                ["decompress", "--in", str(coded), "--out", str(back)])
    peaks = {}
    tracemalloc.start()
    try:
        for chunks in (2, 2, 8):  # the first pass warms up the parser and the codec's caches
            write_stream(plain, segment * (chunks * chunk // len(segment)), streamio.ROLE_PLAIN, 2)
            for argv in commands:
                gc.collect()
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert dispatch(*argv) == 0
                peaks[argv[0], chunks] = tracemalloc.get_traced_memory()[1] - start
            assert back.read_bytes() == plain.read_bytes()
    finally:
        tracemalloc.stop()
    chunk_bytes = 2 * chunk  # a binary body holds two bytes per symbol
    for command in ("compress", "decompress"):
        assert abs(peaks[command, 8] - peaks[command, 2]) < chunk_bytes
        assert peaks[command, 8] < 24 * chunk_bytes


def test_usage_errors_exit_2(capsys):
    assert dispatch("no-such-command") == 2
    assert dispatch("gen", "--k", "3") == 2
    assert dispatch() == 2
    capsys.readouterr()


def test_ratio_without_segments_is_a_usage_error(capsys):
    assert dispatch("ratio", "--k", "5", "--n-max", "0") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "n-max" in captured.err
    assert captured.out == ""


def test_verify_negative_word_count_is_a_usage_error(capsys):
    assert dispatch("verify", "--k-min", "2", "--k-max", "2", "--words", "-1") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "words" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n-max", "2"], "n-max"),  # no segment reaches the n >= 3 census
        (["--k-min", "190", "--k-max", "190", "--n-max", "3"], "k-max"),  # 3 * 190**3 > cap
        (["--words", "0"], "words"),
    ],
    ids=["n-max-below-3", "k-max-past-the-cap", "no-words"],
)
def test_verify_refuses_a_run_that_would_skip_a_check(argv, message, capsys):
    assert dispatch("verify", "--k-min", "2", "--k-max", "2", *argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "k_max, reason",
    [
        (300, "segment n=3 holds 162000000 symbols (twice n * k**n = 81000000, above the cap of 20000000)"),
        (70000, "alphabet size must be an integer in [2, 65534], got 70000"),
    ],
    ids=["past-the-cap", "past-k-max"],
)
def test_verify_names_why_a_large_k_max_is_refused(k_max, reason, capsys):
    # The reason is seqgen's own refusal of the k-max's n = 3 segment, after the k-max it names.
    assert dispatch("verify", "--k-min", "2", "--k-max", str(k_max)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: k-max {k_max} is too large: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize("k_min,k_max", [(255, 258), (1_000_000, 1_000_000)])
def test_bound_decides_any_alphabet_at_once(k_min, k_max, capsys):
    assert dispatch("bound", "--k-min", str(k_min), "--k-max", str(k_max)) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(int(k), verdict) for k, _, verdict in rows] == [(k, "true") for k in range(k_min, k_max + 1)]


@pytest.mark.parametrize("k_min,k_max", [(1, 5), (6, 5)], ids=["k-min-below-2", "k-max-below-k-min"])
def test_bound_refuses_an_empty_or_invalid_range(k_min, k_max, capsys):
    assert dispatch("bound", "--k-min", str(k_min), "--k-max", str(k_max)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need 2 <= k-min <= k-max\n"
    assert captured.out == ""


def _package_env():
    env = dict(os.environ)
    src = str(Path(pdtcomp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_prints_no_warning():
    env = _package_env()
    done = subprocess.run(
        [sys.executable, "-m", "pdtcomp.cli", "bound", "--k-min", "7", "--k-max", "7"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.splitlines()[1].split()[::2] == ["7", "true"]


def _console_entry(*argv):
    """Run ``pdtcomp.cli.main`` (the ``pdtcomp`` console script) in a fresh process."""
    return subprocess.run(
        [sys.executable, "-c", "from pdtcomp.cli import main; main()", *argv],
        capture_output=True, text=True, env=_package_env(), timeout=60,
    )


def test_console_entry_flushes_its_output_and_exits_with_the_status(tmp_path, capsys):
    # main freezes the collector before it exits: the whole CSV and the summary still arrive
    argv = ["ratio", "--k", "3", "--n-max", "4", "--csv", "-"]
    assert dispatch(*argv) == 0
    in_process = capsys.readouterr()
    done = _console_entry(*argv)
    assert done.returncode == 0
    assert (done.stdout, done.stderr) == (in_process.out, in_process.err)
    assert len(done.stdout.splitlines()) == 5 and done.stderr.startswith("final rho=")
    done = _console_entry("gen", "--k", "1", "--n-max", "2", "--out", str(tmp_path / "plain.pdt"))
    assert done.returncode == 2
    assert done.stdout == "" and not (tmp_path / "plain.pdt").exists()
    assert done.stderr.startswith("error: ") and "alphabet size" in done.stderr


@pytest.mark.parametrize("command", [["gen", "--out", "never.pdt"], ["ratio", "--csv", "-"]], ids=["gen", "ratio"])
def test_n_max_far_past_the_cap_is_refused_at_once(command, tmp_path):
    # n * k**n > cap for every n > cap.bit_length(): such n is refused before k**n is formed
    done = subprocess.run(
        [sys.executable, "-m", "pdtcomp.cli", *command, "--k", "5", "--n-max", "7000"],
        capture_output=True, text=True, env=_package_env(), timeout=30, cwd=tmp_path,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: segment n=7000 is past the cap of 20000000: n * k**n exceeds it for every n > 25\n"
    assert not (tmp_path / "never.pdt").exists()


def test_verify_grid_stops_at_the_cap_for_any_n_max():
    # n = 19 is the largest n with n * 2**n <= 2e7; k = 21 stops at n = 4 (5 * 21**5 > 2e7)
    rows = [
        subprocess.run(
            [sys.executable, "-m", "pdtcomp.cli", "verify", "--k-min", "21", "--k-max", "21", "--n-max", n_max, "--words", "1"],
            capture_output=True, text=True, env=_package_env(), timeout=30,
        )
        for n_max in ("19", "1000000")
    ]
    assert [done.returncode for done in rows] == [0, 0]
    assert rows[1].stdout == rows[0].stdout and "n=3..4" in rows[0].stdout


FILE_COMMANDS_SCRIPT = """
import sys
from pdtcomp.cli import cli_dispatch
plain, coded, back = sys.argv[1:]
for argv in (
    ["gen", "--k", "5", "--n-max", "3", "--variant", "paired-enum", "--seed", "1", "--out", plain],
    ["compress", "--in", plain, "--out", coded],
    ["decompress", "--in", coded, "--out", back],
):
    assert cli_dispatch(argv) == 0
heavy = ["pdtcomp.engine", "pdtcomp.analysis", "pdtcomp.properties", "dataclasses"]
print(" ".join(name for name in heavy if name in sys.modules))
"""


def test_file_commands_load_neither_engine_nor_analysis(tmp_path):
    paths = [str(tmp_path / name) for name in ("plain.pdt", "coded.cpdt", "back.pdt")]
    done = subprocess.run(
        [sys.executable, "-c", FILE_COMMANDS_SCRIPT, *paths],
        capture_output=True, text=True, env=_package_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
    assert Path(paths[2]).read_bytes() == Path(paths[0]).read_bytes()


MEASURE_COMMAND_SCRIPT = """
import sys
from pdtcomp.cli import cli_dispatch
assert cli_dispatch(sys.argv[1:]) == 0
print([name for name in ("pdtcomp.engine", "dataclasses") if name in sys.modules], file=sys.stderr)
"""


def _measure_command_modules(argv):
    done = subprocess.run(
        [sys.executable, "-c", MEASURE_COMMAND_SCRIPT, *argv],
        capture_output=True, text=True, env=_package_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stderr.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [["ratio", "--k", "3", "--n-max", "4", "--csv", "-"], ["bound", "--k-min", "2", "--k-max", "8"]],
    ids=["ratio", "bound"],
)
def test_measure_commands_do_not_load_the_engine(argv):
    assert _measure_command_modules(argv) == "[]"


def test_verify_loads_the_engine_but_not_dataclasses():
    argv = ["verify", "--k-min", "2", "--k-max", "3", "--n-max", "3", "--words", "20"]
    assert _measure_command_modules(argv) == "['pdtcomp.engine']"


def test_ratio_csv_deterministic_and_audited(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ("ratio", "--k", "3", "--n-max", "4")
    assert dispatch(*args, "--csv", str(first)) == 0
    assert dispatch(*args, "--csv", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().splitlines()
    assert lines[0] == "k,variant,n,prefix_len,out_len,rho,h_observed,h_expected,d,N,bound_ok"
    assert len(lines) == 5
    row3 = lines[3].split(",")
    assert row3[:3] == ["3", "paired-lex", "3"]
    assert row3[7] == "72"  # exact closed-form run count at n=3
    assert row3[10] == "true"
    reports = analysis.segment_reports(3, 4)
    low = min(r.rho for r in reports if r.block >= 3)
    summary = f"final rho={reports[-1].rho:.6f} at n=4 (above 1 exactly, certificate 3/4), min rho (n>=3)={low:.6f}\n"
    assert capsys.readouterr().err == summary * 2


@pytest.mark.parametrize(
    "k, n_max, verdict",
    [
        (5, 7, "below 1 exactly, certificate 9/11"),  # 9/11 lies between out_len/prefix_len and log 5/log 7
        (3, 4, "above 1 exactly, certificate 3/4"),
    ],
    ids=["below", "above"],
)
def test_ratio_summary_states_the_exact_verdict_of_the_final_point(capsys, k, n_max, verdict):
    assert dispatch("ratio", "--k", str(k), "--n-max", str(n_max), "--csv", os.devnull) == 0
    final = analysis.segment_reports(k, n_max)[-1]
    read, written = final.prefix_symbols, final.output_symbols
    p, q = map(int, verdict.rsplit(" ", 1)[1].split("/"))
    sign = -1 if verdict.startswith("below") else 1
    assert sign * (written * q - read * p) >= 0 and sign * ((k + 2) ** p - k**q) >= 0
    assert capsys.readouterr().err.startswith(f"final rho={final.rho:.6f} at n={n_max} ({verdict}), ")


def test_ratio_csv_to_stdout(capsys):
    assert dispatch("ratio", "--k", "2", "--n-max", "2", "--csv", "-") == 0
    out, err = capsys.readouterr()
    final = analysis.segment_reports(2, 2)[-1].rho
    assert err == f"final rho={final:.6f} at n=2 (above 1 exactly, certificate 1/2)\n"  # no segment 3
    assert out.startswith("k,variant,n,")
    rows = out.strip().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[7] == ""  # no closed form below n=3


def test_ratio_enum_variant(tmp_path):
    csv_path = tmp_path / "enum.csv"
    assert dispatch(
        "ratio", "--k", "3", "--n-max", "3", "--variant", "paired-enum",
        "--seed", "3", "--csv", str(csv_path),
    ) == 0
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert all(r.split(",")[7] == "" for r in rows)


@pytest.mark.parametrize("may_fork", [True, False], ids=["split", "one-process"])
def test_paired_enum_ratio_keeps_its_digest_where_its_segment_splits(tmp_path, monkeypatch, may_fork):
    # Segment 7 holds 1,093,750 symbols, past _SPLIT_MIN, and is no palindrome: consume codes it with
    # feed's walk, which forks once where it may.  The digest is the one pinned before that route.
    csv_path = tmp_path / "enum.csv"
    monkeypatch.setattr(codec, "_may_fork", lambda: may_fork)
    forks = counted_forks(monkeypatch)
    argv = ["ratio", "--k", "5", "--n-max", "7", "--variant", "paired-enum", "--seed", "1"]
    assert dispatch(*argv, "--csv", str(csv_path)) == 0
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digest == "c7deb948240048edf38823974333dbedfd9b22385ae4d4114adaf9d07c62051c"
    assert len(forks) == (1 if may_fork else 0)


def test_paired_lex_ratio_keeps_its_digest(tmp_path):
    csv_path = tmp_path / "lex.csv"
    assert dispatch("ratio", "--k", "5", "--n-max", "7", "--csv", str(csv_path)) == 0
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digest == "046b2536a56ea02a9162028a46ce339781e73cbd04a3f58071b433ea110cd633"


def test_verify_passes_and_prints_per_property(capsys, monkeypatch):
    seen = {"compress_run": [], "block_stats": []}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(word, *args, **kwargs):
            seen[name].append(len(word))
            return real(word, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(codec, "compress_run")
    counting(analysis, "block_stats")
    monkeypatch.setattr(codec, "_may_fork", lambda: True)
    forks = counted_forks(monkeypatch)
    assert dispatch("verify", "--k-min", "2", "--k-max", "3", "--n-max", "4", "--words", "40") == 0
    out = capsys.readouterr().out
    per_k = ["round-trip", "stack-content", "segment-census", "savings-bounds", "cyclic-occurrences"]
    assert [line.split()[0] for line in out.splitlines()] == per_k * 2 + ["pair-confluence"]
    assert "FAIL" not in out
    assert out.count("PASS") == 11
    # one worker takes the sampled and exhaustive checks; each grid segment goes through the table
    # and the run census exactly once, in this process
    assert len(forks) == 1
    grid = [2 * n * k**n for k in (2, 3) for n in (3, 4)]
    assert seen == {"compress_run": grid, "block_stats": grid}
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counted_forks(monkeypatch) -> list[int]:
    """The pid of every worker this process forks from now on."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def os_error(*args):
    raise OSError("unavailable")


def reply_lost(monkeypatch):
    fork_join = codec._fork_join
    monkeypatch.setattr(codec, "_fork_join", lambda work, own: (fork_join(work, own)[0], None))


def worker_raises(monkeypatch):
    parent = os.getpid()
    confluence_failures = properties.confluence_failures

    def failing_in_the_worker(k, max_len):
        if os.getpid() != parent:
            raise RuntimeError("the worker failed")
        return confluence_failures(k, max_len)

    monkeypatch.setattr(properties, "confluence_failures", failing_in_the_worker)


# how each host runs verify, and the workers it forks; every host has two CPUs unless it says not
VERIFY_HOSTS = {
    "two-cores": (lambda mp: None, 1),
    "no-fork": (lambda mp: mp.delattr(os, "fork"), 0),
    "one-cpu": (lambda mp: mp.setattr(os, "sched_getaffinity", lambda pid: {0}), 0),
    "fork-fails": (lambda mp: mp.setattr(os, "fork", os_error), 0),
    "pipe-fails": (lambda mp: mp.setattr(os, "pipe", os_error), 0),
    "reply-lost": (reply_lost, 1),
    "worker-raises": (worker_raises, 1),
}

VERIFY_ARGV = ["verify", "--k-min", "2", "--k-max", "3", "--n-max", "4", "--words", "40", "--seed", "5"]
VERIFY_OUT = """\
round-trip             k=2    PASS  40 random words, 0 failed
stack-content          k=2    PASS  40 random words, 0 failed
segment-census         k=2    PASS  n=3..4, exact
savings-bounds         k=2    PASS  n=3..4
cyclic-occurrences     k=2    PASS  n=1..12, exhaustive
round-trip             k=3    PASS  40 random words, 0 failed
stack-content          k=3    PASS  40 random words, 0 failed
segment-census         k=3    PASS  n=3..4, exact
savings-bounds         k=3    PASS  n=3..4
cyclic-occurrences     k=3    PASS  n=1..8, exhaustive
pair-confluence        -      PASS  joins on 1022 reducible words, length <= 6, k <= 3
"""


def failing_checks(monkeypatch):
    """One sampled check fails on the k = 3 words of odd length, one census check at k = 2, n = 4."""
    stack_failures, segment_census = properties.stack_failures, properties.segment_census

    def odd_words_fail(k, words):
        words = list(words)
        return stack_failures(k, words) + (k == 3) * sum(len(w) % 2 for w in words)

    def inexact(k, n):
        census = segment_census(k, n)
        return census._replace(singletons=census.singletons + 1) if (k, n) == (2, 4) else census

    monkeypatch.setattr(properties, "stack_failures", odd_words_fail)
    monkeypatch.setattr(properties, "segment_census", inexact)


@pytest.mark.parametrize("host", VERIFY_HOSTS)
@pytest.mark.parametrize(
    "checks, status, out",
    [
        (lambda mp: None, 0, VERIFY_OUT),
        (
            failing_checks,
            1,
            VERIFY_OUT.replace(
                "segment-census         k=2    PASS", "segment-census         k=2    FAIL"
            ).replace(
                "stack-content          k=3    PASS  40 random words, 0 failed",
                "stack-content          k=3    FAIL  40 random words, 21 failed",
            ),
        ),
    ],
    ids=["passing", "failing"],
)
def test_verify_output_is_the_same_on_every_host(capsys, monkeypatch, host, checks, status, out):
    checks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = counted_forks(monkeypatch)
    set_up, workers = VERIFY_HOSTS[host]
    set_up(monkeypatch)
    assert dispatch(*VERIFY_ARGV) == status
    assert capsys.readouterr() == (out, "")
    assert len(forks) == workers
    assert_no_child_left()
