"""Command-line behaviour: files in, files out, exit codes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdtcomp
from pdtcomp import analysis, codec, streamio
from pdtcomp.cli import cli_dispatch
from pdtcomp.codec import compress
from pdtcomp.seqgen import iter_mirrored_segments


def dispatch(*argv):
    return cli_dispatch(list(argv))


def write_stream(path, symbols, role, k, fmt="binary"):
    path.write_bytes(streamio.encode_stream(symbols, role, k, fmt))


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
    assert dispatch("gen", "--k", "2", "--n-max", "8", "--out", str(out), "--cap", "100") == 2
    assert "error:" in capsys.readouterr().err


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


def test_compress_text_example(tmp_path):
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    inp.write_bytes(b"k=2 role=0\n0110\n")
    assert dispatch("compress", "--k", "2", "--in", str(inp), "--out", str(out)) == 0
    assert out.read_bytes() == b"k=2 role=1\n01*\n"


def test_compress_no_flush_flag(tmp_path):
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    inp.write_bytes(b"k=2 role=0\n00\n")
    assert dispatch("compress", "--in", str(inp), "--out", str(out)) == 0
    assert out.read_bytes() == b"k=2 role=1\n0+\n"
    assert dispatch("compress", "--no-flush", "--in", str(inp), "--out", str(out)) == 0
    assert out.read_bytes() == b"k=2 role=1\n0\n"


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


def test_malformed_stream_is_a_data_error(tmp_path, capsys):
    coded = tmp_path / "coded.pdt"
    out = tmp_path / "out.pdt"
    # [0, 0] at k=3 decodes to a word that compresses to [0, 3]
    for symbols, k, message in (([3], 2, "pair marker"), ([0, 0], 3, "stack top")):
        write_stream(coded, symbols, streamio.ROLE_CODED, k)
        assert dispatch("decompress", "--in", str(coded), "--out", str(out)) == 2
        assert message in capsys.readouterr().err


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


def test_bound_refuses_alphabets_past_256(capsys):
    assert dispatch("bound", "--k-min", "256", "--k-max", "256") == 0
    assert capsys.readouterr().out.splitlines()[1].split()[0] == "256"
    assert dispatch("bound", "--k-min", "2", "--k-max", "257") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "256" in captured.err
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


def test_ratio_csv_deterministic_and_audited(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ("ratio", "--k", "3", "--n-max", "4", "--seed", "7")
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
    err = capsys.readouterr().err
    assert "final rho=" in err


def test_ratio_csv_to_stdout(capsys):
    assert dispatch("ratio", "--k", "2", "--n-max", "2", "--csv", "-") == 0
    out = capsys.readouterr().out
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
    assert dispatch("verify", "--k-min", "2", "--k-max", "3", "--n-max", "4", "--words", "40") == 0
    out = capsys.readouterr().out
    per_k = ["round-trip", "stack-content", "segment-census", "savings-bounds", "cyclic-occurrences"]
    assert [line.split()[0] for line in out.splitlines()] == per_k * 2 + ["pair-confluence"]
    assert "FAIL" not in out
    assert out.count("PASS") == 11
    # each grid segment goes through the table and the run census exactly once
    grid = [2 * n * k**n for k in (2, 3) for n in (3, 4)]
    assert seen == {"compress_run": grid, "block_stats": grid}
