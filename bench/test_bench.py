"""Fast self-tests of the benchmark: span arithmetic, checks, contract file.

Run with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from itertools import count

import pytest

import run
from tracer import Tracer, instrumented, merge

sys.path.insert(0, str(run.SRC))

from pdtcomp import analysis, codec, seqgen, streamio  # noqa: E402


def test_self_times_add_up_to_root():
    ticks = count(0, 10)
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):  # 0 .. 70
        with tracer.span("a"):  # 10 .. 40
            with tracer.span("b"):  # 20 .. 30
                pass
        with tracer.span("b"):  # 50 .. 60
            pass
    summary = tracer.summary()
    assert summary["spans"] == {"root": [1, 70, 30], "a": [1, 30, 20], "b": [2, 20, 20]}
    assert summary["root_ns"] == summary["self_sum_ns"] == 70


def test_spans_close_in_order():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
    with pytest.raises(RuntimeError):
        tracer.summary()


def test_merge_adds_spans_and_counts():
    a = {"spans": {"x": [1, 5, 2]}, "counts": {"c": 3}, "root_ns": 5, "self_sum_ns": 5}
    b = {"spans": {"x": [2, 7, 7], "y": [1, 1, 1]}, "counts": {"c": 1}, "root_ns": 8, "self_sum_ns": 8}
    assert merge([a, b]) == {
        "spans": {"x": [3, 12, 9], "y": [1, 1, 1]},
        "counts": {"c": 4},
        "root_ns": 13,
        "self_sum_ns": 13,
    }


def test_instrumented_counts_match_outputs_and_restore():
    originals = (codec.Compressor.consume, analysis.iter_mirrored_segments, seqgen.iter_mirrored_segments)
    plain = analysis.ratio_series(4, 4)
    tracer = Tracer()
    with instrumented(tracer), tracer.span("root"):
        traced = analysis.ratio_series(4, 4)
        coded = codec.compress([0, 1, 1, 2], 4)
        data = streamio.encode_stream(coded, streamio.ROLE_CODED, 4)
    assert traced == plain
    assert (codec.Compressor.consume, analysis.iter_mirrored_segments,
            seqgen.iter_mirrored_segments) == originals
    summary = tracer.summary()
    counts = summary["counts"]
    read, written = plain[-1].symbols_read, plain[-1].symbols_written
    assert counts["seqgen.iter_mirrored_segments"] == read
    assert counts["codec.Compressor.consume"] == read
    assert counts["codec.read_syms"] == read + 4
    assert counts["codec.written_syms"] == written + len(coded)
    assert counts["codec.pair_markers"] == sum(r.savings for r in analysis.segment_reports(4, 4))
    assert counts["streamio.encode_stream"] == len(data)
    assert summary["spans"]["seqgen.iter_mirrored_segments"][0] == 4 + 1  # the last next() stops
    assert summary["root_ns"] == summary["self_sum_ns"]


def test_host_adjusted_scales_to_the_reference_speed(monkeypatch):
    loops = iter([2 * run.CALIB_REF_S, 4 * run.CALIB_REF_S])
    monkeypatch.setattr(run, "calib_loop", lambda: next(loops))
    assert run.host_adjusted(lambda x: x + 1, 1) == (2, pytest.approx(1 / 3))
    assert run.host_scales([1.0, 3.0, 1.0]) == [pytest.approx(run.CALIB_REF_S / 2)] * 2


def _verify_output(status="PASS"):
    rows = [f"round-trip             k={k}   PASS  200 random words, 0 failed"
            for k in range(run.VERIFY_ROWS - 1)]
    rows.append(f"pair-confluence        -      {status}  exhaustive")
    return "\n".join(rows) + "\n"


def _ratio_rows():
    rows = [{"n": str(n)} for n in range(1, run.RATIO_ROWS)]
    rows.append({column: str(value) for column, value in run.RATIO_FINAL_ROW.items()})
    return rows


def test_audit_checks_count_a_corrupted_output():
    ok = run.Command(0, 1.0, 1.0, "")
    check = run.Checks()
    run.check_audit(check, ok, _ratio_rows(), ok._replace(stdout=_verify_output()))
    assert check.failed == []

    rows = _ratio_rows()
    rows[-1]["d"] = str(run.RATIO_FINAL_ROW["d"] + 1)
    check = run.Checks()
    run.check_audit(check, ok, rows, ok._replace(stdout=_verify_output("FAIL")))
    assert len(check.failed) == 2
    assert len(check.failed) / check.attempted > 0


def test_roundtrip_checks_count_a_corrupted_file(tmp_path, monkeypatch):
    word = [0, 1, 1, 2, 2, 0, 3]
    monkeypatch.setattr(run, "PLAIN_SYMBOLS", len(word))
    monkeypatch.setattr(run, "CODED_SYMBOLS", len(codec.compress(word, 4)))
    plain, coded, back = tmp_path / "plain", tmp_path / "coded", tmp_path / "back"
    plain.write_bytes(streamio.encode_stream(word, streamio.ROLE_PLAIN, 4))
    coded.write_bytes(streamio.encode_stream(codec.compress(word, 4), streamio.ROLE_CODED, 4))
    shutil.copyfile(plain, back)
    commands = {name: run.Command(0, 1.0, 1.0, "") for name in run.ROUNDTRIP_COMMANDS}
    check = run.Checks()
    run.check_roundtrip(check, commands, plain, coded, back)
    assert check.failed == []

    data = bytearray(back.read_bytes())
    data[-2] ^= 1
    back.write_bytes(bytes(data))
    check = run.Checks()
    run.check_roundtrip(check, commands, plain, coded, back)
    assert check.failed == ["file-roundtrip: round trip is byte-identical"]


def test_rho_sweep_uses_the_largest_n_under_the_cap():
    for k, n, _, _ in run.RHO_SWEEP:
        assert n * k**n <= run.RHO_SWEEP_CAP < (n + 1) * k ** (n + 1)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
