"""Run accounting, ratio measurement, and the exact sufficiency arithmetic."""

import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcomp import analysis
from pdtcomp.analysis import (
    PopRunAccount,
    RatioPoint,
    SegmentReport,
    block_stats,
    expected_singletons,
    pop_run_account,
    ratio_bound,
    ratio_series,
    segment_reports,
    sufficiency_exact,
)
from pdtcomp.codec import Compressor, compress_run
from pdtcomp.engine import POP, PUSH, RunTrace
from pdtcomp.seqgen import iter_mirrored_segments, lex_concat, mirrored_segment


def brute_block_stats(word):
    """Oracle: scan runs with an explicit index loop; h, the runs of length 1."""
    singletons = 0
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        singletons += j - i == 1
        i = j
    return singletons


def test_block_stats_examples():
    assert block_stats([0, 1, 1, 0]) == 2
    assert block_stats([0, 0, 0]) == 0
    assert block_stats([4]) == 1
    assert block_stats([0, 1, 0, 0]) == 2
    with pytest.raises(ValueError):
        block_stats([])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
def test_block_stats_against_brute_force(word):
    assert block_stats(word) == brute_block_stats(word)
    assert block_stats(bytes(word)) == brute_block_stats(word)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
def test_block_stats_folds_mirrored_words(w):
    # the fold scans w only; the unfolded census scans the whole word
    x = w + w[::-1]
    assert block_stats(x) == brute_block_stats(x)
    assert block_stats(bytes(x)) == brute_block_stats(x)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 255, 256, 257, 511, 65535]), min_size=1, max_size=60))
def test_block_stats_reads_wide_symbols(w):
    # symbols >= 256 differ from each other in either byte of their 16-bit code
    for word in (w, w + w[::-1]):
        assert block_stats(array("H", word)) == brute_block_stats(word)
        assert block_stats(word) == brute_block_stats(word)


def test_block_stats_single_long_run():
    for word in (bytes(200_000), array("H", [300]) * 200_000, [3] * 200_000):
        assert block_stats(word) == 0


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_block_stats_runs_straddle_chunk_borders(chunk, monkeypatch):
    monkeypatch.setattr(analysis, "_CENSUS_CHUNK", chunk)
    rng = random.Random(chunk)
    for _ in range(200):
        lengths = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
        word = [i % 3 for i, m in enumerate(lengths) for _ in range(m)]
        if rng.random() < 0.5:
            word += word[::-1]
        for packed in (bytes(word), array("H", [300 + a for a in word])):
            assert block_stats(packed) == brute_block_stats(word)


def test_block_stats_rejects_symbols_outside_16_bits():
    for word in ([0, 70_000, 1], [-1, 0]):
        with pytest.raises(ValueError, match="outside"):
            block_stats(word)


def test_expected_singletons_values():
    assert expected_singletons(3, 3) == 72
    assert expected_singletons(2, 3) == 12
    assert expected_singletons(7, 3) == 1512
    with pytest.raises(ValueError):
        expected_singletons(5, 2)


@pytest.mark.parametrize("k,n", [(2, 3), (2, 5), (3, 3), (3, 4), (7, 3), (9, 3)])
def test_expected_singletons_matches_census(k, n):
    assert block_stats(mirrored_segment(k, n)) == expected_singletons(k, n)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (4, 3), (5, 4)])
def test_segment_singletons_double_the_half_segment(k, n):
    w = lex_concat(k, n)
    assert block_stats(w + w[::-1]) == 2 * block_stats(w)


def test_pop_run_account_examples():
    _, _, trace = compress_run([0, 1, 1, 0], 2)
    assert pop_run_account(trace) == PopRunAccount(1, 2)
    _, _, trace = compress_run([0, 0], 2)
    assert pop_run_account(trace) == PopRunAccount(0, 0)
    seg = mirrored_segment(3, 3)
    _, _, trace = compress_run(seg, 3)
    account = pop_run_account(trace)
    assert account.savings >= expected_singletons(3, 3) // 6 == 12


def test_pop_run_account_pop_runs_at_both_ends():
    kinds = [POP, POP, PUSH, POP, PUSH, PUSH, POP, POP, POP]
    assert pop_run_account(RunTrace(bytearray(kinds), 5)) == PopRunAccount(4, 5)
    kinds = [POP, PUSH, POP, POP, PUSH, POP]
    assert pop_run_account(RunTrace(bytearray(kinds), 4)) == PopRunAccount(2, 2)
    assert pop_run_account(RunTrace(bytearray([POP]), 1)) == PopRunAccount(0, 0)
    assert pop_run_account(RunTrace(bytearray([POP, POP]), 1)) == PopRunAccount(1, 2)
    assert pop_run_account(RunTrace()) == PopRunAccount(0, 0)


def test_report_rows_are_named_tuples():
    point = RatioPoint(3, 10, 8, 0.5)
    assert point == (3, 10, 8, 0.5)
    assert repr(point) == "RatioPoint(block=3, symbols_read=10, symbols_written=8, rho=0.5)"
    row = SegmentReport(3, 6, 10, 8, 0.5, 12, None, 2, 0)
    assert row.singletons == 12 and row.savings == 2
    assert row.bound_ok  # 6 * 2 >= 12
    assert not row._replace(savings=1).bound_ok
    assert not row._replace(singletons=13).bound_ok


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(0, 4), max_size=80))
def test_pop_run_account_matches_the_session(k, raw):
    word = [a % k for a in raw]
    session = Compressor(k)
    session.feed(word)
    session.flush()
    account = pop_run_account(compress_run(word, k)[2])
    assert account == PopRunAccount(session.savings, session.clustered_pops)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_savings_bound_chain_small_grid(k):
    for n in (3, 4):
        seg = mirrored_segment(k, n)
        _, _, trace = compress_run(seg, k)
        savings, clustered = pop_run_account(trace)
        singles = block_stats(seg)
        assert 3 * savings >= clustered
        assert 2 * clustered >= singles
        assert 6 * savings >= singles


def test_ratio_bound_values():
    assert ratio_bound(7) == pytest.approx(0.9909, abs=5e-4)
    assert ratio_bound(6) == pytest.approx(1.0263, abs=5e-4)
    assert ratio_bound(6) > 1 > ratio_bound(7)
    with pytest.raises(ValueError):
        ratio_bound(1)


def test_ratio_bound_first_factor_limit():
    k = 10**6
    assert 1 - (k - 1) ** 2 / (6 * k * k) == pytest.approx(5 / 6, abs=1e-5)


def test_sufficiency_exact_reference_points():
    assert 9**43 < 7**49
    assert sufficiency_exact(7) is True
    # full-exponent form for k = 6, evaluated literally
    assert ((6 + 2) ** (6 * 36 - 25) < 6 ** (6 * 36)) is False
    assert sufficiency_exact(6) is False
    assert sufficiency_exact(2) is False


def test_sufficiency_exact_holds_from_seven_up():
    assert all(sufficiency_exact(k) for k in range(7, 65))
    assert not any(sufficiency_exact(k) for k in range(2, 7))


def test_sufficiency_exact_agrees_with_float_bound():
    for k in range(2, 220):
        bound = ratio_bound(k)
        if abs(bound - 1) > 1e-9:
            assert sufficiency_exact(k) == (bound < 1), k


def test_ratio_series_small_alphabet_values():
    points = ratio_series(2, 3)
    assert [p.block for p in points] == [1, 2, 3]
    assert [(p.symbols_read, p.symbols_written) for p in points] == [
        (4, 3),
        (20, 16),
        (68, 57),
    ]
    for p in points:
        assert p.rho == pytest.approx(
            p.symbols_written * math.log(4) / (p.symbols_read * math.log(2))
        )
        assert p.rho == pytest.approx(2 * p.symbols_written / p.symbols_read)


def test_ratio_series_mid_alphabet_compresses():
    points = ratio_series(7, 6)
    assert points[-1].rho < 1


def test_ratio_checkpoints_land_on_segment_boundaries():
    k, n_max = 3, 5
    points = ratio_series(k, n_max)
    assert [p.symbols_read for p in points] == [
        sum(2 * i * k**i for i in range(1, n + 1)) for n in range(1, n_max + 1)
    ]


def test_segment_reports_match_trace_accounting():
    # streaming counter deltas == per-segment trace accounting, in isolation
    for k in (2, 3, 5):
        reports = segment_reports(k, 4)
        for r in reports:
            seg = mirrored_segment(k, r.block)
            assert r.segment_length == len(seg)
            _, _, trace = compress_run(seg, k)
            account = pop_run_account(trace)
            assert r.savings == account.savings
            assert r.clustered_pops == account.clustered_pops
            assert r.singletons == block_stats(seg)
            if r.block >= 3:
                assert r.expected_singletons == expected_singletons(k, r.block)
            else:
                assert r.expected_singletons is None
            assert r.bound_ok == (6 * r.savings >= r.singletons)


def test_segment_reports_cumulative_counters():
    k, n_max = 4, 4
    reports = segment_reports(k, n_max)
    session = Compressor(k)
    for _, seg in iter_mirrored_segments(k, n_max):
        session.feed(seg)
    assert reports[-1].prefix_symbols == session.symbols_read
    assert reports[-1].output_symbols == session.symbols_written


def test_enum_variant_reports_have_no_closed_form():
    reports = segment_reports(3, 3, variant="paired-enum", seed=5)
    assert all(r.expected_singletons is None for r in reports)


def test_ratio_series_matches_segment_reports():
    for variant, seed in [("paired-lex", None), ("paired-enum", 4)]:
        lean = ratio_series(3, 4, variant=variant, seed=seed)
        full = [
            RatioPoint(r.block, r.prefix_symbols, r.output_symbols, r.rho)
            for r in segment_reports(3, 4, variant=variant, seed=seed)
        ]
        assert lean == full
