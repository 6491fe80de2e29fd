"""Run accounting, ratio measurement, and the exact sufficiency arithmetic."""

import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcomp import analysis
from pdtcomp.analysis import (
    BlockStats,
    PopRunAccount,
    UnbalancedSegmentError,
    block_stats,
    edge_set,
    expected_singletons,
    min_checkpoint_rho,
    normality_deviation,
    pop_run_account,
    ratio_bound,
    ratio_series,
    segment_reports,
    sufficiency_exact,
)
from pdtcomp.codec import Compressor, compress_run
from pdtcomp.seqgen import iter_mirrored_segments, lex_concat, mirrored_segment


def brute_block_stats(word):
    """Oracle: scan runs with an explicit index loop."""
    histogram = {}
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        histogram[j - i] = histogram.get(j - i, 0) + 1
        i = j
    return BlockStats(sum(histogram.values()), histogram, histogram.get(1, 0))


def test_block_stats_examples():
    stats = block_stats([0, 1, 1, 0])
    assert stats.total == 3
    assert stats.singletons == 2
    assert stats.histogram == {1: 2, 2: 1}
    stats = block_stats([0, 0, 0])
    assert stats.total == 1 and stats.singletons == 0 and stats.histogram == {3: 1}
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
        assert block_stats(word) == BlockStats(1, {200_000: 1}, 0)


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


def test_block_stats_histogram_weighted_sum_is_length():
    for k, n in [(2, 4), (3, 3), (5, 2)]:
        seg = mirrored_segment(k, n)
        stats = block_stats(seg)
        assert sum(length * count for length, count in stats.histogram.items()) == len(seg)


def test_expected_singletons_values():
    assert expected_singletons(3, 3) == 72
    assert expected_singletons(2, 3) == 12
    assert expected_singletons(7, 3) == 1512
    with pytest.raises(ValueError):
        expected_singletons(5, 2)


@pytest.mark.parametrize("k,n", [(2, 3), (2, 5), (3, 3), (3, 4), (7, 3), (9, 3)])
def test_expected_singletons_matches_census(k, n):
    assert block_stats(mirrored_segment(k, n)).singletons == expected_singletons(k, n)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (4, 3), (5, 4)])
def test_segment_singletons_double_the_half_segment(k, n):
    w = lex_concat(k, n)
    assert block_stats(w + w[::-1]).singletons == 2 * block_stats(w).singletons


def test_edge_set_examples():
    _, _, trace = compress_run([0, 1, 1, 0], 2)
    edges = edge_set(trace)
    assert sorted(edges.edges) == [(1, 4), (2, 3)]
    assert edges.short_edges == 1 and edges.long_edges == 1
    _, _, trace = compress_run([0, 0], 2)
    assert edge_set(trace).edges == [(1, 2)]
    _, _, trace = compress_run([0, 1, 0], 2)
    with pytest.raises(UnbalancedSegmentError):
        edge_set(trace)


def _edge_invariants(word, k):
    _, _, trace = compress_run(word, k)
    edges = edge_set(trace)
    seen = set()
    for i, j in edges.edges:
        assert i < j
        assert word[i - 1] == word[j - 1]
        seen.update((i, j))
    assert seen == set(range(1, len(word) + 1))
    for a, b in edges.edges:
        for c, d in edges.edges:
            if a < c:
                assert c > b or d < b, f"edges ({a},{b}) and ({c},{d}) cross"
    return edges


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.lists(st.integers(0, 3), max_size=30))
def test_edge_invariants_on_drained_runs(k, half):
    word = [a % k for a in half]
    word = word + word[::-1]
    _edge_invariants(word, k)


def test_every_singleton_block_touches_a_long_edge():
    rng = random.Random(5)
    for _ in range(120):
        k = rng.choice([2, 3])
        half = [rng.randrange(k) for _ in range(rng.randrange(1, 14))]
        word = half + half[::-1]
        edges = _edge_invariants(word, k)
        long_ends = {p for i, j in edges.edges if j - i > 1 for p in (i, j)}
        stats_positions = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            if j - i == 1:
                stats_positions.append(i + 1)
            i = j
        for p in stats_positions:
            assert p in long_ends, (word, p, edges.edges)


def test_pop_run_account_examples():
    _, _, trace = compress_run([0, 1, 1, 0], 2)
    assert pop_run_account(trace) == PopRunAccount(1, 2)
    _, _, trace = compress_run([0, 0], 2)
    assert pop_run_account(trace) == PopRunAccount(0, 0)
    seg = mirrored_segment(3, 3)
    _, _, trace = compress_run(seg, 3)
    account = pop_run_account(trace)
    assert account.savings >= expected_singletons(3, 3) // 6 == 12


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_savings_bound_chain_small_grid(k):
    for n in (3, 4):
        seg = mirrored_segment(k, n)
        _, _, trace = compress_run(seg, k)
        savings, clustered = pop_run_account(trace)
        singles = block_stats(seg).singletons
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
            assert r.singletons == block_stats(seg).singletons
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
        full = [r.point for r in segment_reports(3, 4, variant=variant, seed=seed)]
        assert lean == full


def test_min_checkpoint_rho():
    points = ratio_series(5, 5)
    assert min_checkpoint_rho(points) == min(p.rho for p in points if p.block >= 3)
    with pytest.raises(ValueError):
        min_checkpoint_rho(points[:2])


def test_normality_deviation_symmetric_prefix():
    report = normality_deviation([0, 1, 1, 0], 2, 1)
    assert report.counts[1] == [2, 2]
    assert report.deviations[1] == 0.0
    assert report.frequency([0]) == 0.5


def test_normality_deviation_window_counts():
    report = normality_deviation([0, 1, 1, 0], 2, 2)
    assert report.counts[2] == [0, 1, 1, 1]  # 00, 01, 10, 11
    assert report.max_deviation == pytest.approx(1 / 4)


def test_normality_deviation_shrinks_with_horizon():
    def prefix_through(k, n_max):
        out = bytearray()
        for _, seg in iter_mirrored_segments(k, n_max):
            out += seg
        return bytes(out)

    r3 = normality_deviation(prefix_through(3, 3), 3, 2)
    r4 = normality_deviation(prefix_through(3, 4), 3, 2)
    assert r4.max_deviation <= r3.max_deviation


def test_normality_deviation_requires_long_enough_prefix():
    with pytest.raises(ValueError):
        normality_deviation([0, 1], 2, 2)


def test_frequencies_sum_to_one():
    report = normality_deviation(list(mirrored_segment(2, 4)), 2, 3)
    for length, row in report.counts.items():
        windows = report.symbols - length + 1
        assert sum(row) == windows
