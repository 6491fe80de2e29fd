"""Acceptance gate: every shipped claim, at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with
``pytest -s`` or in captured output).  Exact claims use integer
comparisons; measured claims use a single shared measurement pass.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import random

import pytest

from pdtcomp.analysis import rate_below, ratio_series, sufficiency_exact
from pdtcomp.properties import (
    confluence_failures,
    cyclic_failures,
    random_words,
    roundtrip_failures,
    segment_census,
    stack_failures,
)
from pdtcomp.rewrite import normal_form
from pdtcomp.streamio import code_limit, decode_stream, encode_stream

SEGMENT_CAP = 20_000_000
CYCLIC_CAP = 100_000


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def largest_segment_index(k: int, cap: int = SEGMENT_CAP) -> int:
    n = 1
    while (n + 1) * k ** (n + 1) <= cap:
        n += 1
    return n


@pytest.fixture(scope="module")
def census_grid():
    """(k, n, SegmentCensus) for the exact grid."""
    return [
        (k, n, segment_census(k, n))
        for k in range(2, 10)
        for n in (3, 4, 5)
        if n * k**n <= SEGMENT_CAP
    ]


@pytest.fixture(scope="module")
def measured_rho():
    """Final-checkpoint rho for each alphabet size the claims mention."""
    final = {}
    for k in (5, 6, 7, 10, 20):
        n_max = largest_segment_index(k)
        final[k] = ratio_series(k, n_max)[-1]
    return final


def test_criterion_01_round_trip():
    rng = random.Random(20260810)
    alphabets = (2, 3, 5, 7, 10)
    failures = sum(roundtrip_failures(k, random_words(k, 1000, rng, 10_000)) for k in alphabets)
    words = 1000 * len(alphabets)
    report(1, failures == 0, f"{words} random words over k in {{2,3,5,7,10}}, {failures} mismatches")


def test_criterion_02_stack_contents():
    rng = random.Random(8128)
    alphabets = (2, 3, 5)
    failures = sum(stack_failures(k, random_words(k, 1000, rng, 2000)) for k in alphabets)
    words = 1000 * len(alphabets)
    report(2, failures == 0, f"{words} random words over k in {{2,3,5}}, {failures} stack mismatches")


def test_criterion_03_exact_run_census(census_grid):
    bad = [(k, n) for k, n, census in census_grid if not census.exact]
    report(
        3,
        not bad and len(census_grid) == 24,
        f"{len(census_grid)} segments, k=2..9, n=3..5, zero tolerance; mismatches: {bad}",
    )


def test_criterion_04_savings_bound_chain(census_grid):
    bad = [(k, n) for k, n, census in census_grid if not census.bounds_hold]
    report(4, not bad, f"3d>=N, 2N>=h, 6d>=h on {len(census_grid)} segments; violations: {bad}")


def test_criterion_05_cyclic_occurrences():
    checked = 0
    bad = []
    for k in range(2, 37):
        ns, bad_ns = cyclic_failures(k, CYCLIC_CAP)
        checked += len(ns)
        bad += [(k, n) for n in bad_ns]
    report(5, not bad, f"{checked} (k, n) pairs with n*k^n <= {CYCLIC_CAP}, exhaustive; bad: {bad}")


def test_criterion_06_sufficiency_inequality():
    ok = (
        sufficiency_exact(7) is True
        and (9**43 < 7**49) is True
        and sufficiency_exact(6) is False
        and all(sufficiency_exact(k) for k in range(7, 65))
    )
    report(6, ok, "exact integers: k=6 false, k=7 true (9^43 < 7^49), true through k=64")


def test_criterion_07_measured_compression(measured_rho):
    finals = {k: measured_rho[k] for k in (5, 6, 7)}
    report(
        7,
        all(rate_below(k, k + 2, p.symbols_read, p.symbols_written)[0] < 0 for k, p in finals.items()),
        "final rho at largest n with n*k^n <= 2e7: "
        + ", ".join(f"k={k}: {p.rho:.4f}" for k, p in finals.items()),
    )


def test_criterion_08_trend_toward_three_quarters(measured_rho):
    seq = [measured_rho[k].rho for k in (5, 10, 20)]
    gaps = [abs(r - 0.75) for r in seq]
    ok = (
        seq[0] > seq[1] > seq[2]
        and all(r > 0.70 for r in seq)
        and gaps[0] > gaps[1] > gaps[2]
    )
    report(
        8,
        ok,
        f"k=5,10,20 rho={[round(r, 4) for r in seq]}, gaps to 0.75={[round(g, 4) for g in gaps]}",
    )


def test_criterion_09_rewrite_properties():
    # exhaustive local-confluence join check, words of length <= 8 over k <= 3
    words_checked, join_failures = confluence_failures(3, 8)

    rng = random.Random(424242)
    order_failures = 0
    for _ in range(10_000):
        k = rng.choice([2, 3, 4])
        w = [rng.randrange(k) for _ in range(rng.randrange(65))]
        shuffled = list(w)
        expected = normal_form(w)
        while True:
            redexes = [i for i in range(len(shuffled) - 1) if shuffled[i] == shuffled[i + 1]]
            if not redexes:
                break
            i = rng.choice(redexes)
            del shuffled[i : i + 2]
        if shuffled != expected:
            order_failures += 1

    report(
        9,
        join_failures == 0 and order_failures == 0,
        f"local-confluence joins on {words_checked} reducible words (len <= 8, k <= 3), "
        f"10000 randomized-order reductions; failures: {join_failures}+{order_failures}",
    )


def test_criterion_10_format_round_trip():
    rng = random.Random(9999)
    failures = 0
    streams = 0

    def check(symbols, role, k, fmt):
        nonlocal streams, failures
        streams += 1
        encoded = encode_stream(symbols, role, k, fmt)
        decoded = decode_stream(encoded)
        if (list(decoded.symbols), decoded.role, decoded.k) != (list(symbols), role, k):
            failures += 1

    # empty and maximal-code streams in both formats
    for role in (0, 1):
        for k in (2, 36, 65534):
            check([], role, k, "binary")
            check([code_limit(role, k) - 1], role, k, "binary")
        for k in (2, 36):
            check([], role, k, "text")
            check([code_limit(role, k) - 1], role, k, "text")

    while streams < 1000:
        role = rng.randrange(2)
        fmt = rng.choice(["binary", "text"])
        k = rng.choice([2, 3, 5, 10, 36]) if fmt == "text" else rng.choice([2, 7, 36, 255, 65534])
        limit = code_limit(role, k)
        symbols = [rng.randrange(limit) for _ in range(rng.randrange(200))]
        check(symbols, role, k, fmt)

    report(10, failures == 0, f"{streams} streams across both formats, {failures} mismatches")
