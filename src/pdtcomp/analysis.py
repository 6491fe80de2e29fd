"""Accounting for compressor runs and the sequences they read.

This module measures what the codec actually does:

* symbol-run census of a word (``block_stats``) and the exact count of
  length-1 runs in a mirrored segment (``expected_singletons``);
* the matching between pushed and popping positions of a drained run
  (``edge_set``) and the savings attributable to clustered pops
  (``pop_run_account``);
* the compression-ratio series of a streamed sequence, normalized by
  alphabet sizes (``ratio_series`` / ``segment_reports``), with the
  closed-form bound ``ratio_bound`` and its exact integer-arithmetic
  version ``sufficiency_exact``;
* an empirical word-frequency estimator (``normality_deviation``).

Ratio convention: a prefix of ``n`` symbols over a k-symbol alphabet coded
into ``m`` symbols over a (k+2)-symbol alphabet scores
``rho = m * log(k + 2) / (n * log k)``; values below 1 mean the coded
prefix carries fewer bits' worth of symbols than the plain one.
"""

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

from .codec import Compressor, mirror_half
from .engine import POP, PUSH, RunTrace
from .seqgen import DEFAULT_BLOCK_CAP, PAIRED_LEX, iter_mirrored_segments, window_counts


class UnbalancedSegmentError(ValueError):
    """The trace does not drain its stack back to the starting depth."""


@dataclass(frozen=True)
class BlockStats:
    """Census of maximal runs of equal adjacent symbols."""

    total: int
    histogram: dict[int, int]
    singletons: int


_CENSUS_CHUNK = 1 << 16
"""Symbol pairs compared per step of the run census; bounds its temporaries."""

_NONZERO = bytes([0]) + bytes([1]) * 255


def _packed(word):
    """``word`` as ``bytes``/``bytearray``/``array('H')``, packed like ``seqgen`` if a list."""
    if isinstance(word, (bytes, bytearray)) or (isinstance(word, array) and word.typecode == "H"):
        return word
    word = list(word)
    low, high = min(word), max(word)
    if low < 0 or high >= 1 << 16:
        bad = next(a for a in word if not 0 <= a < 1 << 16)
        raise ValueError(f"symbol {bad} outside [0, 65536)")
    return bytes(word) if high < 256 else array("H", word)


def _run_census(data: memoryview, width: int, end: int) -> tuple[Counter, int]:
    """Census of the runs of the first ``end`` symbols of the byte view ``data``.

    Returns the closed runs as a Counter of length minus one, and the
    length of the last, still open run.  Adjacent symbols are compared in
    bulk, ``_CENSUS_CHUNK`` pairs at a time: XOR the chunk with itself
    shifted by one symbol, mark each unequal pair (a nonzero byte of its
    XOR) with ``\x01`` and split there, so each piece is a run minus one;
    the last piece of a chunk stays open into the next.
    """
    closed: Counter = Counter()
    carry = 0
    step = _CENSUS_CHUNK
    for i in range(0, end - 1, step):
        size = min(step, end - 1 - i) * width
        a = data[i * width : i * width + size]
        b = data[(i + 1) * width : (i + 1) * width + size]
        x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        if width == 2:
            x |= x >> 8
        pieces = x.to_bytes(size, "big")[width - 1 :: width].translate(_NONZERO).split(b"\x01")
        if len(pieces) == 1:
            carry += len(pieces[0])
            continue
        closed[carry + len(pieces[0])] += 1
        closed.update(map(len, islice(pieces, 1, len(pieces) - 1)))
        carry = len(pieces[-1])
    return closed, carry + 1


def block_stats(word: Sequence[int]) -> BlockStats:
    """Scan ``word`` into maximal equal-symbol runs.

    ``singletons`` counts runs of length exactly 1; the histogram maps run
    length to the number of runs of that length.  An even palindrome
    ``w + w[::-1]`` is folded: its runs are those of ``w`` twice over,
    except that the last run of ``w`` meets its mirror image at the seam
    and the two form one run of twice the length, so only ``w`` is scanned.

    ``bytes``, ``bytearray`` and ``array('H')`` are read in place, through
    a byte view at C speed (see ``_run_census``); any other sequence is
    packed first as ``seqgen`` packs segments, and a symbol outside
    ``[0, 65536)`` raises ``ValueError``.
    """
    if len(word) == 0:
        raise ValueError("word must be non-empty")
    word = _packed(word)
    half = mirror_half(word)
    with memoryview(word) as view, view.cast("B") as data:
        closed, last = _run_census(data, view.itemsize, half or len(word))
    if half:
        closed += closed
        last *= 2
    closed[last - 1] += 1
    histogram = {length + 1: count for length, count in sorted(closed.items())}
    return BlockStats(
        total=sum(histogram.values()),
        histogram=histogram,
        singletons=histogram.get(1, 0),
    )


def expected_singletons(k: int, n: int) -> int:
    """Exact number of length-1 runs in ``mirrored_segment(k, n)``.

    Closed form ``2 * n * (k - 1)**2 * k**(n - 2)``, i.e. the fraction
    ``(k - 1)**2 / k**2`` of the segment length.  Valid for n >= 3, where
    no length-1 run can touch a segment or reversal boundary; smaller n
    are rejected.
    """
    if n < 3:
        raise ValueError(f"closed form requires n >= 3, got {n}")
    return 2 * n * (k - 1) ** 2 * k ** (n - 2)


@dataclass(frozen=True)
class EdgeSet:
    """Push-to-pop matching of a drained run.

    Each edge pairs the 1-based input position of a pushed symbol with the
    position of the pop that removes it.  An edge is short when the pop
    immediately follows the push, long otherwise.  Edges never cross:
    two edges are either nested or disjoint, as forced by stack order.
    """

    edges: list[tuple[int, int]]
    short_edges: int
    long_edges: int


def edge_set(trace: RunTrace) -> EdgeSet:
    """Recover the push/pop matching from a compressor trace.

    The trace must come from a run that starts and ends at the bare stack
    bottom (e.g. a mirrored segment); otherwise
    ``UnbalancedSegmentError`` is raised.
    """
    edges: list[tuple[int, int]] = []
    pending: list[int] = []
    push = pending.append
    pop = pending.pop
    short = 0
    for i, kind in enumerate(trace.kinds, start=1):
        if kind == PUSH:
            push(i)
        else:
            if not pending:
                raise UnbalancedSegmentError(f"pop at position {i} matches no pushed symbol")
            j = pop()
            edges.append((j, i))
            if i - j == 1:
                short += 1
    if pending:
        raise UnbalancedSegmentError(
            f"{len(pending)} pushed symbols never popped (first at position {pending[0]})"
        )
    return EdgeSet(edges=edges, short_edges=short, long_edges=len(edges) - short)


class PopRunAccount(NamedTuple):
    """Savings of one drained, flushed run.

    ``savings`` is symbols read minus symbols written; ``clustered_pops``
    counts pops lying in maximal pop runs of length at least two.
    """

    savings: int
    clustered_pops: int


def pop_run_account(trace: RunTrace) -> PopRunAccount:
    savings = trace.symbols_read - trace.symbols_written
    clustered = 0
    run = 0
    for kind in trace.kinds:
        if kind == POP:
            run += 1
        else:
            if run >= 2:
                clustered += run
            run = 0
    if run >= 2:
        clustered += run
    return PopRunAccount(savings, clustered)


def ratio_bound(k: int) -> float:
    """Closed-form upper-bound factor for the asymptotic coded ratio.

    ``(1 - (k - 1)**2 / (6 k**2)) * log(k + 2) / log(k)``; values below 1
    guarantee compression of the mirrored lexicographic sequence.  The
    first factor decreases to 5/6 and the second to 1 as k grows.
    """
    if k < 2:
        raise ValueError("alphabet size must be at least 2")
    return (1 - (k - 1) ** 2 / (6 * k * k)) * math.log(k + 2) / math.log(k)


def sufficiency_exact(k: int) -> bool:
    """Exact integer test of ``ratio_bound(k) < 1``; no floating point.

    The bound is below 1 iff ``(k+2)**(6k^2 - (k-1)^2) < k**(6k^2)``.
    Common exponent factors are cancelled before comparing (for k = 7 the
    comparison collapses to ``9**43 < 7**49``).
    """
    if k < 2:
        raise ValueError("alphabet size must be at least 2")
    e_plain = 6 * k * k
    e_coded = e_plain - (k - 1) ** 2
    g = math.gcd(e_plain, e_coded)
    return (k + 2) ** (e_coded // g) < k ** (e_plain // g)


@dataclass(frozen=True)
class RatioPoint:
    """Cumulative ratio checkpoint at a segment boundary."""

    block: int
    symbols_read: int
    symbols_written: int
    rho: float


@dataclass(frozen=True)
class SegmentReport:
    """Per-segment measurement row.

    ``prefix_symbols`` / ``output_symbols`` / ``rho`` are cumulative over
    the stream; the remaining quantities describe this segment alone:
    observed and (for n >= 3) predicted length-1 run counts, savings, and
    clustered pops.  ``bound_ok`` checks savings >= singletons / 6.
    """

    block: int
    segment_length: int
    prefix_symbols: int
    output_symbols: int
    rho: float
    singletons: int
    expected_singletons: int | None
    savings: int
    clustered_pops: int

    @property
    def bound_ok(self) -> bool:
        return 6 * self.savings >= self.singletons

    @property
    def point(self) -> RatioPoint:
        return RatioPoint(self.block, self.prefix_symbols, self.output_symbols, self.rho)


def _rho(k: int, read: int, written: int) -> float:
    return written * math.log(k + 2) / (read * math.log(k))


def _consumed_segments(k: int, n_max: int, variant: str, seed: int | None, block_cap: int):
    """Yield ``(n, segment, session)`` once one unflushed session has consumed each segment."""
    session = Compressor(k)
    for n, segment in iter_mirrored_segments(
        k, n_max, variant=variant, seed=seed, block_cap=block_cap
    ):
        session.consume(segment)
        yield n, segment, session


def segment_reports(
    k: int,
    n_max: int,
    *,
    variant: str = PAIRED_LEX,
    seed: int | None = None,
    block_cap: int = DEFAULT_BLOCK_CAP,
) -> list[SegmentReport]:
    """Stream segments 1..n_max through one compressor session.

    The session is never flushed: checkpoints report exactly what an
    unbounded run would have written by each segment boundary.  Per-segment
    savings still follow the flushed convention, because a pending odd
    marker costs one symbol wherever it is eventually emitted; they are
    read off the pair-marker counter, whose runs never span a boundary.
    """
    reports: list[SegmentReport] = []
    prev_savings = 0
    prev_clustered = 0
    for n, segment, session in _consumed_segments(k, n_max, variant, seed, block_cap):
        stats = block_stats(segment)
        expected = None
        if variant == PAIRED_LEX and n >= 3:
            expected = expected_singletons(k, n)
        reports.append(
            SegmentReport(
                block=n,
                segment_length=len(segment),
                prefix_symbols=session.symbols_read,
                output_symbols=session.symbols_written,
                rho=_rho(k, session.symbols_read, session.symbols_written),
                singletons=stats.singletons,
                expected_singletons=expected,
                savings=session.savings - prev_savings,
                clustered_pops=session.clustered_pops - prev_clustered,
            )
        )
        prev_savings = session.savings
        prev_clustered = session.clustered_pops
    return reports


def ratio_series(
    k: int,
    n_max: int,
    *,
    variant: str = PAIRED_LEX,
    seed: int | None = None,
    block_cap: int = DEFAULT_BLOCK_CAP,
) -> list[RatioPoint]:
    """Cumulative ratio checkpoints at every segment boundary.

    Counter-only variant of :func:`segment_reports`: same session, same
    checkpoints, none of the per-segment census work.
    """
    return [
        RatioPoint(n, s.symbols_read, s.symbols_written, _rho(k, s.symbols_read, s.symbols_written))
        for n, _, s in _consumed_segments(k, n_max, variant, seed, block_cap)
    ]


def min_checkpoint_rho(points: Iterable[RatioPoint], *, burn_in: int = 3) -> float:
    """Smallest checkpoint ratio from segment ``burn_in`` onwards."""
    candidates = [p.rho for p in points if p.block >= burn_in]
    if not candidates:
        raise ValueError(f"no checkpoints at or beyond segment {burn_in}")
    return min(candidates)


@dataclass(frozen=True)
class NormalityReport:
    """Observed word frequencies of a prefix against the uniform target.

    ``counts[length]`` maps each length-``length`` word, encoded by its
    big-endian base-k digits, to its overlapping occurrence count.
    ``deviations[length]`` is the largest absolute difference between an
    observed frequency and ``k**-length``.
    """

    k: int
    max_len: int
    symbols: int
    counts: dict[int, list[int]]
    deviations: dict[int, float]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())

    def frequency(self, word: Sequence[int]) -> float:
        length = len(word)
        index = 0
        for a in word:
            index = index * self.k + a
        return self.counts[length][index] / (self.symbols - length + 1)


def normality_deviation(prefix: Sequence[int], k: int, max_len: int) -> NormalityReport:
    """Count every word of length <= max_len in ``prefix`` (overlapping).

    Requires ``len(prefix) >= k**max_len`` so each word could at least
    appear once.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if len(prefix) < k**max_len:
        raise ValueError(
            f"prefix of {len(prefix)} symbols is too short for words of length {max_len}"
        )
    counts: dict[int, list[int]] = {}
    deviations: dict[int, float] = {}
    for length in range(1, max_len + 1):
        row = window_counts(prefix, k, length)
        windows = len(prefix) - length + 1
        target = k**-length
        counts[length] = row
        deviations[length] = max(abs(c / windows - target) for c in row)
    return NormalityReport(
        k=k, max_len=max_len, symbols=len(prefix), counts=counts, deviations=deviations
    )
