"""Accounting for compressor runs and the sequences they read.

This module measures what the codec actually does:

* h, the count of length-1 symbol runs of a word (``block_stats``), and
  its closed form for a mirrored segment (``expected_singletons``);
* the savings of a drained engine run and the pops clustered in its pop
  runs (``pop_run_account``, the one function that imports the engine);
* the compression-ratio series of a streamed sequence, normalized by
  alphabet sizes (``ratio_series`` / ``segment_reports``), with the
  closed-form bound ``ratio_bound`` and its exact integer-arithmetic
  version ``sufficiency_exact``.

Both run tallies are counts of byte patterns (``bytes.count``) over one mark
per adjacent symbol pair or per engine step; no Python loop visits a run.

Ratio convention: a prefix of ``n`` symbols over a k-symbol alphabet coded
into ``m`` symbols over a (k+2)-symbol alphabet scores
``rho = m * log(k + 2) / (n * log k)``; values below 1 mean the coded
prefix carries fewer bits' worth of symbols than the plain one.

Words are taken in the packed form of :func:`pdtcomp.codec.packed`, which
makes the ``bytes``/``array('H')`` choice and the range check for the census
as for every other layer.
"""

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .codec import Compressor, mirror_half, packed
from .seqgen import PAIRED_LEX, iter_mirrored_segments

if TYPE_CHECKING:
    from .engine import RunTrace


_CENSUS_CHUNK = 1 << 16
"""Symbol pairs compared per step of the run census; bounds its temporaries."""

_NONZERO = bytes([0]) + bytes([1]) * 255


def _run_census(data: memoryview, width: int, end: int) -> tuple[int, int]:
    """Length-1 runs among the first ``end`` symbols of the byte view ``data``.

    Returns the number of closed runs of length 1 and the last mark, 1 when
    the last, still open run has length 1.  Adjacent symbols are compared in
    bulk, ``_CENSUS_CHUNK`` pairs at a time: XOR the chunk with itself
    shifted by one symbol and mark each unequal pair (a nonzero byte of its
    XOR) with ``\x01``, each equal one with ``\x00``.  Behind the mark
    carried from the previous chunk (a virtual ``\x01`` before the first
    symbol), each adjacent ``\x01\x01`` closes a run of length 1.
    """
    singles = 0
    last = 1
    step = _CENSUS_CHUNK
    for i in range(0, end - 1, step):
        size = min(step, end - 1 - i) * width
        a = data[i * width : i * width + size]
        b = data[(i + 1) * width : (i + 1) * width + size]
        x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        if width == 2:
            x |= x >> 8
        marks = bytes((last,)) + x.to_bytes(size, "big")[width - 1 :: width].translate(_NONZERO)
        singles += marks.count(1) - marks.count(b"\x00\x01") - last
        last = marks[-1]
    return singles, last


def block_stats(word: Sequence[int]) -> int:
    """h: the number of maximal equal-symbol runs of length exactly 1 in ``word``.

    An even palindrome ``w + w[::-1]`` is folded: its runs are those of
    ``w`` twice over, except that the last run of ``w`` meets its mirror
    image at the seam and the two form one run of twice the length, never
    of length 1; so only ``w`` is scanned and h is twice that of ``w``.

    The word is taken through :func:`pdtcomp.codec.packed` and read through
    a byte view at C speed (see ``_run_census``); a symbol outside
    ``[0, 65536)`` raises ``AlphabetError``, a ``ValueError``.
    """
    if len(word) == 0:
        raise ValueError("word must be non-empty")
    word = packed(word, 1 << 16, "symbol")
    half = mirror_half(word)
    with memoryview(word) as view, view.cast("B") as data:
        singles, last = _run_census(data, view.itemsize, half or len(word))
    if half:
        return 2 * singles
    return singles + last


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


class PopRunAccount(NamedTuple):
    """Savings of one drained, flushed run.

    ``savings`` is symbols read minus symbols written; ``clustered_pops``
    counts pops lying in maximal pop runs of length at least two.
    """

    savings: int
    clustered_pops: int


def pop_run_account(trace: "RunTrace") -> PopRunAccount:
    """Savings and clustered pops of ``trace``, counted as step-kind patterns.

    Behind one leading ``PUSH``, every pop run starts at a ``PUSH POP`` and
    every run of two or more pops at a ``PUSH POP POP``.
    """
    from .engine import POP, PUSH

    kinds = bytes((PUSH,)) + trace.kinds
    singles = kinds.count(bytes((PUSH, POP))) - kinds.count(bytes((PUSH, POP, POP)))
    return PopRunAccount(len(trace) - trace.symbols_written, kinds.count(POP) - singles)


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


class RatioPoint(NamedTuple):
    """Cumulative ratio checkpoint at a segment boundary."""

    block: int
    symbols_read: int
    symbols_written: int
    rho: float


class SegmentReport(NamedTuple):
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


def _rho(k: int, read: int, written: int) -> float:
    return written * math.log(k + 2) / (read * math.log(k))


def _consumed_segments(k: int, n_max: int, variant: str, seed: int | None):
    """Yield ``(n, segment, session)`` once one unflushed session has consumed each segment."""
    session = Compressor(k)
    for n, segment in iter_mirrored_segments(k, n_max, variant=variant, seed=seed):
        session.consume(segment)
        yield n, segment, session


def segment_reports(
    k: int,
    n_max: int,
    *,
    variant: str = PAIRED_LEX,
    seed: int | None = None,
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
    for n, segment, session in _consumed_segments(k, n_max, variant, seed):
        singletons = block_stats(segment)
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
                singletons=singletons,
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
) -> list[RatioPoint]:
    """Cumulative ratio checkpoints at every segment boundary.

    Counter-only variant of :func:`segment_reports`: same session, same
    checkpoints, none of the per-segment census work.
    """
    return [
        RatioPoint(n, s.symbols_read, s.symbols_written, _rho(k, s.symbols_read, s.symbols_written))
        for n, _, s in _consumed_segments(k, n_max, variant, seed)
    ]
