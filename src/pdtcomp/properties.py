"""The paper's checkable claims, one implementation each.

``pdtcomp verify`` and the acceptance gate both run these checks, with
their own sizes, seeds and thresholds; each check returns what failed.
Codec, analysis and rewrite functions are called through their module
attributes, so instrumentation that replaces those attributes sees them.
"""

from functools import cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from . import analysis, codec, rewrite, seqgen


def random_words(k: int, count: int, rng, max_len: int) -> Iterator[list[int]]:
    """``count`` words over ``{0..k-1}``, each of a uniform length in ``[0, max_len]``.

    Drawn lazily from ``rng``: the length first, then all its symbols in one call.
    """
    for _ in range(count):
        yield rng.choices(range(k), k=rng.randrange(max_len + 1))


def roundtrip_failures(k: int, words: Iterable[list[int]]) -> int:
    """Words that ``decompress(compress(w))`` does not give back, symbol for symbol.

    Compared as lists: the codec returns ``bytes`` or ``array('H')``, which never
    equal each other or a list of the same symbols.
    """
    return sum(list(codec.decompress(codec.compress(w, k), k)) != list(w) for w in words)


def stack_failures(k: int, words: Iterable[list[int]]) -> int:
    """Words after which the compressor's stack is not the bottom plus the reduced word."""
    bottom = codec.stack_bottom(k)
    failures = 0
    for w in words:
        session = codec.Compressor(k)
        session.feed(w)
        failures += list(session.stack) != [bottom, *rewrite.normal_form(w)]
    return failures


class SegmentCensus(NamedTuple):
    """Census of ``mirrored_segment(k, n)``: its length-1 symbol runs (h) and
    their closed form, and the savings (d) and clustered pops (N) of its run.
    """

    singletons: int
    expected: int
    savings: int
    clustered: int

    @property
    def exact(self) -> bool:
        return self.singletons == self.expected

    @property
    def bounds_hold(self) -> bool:
        """The savings-bound chain 3d >= N, 2N >= h, 6d >= h."""
        d, clustered, h = self.savings, self.clustered, self.singletons
        return 3 * d >= clustered and 2 * clustered >= h and 6 * d >= h


def segment_census(k: int, n: int) -> SegmentCensus:
    """Census of one segment: generated once, run once through the table and ``block_stats``."""
    segment = seqgen.mirrored_segment(k, n)
    _, _, trace = codec.compress_run(segment, k)
    savings, clustered = analysis.pop_run_account(trace)
    singletons = analysis.block_stats(segment)
    return SegmentCensus(singletons, analysis.expected_singletons(k, n), savings, clustered)


def cyclic_failures(k: int, cap: int) -> tuple[list[int], list[int]]:
    """Lengths ``ns`` with n * k**n <= cap, and the ``bad`` ones among them.

    n is bad when some length-n word does not occur exactly n times
    cyclically in ``lex_concat(k, n)``.
    """
    # k >= 2, so n * k**n > cap once n exceeds cap.bit_length()
    ns = [n for n in range(1, cap.bit_length() + 1) if n * k**n <= cap]
    bad = [n for n in ns if seqgen.cyclic_pattern_counts(seqgen.lex_concat(k, n), k, n) != [n] * k**n]
    return ns, bad


def confluence_failures(k: int, max_len: int) -> tuple[int, int]:
    """Exhaustive local-confluence join check of adjacent-pair deletion.

    Over every alphabet of 1..k symbols and every word of length
    2..max_len with at least one equal adjacent pair, any two one-step
    reducts must reach a common word.  Returns ``(checked, failures)``:
    the reducible words checked and the reduct pairs with no common word.
    """
    @cache
    def reachable(word: tuple) -> frozenset:
        acc = {word}
        for i in range(len(word) - 1):
            if word[i] == word[i + 1]:
                acc |= reachable(word[:i] + word[i + 2 :])
        return frozenset(acc)

    checked = failures = 0
    for size, length in product(range(1, k + 1), range(2, max_len + 1)):
        for word in product(range(size), repeat=length):
            reducts = [word[:i] + word[i + 2 :] for i in range(length - 1) if word[i] == word[i + 1]]
            checked += bool(reducts)
            for w1, w2 in product(reducts, repeat=2):
                failures += not reachable(w1) & reachable(w2)
    return checked, failures
