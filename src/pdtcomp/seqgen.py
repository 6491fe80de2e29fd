"""Generators for mirrored word-enumeration sequences.

The main construction concatenates, for n = 1, 2, 3, ..., the segment
``L(n) + reverse(L(n))`` where ``L(n)`` lists every length-n word over
``{0, ..., k-1}`` in lexicographic order.  Each segment is an even-length
palindrome, so a matched-pair stack run drains back to its bottom sentinel
at every segment boundary.  A variant pairs each enumerated word with its
own reversal instead (``u1 r(u1) u2 r(u2) ...``), over a seeded shuffle of
the words or, with no seed, lexicographic order.

Words are represented as sequences of small non-negative integers; the
materialized forms are ``bytes`` for alphabets of up to 256 symbols and
``array('H')`` beyond; :func:`iter_mirrored_segments` holds one segment at
a time.
"""

import random
from array import array
from itertools import islice
from typing import Iterator, Sequence

from .codec import check_alphabet_size

DEFAULT_BLOCK_CAP = 20_000_000
"""Default per-segment budget: generation refuses n with n * k**n above it."""

PAIRED_LEX = "paired-lex"
PAIRED_ENUM = "paired-enum"
VARIANTS = (PAIRED_LEX, PAIRED_ENUM)


class HorizonError(ValueError):
    """A requested segment exceeds the configured size budget."""


def _check_block(k: int, n: int, cap: int) -> int:
    if n < 1:
        raise ValueError(f"segment index must be at least 1, got {n}")
    size = n * k**n
    if size > cap:
        raise HorizonError(f"segment n={n} holds {size} symbols, above the cap of {cap}")
    return size


def _empty_buffer(k: int):
    return bytearray() if k <= 256 else array("H")


def _freeze(buf):
    return bytes(buf) if isinstance(buf, bytearray) else buf


def lex_concat(k: int, n: int, *, block_cap: int = DEFAULT_BLOCK_CAP) -> Sequence[int]:
    """All k**n words of length n, in lexicographic order, concatenated.

    The result has n * k**n symbols, starts with n zeros and ends with n
    copies of k - 1.
    """
    check_alphabet_size(k)
    _check_block(k, n, block_cap)
    out = _empty_buffer(k)
    extend = out.extend
    digits = bytearray(n) if k <= 256 else array("H", [0] * n)
    last = n - 1
    for _ in range(k**n):
        extend(digits)
        i = last
        while i >= 0:
            d = digits[i] + 1
            if d == k:
                digits[i] = 0
                i -= 1
            else:
                digits[i] = d
                break
    return _freeze(out)


def mirrored_segment(k: int, n: int, *, block_cap: int = DEFAULT_BLOCK_CAP) -> Sequence[int]:
    """``lex_concat(k, n)`` followed by its reversal; 2 * n * k**n symbols.

    An even-length palindrome: it rewrites to the empty word under
    adjacent-pair deletion, whatever k and n are.
    """
    w = lex_concat(k, n, block_cap=block_cap)
    return w + w[::-1]


def word_at(k: int, n: int, index: int) -> list[int]:
    """The ``index``-th length-n word in lexicographic order (big-endian)."""
    if not 0 <= index < k**n:
        raise ValueError(f"index {index} out of range for {k}**{n} words")
    digits = [0] * n
    for j in range(n - 1, -1, -1):
        index, digits[j] = divmod(index, k)
    return digits


def _enum_order(k: int, n: int, seed: int | None) -> Iterator[int]:
    if seed is None:
        return iter(range(k**n))
    order = list(range(k**n))
    random.Random(f"{seed}:{n}").shuffle(order)
    return iter(order)


def _enum_segment(k: int, n: int, seed: int | None, cap: int) -> Sequence[int]:
    _check_block(k, n, cap)
    out = _empty_buffer(k)
    word = bytearray(n) if k <= 256 else array("H", [0] * n)
    for index in _enum_order(k, n, seed):
        for j in range(n - 1, -1, -1):
            index, word[j] = divmod(index, k)
        out += word
        out += word[::-1]
    return _freeze(out)


def iter_mirrored_segments(
    k: int,
    n_max: int,
    *,
    variant: str = PAIRED_LEX,
    seed: int | None = None,
    block_cap: int = DEFAULT_BLOCK_CAP,
) -> Iterator[tuple[int, Sequence[int]]]:
    """Yield ``(n, segment)`` for n = 1 .. n_max, materializing one at a time."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    for n in range(1, n_max + 1):
        if variant == PAIRED_LEX:
            yield n, mirrored_segment(k, n, block_cap=block_cap)
        else:
            yield n, _enum_segment(k, n, seed, block_cap)


def cyclic_occurrences(word: Sequence[int], pattern: Sequence[int]) -> int:
    """Occurrences of ``pattern`` in ``word`` read cyclically.

    Counts overlapping matches in ``word`` extended by its own first
    ``len(pattern) - 1`` symbols, so a match wrapping the border is counted
    exactly once.  ``pattern`` must be non-empty and no longer than
    ``word``.
    """
    m = len(pattern)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    if m > len(word):
        raise ValueError("pattern longer than word")
    if isinstance(word, (bytes, bytearray)) and not isinstance(pattern, (bytes, bytearray)):
        try:
            pattern = bytes(pattern)
        except ValueError:
            return 0  # pattern symbols cannot occur in a byte-valued word
    extended = word + word[: m - 1]
    if isinstance(extended, (bytes, bytearray)):
        count = 0
        i = extended.find(pattern)
        while i != -1:
            count += 1
            i = extended.find(pattern, i + 1)
        return count
    pattern = list(pattern)
    return sum(1 for i in range(len(word)) if list(extended[i : i + m]) == pattern)


def window_counts(word: Sequence[int], k: int, n: int) -> list[int]:
    """Overlapping occurrence counts of every length-n word over ``{0..k-1}``.

    Entry ``i`` counts the word whose big-endian base-k digits encode
    ``i``.  Windows do not wrap around the end of ``word``.  One rolling
    pass, after a bulk range check of the symbols.
    """
    if n < 1:
        raise ValueError(f"window length must be at least 1, got {n}")
    if word and (min(word) < 0 or max(word) >= k):
        bad = next(a for a in word if not 0 <= a < k)
        raise ValueError(f"symbol {bad} outside [0, {k})")
    counts = [0] * k**n
    modulus = k ** (n - 1)
    value = 0
    for a in islice(word, n - 1):
        value = value * k + a
    for a in islice(word, n - 1, None):
        value = (value % modulus) * k + a
        counts[value] += 1
    return counts


def cyclic_pattern_counts(word: Sequence[int], k: int, n: int) -> list[int]:
    """Cyclic occurrence counts of every length-n word over ``{0..k-1}``.

    Entry ``i`` counts the word whose big-endian base-k digits encode
    ``i``: the windows of ``word`` extended by its first ``n - 1`` symbols.
    """
    if len(word) < n:
        raise ValueError("word shorter than the pattern length")
    return window_counts(word + word[: n - 1], k, n)
