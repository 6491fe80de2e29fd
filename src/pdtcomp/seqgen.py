"""Generators for mirrored word-enumeration sequences.

The main construction concatenates, for n = 1, 2, 3, ..., the segment
``L(n) + reverse(L(n))`` where ``L(n)`` lists every length-n word over
``{0, ..., k-1}`` in lexicographic order.  Each segment is an even-length
palindrome, so a matched-pair stack run drains back to its bottom sentinel
at every segment boundary.  A variant pairs each enumerated word with its
own reversal instead (``u1 r(u1) u2 r(u2) ...``), over a seeded shuffle of
the words or, with no seed, lexicographic order.

Words are sequences of small non-negative integers in a
:func:`pdtcomp.codec.packed_buffer`: ``bytearray`` for alphabets of up to
256 symbols and ``array('H')`` beyond.  Generation packs the alphabet once,
builds each digit column of the enumerated words from it by slicing and
repetition, and writes the columns into one buffer per segment,
the mirrored half included.  The buffer is returned as it was filled;
nothing freezes it into a copy, so a segment's build peaks little above
its size.  :func:`iter_mirrored_segments` holds one segment at a time.
"""

import random
from array import array
from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

from .codec import check_alphabet_size, packed, packed_buffer

DEFAULT_BLOCK_CAP = 20_000_000
"""Per-segment budget: generation refuses n with n * k**n above it."""

PAIRED_LEX = "paired-lex"
PAIRED_ENUM = "paired-enum"
VARIANTS = (PAIRED_LEX, PAIRED_ENUM)


class HorizonError(ValueError):
    """A requested segment exceeds the per-segment budget ``DEFAULT_BLOCK_CAP``."""


def _check_block(k: int, n: int) -> int:
    if n < 1:
        raise ValueError(f"segment index must be at least 1, got {n}")
    size = n * k**n
    if size > DEFAULT_BLOCK_CAP:
        raise HorizonError(
            f"segment n={n} holds {2 * size} symbols "
            f"(twice n * k**n = {size}, above the cap of {DEFAULT_BLOCK_CAP})"
        )
    return size


def _lex_column(symbols: Sequence[int], run: int, times: int) -> bytearray | array:
    """Each of ``symbols`` ``run`` times in a row, and that pattern ``times`` times over.

    ``symbols`` is ``range(len(symbols))`` packed.  The pattern grows in a
    :func:`pdtcomp.codec.packed_buffer` one run at a time, so its runs are
    not held apart, and the column, a buffer, assigns into a segment's
    strided slice without the copy that a ``bytes`` column would take.
    """
    pattern = packed_buffer(len(symbols))
    for a in range(len(symbols)):
        pattern += symbols[a : a + 1] * run
    return pattern * times if times > 1 else pattern


def _lex_columns(k: int, n: int) -> Iterator[bytearray | array]:
    """Digit j of the k**n length-n words in lexicographic order, for j = 0 .. n-1.

    Column j holds each symbol k**(n-1-j) times in a row, and that pattern k**j times over.
    A column is emptied when the next is asked for, so the caller writes it
    out before then, and only one column is held while the next is built.
    """
    digits = packed(range(k), k, "symbol")
    for j in range(n):
        column = _lex_column(digits, k ** (n - 1 - j), k**j)
        yield column
        del column[:]


def _shuffled(size: int, rng: random.Random) -> list[int]:
    """``list(range(size))`` in the order ``rng.shuffle`` leaves it, by the same draws.

    The stdlib's shuffle, inlined: for i from ``size - 1`` down to 1 it draws
    ``getrandbits((i + 1).bit_length())`` until the draw is at most i, and swaps
    slots i and j.  So the permutation, and the generator's state after it, are
    ``rng.shuffle``'s, without a ``_randbelow`` call per swap.  The i whose
    i + 1 share one bit length form a band, whose draw width and lowest i are
    computed once.
    """
    order = list(range(size))
    getrandbits = rng.getrandbits
    top = size - 1
    while top >= 1:
        bits = (top + 1).bit_length()
        low = (1 << (bits - 1)) - 1  # the least i with (i + 1).bit_length() == bits
        for i in range(top, low - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        top = low - 1
    return order


def _shuffled_columns(k: int, n: int, seed: int) -> Iterator[Sequence[int]]:
    """The columns of :func:`_lex_columns`, each read in the seeded order of the word indices.

    The order is ``random.Random(f"{seed}:{n}").shuffle`` of the word indices,
    drawn by :func:`_shuffled` with the stdlib's draws inlined.  It is gathered
    from columns of g digits at a time, g the largest with k**g <= 256 and at
    least 1: such a column holds each word's g digits as one base-k number, one
    byte per word, and one ``bytes.translate`` table per digit splits the
    gathered column.
    """
    pick = itemgetter(*_shuffled(k**n, random.Random(f"{seed}:{n}")))
    group = 1
    while k ** (group + 1) <= 256:
        group += 1
    for j in range(0, n, group):
        size = min(group, n - j)
        values = k**size
        gathered = packed_buffer(values)
        gathered.extend(pick(_lex_column(packed(range(values), values, "symbol"), k ** (n - j - size), k**j)))
        if size == 1:
            yield gathered
            continue
        for place in range(size - 1, -1, -1):
            yield gathered.translate(bytes(v // k**place % k for v in range(256)))


def lex_concat(k: int, n: int) -> bytearray | array:
    """All k**n words of length n, in lexicographic order, concatenated.

    The result has n * k**n symbols, starts with n zeros and ends with n
    copies of k - 1.  Built a column at a time: digit j lands at offsets j, j + n, ...
    of one :func:`pdtcomp.codec.packed_buffer`, which is returned as filled.
    """
    check_alphabet_size(k)
    words = packed_buffer(k, _check_block(k, n))
    for j, column in enumerate(_lex_columns(k, n)):
        words[j::n] = column
    return words


def mirrored_segment(k: int, n: int) -> bytearray | array:
    """``lex_concat(k, n)`` followed by its reversal; 2 * n * k**n symbols.

    An even-length palindrome: it rewrites to the empty word under
    adjacent-pair deletion, whatever k and n are.  Built in one buffer, a
    column at a time: digit j lands at offsets j, j + n, ... of the first
    half, and at the mirrored offsets 2·size - 1 - j, 2·size - 1 - j - n, ...
    of the second, so neither half is built apart or copied.
    """
    check_alphabet_size(k)
    size = _check_block(k, n)
    segment = packed_buffer(k, 2 * size)
    for j, column in enumerate(_lex_columns(k, n)):
        segment[j:size:n] = column
        segment[2 * size - 1 - j : size - 1 : -n] = column
    return segment


def _enum_segment(k: int, n: int, seed: int | None) -> bytearray | array:
    """Every length-n word ``u`` as ``u + u[::-1]``, in lexicographic or seeded order.

    Built a column at a time like :func:`lex_concat`: digit j of the word in
    slot i lands at offsets 2n·i + j and 2n·i + 2n - 1 - j.  A seed shuffles
    the word indices, and each lexicographic column is read in that order
    (:func:`_shuffled_columns`).  The buffer is returned as filled.
    """
    check_alphabet_size(k)
    width = 2 * n
    pairs = packed_buffer(k, 2 * _check_block(k, n))
    columns = _lex_columns(k, n) if seed is None else _shuffled_columns(k, n, seed)
    for j, column in enumerate(columns):
        pairs[j::width] = column
        pairs[width - 1 - j :: width] = column
    return pairs


def iter_mirrored_segments(
    k: int,
    n_max: int,
    *,
    variant: str = PAIRED_LEX,
    seed: int | None = None,
) -> Iterator[tuple[int, Sequence[int]]]:
    """An iterator of ``(n, segment)`` for n = 1 .. n_max, materializing one at a time.

    Each segment is the buffer it was built in: ``bytearray`` up to k = 256,
    ``array('H')`` beyond.

    An ``n_max`` below 1 or past the cap, an unknown variant or a seed for
    the unshuffled paired-lex variant raises here, before any segment is built.
    """
    if n_max < 1:
        raise ValueError(f"need n-max >= 1, got {n_max}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if variant == PAIRED_LEX and seed is not None:
        raise ValueError(f"a seed orders only the {PAIRED_ENUM} variant, not {PAIRED_LEX}")
    _check_block(check_alphabet_size(k), n_max)  # n * k**n grows with n: covers every segment
    if variant == PAIRED_LEX:
        return ((n, mirrored_segment(k, n)) for n in range(1, n_max + 1))
    return ((n, _enum_segment(k, n, seed)) for n in range(1, n_max + 1))


def cyclic_pattern_counts(word: Sequence[int], k: int, n: int) -> list[int]:
    """Cyclic occurrence counts of every length-n word over ``{0..k-1}``.

    Entry ``i`` counts the word whose big-endian base-k digits encode
    ``i``: the windows of ``word`` extended by its first ``n - 1`` symbols,
    so a window wrapping the end is counted exactly once.  One rolling
    pass over the packed word.
    """
    if len(word) < n:
        raise ValueError("word shorter than the pattern length")
    if n < 1:
        raise ValueError(f"window length must be at least 1, got {n}")
    word = packed(word, k, "symbol")
    word = word + word[: n - 1]
    counts = [0] * k**n
    modulus = k ** (n - 1)
    value = 0
    for a in islice(word, n - 1):
        value = value * k + a
    for a in islice(word, n - 1, None):
        value = (value % modulus) * k + a
        counts[value] += 1
    return counts
