"""Sequence generation: enumeration segments, cyclic counts."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcomp.rewrite import normal_form
from pdtcomp.seqgen import (
    PAIRED_ENUM,
    PAIRED_LEX,
    HorizonError,
    cyclic_occurrences,
    cyclic_pattern_counts,
    iter_mirrored_segments,
    lex_concat,
    mirrored_segment,
    word_at,
)


def brute_cyclic_occurrences(word, pattern):
    """Oracle: compare every rotation window directly."""
    word = list(word)
    pattern = list(pattern)
    n = len(pattern)
    doubled = word + word
    return sum(1 for i in range(len(word)) if doubled[i : i + n] == pattern)


def test_lex_concat_examples():
    assert list(lex_concat(2, 1)) == [0, 1]
    assert list(lex_concat(2, 2)) == [0, 0, 0, 1, 1, 0, 1, 1]
    assert len(lex_concat(3, 3)) == 3 * 27


def test_lex_concat_matches_direct_enumeration():
    for k, n in [(2, 3), (3, 2), (4, 2), (5, 1)]:
        direct = [a for word in product(range(k), repeat=n) for a in word]
        assert list(lex_concat(k, n)) == direct


@pytest.mark.parametrize("k,n", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_lex_concat_shape(k, n):
    w = lex_concat(k, n)
    assert len(w) == n * k**n
    assert list(w[:n]) == [0] * n
    assert list(w[-n:]) == [k - 1] * n


def test_mirrored_segment_examples():
    assert list(mirrored_segment(2, 1)) == [0, 1, 1, 0]
    w2 = list(lex_concat(2, 2))
    assert list(mirrored_segment(2, 2)) == w2 + w2[::-1]


@pytest.mark.parametrize("k,n", [(2, 1), (2, 5), (3, 3), (4, 2), (6, 2)])
def test_mirrored_segments_reduce_to_nothing(k, n):
    assert normal_form(mirrored_segment(k, n)) == []


def test_horizon_cap():
    with pytest.raises(HorizonError):
        lex_concat(2, 30)
    with pytest.raises(HorizonError):
        mirrored_segment(10, 10, block_cap=1000)
    assert len(lex_concat(10, 2, block_cap=200)) == 200


def test_word_at_roundtrip():
    k, n = 3, 4
    words = [tuple(word_at(k, n, i)) for i in range(k**n)]
    assert words == sorted(words)
    assert words == list(product(range(k), repeat=n))
    with pytest.raises(ValueError):
        word_at(2, 2, 4)


def test_large_alphabet_uses_wide_buffer():
    w = lex_concat(300, 1)
    assert len(w) == 300
    assert list(w[:3]) == [0, 1, 2] and w[-1] == 299
    seg = mirrored_segment(300, 1)
    assert len(seg) == 600 and normal_form(seg) == []


@pytest.mark.parametrize(
    "variant,seed,first",
    [(PAIRED_LEX, None, [0, 1, 1, 0]), (PAIRED_ENUM, None, [0, 0, 1, 1]), (PAIRED_ENUM, 99, None)],
)
def test_iter_mirrored_segments(variant, seed, first):
    k, n_max = 3, 4
    segments = list(iter_mirrored_segments(k, n_max, variant=variant, seed=seed))
    assert [(n, len(seg)) for n, seg in segments] == [(n, 2 * n * k**n) for n in range(1, n_max + 1)]
    assert segments == list(iter_mirrored_segments(k, n_max, variant=variant, seed=seed))
    if first is not None:  # k=2, n=1: the unseeded orders are lexicographic
        assert list(next(iter_mirrored_segments(2, 1, variant=variant, seed=seed))[1]) == first
    with pytest.raises(ValueError):
        next(iter_mirrored_segments(k, n_max, variant="zigzag", seed=seed))


def test_enum_variant_differs_from_lex_but_same_material():
    k, n = 2, 2
    lex = list(mirrored_segment(k, n))
    enum = []
    for _, seg in iter_mirrored_segments(k, n, variant=PAIRED_ENUM):
        enum = list(seg)
    assert sorted(enum) == sorted(lex[: len(enum)])
    assert normal_form(enum) == []


def test_cyclic_occurrences_examples():
    assert cyclic_occurrences(lex_concat(2, 2), [0, 1]) == 2
    assert cyclic_occurrences([0, 0, 0], [0, 0]) == 3
    assert cyclic_occurrences(lex_concat(3, 3), [0, 2, 1]) == 3


def test_cyclic_occurrences_argument_checks():
    with pytest.raises(ValueError):
        cyclic_occurrences([0, 1], [])
    with pytest.raises(ValueError):
        cyclic_occurrences([0], [0, 1])
    with pytest.raises(ValueError, match="symbol 3 outside"):
        cyclic_pattern_counts([0, 1, 3, 2], 3, 2)
    with pytest.raises(ValueError, match="symbol -1 outside"):
        cyclic_pattern_counts([0, -1, 1], 2, 1)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cyclic_occurrences_against_brute_force(data):
    k = data.draw(st.integers(2, 4))
    word = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=30))
    m = data.draw(st.integers(1, len(word)))
    pattern = data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    assert cyclic_occurrences(word, pattern) == brute_cyclic_occurrences(word, pattern)
    assert cyclic_occurrences(bytes(word), bytes(pattern)) == brute_cyclic_occurrences(
        word, pattern
    )


@pytest.mark.parametrize("k,n", [(2, 1), (2, 3), (2, 6), (3, 3), (4, 2), (5, 2)])
def test_every_word_appears_n_times_cyclically(k, n):
    w = lex_concat(k, n)
    counts = cyclic_pattern_counts(w, k, n)
    assert counts == [n] * k**n
    # spot-check the rolling census against the single-pattern counter
    for index in range(0, k**n, max(1, k**n // 7)):
        assert cyclic_occurrences(w, word_at(k, n, index)) == n


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (4, 3)])
def test_shorter_words_inherit_scaled_counts(k, n):
    # every length-3 word appears n * k**(n-3) times cyclically
    w = lex_concat(k, n)
    counts = cyclic_pattern_counts(w, k, 3)
    assert counts == [n * k ** (n - 3)] * k**3
