"""Sequence generation: enumeration segments, cyclic counts."""

import random
import tracemalloc
from array import array
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcomp import seqgen
from pdtcomp.rewrite import normal_form
from pdtcomp.seqgen import (
    PAIRED_ENUM,
    PAIRED_LEX,
    HorizonError,
    cyclic_pattern_counts,
    iter_mirrored_segments,
    lex_concat,
    mirrored_segment,
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


def test_horizon_cap(monkeypatch):
    with pytest.raises(HorizonError):
        lex_concat(2, 30)
    monkeypatch.setattr(seqgen, "DEFAULT_BLOCK_CAP", 200)
    assert len(lex_concat(10, 2)) == 200  # size == cap fits
    with pytest.raises(HorizonError, match="above the cap of 200"):
        mirrored_segment(201, 1)  # size == cap + 1
    with pytest.raises(HorizonError):
        next(iter_mirrored_segments(201, 1, variant=PAIRED_ENUM))


@pytest.mark.parametrize("variant", [PAIRED_LEX, PAIRED_ENUM])
def test_n_max_past_the_cap_is_an_error_before_the_first(variant, monkeypatch):
    built = []
    monkeypatch.setattr(seqgen, "lex_concat", lambda k, n: built.append(n))
    monkeypatch.setattr(seqgen, "_enum_segment", lambda k, n, seed: built.append(n))
    with pytest.raises(HorizonError, match="segment n=10 holds"):
        next(iter_mirrored_segments(5, 10, variant=variant))
    assert built == []


def test_large_alphabet_uses_wide_buffer():
    w = lex_concat(300, 1)
    assert len(w) == 300
    assert list(w[:3]) == [0, 1, 2] and w[-1] == 299
    seg = mirrored_segment(300, 1)
    assert len(seg) == 600 and normal_form(seg) == []


@pytest.mark.parametrize("k,n", [(5, 6), (300, 2)], ids=["bytearray", "array-H"])
def test_mirrored_segment_is_built_in_one_buffer(k, n):
    # Holding w, its reversal and their concatenation peaked at 2.00x (5, 6) and 2.03x (300, 2).
    tracemalloc.start()
    try:
        segment = mirrored_segment(k, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * memoryview(segment).nbytes


@pytest.mark.parametrize("k,n", [(256, 2), (257, 1), (300, 2)])
def test_wide_alphabets_match_direct_enumeration(k, n):
    words = list(product(range(k), repeat=n))
    enumerated = [a for word in words for a in word]
    w = lex_concat(k, n)
    assert isinstance(w, bytearray if k <= 256 else array)
    assert list(w) == enumerated
    segment = mirrored_segment(k, n)  # the second half written backwards, strided
    assert type(segment) is type(w)
    assert list(segment) == enumerated + enumerated[::-1]
    _, enum = list(iter_mirrored_segments(k, n, variant=PAIRED_ENUM))[-1]
    assert type(enum) is type(w)
    assert list(enum) == [a for word in words for a in word + word[::-1]]


@pytest.mark.parametrize("n_max", [0, -1])
def test_no_segments_is_an_error_before_the_first(n_max):
    for variant in (PAIRED_LEX, PAIRED_ENUM):
        with pytest.raises(ValueError, match="n-max"):
            iter_mirrored_segments(3, n_max, variant=variant)  # raised by the call, not by next()


def test_a_seed_for_paired_lex_is_an_error_before_the_first():
    with pytest.raises(ValueError, match="seed"):
        next(iter_mirrored_segments(3, 2, variant=PAIRED_LEX, seed=0))


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


@pytest.mark.parametrize(
    "k,n,seed",
    # digits gathered g at a time, k**g <= 256: one part group, a full and a part group, g = 1
    [(3, 3, 7), (2, 4, 0), (2, 9, 3), (5, 4, 1), (16, 3, 2), (17, 2, 1), (257, 1, 5)],
)
def test_seeded_enum_is_a_shuffle_of_the_paired_words(k, n, seed):
    words = [list(u) + list(u[::-1]) for u in product(range(k), repeat=n)]
    random.Random(f"{seed}:{n}").shuffle(words)
    _, segment = list(iter_mirrored_segments(k, n, variant=PAIRED_ENUM, seed=seed))[-1]
    assert list(segment) == [a for word in words for a in word]


SHUFFLE_SEEDS = ["1:8", "3:3", "paired-enum", 0, 7, 2**70 + 1]  # gen's f"{seed}:{n}" form first
SHUFFLE_SIZES = sorted(
    {*range(71)}
    | {2**j + d for j in range(1, 18) for d in (-1, 0, 1)}  # each side of a bit-length band's edge
    | {k**n for k in range(2, 11) for n in range(1, 17) if k**n <= 5**7}
)


@pytest.mark.parametrize("seed", SHUFFLE_SEEDS)
def test_inlined_shuffle_is_the_stdlib_shuffle(seed):
    # every seed on the sizes up to 4,096; the larger sizes shared out between the seeds
    part = SHUFFLE_SEEDS.index(seed)
    large = [size for size in SHUFFLE_SIZES if size > 4096][part :: len(SHUFFLE_SEEDS)]
    for size in [size for size in SHUFFLE_SIZES if size <= 4096] + large:
        expected, stdlib = list(range(size)), random.Random(seed)
        stdlib.shuffle(expected)
        inlined = random.Random(seed)
        assert seqgen._shuffled(size, inlined) == expected, size
        assert inlined.getstate() == stdlib.getstate(), size  # the same draws, so later ones agree


def test_enum_variant_differs_from_lex_but_same_material():
    k, n = 2, 2
    lex = list(mirrored_segment(k, n))
    enum = []
    for _, seg in iter_mirrored_segments(k, n, variant=PAIRED_ENUM):
        enum = list(seg)
    assert sorted(enum) == sorted(lex[: len(enum)])
    assert normal_form(enum) == []


def test_cyclic_occurrences_examples():
    assert cyclic_pattern_counts(lex_concat(2, 2), 2, 2)[0b01] == 2
    assert cyclic_pattern_counts([0, 0, 0], 2, 2) == [3, 0, 0, 0]
    assert cyclic_pattern_counts(lex_concat(3, 3), 3, 3)[0 * 9 + 2 * 3 + 1] == 3


def test_cyclic_occurrences_argument_checks():
    with pytest.raises(ValueError, match="window length must be at least 1"):
        cyclic_pattern_counts([0, 1], 2, 0)
    with pytest.raises(ValueError, match="word shorter than the pattern length"):
        cyclic_pattern_counts([0], 2, 2)
    with pytest.raises(ValueError, match="symbol 3 outside"):
        cyclic_pattern_counts([0, 1, 3, 2], 3, 2)
    with pytest.raises(ValueError, match="symbol -1 outside"):
        cyclic_pattern_counts([0, -1, 1], 2, 1)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cyclic_occurrences_against_brute_force(data):
    k = data.draw(st.integers(2, 4))
    word = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=30))
    n = data.draw(st.integers(1, min(len(word), 4)))
    expected = [brute_cyclic_occurrences(word, p) for p in product(range(k), repeat=n)]
    assert cyclic_pattern_counts(word, k, n) == expected
    assert cyclic_pattern_counts(bytes(word), k, n) == expected


@pytest.mark.parametrize("k,n", [(2, 1), (2, 3), (2, 6), (3, 3), (4, 2), (5, 2)])
def test_every_word_appears_n_times_cyclically(k, n):
    w = lex_concat(k, n)
    counts = cyclic_pattern_counts(w, k, n)
    assert counts == [n] * k**n
    # spot-check the rolling census against the brute-force counter
    patterns = list(product(range(k), repeat=n))
    for index in range(0, k**n, max(1, k**n // 7)):
        assert brute_cyclic_occurrences(w, patterns[index]) == n


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (4, 3)])
def test_shorter_words_inherit_scaled_counts(k, n):
    # every length-3 word appears n * k**(n-3) times cyclically
    w = lex_concat(k, n)
    counts = cyclic_pattern_counts(w, k, 3)
    assert counts == [n * k ** (n - 3)] * k**3
