"""The shared property checks report planted faults."""

import random
from itertools import product

import pytest

from pdtcomp import analysis, codec, properties, rewrite, seqgen
from pdtcomp.properties import SegmentCensus


def words(k, count=30, seed=5):
    return list(properties.random_words(k, count, random.Random(seed), 40))


def test_random_words_draw_the_length_first():
    rng = random.Random(11)
    expected = [rng.choices(range(3), k=rng.randrange(8)) for _ in range(20)]
    assert list(properties.random_words(3, 20, random.Random(11), 7)) == expected


def test_roundtrip_failures_count_a_lossy_decoder(monkeypatch):
    sample = words(3)
    assert properties.roundtrip_failures(3, sample) == 0
    real = codec.decompress
    monkeypatch.setattr(codec, "decompress", lambda word, k: real(word, k)[:-1])
    assert properties.roundtrip_failures(3, sample) == sum(1 for w in sample if w)


def test_stack_failures_count_a_wrong_normal_form(monkeypatch):
    sample = words(2)
    assert properties.stack_failures(2, sample) == 0
    real = rewrite.normal_form
    monkeypatch.setattr(rewrite, "normal_form", lambda word: real(word) + [0])
    assert properties.stack_failures(2, sample) > 0


def test_segment_census_is_exact_until_the_closed_form_is_off(monkeypatch):
    census = properties.segment_census(3, 3)
    assert census.exact and census.bounds_hold
    assert census.singletons == analysis.expected_singletons(3, 3)
    real = analysis.expected_singletons
    monkeypatch.setattr(analysis, "expected_singletons", lambda k, n: real(k, n) + 1)
    assert not properties.segment_census(3, 3).exact


@pytest.mark.parametrize(
    "singletons, savings, clustered",
    [
        (6, 1, 4),  # 3d < N
        (6, 1, 2),  # 2N < h
        (7, 1, 3),  # 6d < h (follows from the other two, so 2N < h as well)
    ],
)
def test_bounds_hold_fails_on_each_broken_inequality(singletons, savings, clustered):
    assert SegmentCensus(6, 6, 1, 3).bounds_hold
    assert not SegmentCensus(singletons, singletons, savings, clustered).bounds_hold


def test_cyclic_failures_name_the_corrupted_length(monkeypatch):
    assert properties.cyclic_failures(2, 200) == ([1, 2, 3, 4, 5], [])
    real = seqgen.lex_concat

    def corrupted(k, n, **kwargs):
        word = real(k, n, **kwargs)
        return word if n != 3 else bytes([1 - word[0]]) + word[1:]

    monkeypatch.setattr(seqgen, "lex_concat", corrupted)
    assert properties.cyclic_failures(2, 200) == ([1, 2, 3, 4, 5], [3])


def test_confluence_failures_check_every_reducible_word():
    reducible = sum(
        any(w[i] == w[i + 1] for i in range(length - 1))
        for size in (1, 2, 3)
        for length in range(2, 6)
        for w in product(range(size), repeat=length)
    )
    assert properties.confluence_failures(3, 5) == (reducible, 0)
