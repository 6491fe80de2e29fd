"""Adjacent-pair deletion: unique reduced forms and congruence."""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcomp.rewrite import normal_form


def random_order_normal_form(word, rng):
    """Oracle: reduce redexes in random order until none remain."""
    w = list(word)
    steps = 0
    while True:
        redexes = [i for i in range(len(w) - 1) if w[i] == w[i + 1]]
        if not redexes:
            return w, steps
        i = rng.choice(redexes)
        del w[i : i + 2]
        steps += 1


def one_step_reducts(word):
    return [
        tuple(word[:i] + word[i + 2 :])
        for i in range(len(word) - 1)
        if word[i] == word[i + 1]
    ]


def reachable(word):
    """All words reachable by repeatedly deleting adjacent equal pairs."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        w = frontier.pop()
        for r in one_step_reducts(list(w)):
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def test_normal_form_examples():
    assert normal_form([]) == []
    assert normal_form([0, 1, 1, 0]) == []
    assert normal_form([1, 0, 0]) == [1]


def test_normal_form_is_irreducible_and_reachable():
    rng = random.Random(7)
    for _ in range(300):
        w = [rng.randrange(3) for _ in range(rng.randrange(24))]
        nf = normal_form(w)
        assert all(a != b for a, b in zip(nf, nf[1:]))
        if len(w) <= 12:
            assert tuple(nf) in reachable(w)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=40), st.randoms(use_true_random=False))
def test_reduction_order_does_not_matter(word, rng):
    oracle, steps = random_order_normal_form(word, rng)
    assert normal_form(word) == oracle
    assert steps <= len(word) // 2


def test_local_confluence_exhaustive_small():
    for k in (2, 3):
        for length in range(2, 7):
            for word in product(range(k), repeat=length):
                reducts = one_step_reducts(list(word))
                for w1 in reducts:
                    for w2 in reducts:
                        assert reachable(w1) & reachable(w2), (word, w1, w2)


def test_equivalent_examples():
    assert normal_form([0, 1, 1, 0]) == normal_form([])
    assert normal_form([0, 1]) != normal_form([1, 0])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 2), max_size=12),
    st.lists(st.integers(0, 2), max_size=12),
    st.lists(st.integers(0, 2), max_size=12),
)
def test_inserting_a_mirrored_word_changes_nothing(u, v, w):
    assert normal_form(u + w + w[::-1] + v) == normal_form(u + v)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=20), st.lists(st.integers(0, 2), max_size=20))
def test_concatenation_congruence(u, v):
    assert normal_form(u + v) == normal_form(normal_form(u) + normal_form(v))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=30))
def test_even_palindromes_vanish(w):
    assert normal_form(w + w[::-1]) == []


def test_accepts_bytes_input():
    assert normal_form(bytes([0, 1, 1, 0])) == []
    assert normal_form(b"abba") == []
