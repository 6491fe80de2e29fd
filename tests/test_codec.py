"""The concrete codec: table construction, round trips, coding accounting."""

import copy
import os
import random
import threading
import tracemalloc
from array import array
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcomp import codec, engine
from pdtcomp.analysis import block_stats
from pdtcomp.codec import (
    AlphabetError,
    CodecError,
    Compressor,
    Decompressor,
    MalformedStreamError,
    build_compressor,
    build_decompressor,
    compress,
    compress_run,
    decompress,
    mirror_half,
    odd_marker,
    packed,
    pair_marker,
    stack_bottom,
)
from pdtcomp.engine import Configuration, run, step
from pdtcomp.rewrite import normal_form
from pdtcomp.seqgen import cyclic_pattern_counts, iter_mirrored_segments, lex_concat, mirrored_segment
from pdtcomp.streamio import ROLE_PLAIN, encode_stream

words = lambda k, n=120: st.lists(st.integers(0, k - 1), max_size=n)


@pytest.mark.parametrize("k", [2, 3, 7])
def test_compressor_table_shape(k):
    spec = build_compressor(k)
    assert len(spec.transitions) == 2 * k * k + 2 * k
    assert spec.states == frozenset({0, 1})
    assert spec.initial_state == 0
    assert spec.start_symbol == stack_bottom(k)
    assert spec.stack_alphabet == frozenset(range(k)) | {stack_bottom(k)}
    pushes = [t for t in spec.transitions if t.push]
    pops = [t for t in spec.transitions if not t.push]
    assert len(pushes) == 2 * k * k and len(pops) == 2 * k
    assert all(t.push == (t.top, t.symbol) for t in pushes)


@pytest.mark.parametrize("k", [2, 3, 7])
def test_decompressor_table_shape(k):
    spec = build_decompressor(k)
    assert len(spec.transitions) == k * (k + 1) + 3 * k
    eps = [t for t in spec.transitions if t.symbol is engine.EPSILON]
    assert len(eps) == k
    assert all(t.state == 1 and t.next_state == 0 and t.output == (t.top,) for t in eps)


def test_compressor_specific_triples():
    k = 2
    spec = build_compressor(k)
    bottom = stack_bottom(k)
    config, out, _ = step(spec, Configuration(0, (bottom,)), 0)
    assert (config, out) == (Configuration(0, (bottom, 0)), (0,))
    config, out, _ = step(spec, Configuration(1, (bottom, 0)), 0)
    assert (config, out) == (Configuration(0, (bottom,)), (pair_marker(k),))


def test_decompressor_specific_triples():
    k = 2
    spec = build_decompressor(k)
    bottom = stack_bottom(k)
    config, out, _ = step(spec, Configuration(0, (bottom, 0)), odd_marker(k))
    assert (config, out) == (Configuration(0, (bottom,)), (0,))
    config, out, _ = step(spec, Configuration(0, (bottom, 1)), pair_marker(k))
    assert (config, out) == (Configuration(1, (bottom,)), (1,))
    config, out, consumed = step(spec, Configuration(1, (bottom, 0)), 1)
    assert (config, out, consumed) == (Configuration(0, (bottom,)), (0,), False)


def test_compress_examples():
    assert list(compress([], 2)) == []
    assert list(compress([0, 1, 1, 0], 2)) == [0, 1, pair_marker(2)]
    assert list(compress([0, 0], 2)) == [0, odd_marker(2)]
    assert list(compress([0, 0, 0, 1], 2)) == [0, odd_marker(2), 0, 1]


def test_compress_without_flush_is_prefix_coding():
    assert list(Compressor(2).feed([0, 0])) == [0]
    assert list(Compressor(2).feed([0])) == [0]  # collides: flush restores injectivity
    assert list(compress([0], 2)) == [0]
    assert list(compress([0, 0], 2)) == [0, odd_marker(2)]


def test_decompress_examples():
    assert list(decompress([], 2)) == []
    assert list(decompress([0, 1, pair_marker(2)], 2)) == [0, 1, 1, 0]
    with pytest.raises(MalformedStreamError):
        decompress([pair_marker(2)], 2)
    with pytest.raises(MalformedStreamError):
        decompress([odd_marker(2)], 2)
    with pytest.raises(MalformedStreamError):
        decompress([0, pair_marker(2)], 2)
    # not in the image of compress: [0, 0] and [0, 1, 1, 0] code to [0, 3] and [0, 1, 4]
    with pytest.raises(MalformedStreamError, match="equals the stack top"):
        decompress([0, 0], 3)
    with pytest.raises(MalformedStreamError, match="directly after an odd marker"):
        decompress([0, 1, odd_marker(3), odd_marker(3)], 3)


def test_alphabet_errors():
    with pytest.raises(AlphabetError):
        compress([0, 2], 2)
    with pytest.raises(AlphabetError):
        compress([odd_marker(2)], 2)
    with pytest.raises(AlphabetError):
        compress([-1], 2)
    with pytest.raises(AlphabetError):
        decompress([stack_bottom(2)], 2)


def test_byte_input_range_check_names_the_first_bad_symbol():
    for word in (bytes([0, 1, 7, 2, 9]), bytearray([0, 1, 7, 2, 9])):
        with pytest.raises(AlphabetError, match="input symbol 7 outside"):
            Compressor(3).consume(word)
        with pytest.raises(AlphabetError, match="input symbol 7 outside"):
            compress(word, 3)
    with pytest.raises(AlphabetError, match="coded symbol 200 outside"):
        decompress(bytes([0, 200, 255]), 3)
    assert list(compress(bytes([255, 255]), 256)) == [255, odd_marker(256)]


def test_packed_reads_buffers_in_place_and_packs_other_words():
    narrow, wide = bytes([0, 4, 1]), array("H", [0, 300, 1])
    for word in (narrow, bytearray(narrow), wide):
        assert packed(word, 301, "input symbol") is word
    assert packed([0, 4, 1], 5, "input symbol") == narrow
    assert packed(iter([0, 300, 1]), 301, "input symbol") == wide
    assert packed([], 5, "input symbol") == b""
    for word in (narrow, bytearray(narrow), [0, 4, 1]):
        with pytest.raises(AlphabetError, match=r"input symbol 4 outside \[0, 4\)"):
            packed(word, 4, "input symbol")
    for word in (wide, list(wide)):
        with pytest.raises(AlphabetError, match=r"coded symbol 300 outside \[0, 300\)"):
            packed(word, 300, "coded symbol")
    with pytest.raises(AlphabetError, match="input symbol -1 outside"):
        packed([0, -1], 5, "input symbol")


@pytest.mark.parametrize("limit", [2, 255, 256, 257, 300, 512, 65535, 65536])
def test_packed_checks_wide_words_at_the_limit(limit):
    """An ``array('H')`` word is checked over its bytes; the first symbol past ``limit`` is named.

    Every other symbol is the largest one allowed, so each chunk of the check
    meets the high byte of ``limit`` and only the probe can lie outside.
    """
    size = codec._RANGE_CHUNK + 3
    for probe in {limit - 1, limit, 255, 256, 65535} - {65536}:
        for at in (0, 1, codec._RANGE_CHUNK - 1, codec._RANGE_CHUNK, size - 1):
            word = array("H", [min(limit - 1, 65535)]) * size
            word[at] = probe
            if probe < limit:
                assert packed(word, limit, "coded symbol") is word
            else:
                with pytest.raises(AlphabetError, match=rf"coded symbol {probe} outside \[0, {limit}\)"):
                    packed(word, limit, "coded symbol")
    if limit <= 65535:
        word = array("H", [limit - 1]) * size
        word[7], word[9], word[codec._RANGE_CHUNK + 1] = limit, 65535, 65535
        with pytest.raises(AlphabetError, match=rf"coded symbol {limit} outside"):
            packed(word, limit, "coded symbol")


@pytest.mark.parametrize("word", [[1.0, 2.0], ["a"]], ids=["floats", "strings"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda word: compress(word, 5),
        lambda word: decompress(word, 5),
        lambda word: Compressor(5).consume(word),
        block_stats,
        lambda word: encode_stream(word, ROLE_PLAIN, 5),
        lambda word: cyclic_pattern_counts(word, 5, 1),
    ],
    ids=["compress", "decompress", "consume", "block_stats", "encode_stream", "cyclic_pattern_counts"],
)
def test_every_entry_point_refuses_symbols_that_are_not_integers(entry, word):
    with pytest.raises((TypeError, ValueError)):  # CodecError is a ValueError
        entry(word)


@pytest.mark.parametrize(
    "k, form", [(254, bytes), (255, array)], ids=["pair-marker-255", "pair-marker-256"]
)
def test_compressor_output_is_packed_for_its_pair_marker(k, form):
    word = [k - 1, k - 1, 0]
    assert type(compress(word, k)) is form
    assert list(compress(word, k)) == [k - 1, odd_marker(k), 0]
    session = Compressor(k)
    assert type(session.feed(word[:2])) is form
    flushed = session.flush()
    assert type(flushed) is form and list(flushed) == [odd_marker(k)]
    assert type(Compressor(k).flush()) is form  # nothing pending: empty, same form
    assert type(compress([], k)) is form


@pytest.mark.parametrize("k, form", [(256, bytes), (257, array)], ids=["k-256", "k-257"])
def test_decompressor_output_is_packed_for_its_alphabet(k, form):
    coded = compress([k - 1, 3, 3, k - 1], k)
    assert type(decompress(coded, k)) is form
    assert list(decompress(coded, k)) == [k - 1, 3, 3, k - 1]
    assert type(Decompressor(k).feed([])) is form


def test_k_range():
    for bad in (1, 0, -3, 65535, 2.0):
        with pytest.raises(ValueError):
            Compressor(bad)
    assert list(compress([0], 65534)) == [0]


def test_largest_alphabet_without_table():
    k = 65534
    w = [k - 1, k - 1, 5, 4, 4]
    coded = compress(w, k)
    assert list(coded) == [k - 1, odd_marker(k), 5, 4, odd_marker(k)]
    assert list(decompress(coded, k)) == w


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.data())
def test_roundtrip(k, data):
    w = data.draw(words(k))
    assert list(decompress(compress(w, k), k)) == w


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.data())
def test_fast_path_matches_engine(k, data):
    w = data.draw(words(k))
    engine_out, engine_config, _ = compress_run(w, k)
    assert list(compress(w, k)) == engine_out
    session = Compressor(k)
    fast_out = session.feed(w)
    fast_out += session.flush()
    assert list(fast_out) == engine_out
    assert (session.state, session.stack) == (engine_config.state, engine_config.stack)
    # unflushed runs agree with the raw table run
    raw = run(build_compressor(k), w)
    assert list(Compressor(k).feed(w)) == list(raw.output)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), st.data())
def test_decompress_accepts_only_the_compress_image(k, data):
    # compress images, some with random edits that leave the image
    c = list(compress(data.draw(words(k, 30)), k))
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(c)))
        c[i:i] = [data.draw(st.integers(0, k + 1))]
        del c[data.draw(st.integers(0, len(c) - 1))]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(c)), max_size=3)))
    session = Decompressor(k)
    try:
        w = decompress(c, k)
    except MalformedStreamError:
        with pytest.raises(MalformedStreamError):
            for start, end in zip([0] + cuts, cuts + [len(c)]):
                session.feed(c[start:end])
        return
    assert list(compress(w, k)) == c
    chunked = []
    for start, end in zip([0] + cuts, cuts + [len(c)]):
        chunked += session.feed(c[start:end])
    assert chunked == list(w)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.data())
def test_decompressor_matches_engine_on_valid_streams(k, data):
    w = data.draw(words(k))
    coded = compress(w, k)
    raw = run(build_decompressor(k), coded)
    assert list(decompress(coded, k)) == list(raw.output)
    assert raw.config.state == 0
    # both directions keep the same stack: the reduced form of the plain word
    assert raw.config.stack == (stack_bottom(k),) + tuple(normal_form(w))


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 5), st.data())
def test_stack_holds_the_reduced_input(k, data):
    w = data.draw(words(k))
    session = Compressor(k)
    session.feed(w)
    assert list(session.stack) == [stack_bottom(k)] + normal_form(w)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_mirrored_input_drains_the_stack(k, data):
    w = data.draw(words(k))
    session = Compressor(k)
    session.feed(w + w[::-1])
    assert session.stack == (stack_bottom(k),)
    session.flush()
    assert session.state == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_output_length_equals_pushes_plus_run_codings(k, data):
    w = data.draw(words(k))
    out, _, trace = compress_run(w, k)
    pushes = trace.kinds.count(engine.PUSH)
    pop_runs = [len(list(run)) for kind, run in groupby(trace.kinds) if kind == engine.POP]
    assert len(out) == pushes + sum((m + 1) // 2 for m in pop_runs)
    assert sum(a < k for a in out) == pushes  # the rest are the run codings' markers


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.data())
def test_chunked_feeding_matches_one_shot(k, data):
    w = data.draw(words(k))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(w)), max_size=4)))
    session = Compressor(k)
    out = []
    prev = 0
    for cut in cuts + [len(w)]:
        out += session.feed(w[prev:cut])
        prev = cut
    out += session.flush()
    assert out == list(compress(w, k))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_consume_counters_match_feed(k, data):
    w = data.draw(words(k))
    fed = Compressor(k)
    fed.feed(w)
    counted = Compressor(k)
    counted.consume(w)
    for attr in ("symbols_read", "symbols_written", "savings", "clustered_pops", "state", "stack"):
        assert getattr(fed, attr) == getattr(counted, attr)


def test_session_is_single_use():
    session = Compressor(2)
    session.flush()
    with pytest.raises(CodecError):
        session.feed([0])
    with pytest.raises(CodecError):
        session.flush()


def test_decompressor_counters():
    session = Decompressor(2)
    out = session.feed(compress([0, 1, 1, 0], 2))
    assert list(out) == [0, 1, 1, 0]
    assert session.symbols_read == 3
    assert session.symbols_written == 4
    assert session.stack == (stack_bottom(2),)


def test_decompressor_session_fails_for_good_after_a_malformed_stream():
    session = Decompressor(3)
    with pytest.raises(AlphabetError):
        session.feed([0, 1, 9])  # rejected before any symbol is decoded
    assert list(session.feed([0, 1, 3])) == [0, 1, 1]
    session = Decompressor(3)
    with pytest.raises(MalformedStreamError, match="position 5"):
        session.feed([0, 1, 2, 4, 4, 4])
    with pytest.raises(CodecError, match="already failed"):
        session.feed([0])


@pytest.mark.parametrize(
    "word, error, stack",
    [
        ([0, 1, 1], "equals the stack top", (5, 0, 1)),
        ([0, 3, 3], "directly after an odd marker", (5,)),
        ([0, 4], "fewer than two matched symbols", (5, 0)),
        ([0, 1, 2, 4, 4, 4], "fewer than two matched symbols", (5, 0)),
        ([3], "no matched symbol pending", (5,)),
    ],
    ids=["plain-equals-top", "marker-after-odd", "pair-over-one", "pair-after-pairs", "odd-over-none"],
)
def test_a_malformed_stream_leaves_the_stack_where_decoding_stopped(word, error, stack):
    # The decoder walks with the stack top in a local; it is back on the stack when an error leaves.
    session = Decompressor(3)
    with pytest.raises(MalformedStreamError, match=error):
        session.feed(word)
    assert (session.stack, session.symbols_read, session.symbols_written) == (stack, 0, 0)


def test_an_empty_word_leaves_the_stack_whole():
    fed, counted, decoded = Compressor(3), Compressor(3), Decompressor(3)
    fed.feed([0, 1, 2])
    counted.consume([0, 1, 2])
    decoded.feed([0, 1, 2])
    for session in (fed, counted, decoded):
        session.feed(b"")
    counted.consume(b"")
    assert fed.stack == counted.stack == decoded.stack == (5, 0, 1, 2)


def test_a_walk_down_to_a_cut_stack_raises():
    # The fold's worker deletes its stack up to half its depth: here the bottom and the 0 below 1, 2.
    stack = codec._fold_stack(3, (stack_bottom(3), 0, 1, 2))
    del stack[:2]
    assert Compressor._census(stack, b"\x02", 0, 1, codec._CLOSED)[4:] == (1, True)
    assert stack == bytearray((1,))
    with pytest.raises(IndexError):  # popping the 1 would leave the deleted 0 on top
        Compressor._census(stack, b"\x01", 0, 1, codec._CLOSED)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_flushed_savings_identity(k, data):
    # read - written == pair markers emitted, on any flushed session
    w = data.draw(words(k))
    session = Compressor(k)
    session.feed(w)
    session.flush()
    assert session.symbols_read - session.symbols_written == session.savings


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_derived_counters_match_the_emitted_codes(k, data):
    # written, savings and state follow from the open pop run; pin them to the codes emitted
    w = data.draw(words(k))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(w)), max_size=5)))
    session = Compressor(k)
    out = []
    prev = 0
    for cut in cuts + [len(w)]:
        out += session.feed(w[prev:cut])
        prev = cut
        assert session.symbols_written == len(out)
        assert session.savings == out.count(pair_marker(k))
        assert list(copy.deepcopy(session).flush()) == [odd_marker(k)] * session.state
    out += session.flush()
    assert session.symbols_written == len(out)
    assert session.savings == out.count(pair_marker(k))
    assert session.state == 0


SESSION_ATTRS = ("symbols_read", "symbols_written", "savings", "clustered_pops", "state", "stack")


def snapshot(session):
    return tuple(getattr(session, attr) for attr in SESSION_ATTRS)


def test_mirror_half():
    assert mirror_half([0, 1, 1, 0]) == 2
    assert mirror_half(bytes([2, 2])) == 1
    assert mirror_half(array("H", [300, 5, 5, 300])) == 2
    assert mirror_half([]) == 0
    assert mirror_half([0, 1, 0]) == 0  # odd palindrome
    assert mirror_half([0, 1, 1, 1]) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.sampled_from([list, bytes, bytearray]), st.data())
def test_consume_folds_mirrored_input_like_feed(k, kind, data):
    # the prefix sets the entry state: stack, pending odd marker, open pop run
    prefix = data.draw(words(k, 40))
    w = data.draw(words(k, 80))
    other = data.draw(words(k, 40))  # mostly not a palindrome, sometimes empty
    suffix = data.draw(words(k, 20))
    fed = Compressor(k)
    counted = Compressor(k)
    for part in (prefix, w + w[::-1], [], other, w + w[::-1], suffix):
        fed.feed(part)
        counted.consume(kind(part))
        assert snapshot(counted) == snapshot(fed)
    fed.flush()
    counted.flush()
    assert snapshot(counted) == snapshot(fed)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_consume_folds_wide_alphabet_arrays(data):
    k = 300
    symbols = st.lists(st.sampled_from([0, 1, 2, 298, 299]), max_size=60)
    prefix, w = data.draw(symbols), data.draw(symbols)
    fed = Compressor(k)
    counted = Compressor(k)
    for part in (prefix, w + w[::-1]):
        fed.feed(part)
        counted.consume(array("H", part))
        assert snapshot(counted) == snapshot(fed)


def census_spans(monkeypatch) -> list[tuple[int, int]]:
    """The ``(start, end)`` of every census walked in this process from now on."""
    spans = []
    census = Compressor._census

    def spy(stack, word, start, end, state):
        spans.append((start, end))
        return census(stack, word, start, end, state)

    monkeypatch.setattr(Compressor, "_census", staticmethod(spy))
    return spans


def test_consume_routes_only_mirrored_input_through_the_fold(monkeypatch):
    spans = census_spans(monkeypatch)
    session = Compressor(3)
    session.consume([0, 1, 2, 2, 1, 0])
    session.consume([0, 1, 2, 2, 1, 1])
    session.consume([0, 1, 0])
    assert spans == [(0, 3), (0, 6), (0, 3)]


def split_early(monkeypatch) -> None:
    """Walks of 8 symbols and more split, with a lead of 4 symbols.

    The lead also bounds the decoder's search for a bare seam to the 4 codes from the middle.  A
    compressor's feed forks at the point its bare-point finder picks, however rarely that point's
    stack recurs.
    """
    monkeypatch.setattr(codec, "_SPLIT_MIN", 8)
    monkeypatch.setattr(codec, "_SPLIT_LEAD", 4)
    bare_point = codec._bare_point
    monkeypatch.setattr(
        codec, "_bare_point", lambda word, start, end: (bare_point(word, start, end)[0], end - start)
    )


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fed_and_consumed(k, parts, kind=bytes):
    fed = Compressor(k)
    counted = Compressor(k)
    for part in parts:
        fed.feed(part)
        counted.consume(kind(part))
        assert snapshot(counted) == snapshot(fed)


def walk(entry, steps):
    """The word read after ``entry`` that pops the stack top at each step ``-1`` and reads the others."""
    stack = normal_form(entry)
    word = []
    for a in steps:
        if a < 0:
            if not stack:
                continue
            a = stack[-1]
        word.append(a)
        if stack and stack[-1] == a:
            stack.pop()
        else:
            stack.append(a)
    return word


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.data())
def test_split_consume_matches_feed(k, data):
    # Walks that pop half the time cross the entry stack and the worker's cut stack often, so they
    # take both the join and the fallback; lex halves join or fall back by (k, n).
    prefix = data.draw(words(k, 40))
    steps = st.lists(st.one_of(st.just(-1), st.integers(0, k - 1)), min_size=16, max_size=200)
    lex = st.integers(2, 4).map(lambda n: list(lex_concat(k, n)))
    w = data.draw(st.one_of(steps.map(lambda s: walk(prefix, s)), lex))
    other = data.draw(words(k, 200))
    with pytest.MonkeyPatch.context() as mp:
        split_early(mp)
        fed_and_consumed(k, (prefix, w + w[::-1], other, other + other[::-1]))
    assert_no_child_left()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_consume_matches_feed_on_wide_alphabet_arrays(data):
    symbols = st.lists(st.sampled_from([0, 1, 2, 298, 299]), max_size=120)
    prefix, w = data.draw(symbols), data.draw(symbols)
    with pytest.MonkeyPatch.context() as mp:
        split_early(mp)
        fed_and_consumed(300, (prefix, w + w[::-1]), lambda part: array("H", part))
    assert_no_child_left()


@pytest.mark.parametrize("k", [253, 254, codec.K_MAX], ids=["bytearray", "array-H", "array-I"])
@pytest.mark.parametrize("split", [False, True], ids=["one-process", "split"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fold_matches_feed_at_the_stack_form_boundaries(k, split, data):
    # k = 253 is the last alphabet whose bottom k + 2 fits a byte, K_MAX the first past array('H').
    assert codec._fold_stack(k, (stack_bottom(k),)).pop() == stack_bottom(k)
    symbols = [0, 1, k - 2, k - 1]
    prefix = data.draw(st.lists(st.sampled_from(symbols), max_size=40))
    steps = st.lists(st.one_of(st.just(-1), st.sampled_from(symbols)), min_size=16, max_size=120)
    w = walk(prefix, data.draw(steps))
    kind = bytes if k < 256 else lambda part: array("H", part)
    with pytest.MonkeyPatch.context() as mp:
        if split:
            split_early(mp)
        fed_and_consumed(k, (prefix, w + w[::-1]), kind)
    assert_no_child_left()


def test_the_fold_walks_a_byte_stack_and_leaves_the_session_stack_alone():
    # Below _SPLIT_MIN, so in one process.  A list stack peaked at 5.35 bytes per symbol of w here,
    # the byte stack at 2.0.
    w = mirrored_segment(5, 6)
    half = len(w) // 2
    assert half < codec._SPLIT_MIN
    session = Compressor(5)
    session.consume(b"\x00\x01\x02")
    stack = session._stack
    entry = stack.copy()
    tracemalloc.start()
    try:
        session.consume(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * half
    assert session._stack is stack and stack == entry


@pytest.mark.parametrize(
    "k, n, parent_spans",
    [
        # the worker's census of [seam, half) counts: this process walks up to the seam only
        (4, 4, lambda middle, seam, half: [(0, middle), (middle, seam)]),
        # the lead cancels into the entry stack below the worker's cut: this process walks on
        (2, 6, lambda middle, seam, half: [(0, middle), (middle, seam), (seam, half)]),
    ],
    ids=["join", "fallback"],
)
def test_split_consume_joins_or_falls_back(monkeypatch, k, n, parent_spans):
    split_early(monkeypatch)
    w = list(lex_concat(k, n))
    half = len(w)
    middle = half // 2
    seam = codec._first_repeat(bytes(w), middle + 4, half)
    assert seam < half
    spans = census_spans(monkeypatch)
    fed_and_consumed(k, ([1, 0], w + w[::-1]))
    assert spans == [(0, 2)] + parent_spans(middle, seam, half)
    assert_no_child_left()


def test_split_consume_reaps_its_worker_when_the_walk_raises(monkeypatch):
    split_early(monkeypatch)
    census = Compressor._census

    def interrupted(stack, word, start, end, state):
        if start == 0 and end < len(word) // 2:  # this process's first part of a split walk
            raise RuntimeError("interrupted")
        return census(stack, word, start, end, state)

    monkeypatch.setattr(Compressor, "_census", staticmethod(interrupted))
    w = bytes(lex_concat(4, 4))
    with pytest.raises(RuntimeError, match="interrupted"):
        Compressor(4).consume(w + w[::-1])
    assert_no_child_left()


def os_error(*args):
    raise OSError("unavailable")


def no_fork_expected():
    raise AssertionError("forked while another thread runs")


cannot_fork = pytest.mark.parametrize(
    "host",
    [
        lambda mp: mp.delattr(os, "fork"),
        lambda mp: mp.setattr(os, "sched_getaffinity", lambda pid: {0}),
        lambda mp: mp.setattr(os, "fork", os_error),
        lambda mp: mp.setattr(os, "pipe", os_error),
    ],
    ids=["no-fork", "one-cpu", "fork-fails", "pipe-fails"],
)


@cannot_fork
def test_split_consume_walks_in_one_process_where_it_cannot_fork(monkeypatch, host):
    split_early(monkeypatch)
    host(monkeypatch)
    w = list(lex_concat(4, 4))
    spans = census_spans(monkeypatch)
    fed_and_consumed(4, (w + w[::-1],))
    assert spans == [(0, len(w))]
    assert_no_child_left()


def test_split_consume_walks_in_one_process_while_another_thread_runs(monkeypatch):
    split_early(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork_expected)
    w = list(lex_concat(4, 4))
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        spans = census_spans(monkeypatch)
        fed_and_consumed(4, (w + w[::-1],))
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert spans == [(0, len(w))]


def feed_spans(monkeypatch) -> list[int]:
    """The length of every part a feed codes or decodes in this process from now on."""
    spans = []
    code, decode = Compressor._code, Decompressor._decode

    def spy_code(session, out, word, start, end, pending):
        spans.append(end - start)
        return code(session, out, word, start, end, pending)

    def spy_decode(session, out, word, start, end):
        spans.append(end - start)
        return decode(session, out, word, start, end)

    monkeypatch.setattr(Compressor, "_code", spy_code)
    monkeypatch.setattr(Decompressor, "_decode", spy_decode)
    return spans


def coded_in_parts(k, parts):
    """Each part's codes and the session after it, then the flush's."""
    session = Compressor(k)
    steps = [(session.feed(part), snapshot(session)) for part in parts]
    return steps + [(session.flush(), snapshot(session))]


def decoded_in_parts(k, parts):
    """Each part's symbols, or the error it raised, and the session after it."""
    session = Decompressor(k)
    steps = []
    for part in parts:
        try:
            out = session.feed(part)
        except CodecError as error:
            out = f"{type(error).__name__}: {error}"
        steps.append((out, session.stack, session.symbols_read, session.symbols_written))
    return steps


def cut(word, cuts):
    bounds = [0, *sorted(cuts), len(word)]
    return [word[i:j] for i, j in zip(bounds, bounds[1:])]


def paired_enum(k, n):
    """The seeded paired-enum segment of order n: every length-n word u as u + u[::-1]."""
    segments = iter_mirrored_segments(k, n, variant="paired-enum", seed=1)
    return bytes(next(segment for m, segment in segments if m == n))


def bare_seam(k, codes, entry=b"", lead=4):
    """The first of the ``lead`` positions from the middle of ``codes`` before which decoding them
    after ``entry``, one code at a time, leaves the stack bare; the end of ``codes`` if none is."""
    session = Decompressor(k)
    session.feed(entry)
    middle = len(codes) // 2
    for i in range(min(middle + lead, len(codes))):
        if i >= middle and session.stack == (stack_bottom(k),):
            return i
        session.feed(codes[i : i + 1])
    return len(codes)


def coding_seam(k, word, entry=b""):
    """The point among the ``_SPLIT_WINDOW`` symbols before the middle of ``word`` where the stack of
    a compressor fed ``entry`` and then ``word`` one symbol at a time is most often the same, nearest
    the middle; and how many of those points have that stack."""
    session = Compressor(k)
    session.feed(entry)
    middle = len(word) // 2
    start = max(middle - codec._SPLIT_WINDOW, 0)
    session.feed(word[:start])
    stacks = [session.stack]
    for i in range(start, middle):
        session.feed(word[i : i + 1])
        stacks.append(session.stack)
    counts = Counter(stacks)
    most = max(counts.values())
    return max(p for p, stack in enumerate(stacks, start) if counts[stack] == most), most


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.data())
def test_a_coding_seam_is_the_stack_most_often_seen_nearest_the_middle(k, data):
    # The finder walks the window backwards and never sees the entry stack or what precedes the
    # window; the forward walk of the whole input gives the same point and count.
    pieces = st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=5), min_size=2, max_size=30)
    paired = pieces.map(lambda us: [a for u in us for a in u + u[::-1]])
    word = bytes(data.draw(st.one_of(paired, words(k, 200))))
    entry = bytes(data.draw(words(k, 20)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codec, "_SPLIT_WINDOW", data.draw(st.sampled_from([8, 64, 4096])))
        middle = len(word) // 2
        found = codec._bare_point(word, max(middle - codec._SPLIT_WINDOW, 0), middle)
        assert found == coding_seam(k, word, entry)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.data())
def test_split_feed_matches_one_process(k, data):
    # Pieces u + u[::-1] drain the stack, so the compressor's worker joins where the finder picks a
    # bare point; paired-lex palindromes and walks mostly fall back.  The decompressor forks where
    # its codes leave the stack bare near their middle.  The prefix leaves an entry stack and an
    # open run, and a corrupted code may land in either process's part.
    prefix = data.draw(words(k, 40))
    pieces = st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=5), min_size=2, max_size=30)
    paired = pieces.map(lambda us: [a for u in us for a in u + u[::-1]])
    lex = st.integers(2, 4).map(lambda n: list(mirrored_segment(k, n)))
    steps = st.lists(st.one_of(st.just(-1), st.integers(0, k - 1)), min_size=16, max_size=200)
    long = data.draw(st.one_of(paired, lex, steps.map(lambda s: walk(prefix, s))))
    cuts = data.draw(st.lists(st.integers(0, len(long)), max_size=2))
    parts = [bytes(part) for part in (prefix, *cut(long, cuts), data.draw(words(k, 60)))]
    expected = coded_in_parts(k, parts)
    coded = bytearray(b"".join(out for out, _ in expected))
    if coded and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(coded) - 1))
        coded[i] = (coded[i] + data.draw(st.integers(1, k + 1))) % (k + 2)
    chunks = cut(bytes(coded), data.draw(st.lists(st.integers(0, len(coded)), max_size=2)))
    expected_decoded = decoded_in_parts(k, chunks)
    with pytest.MonkeyPatch.context() as mp:
        split_early(mp)
        assert coded_in_parts(k, parts) == expected
        assert decoded_in_parts(k, chunks) == expected_decoded
    assert_no_child_left()


@pytest.mark.parametrize(
    "session, k, word, parent_spans",
    [
        # the stack is bare at the seam: this process codes up to there
        (Compressor, 3, paired_enum(3, 3), lambda seam, end: [seam]),
        # the stack most often seen before a paired-lex palindrome's middle is not the bare one: this
        # process codes on from the seam
        (Compressor, 4, bytes(mirrored_segment(4, 3)), lambda seam, end: [seam, end - seam]),
        # the stack is bare a code after the middle: this process decodes up to there
        (Decompressor, 3, compress(paired_enum(3, 3), 3), lambda seam, end: [seam]),
        # a pair marker after the last word pops the bare bottom: the worker fails, and this process
        # decodes on from the seam to the same error
        (
            Decompressor,
            3,
            compress(paired_enum(3, 3), 3) + bytes([pair_marker(3)]),
            lambda seam, end: [seam, end - seam],
        ),
        # pushes only: the stack is never bare, and no worker is forked
        (Decompressor, 3, bytes([0, 1] * 4 + [2, 0] * 4), lambda seam, end: [end]),
        # a paired-lex palindrome's codes are far from the bottom at their middle: no worker is forked
        (Decompressor, 4, compress(mirrored_segment(4, 3), 4), lambda seam, end: [end]),
    ],
    ids=[
        "compressor-join",
        "compressor-fallback",
        "decompressor-join",
        "decompressor-fallback",
        "decompressor-pushes-only",
        "decompressor-paired-lex",
    ],
)
def test_split_feed_joins_or_falls_back(monkeypatch, session, k, word, parent_spans):
    def fed():
        fresh = session(k)
        try:
            return fresh.feed(word), fresh.stack
        except CodecError as error:
            return f"{type(error).__name__}: {error}", fresh.stack

    expected = fed()
    split_early(monkeypatch)
    end = len(word)
    seam = coding_seam(k, word)[0] if session is Compressor else bare_seam(k, word)
    spans = feed_spans(monkeypatch)
    assert fed() == expected
    assert spans == parent_spans(seam, end)
    assert_no_child_left()


def feed_joins(monkeypatch, session) -> list[bool]:
    """Whether each worker a feed of a ``session`` forks from now on has its part taken."""
    joins = []
    join = session._join

    def spy(self, out, *reply):
        taken = join(self, out, *reply)
        joins.append(taken)
        return taken

    monkeypatch.setattr(session, "_join", spy)
    return joins


def test_split_compress_forks_only_where_its_worker_may_join(monkeypatch):
    # At _SPLIT_WINDOW = 4,096: every word u + u[::-1] of a paired-enum file drains the stack, so the
    # bare stack recurs at least once per 16 symbols before the middle, and the seam lies within a
    # word (2n = 14 symbols) of it.  No stack recurs that often before the middle of paired-lex words
    # or of random words.
    segments = iter_mirrored_segments(5, 7, variant="paired-enum", seed=3)
    enum = b"".join(bytes(segment) for _, segment in segments)
    lex = bytes(mirrored_segment(5, 7))
    lex2 = b"".join(bytes(segment) for _, segment in iter_mirrored_segments(2, 15))
    noise = [bytes(random.Random(5).choices(range(k), k=1 << 19)) for k in (2, 5)]
    monkeypatch.setattr(codec, "_may_fork", lambda: False)
    expected = compress(enum, 5)
    monkeypatch.setattr(codec, "_may_fork", lambda: True)
    spans = feed_spans(monkeypatch)
    joined = feed_joins(monkeypatch, Compressor)
    assert compress(enum, 5) == expected
    middle = len(enum) // 2
    assert len(spans) == 1 and middle - 14 <= spans[0] <= middle
    assert joined == [True]
    for k, word in ((5, lex), (2, lex2), (2, noise[0]), (5, noise[1])):
        compress(word, k)
        assert spans[-1] == len(word)
    assert len(spans) == 5 and joined == [True]
    assert_no_child_left()


def test_split_decompress_forks_only_where_its_worker_may_join(monkeypatch):
    # At _SPLIT_LEAD = 256: paired-enum files drain to the bare bottom at every word, while the stack
    # of paired-lex codes and of a random word is far from the bottom near their middle.
    lex = bytes(mirrored_segment(5, 7))
    segments = iter_mirrored_segments(5, 7, variant="paired-enum", seed=3)
    enum = b"".join(bytes(segment) for _, segment in segments)
    noise = bytes(random.Random(5).choices(range(5), k=1 << 19))
    monkeypatch.setattr(codec, "_may_fork", lambda: True)
    joined = feed_joins(monkeypatch, Decompressor)
    for word in (lex, enum, noise):
        assert decompress(compress(word, 5), 5) == word
    assert joined == [True]
    assert_no_child_left()


@pytest.mark.parametrize(
    "k, word, parent_spans",
    [
        # paired words drain the stack in the window before the middle, so the bare stack recurs there
        (3, paired_enum(3, 3), lambda seam, end: [seam]),
        # for every k up to 254
        (12, paired_enum(12, 3), lambda seam, end: [seam]),
        (60, paired_enum(60, 2), lambda seam, end: [seam]),
        # no stack recurs once per 16 symbols before a paired-lex palindrome's middle: it is coded in
        # one process, with no worker
        (4, bytes(mirrored_segment(4, 5)), lambda seam, end: [end]),
        # paired words drain to the stack the paired-lex word before them leaves, which is not bare
        (2, bytes(lex_concat(2, 9)) + paired_enum(2, 9), lambda seam, end: [seam, end - seam]),
    ],
    ids=["paired", "paired-k12", "paired-k60", "paired-lex", "paired-after-lex"],
)
def test_split_compress_forks_where_the_window_before_its_seam_reduces(monkeypatch, k, word, parent_spans):
    expected = compress(word, k)
    monkeypatch.setattr(codec, "_SPLIT_MIN", 8)
    seam = coding_seam(k, word)[0]
    spans = feed_spans(monkeypatch)
    assert compress(word, k) == expected
    assert spans == parent_spans(seam, len(word))
    assert_no_child_left()


def test_split_compress_codes_on_where_its_seam_is_not_bare(monkeypatch):
    # A finder patched to pick a point inside a pair u + u[::-1], after a prefix that leaves a stack
    # and an open pop run: the worker's part is not taken, and this process codes on from there.
    word = paired_enum(3, 3)
    parts = [bytes([0, 1, 1]), word]
    seam = 6 * (len(word) // 12) + 1
    one = Compressor(3)
    one.feed(parts[0] + word[:seam])
    assert len(one.stack) > 1
    expected = coded_in_parts(3, parts)
    monkeypatch.setattr(codec, "_SPLIT_MIN", 8)
    monkeypatch.setattr(codec, "_bare_point", lambda word, start, end: (seam, end - start))
    spans = feed_spans(monkeypatch)
    joined = feed_joins(monkeypatch, Compressor)
    assert coded_in_parts(3, parts) == expected
    assert spans == [3, seam, len(word) - seam] and joined == [False]
    assert_no_child_left()


def test_split_decompress_raises_the_one_process_error_from_the_workers_part(monkeypatch):
    coded = compress(paired_enum(3, 3), 3)
    i = len(coded) * 3 // 4
    corrupted = coded[:i] + bytes([odd_marker(3), odd_marker(3)]) + coded[i:]
    error = f"marker at position {i + 1} directly after an odd marker"  # past the middle
    one = Decompressor(3)
    with pytest.raises(MalformedStreamError, match=error):
        one.feed(corrupted)
    seam = bare_seam(3, corrupted)
    split_early(monkeypatch)
    spans = feed_spans(monkeypatch)
    session = Decompressor(3)
    with pytest.raises(MalformedStreamError, match=error):
        session.feed(corrupted)
    assert spans == [seam, len(corrupted) - seam]  # the worker failed; this process decoded on
    assert (session.stack, session.symbols_read, session.symbols_written) == (
        one.stack,
        one.symbols_read,
        one.symbols_written,
    )
    with pytest.raises(CodecError, match="already failed"):
        session.feed([0])
    assert_no_child_left()


def test_split_decompress_checks_the_odd_marker_before_its_seam():
    # Three pushes, a pair marker and an odd marker leave the stack bare at the middle, and a marker
    # follows: it fails the worker on the bare bottom, and this process decodes on from the seam to
    # the one-process error, which names the odd marker before the seam.
    error = "marker at position 6 directly after an odd marker"
    for marker in (odd_marker(3), pair_marker(3)):
        word = bytes([0, 1, 0, pair_marker(3), odd_marker(3), marker, 0, 1, 0, 1])
        with pytest.raises(MalformedStreamError, match=error):
            Decompressor(3).feed(word)
        with pytest.MonkeyPatch.context() as mp:
            split_early(mp)
            spans = feed_spans(mp)
            with pytest.raises(MalformedStreamError, match=error):
                Decompressor(3).feed(word)
        assert spans == [5, 5]
    assert_no_child_left()


def test_split_decompress_keeps_the_workers_last_odd_marker(monkeypatch):
    coded = compress(paired_enum(3, 3), 3)
    j = coded.rindex(odd_marker(3), 0, len(coded) * 3 // 4)
    seam = bare_seam(3, coded[: j + 1])
    split_early(monkeypatch)
    spans = feed_spans(monkeypatch)
    session = Decompressor(3)
    session.feed(coded[: j + 1])  # ends in an odd marker of the worker's part
    assert spans == [seam] and seam < j
    error = f"marker at position {j + 2} directly after an odd marker"
    with pytest.raises(MalformedStreamError, match=error):
        session.feed([pair_marker(3)])
    assert_no_child_left()


def test_split_decompress_counts_the_entry_stack(monkeypatch):
    # The first feed leaves one symbol on the stack, so the second feed's depth at its middle counts
    # it: a seam that ignored it would land where the stack holds one symbol, and the join would fail.
    coded = compress(paired_enum(3, 3), 3)
    first, second = coded[:1], coded[1:]
    expected = decoded_in_parts(3, [first, second])
    seam = bare_seam(3, second, entry=first)
    split_early(monkeypatch)
    spans = feed_spans(monkeypatch)
    joined = feed_joins(monkeypatch, Decompressor)
    assert decoded_in_parts(3, [first, second]) == expected
    assert expected[0][1] != (stack_bottom(3),)
    assert spans == [1, seam] and joined == [True]
    assert_no_child_left()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.data())
def test_a_decoding_seam_leaves_the_stack_bare(k, data):
    pieces = st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=5), min_size=2, max_size=30)
    paired = pieces.map(lambda us: [a for u in us for a in u + u[::-1]])
    word = data.draw(st.one_of(paired, words(k, 200)))
    coded = compress(word, k)
    cut_at = data.draw(st.integers(0, len(coded)))
    first, second = coded[:cut_at], coded[cut_at:]
    session = Decompressor(k)
    session.feed(first)
    with pytest.MonkeyPatch.context() as mp:
        split_early(mp)
        mp.setattr(codec, "_may_fork", lambda: True)
        seam = session._seam(second, bytearray())
    if seam < len(second):
        session.feed(second[:seam])
        assert session.stack == (stack_bottom(k),)


def test_split_feeds_join_a_paired_enum_file_at_k_12(monkeypatch):
    # Every word of the file drains the stack, so both feeds fork at a bare seam and join.
    segments = iter_mirrored_segments(12, 4, variant="paired-enum", seed=1)
    word = b"".join(bytes(segment) for _, segment in segments)
    monkeypatch.setattr(codec, "_SPLIT_MIN", 1 << 16)
    monkeypatch.setattr(codec, "_may_fork", lambda: True)
    assert len(word) >= codec._SPLIT_MIN
    spans = feed_spans(monkeypatch)
    coded_joined = feed_joins(monkeypatch, Compressor)
    decoded_joined = feed_joins(monkeypatch, Decompressor)
    coded = compress(word, 12)
    assert decompress(coded, 12) == word
    assert spans[0] < len(word) and spans[1] < len(coded) and len(spans) == 2
    assert coded_joined == [True] and decoded_joined == [True]
    assert_no_child_left()


@pytest.mark.parametrize(
    "session, name, word",
    [(Compressor, "_code", paired_enum(3, 3)), (Decompressor, "_decode", compress(paired_enum(3, 3), 3))],
    ids=["compressor", "decompressor"],
)
def test_split_feed_reaps_its_worker_when_this_process_raises(monkeypatch, session, name, word):
    split_early(monkeypatch)
    part = getattr(session, name)

    def interrupted(self, out, part_word, start, end, *state):
        if end - start < len(word):  # this process's part of a split feed
            raise RuntimeError("interrupted")
        return part(self, out, part_word, start, end, *state)

    monkeypatch.setattr(session, name, interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        session(3).feed(word)
    assert_no_child_left()


@cannot_fork
def test_split_feed_runs_in_one_process_where_it_cannot_fork(monkeypatch, host):
    word = paired_enum(3, 3)
    coded = compress(word, 3)
    split_early(monkeypatch)
    host(monkeypatch)
    spans = feed_spans(monkeypatch)
    assert decompress(compress(word, 3), 3) == word
    assert spans == [len(word), len(coded)]
    assert_no_child_left()


def test_split_feed_runs_in_one_process_while_another_thread_runs(monkeypatch):
    word = paired_enum(3, 3)
    coded = compress(word, 3)
    split_early(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork_expected)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        spans = feed_spans(monkeypatch)
        assert decompress(compress(word, 3), 3) == word
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert spans == [len(word), len(coded)]


def test_split_feed_runs_in_one_process_where_a_word_or_its_output_is_not_bytes(monkeypatch):
    split_early(monkeypatch)
    spans = feed_spans(monkeypatch)
    wide = array("H", [0, 1, 299, 299, 1, 0, 2, 3, 3, 2])
    assert decompress(compress(wide, 300), 300) == wide
    narrow = bytes([0, 1, 2, 2, 1, 0, 3, 4, 4, 3])  # its codes at k = 255 pass a byte
    assert decompress(compress(narrow, 255), 255) == narrow
    plain = bytes([0, 1, 2, 3, 4, 3, 2, 1, 0, 1])  # at k = 255 the pair marker passes a byte
    assert decompress(plain, 255) == plain
    assert spans == [10, 8, 10, 8, 10]
    assert_no_child_left()


def test_fork_join_reads_a_reply_past_the_pipe_buffer_whole():
    reply = bytes(range(256)) * 4096  # 1 MiB
    assert codec._fork_join(lambda: reply, lambda: "ours") == ("ours", reply)
    assert codec._fork_join(lambda: 1 // 0, lambda: "ours") == ("ours", None)
    assert_no_child_left()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.data())
def test_consume_near_palindrome_matches_feed(k, data):
    prefix = data.draw(words(k, 20))
    w = data.draw(words(k, 60).filter(bool))
    x = w + w[::-1]
    i = data.draw(st.integers(len(w), len(x) - 1))
    x[i] = (x[i] + data.draw(st.integers(1, k - 1))) % k  # one symbol flipped in the second half
    assert mirror_half(x) == 0
    fed = Compressor(k)
    counted = Compressor(k)
    for part in (prefix, x):
        fed.feed(part)
        counted.consume(part)
    assert snapshot(counted) == snapshot(fed)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.sampled_from([list, bytes]), st.data())
def test_consume_rejects_out_of_range_symbol_inside_a_palindrome(k, kind, data):
    prefix = data.draw(words(k, 20))
    w = data.draw(words(k, 40))
    bad = data.draw(st.integers(k, 255))
    x = w + [bad, bad] + w[::-1]
    session = Compressor(k)
    session.consume(prefix)
    before = snapshot(session)
    with pytest.raises(AlphabetError, match=f"input symbol {bad} outside"):
        session.consume(kind(x))
    assert snapshot(session) == before


def coded_by_reference(k, parts):
    """Each part's codes and the counters of ``SESSION_ATTRS`` after it, then the flush's.

    The compressor's contract read one symbol at a time: a symbol equal to the top pops it, any
    other is pushed and echoed, and a closed run of m pops codes to m // 2 pair markers, plus an
    odd marker, sent with the next push, when m is odd.
    """
    stack, run, read, written, pairs, clustered = [stack_bottom(k)], 0, 0, 0, 0, 0
    steps = []
    for part in [*parts, None]:
        codes = []
        for a in part if part is not None else [None]:  # the flush closes the open run
            if a is not None and a == stack[-1]:
                stack.pop()
                run += 1
                if run % 2 == 0:
                    codes.append(pair_marker(k))
                continue
            if run % 2:
                codes.append(odd_marker(k))
            pairs += run // 2
            clustered += run if run >= 2 else 0
            run = 0
            if a is not None:
                stack.append(a)
                codes.append(a)
        read += 0 if part is None else len(part)
        written += len(codes)
        counters = (read, written, pairs + run // 2, clustered + (run if run >= 2 else 0), run % 2)
        steps.append((codes, (*counters, tuple(stack))))
    return steps


def runs_cut(k, word):
    """Cuts of ``word`` inside its pop runs: after an odd number of pops, then after an even one."""
    stack, run, cuts = [stack_bottom(k)], 0, ([], [])
    for i, a in enumerate(word):
        if a == stack[-1]:
            if run:
                cuts[run % 2 == 0].append(i)
            stack.pop()
            run += 1
        else:
            stack.append(a)
            run = 0
    return cuts


# The symbols words are drawn from, per alphabet size: a few of the smallest and the largest.
DRAWN_SYMBOLS = {
    2: [0, 1],
    5: [0, 1, 2, 3, 4],
    254: [0, 1, 2, 252, 253],
    255: [0, 1, 253, 254],
    300: [0, 1, 2, 298, 299],
}


@settings(max_examples=60, deadline=None)
@given(st.data())
@pytest.mark.parametrize("split", [False, True], ids=["one-process", "split"])
@pytest.mark.parametrize("k", sorted(DRAWN_SYMBOLS))
def test_feed_counters_derived_from_the_codes_match_a_per_symbol_walk(k, split, data):
    # Chunks end inside pop runs after odd and even numbers of pops, so sessions enter feeds with an
    # odd marker pending and with a run of two or more open; some chunks are empty.  Byte output up
    # to k = 254, array('H') output from k = 255; split, feeds of 8 symbols and more fork.
    symbols = st.sampled_from(DRAWN_SYMBOLS[k])
    pieces = st.lists(st.lists(symbols, min_size=1, max_size=6), min_size=1, max_size=12)
    paired = pieces.map(lambda us: [a for u in us for a in u + u[::-1]])
    steps = st.lists(st.one_of(st.just(-1), symbols), max_size=160).map(lambda s: walk([], s))
    word = data.draw(st.one_of(paired, steps, st.lists(symbols, max_size=160)))
    odd_cuts, even_cuts = runs_cut(k, word)
    cuts = data.draw(st.lists(st.integers(0, len(word)), max_size=3))
    cuts += [data.draw(st.sampled_from(c)) for c in (odd_cuts, even_cuts) if c]
    cuts += cuts[:1]  # an empty chunk
    pack = (lambda part: array("H", part)) if k > 256 else bytes
    parts = [pack(part) for part in cut(word, cuts)]
    expected = coded_by_reference(k, parts)
    with pytest.MonkeyPatch.context() as mp:
        if split:
            split_early(mp)
        session = Compressor(k)
        got = [(list(session.feed(part)), snapshot(session)) for part in parts]
        got.append((list(session.flush()), snapshot(session)))
    assert got == expected
    assert_no_child_left()


def decoded_by_reference(k, chunks):
    """``decoded_in_parts`` one code at a time, with each code's position counted as it is read.

    A plain symbol equal to the top, an odd marker on the bare stack, a pair marker over fewer than
    two symbols and a marker directly after an odd marker are malformed.  A malformed chunk leaves
    the stack where decoding stopped and ends the session.
    """
    stack, read, written, after_odd, error = [stack_bottom(k)], 0, 0, False, None
    steps = []
    for chunk in chunks:
        symbols = []
        if error:
            error = "CodecError: decompressor session already failed on a malformed stream"
        for position, b in enumerate([] if error else chunk, read + 1):
            if b < k and b == stack[-1]:
                error = f"plain symbol {b} at position {position} equals the stack top"
            elif b >= k and after_odd:
                error = f"marker at position {position} directly after an odd marker"
            elif b == k and len(stack) < 2:
                error = f"odd marker at position {position} with no matched symbol pending"
            elif b > k and len(stack) < 3:
                error = f"pair marker at position {position} with fewer than two matched symbols pending"
            if error:
                error = f"MalformedStreamError: {error}"
                break
            if b < k:
                stack.append(b)
                symbols.append(b)
            else:
                symbols += [stack.pop() for _ in range(b - k + 1)]
            after_odd = b == k
        if not error:
            read += len(chunk)
            written += len(symbols)
        steps.append((error or symbols, tuple(stack), read, written))
    return steps


MALFORMED = {
    # kind: (whether the code at i may be the bad code's place, given the depth and the code before i)
    "plain-equals-top": lambda depth, after_odd: depth >= 1,
    "odd-over-none": lambda depth, after_odd: depth == 0 and not after_odd,
    "pair-over-one": lambda depth, after_odd: depth <= 1 and not after_odd,
    "odd-after-odd": lambda depth, after_odd: after_odd,
    "pair-after-odd": lambda depth, after_odd: after_odd,
}


def with_bad_code(k, coded, kind, start):
    """``coded`` with a code of ``kind`` put in at the first place from ``start`` it can go, and that place.

    Codes after the bad one restore the depth a decoder's seam search counts from plain codes and
    markers, so a split decode still finds its seam past a bad code.
    """
    stack, after_odd = [], False
    for i, b in enumerate(coded):
        if i >= start and MALFORMED[kind](len(stack), after_odd):
            break
        if b < k:
            stack.append(b)
        else:
            del stack[k - 1 - b :]
        after_odd = b == k
    else:
        i = len(coded)
        assert MALFORMED[kind](len(stack), after_odd)
    bad = (stack or [0])[-1] if kind == "plain-equals-top" else k if kind.startswith("odd") else k + 1
    level = {k: [0], k + 1: [0, 1]}.get(bad, [k])
    return [*coded[:i], bad, *level, *coded[i:]], i


def paired_codes(k, seed, pieces=40):
    """The codes of a word of pieces u + u[::-1] over a few symbols of ``DRAWN_SYMBOLS[k]``."""
    rng = random.Random(seed)
    word = []
    for _ in range(pieces):
        u = rng.choices(DRAWN_SYMBOLS[k][:3], k=rng.randint(1, 5))
        word += u + u[::-1]
    return list(compress(word, k))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("k", [5, 254, 300])
def test_a_malformed_code_raises_at_its_position_wherever_it_lies_in_a_feed(k, kind, where):
    # The bad code is the first, a middle or the last code of the second of three feeds; a marker
    # after an odd marker as a feed's first code follows an odd marker that ended the feed before.
    coded, i = with_bad_code(k, paired_codes(k, 1), kind, 60)
    a, b = {"first": (i, i + 7), "middle": (i - 3, i + 4), "last": (i - 6, i + 1)}[where]
    pack = (lambda part: array("H", part)) if k > 253 else bytes
    chunks = [pack(coded[:a]), pack(coded[a:b]), pack(coded[b:])]
    if kind.endswith("after-odd") and where == "first":
        assert chunks[0][-1] == odd_marker(k)
    expected = decoded_by_reference(k, chunks)
    assert expected[1][0].startswith("MalformedStreamError") and f"position {i + 1} " in expected[1][0]
    got = [(out if isinstance(out, str) else list(out), *rest) for out, *rest in decoded_in_parts(k, chunks)]
    assert got == expected


@pytest.mark.parametrize("part", ["session", "worker"])
@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("k", [5, 254])
def test_a_split_decode_raises_the_one_process_error_from_either_part(monkeypatch, k, kind, part):
    # One feed of the whole stream, split at its bare seam: a bad code before the seam raises in this
    # process, and one after it fails the worker, so this process decodes on to the same error.
    good = paired_codes(k, 2, pieces=80)
    coded, i = with_bad_code(k, good, kind, len(good) // 8 if part == "session" else len(good) * 3 // 4)
    chunks = [bytes(coded)]
    expected = decoded_by_reference(k, chunks)
    seam = None if part == "session" else bare_seam(k, chunks[0], lead=64)
    split_early(monkeypatch)
    monkeypatch.setattr(codec, "_SPLIT_LEAD", 64)  # pieces of at most 10 symbols drain within it
    spans = feed_spans(monkeypatch)
    assert decoded_in_parts(k, chunks) == expected
    if part == "session":
        assert len(spans) == 1 and i < spans[0] < len(coded)
    else:
        assert seam <= i and spans == [seam, len(coded) - seam]
    assert_no_child_left()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_code_pairs_pass_over_matches_that_straddle_two_codes(data):
    # At k = 1284 the pair marker 0x0505 and the odd marker 0x0504 are the bytes 05 05 04 05 (little
    # endian), which also lie across the codes 0x05xx, 0x0405 (1029) and 0xyy05.  Such a match must
    # not count, nor hide the pair marker it ends in: [1280, 1029, k + 1, k] holds one at byte 1.
    k = 1284
    symbols = st.sampled_from([1280, 1029, 1281, 5, 3, k, k + 1])
    codes = array("H", data.draw(st.lists(symbols, max_size=40)))
    start, end = sorted(data.draw(st.lists(st.integers(0, len(codes)), min_size=2, max_size=2)))
    expected = [i for i in range(start, end - 1) if codes[i : i + 2] == array("H", [k + 1, k])]
    assert list(codec._code_pairs(codes, k + 1, k, start, end)) == expected
    assert list(codec._code_pairs(bytes(c & 255 for c in codes), 5, 4, start, end)) == [
        i for i in range(start, end - 1) if (codes[i] & 255, codes[i + 1] & 255) == (5, 4)
    ]
    assert list(codec._code_pairs(array("H", [1280, 1029, k + 1, k]), k + 1, k, 0, 4)) == [2]
