"""The concrete codec: table construction, round trips, coding accounting."""

from array import array
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcomp import engine
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
from pdtcomp.seqgen import cyclic_pattern_counts
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
    assert list(compress([0, 0], 2, flush=False)) == [0]
    assert list(compress([0], 2, flush=False)) == [0]  # collides: flush restores injectivity
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
    assert session.configuration == engine_config
    # unflushed runs agree with the raw table run
    raw = run(build_compressor(k), w)
    assert list(compress(w, k, flush=False)) == list(raw.output)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_flushed_savings_identity(k, data):
    # read - written == pair markers emitted, on any flushed session
    w = data.draw(words(k))
    session = Compressor(k)
    session.feed(w)
    session.flush()
    assert session.symbols_read - session.symbols_written == session.savings


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


def test_consume_routes_only_mirrored_input_through_the_fold(monkeypatch):
    calls = []
    census = Compressor._census
    monkeypatch.setattr(
        Compressor, "_census", lambda self, *a: calls.append(a) or census(self, *a)
    )
    session = Compressor(3)
    session.consume([0, 1, 2, 2, 1, 0])
    session.consume([0, 1, 2, 2, 1, 1])
    session.consume([0, 1, 0])
    assert [end for _, end in calls] == [3, 6, 3]


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
