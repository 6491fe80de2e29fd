"""Bit-exact serialization of symbol streams."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcomp.codec import CodecError, decompress
from pdtcomp.seqgen import mirrored_segment
from pdtcomp.streamio import (
    HEADER,
    MAGIC,
    ROLE_CODED,
    ROLE_PLAIN,
    BadMagicError,
    BadVersionError,
    VERSION,
    CodeOutOfRangeError,
    StreamFormatError,
    TruncatedStreamError,
    code_limit,
    decode_stream,
    detect_format,
    encode_stream,
)


def as_lists(decoded):
    """A decoded stream with its packed symbols as a list, to compare with list input."""
    return list(decoded.symbols), decoded.role, decoded.k


def test_binary_header_layout():
    data = encode_stream([], ROLE_PLAIN, 5, "binary")
    assert len(data) == HEADER.size == 16
    assert data[:4] == MAGIC
    assert data[4] == 1  # version
    assert data[5] == ROLE_PLAIN
    assert data[6:8] == (5).to_bytes(2, "little")
    assert data[8:16] == (0).to_bytes(8, "little")


def test_binary_body_is_little_endian_16bit():
    data = encode_stream([1, 258], ROLE_PLAIN, 1000, "binary")
    assert data[16:] == b"\x01\x00\x02\x01"


def test_text_example():
    data = encode_stream([0, 1, 3], ROLE_CODED, 2, "text")
    assert data == b"k=2 role=1\n01*\n"
    assert as_lists(decode_stream(data)) == ([0, 1, 3], 1, 2)


def test_text_odd_marker_and_letters():
    data = encode_stream([10, 13, 12, 11], ROLE_CODED, 12, "text")
    assert data == b"k=12 role=1\na*+b\n"
    assert list(decode_stream(data).symbols) == [10, 13, 12, 11]


def test_text_rejects_large_alphabets():
    with pytest.raises(ValueError):
        encode_stream([0], ROLE_PLAIN, 37, "text")


def test_code_limit_by_role():
    assert code_limit(ROLE_PLAIN, 9) == 9
    assert code_limit(ROLE_CODED, 9) == 11
    with pytest.raises(ValueError):
        code_limit(2, 9)


def test_encode_rejects_out_of_range_codes():
    with pytest.raises(CodeOutOfRangeError):
        encode_stream([2], ROLE_PLAIN, 2, "binary")
    with pytest.raises(CodeOutOfRangeError):
        encode_stream([4], ROLE_CODED, 2, "binary")
    with pytest.raises(CodeOutOfRangeError):
        encode_stream([2], ROLE_PLAIN, 2, "text")
    with pytest.raises(CodeOutOfRangeError):
        encode_stream([70000], ROLE_PLAIN, 65534, "binary")


def test_decode_auto_detects_format():
    binary = encode_stream([0, 1], ROLE_PLAIN, 2, "binary")
    text = encode_stream([0, 1], ROLE_PLAIN, 2, "text")
    assert detect_format(binary) == "binary"
    assert detect_format(text) == "text"
    assert decode_stream(binary) == decode_stream(text)
    with pytest.raises(BadMagicError):
        detect_format(b"GIF89a...")


def test_decode_bad_magic():
    with pytest.raises(BadMagicError):
        decode_stream(b"NOPE" + bytes(12), "binary")
    with pytest.raises(BadMagicError):
        decode_stream(b"", "auto")


def test_decode_bad_version():
    data = bytearray(encode_stream([0], ROLE_PLAIN, 2, "binary"))
    data[4] = 9
    with pytest.raises(BadVersionError):
        decode_stream(bytes(data))


def test_decode_truncated():
    data = encode_stream([0, 1, 1], ROLE_PLAIN, 2, "binary")
    with pytest.raises(TruncatedStreamError):
        decode_stream(data[:-2])
    with pytest.raises(TruncatedStreamError):
        decode_stream(data[:10])


def test_decode_trailing_garbage():
    data = encode_stream([0], ROLE_PLAIN, 2, "binary")
    with pytest.raises(StreamFormatError):
        decode_stream(data + b"\x00\x00")


def test_decode_code_out_of_range():
    # role byte patched from coded to plain: marker codes become invalid
    data = bytearray(encode_stream([0, 2, 3], ROLE_CODED, 2, "binary"))
    data[5] = ROLE_PLAIN
    with pytest.raises(CodeOutOfRangeError):
        decode_stream(bytes(data))


def test_decode_text_errors():
    with pytest.raises(BadMagicError):
        decode_stream(b"k=x role=0\n01\n", "text")
    with pytest.raises(TruncatedStreamError):
        decode_stream(b"k=2 role=0", "text")
    with pytest.raises(CodeOutOfRangeError):
        decode_stream(b"k=2 role=0\n0!\n", "text")
    with pytest.raises(CodeOutOfRangeError):
        decode_stream(b"k=2 role=0\n02\n", "text")
    with pytest.raises(CodeOutOfRangeError):
        decode_stream(b"k=2 role=0\n0+\n", "text")
    with pytest.raises(StreamFormatError):
        decode_stream(b"k=2 role=0\n01\n01\n", "text")
    with pytest.raises(StreamFormatError):
        decode_stream(b"k=2 role=7\n01\n", "text")
    with pytest.raises(BadMagicError):
        decode_stream("k=2 role=0\né\n".encode("utf-8"), "text")


@pytest.mark.parametrize("k, role", [(5, ROLE_PLAIN), (254, ROLE_CODED)])
def test_binary_high_byte_names_the_full_code(k, role):
    data = bytearray(encode_stream([0, 1, 2], role, k, "binary"))
    data[HEADER.size + 3] = 1  # high byte of the second code
    with pytest.raises(CodeOutOfRangeError, match="code 257 outside"):
        decode_stream(bytes(data))


@pytest.mark.parametrize("char", ["A", "-", "\r", "+"], ids=["letter", "dash", "return", "marker"])
def test_text_plain_stream_refuses_stray_characters(char):
    with pytest.raises(CodeOutOfRangeError):
        decode_stream(f"k=5 role=0\n01{char}2\n".encode("ascii"), "text")


def test_text_digit_past_the_alphabet_is_not_a_marker():
    # code 2 is the odd marker at k = 2, but its character is "+", not "2"
    with pytest.raises(CodeOutOfRangeError, match="'2' is not a symbol"):
        decode_stream(b"k=2 role=1\n02\n", "text")


def test_decoded_symbols_are_packed():
    assert decode_stream(encode_stream([0, 4, 1], ROLE_PLAIN, 5)).symbols == bytes([0, 4, 1])
    assert decode_stream(encode_stream([0, 4, 1], ROLE_PLAIN, 5, "text")).symbols == bytes([0, 4, 1])
    wide = decode_stream(encode_stream([0, 300, 1], ROLE_PLAIN, 301)).symbols
    assert wide == array("H", [0, 300, 1])


def test_text_empty_stream():
    data = encode_stream([], ROLE_PLAIN, 5, "text")
    assert list(decode_stream(data).symbols) == []
    # a missing symbol line after the header also decodes as empty
    assert list(decode_stream(b"k=5 role=0\n", "text").symbols) == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_binary_roundtrip(data):
    k = data.draw(st.sampled_from([2, 3, 36, 37, 1000, 65534]))
    role = data.draw(st.sampled_from([ROLE_PLAIN, ROLE_CODED]))
    limit = code_limit(role, k)
    symbols = data.draw(st.lists(st.integers(0, limit - 1), max_size=64))
    encoded = encode_stream(symbols, role, k, "binary")
    assert as_lists(decode_stream(encoded, "binary")) == (symbols, role, k)
    assert as_lists(decode_stream(encoded, "auto")) == (symbols, role, k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_text_roundtrip(data):
    k = data.draw(st.sampled_from([2, 3, 10, 36]))
    role = data.draw(st.sampled_from([ROLE_PLAIN, ROLE_CODED]))
    limit = code_limit(role, k)
    symbols = data.draw(st.lists(st.integers(0, limit - 1), max_size=64))
    encoded = encode_stream(symbols, role, k, "text")
    assert as_lists(decode_stream(encoded, "text")) == (symbols, role, k)
    assert as_lists(decode_stream(encoded, "auto")) == (symbols, role, k)


def test_maximal_codes_roundtrip():
    k = 65534
    symbols = [0, k - 1, k, k + 1]  # top plain symbol and both markers
    encoded = encode_stream(symbols, ROLE_CODED, k, "binary")
    assert list(decode_stream(encoded).symbols) == symbols


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_encode_reads_bytes_as_symbols(fmt):
    for symbols in ([3, 0, 1, 0], [1, 2, 3]):
        for buffer in (bytes(symbols), bytearray(symbols)):
            assert list(decode_stream(encode_stream(buffer, ROLE_PLAIN, 5, fmt)).symbols) == symbols
    assert encode_stream(bytes([3, 0, 1, 0]), ROLE_PLAIN, 5, fmt) == encode_stream(
        [3, 0, 1, 0], ROLE_PLAIN, 5, fmt
    )
    with pytest.raises(CodeOutOfRangeError, match="code 5 outside"):
        encode_stream(bytes([0, 5, 9]), ROLE_PLAIN, 5, fmt)


def test_encode_takes_a_generated_segment_directly():
    segment = mirrored_segment(5, 4)
    assert isinstance(segment, bytes)
    encoded = encode_stream(segment, ROLE_PLAIN, 5, "binary")
    assert as_lists(decode_stream(encoded)) == (list(segment), ROLE_PLAIN, 5)


@pytest.mark.parametrize("k", [0, 1, 65535])
def test_binary_header_alphabet_size_out_of_range(k):
    with pytest.raises(StreamFormatError, match="alphabet size"):
        decode_stream(HEADER.pack(MAGIC, VERSION, ROLE_PLAIN, k, 0))


@pytest.mark.parametrize("k", [-3, 0, 1, 65535])
def test_text_header_alphabet_size_out_of_range(k):
    with pytest.raises(StreamFormatError, match="alphabet size"):
        decode_stream(f"k={k} role=0\n\n".encode("ascii"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decoders_raise_only_format_and_codec_errors(data):
    k = data.draw(st.integers(2, 6))
    role = data.draw(st.sampled_from([ROLE_PLAIN, ROLE_CODED]))
    fmt = data.draw(st.sampled_from(["binary", "text"]))
    body = data.draw(st.lists(st.integers(0, code_limit(role, k) - 1), max_size=20))
    raw = bytearray(encode_stream(body, role, k, fmt))
    for _ in range(data.draw(st.integers(0, 3))):  # overwrite, insert or drop bytes
        i = data.draw(st.integers(0, len(raw)))
        raw[i : i + data.draw(st.integers(0, 1))] = data.draw(st.binary(max_size=2))
    try:
        decoded = decode_stream(bytes(raw))
    except StreamFormatError:
        return
    try:
        decompress(decoded.symbols, decoded.k)
    except CodecError:
        pass
