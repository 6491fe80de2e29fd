"""Bit-exact symbol-stream formats.

Binary layout: a 16-byte header (magic ``PDT1``, version byte, role byte,
alphabet size as 16-bit little-endian, symbol count as 64-bit
little-endian) followed by one 16-bit little-endian code per symbol.
Role 0 carries plain streams (codes below k), role 1 coded streams (codes
below k + 2, the top two being the odd and pair markers).

Text layout, for alphabets of up to 36 symbols: a first line
``k=<k> role=<role>``, then the symbols as the characters ``0-9a-z`` with
``+`` for the odd marker and ``*`` for the pair marker, no separators.

In memory a stream's symbols are held as :func:`pdtcomp.codec.packed` holds
every word: ``bytes`` when each code is below 256, else ``array('H')``.
Encoding takes its symbols through ``packed``, which also range-checks them,
and decoding returns that form, so neither direction loops over symbols in
Python: a binary body is widened or narrowed by slicing, and text is mapped
by one ``translate`` table each way.
"""

import struct
import sys
from array import array
from typing import Iterable, NamedTuple, Sequence

from .codec import AlphabetError, check_alphabet_size, packed

MAGIC = b"PDT1"
VERSION = 1
ROLE_PLAIN = 0
ROLE_CODED = 1

HEADER = struct.Struct("<4sBBHQ")

TEXT_K_MAX = 36
_DIGITS = b"0123456789abcdefghijklmnopqrstuvwxyz"
_ODD_CHAR = b"+"
_PAIR_CHAR = b"*"


class StreamFormatError(ValueError):
    """Base class for malformed stream data."""


class BadMagicError(StreamFormatError):
    """The data does not start like any known stream format."""


class BadVersionError(StreamFormatError):
    """Recognized magic but an unsupported version byte."""


class TruncatedStreamError(StreamFormatError):
    """The data ends before the declared symbol count is reached."""


class CodeOutOfRangeError(StreamFormatError):
    """A symbol code (or character) exceeds what the role and k allow."""


class DecodedStream(NamedTuple):
    symbols: Sequence[int]  # bytes, or array('H') when a code is 256 or above
    role: int
    k: int


def code_limit(role: int, k: int) -> int:
    """Exclusive upper bound on symbol codes for a stream role."""
    if role not in (ROLE_PLAIN, ROLE_CODED):
        raise ValueError(f"role must be 0 or 1, got {role}")
    return k if role == ROLE_PLAIN else k + 2


def _header_k(k: int) -> int:
    try:
        return check_alphabet_size(k)
    except ValueError as exc:
        raise StreamFormatError(f"header: {exc}") from None


def _codes(symbols: Iterable[int], role: int, k: int) -> Sequence[int]:
    """``symbols`` packed, every code checked against the limit of the role."""
    try:
        return packed(symbols, code_limit(role, k), "code")
    except AlphabetError as exc:
        raise CodeOutOfRangeError(f"{exc} for role {role}") from None


def _text_chars(k: int) -> bytes:
    """The character of each code below k + 2, indexed by code."""
    return _DIGITS[:k] + _ODD_CHAR + _PAIR_CHAR


def encode_stream(symbols: Iterable[int], role: int, k: int, fmt: str = "binary") -> bytes:
    """Serialize symbols into the requested format.

    ``bytes`` and ``bytearray`` arguments are read as one symbol per byte,
    and ``array('H')`` as one symbol per item: the forms
    :mod:`pdtcomp.seqgen` and :func:`decode_stream` produce.
    """
    check_alphabet_size(k)
    if fmt == "binary":
        codes = _codes(symbols, role, k)
        if isinstance(codes, array):
            if sys.byteorder == "big":
                codes = array("H", codes)  # a copy: the caller's array stays as it is
                codes.byteswap()
            body = codes.tobytes()
        else:
            body = bytearray(2 * len(codes))
            body[0::2] = codes
        return HEADER.pack(MAGIC, VERSION, role, k, len(codes)) + body
    if fmt == "text":
        if k > TEXT_K_MAX:
            raise ValueError(f"text format supports alphabets of up to {TEXT_K_MAX} symbols")
        codes = array("B", _codes(symbols, role, k)).tobytes()  # bytes even from array('H'): codes < 38
        table = _text_chars(k).ljust(256, b"?")
        return f"k={k} role={role}\n".encode("ascii") + codes.translate(table) + b"\n"
    raise ValueError(f"unknown format {fmt!r}, expected 'binary' or 'text'")


def detect_format(data: bytes) -> str:
    if data[:4] == MAGIC:
        return "binary"
    if data[:2] == b"k=":
        return "text"
    raise BadMagicError("data starts with neither the binary magic nor a text header")


def decode_stream(data: bytes, fmt: str = "auto") -> DecodedStream:
    """Parse a serialized stream; exact inverse of :func:`encode_stream`."""
    if fmt == "auto":
        fmt = detect_format(data)
    if fmt == "binary":
        return _decode_binary(data)
    if fmt == "text":
        return _decode_text(data)
    raise ValueError(f"unknown format {fmt!r}, expected 'binary', 'text' or 'auto'")


def _decode_binary(data: bytes) -> DecodedStream:
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagicError("missing PDT1 magic")
    if len(data) < HEADER.size:
        raise TruncatedStreamError(f"header needs {HEADER.size} bytes, got {len(data)}")
    _, version, role, k, count = HEADER.unpack_from(data)
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if role not in (ROLE_PLAIN, ROLE_CODED):
        raise StreamFormatError(f"unknown role byte {role}")
    _header_k(k)
    size = len(data) - HEADER.size
    if size < 2 * count:
        raise TruncatedStreamError(f"body holds {size // 2} codes, header declares {count}")
    if size > 2 * count:
        raise StreamFormatError(f"{size - 2 * count} trailing bytes after declared codes")
    if data[HEADER.size + 1 :: 2].count(0) == count:  # every high byte is zero
        codes = data[HEADER.size :: 2]
    else:
        codes = array("H", data[HEADER.size :])
        if sys.byteorder == "big":
            codes.byteswap()
    return DecodedStream(_codes(codes, role, k), role, k)


def _decode_text(data: bytes) -> DecodedStream:
    if not data.isascii():
        raise BadMagicError("text stream is not ASCII")
    head, sep, rest = data.partition(b"\n")
    if not sep:
        raise TruncatedStreamError("text stream has no symbol line")
    head = head.decode("ascii")
    parts = head.split()
    if len(parts) != 2 or not parts[0].startswith("k=") or not parts[1].startswith("role="):
        raise BadMagicError(f"malformed text header {head!r}")
    try:
        k = int(parts[0][2:])
        role = int(parts[1][5:])
    except ValueError:
        raise BadMagicError(f"malformed text header {head!r}") from None
    if role not in (ROLE_PLAIN, ROLE_CODED):
        raise StreamFormatError(f"unknown role {role}")
    _header_k(k)
    if k > TEXT_K_MAX:
        raise StreamFormatError(f"text alphabet size {k} above the limit of {TEXT_K_MAX}")
    if rest.endswith(b"\n"):
        rest = rest[:-1]
    if b"\n" in rest:
        raise StreamFormatError("text stream has more than one symbol line")
    chars = _text_chars(k)
    stray = rest.translate(None, chars)
    if stray:
        raise CodeOutOfRangeError(f"character {chr(stray[0])!r} is not a symbol")
    codes = rest.translate(bytes.maketrans(chars, bytes(range(k + 2))))
    return DecodedStream(_codes(codes, role, k), role, k)
