"""Bit-exact symbol-stream formats.

Binary layout: a 16-byte header (magic ``PDT1``, version byte, role byte,
alphabet size as 16-bit little-endian, symbol count as 64-bit
little-endian) followed by one 16-bit little-endian code per symbol.
Role 0 carries plain streams (codes below k), role 1 coded streams (codes
below k + 2, the top two being the odd and pair markers).

Text layout, for alphabets of up to 36 symbols: a first line
``k=<k> role=<role>``, then the symbols as the characters ``0-9a-z`` with
``+`` for the odd marker and ``*`` for the pair marker, no separators.
"""

import struct
import sys
from array import array
from typing import Iterable, NamedTuple

from .codec import check_alphabet_size

MAGIC = b"PDT1"
VERSION = 1
ROLE_PLAIN = 0
ROLE_CODED = 1

HEADER = struct.Struct("<4sBBHQ")

TEXT_K_MAX = 36
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_ODD_CHAR = "+"
_PAIR_CHAR = "*"


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
    symbols: list[int]
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


def encode_stream(symbols: Iterable[int], role: int, k: int, fmt: str = "binary") -> bytes:
    """Serialize symbols into the requested format.

    ``bytes`` and ``bytearray`` arguments are read as one symbol per byte,
    the form :mod:`pdtcomp.seqgen` produces for alphabets of up to 256
    symbols.
    """
    check_alphabet_size(k)
    limit = code_limit(role, k)
    if fmt == "binary":
        if isinstance(symbols, (bytes, bytearray)):
            symbols = iter(symbols)  # array() would take the bytes as raw 16-bit codes
        try:
            body = array("H", symbols)
        except OverflowError as exc:
            raise CodeOutOfRangeError(f"symbol does not fit a 16-bit code: {exc}") from None
        if body and max(body) >= limit:
            bad = next(c for c in body if c >= limit)
            raise CodeOutOfRangeError(f"code {bad} outside [0, {limit}) for role {role}")
        if sys.byteorder == "big":
            body.byteswap()
        return HEADER.pack(MAGIC, VERSION, role, k, len(body)) + body.tobytes()
    if fmt == "text":
        if k > TEXT_K_MAX:
            raise ValueError(f"text format supports alphabets of up to {TEXT_K_MAX} symbols")
        chars = []
        for c in symbols:
            if not 0 <= c < limit:
                raise CodeOutOfRangeError(f"code {c} outside [0, {limit}) for role {role}")
            if c < k:
                chars.append(_DIGITS[c])
            elif c == k:
                chars.append(_ODD_CHAR)
            else:
                chars.append(_PAIR_CHAR)
        return (f"k={k} role={role}\n" + "".join(chars) + "\n").encode("ascii")
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
    body = data[HEADER.size :]
    if len(body) < 2 * count:
        raise TruncatedStreamError(f"body holds {len(body) // 2} codes, header declares {count}")
    if len(body) > 2 * count:
        raise StreamFormatError(f"{len(body) - 2 * count} trailing bytes after declared codes")
    codes = array("H")
    codes.frombytes(body)
    if sys.byteorder == "big":
        codes.byteswap()
    limit = code_limit(role, k)
    if codes and max(codes) >= limit:
        bad = next(c for c in codes if c >= limit)
        raise CodeOutOfRangeError(f"code {bad} outside [0, {limit}) for role {role}")
    return DecodedStream(codes.tolist(), role, k)


def _decode_text(data: bytes) -> DecodedStream:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise BadMagicError(f"text stream is not ASCII: {exc}") from None
    head, sep, rest = text.partition("\n")
    if not sep:
        raise TruncatedStreamError("text stream has no symbol line")
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
    if rest.endswith("\n"):
        rest = rest[:-1]
    if "\n" in rest:
        raise StreamFormatError("text stream has more than one symbol line")
    limit = code_limit(role, k)
    symbols: list[int] = []
    for ch in rest:
        if ch == _ODD_CHAR:
            code = k
        elif ch == _PAIR_CHAR:
            code = k + 1
        else:
            code = _DIGITS.find(ch)
            if code == -1:
                raise CodeOutOfRangeError(f"character {ch!r} is not a symbol")
        if code >= limit:
            raise CodeOutOfRangeError(f"code {code} outside [0, {limit}) for role {role}")
        symbols.append(code)
    return DecodedStream(symbols, role, k)
