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

Files move in chunks: :func:`read_chunks` reads a stream's header and then
its body ``_CHUNK`` symbols at a time, and :func:`write_chunks` writes a
header and then bodies of at most ``_CHUNK`` symbols as they come, so a file
is never held whole.  :func:`encode_stream` and :func:`decode_stream` are
the same readers and writers over one in-memory chunk.
"""

import io
import struct
import sys
from array import array
from typing import Iterable, Iterator, NamedTuple, Sequence

from .codec import _SPLIT_MIN, AlphabetError, check_alphabet_size, packed

MAGIC = b"PDT1"
VERSION = 1
ROLE_PLAIN = 0
ROLE_CODED = 1

HEADER = struct.Struct("<4sBBHQ")

TEXT_K_MAX = 36
_DIGITS = b"0123456789abcdefghijklmnopqrstuvwxyz"
_ODD_CHAR = b"+"
_PAIR_CHAR = b"*"
_TEXT_HEADER_MAX = 256  # bytes of a text header line, its newline included

_CHUNK = 2 * _SPLIT_MIN
"""Symbols per body chunk read or written.  Twice the codec's split threshold,
so every full chunk of a file whose words drain the stack codes on two cores."""


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


class ChunkedStream(NamedTuple):
    fmt: str
    role: int
    k: int
    chunks: Iterator[Sequence[int]]  # each as DecodedStream.symbols, read as iterated


def code_limit(role: int, k: int) -> int:
    """Exclusive upper bound on symbol codes for a stream role."""
    if role not in (ROLE_PLAIN, ROLE_CODED):
        raise ValueError(f"role must be 0 or 1, got {role}")
    return k if role == ROLE_PLAIN else k + 2


def _header(role: int, k: int) -> tuple[int, int]:
    """A header's role and alphabet size, each checked, for both formats."""
    if role not in (ROLE_PLAIN, ROLE_CODED):
        raise StreamFormatError(f"unknown role {role}")
    try:
        return role, check_alphabet_size(k)
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


def _binary_body(codes: Sequence[int]) -> bytes | bytearray:
    """Packed codes as 16-bit little-endian bytes."""
    if isinstance(codes, array):
        if sys.byteorder == "big":
            codes = array("H", codes)  # a copy: the caller's array stays as it is
            codes.byteswap()
        return codes.tobytes()
    body = bytearray(2 * len(codes))
    body[0::2] = codes
    return body


def _text_body(codes: Sequence[int], k: int) -> bytes:
    """Packed codes as one character each."""
    table = _text_chars(k).ljust(256, b"?")
    return array("B", codes).tobytes().translate(table)  # bytes even from array('H'): codes < 38


def write_chunks(fh, chunks: Iterable, role: int, k: int, fmt: str = "binary", count: int | None = None) -> int:
    """Write one stream to the binary file ``fh``: its header, then the symbols of each of ``chunks``.

    Each chunk is packed and range-checked as :func:`encode_stream` takes its
    symbols, and written as it comes, in bodies of at most ``_CHUNK`` symbols.
    ``count`` is the symbol count for the binary header.  Where it is
    ``None``, the header is written with 0 and rewritten once the last chunk
    is, which needs a seekable ``fh``.  A ``count`` the chunks do not add up
    to raises ``ValueError`` after the last one.  Returns the symbols written.
    """
    check_alphabet_size(k)
    code_limit(role, k)
    if fmt == "binary":
        start = fh.tell() if count is None else 0
        fh.write(HEADER.pack(MAGIC, VERSION, role, k, count or 0))
    elif fmt == "text":
        if k > TEXT_K_MAX:
            raise ValueError(f"text format supports alphabets of up to {TEXT_K_MAX} symbols")
        fh.write(f"k={k} role={role}\n".encode("ascii"))
    else:
        raise ValueError(f"unknown format {fmt!r}, expected 'binary' or 'text'")
    total = 0
    for chunk in chunks:
        codes = _codes(chunk, role, k)
        for first in range(0, len(codes), _CHUNK):
            part = codes[first : first + _CHUNK]
            fh.write(_binary_body(part) if fmt == "binary" else _text_body(part, k))
        total += len(codes)
    if fmt == "text":
        fh.write(b"\n")
    elif count is None:
        fh.seek(start)
        fh.write(HEADER.pack(MAGIC, VERSION, role, k, total))
        fh.seek(0, io.SEEK_END)
    if count is not None and total != count:
        raise ValueError(f"{total} symbols written, the stream declares {count}")
    return total


def encode_stream(symbols: Iterable[int], role: int, k: int, fmt: str = "binary") -> bytes:
    """Serialize symbols into the requested format: a header and one chunk of :func:`write_chunks`.

    ``bytes`` and ``bytearray`` arguments are read as one symbol per byte,
    and ``array('H')`` as one symbol per item: the forms
    :mod:`pdtcomp.seqgen` and :func:`decode_stream` produce.
    """
    out = io.BytesIO()
    write_chunks(out, [symbols], role, k, fmt)
    return out.getvalue()


def read_chunks(fh) -> ChunkedStream:
    """Read the header of the stream in the binary file ``fh``, in either format.

    Its symbols come as ``chunks``, an iterator that reads the body as it is
    iterated, at most ``_CHUNK`` symbols at a time, each chunk packed and
    range-checked as :func:`decode_stream` returns symbols.  A malformed
    header raises here; a malformed body raises from the chunk that reaches
    the fault, so a truncated or overlong body is found at its end.
    """
    return _read(fh, _CHUNK)


def decode_stream(data: bytes) -> DecodedStream:
    """Parse a serialized stream in either format; exact inverse of :func:`encode_stream`.

    The header and one body chunk of the readers :func:`read_chunks` uses.
    """
    stream = _read(io.BytesIO(data), max(len(data), 1))
    chunks = list(stream.chunks)  # at most one: the body fits a chunk of len(data) symbols
    return DecodedStream(chunks[0] if chunks else b"", stream.role, stream.k)


def _read(fh, size: int) -> ChunkedStream:
    """The header of the stream in ``fh`` and its chunk reader, for chunks of at most ``size`` symbols.

    A stream names its format by its first bytes: ``k=`` starts a text
    header, and anything else is read as a binary header.
    """
    lead = fh.read(2)
    if lead == b"k=":
        line = lead + fh.readline(_TEXT_HEADER_MAX - len(lead))
        if not line.isascii():
            raise BadMagicError("text stream is not ASCII")
        if len(line) == _TEXT_HEADER_MAX and not line.endswith(b"\n"):
            raise BadMagicError(f"text header longer than {_TEXT_HEADER_MAX} bytes")
        if not line.endswith(b"\n"):
            raise TruncatedStreamError("text stream has no symbol line")
        role, k = _text_header(line[:-1].decode("ascii"))
        return ChunkedStream("text", role, k, _text_chunks(fh, role, k, size))
    head = lead + fh.read(HEADER.size - len(lead))
    role, k, count = _binary_header(head)
    return ChunkedStream("binary", role, k, _binary_chunks(fh, role, k, count, size))


def _binary_header(head: bytes) -> tuple[int, int, int]:
    """Role, alphabet size and symbol count from the first ``HEADER.size`` bytes of a binary stream."""
    if len(head) < 4 or head[:4] != MAGIC:
        raise BadMagicError("data starts with neither the binary magic nor a text header")
    if len(head) < HEADER.size:
        raise TruncatedStreamError(f"header needs {HEADER.size} bytes, got {len(head)}")
    _, version, role, k, count = HEADER.unpack(head)
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    return (*_header(role, k), count)


def _binary_chunks(fh, role: int, k: int, count: int, size: int) -> Iterator[Sequence[int]]:
    """The ``count`` codes of a binary body, ``size`` at a time; then no byte more."""
    left = count
    while left:
        want = 2 * min(left, size)
        data = fh.read(want)
        left -= len(data) // 2
        if len(data) < want:
            raise TruncatedStreamError(f"body holds {count - left} codes, header declares {count}")
        yield _binary_codes(data, role, k)
    extra = 0
    while data := fh.read(2 * size):
        extra += len(data)
    if extra:
        raise StreamFormatError(f"{extra} trailing bytes after declared codes")


def _binary_codes(data: bytes, role: int, k: int) -> Sequence[int]:
    """Packed codes of a chunk of binary body: narrowed by slicing where every high byte is zero."""
    if data[1::2].count(0) == len(data) // 2:
        return _codes(data[0::2], role, k)
    codes = array("H", data)
    if sys.byteorder == "big":
        codes.byteswap()
    return _codes(codes, role, k)


def _text_header(head: str) -> tuple[int, int]:
    """Role and alphabet size from a text header line ``k=<k> role=<role>``."""
    parts = head.split()
    if len(parts) != 2 or not parts[0].startswith("k=") or not parts[1].startswith("role="):
        raise BadMagicError(f"malformed text header {head!r}")
    try:
        k = int(parts[0][2:])
        role = int(parts[1][5:])
    except ValueError:
        raise BadMagicError(f"malformed text header {head!r}") from None
    _header(role, k)
    if k > TEXT_K_MAX:
        raise StreamFormatError(f"text alphabet size {k} above the limit of {TEXT_K_MAX}")
    return role, k


def _text_chunks(fh, role: int, k: int, size: int) -> Iterator[Sequence[int]]:
    """The symbol line of a text body, ``size`` characters at a time; one final newline may end it."""
    chars = _text_chars(k)
    table = bytes.maketrans(chars, bytes(range(k + 2)))
    while data := fh.read(size):
        if not data.isascii():
            raise BadMagicError("text stream is not ASCII")
        newline = data.find(b"\n")
        if newline >= 0:
            if newline < len(data) - 1 or fh.read(1):
                raise StreamFormatError("text stream has more than one symbol line")
            data = data[:-1]
        stray = data.translate(None, chars)
        if stray:
            raise CodeOutOfRangeError(f"character {chr(stray[0])!r} is not a symbol")
        yield _codes(data.translate(table), role, k)
