"""Matched-pair pushdown codec.

The compressor reads symbols over the alphabet ``{0, ..., k-1}``.  A symbol
that differs from the stack top is pushed and echoed to the output; a
symbol equal to the top pops it.  Each maximal run of ``m`` consecutive
pops is coded as ``m // 2`` copies of the pair marker, plus one odd marker
when ``m`` is odd; the odd marker is emitted together with the next pushed
symbol, or by ``flush`` at end of input.  The output alphabet is therefore
the input alphabet extended by the two marker codes.

The decompressor inverts this exactly: plain symbols are pushed and
echoed, the odd marker pops one symbol, the pair marker pops two (topmost
first).  With flushing enabled the round trip is the identity on every
finite word.

Both directions exist twice: as explicit transducer tables executed by
:mod:`pdtcomp.engine` (the reference semantics; :func:`compress_run` keeps
the run trace), and as the streaming sessions :class:`Compressor` /
:class:`Decompressor` used on hot paths.  The test suite pins the two
routes to each other.

Mirrored input is folded.  The compressor's stack always holds the reduced
form of what it has read (adjacent equal symbols cancel), so on an
even-length palindrome ``w + w[::-1]`` the stack states of the second half
retrace those of ``w`` backwards: every push of ``w`` becomes a pop and
every pop a push, and the runs on either side of the seam never merge.
:meth:`Compressor.consume` therefore reads only ``w`` of such an input and
derives every counter of the second half from the census of ``w``'s push
and pop runs; :func:`pdtcomp.analysis.block_stats` folds its symbol-run
census the same way.  Other input takes the same census over the whole
word, and only its pop runs are accounted, so the compressor has two
per-symbol loops: the census, and ``feed``, the only one that emits output.

Every word, here and in generation, the census and the stream formats,
enters through :func:`packed`: the one place that picks its in-memory form
(``bytes``, or ``array('H')`` past 256 codes) and range-checks its symbols.
Words are built in :func:`packed_buffer`, which picks the same form from the
code limit, so the sessions, :func:`compress` and :func:`decompress` return
their output packed: ``bytes`` while every code of the output alphabet fits
a byte, else ``array('H')``.

The engine is imported only by the table builders, :func:`compress_run` and
:attr:`Compressor.configuration`, so the sessions load without it.
"""

from array import array
from functools import lru_cache
from itertools import compress as select, count, islice
from operator import eq
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .engine import Configuration, RunTrace, TransducerSpec

K_MIN = 2
K_MAX = 65534  # pair marker k + 1 must fit a 16-bit stream code


class CodecError(ValueError):
    """Base class for codec usage and data errors."""


class AlphabetError(CodecError):
    """An input symbol lies outside the expected alphabet."""


class MalformedStreamError(CodecError):
    """A coded stream that :func:`compress` cannot have produced."""


def check_alphabet_size(k: int) -> int:
    if not isinstance(k, int) or not K_MIN <= k <= K_MAX:
        raise ValueError(f"alphabet size must be an integer in [{K_MIN}, {K_MAX}], got {k!r}")
    return k


def odd_marker(k: int) -> int:
    """Output code signalling one unpaired pop."""
    return k


def pair_marker(k: int) -> int:
    """Output code signalling two consecutive pops."""
    return k + 1


def stack_bottom(k: int) -> int:
    """Stack-only sentinel; never read, written, or popped."""
    return k + 2


@lru_cache(maxsize=None)
def build_compressor(k: int) -> "TransducerSpec":
    """Transducer table for the compressor over ``{0, ..., k-1}``.

    States: 0 (between pop pairs) and 1 (one pop pending).  Four families:
    push-and-echo, first pop of a pair (silent), second pop (pair marker),
    and push-after-odd-run (odd marker plus the pushed symbol).
    """
    from .engine import Transition, TransducerSpec

    check_alphabet_size(k)
    bottom = stack_bottom(k)
    alphabet = range(k)
    stack_syms = list(alphabet) + [bottom]
    ts: list[Transition] = []
    for z in stack_syms:
        for a in alphabet:
            if z != a:
                ts.append(Transition(0, z, a, (a,), 0, (z, a)))
                ts.append(Transition(1, z, a, (odd_marker(k), a), 0, (z, a)))
    for a in alphabet:
        ts.append(Transition(0, a, a, (), 1, ()))
        ts.append(Transition(1, a, a, (pair_marker(k),), 0, ()))
    return TransducerSpec(
        input_alphabet=frozenset(alphabet),
        output_alphabet=frozenset(range(k + 2)),
        stack_alphabet=frozenset(stack_syms),
        states=frozenset({0, 1}),
        initial_state=0,
        start_symbol=bottom,
        transitions=tuple(ts),
    )


@lru_cache(maxsize=None)
def build_decompressor(k: int) -> "TransducerSpec":
    """Transducer table for the inverse direction.

    Plain symbols push and echo (also onto the bottom sentinel); the odd
    marker pops and echoes the top; the pair marker pops and echoes the
    top, then an input-free move pops and echoes the next one.
    """
    from .engine import EPSILON, Transition, TransducerSpec

    check_alphabet_size(k)
    bottom = stack_bottom(k)
    alphabet = range(k)
    stack_syms = list(alphabet) + [bottom]
    ts: list[Transition] = []
    for z in stack_syms:
        for a in alphabet:
            ts.append(Transition(0, z, a, (a,), 0, (z, a)))
    for z in alphabet:
        ts.append(Transition(0, z, odd_marker(k), (z,), 0, ()))
        ts.append(Transition(0, z, pair_marker(k), (z,), 1, ()))
        ts.append(Transition(1, z, EPSILON, (z,), 0, ()))
    return TransducerSpec(
        input_alphabet=frozenset(range(k + 2)),
        output_alphabet=frozenset(alphabet),
        stack_alphabet=frozenset(stack_syms),
        states=frozenset({0, 1}),
        initial_state=0,
        start_symbol=bottom,
        transitions=tuple(ts),
    )


def packed(word, limit: int, what: str):
    """``word`` packed, every symbol checked to lie in ``[0, limit)``.

    ``bytes``, ``bytearray`` and ``array('H')`` are read in place; any other
    iterable becomes ``bytes`` when every symbol is below 256, else
    ``array('H')``, and a symbol that is not an integer raises ``TypeError``.
    The first symbol out of range raises ``AlphabetError``, named as ``what``.
    """
    if isinstance(word, (bytes, bytearray)):
        if limit >= 256 or not word.translate(None, bytes(range(limit))):
            return word
    elif isinstance(word, array) and word.typecode == "H":
        if not word or max(word) < limit:
            return word
    else:
        word = word if isinstance(word, list) else list(word)
        if not word:
            return b""
        high = max(word)
        if min(word) >= 0 and high < limit:
            return bytes(word) if high < 256 else array("H", word)
    bad = next(a for a in word if not 0 <= a < limit)
    raise AlphabetError(f"{what} {bad} outside [0, {limit})")


def packed_buffer(limit: int, size: int = 0) -> bytearray | array:
    """A writable buffer of ``size`` zero symbols, for symbols below ``limit``.

    ``bytearray`` when every symbol fits a byte (``limit`` at most 256), else
    ``array('H')``: the forms :func:`packed` gives, and :func:`frozen` turns
    a finished ``bytearray`` into its ``bytes``.
    """
    return bytearray(size) if limit <= 256 else array("H", bytes(2 * size))


def frozen(buffer: bytearray | array) -> bytes | array:
    """A finished :func:`packed_buffer` as :func:`packed` returns words: ``bytes`` or ``array('H')``."""
    return bytes(buffer) if isinstance(buffer, bytearray) else buffer


_MIRROR_CHUNK = 1 << 15


def mirror_half(word) -> int:
    """Length of ``w`` when ``word`` is ``w + w[::-1]`` with ``w`` non-empty, else 0.

    Compares chunks of the first half with reversed chunks of the second,
    from the ends inwards, so a mismatch near the ends is found at once and
    neither the input nor its half is copied whole.
    """
    end = len(word)
    half = end // 2
    if end % 2:
        return 0
    i = 0
    while i < half:
        j = min(i + _MIRROR_CHUNK, half)
        if word[i:j] != word[end - j : end - i][::-1]:
            return 0
        i = j
    return half


class Compressor:
    """Single-owner streaming compressor session.

    ``feed`` accepts any iterable of symbols below ``k`` and returns the
    output emitted so far for them; ``consume`` does the same work without
    materializing output (for measurement runs).  ``flush`` ends the
    session, emitting one odd marker if a pop is pending.  Output is packed
    for the limit ``k + 2``: ``bytes`` up to k = 254, else ``array('H')``.

    Counters besides ``symbols_read`` / ``symbols_written``:

    * ``savings``: pair markers emitted so far; equals the difference
      between symbols read and symbols written once the session is flushed.
    * ``clustered_pops``: pops that belong to a maximal run of at least
      two consecutive pops (the current still-open run included).
    """

    def __init__(self, k: int):
        self.k = check_alphabet_size(k)
        self._odd = odd_marker(k)
        self._pair = pair_marker(k)
        self._stack: list[int] = [stack_bottom(k)]
        self._pending = False
        self._finished = False
        self._read = 0
        self._written = 0
        self._pairs = 0
        self._clustered = 0
        self._open_run = 0

    def feed(self, word) -> bytes | array:
        """Compress ``word``; the codes emitted for it, packed."""
        word = self._start_feed(word)
        out = packed_buffer(self.k + 2)
        emit = out.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        pending = self._pending
        pairs = self._pairs
        clustered = self._clustered
        run = self._open_run
        odd = self._odd
        pair = self._pair
        for a in word:
            if stack[-1] == a:
                pop()
                run += 1
                if pending:
                    emit(pair)
                    pairs += 1
                    pending = False
                else:
                    pending = True
            else:
                push(a)
                if run >= 2:
                    clustered += run
                run = 0
                if pending:
                    emit(odd)
                    pending = False
                emit(a)
        self._pending = pending
        self._pairs = pairs
        self._clustered = clustered
        self._open_run = run
        self._read += len(word)
        self._written += len(out)
        return frozen(out)

    def consume(self, word) -> None:
        """Like ``feed`` but only the counters are updated.

        One run census (:meth:`_census`), accounted two ways.  An even
        palindrome ``w + w[::-1]`` is folded: only ``w`` is walked, and each
        run of ``w``, push or pop, counts as one pop run of the whole input,
        except a leading push run of ``w``, which comes back last and stays
        open.  Any other input is walked whole; its pop runs count as they
        are, and its pushes follow from the change in stack depth.  A closed
        run of ``m`` pops codes to ``m // 2`` pair markers plus an odd marker
        when ``m`` is odd; ``R // 2`` pairs of the run ``R`` open on entry
        were counted before it.  Both routes leave the same counters, state
        and stack as ``feed``.
        """
        word = self._start_feed(word)
        stack = self._stack
        entry_run = self._open_run
        length = len(word)
        half = mirror_half(word)
        if half:
            entry = stack.copy()
            starts_popping = stack[-1] == word[0]
            pop_singles, pop_odd, push_singles, push_odd, last, _ = self._census(word, half)
            stack.clear()
            stack.extend(entry)
            singles = pop_singles + push_singles + (last == 1)
            odd = pop_singles + pop_odd + push_singles + push_odd + (last & 1)
            total = entry_run + half
            pushes = half
            if starts_popping:
                open_run = 0
            else:
                # first i >= 1 with word[i] == word[i-1]: where the leading push run ends
                open_run = next(select(count(1), map(eq, islice(word, 1, half), word)), half)
                odd -= open_run & 1
                singles -= open_run == 1
        else:
            depth = len(stack)
            singles, pop_odd, _, _, last, popping = self._census(word, length)
            odd = singles + pop_odd
            pushes = (length + len(stack) - depth) // 2
            total = entry_run + length - pushes
            open_run = last if popping else 0
        closed = total - open_run
        pairs = (closed - odd) // 2 + open_run // 2 - entry_run // 2
        self._pending = bool(open_run & 1)
        self._open_run = open_run
        self._pairs += pairs
        self._clustered += closed - singles
        self._read += length
        self._written += pushes + pairs + odd

    def _census(self, word, end: int) -> tuple[int, int, int, int, int, bool]:
        """Walk ``word[:end]`` on the stack and tally its maximal runs.

        The walk starts inside the pop run open on entry, so a first pop
        extends it.  Returns ``(pop_singles, pop_odd, push_singles,
        push_odd, last, popping)``: the closed pop runs and closed push runs
        of length 1 and of odd length >= 3, then the length of the last run
        and whether it pops.
        """
        stack = self._stack
        push = stack.append
        pop = stack.pop
        run = self._open_run
        popping = run > 0
        pop_singles = pop_odd = push_singles = push_odd = 0
        for a in islice(word, end):
            if stack[-1] == a:
                pop()
                if popping:
                    run += 1
                    continue
                if run == 1:
                    push_singles += 1
                elif run & 1:
                    push_odd += 1
                popping = True
            else:
                push(a)
                if not popping:
                    run += 1
                    continue
                if run == 1:
                    pop_singles += 1
                elif run & 1:
                    pop_odd += 1
                popping = False
            run = 1
        return pop_singles, pop_odd, push_singles, push_odd, run, popping

    def flush(self) -> bytes | array:
        """End the session; emit the pending odd marker if there is one.

        Returns the emitted codes in the form ``feed`` returns: empty, or the odd marker alone.
        """
        if self._finished:
            raise CodecError("compressor session already flushed")
        self._finished = True
        if self._open_run >= 2:
            self._clustered += self._open_run
        self._open_run = 0
        out = packed_buffer(self.k + 2)
        if self._pending:
            self._pending = False
            self._written += 1
            out.append(self._odd)
        return frozen(out)

    def _start_feed(self, word):
        if self._finished:
            raise CodecError("compressor session already flushed")
        return packed(word, self.k, "input symbol")

    @property
    def state(self) -> int:
        return 1 if self._pending else 0

    @property
    def stack(self) -> tuple[int, ...]:
        return tuple(self._stack)

    @property
    def configuration(self) -> "Configuration":
        from .engine import Configuration

        return Configuration(self.state, tuple(self._stack))

    @property
    def symbols_read(self) -> int:
        return self._read

    @property
    def symbols_written(self) -> int:
        return self._written

    @property
    def savings(self) -> int:
        return self._pairs

    @property
    def clustered_pops(self) -> int:
        return self._clustered + (self._open_run if self._open_run >= 2 else 0)


class Decompressor:
    """Single-owner streaming decompressor session.

    Accepts exactly the streams :class:`Compressor` emits: a plain symbol
    equal to the stack top would have popped it, and an odd marker closes
    its pop run, so a plain symbol or the end of the stream follows it.

    Output is packed for the limit ``k``: ``bytes`` up to k = 256, else
    ``array('H')``.

    A ``MalformedStreamError`` ends the session: it leaves the stack part
    way through the rejected call, so every later ``feed`` raises
    ``CodecError``.  An ``AlphabetError`` is raised before any symbol is
    decoded and leaves the session usable.
    """

    def __init__(self, k: int):
        self.k = check_alphabet_size(k)
        self._stack: list[int] = [stack_bottom(k)]
        self._read = 0
        self._written = 0
        self._odd_at = -1  # position of the last odd marker read
        self._failed = False  # set while decoding; stays set if decoding raised

    def feed(self, word) -> bytes | array:
        """Decode ``word``; the symbols it stands for, packed."""
        if self._failed:
            raise CodecError("decompressor session already failed on a malformed stream")
        word = packed(word, self.k + 2, "coded symbol")
        out = packed_buffer(self.k)
        emit = out.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        k = self.k
        position = self._read
        odd_at = self._odd_at
        self._failed = True
        for b in word:
            position += 1
            if b < k:
                if stack[-1] == b:
                    raise MalformedStreamError(
                        f"plain symbol {b} at position {position} equals the stack top"
                    )
                push(b)
                emit(b)
            elif odd_at == position - 1:
                raise MalformedStreamError(
                    f"marker at position {position} directly after an odd marker"
                )
            elif b == k:
                if len(stack) < 2:
                    raise MalformedStreamError(
                        f"odd marker at position {position} with no matched symbol pending"
                    )
                odd_at = position
                emit(pop())
            else:
                if len(stack) < 3:
                    raise MalformedStreamError(
                        f"pair marker at position {position} with fewer than two matched symbols pending"
                    )
                emit(pop())
                emit(pop())
        self._failed = False
        self._read = position
        self._odd_at = odd_at
        self._written += len(out)
        return frozen(out)

    @property
    def stack(self) -> tuple[int, ...]:
        return tuple(self._stack)

    @property
    def symbols_read(self) -> int:
        return self._read

    @property
    def symbols_written(self) -> int:
        return self._written


def compress(word, k: int, *, flush: bool = True) -> bytes | array:
    """Compress a finite word over ``{0, ..., k-1}``; packed as :meth:`Compressor.feed` packs.

    With ``flush`` (the default) the coding is injective on finite words;
    without it, a trailing odd pop run keeps its odd marker pending, which
    is the exact prefix behaviour of an unbounded stream.
    """
    session = Compressor(k)
    out = session.feed(word)
    if flush:
        out += session.flush()
    return out


def decompress(word, k: int) -> bytes | array:
    """Invert :func:`compress`; packed as :meth:`Decompressor.feed` packs.

    Accepts exactly the flushed ``compress`` image.

    So ``compress(decompress(c), k) == c`` for every ``c`` it returns on.
    Raises ``MalformedStreamError`` when a marker requests a pop that has
    no pending pushed symbol, when a plain symbol equals the stack top, or
    when a marker directly follows an odd marker; ``AlphabetError`` on
    codes >= k + 2.
    """
    return Decompressor(k).feed(word)


def compress_run(word, k: int) -> tuple[list[int], "Configuration", "RunTrace"]:
    """Compress through the transducer table, keeping the run trace; always flushed.

    Slower than :func:`compress` but exposes the per-position push/pop
    record consumed by :mod:`pdtcomp.analysis`.  A flushed odd marker is
    appended to the final trace entry, since it is the retirement of that
    position's pending pop.
    """
    from . import engine
    from .engine import Configuration

    word = packed(word, check_alphabet_size(k), "input symbol")
    out, config, trace = engine.run(build_compressor(k), word)
    out = list(out)
    if config.state == 1:
        out.append(odd_marker(k))
        trace.outputs[-1] = trace.outputs[-1] + (odd_marker(k),)
        trace.symbols_written += 1
        config = Configuration(0, config.stack)
    return out, config, trace
