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
first).  :func:`compress` always flushes, so the round trip is the identity
on every finite word; unflushed, :meth:`Compressor.feed` is the prefix
coding of an unbounded stream (``[0]`` and ``[0, 0]`` both feed to ``[0]``).

Both directions exist twice: as explicit transducer tables executed by
:mod:`pdtcomp.engine` (the reference semantics; :func:`compress_run` keeps
the run's push/pop kinds and symbol counts), and as the streaming sessions
:class:`Compressor` / :class:`Decompressor` used on hot paths.  The test
suite pins the two routes to each other.

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

Long walks take two cores: the fold walk of ``consume``, and ``feed`` in
either direction.  From ``_SPLIT_MIN`` symbols, where ``os.fork`` exists, two
CPUs are usable and no other thread runs, a forked worker walks the second
part of the word while the session walks the first (:func:`_fork_join`).
The fold walks a byte stack up to k = 253 (:func:`_fold_stack`), and its
worker starts on a fresh one.  A feed splits only a ``bytes`` or
``bytearray`` word whose output fits bytes, and its worker starts from the
bare bottom, at a seam near the middle where the session's stack should be
bare.  The decompressor finds that seam by counting its codes: a plain
code pushes one symbol, an odd marker pops one and a pair marker two.  The
compressor reads it from the symbols before its middle alone
(:func:`_bare_point`).  A worker's part counts only when the session's
stack is bare at the seam; otherwise the session walks the rest itself, as
it does wherever it cannot fork.  So both feeds split words built from
drained pieces: words made of pairs ``u + u[::-1]`` (paired-enum files) code
and decode on two cores for every k up to 254.  Paired-lex and random words
stay in one process both ways, as their stack does not come back to the
bare bottom near their middle.  Output, counters and errors come out
identical either way, and the worker ends before the call returns.

The feed loops carry only what decides the next code: the stack, its top
and, coding, whether an odd marker is pending.  A feed's counters are then
counted from its codes, and the decoder finds a marker after an odd marker
before its loop and a bad code's position from the symbols emitted.

Every word, here and in generation, the census and the stream formats,
enters through :func:`packed`: the one place that picks its in-memory form
(``bytes``, or ``array('H')`` past 256 codes) and range-checks its symbols.
Words are built in :func:`packed_buffer`, which picks the same form from the
code limit, so the sessions, :func:`compress` and :func:`decompress` return
their output packed: ``bytes`` while every code of the output alphabet fits
a byte, else ``array('H')``.

The engine is imported only by the table builders and :func:`compress_run`,
so the sessions load without it.
"""

import marshal
import os
import sys
from array import array
from collections import Counter
from functools import lru_cache
from itertools import compress as select, count
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
    Buffers are checked at C level; ``array('H')`` by :func:`_first_outside`.
    """
    if isinstance(word, (bytes, bytearray)):
        if limit >= 256 or not word.translate(None, bytes(range(limit))):
            return word
    elif isinstance(word, array) and word.typecode == "H":
        bad = _first_outside(word, limit)
        if bad < 0:
            return word
        raise AlphabetError(f"{what} {word[bad]} outside [0, {limit})")
    else:
        word = word if isinstance(word, list) else list(word)
        if not word:
            return b""
        high = max(word)
        if min(word) >= 0 and high < limit:
            return bytes(word) if high < 256 else array("H", word)
    bad = next(a for a in word if not 0 <= a < limit)
    raise AlphabetError(f"{what} {bad} outside [0, {limit})")


_RANGE_CHUNK = 1 << 16
"""Symbols of an ``array('H')`` range-checked per step; bounds the check's temporaries."""


def _first_outside(word: array, limit: int) -> int:
    """Index of the first symbol of the ``array('H')`` ``word`` not below ``limit``, else -1.

    Checked at C level over the array's bytes, ``_RANGE_CHUNK`` symbols at a
    time, with no int per symbol.  A symbol's high byte settles it unless it
    equals the high byte of ``limit``; then its low byte does.  Both bytes are
    marked through tables (high: 0 below, 1 equal, 2 above; low: 2 below the
    low byte of ``limit``, else 3), so a symbol lies outside exactly where
    the AND of its two marks is nonzero.
    """
    if limit > 0xFFFF:
        return -1
    high, low = divmod(limit, 256)
    high_marks = bytes(high) + b"\x01" + b"\x02" * (255 - high)
    low_marks = b"\x02" * low + b"\x03" * (256 - low)
    h = 1 if sys.byteorder == "little" else 0  # offset of a symbol's high byte
    for start in range(0, len(word), _RANGE_CHUNK):
        raw = word[start : start + _RANGE_CHUNK].tobytes()
        highs = raw[h::2].translate(high_marks)
        if highs.count(0) == len(highs):
            continue
        marks = int.from_bytes(highs, "little") & int.from_bytes(
            raw[1 - h :: 2].translate(low_marks), "little"
        )
        if marks:
            return start + ((marks & -marks).bit_length() - 1 >> 3)
    return -1


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


def _first_repeat(word, start: int, end: int) -> int:
    """First ``i`` in ``[start, end)`` with ``word[i] == word[i - 1]``, else ``end``; ``start >= 1``."""
    view = memoryview(word)
    return next(select(count(start), map(eq, view[start:end], view[start - 1 : end])), end)


def _code_pairs(word, first: int, second: int, start: int, end: int):
    """The indices ``i`` in ``[start, end)`` where ``word`` holds ``first`` and then ``second``.

    Found at C level; in ``array('H')`` over its bytes, where a match across
    two codes is passed over but may hide one a byte later.
    """
    if isinstance(word, array):
        import re

        pattern = re.compile(re.escape(array("H", (first, second)).tobytes()))
        view = memoryview(word).cast("B")
        start *= 2
        while start < 2 * end:
            for match in pattern.finditer(view, start, 2 * end):
                if match.start() & 1:
                    start = match.start() + 1
                    break
                yield match.start() // 2
            else:
                return
    elif first < 256 and second < 256:
        needle = bytes((first, second))
        i = word.find(needle, start, end)
        while i >= 0:
            yield i
            i = word.find(needle, i + 1, end)


def _part(word, start: int, end: int):
    """``word[start:end]`` not copied: ``word`` when whole (it iterates faster), else a ``memoryview``."""
    return word if start == 0 and end == len(word) else memoryview(word)[start:end]


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


# A walk of at least this many symbols may take two cores: the fold (Compressor._fold_census)
# and a feed of a byte word (Compressor.feed, Decompressor.feed).  The fold's seam lies at least
# _SPLIT_LEAD symbols past its middle; the decompressor looks for a bare seam among the
# _SPLIT_LEAD codes from its middle, the compressor among the _SPLIT_WINDOW symbols before it.
_SPLIT_MIN = 1 << 18
_SPLIT_LEAD = 256
_SPLIT_WINDOW = 1 << 12
_CLOSED = (0, 0, 0, 0, 0, False)  # census state at a run boundary


def _may_fork() -> bool:
    """Whether ``os.fork`` exists, two CPUs are usable and no other thread runs."""
    threading = sys.modules.get("threading")
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and (threading is None or threading.active_count() == 1)
    )


def _splits(word, out) -> bool:
    """Whether a feed of ``word`` into ``out`` may take two cores.

    From ``_SPLIT_MIN`` symbols of a ``bytes`` or ``bytearray`` word coded
    into a ``bytearray``, where :func:`_may_fork` holds.
    """
    return (
        len(word) >= _SPLIT_MIN
        and isinstance(word, (bytes, bytearray))
        and isinstance(out, bytearray)
        and _may_fork()
    )


def _bare_point(word, start: int, end: int) -> tuple[int, int]:
    """The likeliest point of ``[start, end]`` where a walk of ``word`` leaves the stack bare, and its count.

    Walked backwards from ``end``, the state at ``p`` is the reduced form of
    ``word[p:end]``.  Whatever came before ``start``, two points have equal
    states exactly when the stack is the same at both, and the state is the
    stack at ``end`` exactly where the stack is bare.  Returns the point
    nearest ``end`` with a most frequent state, and how many points have it.
    """
    trie = {}
    below = []  # (state, front symbol) of each state the walk may pop back to
    state, front = 0, -1
    states = [state]
    for a in word[start:end][::-1]:
        if a == front:
            state, front = below.pop()
        else:
            below.append((state, front))
            state = trie.setdefault((state, a), len(trie) + 1)
            front = a
        states.append(state)
    state, most = Counter(states).most_common(1)[0]
    return end - states.index(state), most


def _fork_join(work, own):
    """Run ``work`` in a forked worker while this process runs ``own``: both results.

    The worker sends what ``work`` returns, marshalled, and writes all of
    it; its result is None when ``work`` raised or the worker did not exit
    cleanly.  The worker is killed when ``own`` or the read raises, and
    always reaped before this returns.  None, and ``own`` not run, when the
    pipe or the fork cannot be made.
    """
    try:
        reader, writer = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        return None
    if pid == 0:
        status = 1
        try:
            reply = memoryview(marshal.dumps(work()))
            while reply:
                reply = reply[os.write(writer, reply) :]
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    try:
        ours = own()
        reply = b"".join(iter(lambda: os.read(reader, 1 << 20), b""))
    except BaseException:
        from signal import SIGKILL

        os.kill(pid, SIGKILL)
        raise
    finally:
        os.close(reader)
        status = os.waitpid(pid, 0)[1]
    return ours, marshal.loads(reply) if status == 0 else None


def _fold_stack(k: int, entries) -> bytearray | array:
    """A fold walk's stack of ``entries``: a byte per entry up to k = 253, else the narrowest array."""
    bottom = stack_bottom(k)
    return bytearray(entries) if bottom < 256 else array("H" if bottom <= 0xFFFF else "I", entries)


def _fold_tallies(census) -> tuple[int, int]:
    """Runs of length 1 and runs of odd length, push and pop alike, of a census; its open run closes."""
    pop_singles, pop_odd, push_singles, push_odd, last = census[:5]
    singles = pop_singles + push_singles
    return singles + (last == 1), singles + pop_odd + push_odd + (last & 1)


class Compressor:
    """Single-owner streaming compressor session.

    ``feed`` accepts any iterable of symbols below ``k`` and returns the
    output emitted so far for them; ``consume`` does the same work without
    materializing output (for measurement runs).  ``flush`` ends the
    session, emitting one odd marker if a pop is pending.  Output is packed
    for the limit ``k + 2``: ``bytes`` up to k = 254, else ``array('H')``.

    The session stores its stack, the symbols read, the length of the pop
    run still open, and the pair markers and clustered pops of the closed
    pop runs.  ``feed``'s loop carries only the stack, its top and whether an
    odd marker is pending, and counts these from its codes afterwards;
    ``consume`` counts them from its census.  Every other counter follows
    from these, the open run ``R`` contributing what it has emitted so far:

    * ``savings``: pair markers emitted so far, ``R // 2`` of them in the
      open run; equals the difference between symbols read and symbols
      written once the session is flushed.
    * ``state``: 1 while an odd marker is pending, that is ``R`` is odd.
    * ``symbols_written``: ``symbols_read - savings - state``, since each
      push emits one symbol and each closed run of ``m`` pops ``m - m // 2``.
    * ``clustered_pops``: pops that belong to a maximal run of at least
      two consecutive pops (the open run included).
    """

    def __init__(self, k: int):
        self.k = check_alphabet_size(k)
        self._odd = odd_marker(k)
        self._pair = pair_marker(k)
        self._stack: list[int] = [stack_bottom(k)]
        self._finished = False
        self._read = 0
        self._pairs = 0
        self._clustered = 0
        self._open_run = 0

    def feed(self, word) -> bytes | array:
        """Compress ``word``; the codes emitted for it, packed.

        A long byte word may be coded on two cores, with the same result
        (:meth:`_seam` says where): this session codes ``word[:seam]`` while
        a forked worker (:meth:`_tail_codes`) codes the rest from the bare
        bottom.  The worker's codes count only when this session's stack is
        bare at the seam; otherwise, and where the worker fails or cannot
        start, this session codes the rest itself.
        """
        word = self._start_feed(word)
        out = packed_buffer(self.k + 2)
        end = len(word)
        seam = self._seam(word, out)
        run = self._open_run
        depth = len(self._stack)
        joined = None
        if seam < end:
            joined = _fork_join(
                lambda: self._tail_codes(word, seam), lambda: self._code(out, word, 0, seam, run & 1)
            )
        if not joined:
            pending = self._code(out, word, 0, end, run & 1)
        elif self._join(out, *joined):
            pending = joined[1][1]  # the worker's flag
        else:
            pending = self._code(out, word, seam, end, joined[0])
        self._count_codes(out, end, run, pending, len(self._stack) - depth)
        self._read += end
        return frozen(out)

    def _seam(self, word, out) -> int:
        """Where ``feed`` splits ``word`` coded into ``out``; the end of ``word`` where it does not.

        Where :func:`_splits` holds, the seam is the point :func:`_bare_point`
        picks among the ``_SPLIT_WINDOW`` symbols before the middle, and the
        word splits only where its stack recurs at least once per 16 of them.
        Every word of a paired-enum file drains the stack, so there the stack
        that recurs is the bare one.  Paired-lex and random words do not come
        back to one stack that often, and are coded in one process.
        """
        end = len(word)
        if not _splits(word, out):
            return end
        middle = end // 2
        start = max(middle - _SPLIT_WINDOW, 0)
        seam, seen = _bare_point(word, start, middle)
        return seam if 16 * seen >= middle - start else end

    def _code(self, out, word, start: int, end: int, pending: bool) -> bool:
        """Code ``word[start:end]`` into ``out`` on the session's stack: the one loop that emits.

        Carries the stack, its top and ``pending``, whether an odd marker is
        pending, which it returns.  The top lives in a local during the walk:
        CPython 3.11 specializes ``list[i]`` only for non-negative ``i``, so
        reading ``stack[-1]`` per symbol would run the generic subscript.
        """
        emit = out.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        odd = self._odd
        pair = self._pair
        top = pop()
        for a in _part(word, start, end):
            if a == top:
                top = pop()
                if pending:
                    emit(pair)
                    pending = False
                else:
                    pending = True
            else:
                push(top)
                top = a
                if pending:
                    emit(odd)
                    pending = False
                emit(a)
        push(top)
        return pending

    def _count_codes(self, out, length: int, run: int, pending: bool, rise: int) -> None:
        """Count a feed of ``length`` symbols from its codes ``out``.

        ``run`` is the pop run open before, ``pending`` the flag after, and
        ``rise`` the change of depth.  ``(length + rise) / 2`` symbols push,
        and ``written = read - savings - state`` gives the pair markers.  The
        codes after the last push are the open run's pair markers.  A run of
        one pop is an odd marker that follows no pair marker and, as the
        feed's first code, closes no entry run of two pops or more.
        """
        odd = self._odd
        pair = self._pair
        pushes = (length + rise) // 2
        pairs = (run & 1) + length - len(out) - pending
        odds = len(out) - pushes - pairs
        if not pushes:
            self._open_run = run + length
            return
        last = len(out) - 1
        while out[last] == pair:
            last -= 1
        open_run = 2 * (len(out) - 1 - last) + pending
        if isinstance(out, bytearray):
            after_pairs = out.count(bytes((pair, odd)))
        else:
            after_pairs = sum(1 for _ in _code_pairs(out, pair, odd, 0, len(out)))
        singles = odds - after_pairs - (out[0] == odd and run >= 2)
        closed = run + length - pushes - open_run
        self._pairs += (run >> 1) + pairs - (open_run >> 1)
        self._clustered += closed - singles
        self._open_run = open_run

    def _tail_codes(self, word, seam: int) -> tuple:
        """The worker's part of a split feed: the codes of ``word[seam:]`` and the stack they leave.

        The worker codes from the bare bottom with no odd marker pending.
        Returns the codes, the pending flag and the stack above the bottom.
        """
        self._stack = [stack_bottom(self.k)]
        out = packed_buffer(self.k + 2)
        pending = self._code(out, word, seam, len(word), False)
        return out, pending, bytes(self._stack[1:])

    def _join(self, out, pending: bool, reply) -> bool:
        """Take a worker's part when this session's stack is bare at the seam; whether it was.

        The worker's first symbol then pushes onto the bare bottom, so it
        emits the odd marker ``pending`` at the seam as one process would.
        """
        if reply is None or len(self._stack) > 1:
            return False
        codes, _, stack = reply
        if pending:
            out.append(self._odd)
        out += codes
        self._stack += stack
        return True

    def consume(self, word) -> None:
        """Like ``feed`` but only the counters are updated.

        One run census (:meth:`_census`), accounted two ways.  An even
        palindrome ``w + w[::-1]`` is folded: only ``w`` is walked, and each
        run of ``w``, push or pop, counts as one pop run of the whole input,
        except a leading push run of ``w``, which comes back last and stays
        open.  A long ``w`` may be walked on two cores
        (:meth:`_fold_census`), with the same result.  Any other input is
        walked whole; its pop runs count as they are, and its pops follow
        from the change in stack depth.  A closed run of ``m`` pops codes to
        ``m // 2`` pair markers plus an odd marker when ``m`` is odd, and
        only closed runs are stored.  Both routes leave the same counters,
        state and stack as ``feed``; the fold walks a copy of the stack.
        """
        word = self._start_feed(word)
        stack = self._stack
        entry_run = self._open_run
        entering = (0, 0, 0, 0, entry_run, entry_run > 0)
        length = len(word)
        half = mirror_half(word)
        if half:
            starts_popping = stack[-1] == word[0]
            singles, odd = self._fold_census(word, half, entering)
            total = entry_run + half
            if starts_popping:
                open_run = 0
            else:
                open_run = _first_repeat(word, 1, half)  # where the leading push run ends
                odd -= open_run & 1
                singles -= open_run == 1
        else:
            depth = len(stack)
            singles, pop_odd, _, _, last, popping = self._census(stack, word, 0, length, entering)
            odd = singles + pop_odd
            total = entry_run + (length - len(stack) + depth) // 2
            open_run = last if popping else 0
        closed = total - open_run
        self._open_run = open_run
        self._pairs += (closed - odd) // 2
        self._clustered += closed - singles
        self._read += length

    def _fold_census(self, word, half: int, state) -> tuple[int, int]:
        """Runs of length 1 and runs of odd length, push and pop alike, of the walk of ``word[:half]``.

        The walk runs on a :func:`_fold_stack` copy of the session's stack.
        From ``_SPLIT_MIN`` symbols, where ``os.fork`` exists, two CPUs are
        usable and no other thread runs, a forked worker
        (:meth:`_tail_census`) walks the second part while this process
        walks the first.  A forked worker reads ``word`` in place; a spawned
        one would have to be sent it.  The seam is the first equal adjacent
        pair ``_SPLIT_LEAD`` or more symbols after the middle: every walk
        switches between pushes and pops there, so each part's runs close at
        it.  The worker starts at the middle on a fresh stack.  From there
        on, the real stack is the one at the middle with the worker's stack
        on top, less the ``cancelled`` bottom symbols of the worker's stack
        and as many top symbols of the real one.  The two walks step alike
        while the worker's stack stays deeper than ``cancelled``.  So the
        worker's tallies count only if its walk never came down to half its
        depth at the seam, where it deleted its stack, and ``cancelled`` is
        below that depth.  Otherwise, and on any ``OSError``, this process
        walks the rest itself.
        """
        stack = _fold_stack(self.k, self._stack)
        middle = half // 2
        seam = half
        if half >= _SPLIT_MIN and _may_fork():
            seam = _first_repeat(word, middle + _SPLIT_LEAD, half)

        def own():
            head = self._census(stack, word, 0, middle, state)
            depth = len(stack)
            return self._census(stack, word, middle, seam, head), depth

        joined = _fork_join(lambda: self._tail_census(word, middle, seam, half), own) if seam < half else None
        if not joined:
            return _fold_tallies(self._census(stack, word, 0, half, state))
        (state, depth), reply = joined
        if reply is not None:
            *tail, tail_depth = reply
            cancelled = (depth + tail_depth - len(stack)) // 2
            if cancelled < tail_depth // 2:
                ours, theirs = _fold_tallies(state), _fold_tallies(tail)
                return ours[0] + theirs[0], ours[1] + theirs[1]
        return _fold_tallies(self._census(stack, word, seam, half, state))

    def _tail_census(self, word, middle: int, seam: int, half: int) -> tuple:
        """The worker's walk: ``word[middle:seam]`` on a fresh stack, then ``word[seam:half]``.

        Before the second census it deletes its stack up to and including the
        entry at half the depth, so a walk that comes down to that depth pops
        an empty stack and raises ``IndexError``, which fails the worker.
        Returns the second census and the depth at the seam.
        """
        stack = _fold_stack(self.k, (stack_bottom(self.k),))
        self._census(stack, word, middle, seam, _CLOSED)
        depth = len(stack) - 1
        del stack[: depth // 2 + 1]
        return (*self._census(stack, word, seam, half, _CLOSED), depth)

    @staticmethod
    def _census(stack, word, start: int, end: int, state) -> tuple[int, int, int, int, int, bool]:
        """Walk ``word[start:end]`` on ``stack`` and tally its maximal runs.

        ``state`` and the result are ``(pop_singles, pop_odd, push_singles,
        push_odd, run, popping)``: the closed pop runs and closed push runs
        of length 1 and of odd length >= 3, then the length of the open run
        and whether it pops.  The walk continues the tallies and the open
        run of ``state``, so a first step of the open run's kind extends it.

        ``stack`` is the session's list or a :func:`_fold_stack`.  Its top
        lives in a local during the walk and is back on the stack when the
        call returns: CPython 3.11 specializes ``list[i]`` only for
        non-negative ``i``, so reading ``stack[-1]`` per symbol would run the
        generic subscript.
        """
        pop_singles, pop_odd, push_singles, push_odd, run, popping = state
        push = stack.append
        pop = stack.pop
        top = pop()
        for a in memoryview(word)[start:end]:
            if a == top:
                top = pop()
                if popping:
                    run += 1
                    continue
                if run == 1:
                    push_singles += 1
                elif run & 1:
                    push_odd += 1
                popping = True
            else:
                push(top)
                top = a
                if not popping:
                    run += 1
                    continue
                if run == 1:
                    pop_singles += 1
                elif run & 1:
                    pop_odd += 1
                popping = False
            run = 1
        push(top)
        return pop_singles, pop_odd, push_singles, push_odd, run, popping

    def flush(self) -> bytes | array:
        """End the session; emit the pending odd marker if there is one.

        Returns the emitted codes in the form ``feed`` returns: empty, or the odd marker alone.
        """
        if self._finished:
            raise CodecError("compressor session already flushed")
        self._finished = True
        out = packed_buffer(self.k + 2)
        self._close_run(out)
        return frozen(out)

    def _close_run(self, out) -> None:
        """Close the open pop run: count it, and emit its odd marker into ``out`` if it is odd."""
        run = self._open_run
        self._open_run = 0
        self._pairs += run >> 1
        if run >= 2:
            self._clustered += run
        if run & 1:
            out.append(self._odd)

    def _start_feed(self, word):
        if self._finished:
            raise CodecError("compressor session already flushed")
        return packed(word, self.k, "input symbol")

    @property
    def state(self) -> int:
        return self._open_run & 1

    @property
    def stack(self) -> tuple[int, ...]:
        return tuple(self._stack)

    @property
    def symbols_read(self) -> int:
        return self._read

    @property
    def symbols_written(self) -> int:
        return self._read - self.savings - (self._open_run & 1)

    @property
    def savings(self) -> int:
        return self._pairs + (self._open_run >> 1)

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

    Its loop carries only the stack and its top.  A ``MalformedStreamError``
    names a position worked out from the symbols emitted, and ends the
    session: it leaves the stack part way through the rejected call, so every
    later ``feed`` raises ``CodecError``.  An ``AlphabetError`` is raised
    before any symbol is decoded and leaves the session usable.
    """

    def __init__(self, k: int):
        self.k = check_alphabet_size(k)
        self._stack: list[int] = [stack_bottom(k)]
        self._read = 0
        self._written = 0
        self._after_odd = False  # whether the last code read was an odd marker
        self._failed = False  # set while decoding; stays set if decoding raised

    def feed(self, word) -> bytes | array:
        """Decode ``word``; the symbols it stands for, packed.

        A long byte word may be decoded on two cores, with the same result
        (:meth:`_seam` says where): this session decodes ``word[:seam]``
        while a forked worker (:meth:`_tail_decode`) decodes the rest from
        the bare bottom.  The worker's symbols count only when this session's
        stack is bare at the seam; otherwise, where the worker fails and
        where it cannot start, this session decodes the rest itself, so a
        malformed stream raises the same error at the same position and leaves
        the same failed session.
        """
        if self._failed:
            raise CodecError("decompressor session already failed on a malformed stream")
        word = packed(word, self.k + 2, "coded symbol")
        out = packed_buffer(self.k)
        end = len(word)
        seam = self._seam(word, out)
        self._failed = True
        joined = None
        if seam < end:
            joined = _fork_join(
                lambda: self._tail_decode(word, seam), lambda: self._decode(out, word, 0, seam)
            )
        if not joined:
            self._decode(out, word, 0, end)
        elif not self._join(out, joined[1]):
            self._decode(out, word, seam, end)
        self._failed = False
        self._read += end
        if end:
            self._after_odd = word[-1] == self.k
        self._written += len(out)
        return frozen(out)

    def _seam(self, word, out) -> int:
        """Where ``feed`` splits ``word`` decoded into ``out``; the end of ``word`` where it does not.

        Where :func:`_splits` holds and the markers fit a byte (k up to 254),
        the seam is the first of the ``_SPLIT_LEAD`` codes from the middle of
        ``word`` before which the stack is bare.  A plain code pushes, an odd
        marker pops one symbol and a pair marker two, so the depth at the
        middle follows from the entry depth and two counts, and each code
        after it moves the depth by a known step.  Where the first half is
        well formed, that depth is exact.  Every word of a paired-enum file
        drains the stack; random and paired-lex codes do not come back to the
        bottom near their middle, and are decoded in one process.
        """
        end = len(word)
        if self.k >= 255 or not _splits(word, out):
            return end
        k = self.k
        middle = end // 2
        depth = len(self._stack) - 1 + middle - 2 * word.count(k, 0, middle) - 3 * word.count(k + 1, 0, middle)
        for seam, b in enumerate(word[middle : middle + _SPLIT_LEAD], middle):
            if depth == 0:
                return seam
            depth += 1 if b < k else k - 1 - b  # an odd marker pops one symbol, a pair marker two
        return end

    def _decode(self, out, word, start: int, end: int) -> None:
        """Decode ``word[start:end]`` into ``out`` on the session's stack.

        The loop carries the stack and its top, and stops short of a marker
        after an odd marker, found before it; a bad code's position follows
        from the symbols emitted.  The top lives in a local, as in
        :meth:`Compressor._code`, and is back on the stack when the loop stops,
        so an error leaves the stack as it was at the bad code.
        """
        emit = out.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        k = self.k
        emitted = len(out)
        stop = self._after_odd_marker(word, start, end)
        top = pop()
        for b in _part(word, start, stop):
            if b < k:
                if top == b:
                    break
                push(top)
                top = b
                emit(b)
            elif b == k:
                if not stack:
                    break
                emit(top)
                top = pop()
            elif len(stack) < 2:
                break
            else:
                emit(top)
                emit(pop())
                top = pop()
        else:
            push(top)
            if stop < end:
                raise MalformedStreamError(
                    f"marker at position {self._read + stop + 1} directly after an odd marker"
                )
            return
        push(top)
        position = self._position(word, start, len(out) - emitted)
        if b < k:
            raise MalformedStreamError(f"plain symbol {b} at position {position} equals the stack top")
        if b == k:
            raise MalformedStreamError(f"odd marker at position {position} with no matched symbol pending")
        raise MalformedStreamError(
            f"pair marker at position {position} with fewer than two matched symbols pending"
        )

    def _after_odd_marker(self, word, start: int, end: int) -> int:
        """The first index in ``[start, end)`` of a marker after an odd marker, else ``end``."""
        k = self.k
        if start < end and word[start] >= k and (word[start - 1] == k if start else self._after_odd):
            return start
        return min(next(_code_pairs(word, k, marker, start, end), end - 1) + 1 for marker in (k, k + 1))

    def _position(self, word, start: int, emitted: int) -> int:
        """The position, from 1, of the code where a decode from ``start`` stopped after ``emitted`` symbols.

        Each code emits one symbol and a pair marker two: the index is
        ``start + emitted`` less the pair markers before it.
        """
        index = start + emitted
        try:
            while True:
                start = word.index(self.k + 1, start, index) + 1
                index -= 1
        except ValueError:  # none left, or ``word`` cannot hold one
            return self._read + index + 1

    def _tail_decode(self, word, seam: int) -> tuple:
        """The worker's part of a split feed: the symbols of ``word[seam:]`` and the stack they leave.

        The worker decodes from the bare bottom.  A marker right at the seam
        would pop the bare bottom, so it fails the worker whatever came before
        it.  Any error ends the worker.  Returns the symbols and the stack
        above its bottom.
        """
        self._stack = [stack_bottom(self.k)]
        out = packed_buffer(self.k)
        self._decode(out, word, seam, len(word))
        return out, bytes(self._stack[1:])

    def _join(self, out, reply) -> bool:
        """Take a worker's part when this session's stack is bare at the seam; whether it was."""
        if reply is None or len(self._stack) > 1:
            return False
        symbols, stack = reply
        self._stack += stack
        out += symbols
        return True

    @property
    def stack(self) -> tuple[int, ...]:
        return tuple(self._stack)

    @property
    def symbols_read(self) -> int:
        return self._read

    @property
    def symbols_written(self) -> int:
        return self._written


def compress(word, k: int) -> bytes | array:
    """Compress a finite word over ``{0, ..., k-1}``; packed as :meth:`Compressor.feed` packs.

    The session is flushed, so a trailing odd pop run ends in its odd marker
    and the coding is injective on finite words.  The unflushed prefix
    coding of an unbounded stream is ``Compressor(k).feed(word)``.
    """
    session = Compressor(k)
    out = session.feed(word)
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
    kinds read by :func:`pdtcomp.analysis.pop_run_account`.  A flushed odd
    marker counts in the trace's ``symbols_written``.
    """
    from . import engine
    from .engine import Configuration

    word = packed(word, check_alphabet_size(k), "input symbol")
    out, config, trace = engine.run(build_compressor(k), word)
    out = list(out)
    if config.state == 1:
        out.append(odd_marker(k))
        trace.symbols_written += 1
        config = Configuration(0, config.stack)
    return out, config, trace
